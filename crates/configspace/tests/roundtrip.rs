//! Property tests for the config codec and overlay algebra:
//!
//! - any valid machine config survives a TOML round-trip unchanged;
//! - overlay application is deterministic, last-write-wins, and never
//!   silently drops an assignment;
//! - the overlay display syntax parses back to the same overlay.

use proptest::prelude::*;
use proptest::collection::vec;
use svf_configspace::{
    from_toml, get, set, to_toml, Overlay, Value, FIELDS, PREDICTORS, STACK_ENGINES,
};
use svf_cpu::CpuConfig;

/// A power of two `2^lo ..= 2^hi` picked by a raw draw.
fn pow2(raw: u64, lo: u32, hi: u32) -> u64 {
    1 << (lo + (raw % u64::from(hi - lo + 1)) as u32)
}

/// Maps one raw 64-bit draw into `field`'s valid range: enum fields pick
/// from their accepted spellings, bool fields fold to a bit, sizes and
/// line sizes are powers of two chosen so that any combination of them
/// divides into whole sets (caches 4 KB–16 MB, lines 8–256 B, 1–16 ways),
/// latencies and `stack_ports` are at least 1 (so every stack engine
/// validates), and the remaining integers keep to the ranges `set` accepts.
fn value_for(field: &str, raw: u64) -> Value {
    let int = match field {
        "predictor" => return Value::Str(PREDICTORS[(raw % 2) as usize].0.into()),
        "stack_engine" => {
            return Value::Str(STACK_ENGINES[(raw % STACK_ENGINES.len() as u64) as usize].0.into())
        }
        "no_addr_calc_for_stack" | "svf_no_squash" => return Value::Bool(raw & 1 == 1),
        "gshare_history_bits" => raw % 25,
        "svf_bytes" | "stack_cache_bytes" => pow2(raw, 8, 24),
        f if f.ends_with("_line_bytes") => pow2(raw, 3, 8),
        f if f.ends_with("_assoc") => pow2(raw, 0, 4),
        f if f.ends_with("_bytes") => pow2(raw, 12, 24),
        f if f.ends_with("_latency") => raw.max(1),
        f if f.ends_with("_penalty") => raw,
        "stack_ports" => 1 + raw % 64,
        _ => 1 + raw % 256,
    };
    Value::Int(int)
}

/// Builds a config from one raw draw per field.
fn config_from_raws(raws: &[u64]) -> CpuConfig {
    let mut cfg = CpuConfig::wide16();
    for (field, &raw) in FIELDS.iter().zip(raws) {
        set(&mut cfg, field, &value_for(field, raw)).expect("pool values are valid");
    }
    cfg
}

proptest! {
    #[test]
    fn any_config_roundtrips_through_toml(raws in vec(any::<u64>(), FIELDS.len()..FIELDS.len() + 1)) {
        let cfg = config_from_raws(&raws);
        let text = to_toml(&cfg);
        let back = from_toml(&text)
            .unwrap_or_else(|e| panic!("serialized config re-parses: {e}\n{text}"));
        prop_assert_eq!(back, cfg, "TOML round-trip is the identity");
    }

    #[test]
    fn overlay_application_is_deterministic_and_last_write_wins(
        picks in vec((any::<u64>(), any::<u64>()), 0..24),
    ) {
        let assigns: Vec<(&str, Value)> = picks
            .iter()
            .map(|&(f, raw)| {
                let field = FIELDS[(f % FIELDS.len() as u64) as usize];
                (field, value_for(field, raw))
            })
            .collect();
        let mut overlay = Overlay::new();
        for (field, value) in &assigns {
            overlay = overlay.assign(field, value.clone());
        }
        // Stack ports on the base too, so a drawn engine never lacks them.
        let base = CpuConfig::wide16().with_ports(2, 2);
        let once = overlay.apply(&base).expect("pool assignments apply");
        let twice = overlay.apply(&base).expect("pool assignments apply");
        prop_assert_eq!(&once, &twice, "application is deterministic");

        // Last write wins: the final value of every touched field is the
        // last assignment to it; untouched fields keep the base value.
        for field in FIELDS {
            let expected = assigns
                .iter()
                .rev()
                .find(|(f, _)| f == field)
                .map_or_else(|| get(&base, field).unwrap(), |(_, v)| v.clone());
            prop_assert_eq!(
                get(&once, field).unwrap(),
                expected,
                "field {} reflects its last assignment",
                field
            );
        }
    }

    #[test]
    fn overlay_display_parses_back(picks in vec((any::<u64>(), any::<u64>()), 0..12)) {
        let mut overlay = Overlay::new();
        for &(f, raw) in &picks {
            let field = FIELDS[(f % FIELDS.len() as u64) as usize];
            overlay = overlay.assign(field, value_for(field, raw));
        }
        let reparsed = Overlay::parse(&overlay.to_string())
            .unwrap_or_else(|e| panic!("display re-parses: {e}\n{overlay}"));
        prop_assert_eq!(reparsed, overlay, "display/parse is the identity");
    }
}

/// A misspelled field in an otherwise-valid document must fail the whole
/// parse (satellite: no silent field drops).
#[test]
fn from_toml_rejects_unknown_keys_whole() {
    let mut text = to_toml(&CpuConfig::wide16());
    text.push_str("ruu_siez = 128\n");
    let err = from_toml(&text).expect_err("unknown key is fatal");
    assert!(err.contains("ruu_siez"), "{err}");
}
