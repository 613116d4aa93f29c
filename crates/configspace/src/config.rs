//! The field table: every [`CpuConfig`] field by name, with its checks.

use svf_cpu::{CpuConfig, PredictorKind, StackEngine, LOCKSTEP_WINDOW};

use crate::value::Value;

/// Every field of the machine, in serialization order. This is the single
/// authority on what the config space contains: serialization emits the
/// fields in this order, overlays and sweep axes may only name fields
/// listed here, and [`get`]/[`set`] cover exactly this list (a unit test
/// pins the bijection).
pub const FIELDS: &[&str] = &[
    "width",
    "ifq_size",
    "ruu_size",
    "lsq_size",
    "int_alus",
    "int_mults",
    "dl1_ports",
    "stack_ports",
    "store_forward_latency",
    "mul_latency",
    "div_latency",
    "redirect_penalty",
    "squash_penalty",
    "no_addr_calc_for_stack",
    "predictor",
    "gshare_history_bits",
    "stack_engine",
    "svf_bytes",
    "svf_no_squash",
    "stack_cache_bytes",
    "stack_cache_line_bytes",
    "stack_cache_hit_latency",
    "il1_bytes",
    "il1_assoc",
    "il1_line_bytes",
    "il1_hit_latency",
    "dl1_bytes",
    "dl1_assoc",
    "dl1_line_bytes",
    "dl1_hit_latency",
    "l2_bytes",
    "l2_assoc",
    "l2_line_bytes",
    "l2_hit_latency",
    "mem_latency",
];

/// The accepted `predictor` spellings.
pub const PREDICTORS: &[(&str, PredictorKind)] =
    &[("perfect", PredictorKind::Perfect), ("gshare", PredictorKind::Gshare)];

/// The accepted `stack_engine` spellings.
pub const STACK_ENGINES: &[(&str, StackEngine)] = &[
    ("none", StackEngine::None),
    ("svf", StackEngine::Svf),
    ("stack-cache", StackEngine::StackCache),
    ("ideal", StackEngine::IdealSvf),
];

/// The largest cache, SVF or stack-cache size (and line size) a field
/// accepts: 1 GiB, far past any machine of the paper's era.
const MAX_STRUCTURE_BYTES: u64 = 1 << 30;

/// The largest `gshare_history_bits`: a 16 M-entry pattern history table.
const MAX_GSHARE_HISTORY_BITS: u64 = 24;

/// What one integer field may hold, checked on each write on its own.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Any value.
    Any,
    /// At least one (widths, queue depths, unit counts, and the latencies
    /// of results a consumer waits for: the pipeline models no
    /// zero-latency unit).
    Positive,
    /// A power of two from the given floor up to [`MAX_STRUCTURE_BYTES`].
    Pow2(u64),
    /// Within the inclusive bounds.
    Range(u64, u64),
}

impl Rule {
    /// `n` when the rule admits it, else a message naming `field`.
    fn check(self, field: &str, n: u64) -> Result<u64, String> {
        let (ok, want) = match self {
            Rule::Any => (true, String::new()),
            Rule::Positive => (n >= 1, "at least 1".to_string()),
            Rule::Pow2(min) => (
                n.is_power_of_two() && (min..=MAX_STRUCTURE_BYTES).contains(&n),
                format!("a power of two from {min} to {MAX_STRUCTURE_BYTES}"),
            ),
            Rule::Range(lo, hi) => ((lo..=hi).contains(&n), format!("from {lo} to {hi}")),
        };
        if ok {
            Ok(n)
        } else {
            Err(format!("{field} must be {want}, got {n}"))
        }
    }
}

/// A mutable view of one field, typed by its storage.
enum Slot<'a> {
    Usize(&'a mut usize, Rule),
    U64(&'a mut u64, Rule),
    U32(&'a mut u32, Rule),
    Bool(&'a mut bool),
    Engine(&'a mut StackEngine),
    Predictor(&'a mut PredictorKind),
}

/// The one name → field map behind [`get`] and [`set`].
fn slot<'a>(cfg: &'a mut CpuConfig, field: &str) -> Option<Slot<'a>> {
    use Rule::{Any, Positive, Pow2, Range};
    use Slot::{Bool, U32, U64, Usize};
    let h = &mut cfg.hierarchy;
    Some(match field {
        "width" => Usize(&mut cfg.width, Positive),
        "ifq_size" => Usize(&mut cfg.ifq_size, Positive),
        "ruu_size" => Usize(&mut cfg.ruu_size, Positive),
        "lsq_size" => Usize(&mut cfg.lsq_size, Positive),
        "int_alus" => Usize(&mut cfg.int_alus, Positive),
        "int_mults" => Usize(&mut cfg.int_mults, Positive),
        "dl1_ports" => Usize(&mut cfg.dl1_ports, Positive),
        "stack_ports" => Usize(&mut cfg.stack_ports, Any),
        "store_forward_latency" => U64(&mut cfg.store_forward_latency, Positive),
        "mul_latency" => U64(&mut cfg.mul_latency, Positive),
        "div_latency" => U64(&mut cfg.div_latency, Positive),
        "redirect_penalty" => U64(&mut cfg.redirect_penalty, Any),
        "squash_penalty" => U64(&mut cfg.squash_penalty, Any),
        "no_addr_calc_for_stack" => Bool(&mut cfg.no_addr_calc_for_stack),
        "predictor" => Slot::Predictor(&mut cfg.predictor),
        "gshare_history_bits" => {
            U32(&mut cfg.gshare_history_bits, Range(0, MAX_GSHARE_HISTORY_BITS))
        }
        "stack_engine" => Slot::Engine(&mut cfg.stack_engine),
        "svf_bytes" => U64(&mut cfg.svf.capacity_bytes, Pow2(8)),
        "svf_no_squash" => Bool(&mut cfg.svf_no_squash),
        "stack_cache_bytes" => U64(&mut cfg.stack_cache.size_bytes, Pow2(1)),
        "stack_cache_line_bytes" => U64(&mut cfg.stack_cache.line_bytes, Pow2(8)),
        "stack_cache_hit_latency" => U64(&mut cfg.stack_cache.hit_latency, Positive),
        "il1_bytes" => U64(&mut h.il1.size_bytes, Pow2(1)),
        "il1_assoc" => U32(&mut h.il1.assoc, Range(1, 16)),
        "il1_line_bytes" => U64(&mut h.il1.line_bytes, Pow2(8)),
        "il1_hit_latency" => U64(&mut h.il1.hit_latency, Any),
        "dl1_bytes" => U64(&mut h.dl1.size_bytes, Pow2(1)),
        "dl1_assoc" => U32(&mut h.dl1.assoc, Range(1, 16)),
        "dl1_line_bytes" => U64(&mut h.dl1.line_bytes, Pow2(8)),
        "dl1_hit_latency" => U64(&mut h.dl1.hit_latency, Positive),
        "l2_bytes" => U64(&mut h.l2.size_bytes, Pow2(1)),
        "l2_assoc" => U32(&mut h.l2.assoc, Range(1, 16)),
        "l2_line_bytes" => U64(&mut h.l2.line_bytes, Pow2(8)),
        "l2_hit_latency" => U64(&mut h.l2.hit_latency, Any),
        "mem_latency" => U64(&mut h.mem_latency, Any),
        _ => return None,
    })
}

/// The spelling of an enum value in its table.
fn name_of<T: PartialEq>(table: &[(&'static str, T)], value: &T) -> &'static str {
    table.iter().find(|(_, v)| v == value).map(|(name, _)| *name).expect("every variant is spelled")
}

/// The enum value `value` spells in its table.
fn spelled<T: Copy>(field: &str, value: &Value, table: &[(&str, T)]) -> Result<T, String> {
    let s = value.as_str().ok_or_else(|| format!("{field} wants a string, got {value}"))?;
    table.iter().find(|(name, _)| *name == s).map(|(_, v)| *v).ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        format!("{field} must be one of {}, got {s:?}", names.join("|"))
    })
}

/// Reads one field by name. Returns `None` for unknown field names (the
/// name authority is [`FIELDS`]).
#[must_use]
pub fn get(cfg: &CpuConfig, field: &str) -> Option<Value> {
    // One table serves both directions: read through a scratch copy.
    let mut scratch = cfg.clone();
    Some(match slot(&mut scratch, field)? {
        Slot::Usize(v, _) => Value::Int(*v as u64),
        Slot::U64(v, _) => Value::Int(*v),
        Slot::U32(v, _) => Value::Int(u64::from(*v)),
        Slot::Bool(v) => Value::Bool(*v),
        Slot::Engine(e) => Value::Str(name_of(STACK_ENGINES, e).to_string()),
        Slot::Predictor(p) => Value::Str(name_of(PREDICTORS, p).to_string()),
    })
}

/// Writes one field by name, checking the value on its own: type, enum
/// spelling, and range (sizes and line sizes are powers of two up to
/// 1 GiB, lines and the SVF at least 8 bytes, associativities 1–16,
/// `gshare_history_bits` at most 24, widths, queues, unit counts and the
/// DL1, stack-cache, forwarding, multiply and divide latencies at least 1).
/// Cache geometry and stack ports span fields, so they are checked once per
/// finished config instead: by [`Overlay::apply`](crate::Overlay::apply),
/// [`from_toml`] and the sweep specs.
///
/// # Errors
///
/// Unknown field names and rejected values, with a message naming the
/// field — a misspelled overlay key can never be silently dropped. A
/// failed write leaves the config unchanged.
pub fn set(cfg: &mut CpuConfig, field: &str, value: &Value) -> Result<(), String> {
    let slot = slot(cfg, field).ok_or_else(|| format!("unknown config field {field:?}"))?;
    let int = |rule: Rule| {
        let n = value.as_int().ok_or_else(|| format!("{field} wants an integer, got {value}"))?;
        rule.check(field, n)
    };
    let narrow = |_| format!("{field} is out of range, got {value}");
    match slot {
        Slot::Usize(v, rule) => *v = usize::try_from(int(rule)?).map_err(narrow)?,
        Slot::U64(v, rule) => *v = int(rule)?,
        Slot::U32(v, rule) => *v = u32::try_from(int(rule)?).map_err(narrow)?,
        Slot::Bool(v) => {
            *v = value.as_bool().ok_or_else(|| format!("{field} wants a bool, got {value}"))?;
        }
        Slot::Engine(e) => *e = spelled(field, value, STACK_ENGINES)?,
        Slot::Predictor(p) => *p = spelled(field, value, PREDICTORS)?,
    }
    Ok(())
}

/// The checks that span fields, run once on each finished config (after a
/// whole overlay, TOML document or sweep point, so field order never
/// matters): `ifq_size + width` must fit below the simulator's
/// [`LOCKSTEP_WINDOW`], an `svf` or `stack-cache` engine needs at least one
/// stack port (its port-bound accesses would never issue), and every
/// cache's `bytes / (assoc × line)` and the stack cache's `bytes / line`
/// must be a non-zero power of two.
///
/// # Errors
///
/// Names the fields that overflow the window, the portless engine, or the
/// structure whose geometry does not divide.
pub(crate) fn validate(cfg: &CpuConfig) -> Result<(), String> {
    if cfg.ifq_size.saturating_add(cfg.width) >= LOCKSTEP_WINDOW {
        return Err(format!(
            "ifq_size {} + width {} must stay below the {LOCKSTEP_WINDOW}-record lockstep window",
            cfg.ifq_size, cfg.width
        ));
    }
    let ported = matches!(cfg.stack_engine, StackEngine::Svf | StackEngine::StackCache);
    if ported && cfg.stack_ports == 0 {
        return Err(format!(
            "stack_engine {} needs stack_ports of at least 1, got 0",
            name_of(STACK_ENGINES, &cfg.stack_engine)
        ));
    }
    let h = &cfg.hierarchy;
    let sc = &cfg.stack_cache;
    let structures = [
        ("il1", h.il1.size_bytes, h.il1.line_bytes.saturating_mul(u64::from(h.il1.assoc))),
        ("dl1", h.dl1.size_bytes, h.dl1.line_bytes.saturating_mul(u64::from(h.dl1.assoc))),
        ("l2", h.l2.size_bytes, h.l2.line_bytes.saturating_mul(u64::from(h.l2.assoc))),
        ("stack_cache", sc.size_bytes, sc.line_bytes),
    ];
    for (name, bytes, set_bytes) in structures {
        let sets = bytes.checked_div(set_bytes).unwrap_or(0);
        if !sets.is_power_of_two() {
            return Err(format!(
                "{name}: {bytes} bytes in {set_bytes}-byte sets gives {sets} sets, \
                 want a non-zero power of two"
            ));
        }
    }
    Ok(())
}

/// The hardware budget of the configured stack structure in bytes — the
/// cost axis of the Pareto sweeps (IPC vs. dedicated stack storage). `none`
/// costs nothing; the ideal (infinite) SVF is `u64::MAX` so it can never
/// sit on a finite frontier.
#[must_use]
pub fn stack_structure_bytes(cfg: &CpuConfig) -> u64 {
    match cfg.stack_engine {
        StackEngine::None => 0,
        StackEngine::Svf => cfg.svf.capacity_bytes,
        StackEngine::StackCache => cfg.stack_cache.size_bytes,
        StackEngine::IdealSvf => u64::MAX,
    }
}

/// Serializes every field (in [`FIELDS`] order) as a TOML document.
/// Cache display names are not fields; they keep their role names.
#[must_use]
pub fn to_toml(cfg: &CpuConfig) -> String {
    let mut out = String::from("# svf-configspace machine config\n");
    for field in FIELDS {
        let v = get(cfg, field).expect("FIELDS and get() agree");
        out.push_str(&format!("{field} = {}\n", v.to_toml()));
    }
    out
}

/// Deserializes a TOML document written by [`to_toml`] (or a hand-written
/// partial one: omitted fields keep their [`CpuConfig::wide16`] values,
/// exactly like an overlay over the baseline).
///
/// # Errors
///
/// Unknown keys, rejected values, inconsistent cache geometry, and TOML
/// syntax errors.
pub fn from_toml(text: &str) -> Result<CpuConfig, String> {
    let doc = crate::toml::parse(text)?;
    let mut cfg = CpuConfig::wide16();
    for item in &doc.items {
        if !item.section.is_empty() {
            return Err(format!("unexpected section [{}] in a machine config", item.section));
        }
        let v = item
            .value
            .as_scalar()
            .ok_or_else(|| format!("{} wants a scalar, got an array", item.key))?;
        set(&mut cfg, &item.key, v)?;
    }
    validate(&cfg)?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: u64) -> Value {
        Value::Int(n)
    }

    #[test]
    fn fields_and_accessors_are_a_bijection() {
        let mut cfg = CpuConfig::wide16();
        for field in FIELDS {
            let v = get(&cfg, field).unwrap_or_else(|| panic!("get covers {field}"));
            set(&mut cfg, field, &v).unwrap_or_else(|e| panic!("set covers {field}: {e}"));
        }
        assert_eq!(cfg, CpuConfig::wide16(), "get→set is the identity");
        assert!(get(&cfg, "no_such_field").is_none());
        assert!(set(&mut cfg, "no_such_field", &int(1)).is_err());
    }

    #[test]
    fn enum_fields_reject_misspellings() {
        let mut cfg = CpuConfig::wide16();
        assert!(set(&mut cfg, "stack_engine", &Value::Str("svvf".into())).is_err());
        assert!(set(&mut cfg, "predictor", &Value::Str("oracle".into())).is_err());
        assert!(set(&mut cfg, "width", &Value::Str("wide".into())).is_err());
        assert!(set(&mut cfg, "svf_no_squash", &int(1)).is_err());
        assert_eq!(cfg, CpuConfig::wide16(), "failed sets leave no trace");
    }

    #[test]
    fn stack_structure_cost_tracks_the_engine() {
        let mut cfg = CpuConfig::wide16();
        assert_eq!(stack_structure_bytes(&cfg), 0);
        set(&mut cfg, "stack_engine", &Value::Str("svf".into())).unwrap();
        set(&mut cfg, "svf_bytes", &int(4096)).unwrap();
        assert_eq!(stack_structure_bytes(&cfg), 4096);
        set(&mut cfg, "stack_engine", &Value::Str("stack-cache".into())).unwrap();
        assert_eq!(stack_structure_bytes(&cfg), 8 << 10);
        set(&mut cfg, "stack_engine", &Value::Str("ideal".into())).unwrap();
        assert_eq!(stack_structure_bytes(&cfg), u64::MAX);
    }

    /// Seed behaviour: a 3 KB DL1 panicked in `Cache::new`.
    #[test]
    fn non_power_of_two_cache_size_is_rejected() {
        let err = set(&mut CpuConfig::wide16(), "dl1_bytes", &int(3 << 10)).unwrap_err();
        assert!(err.contains("dl1_bytes") && err.contains("power of two"), "{err}");
    }

    /// Seed behaviour: `l2_assoc = 0` divided by zero.
    #[test]
    fn zero_associativity_is_rejected() {
        let err = set(&mut CpuConfig::wide16(), "l2_assoc", &int(0)).unwrap_err();
        assert!(err.contains("l2_assoc"), "{err}");
        assert!(set(&mut CpuConfig::wide16(), "l2_assoc", &int(17)).is_err());
    }

    /// Seed behaviour: a 4-byte stack-cache line tripped an assert.
    #[test]
    fn line_sizes_below_eight_bytes_are_rejected() {
        let err = set(&mut CpuConfig::wide16(), "stack_cache_line_bytes", &int(4)).unwrap_err();
        assert!(err.contains("stack_cache_line_bytes"), "{err}");
    }

    /// Seed behaviour: `svf_bytes = 12` silently built a 1-entry SVF.
    #[test]
    fn svf_size_must_be_a_power_of_two_multiple_of_eight() {
        let mut cfg = CpuConfig::wide16();
        assert!(set(&mut cfg, "svf_bytes", &int(12)).is_err());
        assert!(set(&mut cfg, "svf_bytes", &int(4)).is_err());
        set(&mut cfg, "svf_bytes", &int(8)).expect("one entry, asked for exactly");
    }

    /// Seed behaviour: 70 history bits silently built a 64-entry table.
    #[test]
    fn gshare_history_bits_are_bounded() {
        let mut cfg = CpuConfig::wide16();
        let err = set(&mut cfg, "gshare_history_bits", &int(70)).unwrap_err();
        assert!(err.contains("gshare_history_bits"), "{err}");
        assert!(set(&mut cfg, "gshare_history_bits", &int(MAX_GSHARE_HISTORY_BITS + 1)).is_err());
        set(&mut cfg, "gshare_history_bits", &int(MAX_GSHARE_HISTORY_BITS)).expect("in range");
    }

    #[test]
    fn widths_and_unit_counts_are_positive() {
        let mut cfg = CpuConfig::wide16();
        assert!(set(&mut cfg, "width", &int(0)).unwrap_err().contains("width"));
        set(&mut cfg, "stack_ports", &int(0)).expect("no stack ports is the baseline");
    }

    /// The error applying `overlay` to preset `base`. The pipeline models
    /// no zero-latency unit, and a stack engine without ports never issues
    /// its port-bound accesses, so each case below must fail here rather
    /// than deadlock a run.
    fn rejected(base: &str, overlay: &str) -> String {
        let base = crate::registry::require_preset(base).expect("preset");
        crate::Overlay::parse(overlay).expect("parses").apply(&base).expect_err(overlay)
    }

    #[test]
    fn zero_mul_latency_is_rejected() {
        assert_eq!(rejected("svf", "{mul_latency: 0}"), "mul_latency must be at least 1, got 0");
    }

    #[test]
    fn zero_div_latency_is_rejected() {
        assert_eq!(rejected("svf", "{div_latency: 0}"), "div_latency must be at least 1, got 0");
    }

    #[test]
    fn zero_store_forward_latency_is_rejected() {
        assert_eq!(
            rejected("svf", "{store_forward_latency: 0}"),
            "store_forward_latency must be at least 1, got 0"
        );
    }

    #[test]
    fn zero_dl1_hit_latency_is_rejected() {
        assert_eq!(
            rejected("svf", "{dl1_hit_latency: 0}"),
            "dl1_hit_latency must be at least 1, got 0"
        );
    }

    #[test]
    fn zero_stack_cache_hit_latency_is_rejected() {
        assert_eq!(
            rejected("svf", "{stack_engine: stack-cache, stack_cache_hit_latency: 0}"),
            "stack_cache_hit_latency must be at least 1, got 0"
        );
    }

    #[test]
    fn a_stack_engine_without_stack_ports_is_rejected() {
        assert_eq!(
            rejected("svf", "{stack_ports: 0}"),
            "stack_engine svf needs stack_ports of at least 1, got 0"
        );
        assert_eq!(
            rejected("stack-cache", "{stack_ports: 0}"),
            "stack_engine stack-cache needs stack_ports of at least 1, got 0"
        );
        // Field order never matters: the engine is checked on the whole config.
        assert_eq!(
            rejected("base", "{stack_engine: svf}"),
            "stack_engine svf needs stack_ports of at least 1, got 0"
        );
        for ok in ["{stack_engine: ideal}", "{stack_engine: none}"] {
            crate::Overlay::parse(ok).unwrap().apply(&CpuConfig::wide16()).expect(ok);
        }
    }

    /// Each field is in range on its own; only their sum overflows the
    /// window the lockstep driver asserts on.
    #[test]
    fn validate_bounds_ifq_plus_width_by_the_lockstep_window() {
        let mut cfg = CpuConfig::wide16();
        set(&mut cfg, "ifq_size", &int(2000)).expect("a queue size on its own");
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("ifq_size") && err.contains("width"), "{err}");

        let mut cfg = CpuConfig::wide16();
        set(&mut cfg, "width", &int(1024)).expect("a width on its own");
        assert!(validate(&cfg).unwrap_err().contains("lockstep window"));

        let mut cfg = CpuConfig::wide16();
        let ifq = (LOCKSTEP_WINDOW - 1 - cfg.width) as u64;
        set(&mut cfg, "ifq_size", &int(ifq)).unwrap();
        validate(&cfg).expect("one record below the window fits");
        set(&mut cfg, "ifq_size", &int(ifq + 1)).unwrap();
        assert!(validate(&cfg).is_err(), "filling the window exactly does not");
    }

    #[test]
    fn validate_checks_cache_geometry_across_fields() {
        let mut cfg = CpuConfig::wide16();
        validate(&cfg).expect("the baseline is consistent");
        set(&mut cfg, "dl1_assoc", &int(3)).expect("3 ways is fine on its own");
        assert!(validate(&cfg).unwrap_err().contains("dl1"));
        set(&mut cfg, "dl1_assoc", &int(4)).unwrap();
        set(&mut cfg, "stack_cache_line_bytes", &int(16 << 10)).expect("a line on its own");
        assert!(validate(&cfg).unwrap_err().contains("stack_cache"), "line beyond the size");
    }

    #[test]
    fn from_toml_checks_geometry_once_at_the_end() {
        let err = from_toml("dl1_bytes = 1k\ndl1_assoc = 16\ndl1_line_bytes = 128\n")
            .expect_err("1k / (16 × 128) is no set at all");
        assert!(err.contains("dl1"), "{err}");
        // 64 bytes under the baseline's 4 × 32-byte sets is inconsistent
        // until the later lines shrink the sets: only the end state counts.
        let ok = from_toml("dl1_bytes = 64\ndl1_assoc = 1\ndl1_line_bytes = 8\n")
            .expect("8 sets once the document is whole");
        assert_eq!(ok.hierarchy.dl1.size_bytes, 64);
    }
}
