//! No-panic properties of the three user-input parsers svf-configspace
//! owns: machine config files (`from_toml`), overlays (`Overlay::parse`)
//! and sweep specs (`SweepSpec::from_toml`). On arbitrary text each returns
//! `Ok` or `Err` and never panics. Where a printer exists (`to_toml`,
//! the overlay's `Display`), whatever parses prints as text that parses
//! back unchanged.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use svf_configspace::{from_toml, to_toml, Overlay, SweepSpec, FIELDS};

/// The TOML subset's punctuation, digits, suffixes and key letters, plus
/// junk.
const TOML_CHARS: &str = "0123456789kKmM=[],#\"\n\n \t_-.:{}abdefilnorstuwz é€\u{0}\r";

/// Strings of fewer than `max_len` characters drawn from `alphabet`.
fn char_soup(alphabet: &str, max_len: usize) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    vec(select(chars), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

/// Right-hand sides: valid and invalid scalars, quoted strings with the
/// grammar's own delimiters inside, arrays, overflows and junk.
fn values() -> Vec<&'static str> {
    vec![
        "0",
        "1",
        "3",
        "8",
        "64",
        "256",
        "8k",
        "64k",
        "2m",
        "1M",
        "true",
        "false",
        "svf",
        "stack-cache",
        "ideal",
        "none",
        "gshare",
        "perfect",
        "grid",
        "random",
        "pareto",
        "test",
        "twolf",
        "\"svf\"",
        "\"true\"",
        "\"8k\"",
        "\"a b\"",
        "\"a:b\"",
        "\"a=b\"",
        "\"}\"",
        "\"a#b\"",
        "\"",
        "\"\"",
        "[1, 2, 4]",
        "[8k, 16k]",
        "[\"twolf\", \"mcf\"]",
        "[svf, none]",
        "[]",
        "[1,",
        "-1",
        "1.5",
        "18446744073709551615",
        "18446744073709551616",
        "18014398509481984k",
        "17592186044416m",
        "",
        "é",
    ]
}

/// Config-file lines: `field = value` over the real fields and some junk
/// keys, with sections, comments and malformed lines mixed in.
fn config_lines() -> impl Strategy<Value = String> {
    let mut keys: Vec<&str> = FIELDS.to_vec();
    keys.extend(["bogus", "", "a b", "width "]);
    let line = prop_oneof![
        8 => (select(keys), select(values())).prop_map(|(k, v)| format!("{k} = {v}")),
        1 => select(vec!["[axes]", "[", "# comment", "=", "width", "width = 4 # trailing", ""])
            .prop_map(str::to_string),
    ];
    vec(line, 0..10).prop_map(|lines| lines.join("\n"))
}

/// Overlay text: `field=value` or `field: value` pairs over the real
/// fields and junk names, optionally braced.
fn overlay_items() -> impl Strategy<Value = String> {
    let mut keys: Vec<&str> = FIELDS.to_vec();
    keys.extend(["bogus", "", " ruu_size ", "{", "}"]);
    let pair = prop_oneof![
        6 => (select(keys), select(vec!["=", ":", " = ", ": "]), select(values()))
            .prop_map(|(k, sep, v)| format!("{k}{sep}{v}")),
        1 => select(vec!["=", ":", ",", "{", "}", "ruu_size", "a=b=c"]).prop_map(str::to_string),
    ];
    (vec(pair, 0..6), any::<bool>()).prop_map(|(pairs, braced)| {
        let body = pairs.join(", ");
        if braced {
            format!("{{{body}}}")
        } else {
            body
        }
    })
}

/// Sweep-spec lines: every top-level key, `[axes]` over the real fields,
/// `[sampling]` over the plan's keys, and junk.
fn spec_lines() -> impl Strategy<Value = String> {
    let top = vec![
        "name", "mode", "base", "scale", "samples", "seed", "rounds", "max_points", "threads",
        "workload", "workloads", "bogus",
    ];
    let sampling =
        vec!["mode", "seed", "period", "interval", "warmup", "ramp", "tail", "intervals", "x"];
    let line = prop_oneof![
        4 => (select(top), select(values())).prop_map(|(k, v)| format!("{k} = {v}")),
        4 => (select(FIELDS.to_vec()), select(values()))
            .prop_map(|(k, v)| format!("[axes]\n{k} = {v}")),
        2 => (select(sampling), select(values()))
            .prop_map(|(k, v)| format!("[sampling]\n{k} = {v}")),
        1 => select(vec![
            "[axes]",
            "[sampling]",
            "[bogus]",
            "base = \"svf\"",
            "workload = \"twolf\"",
        ])
        .prop_map(str::to_string),
    ];
    vec(line, 0..12).prop_map(|lines| lines.join("\n"))
}

/// Specs that parse and have many long axes: integer fields that accept
/// every count from 1 up, each swept over `1..=n`.
fn wide_specs() -> impl Strategy<Value = String> {
    let fields = vec![
        "width",
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
        "stack_cache_hit_latency",
        "il1_hit_latency",
        "dl1_hit_latency",
        "l2_hit_latency",
        "mem_latency",
    ];
    vec(1usize..48, 1..fields.len()).prop_map(move |counts| {
        let mut text = String::from("workload = \"twolf\"\n[axes]\n");
        for (field, n) in fields.iter().zip(counts) {
            let values: Vec<String> = (1..=n).map(|v| v.to_string()).collect();
            text.push_str(&format!("{field} = [{}]\n", values.join(", ")));
        }
        text
    })
}

/// A parsed config prints as a document that parses back to itself.
fn check_config(text: &str) {
    if let Ok(cfg) = from_toml(text) {
        let shown = to_toml(&cfg);
        prop_assert_eq!(from_toml(&shown), Ok(cfg), "{text:?} printed as {shown:?}");
    }
}

/// A parsed overlay prints as an overlay that parses back to itself.
fn check_overlay(text: &str) {
    if let Ok(overlay) = Overlay::parse(text) {
        let shown = overlay.to_string();
        prop_assert_eq!(Overlay::parse(&shown), Ok(overlay), "{text:?} printed as {shown:?}");
    }
}

/// A sweep spec parses or fails; a parsed one can size its lattice.
fn check_spec(text: &str) {
    if let Ok(spec) = SweepSpec::from_toml(text) {
        let product = spec.axes.iter().try_fold(1u64, |n, a| n.checked_mul(a.values.len() as u64));
        prop_assert_eq!(spec.lattice_size(), product.unwrap_or(u64::MAX), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn config_parse_never_panics_on_characters(text in char_soup(TOML_CHARS, 64)) {
        check_config(&text);
    }

    #[test]
    fn config_parse_never_panics_on_lines(text in config_lines()) {
        check_config(&text);
    }

    #[test]
    fn overlay_parse_never_panics_on_characters(text in char_soup(TOML_CHARS, 48)) {
        check_overlay(&text);
    }

    #[test]
    fn overlay_parse_never_panics_on_items(text in overlay_items()) {
        check_overlay(&text);
    }

    #[test]
    fn sweep_spec_parse_never_panics_on_characters(text in char_soup(TOML_CHARS, 64)) {
        check_spec(&text);
    }

    #[test]
    fn sweep_spec_parse_never_panics_on_lines(text in spec_lines()) {
        check_spec(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn a_lattice_too_large_to_count_saturates(text in wide_specs()) {
        check_spec(&text);
    }
}
