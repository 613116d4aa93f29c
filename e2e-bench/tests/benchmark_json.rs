//! `BENCHMARK.json` at the repository root must describe exactly what the
//! `e2e` binary runs and prints, within the benchmark format's limits.

use svf_e2e_bench::json::Json;
use svf_e2e_bench::table::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(text.len() <= 64 << 10, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} must be an array"))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {v:?}"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn check_metrics(entries: &[Json], table: &[Metric], with_bound: bool) {
    let names: Vec<&str> = entries.iter().map(|e| str_of(e, "name")).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected,
        "BENCHMARK.json and the metric table list the same metrics, in order"
    );
    for (e, m) in entries.iter().zip(table) {
        let want: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(e), want, "{}: exactly these keys", m.name);
        assert!(valid_name(m.name), "{}: bad name", m.name);
        assert!(valid_unit(m.unit), "{}: bad unit", m.name);
        assert_eq!(str_of(e, "unit"), m.unit, "{}: unit", m.name);
        assert_eq!(
            str_of(e, "better"),
            m.better.as_str(),
            "{}: direction",
            m.name
        );
        let bound = e.get("bound").and_then(Json::as_f64);
        assert_eq!(bound, m.bound, "{}: bound", m.name);
        if let Some(b) = bound {
            assert!(
                (0.0..=0.25).contains(&b),
                "{}: bound {b} out of range",
                m.name
            );
        }
    }
}

#[test]
fn top_level_shape_and_command() {
    let spec = spec();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly the benchmark format's keys"
    );
    let command: Vec<&str> = list(&spec, "command")
        .iter()
        .map(|v| v.as_str().expect("string"))
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains("..")));
    assert!(command.contains(&"e2e-bench/Cargo.toml") && command.contains(&"e2e"));
    let paths: Vec<&str> = list(&spec, "paths")
        .iter()
        .map(|v| v.as_str().expect("string"))
        .collect();
    assert_eq!(paths, ["e2e-bench"]);
    let secs = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

#[test]
fn workloads_match_the_binary() {
    let spec = spec();
    let entries = list(&spec, "workloads");
    assert!((2..=8).contains(&entries.len()), "2 to 8 workloads");
    let names: Vec<&str> = entries.iter().map(|e| str_of(e, "name")).collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, expected);
    for (e, w) in entries.iter().zip(WORKLOADS) {
        assert_eq!(keys(e), ["name", "why"]);
        assert!(valid_name(w.name));
        assert_eq!(str_of(e, "why"), w.why, "{}: why", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn metrics_match_the_binary() {
    let spec = spec();
    let e2e = list(&spec, "end_to_end");
    let layer = list(&spec, "per_layer");
    assert!((1..=16).contains(&e2e.len()), "1 to 16 end-to-end metrics");
    assert!(
        (1..=128).contains(&layer.len()),
        "1 to 128 per-layer metrics"
    );
    check_metrics(e2e, END_TO_END, true);
    check_metrics(layer, PER_LAYER, false);
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    let mut all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "every name is used once");
}
