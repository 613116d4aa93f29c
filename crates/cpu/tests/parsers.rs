//! No-panic properties of the two user-input parsers svf-cpu owns: the
//! `--sample` plan (`SampleSpec::parse`) and the stored result row
//! (`SimStats::from_csv_row`). On arbitrary strings each returns `Ok` or
//! `Err` and never panics; whatever parses must round-trip.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use svf_cpu::{SampleSpec, SimStats, CSV_COLUMNS};

/// The spec's digits, suffixes, separators and key letters, plus junk.
const SPEC_CHARS: &str = "0123456789kKmM=,=,=, \t-+.modernaiwphulst é€\u{0}\n";

/// A row's digits and separators, plus junk.
const ROW_CHARS: &str = "0123456789,,,,, -+\t\nxé\u{0}";

/// Strings of fewer than `max_len` characters drawn from `alphabet`.
fn char_soup(alphabet: &str, max_len: usize) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    vec(select(chars), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

/// `key=value` items from the spec's vocabulary, with malformed,
/// overflowing and unknown entries mixed in.
fn spec_items() -> impl Strategy<Value = String> {
    let keys = vec![
        "mode", "period", "interval", "warmup", "ramp", "tail", "intervals", "seed", "bogus", "",
        " period ",
    ];
    let values = vec![
        "0",
        "1",
        "7",
        "50k",
        "2m",
        "3K",
        "periodic",
        "random",
        "sometimes",
        "",
        "k",
        "m",
        "-1",
        " 12 ",
        "1.5k",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "18446744073709552k",
        "é",
    ];
    let item = prop_oneof![
        6 => (select(keys), select(values)).prop_map(|(k, v)| format!("{k}={v}")),
        1 => select(vec!["=", "==", "period", ",", "mode=random=1", "seed=1,seed=2"])
            .prop_map(str::to_string),
    ];
    vec(item, 0..7).prop_map(|items| items.join(","))
}

/// CSV rows of about the right width whose fields are numbers, overflows,
/// blanks and junk.
fn csv_fields() -> impl Strategy<Value = String> {
    let fields = vec![
        "0",
        "1",
        "42",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "",
        " 7",
        "7 ",
        "x",
        "1e3",
        "+3",
        "٣",
    ];
    let n = CSV_COLUMNS.len();
    vec(select(fields), n - 2..n + 3).prop_map(|fs| fs.join(","))
}

/// A parsed spec prints as a spec that parses back to itself.
fn check_spec(text: &str) {
    if let Ok(spec) = SampleSpec::parse(text) {
        let shown = spec.to_string();
        prop_assert_eq!(SampleSpec::parse(&shown), Ok(spec), "{text:?} printed as {shown:?}");
    }
}

/// A parsed row prints as a row that parses back to the same counters.
fn check_row(text: &str) {
    if let Ok(stats) = SimStats::from_csv_row(text) {
        let row = stats.to_csv_row();
        let back = SimStats::from_csv_row(&row).expect("a printed row parses");
        prop_assert_eq!(back.flatten(), stats.flatten(), "{text:?} printed as {row:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn sample_spec_parse_never_panics_on_characters(
        text in char_soup(SPEC_CHARS, 48)
    ) {
        check_spec(&text);
    }

    #[test]
    fn sample_spec_parse_never_panics_on_items(text in spec_items()) {
        check_spec(&text);
    }

    #[test]
    fn csv_row_parse_never_panics_on_characters(
        text in char_soup(ROW_CHARS, 160)
    ) {
        check_row(&text);
    }

    #[test]
    fn csv_row_parse_never_panics_on_fields(text in csv_fields()) {
        check_row(&text);
    }

    #[test]
    fn every_flattened_row_round_trips(
        values in vec(any::<u64>(), CSV_COLUMNS.len()..CSV_COLUMNS.len() + 1),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        // Any full-width row of counters parses; the two structure
        // presence columns read as flags, and an absent structure's
        // counters as zeros. Its flattened counters then print and parse
        // back unchanged.
        let mut row = values;
        let column = |name| CSV_COLUMNS.iter().position(|c| *c == name).expect("column exists");
        row[column("svf_present")] = u64::from(flags.0);
        row[column("sc_present")] = u64::from(flags.1);
        let text = row.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let stats = SimStats::from_csv_row(&text).expect("a full-width numeric row parses");
        let flat = stats.flatten();
        let reparsed = SimStats::from_csv_row(&stats.to_csv_row()).expect("a printed row parses");
        prop_assert_eq!(reparsed.flatten(), flat);
        prop_assert_eq!((stats.svf.is_some(), stats.stack_cache.is_some()), flags);
    }
}
