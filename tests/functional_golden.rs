//! Golden pin for the functional simulations behind Tables 3 and 4 and
//! Figures 1–3.
//!
//! `traffic_run` (stack cache vs SVF traffic, context-switch writebacks)
//! and `characterize_program` (reference classification, stack depth,
//! offsets from the TOS) replay the committed reference stream without any
//! timing model. The traffic tests next to them check only inequalities,
//! which a changed count can still satisfy; this suite pins the exact
//! numbers for three kernels (flat bzip2, deep gcc, call-heavy twolf) at
//! `Scale::Test`, so a rewrite of how the emulator hands those references
//! over must reproduce them bit for bit.
//!
//! If a change *intends* to alter the functional results (a model fix),
//! regenerate with:
//!
//! ```text
//! cargo test --release --test functional_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows below, noting the model change in the commit.

use svf_experiments::characterize::{characterize_program, CharStats};
use svf_experiments::traffic::{traffic_run, SwitchRow, TrafficRow};
use svf_isa::Program;
use svf_workloads::Scale;

const WORKLOADS: &[&str] = &["bzip2", "gcc", "twolf"];

/// Table 3's three structure sizes, in KB.
const TABLE3_KB: [u64; 3] = [2, 4, 8];

/// Table 4's structure size and a switch period short enough that every
/// Test-scale kernel takes several switches (the same role
/// `table4_with_period` plays for the experiment's own tests).
const TABLE4_BYTES: u64 = 8 << 10;
const TABLE4_PERIOD: u64 = 50_000;

/// Every (kernel.input, program) pair of [`WORKLOADS`] — Table 3's rows.
fn pairs() -> Vec<(String, Program)> {
    WORKLOADS
        .iter()
        .flat_map(|name| {
            let w = svf_workloads::workload(name).expect("registered kernel");
            w.inputs.iter().map(move |&input| {
                let program = w.compile_with_input(Scale::Test, input).expect("compiles");
                (format!("{}.{}", w.name, input.name), program)
            })
        })
        .collect()
}

fn compile(name: &str) -> Program {
    let w = svf_workloads::workload(name).expect("registered kernel");
    w.compile(Scale::Test).expect("compiles")
}

/// Table 3 columns in the table's order: stack$ in, SVF in, stack$ out,
/// SVF out.
fn render_table3(r: &TrafficRow) -> String {
    format!("{},{},{},{}", r.sc_in, r.svf_in, r.sc_out, r.svf_out)
}

/// Table 4's switch row; the per-switch averages print in Rust's shortest
/// round-trip form, so equal strings mean equal `f64`s.
fn render_table4(sw: &SwitchRow) -> String {
    format!("{},{:?},{:?}", sw.switches, sw.sc_bytes_per_switch, sw.svf_bytes_per_switch)
}

/// Every `CharStats` counter, the depth-sample count, and sums over the
/// samples' instruction indices and depths.
fn render_char(st: &CharStats) -> String {
    let hist: Vec<String> = st.offset_log2_hist.iter().map(u64::to_string).collect();
    let idx_sum: u64 = st.depth_samples.iter().map(|&(i, _)| i).sum();
    let depth_sum: u64 = st.depth_samples.iter().map(|&(_, d)| d).sum();
    format!(
        "insts={} mem={} sp={} fp={} gpr={} global={} heap={} max_depth={} offset_sum={} \
         samples={} sample_idx_sum={idx_sum} sample_depth_sum={depth_sum} hist={}",
        st.instructions,
        st.mem_refs,
        st.stack_sp,
        st.stack_fp,
        st.stack_gpr,
        st.global,
        st.heap,
        st.max_depth_bytes,
        st.offset_sum,
        st.depth_samples.len(),
        hist.join(":")
    )
}

/// `(kernel.input, size KB, rendered Table 3 row)`.
const TABLE3: &[(&str, u64, &str)] = &[
    ("bzip2.graphic", 2, "40,0,0,0"),
    ("bzip2.graphic", 4, "40,0,0,0"),
    ("bzip2.graphic", 8, "40,0,0,0"),
    ("bzip2.program", 2, "40,0,0,0"),
    ("bzip2.program", 4, "40,0,0,0"),
    ("bzip2.program", 8, "40,0,0,0"),
    ("gcc.cp-decl", 2, "31544,3501,29452,7540"),
    ("gcc.cp-decl", 4, "17584,1911,16632,3907"),
    ("gcc.cp-decl", 8, "5952,629,4908,946"),
    ("gcc.integrate", 2, "39696,4345,37460,9243"),
    ("gcc.integrate", 4, "20888,2258,19984,4515"),
    ("gcc.integrate", 8, "5040,660,3988,823"),
    ("twolf.ref", 2, "44,0,0,0"),
    ("twolf.ref", 4, "44,0,0,0"),
    ("twolf.ref", 8, "44,0,0,0"),
];

/// `(kernel, rendered Table 4 row)`.
const TABLE4: &[(&str, &str)] = &[
    ("bzip2", "4,120.0,64.0"),
    ("gcc", "5,7488.0,737.6"),
    ("twolf", "11,247.27272727272728,94.54545454545455"),
];

/// `(kernel, rendered CharStats)`.
const CHARSTATS: &[(&str, &str)] = &[
    ("bzip2", "insts=220954 mem=49411 sp=34019 fp=0 gpr=0 global=11194 heap=4198 max_depth=400 offset_sum=4718496 samples=703 sample_idx_sum=15617280 sample_depth_sum=16872 hist=0:1406:0:0:0:2112:2:2834:27665:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0"),
    ("gcc", "insts=295578 mem=49050 sp=21048 fp=2651 gpr=9593 global=13904 heap=1854 max_depth=15232 offset_sum=5578392 samples=521 sample_idx_sum=63432374 sample_depth_sum=160962 hist=0:3644:0:0:2618:6294:1192:9055:2820:4289:3097:260:23:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0"),
    ("twolf", "insts=598696 mem=140124 sp=88323 fp=0 gpr=0 global=51801 heap=0 max_depth=464 offset_sum=5674000 samples=515 sample_idx_sum=143605187 sample_depth_sum=23310 hist=0:14922:0:0:0:20627:0:46760:6014:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0"),
];

#[test]
fn table3_rows_match_golden() {
    let pairs = pairs();
    assert_eq!(TABLE3.len(), pairs.len() * TABLE3_KB.len(), "pin covers every pair and size");
    for (label, program) in &pairs {
        for kb in TABLE3_KB {
            let expected = TABLE3
                .iter()
                .find(|(l, k, _)| l == label && *k == kb)
                .unwrap_or_else(|| panic!("{label} at {kb} KB pinned"))
                .2;
            let actual = render_table3(&traffic_run(program, kb << 10, None).0);
            assert_eq!(actual, expected, "{label} at {kb} KB: Table 3 row changed");
        }
    }
}

#[test]
fn table4_rows_match_golden() {
    assert_eq!(TABLE4.len(), WORKLOADS.len(), "pin covers every kernel");
    for (name, expected) in TABLE4 {
        let (_, sw) = traffic_run(&compile(name), TABLE4_BYTES, Some(TABLE4_PERIOD));
        assert!(sw.switches >= 2, "{name}: period too long to pin switches");
        assert_eq!(render_table4(&sw), *expected, "{name}: Table 4 row changed");
    }
}

#[test]
fn characterization_matches_golden() {
    assert_eq!(CHARSTATS.len(), WORKLOADS.len(), "pin covers every kernel");
    for (name, expected) in CHARSTATS {
        let st = characterize_program(&compile(name), u64::MAX);
        assert_eq!(render_char(&st), *expected, "{name}: CharStats changed");
    }
}

/// Prints the current rows in the pinned tables' syntax.
#[test]
#[ignore = "regenerates the golden rows; run with --ignored --nocapture"]
fn print_golden_rows() {
    println!("const TABLE3: &[(&str, u64, &str)] = &[");
    for (label, program) in &pairs() {
        for kb in TABLE3_KB {
            let row = render_table3(&traffic_run(program, kb << 10, None).0);
            println!("    (\"{label}\", {kb}, \"{row}\"),");
        }
    }
    println!("];\n\nconst TABLE4: &[(&str, &str)] = &[");
    for name in WORKLOADS {
        let (_, sw) = traffic_run(&compile(name), TABLE4_BYTES, Some(TABLE4_PERIOD));
        println!("    (\"{name}\", \"{}\"),", render_table4(&sw));
    }
    println!("];\n\nconst CHARSTATS: &[(&str, &str)] = &[");
    for name in WORKLOADS {
        let st = characterize_program(&compile(name), u64::MAX);
        println!("    (\"{name}\", \"{}\"),", render_char(&st));
    }
    println!("];");
}
