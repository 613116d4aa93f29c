//! `svf-sim` — compile and simulate a MiniC (`.c`) or assembly (`.s`)
//! program, or replay a `.svft` trace, on the SVF reproduction's cycle
//! simulator. See `--help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", svf_repro::cli::USAGE);
        std::process::exit(2);
    }
    match svf_repro::cli::run_cli(&args) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("svf-sim: {e}");
            std::process::exit(1);
        }
    }
}
