//! Quickstart: compile a MiniC program, run it functionally, then compare
//! the baseline pipeline against one with a stack value file.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_emu::Emulator;

/// A placement-style kernel: small helper calls dominate, so call frames
/// (argument spills, saved registers, return addresses) put `$sp`-relative
/// references on the critical path — exactly the traffic the SVF absorbs.
const PROGRAM: &str = "
int dist(int ax, int ay, int bx, int by) {
    int dx = ax - bx;
    if (dx < 0) dx = -dx;
    int dy = ay - by;
    if (dy < 0) dy = -dy;
    return dx + dy;
}
int cost(int* xs, int* ys, int i, int j, int k) {
    return dist(xs[i], ys[i], xs[j], ys[j]) + dist(xs[j], ys[j], xs[k], ys[k]);
}
int main() {
    int n = 64;
    int* xs = alloc(n * 8);
    int* ys = alloc(n * 8);
    for (int i = 0; i < n; i = i + 1) { xs[i] = i * 37 % 101; ys[i] = i * 61 % 89; }
    int total = 0;
    for (int r = 0; r < 600; r = r + 1) {
        for (int i = 0; i + 2 < n; i = i + 1) {
            total = (total + cost(xs, ys, i, i + 1, i + 2)) % 1000003;
        }
    }
    print(total);
    return 0;
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile MiniC → assembly → linked binary image.
    let program = svf_cc::compile_to_program(PROGRAM)?;
    println!("compiled: {} instructions, {} data bytes", program.text.len(), program.data.len());

    // 2. Functional execution (the oracle the timing model replays).
    let mut emu = Emulator::new(&program);
    emu.run(u64::MAX)?;
    println!("program output: {}", emu.output_string().trim());
    println!("committed {} instructions", emu.steps());

    // 3. Cycle simulation: conventional 16-wide baseline (Table 2)...
    let baseline = Simulator::new(CpuConfig::wide16().with_ports(2, 0)).run(&program, u64::MAX);
    println!(
        "baseline   : {:>9} cycles  IPC {:.2}  (DL1 accesses: {})",
        baseline.cycles,
        baseline.ipc(),
        baseline.dl1.accesses
    );

    // 4. ...versus the same machine with an 8 KB dual-ported SVF.
    let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
    svf_cfg.stack_engine = StackEngine::Svf;
    let with_svf = Simulator::new(svf_cfg).run(&program, u64::MAX);
    println!(
        "with SVF   : {:>9} cycles  IPC {:.2}  (DL1 accesses: {}, morphed refs: {})",
        with_svf.cycles,
        with_svf.ipc(),
        with_svf.dl1.accesses,
        with_svf.svf_morphed_loads + with_svf.svf_morphed_stores
    );
    println!("speedup    : {:.3}x", with_svf.speedup_over(&baseline));

    let traffic = with_svf.svf.expect("svf engine active").traffic;
    println!(
        "SVF <-> L1 traffic: {} QW in, {} QW out (a stack cache would pay \
         compulsory fills for every cold line)",
        traffic.qw_in, traffic.qw_out
    );
    Ok(())
}
