//! Port-configuration explorer: sweeps D-cache and SVF port counts on one
//! workload and prints the cycles/IPC/speedup matrix — the design-space
//! exploration behind the paper's Figures 7 and 9.
//!
//! ```text
//! cargo run --release --example port_sweep             # default: twolf
//! cargo run --release --example port_sweep eon small
//! ```

use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_workloads::Scale;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "twolf".to_string());
    let scale = match std::env::args().nth(2).as_deref() {
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        _ => Scale::Test,
    };
    let w = svf_workloads::workload(&name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let program = w.compile(scale)?;
    println!("workload {name} ({:?} scale)\n", scale);
    println!("{:<14} {:>12} {:>7} {:>9}", "config", "cycles", "IPC", "speedup");

    for dl1_ports in [1usize, 2, 4] {
        let base_cfg = CpuConfig::wide16().with_ports(dl1_ports, 0);
        let base = Simulator::new(base_cfg).run(&program, u64::MAX);
        println!(
            "{:<14} {:>12} {:>7.2} {:>9}",
            format!("({dl1_ports}+0) base"),
            base.cycles,
            base.ipc(),
            "1.000x"
        );
        for svf_ports in [1usize, 2, 4] {
            let mut cfg = CpuConfig::wide16().with_ports(dl1_ports, svf_ports);
            cfg.stack_engine = StackEngine::Svf;
            let s = Simulator::new(cfg).run(&program, u64::MAX);
            println!(
                "{:<14} {:>12} {:>7.2} {:>8.3}x",
                format!("({dl1_ports}+{svf_ports}) SVF"),
                s.cycles,
                s.ipc(),
                s.speedup_over(&base)
            );
        }
        println!();
    }
    Ok(())
}
