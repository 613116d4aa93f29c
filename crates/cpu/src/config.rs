//! Machine-model configuration (the paper's Table 2 plus stack engines).
//!
//! [`CpuConfig`] is the only machine configuration. The `svf-configspace`
//! crate addresses its fields by name (TOML round-trip, overlays, sweep
//! axes) and holds the preset registry reproducing the machines below
//! bit-identically — experiments and sweeps should build configs there,
//! not by hand here.

use svf::SvfConfig;
use svf_mem::{HierarchyConfig, StackCacheConfig};

/// Which structure (if any) services stack references. Each structure's
/// geometry lives beside it in [`CpuConfig`] (`svf`, `svf_no_squash`,
/// `stack_cache`), always stored and used only when selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackEngine {
    /// Conventional baseline: everything goes through the data L1.
    None,
    /// Decoupled stack cache (Cho/Yew/Lee): stack-region references are
    /// steered to a dedicated direct-mapped cache backed by the L2.
    StackCache,
    /// The stack value file.
    Svf,
    /// Figure 5 limit study: infinite SVF, unlimited ports, every stack
    /// reference morphs to a register move.
    IdealSvf,
}

/// Branch predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Oracle: never mispredicts (the paper's main configuration, chosen to
    /// isolate memory-system effects from front-end effects).
    Perfect,
    /// Gshare with 2-bit counters, plus a BTB for indirect jumps and a
    /// return-address stack; sized by [`CpuConfig::gshare_history_bits`].
    Gshare,
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Decode = issue = commit width (Table 2: 4/8/16).
    pub width: usize,
    /// Instruction fetch queue capacity.
    pub ifq_size: usize,
    /// RUU (unified RS+ROB) capacity.
    pub ruu_size: usize,
    /// Load/store queue capacity.
    pub lsq_size: usize,
    /// Number of integer ALUs (Table 2: 16).
    pub int_alus: usize,
    /// Number of integer multiply/divide units (Table 2: 4).
    pub int_mults: usize,
    /// L1 data cache ports ("R" in the paper's `(R+S)` notation).
    pub dl1_ports: usize,
    /// Stack-structure ports ("S" in `(R+S)`): SVF or stack-cache ports.
    pub stack_ports: usize,
    /// Store-to-load forwarding latency through the LSQ (Table 2: 3).
    pub store_forward_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide/remainder latency.
    pub div_latency: u64,
    /// Memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Stack engine.
    pub stack_engine: StackEngine,
    /// SVF geometry (used when `stack_engine` is [`StackEngine::Svf`]).
    pub svf: SvfConfig,
    /// Disable the gpr-store→sp-load collision squash (paper §5.3.1: a code
    /// generator tailored for the SVF avoids the pattern). Used when
    /// `stack_engine` is [`StackEngine::Svf`].
    pub svf_no_squash: bool,
    /// Stack-cache geometry (used when `stack_engine` is
    /// [`StackEngine::StackCache`]).
    pub stack_cache: StackCacheConfig,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// log2 of the gshare pattern-history-table size, also the history
    /// length (used when `predictor` is [`PredictorKind::Gshare`]).
    pub gshare_history_bits: u32,
    /// Figure 6's `no_addr_cal_op`: `$sp`-relative memory references lose
    /// their base-register dependence (early address resolution in decode)
    /// while still going through the normal D-cache path.
    pub no_addr_calc_for_stack: bool,
    /// Cycles from branch resolution until fetch restarts after a
    /// misprediction (front-end redirect).
    pub redirect_penalty: u64,
    /// Fetch-stall cycles charged when a gpr-store→sp-load collision
    /// squashes the pipeline (§3.2 recovery, modelled as a front-end
    /// refill).
    pub squash_penalty: u64,
}

impl CpuConfig {
    fn base(width: usize, ifq: usize, ruu: usize, lsq: usize) -> CpuConfig {
        CpuConfig {
            width,
            ifq_size: ifq,
            ruu_size: ruu,
            lsq_size: lsq,
            int_alus: 16,
            int_mults: 4,
            dl1_ports: 2,
            stack_ports: 0,
            store_forward_latency: 3,
            mul_latency: 7,
            div_latency: 20,
            hierarchy: HierarchyConfig::default(),
            stack_engine: StackEngine::None,
            svf: SvfConfig::kb8(),
            svf_no_squash: false,
            stack_cache: StackCacheConfig::kb8(),
            predictor: PredictorKind::Perfect,
            gshare_history_bits: 12,
            no_addr_calc_for_stack: false,
            redirect_penalty: 2,
            squash_penalty: 15,
        }
    }

    /// Table 2's 4-wide machine (IFQ 16, RUU 64, LSQ 32), dual-ported DL1,
    /// perfect prediction.
    #[must_use]
    pub fn wide4() -> CpuConfig {
        CpuConfig::base(4, 16, 64, 32)
    }

    /// Table 2's 8-wide machine (IFQ 32, RUU 128, LSQ 64).
    #[must_use]
    pub fn wide8() -> CpuConfig {
        CpuConfig::base(8, 32, 128, 64)
    }

    /// Table 2's 16-wide machine (IFQ 64, RUU 256, LSQ 128).
    #[must_use]
    pub fn wide16() -> CpuConfig {
        CpuConfig::base(16, 64, 256, 128)
    }

    /// Applies the paper's `(R+S)` port notation: `R` regular D-cache ports
    /// plus `S` stack-structure ports. The `(4+0)` configuration also takes
    /// the paper's longer 4-cycle D-cache hit latency.
    #[must_use]
    pub fn with_ports(mut self, dl1_ports: usize, stack_ports: usize) -> CpuConfig {
        self.dl1_ports = dl1_ports;
        self.stack_ports = stack_ports;
        if dl1_ports >= 4 {
            self.hierarchy.dl1.hit_latency = 4;
        }
        self
    }

    /// The identity. Presets, overlays and TOML documents all produce a
    /// finished `CpuConfig`, so there is nothing left to resolve; this is
    /// kept only for the end-to-end benchmark (`e2e-bench`), which calls
    /// `spec.config_at(&idx)?.resolve()`. Remove the two together.
    #[must_use]
    pub fn resolve(&self) -> CpuConfig {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_presets() {
        let c4 = CpuConfig::wide4();
        assert_eq!((c4.width, c4.ifq_size, c4.ruu_size, c4.lsq_size), (4, 16, 64, 32));
        let c8 = CpuConfig::wide8();
        assert_eq!((c8.width, c8.ifq_size, c8.ruu_size, c8.lsq_size), (8, 32, 128, 64));
        let c16 = CpuConfig::wide16();
        assert_eq!((c16.width, c16.ifq_size, c16.ruu_size, c16.lsq_size), (16, 64, 256, 128));
        assert_eq!(c16.int_alus, 16);
        assert_eq!(c16.int_mults, 4);
        assert_eq!(c16.store_forward_latency, 3);
        assert_eq!(c16.hierarchy.dl1.hit_latency, 3);
        assert_eq!(c16.hierarchy.l2.hit_latency, 16);
        assert_eq!(c16.hierarchy.mem_latency, 60);
    }

    #[test]
    fn port_notation() {
        let c = CpuConfig::wide16().with_ports(4, 0);
        assert_eq!(c.dl1_ports, 4);
        assert_eq!(c.hierarchy.dl1.hit_latency, 4, "paper: (4+0) has a 4-cycle hit");
        let c = CpuConfig::wide16().with_ports(2, 2);
        assert_eq!(c.hierarchy.dl1.hit_latency, 3);
        assert_eq!(c.stack_ports, 2);
    }
}
