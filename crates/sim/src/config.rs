//! Simulator configuration (the paper's Table 1).

use crate::lsq::MemDepPolicy;
use carf_core::{CarfParams, Policies, PortReducedParams};
use carf_mem::HierarchyConfig;

/// Which integer register-file organization the pipeline uses.
#[derive(Debug, Clone, PartialEq)]
pub enum RegFileKind {
    /// The paper's baseline: a monolithic file sized by
    /// [`SimConfig::int_pregs`] with limited ports.
    Baseline,
    /// The content-aware organization with the given geometry and policies.
    ContentAware(CarfParams, Policies),
    /// Statically-compressed narrow banks with a dictionary and a
    /// full-width overflow bank, sharing the content-aware geometry.
    Compressed(CarfParams),
    /// A monolithic file with a reduced read-port budget and an
    /// operand-reuse capture buffer.
    PortReduced(PortReducedParams),
}

/// Branch-predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// Gshare history/index bits (paper: 14).
    pub gshare_bits: u32,
    /// Branch target buffer entries (indirect jumps).
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_entries: usize,
}

impl Default for BpredConfig {
    fn default() -> Self {
        Self { gshare_bits: 14, btb_entries: 2048, ras_entries: 16 }
    }
}

/// Full machine configuration.
///
/// [`SimConfig::paper_baseline`] reproduces Table 1 exactly;
/// [`SimConfig::paper_unlimited`] is the unlimited-resource comparator
/// (160 integer registers, 16 read / 8 write ports);
/// [`SimConfig::paper_carf`] swaps in the content-aware file.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Pipeline stages between fetch and rename (decode depth).
    pub frontend_depth: u64,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Integer issue-queue entries.
    pub iq_int: usize,
    /// FP issue-queue entries.
    pub iq_fp: usize,
    /// Physical integer registers.
    pub int_pregs: usize,
    /// Physical FP registers.
    pub fp_pregs: usize,
    /// Integer register-file read ports per cycle (0 = unconstrained).
    pub rf_read_ports: u32,
    /// Integer register-file write ports per cycle (0 = unconstrained).
    pub rf_write_ports: u32,
    /// Maximum unresolved branches (rename checkpoints).
    pub checkpoints: usize,
    /// Integer functional units.
    pub int_units: usize,
    /// FP functional units.
    pub fp_units: usize,
    /// Integer multiply latency (pipelined).
    pub mul_latency: u64,
    /// Integer divide latency (unpipelined).
    pub div_latency: u64,
    /// FP operation latency (pipelined; paper: 2).
    pub fp_latency: u64,
    /// FP divide latency (unpipelined).
    pub fpdiv_latency: u64,
    /// Cache/memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor.
    pub bpred: BpredConfig,
    /// Integer register-file organization.
    pub regfile: RegFileKind,
    /// Memory dependence policy for loads behind unresolved stores.
    pub mem_dep: MemDepPolicy,
    /// Commits between Short-file aging ticks (the paper's "ROB interval":
    /// one tick each time the entire ROB's worth of instructions retires).
    /// `0` disables aging entirely (Short entries are never reclaimed).
    pub rob_interval_commits: u64,
    /// Oracle live-value sampling period in cycles (`None` disables).
    pub oracle_period: Option<u64>,
    /// Co-simulate against the functional executor at commit.
    pub cosim: bool,
    /// Commit-starvation watchdog: abort after this many cycles without a
    /// commit (catches simulator deadlocks in tests).
    pub watchdog_cycles: u64,
}

impl SimConfig {
    /// The paper's Table 1 baseline machine.
    pub fn paper_baseline() -> Self {
        Self {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            frontend_depth: 3,
            rob_size: 128,
            lsq_size: 64,
            iq_int: 32,
            iq_fp: 32,
            int_pregs: 112,
            fp_pregs: 128,
            rf_read_ports: 8,
            rf_write_ports: 6,
            checkpoints: 32,
            int_units: 8,
            fp_units: 8,
            mul_latency: 3,
            div_latency: 20,
            fp_latency: 2,
            fpdiv_latency: 12,
            hierarchy: HierarchyConfig::paper(),
            bpred: BpredConfig::default(),
            regfile: RegFileKind::Baseline,
            // Execution-driven simulators of the paper's era let loads run
            // ahead of unresolved stores (squashing on a violation); the
            // conservative policy is available for the ablation.
            mem_dep: MemDepPolicy::Optimistic,
            rob_interval_commits: 128, // = rob_size, per the paper
            oracle_period: None,
            cosim: false,
            watchdog_cycles: 100_000,
        }
    }

    /// The unlimited-resource comparator: ROB + 32 integer registers and
    /// 2×8 read / 8 write ports, as in the paper's §4.
    pub fn paper_unlimited() -> Self {
        Self {
            int_pregs: 160,
            fp_pregs: 160,
            rf_read_ports: 16,
            rf_write_ports: 8,
            checkpoints: 64,
            ..Self::paper_baseline()
        }
    }

    /// The baseline machine with the content-aware register file.
    pub fn paper_carf(params: CarfParams) -> Self {
        Self {
            regfile: RegFileKind::ContentAware(params, Policies::default()),
            ..Self::paper_baseline()
        }
    }

    /// A short human-readable tag for this machine configuration, used by
    /// diagnostics (`carf-trace`) and result-file labels.
    pub fn describe(&self) -> String {
        match &self.regfile {
            RegFileKind::Baseline => format!("baseline({}p)", self.int_pregs),
            RegFileKind::ContentAware(p, _) => format!(
                "carf(d+n={},M={},K={})",
                p.dn(),
                p.short_entries,
                p.long_entries
            ),
            RegFileKind::Compressed(p) => format!(
                "compressed(d+n={},M={},K={})",
                p.dn(),
                p.short_entries,
                p.long_entries
            ),
            RegFileKind::PortReduced(p) => {
                format!("ports({}r,cap{})", p.read_ports, p.capture_entries)
            }
        }
    }

    /// The content-aware machine with explicit policies (ablations).
    pub fn paper_carf_with(params: CarfParams, policies: Policies) -> Self {
        Self {
            regfile: RegFileKind::ContentAware(params, policies),
            ..Self::paper_baseline()
        }
    }

    /// The baseline machine with the statically-compressed register file
    /// (narrow banks + dictionary + overflow exception bank).
    pub fn paper_compressed(params: CarfParams) -> Self {
        Self { regfile: RegFileKind::Compressed(params), ..Self::paper_baseline() }
    }

    /// The baseline machine with the port-reduced register file. The
    /// backend's read-port budget overrides [`SimConfig::rf_read_ports`].
    pub fn paper_port_reduced(params: PortReducedParams) -> Self {
        Self { regfile: RegFileKind::PortReduced(params), ..Self::paper_baseline() }
    }

    /// A small, fast machine for unit tests: tiny caches and short
    /// latencies but the same structural shape.
    pub fn test_small() -> Self {
        Self {
            rob_size: 32,
            lsq_size: 16,
            iq_int: 16,
            iq_fp: 16,
            int_pregs: 64,
            fp_pregs: 64,
            checkpoints: 16,
            hierarchy: HierarchyConfig::tiny(),
            cosim: true,
            watchdog_cycles: 20_000,
            ..Self::paper_baseline()
        }
    }
}

impl SimConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found. [`crate::Simulator::new`] panics on an invalid
    /// configuration; call this first when the configuration comes from
    /// user input.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be at least 1".into());
        }
        if self.rob_size < 2 {
            return Err("the reorder buffer needs at least 2 entries".into());
        }
        if self.rob_size > crate::sim::MAX_ROB_SIZE {
            return Err(format!(
                "a reorder buffer of {} entries is past the {} an instruction handle can index",
                self.rob_size,
                crate::sim::MAX_ROB_SIZE
            ));
        }
        if self.int_pregs <= 32 || self.fp_pregs <= 32 {
            return Err("need more than 32 physical registers per file".into());
        }
        if self.int_units == 0 || self.fp_units == 0 {
            return Err("need at least one functional unit per pool".into());
        }
        if self.checkpoints == 0 {
            return Err("need at least one branch checkpoint".into());
        }
        match &self.regfile {
            RegFileKind::ContentAware(params, _) | RegFileKind::Compressed(params) => {
                params.validate().map_err(|e| e.to_string())?;
                // Both organizations back wide values in a K-entry bank
                // (Long file / overflow bank) and share the same liveness
                // requirement.
                if params.long_entries < 32 + self.issue_width {
                    return Err(format!(
                        "long file of {} entries cannot back 32 architectural wide values \
                         plus an issue group; liveness requires at least {}",
                        params.long_entries,
                        32 + self.issue_width
                    ));
                }
            }
            RegFileKind::PortReduced(params) => params.validate()?,
            RegFileKind::Baseline => {}
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_parameters() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.iq_int, 32);
        assert_eq!(c.iq_fp, 32);
        assert_eq!(c.int_pregs, 112);
        assert_eq!(c.fp_pregs, 128);
        assert_eq!(c.rf_read_ports, 8);
        assert_eq!(c.rf_write_ports, 6);
        assert_eq!(c.int_units, 8);
        assert_eq!(c.fp_units, 8);
        assert_eq!(c.fp_latency, 2);
        assert_eq!(c.bpred.gshare_bits, 14);
        assert_eq!(c.hierarchy.memory_latency, 100);
    }

    #[test]
    fn unlimited_has_rob_plus_32_registers() {
        let c = SimConfig::paper_unlimited();
        assert_eq!(c.int_pregs, c.rob_size + 32);
        assert_eq!(c.rf_read_ports, 16);
        assert_eq!(c.rf_write_ports, 8);
    }

    #[test]
    fn validation_accepts_paper_configs() {
        assert_eq!(SimConfig::paper_baseline().validate(), Ok(()));
        assert_eq!(SimConfig::paper_unlimited().validate(), Ok(()));
        assert_eq!(SimConfig::paper_carf(CarfParams::paper_default()).validate(), Ok(()));
        assert_eq!(SimConfig::paper_compressed(CarfParams::paper_default()).validate(), Ok(()));
        assert_eq!(
            SimConfig::paper_port_reduced(PortReducedParams::default()).validate(),
            Ok(())
        );
    }

    #[test]
    fn validation_rejects_degenerate_machines() {
        let mut c = SimConfig::paper_baseline();
        c.fetch_width = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_baseline();
        c.int_pregs = 32;
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_baseline();
        c.rob_size = 1 << 16;
        assert_eq!(c.validate(), Ok(()));
        c.rob_size += 1;
        assert_eq!(
            c.validate().unwrap_err(),
            "a reorder buffer of 65537 entries is past the 65536 an instruction handle can index"
        );

        let mut c = SimConfig::paper_carf(CarfParams::paper_default());
        if let RegFileKind::ContentAware(p, _) = &mut c.regfile {
            p.long_entries = 16; // below the 32 + issue-width liveness bound
        }
        assert!(c.validate().unwrap_err().contains("liveness"));

        // The compressed overflow bank shares the liveness requirement.
        let mut c = SimConfig::paper_compressed(CarfParams::paper_default());
        if let RegFileKind::Compressed(p) = &mut c.regfile {
            p.long_entries = 16;
        }
        assert!(c.validate().unwrap_err().contains("liveness"));

        let c = SimConfig::paper_port_reduced(PortReducedParams {
            read_ports: 0,
            capture_entries: 4,
        });
        assert!(c.validate().unwrap_err().contains("read port"));
    }

    #[test]
    fn carf_config_carries_params() {
        let c = SimConfig::paper_carf(CarfParams::paper_default());
        match &c.regfile {
            RegFileKind::ContentAware(p, _) => assert_eq!(p.dn(), 20),
            other => panic!("expected content-aware, got {other:?}"),
        }
    }

    #[test]
    fn describe_names_both_organizations() {
        assert!(SimConfig::paper_baseline().describe().starts_with("baseline("));
        let carf = SimConfig::paper_carf(CarfParams::paper_default()).describe();
        assert!(carf.contains("d+n=20"), "{carf}");
    }

    #[test]
    fn describe_names_the_backend_zoo() {
        let comp = SimConfig::paper_compressed(CarfParams::paper_default()).describe();
        assert!(comp.starts_with("compressed(") && comp.contains("d+n=20"), "{comp}");
        let ports = SimConfig::paper_port_reduced(PortReducedParams::default()).describe();
        assert_eq!(ports, "ports(4r,cap8)");
    }
}
