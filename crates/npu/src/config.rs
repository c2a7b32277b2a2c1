//! The two evaluated NPU configurations (paper Table II).

use tnpu_sim::dram::{BandwidthModel, DramTiming};

/// Static configuration of one simulated NPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpuConfig {
    /// Configuration name ("small" / "large").
    pub name: &'static str,
    /// Systolic-array rows.
    pub rows: u64,
    /// Systolic-array columns.
    pub cols: u64,
    /// Scratchpad capacity in bytes (total; double buffering halves the
    /// usable tile space).
    pub spm_bytes: u64,
    /// Memory bandwidth in the NPU clock domain.
    pub bandwidth: BandwidthModel,
    /// DRAM latency / MLP model.
    pub dram: DramTiming,
}

impl NpuConfig {
    /// Small NPU — Samsung Exynos 990 class: 32×32 PEs, 11 GB/s at
    /// 2.75 GHz (= 4 B/cycle), 480 KB SPM.
    ///
    /// DRAM latency is constant in wall-clock terms (the paper's 100
    /// cycles at the Large NPU's 1 GHz ≈ 100 ns), so at 2.75 GHz the same
    /// access costs 275 NPU cycles.
    #[must_use]
    pub fn small_npu() -> Self {
        NpuConfig {
            name: "small",
            rows: 32,
            cols: 32,
            spm_bytes: 480 << 10,
            bandwidth: BandwidthModel::bytes_per_cycle(4, 1),
            dram: DramTiming {
                latency: tnpu_sim::Cycles(275),
                mlp: 4,
            },
        }
    }

    /// Large NPU — ARM Ethos N77 class: 45×45 PEs, 22 GB/s at 1 GHz
    /// (= 22 B/cycle), 1 MB SPM.
    #[must_use]
    pub fn large_npu() -> Self {
        NpuConfig {
            name: "large",
            rows: 45,
            cols: 45,
            spm_bytes: 1 << 20,
            bandwidth: BandwidthModel::bytes_per_cycle(22, 1),
            dram: DramTiming::paper_default(),
        }
    }

    /// Both paper configurations, small first.
    #[must_use]
    pub fn paper_configs() -> [NpuConfig; 2] {
        [Self::small_npu(), Self::large_npu()]
    }

    /// Number of processing elements.
    #[must_use]
    pub fn pes(&self) -> u64 {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_small() {
        let c = NpuConfig::small_npu();
        assert_eq!(c.pes(), 1024);
        assert_eq!(c.spm_bytes, 480 * 1024);
        assert!((c.bandwidth.as_f64() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table2_large() {
        let c = NpuConfig::large_npu();
        assert_eq!(c.pes(), 2025);
        assert_eq!(c.spm_bytes, 1 << 20);
        assert!((c.bandwidth.as_f64() - 22.0).abs() < 1e-12);
    }
}
