//! The bandwidth-limited memory model.
//!
//! The paper (§V-A): *"To reflect data transfer overheads between NPU and
//! off-chip memory, we use a simple memory bandwidth model, which limits the
//! maximum bandwidth. We assume 100 cycles for DRAM latency."*
//!
//! Bandwidth is expressed as an exact rational (bytes per cycle) so the two
//! NPU configurations are represented without rounding: the Small NPU moves
//! 11 GB/s at 2.75 GHz = 4 B/cycle, the Large NPU 22 GB/s at 1 GHz =
//! 22 B/cycle.

use crate::Cycles;

/// Exact bytes-per-cycle bandwidth as a rational `num/den`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BandwidthModel {
    num: u64,
    den: u64,
}

impl BandwidthModel {
    /// `num/den` bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero.
    #[must_use]
    pub fn bytes_per_cycle(num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "bandwidth must be positive");
        BandwidthModel { num, den }
    }

    /// Cycles to transfer `bytes` at full bandwidth (rounded up).
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Cycles {
        // ceil(bytes * den / num)
        let t = (bytes as u128 * self.den as u128).div_ceil(self.num as u128);
        Cycles(t as u64)
    }

    /// Bandwidth as a float, for reporting.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl std::fmt::Display for BandwidthModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} B/cyc", self.as_f64())
    }
}

/// Fixed-latency DRAM timing plus the memory-level-parallelism factor used to
/// overlap independent metadata misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DramTiming {
    /// Latency of one DRAM access in cycles (paper: 100).
    pub latency: Cycles,
    /// How many independent misses the memory system overlaps. Dependent
    /// fetches (integrity-tree walks) are always serialized; independent
    /// misses from different blocks are divided by this factor.
    pub mlp: u64,
}

impl DramTiming {
    /// The paper's timing: 100-cycle DRAM latency, 4 outstanding misses.
    #[must_use]
    pub fn paper_default() -> Self {
        DramTiming {
            latency: Cycles(100),
            mlp: 4,
        }
    }

    /// Exposed stall time for `pipelined_misses` dependent-per-block but
    /// cross-block-overlappable DRAM accesses (e.g. tree-walk fetches from
    /// different data blocks of a stream) plus `serial_chain` strictly
    /// serialized accesses.
    ///
    /// Pipelined misses overlap up to [`DramTiming::mlp`] deep; each link
    /// of a strictly serial chain pays full latency.
    #[must_use]
    pub fn stall(&self, pipelined_misses: u64, serial_chain: u64) -> Cycles {
        let overlapped = pipelined_misses.div_ceil(self.mlp.max(1));
        self.latency * (overlapped + serial_chain)
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_rounds_up() {
        let bw = BandwidthModel::bytes_per_cycle(4, 1);
        assert_eq!(bw.transfer_time(0), Cycles(0));
        assert_eq!(bw.transfer_time(1), Cycles(1));
        assert_eq!(bw.transfer_time(4), Cycles(1));
        assert_eq!(bw.transfer_time(5), Cycles(2));
    }

    #[test]
    fn fractional_bandwidth() {
        let bw = BandwidthModel::bytes_per_cycle(3, 2); // 1.5 B/cyc
        assert_eq!(bw.transfer_time(3), Cycles(2));
        assert_eq!(bw.transfer_time(4), Cycles(3));
    }

    #[test]
    fn stall_overlaps_independent_misses() {
        let t = DramTiming::paper_default();
        assert_eq!(t.stall(0, 0), Cycles(0));
        assert_eq!(t.stall(4, 0), Cycles(100)); // fully overlapped
        assert_eq!(t.stall(5, 0), Cycles(200));
        assert_eq!(t.stall(0, 3), Cycles(300)); // serial chain never overlaps
        assert_eq!(t.stall(4, 1), Cycles(200));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = BandwidthModel::bytes_per_cycle(0, 1);
    }
}
