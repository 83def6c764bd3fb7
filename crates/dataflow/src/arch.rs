//! Accelerator provisioning (the paper's Table II and §IV-A).

/// Static hardware provisioning of an accelerator instance.
///
/// Defaults follow Table II: 6 clusters × 16 PEs, vector width 8, 1 MB L2,
/// 64 kB L1 per cluster, 16 kB L0 per PE, 16 banks per buffer (§VI-B), and
/// the §IV-A4 bus widths (64-bit L2→L1, 32-bit L1→L0 per cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchSpec {
    /// Compute clusters on the chip (`M`).
    pub clusters: usize,
    /// Processing elements per cluster (`N`).
    pub pes_per_cluster: usize,
    /// Vector MACC lanes per PE, provisioned across output channels (`Vw`).
    pub vector_width: usize,
    /// Last-level (L2) buffer capacity in bytes.
    pub l2_bytes: usize,
    /// Per-cluster L1 buffer capacity in bytes.
    pub l1_bytes: usize,
    /// Per-PE L0 buffer capacity in bytes.
    pub l0_bytes: usize,
    /// Banks per buffer at every level (§IV-B1).
    pub banks: usize,
    /// L2 → L1 broadcast bus width in bits.
    pub bus_l2_l1_bits: usize,
    /// L1 → L0 broadcast bus width in bits (per cluster).
    pub bus_l1_l0_bits: usize,
    /// DRAM interface width in bits (per cycle deliverable).
    pub bus_dram_bits: usize,
    /// Clock frequency in Hz (1 GHz in the paper).
    pub clock_hz: u64,
}

impl ArchSpec {
    /// The Morph configuration of Table II.
    pub fn morph() -> Self {
        Self {
            clusters: 6,
            pes_per_cluster: 16,
            vector_width: 8,
            l2_bytes: 1024 << 10,
            l1_bytes: 64 << 10,
            l0_bytes: 16 << 10,
            banks: 16,
            bus_l2_l1_bits: 64,
            bus_l1_l0_bits: 32,
            bus_dram_bits: 64,
            clock_hz: 1_000_000_000,
        }
    }

    /// Check that the chip can compute: `clusters`, `pes_per_cluster`,
    /// `vector_width`, `banks` and `clock_hz` must each be at least 1, and
    /// the error names the first that is not. Buffer capacities may be 0
    /// (an Eyeriss chip has no L1).
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("clusters", self.clusters as u64),
            ("pes_per_cluster", self.pes_per_cluster as u64),
            ("vector_width", self.vector_width as u64),
            ("banks", self.banks as u64),
            ("clock_hz", self.clock_hz),
        ];
        match counts.iter().find(|&&(_, n)| n == 0) {
            Some((field, _)) => Err(format!("ArchSpec::{field} must be at least 1, got 0")),
            None => Ok(()),
        }
    }

    /// Total PEs (`M × N`).
    pub fn total_pes(&self) -> usize {
        self.clusters * self.pes_per_cluster
    }

    /// Peak MACCs per cycle (`M × N × Vw`).
    pub fn peak_maccs_per_cycle(&self) -> u64 {
        (self.total_pes() * self.vector_width) as u64
    }

    /// The compute clusters a cluster budget gets on this chip: `budget`
    /// clamped to `1..=clusters`, so 0 means one cluster and anything
    /// past the chip means the whole chip.
    pub fn clamp_budget(&self, budget: usize) -> usize {
        budget.clamp(1, self.clusters.max(1))
    }

    /// Capacity of the buffer at an on-chip level (0 = L0 … 2 = L2).
    ///
    /// Levels are per-instance capacities (an L1 is one cluster's buffer,
    /// an L0 one PE's buffer), matching how tiles are provisioned.
    pub fn level_bytes(&self, level: OnChipLevel) -> usize {
        match level {
            OnChipLevel::L2 => self.l2_bytes,
            OnChipLevel::L1 => self.l1_bytes,
            OnChipLevel::L0 => self.l0_bytes,
        }
    }

    /// Usable tile budget at a level: half the capacity, because every
    /// buffer is logically double buffered (§III, footnote 1: "the sum of
    /// all L2 tile sizes is bounded by 512 KB" for the 1 MB L2).
    pub fn tile_budget_bytes(&self, level: OnChipLevel) -> usize {
        self.level_bytes(level) / 2
    }

    /// Bank capacity at a level.
    pub fn bank_bytes(&self, level: OnChipLevel) -> usize {
        self.level_bytes(level) / self.banks
    }
}

/// The three on-chip buffer levels of the Morph hierarchy (§IV-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OnChipLevel {
    /// Last-level buffer before DRAM (shared).
    L2,
    /// Per-cluster buffer.
    L1,
    /// Per-PE buffer.
    L0,
}

impl OnChipLevel {
    /// All levels, outermost first.
    pub const ALL: [OnChipLevel; 3] = [OnChipLevel::L2, OnChipLevel::L1, OnChipLevel::L0];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_parameters() {
        let a = ArchSpec::morph();
        assert_eq!(a.total_pes(), 96);
        assert_eq!(a.peak_maccs_per_cycle(), 768);
        assert_eq!(a.l2_bytes, 1048576);
        assert_eq!(a.bank_bytes(OnChipLevel::L2), 65536);
    }

    #[test]
    fn double_buffering_halves_budget() {
        let a = ArchSpec::morph();
        assert_eq!(a.tile_budget_bytes(OnChipLevel::L2), 512 << 10);
        assert_eq!(a.tile_budget_bytes(OnChipLevel::L0), 8 << 10);
    }

    #[test]
    fn rate_match_example() {
        // §IV-A4: 216 MACCs/cycle with R=S=T=3 stride 1 needs only
        // M·N/(R·S·T) = 8 input bytes/cycle on the L2→L1 bus.
        let a = ArchSpec::morph();
        let reuse = 27.0;
        let need_bytes_per_cycle = (a.total_pes() as f64) / reuse;
        assert!(need_bytes_per_cycle <= (a.bus_l2_l1_bits / 8) as f64);
    }
}
