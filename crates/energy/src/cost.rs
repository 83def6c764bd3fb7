//! Whole-chip energy/performance costing: turns traffic counts into the
//! paper's Fig. 9 energy breakdown and Fig. 10 perf/W.

use crate::cacti::sram_pj_per_byte;
use crate::tech::{
    CHIP_STANDBY_MW, DRAM_PJ_PER_BYTE, MACC_PJ, NOC_PJ_PER_BYTE, NOC_STATIC_PJ_PER_CYCLE_PER_BUS,
    SRAM_LEAKAGE_UW_PER_KB,
};
use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::TilingConfig;
use morph_dataflow::perf::{layer_cycles, CycleReport, Parallelism};
use morph_dataflow::traffic::{layer_traffic, LayerTraffic};
use morph_tensor::shape::ConvShape;

/// How a buffer level is organized between the three data types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferMode {
    /// Morph: banked buffer shared between data types; an access activates
    /// one bank (§IV-B1), so access energy is that of a bank-sized array.
    Banked {
        /// Number of banks.
        banks: usize,
    },
    /// Morph_base: static monolithic partitions (Table I); an access pays
    /// for the partition-sized array.
    Partitioned {
        /// Fraction of the buffer holding inputs.
        input: f64,
        /// Fraction holding outputs/psums.
        output: f64,
        /// Fraction holding weights.
        weight: f64,
    },
}

impl BufferMode {
    /// Morph_base's Table I partitioning for a level.
    pub fn table1(level: OnChipLevel) -> Self {
        match level {
            OnChipLevel::L2 => BufferMode::Partitioned {
                input: 0.385,
                output: 0.40,
                weight: 0.215,
            },
            OnChipLevel::L1 | OnChipLevel::L0 => BufferMode::Partitioned {
                input: 0.40,
                output: 0.10,
                weight: 0.50,
            },
        }
    }

    /// Effective addressed-array capacity for a data type.
    fn array_bytes(&self, level_bytes: usize, ty: TrafficClass) -> usize {
        match *self {
            BufferMode::Banked { banks } => (level_bytes / banks).max(1),
            BufferMode::Partitioned {
                input,
                output,
                weight,
            } => {
                let frac = match ty {
                    TrafficClass::Input => input,
                    TrafficClass::Weight => weight,
                    TrafficClass::Psum => output,
                };
                ((level_bytes as f64 * frac) as usize).max(1)
            }
        }
    }
}

/// Data-type classes used for energy attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Input activations.
    Input,
    /// Filter weights.
    Weight,
    /// Partial sums / outputs.
    Psum,
}

/// The whole-chip energy model: architecture + buffer organization, at
/// the paper's 32 nm §VI-A calibration.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    /// Hardware provisioning.
    pub arch: ArchSpec,
    /// Buffer organization per on-chip level (L2, L1, L0).
    pub modes: [BufferMode; 3],
    /// SRAM access word width per level in bytes (L2, L1, L0).
    pub word_bytes: [usize; 3],
}

impl EnergyModel {
    /// Morph: everything banked per Table II / §IV-B1.
    pub fn morph(arch: ArchSpec) -> Self {
        let banks = arch.banks;
        Self {
            arch,
            modes: [BufferMode::Banked { banks }; 3],
            word_bytes: [8, 8, 4],
        }
    }

    /// Morph_base: static Table I partitions, monolithic arrays.
    pub fn morph_base(arch: ArchSpec) -> Self {
        Self {
            arch,
            modes: [
                BufferMode::table1(OnChipLevel::L2),
                BufferMode::table1(OnChipLevel::L1),
                BufferMode::table1(OnChipLevel::L0),
            ],
            word_bytes: [8, 8, 4],
        }
    }

    /// pJ per byte for a data type at an on-chip level.
    pub fn level_pj_per_byte(&self, level: OnChipLevel, ty: TrafficClass) -> f64 {
        let idx = match level {
            OnChipLevel::L2 => 0,
            OnChipLevel::L1 => 1,
            OnChipLevel::L0 => 2,
        };
        let cap = self.arch.level_bytes(level);
        let array = self.modes[idx].array_bytes(cap, ty);
        sram_pj_per_byte(array, self.word_bytes[idx])
    }

    /// Static (leakage + standby + NoC signaling) power in mW.
    pub fn static_mw(&self) -> f64 {
        let sram_kb = (self.arch.l2_bytes
            + self.arch.clusters * self.arch.l1_bytes
            + self.arch.total_pes() * self.arch.l0_bytes) as f64
            / 1024.0;
        let leakage = sram_kb * SRAM_LEAKAGE_UW_PER_KB / 1000.0;
        // Three broadcast networks L2→L1s plus three per cluster (§IV-A4).
        let buses = 3 + 3 * self.arch.clusters;
        let noc_static_mw =
            buses as f64 * NOC_STATIC_PJ_PER_CYCLE_PER_BUS * self.arch.clock_hz as f64 / 1e9;
        leakage + noc_static_mw + CHIP_STANDBY_MW
    }

    /// Admissible lower bound on a layer's total energy, in pJ.
    ///
    /// Built only from quantities that are cheap to know before a full
    /// costing: the candidate's exact DRAM boundary traffic, its MACC
    /// count, and a lower bound on its latency. Every term floors the
    /// corresponding [`EnergyModel::attribute`] term (on-chip access and
    /// NoC energies are dropped entirely, and static energy can only grow
    /// with the real latency), so the bound never exceeds the total the
    /// full costing reports — the branch-and-bound mapping search relies
    /// on this to skip candidates that provably cannot beat its incumbent.
    pub fn energy_floor_pj(&self, dram_bytes: u64, maccs: u64, min_cycles: u64) -> f64 {
        let dram = dram_bytes as f64 * DRAM_PJ_PER_BYTE;
        let compute = maccs as f64 * MACC_PJ;
        let static_pj =
            self.static_mw() * 1e-3 * min_cycles as f64 / self.arch.clock_hz as f64 * 1e12;
        dram + compute + static_pj
    }

    /// Evaluate a layer under a configuration and parallelism.
    pub fn evaluate(
        &self,
        shape: &ConvShape,
        cfg: &TilingConfig,
        par: &Parallelism,
    ) -> EnergyReport {
        let traffic = layer_traffic(shape, cfg);
        let cycles = layer_cycles(shape, cfg, par, &self.arch, &traffic);
        self.attribute(shape, &traffic, cycles)
    }

    /// Attribute energies given precomputed traffic/cycles.
    pub fn attribute(
        &self,
        _shape: &ConvShape,
        traffic: &LayerTraffic,
        cycles: CycleReport,
    ) -> EnergyReport {
        let b = &traffic.boundaries;
        let nb = b.len();
        // Per-boundary, per-class byte totals.
        let class_bytes = |i: usize, ty: TrafficClass| -> u64 {
            if i >= nb {
                return 0;
            }
            match ty {
                TrafficClass::Input => b[i].input_down,
                TrafficClass::Weight => b[i].weight_down,
                TrafficClass::Psum => b[i].psum_down + b[i].psum_up + b[i].output_up,
            }
        };
        let classes = [
            TrafficClass::Input,
            TrafficClass::Weight,
            TrafficClass::Psum,
        ];

        // DRAM: everything crossing boundary 0.
        let dram_pj = b[0].total() as f64 * DRAM_PJ_PER_BYTE;

        // On-chip level i is touched by boundary i (fills/writebacks) and
        // boundary i+1 (reads/refills to the level below).
        let mut level_pj = [0.0f64; 3];
        let levels = [OnChipLevel::L2, OnChipLevel::L1, OnChipLevel::L0];
        for (li, &lvl) in levels.iter().enumerate().take(nb.min(3)) {
            for ty in classes {
                let bytes = class_bytes(li, ty) + class_bytes(li + 1, ty);
                level_pj[li] += bytes as f64 * self.level_pj_per_byte(lvl, ty);
            }
        }

        // NoC dynamic energy rides the boundary transfers between on-chip
        // levels (L2→L1 and L1→L0 broadcast buses).
        let mut noc_pj = 0.0;
        for boundary in b.iter().take(nb.min(3)).skip(1) {
            noc_pj += boundary.total() as f64 * NOC_PJ_PER_BYTE;
        }

        let compute_pj = traffic.maccs as f64 * MACC_PJ;
        let static_pj =
            self.static_mw() * 1e-3 * cycles.total as f64 / self.arch.clock_hz as f64 * 1e12;

        EnergyReport {
            dram_pj,
            l2_pj: level_pj[0],
            l1_pj: level_pj[1],
            l0_pj: level_pj[2],
            noc_pj,
            compute_pj,
            static_pj,
            cycles,
            maccs: traffic.maccs,
        }
    }
}

/// Energy breakdown of one layer (or a whole network, summed), in pJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Off-chip DRAM access energy.
    pub dram_pj: f64,
    /// L2 (global buffer) access energy.
    pub l2_pj: f64,
    /// L1 (cluster buffer) access energy.
    pub l1_pj: f64,
    /// L0 (PE buffer) access energy.
    pub l0_pj: f64,
    /// NoC dynamic transfer energy.
    pub noc_pj: f64,
    /// MACC (datapath) energy.
    pub compute_pj: f64,
    /// Leakage + standby + NoC signaling energy over the layer's runtime.
    pub static_pj: f64,
    /// Cycle breakdown.
    pub cycles: CycleReport,
    /// MACCs performed.
    pub maccs: u64,
}

impl EnergyReport {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj
            + self.l2_pj
            + self.l1_pj
            + self.l0_pj
            + self.noc_pj
            + self.compute_pj
            + self.static_pj
    }

    /// Dynamic (access + compute) energy only, as plotted in Fig. 9.
    pub fn dynamic_pj(&self) -> f64 {
        self.dram_pj + self.l2_pj + self.l1_pj + self.l0_pj + self.noc_pj + self.compute_pj
    }

    /// The five Fig. 9 stack components `[DRAM, L2, L1, L0, Compute]`,
    /// with NoC energy folded into the levels its buses serve.
    pub fn fig9_components(&self) -> [f64; 5] {
        [
            self.dram_pj,
            self.l2_pj + 0.5 * self.noc_pj,
            self.l1_pj + 0.5 * self.noc_pj,
            self.l0_pj,
            self.compute_pj,
        ]
    }

    /// Performance per watt in MACCs/pJ (proportional to GOPS/W); uses
    /// total energy including static, so utilization matters (§VI-E).
    pub fn perf_per_watt(&self) -> f64 {
        self.maccs as f64 / self.total_pj()
    }

    /// Element-wise sum of two reports (network aggregation).
    pub fn add(&self, other: &EnergyReport) -> EnergyReport {
        EnergyReport {
            dram_pj: self.dram_pj + other.dram_pj,
            l2_pj: self.l2_pj + other.l2_pj,
            l1_pj: self.l1_pj + other.l1_pj,
            l0_pj: self.l0_pj + other.l0_pj,
            noc_pj: self.noc_pj + other.noc_pj,
            compute_pj: self.compute_pj + other.compute_pj,
            static_pj: self.static_pj + other.static_pj,
            cycles: CycleReport {
                compute: self.cycles.compute + other.cycles.compute,
                dram: self.cycles.dram + other.cycles.dram,
                l2_l1: self.cycles.l2_l1 + other.cycles.l2_l1,
                l1_l0: self.cycles.l1_l0 + other.cycles.l1_l0,
                total: self.cycles.total + other.cycles.total,
                ideal: self.cycles.ideal + other.cycles.ideal,
            },
            maccs: self.maccs + other.maccs,
        }
    }

    /// A zero report (sum identity).
    pub fn zero() -> EnergyReport {
        EnergyReport {
            dram_pj: 0.0,
            l2_pj: 0.0,
            l1_pj: 0.0,
            l0_pj: 0.0,
            noc_pj: 0.0,
            compute_pj: 0.0,
            static_pj: 0.0,
            cycles: CycleReport {
                compute: 0,
                dram: 0,
                l2_l1: 0,
                l1_l0: 0,
                total: 0,
                ideal: 0,
            },
            maccs: 0,
        }
    }
}

impl morph_json::ToJson for EnergyReport {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("dram_pj", Value::Float(self.dram_pj)),
            ("l2_pj", Value::Float(self.l2_pj)),
            ("l1_pj", Value::Float(self.l1_pj)),
            ("l0_pj", Value::Float(self.l0_pj)),
            ("noc_pj", Value::Float(self.noc_pj)),
            ("compute_pj", Value::Float(self.compute_pj)),
            ("static_pj", Value::Float(self.static_pj)),
            ("cycles", self.cycles.to_json()),
            ("maccs", Value::Int(self.maccs as i64)),
        ])
    }
}

impl morph_json::FromJson for EnergyReport {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::{field, field_f64, field_u64};
        Ok(EnergyReport {
            dram_pj: field_f64(v, "dram_pj")?,
            l2_pj: field_f64(v, "l2_pj")?,
            l1_pj: field_f64(v, "l1_pj")?,
            l0_pj: field_f64(v, "l0_pj")?,
            noc_pj: field_f64(v, "noc_pj")?,
            compute_pj: field_f64(v, "compute_pj")?,
            static_pj: field_f64(v, "static_pj")?,
            cycles: CycleReport::from_json(field(v, "cycles")?)?,
            maccs: field_u64(v, "maccs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_tensor::order::LoopOrder;
    use morph_tensor::tiled::Tile;

    fn layer() -> ConvShape {
        ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1)
    }

    fn cfg(sh: &ConvShape) -> TilingConfig {
        TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            Tile {
                h: 28,
                w: 28,
                f: 2,
                c: 32,
                k: 32,
            },
            Tile {
                h: 7,
                w: 7,
                f: 2,
                c: 16,
                k: 16,
            },
            Tile {
                h: 7,
                w: 7,
                f: 1,
                c: 4,
                k: 8,
            },
            8,
        )
        .normalize(sh)
    }

    #[test]
    fn evaluate_produces_positive_components() {
        let sh = layer();
        let model = EnergyModel::morph(ArchSpec::morph());
        let r = model.evaluate(
            &sh,
            &cfg(&sh),
            &Parallelism {
                hp: 4,
                wp: 4,
                kp: 6,
                fp: 1,
            },
        );
        assert!(r.dram_pj > 0.0 && r.l2_pj > 0.0 && r.l1_pj > 0.0 && r.l0_pj > 0.0);
        assert!(r.compute_pj > 0.0 && r.static_pj > 0.0);
        assert!(r.total_pj() > r.dynamic_pj());
    }

    #[test]
    fn banked_access_cheaper_than_partitioned_l2() {
        // Banked 1 MB (64 KB banks) beats a 400 KB monolithic partition.
        let arch = ArchSpec::morph();
        let banked =
            EnergyModel::morph(arch).level_pj_per_byte(OnChipLevel::L2, TrafficClass::Psum);
        let mono =
            EnergyModel::morph_base(arch).level_pj_per_byte(OnChipLevel::L2, TrafficClass::Psum);
        assert!(banked < mono);
    }

    #[test]
    fn perf_per_watt_penalizes_low_utilization() {
        let sh = layer();
        let model = EnergyModel::morph(ArchSpec::morph());
        let good = model.evaluate(
            &sh,
            &cfg(&sh),
            &Parallelism {
                hp: 4,
                wp: 4,
                kp: 6,
                fp: 1,
            },
        );
        let bad = model.evaluate(&sh, &cfg(&sh), &Parallelism::serial());
        assert!(good.perf_per_watt() > bad.perf_per_watt());
        // Dynamic access energy is the same; only static differs.
        assert!((good.dynamic_pj() - bad.dynamic_pj()).abs() < 1e-6);
    }

    #[test]
    fn fig9_components_cover_dynamic_energy() {
        let sh = layer();
        let model = EnergyModel::morph(ArchSpec::morph());
        let r = model.evaluate(
            &sh,
            &cfg(&sh),
            &Parallelism {
                hp: 4,
                wp: 4,
                kp: 6,
                fp: 1,
            },
        );
        let sum: f64 = r.fig9_components().iter().sum();
        assert!((sum - r.dynamic_pj()).abs() < 1e-6);
    }

    #[test]
    fn report_sum_is_elementwise() {
        let sh = layer();
        let model = EnergyModel::morph(ArchSpec::morph());
        let r = model.evaluate(
            &sh,
            &cfg(&sh),
            &Parallelism {
                hp: 4,
                wp: 4,
                kp: 6,
                fp: 1,
            },
        );
        let s = r.add(&r);
        assert!((s.total_pj() - 2.0 * r.total_pj()).abs() < 1e-6);
        assert_eq!(s.maccs, 2 * r.maccs);
    }

    #[test]
    fn energy_floor_is_admissible() {
        // The floor built from a report's own DRAM bytes / MACCs / ideal
        // cycles never exceeds the attributed total — under banked and
        // partitioned buffers alike.
        let sh = layer();
        let arch = ArchSpec::morph();
        for model in [EnergyModel::morph(arch), EnergyModel::morph_base(arch)] {
            let traffic = layer_traffic(&sh, &cfg(&sh));
            let par = Parallelism {
                hp: 4,
                wp: 4,
                kp: 6,
                fp: 1,
            };
            let cycles = layer_cycles(&sh, &cfg(&sh), &par, &model.arch, &traffic);
            let r = model.attribute(&sh, &traffic, cycles);
            let floor =
                model.energy_floor_pj(traffic.boundaries[0].total(), traffic.maccs, cycles.ideal);
            assert!(floor > 0.0 && floor <= r.total_pj(), "{:?}", model.modes);
        }
    }

    #[test]
    fn static_power_is_tens_of_mw() {
        let model = EnergyModel::morph(ArchSpec::morph());
        let mw = model.static_mw();
        assert!(mw > 10.0 && mw < 120.0, "static {mw} mW");
    }
}
