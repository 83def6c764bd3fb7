//! Performance model: PE parallelism, utilization and cycle counts.
//!
//! The paper parallelizes loop iterations across PEs in configurable
//! dimensions (`Hp`, `Wp`, `Kp`, and temporally `Fp`; §II-F) with `Vw`
//! vector lanes per PE across output channels. Performance is maximized
//! when every PE has work (§III-C); utilization losses come from edge
//! tiles and dimension extents that do not divide the parallel degree.
//!
//! Under double buffering, transfer time overlaps compute, so layer
//! latency is the max of compute cycles and each boundary's bus cycles.

use crate::arch::ArchSpec;
use crate::config::TilingConfig;
use crate::pieces::DimSpec;
use crate::traffic::LayerTraffic;
use morph_tensor::order::Dim;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// Degrees of spatial PE parallelism (per-dimension PE counts).
///
/// `hp·wp·kp·fp` PEs are active; each PE additionally runs `Vw` MACC lanes
/// across output channels. Morph_base fixes `Hp` and `Kp` (§IV-A3); Morph
/// chooses per layer (Table III reports `Kp·Vw`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// PEs across the output-height dimension.
    pub hp: usize,
    /// PEs across the output-width dimension.
    pub wp: usize,
    /// PEs across the filter dimension (each with `Vw` lanes).
    pub kp: usize,
    /// PEs across the temporal dimension.
    pub fp: usize,
}

impl Parallelism {
    /// Sequential execution (one PE).
    pub fn serial() -> Self {
        Self {
            hp: 1,
            wp: 1,
            kp: 1,
            fp: 1,
        }
    }

    /// Morph_base's fixed parallelization: `Hp × Kp` filling the chip
    /// (§IV-A3): 12 PEs across H, 8 across K.
    pub fn base(arch: &ArchSpec) -> Self {
        let kp = 8.min(arch.total_pes());
        let hp = (arch.total_pes() / kp).max(1);
        Self {
            hp,
            wp: 1,
            kp,
            fp: 1,
        }
    }

    /// Total PEs used.
    pub fn pes(&self) -> usize {
        self.hp * self.wp * self.kp * self.fp
    }

    /// Parallel degree along a dimension (`C` is never parallelized:
    /// it is the accumulation dimension).
    pub fn degree(&self, d: Dim) -> usize {
        match d {
            Dim::H => self.hp,
            Dim::W => self.wp,
            Dim::K => self.kp,
            Dim::F => self.fp,
            Dim::C => 1,
        }
    }

    /// True if this assignment fits the chip.
    pub fn fits(&self, arch: &ArchSpec) -> bool {
        self.pes() <= arch.total_pes() && self.pes() >= 1
    }
}

/// Cycle breakdown of one layer (all at the accelerator clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReport {
    /// Compute cycles with utilization losses.
    pub compute: u64,
    /// DRAM-interface cycles.
    pub dram: u64,
    /// L2→L1 broadcast-bus cycles.
    pub l2_l1: u64,
    /// L1→L0 bus cycles (aggregate across clusters).
    pub l1_l0: u64,
    /// Layer latency: max of the overlapped components.
    pub total: u64,
    /// Ideal (100 %-utilization) compute cycles.
    pub ideal: u64,
}

impl CycleReport {
    /// PE utilization: ideal compute cycles over actual latency.
    pub fn utilization(&self) -> f64 {
        self.ideal as f64 / self.total.max(1) as f64
    }
}

impl morph_json::ToJson for Parallelism {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("hp", Value::Int(self.hp as i64)),
            ("wp", Value::Int(self.wp as i64)),
            ("kp", Value::Int(self.kp as i64)),
            ("fp", Value::Int(self.fp as i64)),
        ])
    }
}

impl morph_json::FromJson for Parallelism {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field_usize;
        Ok(Parallelism {
            hp: field_usize(v, "hp")?,
            wp: field_usize(v, "wp")?,
            kp: field_usize(v, "kp")?,
            fp: field_usize(v, "fp")?,
        })
    }
}

impl morph_json::ToJson for CycleReport {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("compute", Value::Int(self.compute as i64)),
            ("dram", Value::Int(self.dram as i64)),
            ("l2_l1", Value::Int(self.l2_l1 as i64)),
            ("l1_l0", Value::Int(self.l1_l0 as i64)),
            ("total", Value::Int(self.total as i64)),
            ("ideal", Value::Int(self.ideal as i64)),
        ])
    }
}

impl morph_json::FromJson for CycleReport {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field_u64;
        Ok(CycleReport {
            compute: field_u64(v, "compute")?,
            dram: field_u64(v, "dram")?,
            l2_l1: field_u64(v, "l2_l1")?,
            l1_l0: field_u64(v, "l1_l0")?,
            total: field_u64(v, "total")?,
            ideal: field_u64(v, "ideal")?,
        })
    }
}

/// One dimension of the tile grid [`compute_cycles`] reads: the resident
/// L2 pieces (`full` pieces of `tile` outputs plus one `rem`-output
/// remainder piece when `rem > 0`) and the PE-level tile `t0`.
#[derive(Debug, Clone, Copy)]
struct DimGrid {
    full: u64,
    tile: usize,
    rem: usize,
    t0: usize,
}

impl DimGrid {
    fn new(extent: usize, l2: usize, t0: usize) -> Self {
        let tile = l2.min(extent).max(1);
        Self {
            full: (extent / tile) as u64,
            tile,
            rem: extent % tile,
            t0,
        }
    }

    /// Serial PE rounds at parallel degree `deg`: each L2 piece deals its
    /// PE-level tiles to `deg` PEs, so the rounds are
    /// `q·⌈⌈t/t0⌉/P⌉ + [r>0]·⌈⌈r/t0⌉/P⌉` with `q` full pieces of `t` and a
    /// remainder piece of `r`.
    fn rounds(&self, deg: u64) -> u64 {
        let per_piece = |size: usize| (size.div_ceil(self.t0) as u64).div_ceil(deg);
        let mut rounds = self.full * per_piece(self.tile);
        if self.rem > 0 {
            rounds += per_piece(self.rem);
        }
        rounds.max(1)
    }
}

/// Index of the PE-distributed level: the one feeding the PEs' operand
/// registers, i.e. the second-deepest configured level (for Morph's
/// `[L2, L1, L0, REG]` that is the per-PE L0).
fn pe_level(cfg: &TilingConfig) -> usize {
    cfg.levels.len().saturating_sub(2)
}

/// The tiles [`compute_cycles`] reads of a configuration: the L2 tile and
/// the PE-level tile. Configurations of equal depth with equal grids take
/// equal compute cycles under every parallelism, so a search needs one
/// [`best_parallelism`] per distinct grid.
pub fn tile_grid(cfg: &TilingConfig) -> (Tile, Tile) {
    (cfg.levels[0].tile, cfg.levels[pe_level(cfg)].tile)
}

/// The parallelism-independent part of [`compute_cycles`]: each
/// dimension's grid (in [`Dim::ALL`] order) and the work one PE does per
/// serial round.
fn grid_and_work(shape: &ConvShape, cfg: &TilingConfig, arch: &ArchSpec) -> ([DimGrid; 5], u64) {
    let pe_idx = pe_level(cfg);
    let vw = arch.vector_width;
    let mut work_per_round: u64 = (shape.r * shape.s * shape.t) as u64;
    let grids = Dim::ALL.map(|d| {
        let extent = DimSpec::of(shape, d).out_extent;
        let t0 = cfg.levels[pe_idx].tile.extent(d).min(extent).max(1);
        // Work per round along this dimension (K runs on Vw lanes).
        let w = match d {
            Dim::K => t0.div_ceil(vw) as u64,
            _ => t0 as u64,
        };
        work_per_round *= w.max(1);
        // With a single level above the registers the PEs share the
        // whole extent; otherwise they work one resident L2 piece at a time.
        let l2 = if pe_idx == 0 {
            extent
        } else {
            cfg.levels[0].tile.extent(d)
        };
        DimGrid::new(extent, l2, t0)
    });
    (grids, work_per_round)
}

/// Compute-only cycle count (no memory-bus terms): the serial PE rounds
/// implied by the tile grid and the parallel mapping.
pub fn compute_cycles(
    shape: &ConvShape,
    cfg: &TilingConfig,
    par: &Parallelism,
    arch: &ArchSpec,
) -> u64 {
    assert!(
        par.fits(arch),
        "parallelism {par:?} exceeds {} PEs",
        arch.total_pes()
    );
    // Per dimension: the PE-level tiles within each resident L2 tile are
    // distributed over P_d PEs; Σ over L2 pieces of ceil(children/P_d)
    // serial rounds, times the per-round work extent of one PE-level tile.
    let (grids, work_per_round) = grid_and_work(shape, cfg, arch);
    let rounds: u64 = Dim::ALL
        .iter()
        .zip(&grids)
        .map(|(&d, g)| g.rounds(par.degree(d) as u64))
        .product();
    rounds * work_per_round
}

/// The candidate with the fewest [`compute_cycles`] under `cfg`, and that
/// count; on ties the first such candidate, like `Iterator::min_by_key`.
/// `None` only when `pars` is empty.
///
/// Each dimension's serial rounds are tabulated once per degree the
/// candidates use, so scoring a candidate is one lookup per dimension.
pub fn best_parallelism(
    shape: &ConvShape,
    cfg: &TilingConfig,
    pars: &[Parallelism],
    arch: &ArchSpec,
) -> Option<(Parallelism, u64)> {
    let (grids, work_per_round) = grid_and_work(shape, cfg, arch);
    // rounds[deg][dim], filled on first use: a round count is never 0, so
    // 0 marks an empty slot. Fitting candidates keep every degree within
    // the chip's PE count.
    let mut table = vec![[0u64; 5]; arch.total_pes() + 1];
    let mut best: Option<(Parallelism, u64)> = None;
    for par in pars {
        assert!(
            par.fits(arch),
            "parallelism {par:?} exceeds {} PEs",
            arch.total_pes()
        );
        let mut rounds = 1u64;
        for (i, (&d, g)) in Dim::ALL.iter().zip(&grids).enumerate() {
            let deg = par.degree(d);
            let slot = &mut table[deg][i];
            if *slot == 0 {
                *slot = g.rounds(deg as u64);
            }
            rounds *= *slot;
        }
        let cycles = rounds * work_per_round;
        if best.is_none_or(|(_, c)| cycles < c) {
            best = Some((*par, cycles));
        }
    }
    best
}

/// Compute the cycle breakdown of a layer under a config + parallelism.
pub fn layer_cycles(
    shape: &ConvShape,
    cfg: &TilingConfig,
    par: &Parallelism,
    arch: &ArchSpec,
    traffic: &LayerTraffic,
) -> CycleReport {
    let compute = compute_cycles(shape, cfg, par, arch);
    let ideal = traffic.maccs.div_ceil(arch.peak_maccs_per_cycle());

    let bus = |bytes: u64, bits: usize| bytes.div_ceil((bits / 8).max(1) as u64);
    let dram = bus(traffic.boundaries[0].total(), arch.bus_dram_bits);
    let l2_l1 = if traffic.boundaries.len() > 1 {
        bus(traffic.boundaries[1].total(), arch.bus_l2_l1_bits)
    } else {
        0
    };
    let l1_l0 = if traffic.boundaries.len() > 2 {
        bus(
            traffic.boundaries[2].total(),
            arch.bus_l1_l0_bits * arch.clusters,
        )
    } else {
        0
    };
    let total = compute.max(dram).max(l2_l1).max(l1_l0).max(1);
    CycleReport {
        compute,
        dram,
        l2_l1,
        l1_l0,
        total,
        ideal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::layer_traffic;
    use morph_tensor::order::LoopOrder;
    use morph_tensor::tiled::Tile;

    fn setup(par: Parallelism) -> (ConvShape, CycleReport) {
        let sh = ConvShape::new_3d(28, 28, 8, 32, 64, 3, 3, 3).with_pad(1, 1);
        let arch = ArchSpec::morph();
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            Tile::whole(&sh),
            Tile {
                h: 14,
                w: 14,
                f: 4,
                c: 16,
                k: 16,
            },
            Tile {
                h: 7,
                w: 7,
                f: 2,
                c: 8,
                k: 8,
            },
            8,
        )
        .normalize(&sh);
        let t = layer_traffic(&sh, &cfg);
        let r = layer_cycles(&sh, &cfg, &par, &arch, &t);
        (sh, r)
    }

    #[test]
    fn serial_is_slower_than_parallel() {
        let (_, serial) = setup(Parallelism::serial());
        let (_, par) = setup(Parallelism {
            hp: 4,
            wp: 4,
            kp: 6,
            fp: 1,
        });
        assert!(par.compute < serial.compute);
        // 96 PEs can be at most 96× faster.
        assert!(serial.compute <= par.compute * 96);
    }

    #[test]
    fn utilization_bounded() {
        let (_, r) = setup(Parallelism {
            hp: 4,
            wp: 4,
            kp: 6,
            fp: 1,
        });
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn mismatched_parallelism_wastes_pes() {
        // H extent 28 over Hp=5: ceil(28-grid) losses vs Hp=4.
        let (_, good) = setup(Parallelism {
            hp: 4,
            wp: 4,
            kp: 6,
            fp: 1,
        });
        let (_, bad) = setup(Parallelism {
            hp: 96,
            wp: 1,
            kp: 1,
            fp: 1,
        });
        assert!(
            bad.compute > good.compute,
            "bad {} good {}",
            bad.compute,
            good.compute
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversubscribed_parallelism_panics() {
        setup(Parallelism {
            hp: 96,
            wp: 2,
            kp: 1,
            fp: 1,
        });
    }

    #[test]
    fn base_parallelism_fills_chip() {
        let arch = ArchSpec::morph();
        let p = Parallelism::base(&arch);
        assert_eq!(p.pes(), 96);
        assert!(p.fits(&arch));
    }
}
