//! # morph-eyeriss
//!
//! An Eyeriss-like 2D-CNN accelerator baseline (§VI-B), standing in for
//! the paper's `nnflow`-simulated Eyeriss.
//!
//! Modeled properties that drive the comparison:
//!
//! * **Provisioning per Table II**: 24×32 scalar PEs, a 1408 kB global
//!   buffer, 2 kB register file per PE — normalized to Morph's compute
//!   throughput and on-chip memory.
//! * **Two-level hierarchy**: DRAM → global buffer → per-PE RF. There is
//!   no cluster (L1) level.
//! * **Fixed row-stationary-style dataflow**: the loop orders are frozen
//!   (input-stationary spatial walk with filters streaming), and the
//!   buffer is statically partitioned.
//! * **Frame-by-frame 3D evaluation (§IV-A)**: a 3D convolution runs as
//!   `T` separate 2D convolutions per output frame, whose partial frames
//!   must be merged through the memory hierarchy; inputs are re-fetched
//!   per output frame (no temporal reuse) and psums round-trip per extra
//!   temporal tap.

use morph_dataflow::arch::ArchSpec;
use morph_dataflow::config::{LevelConfig, TilingConfig};
use morph_dataflow::perf::{layer_cycles, Parallelism};
use morph_dataflow::traffic::layer_traffic;
use morph_energy::cacti::sram_pj_per_byte;
use morph_energy::tech::{DRAM_PJ_PER_BYTE, MACC_PJ, NOC_PJ_PER_BYTE};
use morph_energy::{EnergyModel, EnergyReport};
use morph_tensor::order::LoopOrder;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// The Eyeriss-like baseline accelerator model, at the same 32 nm
/// calibration as the Morph models.
#[derive(Debug, Clone)]
pub struct Eyeriss {
    /// Provisioning (Table II column "Eyeriss").
    pub arch: ArchSpec,
}

impl Default for Eyeriss {
    fn default() -> Self {
        Self::table2()
    }
}

impl Eyeriss {
    /// Table II provisioning: 768 scalar PEs, 1408 kB buffer, 2 kB RFs.
    pub fn table2() -> Self {
        Self {
            arch: ArchSpec {
                clusters: 1,
                pes_per_cluster: 24 * 32,
                vector_width: 1,
                l2_bytes: 1408 << 10,
                l1_bytes: 0,       // no cluster level
                l0_bytes: 2 << 10, // RF per PE
                banks: 1,
                bus_l2_l1_bits: 64,
                bus_l1_l0_bits: 256, // X-Y array NoC, much wider than a single bus
                bus_dram_bits: 64,
                clock_hz: 1_000_000_000,
            },
        }
    }

    /// Decompose a (possibly 3D) layer into the 2D slices Eyeriss actually
    /// runs: one `H×W` convolution per (output frame, temporal tap) pair.
    /// For a 2D layer this is the layer itself.
    pub fn frame_slices(shape: &ConvShape) -> Vec<ConvShape> {
        if shape.is_2d() {
            return vec![*shape];
        }
        let slice = ConvShape {
            f: 1,
            t: 1,
            pad_f: 0,
            stride_f: 1,
            ..*shape
        };
        // F_out output frames × T taps each.
        vec![slice; shape.f_out() * shape.t]
    }

    /// Eyeriss's fixed dataflow for one 2D slice: the global buffer holds
    /// an input-row band and a filter block; the RF level walks rows.
    fn slice_config(&self, slice: &ConvShape) -> (TilingConfig, Parallelism) {
        // Static GLB shares, mirroring row-stationary blocking.
        let cap = self.arch.l2_bytes as u64 / 2;
        let input_share = cap * 40 / 100;
        let weight_share = cap * 35 / 100;
        let psum_share = cap - input_share - weight_share;

        let mut h = slice.h_out();
        while h > 1 {
            let t = Tile {
                h,
                w: slice.w_out(),
                f: 1,
                c: slice.c,
                k: 1,
            };
            if morph_dataflow::config::tile_bytes(slice, &t).input <= input_share {
                break;
            }
            h = h.div_ceil(2);
        }
        let mut k = slice.k;
        loop {
            let wb = (k * slice.c * slice.r * slice.s) as u64;
            let pb = (k * h * slice.w_out()) as u64 * slice.psum_bytes();
            if (wb <= weight_share && pb <= psum_share) || k == 1 {
                break;
            }
            k = k.div_ceil(2);
        }
        let glb = Tile {
            h,
            w: slice.w_out(),
            f: 1,
            c: slice.c,
            k,
        };
        // RF level: a row segment with a few channels, one filter.
        let rf = Tile {
            h: 1,
            w: slice.w_out().min(16),
            f: 1,
            c: slice.c.clamp(1, 16),
            k: 1,
        };
        // Fixed orders: filters held at PEs, inputs streamed row by row.
        let outer: LoopOrder = "KWHCF".parse().unwrap();
        let inner: LoopOrder = "kcwhf".parse().unwrap();
        let cfg = TilingConfig {
            levels: vec![
                LevelConfig {
                    order: outer,
                    tile: glb,
                },
                LevelConfig {
                    order: inner,
                    tile: rf,
                },
                LevelConfig {
                    order: inner,
                    tile: Tile::unit(),
                },
            ],
        }
        .normalize(slice);
        // Spatial mapping: PE rows take filter rows, PE columns take output
        // rows — effectively H×K parallelism.
        let par = Parallelism {
            hp: 24.min(slice.h_out()).max(1),
            wp: 1,
            kp: 32.min(slice.k),
            fp: 1,
        };
        (cfg, par)
    }

    /// Energy/performance of one (possibly 3D) layer evaluated frame by
    /// frame.
    pub fn evaluate_layer(&self, shape: &ConvShape) -> EnergyReport {
        let slices = Self::frame_slices(shape);
        let nslices = slices.len() as u64;
        let slice = slices[0];
        let (cfg, par) = self.slice_config(&slice);
        let mut traffic = layer_traffic(&slice, &cfg);
        morph_dataflow::traffic::apply_multicast(&mut traffic, par.hp, par.wp, par.fp, par.kp);
        let cycles = layer_cycles(&slice, &cfg, &par, &self.arch, &traffic);

        // Per-slice energies. The GLB is monolithic (no banking).
        let glb_pj_b = sram_pj_per_byte(self.arch.l2_bytes, 8);
        let rf_pj_b = sram_pj_per_byte(self.arch.l0_bytes, 2);
        let b = &traffic.boundaries;
        let dram = b[0].total() as f64 * DRAM_PJ_PER_BYTE;
        let glb = (b[0].total() + b[1].total()) as f64 * glb_pj_b;
        let rf = (b[1].total() + b[2].total()) as f64 * rf_pj_b;
        let noc = b[1].total() as f64 * NOC_PJ_PER_BYTE;
        let compute = traffic.maccs as f64 * MACC_PJ;

        // Frame-merge traffic: for 3D layers the T partial frames of each
        // output frame accumulate through the GLB (and DRAM when the
        // partial frame exceeds the psum share).
        let mut merge_dram = 0.0;
        let mut merge_glb = 0.0;
        if !shape.is_2d() {
            let frame_psum_bytes =
                (shape.k * shape.h_out() * shape.w_out()) as u64 * shape.psum_bytes();
            let merges = (shape.t as u64 - 1) * shape.f_out() as u64;
            let psum_share = self.arch.l2_bytes as u64 / 2 / 4;
            if frame_psum_bytes > psum_share {
                merge_dram = (merges * 2 * frame_psum_bytes) as f64 * DRAM_PJ_PER_BYTE;
            }
            merge_glb = (merges * 2 * frame_psum_bytes) as f64 * glb_pj_b;
        }

        // Static power: leakage of the large GLB + RFs + standby.
        let model = EnergyModel {
            arch: self.arch,
            modes: [morph_energy::BufferMode::Banked { banks: 1 }; 3],
            word_bytes: [8, 8, 2],
        };
        let total_cycles = cycles.total * nslices;
        let static_pj =
            model.static_mw() * 1e-3 * total_cycles as f64 / self.arch.clock_hz as f64 * 1e12;

        EnergyReport {
            dram_pj: dram * nslices as f64 + merge_dram,
            l2_pj: glb * nslices as f64 + merge_glb,
            l1_pj: 0.0,
            l0_pj: rf * nslices as f64,
            noc_pj: noc * nslices as f64,
            compute_pj: compute * nslices as f64,
            static_pj,
            cycles: morph_dataflow::perf::CycleReport {
                compute: cycles.compute * nslices,
                dram: cycles.dram * nslices,
                l2_l1: cycles.l2_l1 * nslices,
                l1_l0: cycles.l1_l0 * nslices,
                total: total_cycles,
                ideal: cycles.ideal * nslices,
            },
            maccs: traffic.maccs * nslices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_normalization() {
        let e = Eyeriss::table2();
        // Same peak compute as Morph: 768 MACCs/cycle.
        assert_eq!(e.arch.peak_maccs_per_cycle(), 768);
        assert_eq!(e.arch.l2_bytes, 1408 << 10);
    }

    #[test]
    fn frame_slices_count() {
        let sh = ConvShape::new_3d(56, 56, 16, 64, 128, 3, 3, 3).with_pad(1, 1);
        // 16 output frames × 3 taps = 48 2D passes (§IV-A).
        assert_eq!(Eyeriss::frame_slices(&sh).len(), 48);
        let sh2d = ConvShape::new_2d(56, 56, 64, 128, 3, 3);
        assert_eq!(Eyeriss::frame_slices(&sh2d).len(), 1);
    }

    #[test]
    fn maccs_match_direct_3d() {
        // Frame-by-frame evaluation performs exactly the same MACCs.
        let sh = ConvShape::new_3d(28, 28, 8, 64, 128, 3, 3, 3).with_pad(1, 1);
        let r = Eyeriss::table2().evaluate_layer(&sh);
        assert_eq!(r.maccs, sh.maccs());
    }

    #[test]
    fn three_d_layer_pays_temporal_penalty() {
        // Same kernel run as 3D vs collapsed 2D: the 3D layer costs more
        // energy per MACC on Eyeriss (no temporal reuse).
        let e = Eyeriss::table2();
        let sh3d = ConvShape::new_3d(28, 28, 8, 64, 128, 3, 3, 3).with_pad(1, 1);
        let sh2d = ConvShape::new_2d(28, 28, 64, 128, 3, 3).with_pad(1, 0);
        let r3 = e.evaluate_layer(&sh3d);
        let r2 = e.evaluate_layer(&sh2d);
        let per_macc_3d = r3.dynamic_pj() / r3.maccs as f64;
        let per_macc_2d = r2.dynamic_pj() / r2.maccs as f64;
        assert!(
            per_macc_3d > per_macc_2d,
            "3D {per_macc_3d} vs 2D {per_macc_2d}"
        );
    }

    #[test]
    fn energy_components_positive() {
        let r = Eyeriss::table2()
            .evaluate_layer(&ConvShape::new_2d(27, 27, 96, 256, 5, 5).with_pad(2, 0));
        assert!(r.dram_pj > 0.0 && r.l2_pj > 0.0 && r.l0_pj > 0.0 && r.compute_pj > 0.0);
        assert_eq!(r.l1_pj, 0.0); // no cluster level
    }
}
