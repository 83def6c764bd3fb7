//! Figure 5: relative energy advantage of multi-level buffer hierarchies
//! over a single level, for 3D and 2D convolution.
//!
//! Methodology per §IV-A1: for each hierarchy depth, sweep loop orders and
//! tile sizes with the physical buffer size fixed to the tile size (CACTI
//! energy is evaluated at each candidate's capacity) and report the best.
//! Workload per the figure caption: 112×112×3 (HWC) input with 16 frames,
//! 3×3×3 filter with temporal depth 3; the 2D variant sets F = T = 1.

use morph_bench::hierarchy::capacity_matched_energy;
use morph_bench::print_table;
use morph_dataflow::config::{LevelConfig, TilingConfig};
use morph_tensor::order::LoopOrder;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// Geometric interpolation between a top tile and a bottom tile, giving
/// each hierarchy depth a ladder from "large enough for DRAM reuse" down
/// to "small enough for cheap ALU feeds".
fn ladder(top: Tile, bottom: Tile, depth: usize) -> Vec<Tile> {
    let lerp = |a: usize, b: usize, alpha: f64| -> usize {
        ((a as f64).powf(1.0 - alpha) * (b as f64).powf(alpha))
            .round()
            .max(1.0) as usize
    };
    (0..depth)
        .map(|i| {
            let alpha = if depth == 1 {
                0.0
            } else {
                i as f64 / (depth - 1) as f64
            };
            Tile {
                h: lerp(top.h, bottom.h, alpha),
                w: lerp(top.w, bottom.w, alpha),
                f: lerp(top.f, bottom.f, alpha),
                c: lerp(top.c, bottom.c, alpha),
                k: lerp(top.k, bottom.k, alpha),
            }
        })
        .collect()
}

/// Best energy (pJ) for a hierarchy of `depth` on-chip levels.
///
/// To isolate the effect of hierarchy depth (the paper's stated goal), the
/// last-level tile is held fixed across depths at a realistic last-level
/// working set (inputs of a spatial band resident plus the full filter
/// set); orders and the ladder's bottom tile are swept.
fn best_energy(shape: &ConvShape, depth: usize) -> f64 {
    let orders: Vec<LoopOrder> = ["WHCKF", "KWHCF", "CFWHK", "WHCFK", "KCFWH"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let whole = Tile::whole(shape);
    let top = Tile {
        h: 28.min(whole.h),
        w: 28.min(whole.w),
        f: whole.f,
        c: whole.c,
        k: whole.k,
    };
    let bottoms = [
        Tile {
            h: 2,
            w: 2,
            f: 2.min(whole.f),
            c: 2.min(whole.c),
            k: 8,
        },
        Tile {
            h: 4,
            w: 4,
            f: 2.min(whole.f),
            c: whole.c.min(4),
            k: 8,
        },
        Tile {
            h: 1,
            w: 4,
            f: 1,
            c: 2.min(whole.c),
            k: 8,
        },
    ];
    let mut best = f64::INFINITY;
    for bottom in bottoms {
        for order in &orders {
            for inner in &orders {
                let mut levels: Vec<LevelConfig> = ladder(top, bottom, depth)
                    .into_iter()
                    .enumerate()
                    .map(|(d, tile)| LevelConfig {
                        order: if d == 0 { *order } else { *inner },
                        tile,
                    })
                    .collect();
                // Register level.
                levels.push(LevelConfig {
                    order: *inner,
                    tile: Tile {
                        h: 1,
                        w: 1,
                        f: 1,
                        c: 1,
                        k: 8,
                    },
                });
                let cfg = TilingConfig { levels }.normalize(shape);
                if cfg.validate(shape).is_err() {
                    continue;
                }
                let e = capacity_matched_energy(shape, &cfg, depth);
                best = best.min(e);
            }
        }
    }
    best
}

fn main() {
    let three_d = ConvShape::new_3d(112, 112, 16, 3, 64, 3, 3, 3).with_pad(1, 1);
    let two_d = ConvShape::new_2d(112, 112, 3, 64, 3, 3).with_pad(1, 0);

    let mut rows = Vec::new();
    let base3 = best_energy(&three_d, 1);
    let base2 = best_energy(&two_d, 1);
    for depth in 1..=4 {
        let e3 = best_energy(&three_d, depth);
        let e2 = best_energy(&two_d, depth);
        rows.push(vec![
            depth.to_string(),
            format!("{:.2}", base3 / e3),
            format!("{:.2}", base2 / e2),
        ]);
    }
    print_table(
        "Fig. 5 — energy advantage over a one-level hierarchy",
        &["on-chip levels", "3D conv (x better)", "2D conv (x better)"],
        &rows,
    );
    println!("\nPaper shape: both benefit from ~3 levels; the 3D advantage (paper 7.8x) exceeds the 2D one (paper 3.8x); returns flatten/reverse beyond 3 levels.");
}
