//! Property tests on the traffic engine's invariants, swept over seeded
//! pseudo-random shapes and configurations.

use morph_dataflow::prelude::*;
use morph_dataflow::traffic::{ChainSummaries, DimSummary};
use morph_tensor::prelude::*;
use morph_tensor::rng::XorShift as Rng;

fn arb_shape(rng: &mut Rng) -> ConvShape {
    loop {
        let h = rng.range(2, 12);
        let f = rng.range(1, 6);
        let c = rng.range(1, 8);
        let k = rng.range(1, 24);
        let t = rng.range(1, 3).min(f);
        let stride = rng.range(1, 3);
        let pad = rng.range(0, 2);
        let r = 3.min(h + 2 * pad);
        let sh = ConvShape::new_3d(h, h, f, c, k, r, r, t)
            .with_stride(stride, 1)
            .with_pad(pad, 0);
        if sh.h_padded() >= r && sh.f_padded() >= t {
            return sh;
        }
    }
}

fn arb_config(rng: &mut Rng, shape: &ConvShape) -> TilingConfig {
    let whole = Tile::whole(shape);
    let orders = LoopOrder::all();
    let outer = orders[rng.range(0, orders.len())];
    let inner = orders[rng.range(0, orders.len())];
    let h2 = rng.range(1, whole.h + 1);
    let f2 = rng.range(1, whole.f + 1);
    let c2 = rng.range(1, whole.c + 1);
    let k2 = rng.range(1, whole.k + 1);
    let h0 = rng.range(1, whole.h + 1);
    let k0 = rng.range(1, whole.k + 1);
    let l2 = Tile {
        h: h2,
        w: h2.min(whole.w),
        f: f2,
        c: c2,
        k: k2,
    };
    let l0 = Tile {
        h: h0.min(h2),
        w: h0.min(h2),
        f: 1.max(f2 / 2),
        c: 1.max(c2 / 2),
        k: k0.min(k2),
    };
    TilingConfig::morph(outer, inner, l2, l0, l0, 8).normalize(shape)
}

/// Weights cross the DRAM boundary an integer number of times, at least
/// once; outputs leave exactly once at every boundary; psum refills equal
/// psum spills.
#[test]
fn conservation_laws() {
    let mut rng = Rng::new(0x7AF1);
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_config(&mut rng, &shape);
        let t = layer_traffic(&shape, &cfg);
        assert_eq!(t.maccs, shape.maccs());
        for b in &t.boundaries {
            assert_eq!(b.output_up, shape.output_elems());
            assert_eq!(b.psum_down, b.psum_up);
        }
        let w = t.dram().weight_down;
        assert!(w >= shape.weight_bytes());
        assert_eq!(w % shape.weight_bytes(), 0, "integer weight refetch");
    }
}

/// The untiled (whole-layer) configuration achieves the footprint minimum
/// at DRAM: every byte fetched exactly once, no psum spills.
#[test]
fn whole_tile_is_minimal() {
    let mut rng = Rng::new(0x3A11);
    let orders = LoopOrder::all();
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let outer = orders[rng.range(0, orders.len())];
        let whole = Tile::whole(&shape);
        let cfg = TilingConfig::morph(outer, LoopOrder::base_inner(), whole, whole, whole, 8)
            .normalize(&shape);
        let t = layer_traffic(&shape, &cfg);
        // The fetched footprint is the input region actually covered by
        // output windows (stride can skip edge rows; padding is generated,
        // not fetched).
        let hs = DimSpec::window(shape.h_out(), shape.stride, shape.r, shape.pad, shape.h);
        let ws = DimSpec::window(shape.w_out(), shape.stride, shape.s, shape.pad, shape.w);
        let fs = DimSpec::window(shape.f_out(), shape.stride_f, shape.t, shape.pad_f, shape.f);
        let covered = hs.in_extent_of(0, shape.h_out())
            * ws.in_extent_of(0, shape.w_out())
            * fs.in_extent_of(0, shape.f_out())
            * shape.c as u64;
        assert_eq!(t.dram().input_down, covered);
        assert_eq!(t.dram().weight_down, shape.weight_bytes());
        assert_eq!(t.dram().psum_up, 0);
    }
}

/// Any tiled configuration fetches at least as much as the untiled one at
/// DRAM (tiling can only add refetch and halo).
#[test]
fn tiling_never_reduces_dram() {
    let mut rng = Rng::new(0xD8A0);
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_config(&mut rng, &shape);
        let t = layer_traffic(&shape, &cfg);
        // Padding-clipped inputs can legitimately be below input_bytes only
        // when stride skips rows entirely; guard the common stride-1 case.
        if shape.stride == 1 && shape.pad == 0 {
            assert!(t.dram().input_down >= shape.input_bytes());
        }
        assert!(t.dram().weight_down >= shape.weight_bytes());
    }
}

/// Multicast amortization only ever reduces traffic, never below the
/// per-PE share, and leaves DRAM and register boundaries untouched.
#[test]
fn multicast_is_a_contraction() {
    let mut rng = Rng::new(0x4CA7);
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_config(&mut rng, &shape);
        let hp = rng.range(1, 8);
        let kp = rng.range(1, 8);
        let before = layer_traffic(&shape, &cfg);
        let mut after = before.clone();
        apply_multicast(&mut after, hp, 1, 1, kp);
        assert_eq!(after.boundaries[0], before.boundaries[0]);
        let last = before.boundaries.len() - 1;
        assert_eq!(after.boundaries[last], before.boundaries[last]);
        for (a, b) in after.boundaries.iter().zip(&before.boundaries) {
            assert!(a.input_down <= b.input_down);
            assert!(a.weight_down <= b.weight_down);
            assert!(a.input_down >= b.input_down / kp as u64);
            assert!(a.weight_down >= b.weight_down / hp as u64);
        }
    }
}

/// Compute cycles are bounded below by perfect parallelism and above by
/// fully serial execution.
#[test]
fn cycle_bounds() {
    let mut rng = Rng::new(0xC1C1);
    let arch = ArchSpec::morph();
    let par = Parallelism {
        hp: 4,
        wp: 4,
        kp: 6,
        fp: 1,
    };
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_config(&mut rng, &shape);
        let c = morph_dataflow::perf::compute_cycles(&shape, &cfg, &par, &arch);
        let perfect = shape
            .maccs()
            .div_ceil((par.pes() * arch.vector_width) as u64);
        assert!(c >= perfect, "cycles {c} below perfect {perfect}");
        let serial =
            morph_dataflow::perf::compute_cycles(&shape, &cfg, &Parallelism::serial(), &arch);
        assert!(c <= serial, "parallel {c} slower than serial {serial}");
    }
}

/// Buffer-fit checking accepts minimal tiles for every shape.
#[test]
fn fit_is_monotone() {
    let mut rng = Rng::new(0xF17);
    let arch = ArchSpec::morph();
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        let k = rng.range(1, 8);
        let whole = Tile::whole(&shape);
        let small = Tile {
            h: 1,
            w: 1,
            f: 1,
            c: 1,
            k: k.min(whole.k),
        };
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            small,
            small,
            small,
            8,
        )
        .normalize(&shape);
        assert!(cfg.fits(&shape, &arch).is_ok(), "minimal tiles always fit");
    }
}

/// Tile extents for the kernel oracles: mostly within the extent (with
/// remainders), sometimes larger than it.
fn arb_extent(rng: &mut Rng, extent: usize) -> usize {
    rng.range(1, 2 * extent + 2)
}

/// Unnormalized configurations of 1 to 4 levels whose tiles may exceed
/// the layer and their parents, beside the normalized `arb_config` ones.
fn arb_raw_config(rng: &mut Rng, shape: &ConvShape) -> TilingConfig {
    let levels = (0..rng.range(1, 5))
        .map(|_| arb_level(rng, shape))
        .collect();
    TilingConfig { levels }
}

/// One level in any order whose tile may exceed the layer.
fn arb_level(rng: &mut Rng, shape: &ConvShape) -> LevelConfig {
    let whole = Tile::whole(shape);
    let orders = LoopOrder::all();
    LevelConfig {
        order: orders[rng.range(0, orders.len())],
        tile: Tile {
            h: arb_extent(rng, whole.h),
            w: arb_extent(rng, whole.w),
            f: arb_extent(rng, whole.f),
            c: arb_extent(rng, whole.c),
            k: arb_extent(rng, whole.k),
        },
    }
}

fn arb_any_config(rng: &mut Rng, shape: &ConvShape) -> TilingConfig {
    if rng.range(0, 2) == 0 {
        arb_config(rng, shape)
    } else {
        arb_raw_config(rng, shape)
    }
}

/// A Morph chip with 1 to 6 clusters.
fn arb_arch(rng: &mut Rng) -> ArchSpec {
    ArchSpec {
        clusters: rng.range(1, 7),
        ..ArchSpec::morph()
    }
}

/// The §V-A parallelism candidates of a chip: every `Hp·Wp·Kp·Fp` product
/// over the candidate degrees that fits its PEs.
fn parallelism_set(arch: &ArchSpec) -> Vec<Parallelism> {
    let degrees = [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96];
    let mut out = Vec::new();
    for &hp in &degrees {
        for &wp in &degrees {
            for &kp in &degrees {
                for fp in [1usize, 2, 4, 8, 16] {
                    let p = Parallelism { hp, wp, kp, fp };
                    if p.fits(arch) {
                        out.push(p);
                    }
                }
            }
        }
    }
    out
}

/// Slow reference for `compute_cycles`: per dimension, the PE-level tiles
/// of every L2 piece (from the exact piece list) dealt to the PEs.
fn compute_cycles_ref(
    shape: &ConvShape,
    cfg: &TilingConfig,
    par: &Parallelism,
    arch: &ArchSpec,
) -> u64 {
    let pe_idx = cfg.levels.len().saturating_sub(2);
    let mut rounds = 1u64;
    let mut work = (shape.r * shape.s * shape.t) as u64;
    for d in Dim::ALL {
        let extent = DimSpec::of(shape, d).out_extent;
        let t0 = cfg.levels[pe_idx].tile.extent(d).min(extent).max(1);
        let deg = par.degree(d) as u64;
        let l2 = if pe_idx == 0 {
            extent
        } else {
            cfg.levels[0].tile.extent(d)
        };
        let serial: u64 = DimPieces::build(extent, &[l2])
            .pieces
            .iter()
            .map(|p| (p.size.div_ceil(t0) as u64).div_ceil(deg))
            .sum();
        rounds *= serial.max(1);
        work *= match d {
            Dim::K => t0.div_ceil(arch.vector_width) as u64,
            _ => t0 as u64,
        }
        .max(1);
    }
    rounds * work
}

/// The closed-form serial rounds equal the piece-list sum for every
/// parallelism candidate, on normalized and raw configurations of every
/// depth and on reduced chips.
#[test]
fn closed_form_compute_cycles_matches_piece_sum() {
    let mut rng = Rng::new(0xC10F);
    for _ in 0..96 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_any_config(&mut rng, &shape);
        let arch = arb_arch(&mut rng);
        for par in parallelism_set(&arch) {
            assert_eq!(
                compute_cycles(&shape, &cfg, &par, &arch),
                compute_cycles_ref(&shape, &cfg, &par, &arch),
                "{shape:?} {cfg:?} {par:?}"
            );
        }
    }
}

/// The tabulated argmin picks `min_by_key`'s candidate (the first of the
/// fewest compute cycles) in forward and reversed candidate order.
#[test]
fn tabulated_argmin_matches_min_by_key() {
    let mut rng = Rng::new(0xA4C1);
    for _ in 0..96 {
        let shape = arb_shape(&mut rng);
        let cfg = arb_any_config(&mut rng, &shape);
        let arch = arb_arch(&mut rng);
        let mut pars = parallelism_set(&arch);
        for _ in 0..2 {
            let want = pars
                .iter()
                .map(|p| (*p, compute_cycles_ref(&shape, &cfg, p, &arch)))
                .min_by_key(|&(_, c)| c);
            assert_eq!(best_parallelism(&shape, &cfg, &pars, &arch), want);
            pars.reverse();
        }
    }
    let arch = ArchSpec::morph();
    let shape = arb_shape(&mut rng);
    let cfg = arb_config(&mut rng, &shape);
    assert_eq!(best_parallelism(&shape, &cfg, &[], &arch), None);
}

/// A summary reads exactly what the piece lists compute at every depth of
/// its chain: the count after each level, and the input sums the traffic
/// engine takes of its dimension.
#[test]
fn summaries_match_piece_lists() {
    let mut rng = Rng::new(0x5E4A);
    for _ in 0..128 {
        let shape = arb_shape(&mut rng);
        for d in Dim::ALL {
            let spec = DimSpec::of(&shape, d);
            let levels = rng.range(1, 7);
            let tiles: Vec<usize> = (0..levels)
                .map(|_| arb_extent(&mut rng, spec.out_extent))
                .collect();
            let summary = DimSummary::new(d, &spec, &tiles);
            for depth in 0..levels {
                let pieces = DimPieces::build(spec.out_extent, &tiles[..=depth]);
                assert_eq!(summary.count_at(depth), pieces.count_at(depth));
                for level in 0..=depth {
                    let slide = if d == Dim::C || d == Dim::K {
                        0
                    } else {
                        pieces.input_sum_slide(&spec, level)
                    };
                    let got = summary.input_sum_slide(depth, level);
                    assert_eq!(got, slide, "{d:?} {tiles:?} depth {depth}");
                }
                let full = if d == Dim::K {
                    0
                } else {
                    pieces.input_sum_full(&spec)
                };
                let got = summary.input_sum_full(depth);
                assert_eq!(got, full, "{d:?} {tiles:?} depth {depth}");
            }
        }
    }
}

/// Every boundary scores the same through `layer_traffic` (each
/// dimension summarized once, every boundary from those summaries),
/// `boundary_traffic` (piece lists rebuilt per boundary, the reference)
/// and a `ChainSummaries` holding the chains down to that boundary, on
/// configurations of one to six levels.
#[test]
fn boundary_paths_agree() {
    let mut rng = Rng::new(0xB0DA);
    for _ in 0..256 {
        let shape = arb_shape(&mut rng);
        let mut context = ChainSummaries::new(&shape);
        let mut cfg = arb_any_config(&mut rng, &shape);
        for _ in 0..rng.range(0, 3) {
            cfg.levels.push(arb_level(&mut rng, &shape));
        }
        let whole = layer_traffic(&shape, &cfg);
        assert_eq!(whole.boundaries.len(), cfg.levels.len());
        assert_eq!(whole.maccs, shape.maccs());
        assert_eq!(whole.outputs, shape.output_elems());
        let orders: Vec<LoopOrder> = cfg.levels.iter().map(|l| l.order).collect();
        for (b, got) in whole.boundaries.iter().enumerate() {
            let want = boundary_traffic(&shape, &cfg, b);
            assert_eq!(*got, want, "{shape:?} {cfg:?} boundary {b}");
            let chains = Dim::ALL.map(|d| {
                let tiles: Vec<usize> = cfg.levels[..=b].iter().map(|l| l.tile.extent(d)).collect();
                context.chain(d, &tiles)
            });
            assert_eq!(context.boundary(&orders[..=b], chains), want);
        }
    }
}

/// A chain of 1 to 6 levels below the whole layer in which each level
/// leaves about half the dimensions single-trip (the parent's extent,
/// so the piece count does not grow) and splits the rest, each level in
/// a random order.
fn arb_trip_config(rng: &mut Rng, shape: &ConvShape) -> TilingConfig {
    let orders = LoopOrder::all();
    let mut parent = Tile::whole(shape);
    let levels = (0..rng.range(1, 7))
        .map(|_| {
            let mut tile = parent;
            for d in Dim::ALL {
                let e = parent.extent(d);
                if e > 1 && rng.range(0, 2) == 0 {
                    tile = tile.with_extent(d, rng.range(1, e));
                }
            }
            parent = tile;
            LevelConfig {
                order: orders[rng.range(0, orders.len())],
                tile,
            }
        })
        .collect();
    TilingConfig { levels }
}

/// Which refetch branches a boundary exercises: per data type, `p` is
/// the innermost relevant multi-trip loop, at slot `k` of level `L`; each
/// irrelevant dimension single-trip at `L` is recorded as (`L`, its slot
/// comes before `k`).
fn refetch_branches(cfg: &TilingConfig, shape: &ConvShape, b: usize) -> Vec<(usize, bool)> {
    let counts = Dim::ALL.map(|d| {
        let tiles: Vec<usize> = cfg.levels[..=b].iter().map(|l| l.tile.extent(d)).collect();
        DimPieces::build(DimSpec::of(shape, d).out_extent, &tiles).counts
    });
    let multi = |d: Dim, l: usize| {
        let c = &counts[d as usize];
        c[l] > if l == 0 { 1 } else { c[l - 1] }
    };
    let types: [fn(Dim) -> bool; 3] = [
        Dim::input_relevant,
        Dim::weight_relevant,
        Dim::psum_relevant,
    ];
    let mut out = Vec::new();
    for relevant in types {
        let p = (0..=b).rev().find_map(|l| {
            let order = cfg.levels[l].order.dims();
            (0..5)
                .rev()
                .find(|&k| relevant(order[k]) && multi(order[k], l))
                .map(|k| (l, k))
        });
        if let Some((l, k)) = p {
            for d in Dim::ALL.into_iter().filter(|&d| !relevant(d)) {
                if !multi(d, l) {
                    out.push((l, cfg.levels[l].order.position(d) < k));
                }
            }
        }
    }
    out
}

/// The closed-form rules equal the `boundary_traffic` scan on every
/// boundary of 1–6-level chains whose levels mix single- and multi-trip
/// loops in random orders, so single-trip loops fall before and after
/// `p` at every level (asserted). Each shape's configurations
/// share one `ChainSummaries`, whose whole-layer traffic also equals
/// `layer_traffic` on fresh summaries.
#[test]
fn closed_form_rules_match_the_scan() {
    let mut rng = Rng::new(0xC105);
    let mut branches = std::collections::HashSet::new();
    for _ in 0..64 {
        let shape = arb_shape(&mut rng);
        let mut context = ChainSummaries::new(&shape);
        for _ in 0..8 {
            let cfg = arb_trip_config(&mut rng, &shape);
            let orders: Vec<LoopOrder> = cfg.levels.iter().map(|l| l.order).collect();
            for b in 0..cfg.levels.len() {
                let want = boundary_traffic(&shape, &cfg, b);
                let mut tiles = Vec::new();
                let chains = Dim::ALL.map(|d| {
                    tiles.clear();
                    tiles.extend(cfg.levels[..=b].iter().map(|l| l.tile.extent(d)));
                    context.chain(d, &tiles)
                });
                assert_eq!(
                    context.boundary(&orders[..=b], chains),
                    want,
                    "{shape:?} {cfg:?} boundary {b}"
                );
                branches.extend(refetch_branches(&cfg, &shape, b));
            }
            assert_eq!(context.layer_traffic(&cfg), layer_traffic(&shape, &cfg));
        }
    }
    for level in 0..6 {
        for before in [true, false] {
            assert!(
                branches.contains(&(level, before)),
                "no single-trip loop {} p at level {level}",
                if before { "before" } else { "after" },
            );
        }
    }
}

/// One context returns the same summary for equal chains and builds each
/// distinct chain once, whatever the order of requests.
#[test]
fn chain_summaries_build_each_chain_once() {
    let mut rng = Rng::new(0x5A4E);
    for _ in 0..32 {
        let shape = arb_shape(&mut rng);
        let mut context = ChainSummaries::new(&shape);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..64 {
            let d = Dim::ALL[rng.range(0, 5)];
            let spec = DimSpec::of(&shape, d);
            let tiles: Vec<usize> = (0..rng.range(1, 4))
                .map(|_| rng.range(1, spec.out_extent.min(3) + 1))
                .collect();
            let id = context.chain(d, &tiles);
            assert_eq!(*seen.entry((d, tiles.clone())).or_insert(id), id);
            let fresh = DimSummary::new(d, &spec, &tiles);
            for depth in 0..tiles.len() {
                assert_eq!(context.summary(id).count_at(depth), fresh.count_at(depth));
                assert_eq!(
                    context.summary(id).input_sum_full(depth),
                    fresh.input_sum_full(depth)
                );
            }
        }
        assert_eq!(context.built(), seen.len());
    }
}
