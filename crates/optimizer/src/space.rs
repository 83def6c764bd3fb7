//! Configuration-space enumeration (§V-A).
//!
//! The optimizer enumerates outer/inner loop orders, last-level (L2) tile
//! sizes and PE-parallelism choices, then takes their cartesian product.
//! To keep the search tractable the paper discretizes tile sizes and we
//! additionally canonicalize loop orders: dimensions with a single trip at
//! a level cannot affect traffic, so orders differing only in their
//! placement are equivalent.

use morph_dataflow::arch::ArchSpec;
use morph_dataflow::perf::Parallelism;
use morph_tensor::hash::FxHashSet;
use morph_tensor::order::LoopOrder;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// How hard to search (§V-A: "the search space can be discretized").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Coarse discretization; suitable for 50+-layer networks.
    Fast,
    /// Dense tile grid and all canonical loop orders.
    Thorough,
}

/// Candidate extents for one dimension: the extent itself plus halvings
/// and a few canonical sizes, deduplicated and clamped.
fn extent_candidates(extent: usize, effort: Effort) -> Vec<usize> {
    let mut cands = vec![extent, extent.div_ceil(2)];
    match effort {
        Effort::Fast => {
            for c in [8usize, 32] {
                if c < extent {
                    cands.push(c);
                }
            }
        }
        Effort::Thorough => {
            cands.push(extent.div_ceil(4));
            for c in [1usize, 2, 4, 8, 16, 32, 64, 128] {
                if c < extent {
                    cands.push(c);
                }
            }
        }
    }
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// Enumerate L2 tile candidates for a layer, pruned to tiles that fit the
/// L2 budget (checked with the banked-fit rule; the caller re-checks with
/// its own policy). Spatial tiles keep `W = H` (all evaluated networks are
/// square), halving the dimensionality as the paper's discretization does.
pub fn l2_tile_candidates(shape: &ConvShape, arch: &ArchSpec, effort: Effort) -> Vec<Tile> {
    let budget = arch.tile_budget_bytes(morph_dataflow::arch::OnChipLevel::L2) as u64;
    let hs = extent_candidates(shape.h_out(), effort);
    let fs = extent_candidates(shape.f_out(), effort);
    let cs = extent_candidates(shape.c, effort);
    let ks = extent_candidates(shape.k, effort);
    let mut out = Vec::new();
    for &h in &hs {
        // Keep W tied to H except for strongly rectangular outputs.
        let w = h.min(shape.w_out());
        for &f in &fs {
            for &c in &cs {
                for &k in &ks {
                    let tile = Tile { h, w, f, c, k };
                    let bytes = morph_dataflow::config::tile_bytes(shape, &tile);
                    if bytes.total() <= budget {
                        out.push(tile);
                    }
                }
            }
        }
    }
    // Prefer large tiles first: better reuse candidates surface early.
    out.sort_by_key(|t| std::cmp::Reverse(t.h * t.w * t.f * t.c * t.k));
    out
}

/// Canonical signature of a loop order at one level: the subsequence of
/// its dimensions whose bit (`1 << d as usize`) is set in `multi_trip`,
/// the dimensions whose loop has more than one trip there, packed three
/// bits per dimension (`d as u16 + 1`), outermost in the high bits.
/// Single-trip loops never refetch (§II-E), so orders with equal
/// signatures at every level produce identical traffic.
pub fn order_signature(order: LoopOrder, multi_trip: u8) -> u16 {
    order
        .dims()
        .into_iter()
        .filter(|&d| multi_trip & (1 << d as usize) != 0)
        .fold(0, |sig, d| sig << 3 | (d as u16 + 1))
}

/// Deduplicate loop orders by their [`order_signature`] over the
/// `multi_trip` dimensions of the level they run. The first order of
/// each class is kept.
pub fn dedup_orders(orders: &[LoopOrder], multi_trip: u8) -> Vec<LoopOrder> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for &o in orders {
        if seen.insert(order_signature(o, multi_trip)) {
            out.push(o);
        }
    }
    out
}

/// The inner-order candidate set: the paper's three reference inner orders
/// (§III-B) plus a spread of qualitatively distinct orders.
pub fn inner_order_candidates(effort: Effort) -> Vec<LoopOrder> {
    let fast = [
        "cfwhk", "kfwhc", "whkfc", "cfkwh", "kcfwh", "whckf", "fwhck", "ckfwh",
    ];
    match effort {
        Effort::Fast => fast.iter().map(|s| s.parse().unwrap()).collect(),
        Effort::Thorough => LoopOrder::all(),
    }
}

/// The outer-order candidate set.
pub fn outer_order_candidates(effort: Effort) -> Vec<LoopOrder> {
    let fast = [
        "WHCKF", "KWHCF", "WFHCK", "CKWHF", "KWFHC", "WFKHC", "FWHCK", "WHCFK",
    ];
    match effort {
        Effort::Fast => fast.iter().map(|s| s.parse().unwrap()).collect(),
        Effort::Thorough => LoopOrder::all(),
    }
}

/// Parallelism candidates filling the chip to varying degrees across
/// `Hp`/`Wp`/`Kp`/`Fp` (§II-F, §V-A).
pub fn parallelism_candidates(arch: &ArchSpec) -> Vec<Parallelism> {
    let total = arch.total_pes();
    let degrees = [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96];
    let mut out = Vec::new();
    for &hp in &degrees {
        for &wp in &degrees {
            if hp * wp > total {
                continue;
            }
            for &kp in &degrees {
                if hp * wp * kp > total {
                    continue;
                }
                for fp in [1usize, 2, 4, 8, 16] {
                    let p = Parallelism { hp, wp, kp, fp };
                    if p.pes() <= total {
                        out.push(p);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_dataflow::traffic::ChainSummaries;
    use morph_tensor::order::Dim;

    fn layer() -> ConvShape {
        ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1)
    }

    #[test]
    fn tile_candidates_fit_budget() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let tiles = l2_tile_candidates(&sh, &arch, Effort::Fast);
        assert!(!tiles.is_empty());
        let budget = arch.tile_budget_bytes(morph_dataflow::arch::OnChipLevel::L2) as u64;
        for t in &tiles {
            assert!(morph_dataflow::config::tile_bytes(&sh, t).total() <= budget);
        }
    }

    #[test]
    fn thorough_has_more_candidates() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let fast = l2_tile_candidates(&sh, &arch, Effort::Fast).len();
        let thorough = l2_tile_candidates(&sh, &arch, Effort::Thorough).len();
        assert!(thorough > fast);
    }

    /// The subsequence of `order`'s dimensions tiled below the layer:
    /// the signature as a list, the reference for the packed form.
    fn signature_list(order: LoopOrder, shape: &ConvShape, tile: &Tile) -> Vec<Dim> {
        let whole = Tile::whole(shape);
        order
            .dims()
            .into_iter()
            .filter(|&d| tile.extent(d) < whole.extent(d))
            .collect()
    }

    /// The multi-trip mask of `tile` at the outermost level, from its
    /// one-level chain summaries as the search takes it, checked against
    /// the dimensions the tile splits.
    fn outer_mask(shape: &ConvShape, tile: &Tile) -> u8 {
        let mut chains = ChainSummaries::new(shape);
        let ids = Dim::ALL.map(|d| chains.chain(d, &[tile.extent(d)]));
        let whole = Tile::whole(shape);
        let tiled = Dim::ALL
            .into_iter()
            .filter(|&d| tile.extent(d) < whole.extent(d))
            .fold(0, |mask, d| mask | 1 << d as usize);
        assert_eq!(chains.multi_trip(ids, 0), tiled, "{tile:?}");
        tiled
    }

    /// Orders collapse by the dimensions their tile splits. The packed
    /// signature partitions all 120 orders exactly as the list form does,
    /// on hand-picked and random tiles, and `dedup_orders` keeps the first
    /// order of each class.
    #[test]
    fn signature_collapses_untiled_dims() {
        let sh = layer();
        let whole = Tile::whole(&sh);
        // Untiled tile: every order has the empty signature.
        let orders = LoopOrder::all();
        let dedup = dedup_orders(&orders, outer_mask(&sh, &whole));
        assert_eq!(dedup.len(), 1);
        // Tiling only K: orders differ only in K's relative position among
        // multi-trip dims → exactly one class again (only K multi-trip).
        let kt = whole.with_extent(Dim::K, 64);
        let dedup_k = dedup_orders(&orders, outer_mask(&sh, &kt));
        assert_eq!(dedup_k.len(), 1);
        // Tiling K and C: 2 distinct relative orders.
        let kc = kt.with_extent(Dim::C, 32);
        let dedup_kc = dedup_orders(&orders, outer_mask(&sh, &kc));
        assert_eq!(dedup_kc.len(), 2);

        let mut rng = morph_tensor::rng::XorShift::new(0x516E);
        let mut tiles = vec![whole, kt, kc];
        for _ in 0..32 {
            let mut t = whole;
            for d in Dim::ALL {
                t = t.with_extent(d, rng.range(1, whole.extent(d) + 1));
            }
            tiles.push(t);
        }
        for tile in &tiles {
            let tiled = outer_mask(&sh, tile);
            for a in &orders {
                for b in &orders {
                    assert_eq!(
                        order_signature(*a, tiled) == order_signature(*b, tiled),
                        signature_list(*a, &sh, tile) == signature_list(*b, &sh, tile),
                        "{a} {b} {tile:?}"
                    );
                }
            }
            let mut want: Vec<LoopOrder> = Vec::new();
            for &o in &orders {
                let sig = signature_list(o, &sh, tile);
                if want.iter().all(|&w| signature_list(w, &sh, tile) != sig) {
                    want.push(o);
                }
            }
            assert_eq!(dedup_orders(&orders, tiled), want, "{tile:?}");
        }
    }

    #[test]
    fn parallelism_candidates_fill_chip() {
        let arch = ArchSpec::morph();
        let ps = parallelism_candidates(&arch);
        assert!(!ps.is_empty());
        for p in &ps {
            assert!(p.fits(&arch));
        }
        // Small degrees exist for small layer grids, and full-chip ones too.
        assert!(ps.iter().any(|p| p.pes() == arch.total_pes()));
        assert!(ps.iter().any(|p| p.pes() <= 4));
        // The paper's Table III style Kp·Vw ∈ {8, 16} shapes must exist.
        assert!(ps.iter().any(|p| p.kp == 1));
        assert!(ps.iter().any(|p| p.kp == 2));
    }

    #[test]
    fn candidate_extents_cover_extremes() {
        let c = extent_candidates(112, Effort::Thorough);
        assert!(c.contains(&112) && c.contains(&1));
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }
}
