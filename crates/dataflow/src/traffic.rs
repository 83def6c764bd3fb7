//! The generic boundary-traffic engine.
//!
//! For every storage-level boundary (DRAM→L2, L2→L1, L1→L0, L0→registers)
//! this module counts the bytes of each data type crossing the boundary,
//! given the concatenated loop nest of all levels down to the destination.
//!
//! The model implements the paper's §II-E transfer rules exactly:
//!
//! * a data type is (re)loaded at the innermost loop of one of its
//!   *relevant* dimensions — inputs: `W,H,C,F`; filters: `C,K`;
//!   psums: `W,H,K,F`;
//! * loops with a single trip never cause refetches, so a data type that
//!   fits entirely at a level is fetched exactly once (the paper's
//!   Fig. 4a remark);
//! * along the innermost input-relevant sliding dimension, consecutive
//!   tiles fetch only the non-overlapped halo region ("slide reuse");
//! * partial sums spill and refill around any channel loop that iterates
//!   outside a psum-relevant loop, at the §IV-B1 psum width; the final
//!   pass writes requantized outputs at activation width.

use crate::config::TilingConfig;
use crate::pieces::{DimPieces, DimSpec, Piece};
use morph_tensor::hash::FxHashMap;
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::shape::{ConvShape, ACT_BYTES, WGT_BYTES};

/// Bytes crossing one boundary, by data type and direction.
///
/// "Down" is parent→child (toward the ALUs); "up" is child→parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryTraffic {
    /// Input-activation bytes moved down.
    pub input_down: u64,
    /// Weight bytes moved down.
    pub weight_down: u64,
    /// Partial-sum refill bytes moved down (re-reads of spilled psums).
    pub psum_down: u64,
    /// Intermediate partial-sum writeback bytes moved up.
    pub psum_up: u64,
    /// Final output bytes moved up (activation width, once per output).
    pub output_up: u64,
}

impl BoundaryTraffic {
    /// Total bytes crossing the boundary in either direction.
    pub fn total(&self) -> u64 {
        self.input_down + self.weight_down + self.psum_down + self.psum_up + self.output_up
    }

    /// Bytes moved down only.
    pub fn down(&self) -> u64 {
        self.input_down + self.weight_down + self.psum_down
    }

    /// Bytes moved up only.
    pub fn up(&self) -> u64 {
        self.psum_up + self.output_up
    }
}

/// Whole-layer traffic: one [`BoundaryTraffic`] per boundary, outermost
/// (DRAM→first level) first, plus compute counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Per-boundary traffic; `boundaries[0]` is DRAM→L2.
    pub boundaries: Vec<BoundaryTraffic>,
    /// Multiply-accumulate operations.
    pub maccs: u64,
    /// Output elements of the layer.
    pub outputs: u64,
}

impl LayerTraffic {
    /// DRAM boundary traffic.
    pub fn dram(&self) -> &BoundaryTraffic {
        &self.boundaries[0]
    }
}

/// One loop of the concatenated nest: `(level, dim)`.
#[derive(Debug, Clone, Copy)]
struct NestLoop {
    level: usize,
    dim: Dim,
}

/// Position of a dimension in [`Dim::ALL`] (its declaration order).
fn dim_index(d: Dim) -> usize {
    d as usize
}

fn relevant(d: Dim, ty: DataType) -> bool {
    match ty {
        DataType::Input => d.input_relevant(),
        DataType::Weight => d.weight_relevant(),
        DataType::Psum => d.psum_relevant(),
    }
}

/// True for the dimensions whose input fetches can slide (§II-E): the
/// input-relevant windows `W`, `H`, `F` (`C` has no halo to reuse).
fn slides(d: Dim) -> bool {
    d.input_relevant() && d != Dim::C
}

/// Piece counts of `extent` sliced by `tiles`, after each level, counted
/// by piece size: a piece of size `s` cut by `t' = min(t, s)` yields
/// `⌊s/t'⌋` pieces of `t'` and one of `s mod t'`, wherever it starts.
fn channel_counts(extent: usize, tiles: &[usize]) -> Vec<usize> {
    // (size, how many pieces have it), one entry per size.
    let mut classes = vec![(extent, 1)];
    let mut next: Vec<(usize, usize)> = Vec::new();
    tiles
        .iter()
        .map(|&tile| {
            next.clear();
            for &(size, many) in &classes {
                let t = tile.min(size);
                let cuts = [(t, many * (size / t)), (size % t, many)];
                for (size, many) in cuts.into_iter().filter(|&(size, _)| size > 0) {
                    match next.iter_mut().find(|(s, _)| *s == size) {
                        Some((_, n)) => *n += many,
                        None => next.push((size, many)),
                    }
                }
            }
            std::mem::swap(&mut classes, &mut next);
            classes.iter().map(|&(_, many)| many).sum()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataType {
    Input,
    Weight,
    Psum,
}

impl DataType {
    const ALL: [DataType; 3] = [DataType::Input, DataType::Weight, DataType::Psum];
}

/// One dimension's exact pieces, as the reference scan reads them.
struct Exact {
    spec: DimSpec,
    pieces: DimPieces,
}

impl Exact {
    fn count_at(&self, level: usize) -> usize {
        self.pieces.count_at(level)
    }

    /// Σ clipped input extents over the final pieces; with slide reuse
    /// within runs of the loop at `slide` when given.
    fn input_sum(&self, slide: Option<usize>) -> u64 {
        match slide {
            Some(level) => self.pieces.input_sum_slide(&self.spec, level),
            None => self.pieces.input_sum_full(&self.spec),
        }
    }
}

/// Digest of one dimension's tile chain at every depth: everything the
/// traffic engine reads of its [`DimPieces`] at each boundary the chain
/// reaches. Candidates that share a dimension's chain share its summary
/// (see [`ChainSummaries`]), so each chain is summarized once instead of
/// once per candidate and boundary; [`ChainSummaries::boundary`] scores a
/// boundary from five of them.
#[derive(Debug, Clone)]
pub struct DimSummary {
    /// Piece count after nesting levels `0..=j`.
    counts: Vec<usize>,
    /// Per depth `j`: Σ clipped input extents of its pieces.
    full: Vec<u64>,
    /// Per depth `j`, from index `j·(j+1)/2`: the slide sums within runs
    /// of the loop at each level `0..=j`.
    slide: Vec<u64>,
}

impl DimSummary {
    /// Summarize dimension `d`, whose geometry is `spec`
    /// ([`DimSpec::of`]), sliced by `tiles` (outermost first, as in
    /// [`DimPieces::build`]): after nesting levels `0..=j`, the piece
    /// count and the input sums the traffic engine reads of those pieces.
    /// Input sums are taken only where the engine reads them: the full
    /// sum for input-relevant dimensions, the slide sums for the sliding
    /// windows `W`, `H`, `F`; the rest read 0.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`DimPieces::build`] rejects.
    pub fn new(d: Dim, spec: &DimSpec, tiles: &[usize]) -> Self {
        assert!(spec.out_extent >= 1, "dimension extent must be >= 1");
        assert!(tiles.iter().all(|&t| t >= 1), "tile extents must be >= 1");
        if slides(d) {
            return Self::windows(spec, tiles);
        }
        debug_assert_eq!(
            *spec,
            DimSpec::channel(spec.out_extent),
            "{d:?} has no window"
        );
        // `C`'s pieces partition its extent, so their input sum is the
        // extent at every depth; `K` is not input-relevant.
        let full = if d == Dim::C {
            spec.out_extent as u64
        } else {
            0
        };
        let n = tiles.len();
        Self {
            counts: channel_counts(spec.out_extent, tiles),
            full: vec![full; n],
            slide: vec![0; n * (n + 1) / 2],
        }
    }

    /// A sliding window's summary, walking its pieces level by level: its
    /// input sums depend on where each piece starts (edge clipping, runs).
    fn windows(spec: &DimSpec, tiles: &[usize]) -> Self {
        let n = tiles.len();
        let mut out = Self {
            counts: Vec::with_capacity(n),
            full: Vec::with_capacity(n),
            slide: Vec::with_capacity(n * (n + 1) / 2),
        };
        let mut parents = vec![Piece {
            offset: 0,
            size: spec.out_extent,
        }];
        let mut pieces = Vec::new();
        for (j, &tile) in tiles.iter().enumerate() {
            let deepest = j + 1 == n;
            let base = out.slide.len();
            out.slide.resize(base + j + 1, 0);
            let slide = &mut out.slide[base..];
            let (mut count, mut full, mut prev_end) = (0usize, 0u64, 0i64);
            pieces.clear();
            for p in &parents {
                let t = tile.min(p.size);
                let end = p.offset + p.size;
                let mut off = p.offset;
                while off < end {
                    let size = t.min(end - off);
                    let (start, stop) = spec.in_span(off, size);
                    let whole = (stop - start).max(0) as u64;
                    full += whole;
                    // Run starts as in `DimPieces::is_run_start`: the first
                    // piece at run level 0, multiples of the parent level's
                    // tile below it.
                    let fresh = (stop - start.max(prev_end)).max(0) as u64;
                    slide[0] += if count == 0 { whole } else { fresh };
                    for (sum, &parent_tile) in slide[1..].iter_mut().zip(tiles) {
                        *sum += if off.is_multiple_of(parent_tile) {
                            whole
                        } else {
                            fresh
                        };
                    }
                    prev_end = stop;
                    count += 1;
                    if !deepest {
                        pieces.push(Piece { offset: off, size });
                    }
                    off += size;
                }
            }
            out.counts.push(count);
            out.full.push(full);
            std::mem::swap(&mut parents, &mut pieces);
        }
        out
    }

    /// Piece count after nesting levels `0..=level` ([`DimPieces::count_at`]).
    pub fn count_at(&self, level: usize) -> usize {
        self.counts[level]
    }

    /// True when the dimension's loop at `level` has more than one trip:
    /// its piece count grows there (exceeds 1 at level 0). The transfer
    /// rules read only these loops.
    pub fn multi_trip(&self, level: usize) -> bool {
        let parent = if level == 0 {
            1
        } else {
            self.counts[level - 1]
        };
        self.counts[level] > parent
    }

    /// [`DimPieces::input_sum_full`] of the pieces after nesting levels
    /// `0..=depth` (0 for `K`).
    pub fn input_sum_full(&self, depth: usize) -> u64 {
        self.full[depth]
    }

    /// [`DimPieces::input_sum_slide`] at `run_level` of the pieces after
    /// nesting levels `0..=depth` (0 for `C` and `K`).
    pub fn input_sum_slide(&self, depth: usize, run_level: usize) -> u64 {
        self.slide[depth * (depth + 1) / 2..][..=depth][run_level]
    }
}

/// A dimension's tile chain summarized in a [`ChainSummaries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainId(usize);

/// One layer shape's chain summaries, each built on first request, and
/// the shape constants the transfer rules read. A chain is one
/// dimension's tile extents from the outermost level down to the level
/// being scored, of any length; equal chains share one [`DimSummary`],
/// so every boundary scored through this context summarizes each
/// distinct chain once. [`layer_traffic`] scores through the same rules
/// without the memo.
#[derive(Debug)]
pub struct ChainSummaries {
    shape: ConvShape,
    specs: [DimSpec; 5],
    outputs: u64,
    psum_bytes: u64,
    weight_elems: u64,
    maccs: u64,
    /// Per dimension: each summarized chain's index in `summaries`.
    index: [FxHashMap<Vec<usize>, usize>; 5],
    summaries: Vec<DimSummary>,
    /// Scratch chain for [`ChainSummaries::layer_traffic`].
    chain: Vec<usize>,
}

impl ChainSummaries {
    /// An empty context for `shape`.
    pub fn new(shape: &ConvShape) -> Self {
        Self {
            shape: *shape,
            specs: Dim::ALL.map(|d| DimSpec::of(shape, d)),
            outputs: shape.output_elems(),
            psum_bytes: shape.psum_bytes(),
            weight_elems: shape.weight_elems(),
            maccs: shape.maccs(),
            index: Default::default(),
            summaries: Vec::new(),
            chain: Vec::new(),
        }
    }

    /// The layer shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The layer's multiply-accumulate count.
    pub fn maccs(&self) -> u64 {
        self.maccs
    }

    /// How many summaries this context has built (one per distinct
    /// chain requested).
    pub fn built(&self) -> usize {
        self.summaries.len()
    }

    /// Dimension `d`'s chain sliced by `tiles` (outermost first), built
    /// on its first request.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`DimSummary::new`] rejects.
    pub fn chain(&mut self, d: Dim, tiles: &[usize]) -> ChainId {
        let index = &mut self.index[dim_index(d)];
        if let Some(&i) = index.get(tiles) {
            return ChainId(i);
        }
        let i = self.summaries.len();
        self.summaries
            .push(DimSummary::new(d, &self.specs[dim_index(d)], tiles));
        index.insert(tiles.to_vec(), i);
        ChainId(i)
    }

    /// The summary of a chain.
    pub fn summary(&self, chain: ChainId) -> &DimSummary {
        &self.summaries[chain.0]
    }

    /// The dimensions (bit `1 << d as usize`) whose loop at `level` has
    /// more than one trip ([`DimSummary::multi_trip`]) in `chains` (in
    /// [`Dim::ALL`] order).
    pub fn multi_trip(&self, chains: [ChainId; 5], level: usize) -> u8 {
        Dim::ALL
            .iter()
            .zip(chains)
            .filter(|(_, c)| self.summary(*c).multi_trip(level))
            .fold(0, |mask, (&d, _)| mask | 1 << d as usize)
    }

    /// [`boundary_traffic`] from the summarized `chains` (in [`Dim::ALL`]
    /// order): the boundary into the deepest of `orders.len()` levels,
    /// each level's loops in its order.
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or longer than a chain.
    pub fn boundary(&self, orders: &[LoopOrder], chains: [ChainId; 5]) -> BoundaryTraffic {
        self.rules(orders, chains.map(|c| self.summary(c)))
    }

    /// [`layer_traffic`] with each dimension's chain drawn from this
    /// context.
    pub fn layer_traffic(&mut self, cfg: &TilingConfig) -> LayerTraffic {
        let mut tiles = std::mem::take(&mut self.chain);
        let chains = Dim::ALL.map(|d| {
            tiles.clear();
            tiles.extend(cfg.levels.iter().map(|l| l.tile.extent(d)));
            self.chain(d, &tiles)
        });
        self.chain = tiles;
        self.layer(cfg, chains.map(|c| self.summary(c)))
    }

    /// Every boundary of `cfg`, scored from its five chains' summaries.
    fn layer(&self, cfg: &TilingConfig, dims: [&DimSummary; 5]) -> LayerTraffic {
        let orders: Vec<LoopOrder> = cfg.levels.iter().map(|l| l.order).collect();
        LayerTraffic {
            boundaries: (1..=orders.len())
                .map(|n| self.rules(&orders[..n], dims))
                .collect(),
            maccs: self.maccs,
            outputs: self.outputs,
        }
    }

    /// The transfer rules in closed form on the nest of `orders.len()`
    /// levels, reading `dims` at the deepest.
    ///
    /// Per data type, `p` is the innermost relevant multi-trip loop, at
    /// slot `k` of level `L`. An irrelevant dimension's deepest loop
    /// before `p` is at level `L` when it comes before slot `k` in level
    /// `L`'s order, else at level `L − 1` (none when `L = 0`), and its
    /// piece count there is its refetch factor. [`nest_traffic`] is the
    /// scan this evaluates directly.
    fn rules(&self, orders: &[LoopOrder], dims: [&DimSummary; 5]) -> BoundaryTraffic {
        let depth = orders.len().checked_sub(1).expect("at least one level");
        // `p` per data type, walking the nest inward from its last loop.
        let mut p = [None; 3];
        'levels: for level in (0..=depth).rev() {
            let order = orders[level].dims();
            for slot in (0..5).rev() {
                let d = order[slot];
                if !dims[dim_index(d)].multi_trip(level) {
                    continue;
                }
                for (found, ty) in p.iter_mut().zip(DataType::ALL) {
                    if found.is_none() && relevant(d, ty) {
                        *found = Some((level, slot));
                    }
                }
                if p.iter().all(Option::is_some) {
                    break 'levels;
                }
            }
        }
        // Piece count at `d`'s deepest loop before `p` (1 when none).
        let before = |d: Dim, p: Option<(usize, usize)>| -> u64 {
            let level = match p {
                Some((level, slot)) if orders[level].position(d) < slot => level,
                Some((level, _)) if level > 0 => level - 1,
                _ => return 1,
            };
            dims[dim_index(d)].count_at(level) as u64
        };
        let [p_in, p_w, p_ps] = p;

        // Inputs slide along `p`'s loop, when it is a sliding window.
        let slide = p_in.map(|(level, slot)| (level, orders[level].dims()[slot]));
        let mut input_down = before(Dim::K, p_in) * ACT_BYTES;
        for d in [Dim::W, Dim::H, Dim::F, Dim::C] {
            let summary = dims[dim_index(d)];
            input_down *= match slide {
                Some((level, at)) if at == d && slides(d) => summary.input_sum_slide(depth, level),
                _ => summary.input_sum_full(depth),
            };
        }
        let weight_down = before(Dim::W, p_w)
            * before(Dim::H, p_w)
            * before(Dim::F, p_w)
            * self.weight_elems
            * WGT_BYTES;
        let spill = (before(Dim::C, p_ps) - 1) * self.outputs * self.psum_bytes;
        BoundaryTraffic {
            input_down,
            weight_down,
            psum_down: spill,
            psum_up: spill,
            output_up: self.outputs * ACT_BYTES,
        }
    }
}

/// Collapse broadcast-shareable transfers under spatial PE parallelism.
///
/// When `P` parallel PEs concurrently work on tiles that differ only in a
/// dimension irrelevant to a data type (e.g. `Kp` PEs sharing one input,
/// or `Hp·Wp·Fp` PEs sharing one filter), the broadcast NoC delivers the
/// data once (§IV-A4). The sequential traffic engine counts those as
/// separate loads; this pass divides the affected boundary transfers
/// (every on-chip boundary below DRAM and above the registers) by the
/// sharing degree.
pub fn apply_multicast(traffic: &mut LayerTraffic, hp: usize, wp: usize, fp: usize, kp: usize) {
    let n = traffic.boundaries.len();
    if n < 3 {
        return;
    }
    let input_share = kp.max(1) as u64;
    let weight_share = (hp.max(1) * wp.max(1) * fp.max(1)) as u64;
    for b in &mut traffic.boundaries[1..n - 1] {
        b.input_down = b.input_down.div_ceil(input_share);
        b.weight_down = b.weight_down.div_ceil(weight_share);
    }
}

/// Compute the full multi-level traffic of a layer under a configuration.
///
/// The configuration should be geometrically valid (see
/// [`TilingConfig::validate`]); call [`TilingConfig::normalize`] first for
/// arbitrary candidates.
///
/// Each dimension's tile chain is summarized once, at every depth, and
/// every boundary is scored from the five summaries by the rules
/// [`ChainSummaries::layer_traffic`] uses.
pub fn layer_traffic(shape: &ConvShape, cfg: &TilingConfig) -> LayerTraffic {
    let context = ChainSummaries::new(shape);
    let mut tiles = Vec::with_capacity(cfg.levels.len());
    let dims = Dim::ALL.map(|d| {
        tiles.clear();
        tiles.extend(cfg.levels.iter().map(|l| l.tile.extent(d)));
        DimSummary::new(d, &context.specs[dim_index(d)], &tiles)
    });
    context.layer(cfg, dims.each_ref())
}

/// The traffic of one boundary of [`layer_traffic`]: into level `b` of
/// `cfg` (`b == 0` is DRAM→L2). Only levels `0..=b` are read; each
/// dimension's pieces are rebuilt from [`DimPieces`] and the nest is
/// scanned loop by loop, so this is the independent reference the
/// closed-form rules are checked against.
pub fn boundary_traffic(shape: &ConvShape, cfg: &TilingConfig, b: usize) -> BoundaryTraffic {
    let levels = &cfg.levels[..=b];
    let mut tiles = Vec::with_capacity(levels.len());
    let dims = Dim::ALL.map(|d| {
        let spec = DimSpec::of(shape, d);
        tiles.clear();
        tiles.extend(levels.iter().map(|l| l.tile.extent(d)));
        Exact {
            pieces: DimPieces::build(spec.out_extent, &tiles),
            spec,
        }
    });
    let orders: Vec<LoopOrder> = levels.iter().map(|l| l.order).collect();
    nest_traffic(shape, &orders, &dims)
}

/// The transfer rules by scanning the concatenated nest of `orders.len()`
/// levels (each level's five loops in its order, outermost level first),
/// reading each dimension's exact pieces at that depth.
fn nest_traffic(shape: &ConvShape, orders: &[LoopOrder], dims: &[Exact; 5]) -> BoundaryTraffic {
    let nest_len = 5 * orders.len();
    let nest = |i: usize| NestLoop {
        level: i / 5,
        dim: orders[i / 5].dims()[i % 5],
    };
    let count_at = |d: Dim, lvl: usize| dims[dim_index(d)].count_at(lvl);
    let multi_trip = |nl: NestLoop| {
        let prev = if nl.level == 0 {
            1
        } else {
            count_at(nl.dim, nl.level - 1)
        };
        count_at(nl.dim, nl.level) > prev
    };

    // Innermost relevant loop with >1 trips, per data type.
    let find_p = |ty: DataType| {
        (0..nest_len).rev().find(|&i| {
            let nl = nest(i);
            relevant(nl.dim, ty) && multi_trip(nl)
        })
    };
    // Refetch multiplier: product over irrelevant dims of the piece
    // count at their deepest loop outside position p.
    let refetch = |ty: DataType, p: Option<usize>| -> u64 {
        let limit = p.unwrap_or(0);
        let mut mult = 1u64;
        for d in Dim::ALL {
            if relevant(d, ty) {
                continue;
            }
            let deepest = (0..limit)
                .map(nest)
                .filter(|nl| nl.dim == d)
                .map(|nl| nl.level)
                .max();
            if let Some(lvl) = deepest {
                mult *= count_at(d, lvl) as u64;
            }
        }
        mult
    };

    let outputs = shape.output_elems();
    let psum_bytes = shape.psum_bytes();

    // ---- Inputs ----
    let p_in = find_p(DataType::Input);
    let slide = p_in.map(nest);
    let input_down = {
        let mult = refetch(DataType::Input, p_in);
        let mut bytes = mult * ACT_BYTES;
        for d in [Dim::W, Dim::H, Dim::F, Dim::C] {
            let run_level = match slide {
                Some(nl) if nl.dim == d && slides(d) => Some(nl.level),
                _ => None,
            };
            bytes *= dims[dim_index(d)].input_sum(run_level);
        }
        bytes
    };

    // ---- Weights ----
    let p_w = find_p(DataType::Weight);
    let weight_down = refetch(DataType::Weight, p_w)
        * (shape.k * shape.c * shape.r * shape.s * shape.t) as u64
        * WGT_BYTES;

    // ---- Psums ----
    let p_ps = find_p(DataType::Psum);
    let rho = refetch(DataType::Psum, p_ps);
    let psum_down = (rho - 1) * outputs * psum_bytes;
    let psum_up = (rho - 1) * outputs * psum_bytes;
    let output_up = outputs * ACT_BYTES;

    BoundaryTraffic {
        input_down,
        weight_down,
        psum_down,
        psum_up,
        output_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_tensor::order::LoopOrder;
    use morph_tensor::tiled::Tile;

    /// A small layer where everything is easy to reason about:
    /// 8×8 output, 4 frames out, C=4, K=8, 3×3×3 filter, stride 1, no pad.
    fn layer() -> ConvShape {
        ConvShape::new_3d(10, 10, 6, 4, 8, 3, 3, 3)
    }

    fn single_level(order: &str, tile: Tile) -> TilingConfig {
        TilingConfig {
            levels: vec![crate::config::LevelConfig {
                order: order.parse().unwrap(),
                tile,
            }],
        }
    }

    #[test]
    fn untiled_layer_fetched_once() {
        let sh = layer();
        let cfg = single_level("WHCKF", Tile::whole(&sh));
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().input_down, sh.input_bytes());
        assert_eq!(t.dram().weight_down, sh.weight_bytes());
        assert_eq!(t.dram().psum_down, 0);
        assert_eq!(t.dram().psum_up, 0);
        assert_eq!(t.dram().output_up, sh.output_bytes());
        assert_eq!(t.maccs, sh.maccs());
    }

    #[test]
    fn k_tiling_alone_keeps_inputs_resident() {
        // Split K in 2 with K outermost but the whole input as one tile:
        // the input tile stays resident across K iterations (the paper's
        // Fig. 4a remark about non-refetching redundant tiles).
        let sh = layer();
        let tile = Tile::whole(&sh).with_extent(Dim::K, 4);
        let cfg = single_level("KWHCF", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().input_down, sh.input_bytes());
        assert_eq!(t.dram().weight_down, sh.weight_bytes());
        assert_eq!(t.dram().psum_up, 0);
    }

    #[test]
    fn k_outside_tiled_inputs_refetches() {
        // Split K in 2 *and* H in 4 with K outermost: every K iteration
        // re-streams the input tiles (H-slide reuse inside each pass).
        let sh = layer();
        let tile = Tile::whole(&sh)
            .with_extent(Dim::K, 4)
            .with_extent(Dim::H, 2);
        let cfg = single_level("KWCFH", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().input_down, 2 * sh.input_bytes());
        assert_eq!(t.dram().weight_down, sh.weight_bytes());
    }

    #[test]
    fn k_innermost_avoids_input_refetch() {
        // Same K split but K innermost: the input tile (whole input) stays
        // resident; weights stream per input visit (once) — everything
        // fetched exactly once.
        let sh = layer();
        let tile = Tile::whole(&sh).with_extent(Dim::K, 4);
        let cfg = single_level("WHCFK", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().input_down, sh.input_bytes());
        assert_eq!(t.dram().weight_down, sh.weight_bytes());
    }

    #[test]
    fn h_tiling_with_halo_and_slide() {
        // Tile H (outputs 8) into 4 tiles of 2; H innermost → slide reuse
        // makes input fetch equal the whole input exactly once.
        let sh = layer();
        let tile = Tile::whole(&sh).with_extent(Dim::H, 2);
        let cfg = single_level("WCKFH", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().input_down, sh.input_bytes());

        // H outermost with W also tiled inside: W becomes the sliding
        // dimension and the H halo is re-fetched per H tile: each H tile
        // covers (2−1)+3 = 4 rows of 10 → 16 rows total.
        let tile2 = tile.with_extent(Dim::W, 2);
        let cfg2 = single_level("HWCKF", tile2);
        let t2 = layer_traffic(&sh, &cfg2);
        assert_eq!(t2.dram().input_down, sh.input_bytes() * 16 / 10);
    }

    #[test]
    fn weight_refetch_per_spatial_tile() {
        // W tiled in 5, order [WHCKF]: weights reload for every W tile
        // (K's innermost multi-trip loop is outside ... W outside K).
        let sh = layer();
        let tile = Tile::whole(&sh)
            .with_extent(Dim::W, 2)
            .with_extent(Dim::K, 4);
        let cfg = single_level("WHCKF", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().weight_down, 4 * sh.weight_bytes());
    }

    #[test]
    fn c_tiling_alone_accumulates_in_place() {
        // C split with C outermost but the whole output resident: psums
        // accumulate in place, no spill.
        let sh = layer();
        let tile = Tile::whole(&sh).with_extent(Dim::C, 1);
        let cfg = single_level("CWHKF", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().psum_up, 0);
        assert_eq!(t.dram().output_up, sh.output_elems());
    }

    #[test]
    fn c_outside_tiled_psums_spills() {
        // C split in 4 outside a tiled H loop: each output tile round-trips
        // once per extra C iteration at full psum width.
        let sh = layer();
        let tile = Tile::whole(&sh)
            .with_extent(Dim::C, 1)
            .with_extent(Dim::H, 2);
        let cfg = single_level("CWKFH", tile);
        let t = layer_traffic(&sh, &cfg);
        let out = sh.output_elems();
        assert_eq!(t.dram().psum_up, 3 * out * sh.psum_bytes());
        assert_eq!(t.dram().psum_down, 3 * out * sh.psum_bytes());
        assert_eq!(t.dram().output_up, out);
    }

    #[test]
    fn c_innermost_never_spills() {
        let sh = layer();
        let tile = Tile::whole(&sh).with_extent(Dim::C, 1);
        let cfg = single_level("WHKFC", tile);
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.dram().psum_up, 0);
        assert_eq!(t.dram().psum_down, 0);
    }

    #[test]
    fn two_level_reuse_extends_across_outer_steps() {
        // L2 holds the whole input (trips 1 in all input dims at L2);
        // outer K tiling must not force L1 input refetches beyond its own
        // inner loops, because residency carries across outer steps.
        let sh = layer();
        let l2 = Tile::whole(&sh).with_extent(Dim::K, 2);
        let l1 = Tile::whole(&sh).with_extent(Dim::K, 2); // L1 holds whole input too
        let cfg = TilingConfig {
            levels: vec![
                crate::config::LevelConfig {
                    order: "WHCFK".parse().unwrap(),
                    tile: l2,
                },
                crate::config::LevelConfig {
                    order: "whcfk".parse().unwrap(),
                    tile: l1,
                },
            ],
        };
        let t = layer_traffic(&sh, &cfg);
        // Inputs cross each boundary exactly once.
        assert_eq!(t.boundaries[0].input_down, sh.input_bytes());
        assert_eq!(t.boundaries[1].input_down, sh.input_bytes());
    }

    #[test]
    fn inner_tiling_multiplies_l1_traffic_not_dram() {
        // L2 = whole layer; L1 tiles H and K with k outermost at the inner
        // level: each of the 4 K tiles re-streams the inputs into L1
        // (H-slide reuse makes one stream equal the input footprint), but
        // DRAM sees the inputs exactly once.
        let sh = layer();
        let l1 = Tile::whole(&sh)
            .with_extent(Dim::K, 2)
            .with_extent(Dim::H, 2);
        let cfg = TilingConfig {
            levels: vec![
                crate::config::LevelConfig {
                    order: "WHCKF".parse().unwrap(),
                    tile: Tile::whole(&sh),
                },
                crate::config::LevelConfig {
                    order: "kwcfh".parse().unwrap(),
                    tile: l1,
                },
            ],
        };
        let t = layer_traffic(&sh, &cfg);
        assert_eq!(t.boundaries[0].input_down, sh.input_bytes());
        assert_eq!(t.boundaries[1].input_down, 4 * sh.input_bytes());
    }

    #[test]
    fn reg_level_counts_alu_feeds() {
        // Full Morph-style 4-level config on a tiny layer: the register
        // boundary's weight traffic is bounded by MACC count and its input
        // traffic is amortized by k-innermost reuse.
        let sh = ConvShape::new_3d(6, 6, 4, 4, 64, 3, 3, 3);
        let whole = Tile::whole(&sh);
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            whole,
            whole,
            whole,
            8,
        )
        .normalize(&sh);
        let t = layer_traffic(&sh, &cfg);
        let reg = t.boundaries.last().unwrap();
        assert!(reg.weight_down <= t.maccs);
        assert!(reg.input_down < reg.weight_down);
        assert!(reg.weight_down >= sh.weight_bytes());
    }

    #[test]
    fn stride_reduces_input_slide_reuse() {
        // Stride-2 halves window overlap; fetched bytes stay bounded by
        // the (clipped) input and above the no-halo minimum.
        let sh = ConvShape::new_2d(16, 16, 2, 4, 3, 3).with_stride(2, 1);
        let tile = Tile::whole(&sh).with_extent(Dim::H, 2);
        let cfg = single_level("WCKFH", tile);
        let t = layer_traffic(&sh, &cfg);
        assert!(t.dram().input_down <= sh.input_bytes());
        assert!(t.dram().input_down >= sh.input_bytes() / 2);
    }
}
