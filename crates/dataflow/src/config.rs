//! Per-layer dataflow configuration: loop orders + tile sizes per level.
//!
//! A [`TilingConfig`] holds one [`LevelConfig`] per storage level between
//! DRAM and the ALUs, outermost first. For the Morph three-level hierarchy
//! that is `[L2, L1, L0, REG]`, where the register level is the PE's
//! operand/accumulator registers (vector width `Vw` across output
//! channels, §IV-A2). Fewer or more levels are supported for the Fig. 5
//! hierarchy-depth sweep.

use crate::arch::{ArchSpec, OnChipLevel};
use crate::pieces::DimSpec;
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// Loop order and tile extents at one storage level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Traversal order of this level's tiles within the parent tile.
    pub order: LoopOrder,
    /// Tile extents (output coordinates for `H`/`W`/`F`).
    pub tile: Tile,
}

/// A complete multi-level dataflow configuration for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilingConfig {
    /// Levels, outermost (below DRAM) first. The last entry is the
    /// register level for standard Morph configs.
    pub levels: Vec<LevelConfig>,
}

/// Per-data-type byte footprint of a tile (used for buffer-fit checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBytes {
    /// Input activations, nominal input-coordinate extents (worst case).
    pub input: u64,
    /// Filter weights.
    pub weight: u64,
    /// Partial sums at full precision.
    pub psum: u64,
}

impl TileBytes {
    /// Total bytes across the three data types.
    pub fn total(&self) -> u64 {
        self.input + self.weight + self.psum
    }
}

/// Compute the nominal byte footprint of a tile of `shape`.
pub fn tile_bytes(shape: &ConvShape, tile: &Tile) -> TileBytes {
    let hs = DimSpec::of(shape, Dim::H);
    let ws = DimSpec::of(shape, Dim::W);
    let fs = DimSpec::of(shape, Dim::F);
    let input = hs.nominal_in_extent(tile.h)
        * ws.nominal_in_extent(tile.w)
        * fs.nominal_in_extent(tile.f)
        * tile.c as u64;
    let weight = (tile.k * tile.c * shape.r * shape.s * shape.t) as u64;
    let psum = (tile.k * tile.h * tile.w * tile.f) as u64 * shape.psum_bytes();
    TileBytes {
        input,
        weight,
        psum,
    }
}

impl TilingConfig {
    /// Standard Morph config: outer order for DRAM→L2, one inner order for
    /// all on-chip boundaries (§III), L2/L1/L0 tiles, and a register level
    /// of `Vw` output channels.
    pub fn morph(
        outer: LoopOrder,
        inner: LoopOrder,
        l2: Tile,
        l1: Tile,
        l0: Tile,
        vw: usize,
    ) -> Self {
        let reg = Tile {
            h: 1,
            w: 1,
            f: 1,
            c: 1,
            k: vw.min(l0.k).max(1),
        };
        Self {
            levels: vec![
                LevelConfig {
                    order: outer,
                    tile: l2,
                },
                LevelConfig {
                    order: inner,
                    tile: l1,
                },
                LevelConfig {
                    order: inner,
                    tile: l0,
                },
                LevelConfig {
                    order: inner,
                    tile: reg,
                },
            ],
        }
    }

    /// Clamp tile extents to the layer and to each parent tile, so any
    /// candidate becomes geometrically valid.
    pub fn normalize(mut self, shape: &ConvShape) -> Self {
        let mut parent = Tile::whole(shape);
        for level in &mut self.levels {
            for d in Dim::ALL {
                let e = level.tile.extent(d).clamp(1, parent.extent(d));
                level.tile = level.tile.with_extent(d, e);
            }
            parent = level.tile;
        }
        self
    }

    /// Check geometric validity: every tile extent ≥ 1 and ≤ its parent's.
    pub fn validate(&self, shape: &ConvShape) -> Result<(), String> {
        let mut parent = Tile::whole(shape);
        for (i, level) in self.levels.iter().enumerate() {
            for d in Dim::ALL {
                let e = level.tile.extent(d);
                if e == 0 {
                    return Err(format!("level {i}: zero extent in {d:?}"));
                }
                if e > parent.extent(d) {
                    return Err(format!(
                        "level {i}: {d:?} extent {e} exceeds parent {}",
                        parent.extent(d)
                    ));
                }
            }
            parent = level.tile;
        }
        Ok(())
    }

    /// Check that the on-chip tiles fit their (double-buffered) budgets.
    ///
    /// `levels[0..3]` are matched to L2/L1/L0 of `arch`; the register level
    /// (if present) is not a banked buffer and is skipped.
    pub fn fits(&self, shape: &ConvShape, arch: &ArchSpec) -> Result<(), String> {
        for (level, onchip) in self.levels.iter().zip(OnChipLevel::ALL) {
            let bytes = tile_bytes(shape, &level.tile);
            // Bank-granular allocation (§IV-B1): each data type occupies
            // whole banks; double buffering doubles every allocation.
            let bank = arch.bank_bytes(onchip) as u64;
            let banks_needed = [bytes.input, bytes.weight, bytes.psum]
                .iter()
                .map(|b| (2 * b).div_ceil(bank))
                .sum::<u64>();
            if banks_needed > arch.banks as u64 {
                return Err(format!(
                    "{onchip:?}: tile needs {banks_needed} banks of {bank} B, have {}",
                    arch.banks
                ));
            }
        }
        Ok(())
    }

    /// The tile at an on-chip level.
    pub fn tile(&self, level: OnChipLevel) -> &Tile {
        let idx = match level {
            OnChipLevel::L2 => 0,
            OnChipLevel::L1 => 1,
            OnChipLevel::L0 => 2,
        };
        &self.levels[idx].tile
    }

    /// Outer (DRAM→L2) loop order.
    pub fn outer_order(&self) -> LoopOrder {
        self.levels[0].order
    }

    /// Inner loop order (the L1 level's order for standard configs).
    pub fn inner_order(&self) -> LoopOrder {
        self.levels.get(1).map_or(self.levels[0].order, |l| l.order)
    }
}

impl morph_json::ToJson for LevelConfig {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("order", self.order.to_json()),
            ("tile", self.tile.to_json()),
        ])
    }
}

impl morph_json::FromJson for LevelConfig {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field;
        Ok(LevelConfig {
            order: LoopOrder::from_json(field(v, "order")?)?,
            tile: Tile::from_json(field(v, "tile")?)?,
        })
    }
}

impl morph_json::ToJson for TilingConfig {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([("levels", self.levels.to_json())])
    }
}

impl morph_json::FromJson for TilingConfig {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field_arr;
        let levels = field_arr(v, "levels")?
            .iter()
            .map(LevelConfig::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TilingConfig { levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvShape {
        ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1)
    }

    #[test]
    fn tile_bytes_accounts_halo() {
        let sh = layer();
        let t = Tile {
            h: 14,
            w: 14,
            f: 4,
            c: 128,
            k: 32,
        };
        let b = tile_bytes(&sh, &t);
        // Input: (14−1+3) × 16 × (4−1+3) × 128 = 16·16·6·128.
        assert_eq!(b.input, 16 * 16 * 6 * 128);
        assert_eq!(b.weight, 32 * 128 * 27);
        assert_eq!(b.psum, (32 * 14 * 14 * 4) as u64 * sh.psum_bytes());
    }

    #[test]
    fn morph_config_has_reg_level() {
        let sh = layer();
        let whole = Tile::whole(&sh);
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            whole,
            Tile {
                h: 7,
                w: 7,
                f: 2,
                c: 32,
                k: 16,
            },
            Tile {
                h: 7,
                w: 7,
                f: 1,
                c: 8,
                k: 8,
            },
            8,
        );
        assert_eq!(cfg.levels.len(), 4);
        assert_eq!(cfg.levels[3].tile.k, 8);
        assert!(cfg.validate(&sh).is_ok());
    }

    #[test]
    fn validate_rejects_growing_tiles() {
        let sh = layer();
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            Tile {
                h: 7,
                w: 7,
                f: 2,
                c: 32,
                k: 16,
            },
            Tile {
                h: 14,
                w: 7,
                f: 2,
                c: 32,
                k: 16,
            }, // grows in H
            Tile {
                h: 7,
                w: 7,
                f: 1,
                c: 8,
                k: 8,
            },
            8,
        );
        assert!(cfg.validate(&sh).is_err());
        // normalize() clamps it into validity.
        assert!(cfg.normalize(&sh).validate(&sh).is_ok());
    }

    #[test]
    fn fits_rejects_oversized_l0() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let big = Tile::whole(&sh);
        let cfg = TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            big,
            big,
            big, // whole layer will not fit a 16 kB L0
            8,
        );
        assert!(cfg.fits(&sh, &arch).is_err());
    }

    #[test]
    fn fits_accepts_reasonable_tiles() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let cfg = TilingConfig::morph(
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
        );
        assert_eq!(cfg.fits(&sh, &arch), Ok(()));
    }
}
