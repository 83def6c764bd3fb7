//! # morph-dataflow
//!
//! The analytical core of the Morph reproduction: multi-level tiling,
//! loop orders, halo/slide-reuse arithmetic, the generic boundary-traffic
//! engine (§II-D/E transfer rules), and the PE-parallelism performance
//! model (§II-F, §III-C).
//!
//! Energy is attached by `morph-energy`; configuration search by
//! `morph-optimizer`. Applications normally do not drive this layer
//! directly: they build a `morph_core::Backend` (via its builder) and run
//! it through a `morph_core::Session`, which produces the
//! [`TilingConfig`](config::TilingConfig) mappings below as part of its
//! serializable `RunReport`. This crate is the substrate those decisions
//! are expressed in:
//!
//! ```
//! use morph_dataflow::prelude::*;
//! use morph_tensor::prelude::*;
//!
//! // The same shape of configuration a `Session` run records per layer —
//! // here built by hand to feed the traffic engine directly.
//! let layer = ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1);
//! let cfg = TilingConfig::morph(
//!     LoopOrder::base_outer(),
//!     LoopOrder::base_inner(),
//!     Tile { h: 28, w: 28, f: 4, c: 64, k: 64 },
//!     Tile { h: 14, w: 14, f: 2, c: 16, k: 16 },
//!     Tile { h: 7, w: 7, f: 1, c: 4, k: 8 },
//!     8,
//! ).normalize(&layer);
//! let traffic = layer_traffic(&layer, &cfg);
//! assert!(traffic.dram().input_down >= layer.input_bytes());
//!
//! // Mappings serialize with the same JSON substrate `RunReport` uses.
//! use morph_json::{FromJson, ToJson};
//! let round = TilingConfig::from_json(&cfg.to_json()).unwrap();
//! assert_eq!(round, cfg);
//! ```

pub mod arch;
pub mod config;
pub mod perf;
pub mod pieces;
pub mod traffic;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::arch::{ArchSpec, OnChipLevel};
    pub use crate::config::{tile_bytes, LevelConfig, TileBytes, TilingConfig};
    pub use crate::perf::{
        best_parallelism, compute_cycles, layer_cycles, CycleReport, Parallelism,
    };
    pub use crate::pieces::{DimPieces, DimSpec, Piece};
    pub use crate::traffic::{
        apply_multicast, boundary_traffic, layer_traffic, BoundaryTraffic, LayerTraffic,
    };
}
