//! # morph-tensor
//!
//! Dense-tensor substrate for the Morph reproduction: convolution shapes,
//! the reference 3D convolution (the paper's Algorithm 1), tiled
//! convolution with configurable loop orders, pooling, and requantization.
//!
//! Everything downstream — the analytical dataflow model, the optimizer and
//! the functional hardware simulator — validates against
//! [`conv::conv3d_reference`].
//!
//! ```
//! use morph_tensor::prelude::*;
//!
//! // C3D's first layer: 3×16×112×112 input, 64 3×3×3 filters, pad 1.
//! let layer = ConvShape::new_3d(112, 112, 16, 3, 64, 3, 3, 3).with_pad(1, 1);
//! assert_eq!(layer.h_out(), 112);
//! assert_eq!(layer.maccs(), 64 * 16 * 112 * 112 * 27 * 3);
//! ```

pub mod conv;
pub mod hash;
pub mod order;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod tiled;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::conv::{conv3d_reference, synth_filters, synth_input, Acc};
    pub use crate::order::{Dim, LoopOrder};
    pub use crate::pool::{maxpool3d, PoolShape};
    pub use crate::quant::{choose_shift, requantize_relu};
    pub use crate::shape::{ConvShape, ACT_BYTES, WGT_BYTES};
    pub use crate::tensor::{Activations, Filters};
    pub use crate::tiled::{conv3d_tiled, layer_extents, Tile};
}
