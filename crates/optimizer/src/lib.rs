//! # morph-optimizer
//!
//! The paper's §V software optimization framework: per layer, enumerate
//! configurations (loop orders × L2 tiles × PE parallelism), allocate
//! sub-tiles level by level with the corner-search `allocate` heuristic
//! scored by `f_reuse`, cost candidates with the whole-chip model, and
//! return the best configuration per objective. The enumeration is a
//! pruned branch-and-bound stream: candidates carry admissible lower
//! bounds (MACC/parallelism roofline for cycles, compulsory DRAM traffic
//! for energy) and are skipped when they provably cannot beat the
//! incumbent — while still selecting the bit-identical argmin of the
//! exhaustive search (kept alive as
//! [`Optimizer::search_layer_exhaustive`]). Decisions and their
//! [`SearchStats`] are memoized in a [`DecisionStore`], keyed by shape,
//! objective and cluster budget, which the session layer driving the
//! optimizer reads too. The cluster budget is a search argument:
//! [`Optimizer::search_sweep`] searches a layer on several shares of the
//! chip's clusters, sharing the budget-independent work (L2-tile groups,
//! hierarchy allocations, tile chain summaries) across them.

pub mod allocate;
pub mod search;
pub mod space;
pub mod store;

pub use allocate::FitPolicy;
pub use search::{LayerDecision, Objective, Optimizer};
pub use space::Effort;
pub use store::{DecisionStore, SearchStats, StoreKey, StoredDecision};
