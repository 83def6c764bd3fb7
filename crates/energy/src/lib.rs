//! # morph-energy
//!
//! Technology and cost models for the Morph reproduction: CACTI-lite SRAM
//! energy/area, Horowitz-style arithmetic energy scaled to 32 nm, 20 pJ/bit
//! DRAM, low-swing NoC, leakage — everything §VI-A's measurement setup
//! feeds into the paper's figures. The [`cost::EnergyModel`] is the main
//! entry point: it evaluates a layer under a dataflow configuration and
//! returns the Fig. 9-style breakdown.

pub mod area;
pub mod cacti;
pub mod cost;
pub mod tech;

pub use cost::{BufferMode, EnergyModel, EnergyReport, TrafficClass};
