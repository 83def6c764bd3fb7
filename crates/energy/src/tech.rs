//! 32 nm technology constants (§VI-A measurement setup).
//!
//! Arithmetic energies follow Horowitz, ISSCC'14 (45 nm), scaled to 32 nm
//! as the paper does; DRAM is counted at 20 pJ/bit; SRAM energies come from
//! the CACTI-lite model in [`crate::cacti`] (itrs-lop, 1 GHz); the NoC uses
//! low-swing wires that burn energy every cycle via differential signaling
//! (§VI-A).

/// Energy of one 8-bit multiply-accumulate, including the accumulator
/// register update, in pJ. Horowitz 45 nm: 0.2 pJ (8-bit mult) + 0.03 pJ
/// (8-bit add); scaled by (32/45)² ≈ 0.51 and rounded up for the
/// accumulator write.
pub const MACC_PJ: f64 = 0.16;

/// DRAM access energy: 20 pJ/bit (§VI-A) = 160 pJ/byte.
pub const DRAM_PJ_PER_BYTE: f64 = 160.0;

/// Low-swing NoC dynamic energy per byte transferred (differential,
/// short on-chip spans).
pub const NOC_PJ_PER_BYTE: f64 = 0.15;

/// Low-swing NoC static energy per cycle per bus (differential signaling
/// consumes energy regardless of data, §VI-A), in pJ.
pub const NOC_STATIC_PJ_PER_CYCLE_PER_BUS: f64 = 1.2;

/// SRAM leakage power density at 32 nm itrs-lop, in µW per KB.
pub const SRAM_LEAKAGE_UW_PER_KB: f64 = 6.0;

/// Fixed chip overhead power (clock tree, control standby), in mW.
pub const CHIP_STANDBY_MW: f64 = 12.0;

/// Activation / weight operand precision in bits (§III Remark).
pub const OPERAND_BITS: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn energy_hierarchy_ordering() {
        // The constants must preserve the qualitative hierarchy the paper
        // relies on: DRAM ≫ any SRAM access ≫ a MACC.
        assert!(DRAM_PJ_PER_BYTE > 50.0 * MACC_PJ);
        assert!(MACC_PJ > 0.0 && MACC_PJ < 1.0);
    }

    #[test]
    fn dram_is_20pj_per_bit() {
        assert!((DRAM_PJ_PER_BYTE - 20.0 * 8.0).abs() < f64::EPSILON);
    }
}
