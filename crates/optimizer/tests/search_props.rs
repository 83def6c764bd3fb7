//! Property tests on the optimizer: decisions are always valid, and a
//! larger search space never yields a worse result.

use morph_dataflow::arch::ArchSpec;
use morph_energy::EnergyModel;
use morph_optimizer::{Effort, Objective, Optimizer};
use morph_tensor::order::LoopOrder;
use morph_tensor::rng::XorShift as Rng;
use morph_tensor::shape::ConvShape;

fn arb_layer(rng: &mut Rng) -> ConvShape {
    let h = rng.range(4, 20);
    let f = rng.range(1, 6);
    let c = rng.range(1, 48);
    let k = rng.range(1, 64);
    let t = rng.range(1, 3).min(f);
    ConvShape::new_3d(h, h, f, c, k, 3.min(h), 3.min(h), t).with_pad(1, 0)
}

/// Every decision is geometrically valid, fits the hardware, and its
/// parallelism fits the chip.
#[test]
fn decisions_are_always_valid() {
    let mut rng = Rng::new(0x0DEC);
    let arch = ArchSpec::morph();
    let opt = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
    for _ in 0..12 {
        let shape = arb_layer(&mut rng);
        let d = opt.search_layer(&shape, Objective::Energy);
        assert!(d.config.validate(&shape).is_ok());
        assert!(d.config.fits(&shape, &arch).is_ok());
        assert!(d.par.fits(&arch));
        assert!(d.report.total_pj() > 0.0);
        assert_eq!(d.report.maccs, shape.maccs());
    }
}

/// Restricting the outer-order space never improves the best energy
/// (search-space monotonicity).
#[test]
fn larger_space_never_worse() {
    let mut rng = Rng::new(0x5ACE);
    let arch = ArchSpec::morph();
    let orders = morph_optimizer::space::outer_order_candidates(Effort::Fast);
    for _ in 0..12 {
        let shape = arb_layer(&mut rng);
        let order = orders[rng.range(0, orders.len())];
        let free = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let restricted =
            Optimizer::morph(EnergyModel::morph(arch), Effort::Fast).with_outer_orders(vec![order]);
        let ef = free
            .search_layer(&shape, Objective::Energy)
            .report
            .total_pj();
        let er = restricted
            .search_layer(&shape, Objective::Energy)
            .report
            .total_pj();
        assert!(
            ef <= er * (1.0 + 1e-9),
            "free {ef} worse than restricted {er}"
        );
    }
}

/// Collapsing outer orders by their signature loses nothing: the full
/// search's best energy is exactly the best of the searches restricted
/// to each single outer order, which collapse nothing. The layers
/// overflow L2, so its tiles split several dimensions and the outer
/// order matters.
#[test]
fn order_dedup_loses_nothing() {
    let mut rng = Rng::new(0xDED0);
    let arch = ArchSpec::morph();
    let orders = morph_optimizer::space::outer_order_candidates(Effort::Fast);
    for _ in 0..16 {
        let h = rng.range(14, 57);
        let f = rng.range(1, 17);
        let (c, k) = (rng.range(32, 257), rng.range(32, 257));
        let shape = ConvShape::new_3d(h, h, f, c, k, 3, 3, 3.min(f)).with_pad(1, 1);
        let energy = |opt: Optimizer| {
            opt.search_layer(&shape, Objective::Energy)
                .report
                .total_pj()
        };
        let free = energy(Optimizer::morph(EnergyModel::morph(arch), Effort::Fast));
        let best = orders
            .iter()
            .map(|&order| {
                energy(
                    Optimizer::morph(EnergyModel::morph(arch), Effort::Fast)
                        .with_outer_orders(vec![order]),
                )
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(free, best, "{shape:?}");
    }
}

/// The performance objective never yields more cycles than the energy
/// objective's pick.
#[test]
fn objectives_are_ordered() {
    let mut rng = Rng::new(0x0B1);
    let opt = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast);
    for _ in 0..12 {
        let shape = arb_layer(&mut rng);
        let perf = opt.search_layer(&shape, Objective::Performance);
        let energy = opt.search_layer(&shape, Objective::Energy);
        assert!(perf.report.cycles.total <= energy.report.cycles.total);
        assert!(energy.report.total_pj() <= perf.report.total_pj() * (1.0 + 1e-9));
    }
}

/// The baseline's fixed orders are honored in its decision.
#[test]
fn baseline_uses_fixed_orders() {
    let mut rng = Rng::new(0xBA5E);
    let base = Optimizer::morph_base(EnergyModel::morph_base(ArchSpec::morph()));
    for _ in 0..12 {
        let shape = arb_layer(&mut rng);
        let d = base.search_layer(&shape, Objective::Energy);
        assert_eq!(d.config.outer_order(), LoopOrder::base_outer());
        assert_eq!(d.config.inner_order(), LoopOrder::base_inner());
    }
}
