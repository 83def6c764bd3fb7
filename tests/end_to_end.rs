//! End-to-end integration: the optimizer's chosen configuration executes
//! bit-exactly on the functional hardware, and the analytical traffic
//! engine agrees with the hardware counters where their assumptions
//! coincide.

use morph_core::{ArchSpec, Backend as _, Morph};
use morph_dataflow::config::{LevelConfig, TilingConfig};
use morph_dataflow::traffic::layer_traffic;
use morph_hw::MorphChip;
use morph_tensor::prelude::*;

/// The optimizer's decision for a small layer runs on the chip model and
/// reproduces Algorithm 1 exactly.
#[test]
fn optimizer_decision_executes_bit_exactly() {
    let shape = ConvShape::new_3d(10, 10, 4, 6, 16, 3, 3, 3).with_pad(1, 1);
    let morph = Morph::new();
    let d = morph.evaluate_layer(&shape).decision.unwrap();

    let input = synth_input(&shape, 77);
    let filters = synth_filters(&shape, 78);
    let mut chip = MorphChip::new(ArchSpec::morph());
    chip.configure(&shape, &d.config)
        .expect("chosen config fits the hardware");
    let (out, counters) = chip.run_layer(&shape, &d.config, &input, &filters);

    let reference = conv3d_reference(&shape, &input, &filters);
    assert_eq!(out.as_slice(), reference.as_slice());
    assert_eq!(counters.maccs, shape.maccs());
}

/// For a halo-free layer (1×1×1 filters) with untiled spatial dims, the
/// analytical DRAM byte count equals the functional chip's DRAM reads
/// exactly — cross-validating the two models.
#[test]
fn analytical_traffic_matches_hw_counters_without_halo() {
    let shape = ConvShape::new_3d(8, 8, 4, 6, 12, 1, 1, 1);
    let whole = Tile::whole(&shape);
    // Tile only K and C so no sliding-window reuse is involved.
    let cfg = TilingConfig {
        levels: vec![
            LevelConfig {
                order: "CKWHF".parse().unwrap(),
                tile: whole
                    .with_extent(Dim::K, 4)
                    .with_extent(Dim::C, 3)
                    .with_extent(Dim::H, 4),
            },
            LevelConfig {
                order: "ckwhf".parse().unwrap(),
                tile: whole
                    .with_extent(Dim::K, 4)
                    .with_extent(Dim::C, 3)
                    .with_extent(Dim::H, 4),
            },
            LevelConfig {
                order: "ckwhf".parse().unwrap(),
                tile: whole
                    .with_extent(Dim::K, 2)
                    .with_extent(Dim::C, 1)
                    .with_extent(Dim::H, 2),
            },
            LevelConfig {
                order: "ckwhf".parse().unwrap(),
                tile: Tile {
                    h: 1,
                    w: 1,
                    f: 1,
                    c: 1,
                    k: 2,
                },
            },
        ],
    }
    .normalize(&shape);

    let analytical = layer_traffic(&shape, &cfg);
    let input = synth_input(&shape, 5);
    let filters = synth_filters(&shape, 6);
    let mut chip = MorphChip::new(ArchSpec::morph());
    chip.configure(&shape, &cfg).unwrap();
    let (_, counters) = chip.run_layer(&shape, &cfg, &input, &filters);

    assert_eq!(
        counters.dram_reads,
        analytical.dram().input_down + analytical.dram().weight_down,
        "DRAM reads must match the engine exactly for halo-free tiling"
    );
    assert_eq!(counters.dram_writes, analytical.dram().output_up);
}

/// A saved mapping drives the hardware after a round trip through the
/// JSON text form reports are saved in (save → recall → execute).
#[test]
fn recalled_schedule_drives_hardware() {
    use morph_json::{FromJson as _, ToJson as _, Value};
    let shape = ConvShape::new_3d(8, 8, 3, 4, 8, 3, 3, 2).with_pad(1, 0);
    let d = Morph::new().evaluate_layer(&shape).decision.unwrap();
    let text = d.config.to_json().pretty();
    let recalled = TilingConfig::from_json(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(recalled, d.config);

    let input = synth_input(&shape, 9);
    let filters = synth_filters(&shape, 10);
    let mut chip = MorphChip::new(ArchSpec::morph());
    chip.configure(&shape, &recalled).unwrap();
    let (out, _) = chip.run_layer(&shape, &recalled, &input, &filters);
    assert_eq!(
        out.as_slice(),
        conv3d_reference(&shape, &input, &filters).as_slice()
    );
}

/// The three accelerator presets agree on the work performed (MACCs) for
/// every layer of a real network, while disagreeing on cost.
#[test]
fn presets_agree_on_work_disagree_on_cost() {
    let mut net = morph_nets::Network::new("mini");
    net.conv(
        "a",
        ConvShape::new_3d(14, 14, 4, 16, 32, 3, 3, 3).with_pad(1, 1),
    );
    net.conv(
        "b",
        ConvShape::new_3d(14, 14, 4, 32, 32, 3, 3, 3).with_pad(1, 1),
    );

    let report = morph_core::Session::builder()
        .backend(Morph::new())
        .backend(morph_core::MorphBase::new())
        .backend(morph_core::Eyeriss::new())
        .network(net)
        .build()
        .run();
    let [rm, rb, re] = &report.runs[..] else {
        panic!("three runs")
    };
    assert_eq!(rm.total.maccs, rb.total.maccs);
    assert_eq!(rm.total.maccs, re.total.maccs);
    assert!(rm.total.total_pj() <= rb.total.total_pj());
}
