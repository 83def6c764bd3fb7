//! Run every experiment binary in sequence, teeing output into
//! `experiments_out/`, then merge the per-binary `RunReport`s into
//! `experiments_out/bench.json` — one machine-readable artifact covering
//! the whole evaluation — and verify it deserializes back.

use morph_bench::{load_report, OUT_DIR};
use morph_core::RunReport;
use std::process::Command;

/// All experiment binaries, in dependency-free execution order.
const BINS: [&str; 19] = [
    "tables",
    "table4",
    "fig1a",
    "fig1b",
    "ratematch",
    "ablate_banks",
    "ablate_levels",
    "fig5",
    "fig4a",
    "fig4b",
    "fig4c",
    "table3",
    "fig9",
    "fig10",
    "ablate_flex",
    "pipeline",
    "pareto",
    "search",
    "trace",
];

/// The subset that persists a structured `RunReport`.
const REPORTING_BINS: [&str; 10] = [
    "fig4a",
    "fig4b",
    "fig4c",
    "table3",
    "fig9",
    "fig10",
    "ablate_flex",
    "pipeline",
    "pareto",
    "search",
];

fn main() {
    std::fs::create_dir_all(OUT_DIR).expect("create output dir");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in BINS {
        eprintln!(">>> {bin}");
        let out = Command::new(dir.join(bin))
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        assert!(
            out.status.success(),
            "{bin} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::write(format!("{OUT_DIR}/{bin}.txt"), &out.stdout).expect("write output");
        print!("{}", String::from_utf8_lossy(&out.stdout));
    }

    // Merge every structured report into one machine-checkable artifact.
    let reports: Vec<RunReport> = REPORTING_BINS
        .iter()
        .map(|name| load_report(name).unwrap_or_else(|e| panic!("load {name}: {e}")))
        .collect();
    let merged = RunReport::merged(reports).expect("uniform schema");
    let path = format!("{OUT_DIR}/bench.json");
    std::fs::write(&path, merged.to_json_string()).expect("write bench.json");

    // The artifact must deserialize back into the exact same report.
    let back = RunReport::from_json_str(&std::fs::read_to_string(&path).expect("read bench.json"))
        .expect("bench.json deserializes into RunReports");
    assert_eq!(back, merged, "bench.json round-trip");
    let piped = back.runs.iter().filter_map(|r| r.pipeline.as_ref());
    assert!(
        piped.clone().count() > 0,
        "bench.json carries pipeline sections"
    );
    for p in piped {
        assert!(p.steady_fps >= p.serial_fps, "pipelining can only help");
    }
    let searched = back.runs.iter().filter_map(|r| r.search.as_ref());
    assert!(
        searched.clone().count() > 0,
        "bench.json carries mapping-search stats"
    );
    for s in searched {
        assert!(
            s.bound_pruned + s.costed <= s.enumerated,
            "search stats are self-consistent"
        );
    }
    eprintln!(
        ">>> all experiments written to {OUT_DIR}/ ({} runs, {} layer records, {} pipeline sections, {} searched runs in bench.json)",
        back.runs.len(),
        back.runs.iter().map(|r| r.layers.len()).sum::<usize>(),
        back.runs.iter().filter(|r| r.pipeline.is_some()).count(),
        back.runs.iter().filter(|r| r.search.is_some()).count(),
    );
}
