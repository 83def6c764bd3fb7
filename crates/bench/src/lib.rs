//! # morph-bench
//!
//! Experiment harness for the Morph reproduction: one binary per figure
//! and table of the paper's evaluation (see `src/bin/`).
//!
//! Every binary prints a self-describing table to stdout; binaries that
//! evaluate accelerator backends build a [`morph_core::Session`] and
//! regenerate their tables from the structured [`RunReport`], persisting
//! the same report as JSON via [`emit_report`]. `run_all` executes the
//! full set, tees text into `experiments_out/*.txt`, and merges every
//! per-binary report into `experiments_out/bench.json` so the perf
//! trajectory is machine-checkable.

use morph_core::RunReport;
use morph_energy::EnergyReport;
use std::path::{Path, PathBuf};

pub mod hierarchy;

/// Directory every experiment artifact lands in.
pub const OUT_DIR: &str = "experiments_out";

/// Print a markdown-ish table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format energy in mJ with 3 decimal places.
pub fn mj(r: &EnergyReport) -> String {
    format!("{:.3}", r.total_pj() / 1e9)
}

/// Format a ratio as `x.xx×`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

/// The five Fig. 9 component labels.
pub const FIG9_COMPONENTS: [&str; 5] = ["DRAM", "L2", "L1", "L0", "Compute"];

/// Search effort taken from `MORPH_EFFORT` (`fast` default, `thorough`).
pub fn effort_from_env() -> morph_optimizer::Effort {
    match std::env::var("MORPH_EFFORT").as_deref() {
        Ok("thorough") => morph_optimizer::Effort::Thorough,
        _ => morph_optimizer::Effort::Fast,
    }
}

/// Session worker threads taken from `MORPH_THREADS` (default: the
/// machine's available parallelism; `1` runs sequentially).
pub fn threads_from_env() -> usize {
    std::env::var("MORPH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(morph_core::par::default_threads)
}

/// Path of the JSON report a named experiment persists.
pub fn report_path(name: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{name}.json"))
}

/// Persist an experiment's [`RunReport`] as `experiments_out/<name>.json`.
///
/// # Panics
///
/// Panics if the directory or file cannot be written — experiment output
/// silently going missing would corrupt the recorded trajectory.
pub fn emit_report(name: &str, report: &RunReport) {
    std::fs::create_dir_all(OUT_DIR).expect("create experiments_out");
    let path = report_path(name);
    std::fs::write(&path, report.to_json_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[{name}] wrote {}", path.display());
}

/// Load a previously emitted report (used by `run_all` to merge).
pub fn load_report(name: &str) -> Result<RunReport, String> {
    let path = report_path(name);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    RunReport::from_json_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(5.0, 2.0), "2.50x");
    }

    #[test]
    fn mj_scales_pj() {
        let mut r = EnergyReport::zero();
        r.compute_pj = 2.5e9;
        assert_eq!(mj(&r), "2.500");
    }

    #[test]
    fn report_paths_land_in_out_dir() {
        assert_eq!(report_path("fig9"), Path::new("experiments_out/fig9.json"));
    }
}
