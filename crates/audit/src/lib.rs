//! # morph-audit
//!
//! An independent static verifier for the Morph reproduction: every
//! number the workspace reports flows through code that both *chooses*
//! and *costs* mappings, so a bug in tile allocation, budget plumbing or
//! channel sizing would silently corrupt the whole perf trajectory. This
//! crate re-derives legality **from first principles** — its checks are
//! written against the data types (`TilingConfig`, `PipelineSpec`,
//! serialized report documents), not against the optimizer or engine
//! code paths that produced them — and reports structured
//! [`Violation`]s instead of panicking.
//!
//! Three passes, in the style of Timeloop's mapping-legality constraint
//! system and DAM-RS's static deadlock detector:
//!
//! * [`mapping`] — every [`morph_optimizer::StoredDecision`] in a
//!   backend's [`morph_optimizer::DecisionStore`] is re-checked against
//!   the architecture its key claims (including the reduced-cluster
//!   specs that budgeted evaluations build): tile footprints vs the
//!   double-buffered level budgets, geometric nesting, loop-order
//!   completeness, parallelism vs the cluster budget's PEs, and search
//!   stats arithmetic.
//! * [`graph`] — a [`morph_pipeline::PipelineSpec`] is statically proved
//!   deadlock-free and throughput-clean without running the engine:
//!   every channel must point forward in stage order, which makes index
//!   order topological and the wait-for relation acyclic (every channel
//!   cycle holds a backward edge, and a cycle starves forever from the
//!   all-empty start state), and every reconvergent (skip) edge gets a
//!   minimum-capacity certificate ([`graph::capacity_certificates`]): it
//!   must buffer at least the depth of the longest parallel path it
//!   shortcuts, or the join would throttle the pipeline below its
//!   bottleneck rate.
//! * [`report`] — a serialized `RunReport` document (schema v6) is
//!   checked for internal consistency directly on the JSON tree: totals
//!   vs per-layer sums, edge well-formedness, per-stage cluster shares
//!   against the chip budget, Pareto points mutually non-dominated and
//!   under the stated power cap, and `enumerated >= bound_pruned +
//!   costed` search arithmetic. The committed `baseline.json` perf-gate
//!   summary has its own checker ([`report::audit_baseline_value`]).
//! * [`trace`] — a recorded `morph_trace::TraceBuffer` (or a Perfetto
//!   sidecar document written by the `trace` bin) is checked for
//!   structural sanity: balanced, properly nested spans per track;
//!   non-regressing per-track timestamps; stage spans confined to the
//!   document's `[fill start, drain end]` bounds; monotonic counters;
//!   and `search:` tracks whose final `costed + bound_pruned` counters
//!   never exceed `enumerated`.
//!
//! All passes are pure functions over their inputs; the `audit` binary
//! in `morph-bench` drives them over the full zoo × every backend, over
//! `experiments_out/bench.json`, and over the `trace_*.json` sidecars.

pub mod graph;
pub mod mapping;
pub mod report;
pub mod trace;

/// Which audit pass produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPass {
    /// The mapping-legality pass ([`mapping`]).
    Mapping,
    /// The pipeline-graph pass ([`graph`]).
    PipelineGraph,
    /// The report-consistency pass ([`report`]).
    Report,
    /// The trace-sanity pass ([`trace`]).
    Trace,
}

impl AuditPass {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            AuditPass::Mapping => "mapping",
            AuditPass::PipelineGraph => "pipeline-graph",
            AuditPass::Report => "report",
            AuditPass::Trace => "trace",
        }
    }
}

/// One failed audit rule: which pass, which rule, on what subject, and a
/// human-readable explanation carrying the offending numbers.
///
/// Rules are stable kebab-case identifiers (e.g. `tile-over-budget`,
/// `skip-capacity-floor`, `pareto-point-dominated`) so callers — and the
/// mutation self-tests — can match on the class of failure without
/// parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The pass that flagged this.
    pub pass: AuditPass,
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    /// The entity that failed the rule (a store key, an edge, a run).
    pub subject: String,
    /// What exactly is inconsistent, with the numbers involved.
    pub detail: String,
}

impl morph_json::ToJson for Violation {
    fn to_json(&self) -> morph_json::Value {
        morph_json::Value::obj([
            (
                "pass",
                morph_json::Value::Str(self.pass.label().to_string()),
            ),
            ("rule", morph_json::Value::Str(self.rule.to_string())),
            ("subject", morph_json::Value::Str(self.subject.clone())),
            ("detail", morph_json::Value::Str(self.detail.clone())),
        ])
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.pass.label(),
            self.rule,
            self.subject,
            self.detail
        )
    }
}

impl Violation {
    /// Build a violation (helper for the pass modules).
    pub(crate) fn new(
        pass: AuditPass,
        rule: &'static str,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            pass,
            rule,
            subject: subject.into(),
            detail: detail.into(),
        }
    }

    /// True if any violation in `list` carries `rule` (test helper used
    /// by the mutation self-tests, public for downstream harnesses).
    pub fn any_rule(list: &[Violation], rule: &str) -> bool {
        list.iter().any(|v| v.rule == rule)
    }
}
