//! The run: repeated rounds of one workload until the time budget is
//! spent, then one set of metrics.
//!
//! A round builds a fresh stack, sets up its inputs and runs a fixed op
//! stream drawn from the seed. Virtual metrics and counts are a function
//! of the seed alone, so every round of a run must reproduce round 0's
//! exactly; a mismatch fails the run. Host metrics are medians over
//! rounds, each round's figures in reference seconds (see [`calibrate`]).
//! With tracing on, rounds alternate untraced and traced, and the traced
//! rounds give the per-layer host times and the tracing overhead.

use crate::calibrate;
use crate::dump::{self, DumpParams};
use crate::meter::{m, Metric, RoundReport};
use crate::mixed::{self, MixedParams};
use crate::query::{self, QueryParams};
use crate::stack::Interpose;
use crate::stats::{median, ratio};
use crate::trace::Span;
use crate::{BenchError, Result, WallTimer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VpicDump,
    VpicQuery,
    MixedReplicated,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::VpicDump,
        Workload::VpicQuery,
        Workload::MixedReplicated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VpicDump => "vpic_dump",
            Workload::VpicQuery => "vpic_query",
            Workload::MixedReplicated => "mixed_replicated",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of every workload's round.
#[derive(Debug, Clone)]
pub struct Params {
    pub dump: DumpParams,
    pub query: QueryParams,
    pub mixed: MixedParams,
}

impl Params {
    pub fn standard() -> Self {
        Self {
            dump: DumpParams::standard(),
            query: QueryParams::standard(),
            mixed: MixedParams::standard(),
        }
    }
}

pub fn run_round(
    w: Workload,
    p: &Params,
    seed: u64,
    traced: bool,
    interpose: Option<&Interpose>,
) -> Result<RoundReport> {
    match w {
        Workload::VpicDump => dump::run_round(&p.dump, seed, traced, interpose),
        Workload::VpicQuery => query::run_round(&p.query, seed, traced, interpose),
        Workload::MixedReplicated => mixed::run_round(&p.mixed, seed, traced, interpose),
    }
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Spans of the last traced round.
    pub spans: Option<Vec<Span>>,
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| BenchError(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| BenchError("no VmHWM in /proc/self/status".into()))
}

/// What a run keeps of each round after round 0: enough to check it
/// reproduced round 0 and to take host medians.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    pub fingerprint: Vec<Metric>,
    pub op_counts: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Host figures in reference seconds.
    pub host_kops_per_s: f64,
    pub setup_s: f64,
    /// Span-derived metrics, host times in reference seconds; `None` for
    /// an untraced round.
    pub span_metrics: Option<Vec<Metric>>,
}

impl RoundSummary {
    /// Summarise a round whose host seconds turn into reference seconds
    /// by `host_scale` (from [`calibrate::scale`]).
    pub fn of(r: &RoundReport, host_scale: f64) -> Self {
        let span_metrics = r.spans.as_ref().map(|_| {
            r.span_layer_metrics()
                .into_iter()
                .map(|mut x| {
                    if calibrate::is_host_time(x.unit) {
                        x.value *= host_scale;
                    }
                    x
                })
                .collect()
        });
        Self {
            fingerprint: r.fingerprint(),
            op_counts: r.op_counts(),
            attempted: r.attempted,
            failed: r.failed,
            host_kops_per_s: r.host_kops_per_s() / host_scale,
            setup_s: r.setup_host_s * host_scale,
            span_metrics,
        }
    }
}

/// Run rounds of `w` until `seconds` have passed (at least three, or
/// four when tracing) and summarise them.
pub fn run(w: Workload, p: &Params, seed: u64, seconds: f64, trace: bool) -> Result<Outcome> {
    let timer = WallTimer::start();
    let min_rounds = if trace { 4 } else { 3 };
    let mut first: Option<RoundReport> = None;
    let mut spans = None;
    let mut rounds: Vec<RoundSummary> = Vec::new();
    let mut kernel = calibrate::kernel_s();
    while rounds.len() < min_rounds || timer.elapsed_secs() < seconds {
        let traced = trace && rounds.len() % 2 == 1;
        let mut r = run_round(w, p, seed, traced, None)?;
        let after = calibrate::kernel_s();
        eprintln!(
            "perfbench: {} round {} ({}): setup {:.6} s, measured {:.3} s, kernel {:.2}/{:.2} ms, {:.1} kop/s, {:.1} kop/vs",
            w.name(),
            rounds.len(),
            if traced { "traced" } else { "untraced" },
            r.setup_host_s,
            r.measured_host_s,
            kernel * 1e3,
            after * 1e3,
            r.host_kops_per_s(),
            r.v_kops_per_vs()
        );
        rounds.push(RoundSummary::of(&r, calibrate::scale(kernel, after)));
        kernel = after;
        if r.spans.is_some() {
            spans = r.spans.take();
        }
        if first.is_none() {
            first = Some(r);
        }
    }
    let first = first.ok_or_else(|| BenchError("no rounds ran".into()))?;
    let mut out = summarise(&first, &rounds, trace)?;
    out.spans = spans;
    Ok(out)
}

/// Fold a run's rounds into its outcome: virtual metrics from round 0
/// (every other round must match it), host metrics as medians over
/// rounds.
pub fn summarise(first: &RoundReport, rounds: &[RoundSummary], trace: bool) -> Result<Outcome> {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let reference = RoundSummary::of(first, 1.0);
    let mut correct = failed == 0 && first.attempted > 0;
    for (i, r) in rounds.iter().enumerate() {
        if r.fingerprint != reference.fingerprint || r.op_counts != reference.op_counts {
            eprintln!("perfbench: round {i} diverged from round 0 on the same seed");
            correct = false;
        }
    }
    let kops = |traced: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .filter(|r| r.span_metrics.is_some() == traced)
            .map(|r| r.host_kops_per_s)
            .collect();
        median(&v)
    };
    let metrics = if trace {
        let mut out = first.virtual_layer_metrics();
        let traced: Vec<&Vec<Metric>> = rounds
            .iter()
            .filter_map(|r| r.span_metrics.as_ref())
            .collect();
        if let Some(names) = traced.first() {
            for (i, name) in names.iter().enumerate() {
                let values: Vec<f64> = traced.iter().map(|ms| ms[i].value).collect();
                out.push(m(name.name.clone(), median(&values), name.unit));
            }
        }
        out.push(m(
            "trace.overhead_frac",
            1.0 - ratio(kops(true), kops(false)),
            "ratio",
        ));
        out
    } else {
        let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        vec![
            m("v_kops_per_vs", first.v_kops_per_vs(), "kop/vs"),
            m("op_p99_vus", first.op_p99_vus(), "vus"),
            m("host_kops_per_s", kops(false), "kop/s"),
            m("setup_s", median(&setup), "s"),
            m("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        spans: None,
    })
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
