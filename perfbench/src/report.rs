//! One benchmark run: repetitions of a workload for a time budget,
//! reduced to the end-to-end metrics (untraced) or the per-layer
//! metrics (traced), with the correctness verdict and the run
//! environment.

use crate::counts::Counts;
use crate::host;
use crate::layers;
use crate::spans::Spans;
use crate::workload::{run_rep, Outcome, Rep, Workload};
use eternal_obs::{Phase, RecoveryPhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest repetitions a run makes, whatever its time budget, so that
/// the wall-clock metrics are medians of at least this many samples.
pub const MIN_REPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Time budget for the repetitions.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or(format!(
                        "unknown workload {value}; expected one of {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `ns`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every repetition's outputs were right and the simulated outcome
    /// repeated exactly across repetitions.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Of those, operations that failed (no reply by the deadline).
    pub failed: u64,
    /// The metrics of the final JSON line: end-to-end (untraced) or
    /// per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Further measurements printed by name but not part of the JSON
    /// line (counts, sample sizes, recovery figures).
    pub details: Vec<Metric>,
    /// Oracle violations by invariant, and anything else that went
    /// wrong, one line each.
    pub notes: Vec<String>,
    /// Traced run only: the spans as JSON, and the self-time table.
    pub spans: Option<(String, String)>,
}

/// Median of a sample (mean of the middle two when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Report {
    if args.trace {
        traced_run(args)
    } else {
        untraced_run(args)
    }
}

/// Repetitions of one workload and seed: the first kept whole, the
/// rest reduced to their wall times once checked against it (keeping
/// every repetition whole would make the peak RSS grow with the number
/// of repetitions, that is with machine speed).
#[derive(Debug, Clone)]
pub struct Series {
    /// The first repetition.
    pub first: Rep,
    /// Set-up wall time of every repetition, s.
    pub setup_s: Vec<f64>,
    /// Run wall time of every repetition, s.
    pub run_s: Vec<f64>,
    /// Wall time of the reference kernel timed just after each
    /// repetition, s (untraced runs only).
    pub reference_s: Vec<f64>,
    /// Repetitions whose simulated outcome differed from the first's.
    pub diverged: usize,
    /// Operations attempted, over all repetitions.
    pub attempted: u64,
    /// Operations failed, over all repetitions.
    pub failed: u64,
}

impl Series {
    /// A series of one repetition.
    pub fn new(first: Rep) -> Self {
        Series {
            setup_s: vec![first.setup_s],
            run_s: vec![first.run_s],
            reference_s: Vec::new(),
            diverged: 0,
            attempted: first.outcome.ops_attempted,
            failed: first.outcome.ops_failed(),
            first,
        }
    }

    /// Adds a repetition to `series`, starting it if empty.
    pub fn add(series: &mut Option<Series>, rep: Rep) {
        let Some(s) = series else {
            *series = Some(Series::new(rep));
            return;
        };
        s.setup_s.push(rep.setup_s);
        s.run_s.push(rep.run_s);
        s.diverged += usize::from(rep.outcome != s.first.outcome);
        s.attempted += rep.outcome.ops_attempted;
        s.failed += rep.outcome.ops_failed();
    }
}

/// Runs `round` until the time budget is spent, at least `MIN_REPS`
/// times; returns how many rounds ran.
fn repeat(seconds: u64, mut round: impl FnMut()) -> usize {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut rounds = 0;
    while rounds < MIN_REPS || start.elapsed() < budget {
        round();
        rounds += 1;
    }
    rounds
}

/// Checks that every repetition's simulated outcome is the first one's
/// and that it is correct; adds notes for what is not.
fn verdict(label: &str, series: &Series, notes: &mut Vec<String>) -> bool {
    let first = &series.first.outcome;
    let mut ok = true;
    if series.diverged > 0 {
        notes.push(format!(
            "{label}: simulated outcome differs between repetitions of one seed ({} of {})",
            series.diverged,
            series.run_s.len()
        ));
        ok = false;
    }
    if !first.correct() {
        notes.push(format!(
            "{label}: incorrect output ({} reply mismatches)",
            first.reply_mismatches
        ));
        ok = false;
    }
    ok
}

fn violation_notes(label: &str, outcome: &Outcome, notes: &mut Vec<String>) {
    let mut by_invariant: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (inv, detail) in &outcome.violations {
        by_invariant.entry(inv).or_default().push(detail);
    }
    for (inv, details) in by_invariant {
        notes.push(format!(
            "{label}: oracle violation {inv} x{}: {}",
            details.len(),
            details.join("; ")
        ));
    }
}

fn untraced_run(args: &Args) -> Report {
    let mut series = None;
    let mut reference_s = Vec::new();
    // The kernel runs after each repetition, so the first repetition
    // sets the peak resident set on a fresh heap.
    repeat(args.seconds, || {
        Series::add(&mut series, run_rep(args.workload, args.seed, None));
        reference_s.push(host::reference_s());
    });
    let mut series = series.expect("at least one repetition");
    series.reference_s = reference_s;
    let mut notes = Vec::new();
    let correct = verdict("untraced", &series, &mut notes);
    violation_notes(args.workload.name(), &series.first.outcome, &mut notes);
    let (metrics, details) = end_to_end(&series);
    Report {
        correct,
        attempted: series.attempted,
        failed: series.failed,
        metrics,
        details,
        notes,
        spans: None,
    }
}

/// The end-to-end metrics of untraced repetitions of one seed, plus
/// the details printed beside them.
pub fn end_to_end(series: &Series) -> (Vec<Metric>, Vec<Metric>) {
    let o = &series.first.outcome;
    let rtt = o.rtt_metrics().round_trip_snapshot();
    let us = |d: Option<eternal_sim::Duration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
    let ms = |ns: f64| ns / 1e6;
    let recovery: Vec<u64> = o.recoveries.iter().map(|r| r.0).collect();
    let blocking: Vec<u64> = o.recoveries.iter().map(|r| r.1).collect();
    let metrics = vec![
        metric("setup_s", median(&series.setup_s), "s"),
        // Run time in units of the reference kernel's time, which
        // cancels most of the host's drift (see `host::reference_s`).
        metric(
            "run_rel",
            series.run_s.iter().sum::<f64>() / series.reference_s.iter().sum::<f64>(),
            "x",
        ),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric(
            "throughput_ops_s",
            o.ops_completed as f64 / (o.load_sim_ns as f64 / 1e9),
            "1/s",
        ),
        metric("rtt_p50_us", us(rtt.percentile(0.5)), "us"),
        metric("rtt_p999_us", us(rtt.percentile(0.999)), "us"),
        metric("outage_ms", ms(median_u64(&o.outages_ns)), "ms"),
    ];
    let details = vec![
        metric("run_s", median(&series.run_s), "s"),
        metric("reference_s", median(&series.reference_s), "s"),
        metric("rtt_samples", rtt.count() as f64, "count"),
        metric("rtt_max_us", us(rtt.max()), "us"),
        metric("outage_episodes", o.outages_ns.len() as f64, "count"),
        metric("recovery_ms", ms(median_u64(&recovery)), "ms"),
        metric("blocking_ms", ms(median_u64(&blocking)), "ms"),
        metric("recoveries", o.recoveries.len() as f64, "count"),
        metric("faults", o.faults as f64, "count"),
        metric("ops_attempted", o.ops_attempted as f64, "count"),
        metric("ops_failed", o.ops_failed() as f64, "count"),
        metric("oracle_violations", o.violations.len() as f64, "count"),
        metric("reply_mismatches", o.reply_mismatches as f64, "count"),
        metric("repetitions", series.run_s.len() as f64, "count"),
    ];
    (metrics, details)
}

/// Wall-clock results of one round of isolated layer replays.
#[derive(Debug, Clone, Copy)]
struct LayerSample {
    sched_ns_per_event: f64,
    totem_ns_per_delivery: f64,
    orb: layers::OrbTimes,
    cdr: (f64, f64),
    giop: (f64, f64),
}

/// `f`, inside a span named `name`.
fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> T {
    spans.begin(name, Counts::pool());
    let out = f();
    spans.end(Counts::pool());
    out
}

fn replay_layers(workload: Workload, seed: u64, c: &Counts, spans: &mut Spans) -> LayerSample {
    let kind = workload.servant_kind();
    let mean_size = (c.wire_bytes / c.broadcasts.max(1)).clamp(16, 1_400) as usize;
    LayerSample {
        sched_ns_per_event: timed(spans, "layer.sim", || layers::sched(c.events, seed)),
        totem_ns_per_delivery: timed(spans, "layer.totem", || {
            layers::totem(c.broadcasts, mean_size, seed)
        }),
        orb: timed(spans, "layer.orb", || layers::orb(kind, seed)),
        cdr: timed(spans, "layer.cdr", || layers::cdr(kind)),
        giop: timed(spans, "layer.giop", || layers::giop(kind)),
    }
}

fn traced_run(args: &Args) -> Report {
    let name = args.workload.name();
    let mut spans = Spans::new(name);
    let (mut untraced, mut traced, mut samples) = (None, None, Vec::new());
    let rounds = repeat(args.seconds, || {
        let plain = run_rep(args.workload, args.seed, None);
        let sample = replay_layers(args.workload, args.seed, &plain.outcome.counts, &mut spans);
        Series::add(&mut untraced, plain);
        Series::add(
            &mut traced,
            run_rep(args.workload, args.seed, Some(&mut spans)),
        );
        samples.push(sample);
    });
    let (untraced, traced) = (
        untraced.expect("at least one round"),
        traced.expect("at least one round"),
    );
    let mut notes = Vec::new();
    let correct =
        verdict("untraced", &untraced, &mut notes) & verdict("traced", &traced, &mut notes);
    violation_notes(name, &untraced.first.outcome, &mut notes);

    let o = &untraced.first.outcome;
    let c = &o.counts;
    let ops = o.ops_completed;
    let run_s = median(&untraced.run_s);
    let traced_run_s = median(&traced.run_s);
    let layer =
        |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let extras = traced.first.traced.as_ref().expect("traced repetition");
    let phase_ms = |phase: RecoveryPhase| {
        let ns: Vec<u64> = extras
            .timelines
            .iter()
            .filter_map(|t| t.phase(phase).map(|p| p.duration().as_nanos()))
            .collect();
        median_u64(&ns) / 1e6
    };
    let attrib_us = |phase: Phase, q: f64| {
        let mut ns: Vec<u64> = extras
            .attribution
            .requests
            .iter()
            .map(|r| r.phase_ns[phase.index()])
            .collect();
        ns.sort_unstable();
        if ns.is_empty() {
            return 0.0;
        }
        ns[((ns.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
    };
    let load_s = o.load_sim_ns as f64 / 1e9;
    let mut metrics = vec![
        metric("sim.events_per_op", ratio(c.events, ops), "count"),
        metric(
            "sim.ns_per_event",
            run_s * 1e9 / c.events.max(1) as f64,
            "ns",
        ),
        metric(
            "sim.iso_sched_ns_per_event",
            layer(&|s| s.sched_ns_per_event),
            "ns",
        ),
        metric("sim.net.frames_per_op", ratio(c.frames, ops), "count"),
        metric("sim.net.bytes_per_op", ratio(c.wire_bytes, ops), "B"),
        metric(
            "sim.net.ns_per_frame",
            run_s * 1e9 / c.frames.max(1) as f64,
            "ns",
        ),
        metric(
            "totem.msgs_per_batch",
            ratio(c.batched_messages, c.batches),
            "count",
        ),
        metric("totem.broadcasts_per_op", ratio(c.broadcasts, ops), "count"),
        metric(
            "totem.token_retransmits",
            c.token_retransmits as f64,
            "count",
        ),
        metric("totem.reformations", c.reformations as f64, "count"),
        metric(
            "totem.iso_ns_per_delivery",
            layer(&|s| s.totem_ns_per_delivery),
            "ns",
        ),
        metric(
            "orb.iso_build_request_ns",
            layer(&|s| s.orb.build_request),
            "ns",
        ),
        metric(
            "orb.iso_handle_request_ns",
            layer(&|s| s.orb.handle_request),
            "ns",
        ),
        metric(
            "orb.iso_handle_reply_ns",
            layer(&|s| s.orb.handle_reply),
            "ns",
        ),
        metric(
            "cdr.pool.reuse_ratio",
            ratio(c.pool_reused, c.pool_takes),
            "ratio",
        ),
        metric("cdr.pool.fresh_per_op", ratio(c.pool_fresh, ops), "count"),
        metric(
            "cdr.iso_state_encode_ns_per_kb",
            layer(&|s| s.cdr.0),
            "ns/KB",
        ),
        metric(
            "cdr.iso_state_decode_ns_per_kb",
            layer(&|s| s.cdr.1),
            "ns/KB",
        ),
        metric("giop.iso_fragment_ns_per_kb", layer(&|s| s.giop.0), "ns/KB"),
        metric(
            "giop.iso_reassemble_ns_per_kb",
            layer(&|s| s.giop.1),
            "ns/KB",
        ),
        metric(
            "eternal.dispatched_per_op",
            ratio(c.dispatched, ops),
            "count",
        ),
        metric(
            "eternal.duplicates_suppressed_per_op",
            ratio(c.duplicates_suppressed, ops),
            "count",
        ),
        // Every dispatched two-way request multicasts one reply (the
        // program's own `Metrics::replies_multicast` is never counted).
        metric(
            "eternal.useful_reply_ratio",
            ratio(c.replies_delivered, c.dispatched),
            "ratio",
        ),
        metric(
            "eternal.chunks_per_recovery",
            ratio(c.chunks_streamed, c.recoveries_completed),
            "count",
        ),
        metric(
            "eternal.chunk_duplicates",
            c.chunk_duplicates as f64,
            "count",
        ),
        metric(
            "eternal.transfer_takeovers",
            c.transfer_takeovers as f64,
            "count",
        ),
    ];
    for (phase, label) in [
        (RecoveryPhase::Quiesce, "quiesce"),
        (RecoveryPhase::GetState, "get_state"),
        (RecoveryPhase::Transfer, "transfer"),
        (RecoveryPhase::SetState, "set_state"),
        (RecoveryPhase::Replay, "replay"),
    ] {
        metrics.push(metric(
            format!("eternal.recovery.{label}_ms"),
            phase_ms(phase),
            "ms",
        ));
    }
    let recovery: Vec<u64> = o.recoveries.iter().map(|r| r.0).collect();
    let blocking: Vec<u64> = o.recoveries.iter().map(|r| r.1).collect();
    metrics.extend([
        metric("eternal.recovery_ms", median_u64(&recovery) / 1e6, "ms"),
        metric("eternal.blocking_ms", median_u64(&blocking) / 1e6, "ms"),
        metric(
            "eternal.checkpoints_per_s",
            if load_s > 0.0 {
                c.checkpoints_logged as f64 / load_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "eternal.messages_logged_per_op",
            ratio(c.messages_logged, ops),
            "count",
        ),
        metric("eternal.promotions", c.promotions as f64, "count"),
        metric(
            "obs.trace_overhead_pct",
            (traced_run_s / run_s - 1.0) * 100.0,
            "%",
        ),
        metric("obs.dropped_events", extras.dropped_events as f64, "count"),
    ]);
    for (phase, label) in [
        (Phase::TokenWait, "token_wait"),
        (Phase::WireRetransmit, "wire_retransmit"),
        (Phase::HoldResidency, "hold_residency"),
        (Phase::Dispatch, "dispatch"),
    ] {
        metrics.push(metric(
            format!("obs.attrib.{label}_p50_us"),
            attrib_us(phase, 0.5),
            "us",
        ));
        metrics.push(metric(
            format!("obs.attrib.{label}_p99_us"),
            attrib_us(phase, 0.99),
            "us",
        ));
    }
    metrics.push(metric(
        "audit.oracle_violations",
        o.violations.len() as f64,
        "count",
    ));

    let (_, mut details) = end_to_end(&untraced);
    details.extend([
        metric("traced_run_s", traced_run_s, "s"),
        metric(
            "attributed_requests",
            extras.attribution.requests.len() as f64,
            "count",
        ),
        metric("recovery_timelines", extras.timelines.len() as f64, "count"),
        metric("rounds", rounds as f64, "count"),
    ]);
    let mut table = String::from("span              count    total_ms     self_ms\n");
    for (name, (count, total, self_ns)) in spans.self_time_table() {
        let _ = writeln!(
            table,
            "{name:<16} {count:>6} {:>11.3} {:>11.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    Report {
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        details,
        notes,
        spans: Some((spans.to_json(), table)),
    }
}

/// Formats a metric value as JSON (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run environment as a JSON object.
pub fn environment_json(seed: u64) -> String {
    let env: Vec<String> = host::environment(seed)
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_string(&v)))
        .collect();
    format!("{{{}}}", env.join(", "))
}

/// The full record of a run, as written to the results file: the
/// environment, every metric and detail, and the notes.
pub fn results_json(args: &Args, report: &Report) -> String {
    let list = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|n| format!("    {}", json_string(n)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"trace\": {},\n  \"environment\": {},\n  \"correct\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"details\": {{\n{}\n  }},\n  \
         \"notes\": [\n{}\n  ]\n}}\n",
        args.workload.name(),
        args.trace,
        environment_json(args.seed),
        report.correct,
        report.attempted,
        report.failed,
        list(&report.metrics),
        list(&report.details),
        notes.join(",\n")
    )
}
