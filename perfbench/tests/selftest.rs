//! Self-tests of the benchmark itself. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use eternal_perfbench::host;
use eternal_perfbench::report::{end_to_end, Metric, Series};
use eternal_perfbench::workload::{run_rep, Rep, Workload};

/// The end-to-end metrics measured in simulated time (all but the
/// wall-clock ones), which must repeat exactly for a seed.
const SIMULATED: [&str; 4] = ["throughput_ops_s", "rtt_p50_us", "rtt_p999_us", "outage_ms"];
const WALL_CLOCK: [&str; 3] = ["setup_s", "run_rel", "peak_rss_mb"];
/// The details measured on the wall clock; every other detail is
/// simulated and must repeat exactly for a seed.
const WALL_CLOCK_DETAILS: [&str; 2] = ["run_s", "reference_s"];

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// `RoundTripSnapshot::percentile` takes a fraction: `percentile(99.9)`
/// clamps to the maximum. The benchmark's tail must be
/// `percentile(0.999)`, which on recovery_350k sits strictly between
/// the median and the maximum.
#[test]
fn rtt_tail_is_the_999th_permille_not_the_max() {
    let rep = run_rep(Workload::Recovery350k, 42, None);
    let snapshot = rep.outcome.rtt_metrics().round_trip_snapshot();
    let max = snapshot.max().expect("round trips recorded");
    assert_eq!(
        snapshot.percentile(99.9),
        Some(max),
        "a percent clamps to the max"
    );
    let (metrics, details) = end_to_end(&Series::new(rep));
    let p50 = value(&metrics, "rtt_p50_us");
    let p999 = value(&metrics, "rtt_p999_us");
    let max_us = value(&details, "rtt_max_us");
    assert!(
        p50 < p999 && p999 < max_us,
        "p50 {p50} < p999 {p999} < max {max_us}"
    );
    assert!(
        value(&details, "rtt_samples") >= 10_000.0,
        "p999 has ten samples beyond it"
    );
}

/// A series of one repetition, with the reference kernel timed as an
/// untraced run times it.
fn series(rep: Rep) -> Series {
    let mut series = Series::new(rep);
    series.reference_s.push(host::reference_s());
    series
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, &'static str)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn same_seed_repeats_every_simulated_metric_and_count() {
    for w in Workload::ALL {
        let a = run_rep(w, 7, None);
        let b = run_rep(w, 7, None);
        // The outcome holds every simulated metric's inputs, the
        // per-layer counts and the audit's findings.
        assert_eq!(a.outcome, b.outcome, "{}", w.name());
        let (ma, da) = end_to_end(&series(a.clone()));
        let (mb, db) = end_to_end(&series(b.clone()));
        for name in SIMULATED {
            assert_eq!(value(&ma, name), value(&mb, name), "{} {name}", w.name());
        }
        let simulated = |d: Vec<Metric>| -> Vec<Metric> {
            d.into_iter()
                .filter(|m| !WALL_CLOCK_DETAILS.contains(&m.name.as_str()))
                .collect()
        };
        assert_eq!(simulated(da), simulated(db), "{}", w.name());
    }
}

#[test]
fn second_seed_completes_every_workload_and_its_audit() {
    let run = |seed| -> Vec<Rep> { Workload::ALL.map(|w| run_rep(w, seed, None)).to_vec() };
    let (first, second) = (run(7), run(8));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(b.outcome.ops_failed(), 0);
        assert!(b.outcome.correct(), "{:?}", b.outcome.violations);
        assert!(b.outcome.faults == a.outcome.faults);
        let (ma, _) = end_to_end(&series(a.clone()));
        let (mb, _) = end_to_end(&series(b.clone()));
        assert_eq!(names_and_units(&ma), names_and_units(&mb));
        for name in WALL_CLOCK {
            let v = value(&mb, name);
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
