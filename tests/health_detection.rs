//! Detection-coverage matrix for the totally-ordered health subsystem:
//! every chaos fault class must trigger its documented detector (see
//! `eternal::health_lab::expected_detector` and `docs/HEALTH.md`), and
//! fault-free runs must stay completely silent — a diagnosis on a
//! healthy cluster is a false positive, and the auditor's whole value
//! rests on firing only when something is actually wrong.

use eternal::cluster::{Cluster, ClusterConfig};
use eternal::faults::FaultKind;
use eternal::health_lab::{expected_detector, run_scenario, LabConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::health::{Detector, Severity};
use eternal_obs::Duration;

// ----------------------------------------------------------------
// Zero false positives
// ----------------------------------------------------------------

#[test]
fn fault_free_runs_fire_zero_diagnoses() {
    for seed in [7, 42, 60] {
        let run = run_scenario(&LabConfig {
            seed,
            ..LabConfig::default()
        });
        let auditor = run.cluster.health_auditor();
        assert!(
            auditor.diagnoses().is_empty(),
            "seed {seed}: fault-free run fired {:?}",
            auditor.diagnoses()
        );
        assert!(
            auditor.epochs().len() > 100,
            "seed {seed}: only {} epochs observed",
            auditor.epochs().len()
        );
    }
}

// ----------------------------------------------------------------
// Coverage matrix
// ----------------------------------------------------------------

fn fired_after_injection(fault: FaultKind) -> Vec<Detector> {
    let run = run_scenario(&LabConfig {
        fault: Some(fault),
        ..LabConfig::default()
    });
    let injected = run.injected_at.expect("fault was injected").as_nanos();
    run.cluster
        .health_auditor()
        .diagnoses()
        .iter()
        .filter(|d| d.at_ns >= injected)
        .map(|d| d.detector)
        .collect()
}

#[test]
fn coverage_matrix_maps_every_fault_to_its_detector() {
    for fault in FaultKind::ALL {
        let expected = expected_detector(fault);
        let fired = fired_after_injection(fault);
        assert!(
            fired.contains(&expected),
            "{}: expected {} to fire, got {:?}",
            fault.name(),
            expected.name(),
            fired
        );
    }
}

/// Sustained overload — offered load outrunning the throttled ring —
/// must fire the backpressure detector: the Totem pending queues grow
/// monotonically across a full detector window of agreed epochs.
/// Overload is a load shape rather than a fault, so it enters the
/// coverage matrix through `LabConfig::overload_kicks`, not a
/// `FaultKind`.
#[test]
fn overload_fires_backpressure_growth() {
    let run = run_scenario(&LabConfig {
        throttled_ring: true,
        overload_kicks: 40,
        ..LabConfig::default()
    });
    let injected = run.injected_at.expect("overload phase ran").as_nanos();
    let fired: Vec<Detector> = run
        .cluster
        .health_auditor()
        .diagnoses()
        .iter()
        .filter(|d| d.at_ns >= injected)
        .map(|d| d.detector)
        .collect();
    assert!(
        fired.contains(&Detector::BackpressureGrowth),
        "sustained overload went undetected: {fired:?}"
    );
}

/// A short burst on the default ring is a transient: the pending
/// queues spike at each kick instant and drain within an epoch or two,
/// which must never read as sustained backpressure — or anything else.
/// (Fault runs are deliberately not held to this standard: a 60 kB
/// state transfer restreamed after `kill_mid_transfer` genuinely grows
/// the donor's queue monotonically for a full window, and the detector
/// reporting that is a true positive.)
#[test]
fn transient_bursts_stay_silent() {
    let run = run_scenario(&LabConfig {
        overload_kicks: 3,
        ..LabConfig::default()
    });
    let diagnoses = run.cluster.health_auditor().diagnoses();
    assert!(
        diagnoses.is_empty(),
        "transient burst misread as sustained: {diagnoses:?}"
    );
}

#[test]
fn digest_corruption_fires_divergence_critical() {
    let run = run_scenario(&LabConfig {
        corrupt_digest: true,
        ..LabConfig::default()
    });
    let diagnoses = run.cluster.health_auditor().diagnoses();
    assert!(
        diagnoses
            .iter()
            .any(|d| d.detector == Detector::DigestDivergence && d.severity == Severity::Critical),
        "corrupted digest went undetected: {diagnoses:?}"
    );
}

// ----------------------------------------------------------------
// Epoch-stream properties
// ----------------------------------------------------------------

#[test]
fn epoch_stream_is_gapless_and_time_ordered() {
    let run = run_scenario(&LabConfig::default());
    let auditor = run.cluster.health_auditor();
    let epochs = auditor.epochs();
    let mut last_at = 0;
    for (i, rec) in epochs.iter().enumerate() {
        assert_eq!(rec.epoch, i as u64, "epoch numbering must be gapless");
        assert!(rec.at_ns >= last_at, "epoch times must be nondecreasing");
        last_at = rec.at_ns;
    }
    // Every processor published (all five appear in the roll-ups).
    let summaries = auditor.node_summaries();
    assert_eq!(summaries.len(), 5, "{summaries:?}");
    for s in &summaries {
        assert!(s.snapshots > 10, "node {} barely published: {s:?}", s.node);
    }
}

#[test]
fn same_seed_scenarios_are_byte_identical() {
    let render = || {
        let run = run_scenario(&LabConfig {
            fault: Some(FaultKind::CrashRestart),
            ..LabConfig::default()
        });
        let auditor = run.cluster.health_auditor();
        let mut out = String::new();
        for rec in auditor.epochs() {
            out.push_str(&rec.snap.to_json());
            out.push('\n');
        }
        for d in auditor.diagnoses() {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    };
    assert_eq!(render(), render());
}

// ----------------------------------------------------------------
// Health monitoring must not disturb the application
// ----------------------------------------------------------------

/// Runs the same drained workload with health off and on; the
/// application-visible outcome (replica state convergence and the
/// totals the exactly-once audit counts) must be identical — health
/// messages ride the same total order but touch no application state.
#[test]
fn health_monitoring_leaves_application_outcomes_unchanged() {
    let outcome = |period: Duration| {
        let cfg = ClusterConfig {
            health_period: period,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg, 42);
        let group =
            cluster.deploy_server("hm-counter", FaultToleranceProperties::active(3), || {
                Box::new(eternal::app::CounterServant::default())
            });
        cluster.deploy_client(
            "hm-driver",
            FaultToleranceProperties::active(2),
            move |_| Box::new(eternal::app::BurstClient::new(group, "increment", 8)),
        );
        cluster.run_until_deployed();
        cluster.kick_clients();
        cluster.run_for(Duration::from_millis(80));
        let m = cluster.metrics();
        let states: Vec<Option<Vec<u8>>> = cluster
            .processors()
            .into_iter()
            .map(|n| cluster.probe_application_state(n, group))
            .collect();
        (m.requests_dispatched, m.replies_delivered, states)
    };
    let off = outcome(Duration::ZERO);
    let on = outcome(Duration::from_millis(1));
    assert_eq!(off, on);
}
