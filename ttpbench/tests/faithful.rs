//! The timing wrappers forward every call: a traced run is the same run.

use gridbnb_core::runtime::{run, RunReport, RuntimeConfig};
use gridbnb_core::{
    CoordinatorConfig, Interval, MemoryBackend, Problem, Request, Response, RouterTransport,
    ShardRouter, StorageBackend, Transport, TransportError, UBig, WalStore, WorkerId,
};
use gridbnb_flowshop::{taillard, FlowshopProblem};
use gridbnb_qap::{QapInstance, QapProblem};
use std::sync::Arc;
use std::time::Instant;
use ttpbench::spans::{Layer, Recorder};
use ttpbench::wrappers::{TimedBackend, TimedProblem, TimedTransport};

fn assert_traced_run_is_identical<P: Problem>(problem: &P, ub: u64) {
    let config = RuntimeConfig::new(3)
        .with_shards(2)
        .with_replicable(11)
        .with_initial_upper_bound(ub);
    let bare = run(problem, &config);
    let rec = Recorder::new();
    let timed = run(&TimedProblem::new(problem, &rec), &config);

    let bare_trace = bare
        .trace
        .as_ref()
        .expect("replicable runs record a trace")
        .encode();
    let timed_trace = timed
        .trace
        .as_ref()
        .expect("replicable runs record a trace")
        .encode();
    assert!(bare.trace.as_ref().is_some_and(|t| !t.is_empty()));
    assert_eq!(bare_trace.as_bytes(), timed_trace.as_bytes());
    let stats = |r: &RunReport| r.workers.iter().map(|w| w.stats).collect::<Vec<_>>();
    assert_eq!(stats(&bare), stats(&timed));
    assert_eq!(bare.proven_optimum, timed.proven_optimum);

    // The pooled kernel reached the wrapper's own `lower_bound_batch`:
    // one span per batch carrying the whole pool, not one per state as
    // the trait's default scalar loop would record.
    let spans = rec.drain();
    let bound: Vec<_> = spans.iter().filter(|s| s.layer == Layer::Bound).collect();
    let batches: u64 = timed.workers.iter().map(|w| w.stats.bound_batches).sum();
    let states: u64 = timed.workers.iter().map(|w| w.stats.nodes_bounded).sum();
    let branched: u64 = timed.workers.iter().map(|w| w.stats.branched).sum();
    assert!(batches > 0);
    assert_eq!(bound.len() as u64, batches);
    assert_eq!(bound.iter().map(|s| s.items).sum::<u64>(), states);
    assert!(rec.take_branch_calls() >= branched);
}

#[test]
fn timed_problem_keeps_a_replicable_flowshop_run_byte_identical() {
    let problem =
        FlowshopProblem::with_default_bound(taillard::taillard_instance(&taillard::TA_20_5, 7));
    assert_traced_run_is_identical(&problem, 1235);
}

#[test]
fn timed_problem_keeps_a_replicable_qap_run_byte_identical() {
    let problem = QapProblem::with_default_bound(QapInstance::nugent_style(2, 4, 3));
    assert_traced_run_is_identical(&problem, 393);
}

fn root() -> Interval {
    Interval::new(UBig::zero(), UBig::from(1_000_000u64))
}

/// Three workers join, report progress twice, and ask for more work.
fn script(t: &dyn Transport) -> Vec<Result<Vec<Response>, TransportError>> {
    let mut out = Vec::new();
    let mut held = Vec::new();
    for w in 0..3 {
        let r = t.contact(vec![Request::Join {
            worker: WorkerId(w),
            power: 100,
        }]);
        if let Ok(responses) = &r {
            if let Some(Response::Work { interval, .. }) = responses.first() {
                held.push((w, interval.clone()));
            }
        }
        out.push(r);
    }
    for step in 1..=2u64 {
        for (w, interval) in &held {
            let mut progressed = interval.clone();
            let mut begin = progressed.begin().clone();
            begin += &UBig::from(step * 1000);
            progressed.advance_begin(&begin);
            out.push(t.contact(vec![Request::Update {
                worker: WorkerId(*w),
                interval: progressed,
            }]));
        }
    }
    for (w, _) in &held {
        out.push(t.contact(vec![Request::RequestWork {
            worker: WorkerId(*w),
            power: 100,
        }]));
    }
    out
}

struct Failing;

impl Transport for Failing {
    fn contact(&self, _: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        Err(TransportError::Timeout)
    }
}

#[test]
fn timed_transport_forwards_requests_responses_and_errors() {
    let started = Instant::now();
    let a = ShardRouter::new(root(), 2, CoordinatorConfig::default()).expect("router");
    let b = ShardRouter::new(root(), 2, CoordinatorConfig::default()).expect("router");
    let bare = script(&RouterTransport::new(&a, started));
    let rec = Recorder::new();
    let timed = script(&TimedTransport::new(
        RouterTransport::new(&b, started),
        &rec,
    ));
    assert_eq!(bare, timed);
    assert_eq!(a.snapshot(), b.snapshot());
    let contacts: Vec<_> = rec
        .drain()
        .into_iter()
        .filter(|s| s.layer == Layer::Contact)
        .collect();
    assert_eq!(contacts.len(), bare.len());
    assert!(contacts.iter().all(|s| s.items == 1));

    let failing = TimedTransport::new(Failing, &rec);
    assert_eq!(failing.contact(Vec::new()), Err(TransportError::Timeout));
    let spans = rec.drain();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].items, 0, "a failed contact records no requests");
}

/// Runs the script on a WAL-backed router over `backend`, then recovers
/// the WAL and returns each shard's intervals, sorted.
fn wal_round_trip(backend: Arc<dyn StorageBackend>) -> Vec<Vec<String>> {
    let router = ShardRouter::new(root(), 2, CoordinatorConfig::default()).expect("router");
    let (intervals, solution) = router.snapshot();
    let wal = WalStore::create(Arc::clone(&backend), &intervals, solution.as_ref()).expect("wal");
    let router = router.with_wal(Arc::new(wal));
    script(&RouterTransport::new(&router, Instant::now()));
    drop(router);
    let (_, state) = WalStore::recover(backend).expect("recover");
    sorted(&state.shard_intervals)
}

fn sorted(shards: &[Vec<Interval>]) -> Vec<Vec<String>> {
    shards
        .iter()
        .map(|shard| {
            let mut s: Vec<String> = shard.iter().map(|iv| iv.to_string()).collect();
            s.sort();
            s
        })
        .collect()
}

#[test]
fn timed_backend_recovers_the_same_intervals_as_a_bare_memory_backend() {
    let bare = wal_round_trip(Arc::new(MemoryBackend::new()));
    let rec = Arc::new(Recorder::new());
    let timed = wal_round_trip(Arc::new(TimedBackend::new(
        MemoryBackend::new(),
        Arc::clone(&rec),
    )));
    assert_eq!(bare, timed);
    let initial = ShardRouter::new(root(), 2, CoordinatorConfig::default()).expect("router");
    assert_ne!(
        bare,
        sorted(&initial.snapshot().0),
        "the script must change the WAL's state"
    );
    let spans = rec.drain();
    assert!(spans
        .iter()
        .any(|s| s.layer == Layer::WalAppend && s.items > 0));
    assert!(spans
        .iter()
        .any(|s| s.layer == Layer::WalPut && s.items > 0));
}
