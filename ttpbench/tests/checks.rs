//! Every output check trips: on a reference off by one, on a dropped
//! solution, and on each failure it exists to catch.

use gridbnb_core::runtime::{run, RuntimeConfig};
use gridbnb_core::{Problem, Solution, TraceEvent, WalOp};
use ttpbench::checks::{check, replay_leaves_shards_empty, Outcome, ServerOutcome};
use ttpbench::spans::Recorder;
use ttpbench::workload::{self, cases, Case, CaseProblem, Workload, DEFAULT_SEED};

/// A correct in-process proof of the workload's first short instance.
fn short_case_proof(w: Workload) -> (Case, Outcome) {
    let case = cases(w, DEFAULT_SEED)
        .into_iter()
        .find(|c| c.short)
        .expect("every workload has a short instance");
    let config = RuntimeConfig::new(2).with_initial_upper_bound(case.reference + 1);
    let report = match &case.problem {
        CaseProblem::Flowshop(p) => run(p, &config),
        CaseProblem::Qap(p) => run(p, &config),
    };
    let outcome = Outcome::from_run(&report);
    (case, outcome)
}

fn failures(case: &Case, outcome: &Outcome, reference: u64) -> Vec<String> {
    check(outcome, reference, &|s: &Solution| case.cost_of(s))
}

fn trips(failures: &[String], needle: &str) -> bool {
    failures.iter().any(|f| f.contains(needle))
}

#[test]
fn correct_proofs_pass_and_an_off_by_one_reference_trips_every_value_check() {
    for w in [Workload::FlowshopInproc, Workload::QapReplicable] {
        let (case, outcome) = short_case_proof(w);
        assert_eq!(
            failures(&case, &outcome, case.reference),
            Vec::<String>::new()
        );
        for reference in [case.reference - 1, case.reference + 1] {
            let f = failures(&case, &outcome, reference);
            assert!(trips(&f, "proven optimum"), "{f:?}");
            assert!(trips(&f, "claims cost"), "{f:?}");
            assert!(trips(&f, "recomputes to"), "{f:?}");
        }
    }
}

#[test]
fn a_dropped_or_corrupted_solution_trips() {
    for w in [Workload::FlowshopInproc, Workload::QapReplicable] {
        let (case, mut outcome) = short_case_proof(w);
        let solution = outcome
            .solution
            .take()
            .expect("a correct proof returns a solution");
        assert!(trips(
            &failures(&case, &outcome, case.reference),
            "no solution was returned"
        ));

        // Same claimed cost, different permutation: only the recomputed
        // cost can tell.
        let mut swapped = solution.clone();
        let last = swapped.leaf_ranks.len() - 2;
        swapped.leaf_ranks[last] = 1 - swapped.leaf_ranks[last];
        outcome.solution = Some(swapped);
        let f = failures(&case, &outcome, case.reference);
        assert!(f.len() == 1 && trips(&f, "recomputes to"), "{f:?}");

        let mut garbage = solution;
        garbage.leaf_ranks.push(0);
        outcome.solution = Some(garbage);
        assert!(trips(
            &failures(&case, &outcome, case.reference),
            "does not decode"
        ));
    }
}

#[test]
fn a_transport_failure_trips() {
    let (case, mut outcome) = short_case_proof(Workload::FlowshopInproc);
    outcome
        .transport_failures
        .push("worker 1: connection closed".into());
    assert!(trips(
        &failures(&case, &outcome, case.reference),
        "transport failure"
    ));
}

#[test]
fn every_server_check_trips() {
    let (case, mut outcome) = short_case_proof(Workload::FlowshopTcpWal);
    let good = ServerOutcome {
        terminated: true,
        remaining_is_zero: true,
        protocol_errors: 0,
    };
    outcome.server = Some(good);
    assert!(failures(&case, &outcome, case.reference).is_empty());
    let broken = [
        (
            ServerOutcome {
                terminated: false,
                ..good
            },
            "did not terminate",
        ),
        (
            ServerOutcome {
                remaining_is_zero: false,
                ..good
            },
            "unexplored intervals",
        ),
        (
            ServerOutcome {
                protocol_errors: 1,
                ..good
            },
            "protocol errors",
        ),
    ];
    for (server, needle) in broken {
        outcome.server = Some(server);
        assert!(
            trips(&failures(&case, &outcome, case.reference), needle),
            "{needle}"
        );
    }
}

#[test]
fn a_replay_with_a_dropped_event_trips() {
    let case = cases(Workload::QapReplicable, DEFAULT_SEED)
        .into_iter()
        .find(|c| c.short)
        .expect("a short instance");
    let CaseProblem::Qap(problem) = &case.problem else {
        panic!("QAP workload");
    };
    let config = RuntimeConfig::new(workload::QAP_WORKERS)
        .with_shards(workload::QAP_SHARDS)
        .with_replicable(DEFAULT_SEED)
        .with_initial_upper_bound(case.reference + 1);
    let report = run(problem, &config);
    let events = report
        .trace
        .expect("replicable runs record a trace")
        .events();
    let root = problem.shape().root_range();
    assert_eq!(
        replay_leaves_shards_empty(&events, &root, workload::QAP_SHARDS),
        Ok(())
    );

    // Drop the last interval removal: replay must notice the leftover.
    let last_remove = events
        .iter()
        .rposition(|e| {
            matches!(
                e,
                TraceEvent::Op {
                    op: WalOp::Remove(_),
                    ..
                }
            )
        })
        .expect("a finished run removes intervals");
    let mut dropped = events.clone();
    dropped.remove(last_remove);
    let replay = replay_leaves_shards_empty(&dropped, &root, workload::QAP_SHARDS);
    assert!(replay.is_err());
    let mut outcome = Outcome::from_run(&run(problem, &config));
    outcome.replay = Some(replay);
    assert!(trips(
        &failures(&case, &outcome, case.reference),
        "trace replay"
    ));
}

#[test]
fn a_full_pass_of_every_workload_is_correct() {
    for w in Workload::ALL {
        let rec = Recorder::new();
        let setup = workload::setup(w, DEFAULT_SEED, None).expect("set-up");
        let mut run_id = 0;
        let records = workload::run_pass(w, setup, &rec, false, &mut run_id);
        assert_eq!(records.len(), cases(w, DEFAULT_SEED).len());
        for r in &records {
            assert!(
                r.failures.is_empty(),
                "{} {}: {:?}",
                w.name(),
                r.name,
                r.failures
            );
            assert!(r.explored > 0 && r.wall_ns > 0);
        }
    }
}
