//! Output checks. Every proof is checked against a reference computed
//! outside the program run, and every check here can fail: the tests
//! trip each one on a reference off by one and on a dropped solution.

use gridbnb_core::runtime::RunReport;
use gridbnb_core::{Interval, Solution, TraceEvent, TraceReplayer};

/// What the server side of a TCP proof reported besides its result.
#[derive(Clone, Copy, Debug)]
pub struct ServerOutcome {
    pub terminated: bool,
    pub remaining_is_zero: bool,
    pub protocol_errors: u64,
}

/// Everything a proof produced that the checks look at.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub proven_optimum: Option<u64>,
    pub solution: Option<Solution>,
    /// One entry per worker that ended with a `transport_failure`.
    pub transport_failures: Vec<String>,
    /// Over TCP the result above is the server's; this is the rest.
    pub server: Option<ServerOutcome>,
    /// Result of replaying the run-trace (replicable runs only).
    pub replay: Option<Result<(), String>>,
}

impl Outcome {
    /// The outcome of an in-process run (no server, no replay yet).
    pub fn from_run(report: &RunReport) -> Outcome {
        Outcome {
            proven_optimum: report.proven_optimum,
            solution: report.solution.clone(),
            transport_failures: report
                .transport_failures()
                .into_iter()
                .map(|(i, e)| format!("worker {i}: {e}"))
                .collect(),
            server: None,
            replay: None,
        }
    }
}

/// Checks one proof against its reference optimum. `cost_of` recomputes
/// a solution's cost from its decoded permutation. Returns one message
/// per failed check; empty means the proof is correct.
pub fn check(
    outcome: &Outcome,
    reference: u64,
    cost_of: &dyn Fn(&Solution) -> Result<u64, String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if outcome.proven_optimum != Some(reference) {
        failures.push(format!(
            "proven optimum {:?} differs from the reference {reference}",
            outcome.proven_optimum
        ));
    }
    match &outcome.solution {
        None => failures.push("no solution was returned".into()),
        Some(solution) => {
            if solution.cost != reference {
                failures.push(format!(
                    "solution claims cost {} but the reference is {reference}",
                    solution.cost
                ));
            }
            match cost_of(solution) {
                Ok(cost) if cost == reference => {}
                Ok(cost) => failures.push(format!(
                    "solution recomputes to {cost}, the reference is {reference}"
                )),
                Err(e) => failures.push(format!("solution does not decode: {e}")),
            }
        }
    }
    for failure in &outcome.transport_failures {
        failures.push(format!("worker ended with a transport failure: {failure}"));
    }
    if let Some(server) = &outcome.server {
        if !server.terminated {
            failures.push("server did not terminate".into());
        }
        if !server.remaining_is_zero {
            failures.push("server has unexplored intervals left".into());
        }
        if server.protocol_errors != 0 {
            failures.push(format!(
                "server saw {} protocol errors",
                server.protocol_errors
            ));
        }
    }
    if let Some(Err(e)) = &outcome.replay {
        failures.push(format!("trace replay: {e}"));
    }
    failures
}

/// Checks that `ranks` are valid permutation-tree ranks for `n` items
/// (rank at depth `d` below `n - d`), so decoding cannot go out of range.
pub fn check_ranks(ranks: &[u64], n: usize) -> Result<(), String> {
    if ranks.len() != n {
        return Err(format!("{} ranks for {n} items", ranks.len()));
    }
    for (depth, &r) in ranks.iter().enumerate() {
        if r >= (n - depth) as u64 {
            return Err(format!("rank {r} at depth {depth} of {n}"));
        }
    }
    Ok(())
}

/// Replays a run-trace's events from the root partition; the proof is
/// complete only if every shard ends empty.
pub fn replay_leaves_shards_empty(
    events: &[TraceEvent],
    root: &Interval,
    shards: usize,
) -> Result<(), String> {
    let mut replayer = TraceReplayer::new(root, shards);
    replayer.replay(events).map_err(|e| e.to_string())?;
    let left: usize = replayer.shards().iter().map(Vec::len).sum();
    if left == 0 {
        Ok(())
    } else {
        Err(format!("{left} intervals left on the shards after replay"))
    }
}
