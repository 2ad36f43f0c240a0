//! The three workloads: their inputs (made from the workload seed), the
//! set-up of one pass, and one checked proof per instance.

use crate::checks::{self, Outcome, ServerOutcome};
use crate::spans::{Layer, Recorder};
use crate::wrappers::{TimedBackend, TimedProblem, TimedTransport};
use gridbnb_core::runtime::{run, run_workers, DurabilityPolicy, RunReport, RuntimeConfig};
use gridbnb_core::{
    CoordinatorConfig, CoordinatorStats, MemoryBackend, Problem, Solution, StorageBackend,
};
use gridbnb_flowshop::makespan::makespan;
use gridbnb_flowshop::{taillard, FlowshopProblem};
use gridbnb_net::{ClientOptions, NetServer, ServerConfig, ServerReport, SocketTransport};
use gridbnb_qap::{QapInstance, QapProblem};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2007;

/// Taillard 20×5 instances as `(k in TA_20_5, published optimum, short)`.
/// ta002 and ta007 prove in a few hundred to a few thousand nodes, so
/// their wall time is the fixed cost of a proof.
pub const TAILLARD: [(usize, u64, bool); 5] = [
    (2, 1359, true),
    (3, 1081, false),
    (4, 1293, false),
    (7, 1234, true),
    (9, 1230, false),
];

/// Nugent-style QAP base instances as `(rows, cols, instance seed,
/// optimum, short)`. The optima come from `engine::sequential::solve`;
/// a test re-derives every one of them.
pub const QAP: [(usize, usize, u64, u64, bool); 11] = [
    (3, 4, 2007, 1334, false),
    (3, 4, 3, 1234, false),
    (3, 4, 5, 1242, false),
    (2, 4, 2007, 554, true),
    (2, 4, 3, 392, true),
    (2, 4, 5, 568, true),
    (2, 4, 7, 330, true),
    (2, 4, 11, 442, true),
    (2, 4, 13, 436, true),
    (2, 4, 17, 328, true),
    (2, 4, 19, 418, true),
];

/// Workers and shards of the replicable QAP runs (logical workers on
/// one thread).
pub const QAP_WORKERS: usize = 4;
pub const QAP_SHARDS: usize = 4;
/// Worker threads and TCP connections of the flowshop workloads. One:
/// with two, a proof waits on both CPUs of a shared 2-core machine and
/// its time swung ±30% between runs.
pub const FLOWSHOP_WORKERS: usize = 1;
/// Shards of the TCP server (one handler thread per connection).
pub const TCP_SHARDS: usize = 2;
/// Nodes explored between two contacts over TCP.
pub const TCP_POLL_NODES: u64 = 50;
/// WAL compaction period on the TCP server.
pub const TCP_COMPACT_EVERY: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FlowshopInproc,
    FlowshopTcpWal,
    QapReplicable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FlowshopInproc,
        Workload::FlowshopTcpWal,
        Workload::QapReplicable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowshopInproc => "flowshop-inproc",
            Workload::FlowshopTcpWal => "flowshop-tcp-wal",
            Workload::QapReplicable => "qap-replicable",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FlowshopInproc => {
                "default runtime::run path (S=1 farmer channel, pooled bound), one worker on one \
                 CPU: time goes to the flowshop kernel and explorer, so kernel changes show here"
            }
            Workload::FlowshopTcpWal => {
                "same Taillard proofs over loopback TCP with a WAL, one connection, all on one \
                 CPU: ~25k contacts/s through client, wire, server, shard router and WAL append"
            }
            Workload::QapReplicable => {
                "replicable QAP on one thread: costly Gilmore-Lawler bound, few nodes, handouts \
                 and steals instead of updates, exact counts and a replayed trace"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 step: the one source of seeded choices.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `inst` with its locations renamed by a seeded permutation: the same
/// problem (same optimum, same bound values per node up to the order of
/// siblings) written down differently.
pub fn relabel_locations(inst: &QapInstance, seed: u64) -> QapInstance {
    let n = inst.n();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let flow = (0..n * n).map(|k| inst.flow(k / n, k % n)).collect();
    let dist = (0..n * n)
        .map(|k| inst.dist(perm[k / n], perm[k % n]))
        .collect();
    QapInstance::new(n, flow, dist)
}

pub enum CaseProblem {
    Flowshop(FlowshopProblem),
    Qap(QapProblem),
}

/// One instance of a pass with its reference optimum.
pub struct Case {
    pub name: String,
    pub short: bool,
    pub reference: u64,
    pub problem: CaseProblem,
}

impl Case {
    /// Recomputes a solution's cost from its decoded permutation.
    pub fn cost_of(&self, solution: &Solution) -> Result<u64, String> {
        match &self.problem {
            CaseProblem::Flowshop(p) => {
                checks::check_ranks(&solution.leaf_ranks, p.instance().jobs())?;
                Ok(makespan(
                    p.instance(),
                    &p.decode_ranks(&solution.leaf_ranks),
                ))
            }
            CaseProblem::Qap(p) => {
                checks::check_ranks(&solution.leaf_ranks, p.instance().n())?;
                Ok(p.instance().cost(&p.decode_ranks(&solution.leaf_ranks)))
            }
        }
    }
}

/// Seeded choices the program receives, besides the instances.
#[derive(Clone, Copy, Debug)]
pub struct SeedChoices {
    /// Seed of `RuntimeConfig::with_replicable` (qap-replicable).
    pub replicable: u64,
    /// Worker id base of `run_workers` (flowshop-tcp-wal).
    pub id_base: u64,
    /// Seed of the QAP location relabelling.
    pub relabel: u64,
}

impl SeedChoices {
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        SeedChoices {
            replicable: splitmix64(&mut state),
            id_base: (splitmix64(&mut state) % (1 << 20)) * 64,
            relabel: splitmix64(&mut state),
        }
    }
}

/// The instances of one pass, made from the seed. Taillard instances
/// are fixed by their published time seeds; QAP instances are the fixed
/// base instances with seeded location labels.
pub fn cases(workload: Workload, seed: u64) -> Vec<Case> {
    match workload {
        Workload::FlowshopInproc | Workload::FlowshopTcpWal => TAILLARD
            .iter()
            .map(|&(k, opt, short)| Case {
                name: format!("ta{:03}", taillard::TA_20_5.first_index + k - 1),
                short,
                reference: opt,
                problem: CaseProblem::Flowshop(FlowshopProblem::with_default_bound(
                    taillard::taillard_instance(&taillard::TA_20_5, k),
                )),
            })
            .collect(),
        Workload::QapReplicable => {
            let choices = SeedChoices::from_seed(seed);
            QAP.iter()
                .enumerate()
                .map(|(i, &(rows, cols, s, opt, short))| {
                    let base = QapInstance::nugent_style(rows, cols, s);
                    let inst = relabel_locations(&base, choices.relabel ^ i as u64);
                    Case {
                        name: format!("nug{rows}x{cols}-s{s}"),
                        short,
                        reference: opt,
                        problem: CaseProblem::Qap(QapProblem::with_default_bound(inst)),
                    }
                })
                .collect()
        }
    }
}

/// A bound TCP server with its workers' connections already open.
pub struct ServerSetup {
    server: NetServer,
    sockets: Vec<Mutex<Option<SocketTransport>>>,
}

fn tcp_server(case: &Case, backend: Arc<dyn StorageBackend>) -> Result<ServerSetup, String> {
    let root = match &case.problem {
        CaseProblem::Flowshop(p) => p.shape().root_range(),
        CaseProblem::Qap(p) => p.shape().root_range(),
    };
    let config = ServerConfig {
        shards: TCP_SHARDS,
        coordinator: CoordinatorConfig {
            initial_upper_bound: Some(case.reference + 1),
            ..CoordinatorConfig::default()
        },
        handler_threads: FLOWSHOP_WORKERS,
        durability: Some(DurabilityPolicy {
            backend,
            compact_every: TCP_COMPACT_EVERY,
        }),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", root, config).map_err(|e| e.to_string())?;
    let options = ClientOptions::default();
    let sockets = (0..FLOWSHOP_WORKERS)
        .map(|_| {
            SocketTransport::connect(server.local_addr(), &options).map(|t| Mutex::new(Some(t)))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    Ok(ServerSetup { server, sockets })
}

/// Everything one pass needs, built before its clock starts.
pub struct PassSetup {
    pub cases: Vec<Case>,
    pub choices: SeedChoices,
    servers: Vec<Option<ServerSetup>>,
}

/// Builds one pass: the problems and, over TCP, one bound server per
/// instance with its connections open and a fresh WAL backend (wrapped
/// in [`TimedBackend`] when `rec` is given).
pub fn setup(
    workload: Workload,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
) -> Result<PassSetup, String> {
    let cases = cases(workload, seed);
    let servers = if workload == Workload::FlowshopTcpWal {
        cases
            .iter()
            .map(|case| {
                let backend: Arc<dyn StorageBackend> = match rec {
                    Some(rec) => Arc::new(TimedBackend::new(MemoryBackend::new(), Arc::clone(rec))),
                    None => Arc::new(MemoryBackend::new()),
                };
                tcp_server(case, backend).map(Some)
            })
            .collect::<Result<_, _>>()?
    } else {
        cases.iter().map(|_| None).collect()
    };
    Ok(PassSetup {
        cases,
        choices: SeedChoices::from_seed(seed),
        servers,
    })
}

/// Per-worker times of one proof.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerTimes {
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub nodes_bounded: u64,
}

/// What one checked proof measured.
#[derive(Clone, Debug, Default)]
pub struct ProofRecord {
    pub name: String,
    pub short: bool,
    pub run: u32,
    pub wall_ns: u64,
    pub explored: u64,
    pub contacts: u64,
    pub contact_failures: u64,
    pub pruned: u64,
    pub nodes_bounded: u64,
    pub bound_batches: u64,
    pub workers: Vec<WorkerTimes>,
    /// All workers were driven from one thread (replicable mode).
    pub one_thread: bool,
    /// Wall time of the run as the program reports it.
    pub run_wall_ns: u64,
    pub farmer_busy_ns: u64,
    pub redundant_nodes: u64,
    pub coordinator: CoordinatorStats,
    pub steals: u64,
    pub router_contacts: u64,
    pub frames: u64,
    pub bundles: u64,
    pub protocol_errors: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    pub replay_ns: u64,
    /// Failed output checks; empty when the proof is correct.
    pub failures: Vec<String>,
}

/// Proves every instance of `setup` once. `traced` routes the problems
/// through [`TimedProblem`]; contacts are always timed.
pub fn run_pass(
    workload: Workload,
    setup: PassSetup,
    rec: &Recorder,
    traced: bool,
    next_run: &mut u32,
) -> Vec<ProofRecord> {
    // Each pass runs on its own thread pinned to the next CPU in turn;
    // the threads the program starts inherit the pin. A pass then never
    // waits for a second CPU, whose share of a shared machine comes and
    // goes, and every run samples every CPU: one CPU can stay ~40%
    // slower than the other for minutes.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = (*next_run as usize / setup.cases.len().max(1)) % cpus;
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                pin_to_cpu(cpu);
                prove_all(workload, setup, rec, traced, next_run)
            })
            .join()
            .expect("pass thread panicked")
    })
}

/// Pins the calling thread to one CPU; if the call fails the thread
/// stays unpinned, which changes only which CPU is timed.
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live array
    // of exactly `cpusetsize` bytes that the call only reads.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) {}

fn prove_all(
    workload: Workload,
    mut setup: PassSetup,
    rec: &Recorder,
    traced: bool,
    next_run: &mut u32,
) -> Vec<ProofRecord> {
    let pass_start = rec.now();
    let mut records = Vec::new();
    for (i, case) in setup.cases.iter().enumerate() {
        *next_run += 1;
        rec.set_run(*next_run);
        let server = setup.servers[i].take();
        let mut record = match &case.problem {
            CaseProblem::Flowshop(p) if traced => prove(
                workload,
                case,
                &TimedProblem::new(p, rec),
                server,
                setup.choices,
                rec,
            ),
            CaseProblem::Flowshop(p) => prove(workload, case, p, server, setup.choices, rec),
            CaseProblem::Qap(p) if traced => prove(
                workload,
                case,
                &TimedProblem::new(p, rec),
                server,
                setup.choices,
                rec,
            ),
            CaseProblem::Qap(p) => prove(workload, case, p, server, setup.choices, rec),
        };
        record.run = *next_run;
        records.push(record);
    }
    rec.record(Layer::Pass, pass_start, records.len() as u64);
    records
}

/// Runs `proof`, recording its wall time in `record` and as the proof's
/// span.
fn timed_proof<T>(rec: &Recorder, record: &mut ProofRecord, proof: impl FnOnce() -> T) -> T {
    let start = rec.now();
    let out = proof();
    let end = rec.now();
    rec.record_span(Layer::Proof, start, end, 1);
    record.wall_ns = end - start;
    out
}

/// One proof: timed from the call into the program until every thread
/// it started has returned; checks run afterwards, off the clock.
fn prove<P: Problem>(
    workload: Workload,
    case: &Case,
    problem: &P,
    server: Option<ServerSetup>,
    choices: SeedChoices,
    rec: &Recorder,
) -> ProofRecord {
    let ub = case.reference + 1;
    let mut record = ProofRecord {
        name: case.name.clone(),
        short: case.short,
        ..ProofRecord::default()
    };
    let outcome = match workload {
        Workload::FlowshopInproc => {
            let config = RuntimeConfig::new(FLOWSHOP_WORKERS).with_initial_upper_bound(ub);
            let report = timed_proof(rec, &mut record, || run(problem, &config));
            from_run_report(&report, &mut record)
        }
        Workload::QapReplicable => {
            let config = RuntimeConfig::new(QAP_WORKERS)
                .with_shards(QAP_SHARDS)
                .with_replicable(choices.replicable)
                .with_initial_upper_bound(ub);
            let report = timed_proof(rec, &mut record, || run(problem, &config));
            let mut outcome = from_run_report(&report, &mut record);
            record.one_thread = true;
            outcome.replay = Some(match &report.trace {
                Some(trace) => {
                    let t0 = rec.now();
                    let root = problem.shape().root_range();
                    let r = checks::replay_leaves_shards_empty(&trace.events(), &root, QAP_SHARDS);
                    rec.record(Layer::Replay, t0, trace.len() as u64);
                    record.replay_ns = rec.now() - t0;
                    record.trace_events = trace.len() as u64;
                    record.trace_bytes = trace.encode().len() as u64;
                    r
                }
                None => Err("replicable run returned no trace".into()),
            });
            outcome
        }
        Workload::FlowshopTcpWal => {
            let Some(setup) = server else {
                record.failures.push("no server was set up".into());
                return record;
            };
            prove_tcp(problem, ub, setup, choices, rec, &mut record)
        }
    };
    let cost_of = |s: &Solution| case.cost_of(s);
    record.failures = checks::check(&outcome, case.reference, &cost_of);
    record
}

fn prove_tcp<P: Problem>(
    problem: &P,
    ub: u64,
    setup: ServerSetup,
    choices: SeedChoices,
    rec: &Recorder,
    record: &mut ProofRecord,
) -> Outcome {
    let mut config = RuntimeConfig::new(FLOWSHOP_WORKERS).with_initial_upper_bound(ub);
    config.poll_nodes = TCP_POLL_NODES;
    let ServerSetup { server, sockets } = setup;
    let (reports, served) = timed_proof(rec, record, || {
        std::thread::scope(|scope| {
            let serving = scope.spawn(move || server.serve());
            let reports = run_workers(problem, &config, choices.id_base, |index| {
                let socket = sockets[index]
                    .lock()
                    .expect("connection slot poisoned")
                    .take()
                    .expect("one open connection per worker");
                TimedTransport::new(socket, rec)
            });
            (reports, serving.join())
        })
    });
    record.run_wall_ns = record.wall_ns;
    let mut outcome = Outcome {
        proven_optimum: None,
        solution: None,
        transport_failures: Vec::new(),
        server: None,
        replay: None,
    };
    for w in &reports {
        add_worker(record, w);
        if let Some(e) = &w.transport_failure {
            outcome.transport_failures.push(e.to_string());
        }
    }
    let server: Option<ServerReport> = match served {
        Ok(Ok(report)) => Some(report),
        Ok(Err(e)) => {
            outcome
                .transport_failures
                .push(format!("server failed: {e}"));
            None
        }
        Err(_) => {
            outcome
                .transport_failures
                .push("server thread panicked".into());
            None
        }
    };
    if let Some(s) = server {
        record.coordinator = s.coordinator_stats;
        record.steals = s.steals;
        record.router_contacts = s.router_contacts;
        record.frames = s.frames;
        record.bundles = s.bundles;
        record.protocol_errors = s.protocol_errors;
        // The clients learn the optimum through the server: the proof's
        // result is what the server reports.
        outcome.proven_optimum = s.proven_optimum;
        outcome.solution = s.solution;
        outcome.server = Some(ServerOutcome {
            terminated: s.terminated,
            remaining_is_zero: s.remaining.is_zero(),
            protocol_errors: s.protocol_errors,
        });
    }
    outcome
}

fn add_worker(record: &mut ProofRecord, w: &gridbnb_core::runtime::WorkerReport) {
    record.explored += w.stats.explored;
    record.pruned += w.stats.pruned;
    record.nodes_bounded += w.stats.nodes_bounded;
    record.bound_batches += w.stats.bound_batches;
    record.contacts += w.contacts;
    record.contact_failures += w.transport_retries + u64::from(w.transport_failure.is_some());
    record.redundant_nodes += w.redundant_nodes;
    record.workers.push(WorkerTimes {
        busy_ns: w.busy.as_nanos() as u64,
        wall_ns: w.wall.as_nanos() as u64,
        nodes_bounded: w.stats.nodes_bounded,
    });
}

fn from_run_report(report: &RunReport, record: &mut ProofRecord) -> Outcome {
    for w in &report.workers {
        add_worker(record, w);
    }
    record.run_wall_ns = report.wall.as_nanos() as u64;
    record.farmer_busy_ns = report.farmer_busy.as_nanos() as u64;
    record.coordinator = report.coordinator_stats;
    record.steals = report.steals;
    record.router_contacts = report.router_contacts;
    Outcome::from_run(report)
}
