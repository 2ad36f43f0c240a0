//! `ttpbench`: time-to-proof benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ttpbench/Cargo.toml -- \
//!     --workload <flowshop-inproc|flowshop-tcp-wal|qap-replicable|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path ttpbench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```
//!
//! A run builds its inputs from the seed, sets up a pass several times
//! (timing each set-up), proves one warm-up pass, then proves passes for
//! `--seconds`. With `--trace 0` the passes run untraced and the last
//! line reports the end-to-end metrics; one traced pass follows, for the
//! tracing overhead and the time budget. With `--trace 1` untraced and
//! traced passes alternate and the last line reports the per-layer
//! metrics. Every proof is checked; a failed check makes the exit code 1.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttpbench::metrics::{self, Budget, END_TO_END, PER_LAYER};
use ttpbench::spans::{write_spans, Layer, Recorder, Span};
use ttpbench::workload::{self, ProofRecord, Workload, DEFAULT_SEED};

/// Set-ups made and dropped before the warm-up; their times join `setup_s`.
const SETUP_REPS: usize = 5;
/// Fewest untraced passes a run measures, however short `--seconds`.
const MIN_PASSES: usize = 2;

const USAGE: &str =
    "usage: ttpbench --workload <flowshop-inproc|flowshop-tcp-wal|qap-replicable|all> \
[--seed N] [--seconds S] [--trace 0|1] | --write-manifest PATH";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_manifest: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        write_manifest: None,
    };
    let mut workload_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload_given = true;
                if v != "all" {
                    args.workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--write-manifest" => args.write_manifest = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workload_given && args.write_manifest.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` next to the benchmark
/// (no process is started); "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(git.join(name)) {
        return commit;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|c| c.trim().to_string())
                    .filter(|c| !c.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct WorkloadResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` for the result line.
    metrics: Vec<(String, f64, &'static str)>,
}

/// Attempts and failures over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn add(&mut self, records: &[ProofRecord]) {
        for r in records {
            self.attempted += 1 + r.contacts + r.contact_failures;
            self.failed += u64::from(!r.failures.is_empty()) + r.contact_failures;
            for f in &r.failures {
                self.messages.push(format!("{}: {f}", r.name));
            }
            if r.contact_failures > 0 {
                self.messages.push(format!(
                    "{}: {} contact attempts failed (retried or fatal)",
                    r.name, r.contact_failures
                ));
            }
        }
    }
}

/// A traced pass, reduced as soon as it ends so its spans can go.
struct TracedPass {
    records: Vec<ProofRecord>,
    layers: BTreeMap<&'static str, f64>,
    /// Per-worker time budget summed over the pass's proofs.
    budget: Vec<Budget>,
}

fn traced_pass(records: Vec<ProofRecord>, spans: &[Span], branch_calls: u64) -> TracedPass {
    let mut budget = Vec::new();
    for r in &records {
        metrics::sum_budgets(&mut budget, &metrics::proof_budget(r, spans));
    }
    TracedPass {
        layers: metrics::pass_per_layer(&records, spans, branch_calls),
        records,
        budget,
    }
}

fn run_workload(w: Workload, seed: u64, run_seconds: u64, trace: bool) -> WorkloadResult {
    println!(
        "# workload {} seed {seed} seconds {run_seconds} trace {}",
        w.name(),
        u8::from(trace)
    );
    let rec = Arc::new(Recorder::new());
    let mut next_run = 0u32;
    let mut tally = Tally::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let setup_pass = |traced: bool, setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let setup = workload::setup(w, seed, traced.then_some(&rec)).unwrap_or_else(|e| {
            eprintln!("set-up failed: {e}");
            std::process::exit(1);
        });
        if !traced {
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        setup
    };
    for _ in 0..SETUP_REPS {
        drop(setup_pass(false, &mut setup_s));
    }

    // Warm-up: caches, lazy set-up and thread stacks; checked, not timed.
    let setup = setup_pass(false, &mut setup_s);
    tally.add(&workload::run_pass(w, setup, &rec, false, &mut next_run));
    rec.drain();
    rec.take_branch_calls();

    let mut untraced: Vec<Vec<ProofRecord>> = Vec::new();
    let mut contact_us: Vec<f64> = Vec::new();
    let mut peak_rss = None;
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut last_spans: Vec<Span> = Vec::new();
    let mut run_traced = |next_run: &mut u32, setup_s: &mut Vec<f64>, tally: &mut Tally| {
        let setup = setup_pass(true, setup_s);
        let records = workload::run_pass(w, setup, &rec, true, next_run);
        tally.add(&records);
        last_spans = rec.drain();
        traced.push(traced_pass(records, &last_spans, rec.take_branch_calls()));
    };
    let deadline = Instant::now() + Duration::from_secs(run_seconds);
    loop {
        let setup = setup_pass(false, &mut setup_s);
        let records = workload::run_pass(w, setup, &rec, false, &mut next_run);
        contact_us.extend(
            rec.drain()
                .iter()
                .filter(|s| s.layer == Layer::Contact)
                .map(|s| s.ns() as f64 / 1e3),
        );
        rec.take_branch_calls();
        tally.add(&records);
        untraced.push(records);
        if peak_rss.is_none() {
            // The program's footprint after warm-up and one pass, before
            // the benchmark's own buffers grow with the run's length.
            peak_rss = Some(peak_rss_mb());
        }
        if trace {
            run_traced(&mut next_run, &mut setup_s, &mut tally);
        }
        let enough = untraced.len() >= MIN_PASSES;
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = peak_rss.flatten();
    if !trace {
        // One traced pass for the tracing overhead and the time budget.
        run_traced(&mut next_run, &mut setup_s, &mut tally);
    }

    // End-to-end figures from the untraced passes.
    let mut e2e = metrics::end_to_end(&untraced);
    e2e.insert("setup_s", metrics::median(&setup_s));
    e2e.insert("peak_rss_mb", peak_rss.unwrap_or(0.0));

    // Per-layer figures from the traced passes.
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for def in PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|t| t.layers.get(def.name).copied())
            .collect();
        layers.insert(def.name, metrics::median(&values));
    }
    // Medians on both sides: a trace-0 run has a single traced pass.
    let traced_s: Vec<f64> = traced
        .iter()
        .map(|t| metrics::pass_proof_s(&t.records))
        .collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|p| metrics::pass_proof_s(p)).collect();
    let overhead = metrics::median(&traced_s) / metrics::median(&untraced_s);
    layers.insert("bench.trace_overhead", overhead);

    print_report(
        w,
        &untraced,
        &e2e,
        &layers,
        &traced,
        &contact_us,
        &setup_s,
        &tally,
    );

    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("spans-{}.tsv", w.name()));
    match write_spans(&path, &last_spans) {
        Ok(()) => println!(
            "# {} spans of the last traced pass: {}",
            last_spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans not written: {e}"),
    }

    let mut failed = tally.failed;
    if peak_rss.is_none() {
        println!("# check failed: peak RSS unreadable");
        failed += 1;
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let values = if trace { &layers } else { &e2e };
    WorkloadResult {
        correct: failed == 0,
        attempted: tally.attempted,
        failed,
        metrics: defs
            .iter()
            .map(|d| (d.name.to_string(), values[d.name], d.unit))
            .collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    w: Workload,
    untraced: &[Vec<ProofRecord>],
    e2e: &BTreeMap<&str, f64>,
    layers: &BTreeMap<&str, f64>,
    traced: &[TracedPass],
    contact_us: &[f64],
    setup_s: &[f64],
    tally: &Tally,
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# env nproc {nproc} commit {} profile {profile} trace_overhead {:.4}",
        git_commit(),
        layers["bench.trace_overhead"]
    );
    println!(
        "# {} untraced passes, {} traced passes, {} set-ups",
        untraced.len(),
        traced.len(),
        setup_s.len()
    );
    // Each instance's median proof time.
    if let Some(first) = untraced.first() {
        for (i, r) in first.iter().enumerate() {
            let walls: Vec<f64> = untraced.iter().map(|p| p[i].wall_ns as f64 / 1e9).collect();
            let nodes: Vec<f64> = untraced.iter().map(|p| p[i].explored as f64).collect();
            println!(
                "instance {:<14} fastest_s {:.4} median_s {:.4} nodes {:.0}{}",
                r.name,
                metrics::percentile(&walls, 0.0),
                metrics::median(&walls),
                metrics::median(&nodes),
                if r.short { " (short)" } else { "" }
            );
        }
    }
    let pass_s: Vec<f64> = untraced.iter().map(|p| metrics::pass_proof_s(p)).collect();
    println!(
        "# pass wall time over {} passes: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} s",
        pass_s.len(),
        metrics::percentile(&pass_s, 0.0),
        metrics::percentile(&pass_s, 25.0),
        metrics::median(&pass_s),
        metrics::percentile(&pass_s, 75.0),
        metrics::percentile(&pass_s, 100.0)
    );
    println!("-- end-to-end (untraced; fastest proof per instance, median counts) --");
    for d in END_TO_END {
        println!("{:<32} {:>16.6} {}", d.name, e2e[d.name], d.unit);
    }
    if w == Workload::FlowshopTcpWal {
        println!(
            "{:<32} {:>16.3} us (of {} contacts)",
            "contact_p50_us",
            metrics::percentile(contact_us, 50.0),
            contact_us.len()
        );
        println!(
            "{:<32} {:>16.3} us",
            "contact_p99_us",
            metrics::percentile(contact_us, 99.0)
        );
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<32} {:>16.6} (failed {} of {} proofs and contacts attempted)",
        "failed_frac", failed_frac, tally.failed, tally.attempted
    );
    for m in &tally.messages {
        println!("# check failed: {m}");
    }
    println!("-- per-layer (traced; medians over traced passes) --");
    for d in PER_LAYER {
        println!("{:<32} {:>16.6} {}", d.name, layers[d.name], d.unit);
    }
    println!("-- time budget (traced; share of each worker's proof wall time) --");
    let mut rows: Vec<Budget> = Vec::new();
    for t in traced {
        metrics::sum_budgets(&mut rows, &t.budget);
    }
    let one_thread = traced.iter().flat_map(|t| &t.records).any(|r| r.one_thread);
    for (i, b) in rows.iter().enumerate() {
        let t = b.total().max(1.0);
        let who = if one_thread {
            "driver thread (all logical workers)".to_string()
        } else {
            format!("worker {i}")
        };
        println!(
            "{who:<36} bound {:5.1}%  explorer {:5.1}%  contact/idle {:5.1}%  rest {:5.1}%",
            100.0 * b.bound / t,
            100.0 * b.explorer / t,
            100.0 * b.contact_idle / t,
            100.0 * b.rest / t
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_manifest {
        return match std::fs::write(path, metrics::manifest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "# out of scope: the grid simulator (paper-figure reproducer, no user latency) and tsp"
    );
    let result = match args.workload {
        Some(w) => run_workload(w, args.seed, args.seconds, args.trace),
        None => {
            let mut all = WorkloadResult {
                correct: true,
                attempted: 0,
                failed: 0,
                metrics: Vec::new(),
            };
            for w in Workload::ALL {
                let r = run_workload(w, args.seed, args.seconds, args.trace);
                println!(
                    "# {} {}",
                    w.name(),
                    metrics::result_json(r.correct, r.attempted, r.failed, &r.metrics)
                );
                all.correct &= r.correct;
                all.attempted += r.attempted;
                all.failed += r.failed;
                all.metrics.extend(
                    r.metrics
                        .into_iter()
                        .map(|(name, v, unit)| (format!("{}.{name}", w.name()), v, unit)),
                );
            }
            all
        }
    };
    println!(
        "{}",
        metrics::result_json(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
