//! Metric definitions, their computation from proof records and spans,
//! and the JSON the benchmark prints and the manifest it writes.

use crate::spans::{Layer, Span};
use crate::workload::{ProofRecord, Workload};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One metric: name, unit, which direction is better, and (end-to-end
/// only) the share of the parent's median by which it may get worse.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every workload from untraced passes (`--trace 0`).
/// Wall-clock figures get the widest bound: on a shared 2-core machine
/// the same proofs drift by ±20% between minutes. Counts and memory
/// repeat far more closely.
pub const END_TO_END: &[MetricDef] = &[
    e2e("proof_s", "s", "lower", 0.25),
    e2e("short_proof_s", "s", "lower", 0.25),
    e2e("nodes_per_s", "1/s", "higher", 0.25),
    e2e("nodes_explored", "count", "lower", 0.1),
    e2e("contacts_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Reported by every workload from traced passes (`--trace 1`); a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bound.calls", "count", "lower"),
    layer("bound.states", "count", "lower"),
    layer("bound.ns_per_state", "ns", "lower"),
    layer("bound.busy_share", "ratio", "lower"),
    layer("explorer.self_ns_per_node", "ns", "lower"),
    layer("explorer.branch_calls", "count", "lower"),
    layer("search.prune_frac", "ratio", "higher"),
    layer("search.pool_fill", "count", "higher"),
    layer("worker.busy_share", "ratio", "higher"),
    layer("worker.idle_s", "s", "lower"),
    layer("farmer.busy_share", "ratio", "lower"),
    layer("runtime.redundant_node_frac", "ratio", "lower"),
    layer("coordinator.work_allocations", "count", "lower"),
    layer("coordinator.partitions", "count", "lower"),
    layer("coordinator.updates", "count", "lower"),
    layer("coordinator.holders_expired", "count", "lower"),
    layer("shard.steals", "count", "lower"),
    layer("shard.router_contacts", "count", "lower"),
    layer("contact.ns_p50", "ns", "lower"),
    layer("contact.ns_p99", "ns", "lower"),
    layer("net.frames", "count", "lower"),
    layer("net.bundles", "count", "lower"),
    layer("net.frames_per_bundle", "count", "higher"),
    layer("net.protocol_errors", "count", "lower"),
    layer("wal.append_calls", "count", "lower"),
    layer("wal.append_bytes", "B", "lower"),
    layer("wal.append_ns_p50", "ns", "lower"),
    layer("wal.append_ns_p99", "ns", "lower"),
    layer("wal.put_calls", "count", "lower"),
    layer("wal.put_bytes", "B", "lower"),
    layer("wal.busy_share", "ratio", "lower"),
    layer("trace.events", "count", "lower"),
    layer("trace.bytes", "B", "lower"),
    layer("trace.replay_s", "s", "lower"),
    layer("budget.bound_share", "ratio", "lower"),
    layer("budget.explorer_share", "ratio", "lower"),
    layer("budget.contact_idle_share", "ratio", "lower"),
    layer("budget.rest_share", "ratio", "lower"),
    layer("bench.trace_overhead", "ratio", "lower"),
];

/// Median of `values`: the lower middle for an even count, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
    v[rank.clamp(1, v.len()) - 1] + 0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall time of a pass: the sum of its proofs.
pub fn pass_proof_s(records: &[ProofRecord]) -> f64 {
    records.iter().map(|r| r.wall_ns as f64).sum::<f64>() / 1e9
}

/// End-to-end figures from untraced passes (all but `setup_s` and
/// `peak_rss_mb`, which are taken per run). Each instance's proof time
/// is its fastest proof of the run, and `proof_s` sums them over the
/// instance list: on a shared machine, interference only ever adds
/// time, and the minimum was the steadiest statistic between runs.
/// Counts are each instance's median, summed the same way.
/// `short_proof_s` is the mean over the short instances of their
/// fastest proofs: each seed reorders the QAP search, which moves a
/// small instance's node count by ±20%, and the mean of eight evens
/// that out where their median did not.
pub fn end_to_end<R: AsRef<[ProofRecord]>>(passes: &[R]) -> BTreeMap<&'static str, f64> {
    let instances = passes.first().map_or(0, |p| p.as_ref().len());
    let per_instance = |i: usize, f: &dyn Fn(&ProofRecord) -> f64| -> Vec<f64> {
        passes.iter().map(|p| f(&p.as_ref()[i])).collect()
    };
    let fastest = |i: usize| percentile(&per_instance(i, &|r| r.wall_ns as f64 / 1e9), 0.0);
    let proof_s: f64 = (0..instances).map(fastest).sum();
    let explored: f64 = (0..instances)
        .map(|i| median(&per_instance(i, &|r| r.explored as f64)))
        .sum();
    let contacts: f64 = (0..instances)
        .map(|i| median(&per_instance(i, &|r| r.contacts as f64)))
        .sum();
    let short: Vec<f64> = (0..instances)
        .filter(|&i| passes.first().is_some_and(|p| p.as_ref()[i].short))
        .map(fastest)
        .collect();
    let short_proof_s = short.iter().sum::<f64>() / short.len().max(1) as f64;
    BTreeMap::from([
        ("proof_s", proof_s),
        ("short_proof_s", short_proof_s),
        ("nodes_per_s", ratio(explored, proof_s)),
        ("nodes_explored", explored),
        ("contacts_per_s", ratio(contacts, proof_s)),
    ])
}

/// Durations in ns of the spans of one layer.
pub fn span_ns(spans: &[Span], layer: Layer) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns() as f64)
        .collect()
}

/// One worker's split of a proof's wall time, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    pub bound: f64,
    pub explorer: f64,
    pub contact_idle: f64,
    pub rest: f64,
}

impl Budget {
    pub fn total(&self) -> f64 {
        self.bound + self.explorer + self.contact_idle + self.rest
    }

    fn add(&mut self, o: &Budget) {
        self.bound += o.bound;
        self.explorer += o.explorer;
        self.contact_idle += o.contact_idle;
        self.rest += o.rest;
    }
}

/// Splits each worker's share of a traced proof's wall time into bound
/// (its thread's bound spans), explorer self time (busy minus bound),
/// contact/idle (wall minus busy) and the rest (proof wall minus the
/// worker's wall). Bound spans are matched to workers through the
/// number of states each thread bounded, which equals the worker's
/// `nodes_bounded`. A replicable run drives every logical worker from
/// one thread, so it yields a single row.
pub fn proof_budget(record: &ProofRecord, spans: &[Span]) -> Vec<Budget> {
    let mut per_thread: HashMap<u32, (f64, u64)> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.run == record.run && s.layer == Layer::Bound)
    {
        let e = per_thread.entry(s.thread).or_default();
        e.0 += s.ns() as f64;
        e.1 += s.items;
    }
    let wall = record.wall_ns as f64;
    if record.one_thread {
        let bound: f64 = per_thread.values().map(|v| v.0).sum();
        let busy: f64 = record.workers.iter().map(|w| w.busy_ns as f64).sum();
        let run_wall = record.run_wall_ns as f64;
        return vec![Budget {
            bound,
            explorer: busy - bound,
            contact_idle: run_wall - busy,
            rest: wall - run_wall,
        }];
    }
    let mut threads: Vec<(u32, (f64, u64))> = per_thread.into_iter().collect();
    threads.sort_by_key(|t| t.0);
    record
        .workers
        .iter()
        .map(|w| {
            let nearest = threads
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.1 .1.abs_diff(w.nodes_bounded))
                .map(|(i, _)| i);
            let bound = nearest.map(|i| threads.remove(i).1 .0).unwrap_or(0.0);
            Budget {
                bound,
                explorer: w.busy_ns as f64 - bound,
                contact_idle: w.wall_ns.saturating_sub(w.busy_ns) as f64,
                rest: wall - w.wall_ns as f64,
            }
        })
        .collect()
}

/// Sums per-worker budgets over proofs, row by row.
pub fn sum_budgets(rows: &mut Vec<Budget>, proof: &[Budget]) {
    if rows.len() < proof.len() {
        rows.resize(proof.len(), Budget::default());
    }
    for (r, b) in rows.iter_mut().zip(proof) {
        r.add(b);
    }
}

/// Per-layer figures of one traced pass.
pub fn pass_per_layer(
    records: &[ProofRecord],
    spans: &[Span],
    branch_calls: u64,
) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&ProofRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let bound_ns: f64 = span_ns(spans, Layer::Bound).iter().sum();
    let bound_calls = span_ns(spans, Layer::Bound).len() as f64;
    let bound_states: f64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Bound)
        .map(|s| s.items as f64)
        .sum();
    let busy = sum(&|r| r.workers.iter().map(|w| w.busy_ns).sum());
    let wall = sum(&|r| r.workers.iter().map(|w| w.wall_ns).sum());
    let explored = sum(&|r| r.explored);
    let proof_ns = sum(&|r| r.wall_ns);
    let contact = span_ns(spans, Layer::Contact);
    let append = span_ns(spans, Layer::WalAppend);
    let put = span_ns(spans, Layer::WalPut);
    let bytes = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.items as f64)
            .sum()
    };
    let mut budget = Budget::default();
    for r in records {
        for b in proof_budget(r, spans) {
            budget.add(&b);
        }
    }
    let budget_total = budget.total();
    BTreeMap::from([
        ("bound.calls", bound_calls),
        ("bound.states", bound_states),
        ("bound.ns_per_state", ratio(bound_ns, bound_states)),
        ("bound.busy_share", ratio(bound_ns, busy)),
        (
            "explorer.self_ns_per_node",
            ratio(busy - bound_ns, explored),
        ),
        ("explorer.branch_calls", branch_calls as f64),
        ("search.prune_frac", ratio(sum(&|r| r.pruned), explored)),
        (
            "search.pool_fill",
            ratio(sum(&|r| r.nodes_bounded), sum(&|r| r.bound_batches)),
        ),
        ("worker.busy_share", ratio(busy, wall)),
        ("worker.idle_s", (wall - busy) / 1e9),
        (
            "farmer.busy_share",
            ratio(sum(&|r| r.farmer_busy_ns), sum(&|r| r.run_wall_ns)),
        ),
        (
            "runtime.redundant_node_frac",
            ratio(sum(&|r| r.redundant_nodes), explored),
        ),
        (
            "coordinator.work_allocations",
            sum(&|r| r.coordinator.work_allocations),
        ),
        ("coordinator.partitions", sum(&|r| r.coordinator.partitions)),
        ("coordinator.updates", sum(&|r| r.coordinator.updates)),
        (
            "coordinator.holders_expired",
            sum(&|r| r.coordinator.holders_expired),
        ),
        ("shard.steals", sum(&|r| r.steals)),
        ("shard.router_contacts", sum(&|r| r.router_contacts)),
        ("contact.ns_p50", percentile(&contact, 50.0)),
        ("contact.ns_p99", percentile(&contact, 99.0)),
        ("net.frames", sum(&|r| r.frames)),
        ("net.bundles", sum(&|r| r.bundles)),
        (
            "net.frames_per_bundle",
            ratio(sum(&|r| r.frames), sum(&|r| r.bundles)),
        ),
        ("net.protocol_errors", sum(&|r| r.protocol_errors)),
        ("wal.append_calls", append.len() as f64),
        ("wal.append_bytes", bytes(Layer::WalAppend)),
        ("wal.append_ns_p50", percentile(&append, 50.0)),
        ("wal.append_ns_p99", percentile(&append, 99.0)),
        ("wal.put_calls", put.len() as f64),
        ("wal.put_bytes", bytes(Layer::WalPut)),
        (
            "wal.busy_share",
            ratio(append.iter().chain(&put).sum::<f64>(), proof_ns),
        ),
        ("trace.events", sum(&|r| r.trace_events)),
        ("trace.bytes", sum(&|r| r.trace_bytes)),
        ("trace.replay_s", sum(&|r| r.replay_ns) / 1e9),
        ("budget.bound_share", ratio(budget.bound, budget_total)),
        (
            "budget.explorer_share",
            ratio(budget.explorer, budget_total),
        ),
        (
            "budget.contact_idle_share",
            ratio(budget.contact_idle, budget_total),
        ),
        ("budget.rest_share", ratio(budget.rest, budget_total)),
    ])
}

/// Formats a number for JSON with all its digits (non-finite as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
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

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The command the manifest names; the driver appends the run's flags.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "ttpbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The `BENCHMARK.json` manifest, generated from the definitions above
/// so the checked-in file and the benchmark cannot drift apart.
pub fn manifest() -> String {
    let list = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map(|b| format!(", \"bound\": {}", json_num(b)))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    json_str(d.name),
                    json_str(d.unit),
                    json_str(d.better)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"ttpbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}
