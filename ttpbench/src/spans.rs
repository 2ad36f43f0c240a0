//! In-memory span recorder for the benchmark's wrappers.
//!
//! A span is one call into a layer: its name, the thread that made it,
//! start and end on one monotonic clock, the proof (run id) it belongs
//! to, and a per-span item count (states bounded, requests sent, bytes
//! appended). Spans are kept in memory and written out once, at the end
//! of a run, so recording stays off the file system while timing.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-thread slots: a thread records into its own slot, so the lock is
/// uncontended as long as fewer threads than slots record at once.
const SLOTS: usize = 16;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// A small process-wide number for the calling thread.
pub fn thread_no() -> u32 {
    THREAD_NO.with(|n| *n)
}

/// Layer boundaries the wrappers record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One pass over a workload's instance list.
    Pass,
    /// One proof (the parent of every span recorded during it).
    Proof,
    /// One bounding call (`lower_bound*`) through `TimedProblem`.
    Bound,
    /// One `Transport::contact` through `TimedTransport`.
    Contact,
    /// One `StorageBackend::append` through `TimedBackend`.
    WalAppend,
    /// One `StorageBackend::put` through `TimedBackend`.
    WalPut,
    /// Replaying a run-trace through `TraceReplayer`.
    Replay,
}

impl Layer {
    /// The span name written out.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Proof => "proof",
            Layer::Bound => "bound",
            Layer::Contact => "contact",
            Layer::WalAppend => "wal.append",
            Layer::WalPut => "wal.put",
            Layer::Replay => "trace.replay",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// The proof this span belongs to (its parent span's run id).
    pub run: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[repr(align(64))]
#[derive(Default)]
struct Slot {
    spans: Mutex<Vec<Span>>,
    /// Calls counted without a span (`Problem::branch`).
    branch_calls: AtomicU64,
}

/// Collects spans from every thread of a run.
pub struct Recorder {
    epoch: Instant,
    run: AtomicU32,
    slots: Vec<Slot>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            run: AtomicU32::new(0),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the run id every following span is attributed to.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn slot(&self) -> &Slot {
        &self.slots[thread_no() as usize % SLOTS]
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, layer: Layer, start_ns: u64, items: u64) {
        self.record_span(layer, start_ns, self.now(), items);
    }

    /// Records a span from `start_ns` to `end_ns`.
    pub fn record_span(&self, layer: Layer, start_ns: u64, end_ns: u64, items: u64) {
        let span = Span {
            layer,
            run: self.run.load(Ordering::Relaxed),
            thread: thread_no(),
            start_ns,
            end_ns,
            items,
        };
        self.slot()
            .spans
            .lock()
            .expect("span slot poisoned")
            .push(span);
    }

    /// Counts one `Problem::branch` call.
    pub fn count_branch(&self) {
        self.slot().branch_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes and returns every span recorded so far, oldest first.
    pub fn drain(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for slot in &self.slots {
            all.append(&mut slot.spans.lock().expect("span slot poisoned"));
        }
        all.sort_by_key(|s| (s.start_ns, s.end_ns));
        all
    }

    /// Removes and returns the branch calls counted so far.
    pub fn take_branch_calls(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.branch_calls.swap(0, Ordering::Relaxed))
            .sum()
    }
}

/// Writes spans as tab-separated lines: run, name, parent, thread,
/// start_ns, end_ns, items. The parent of a proof is its pass; the
/// parent of every other span is the proof it ran in.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("run\tname\tparent\tthread\tstart_ns\tend_ns\titems\n");
    for s in spans {
        let parent = match s.layer {
            Layer::Pass => "-",
            Layer::Proof => "pass",
            _ => "proof",
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.run,
            s.layer.name(),
            parent,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.items
        );
    }
    std::fs::write(path, out)
}
