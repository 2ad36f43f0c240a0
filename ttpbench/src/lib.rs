//! Time-to-proof benchmark for the grid-enabled branch and bound.
//!
//! Three workloads prove optima through the program's public entry
//! points (`runtime::run`, `runtime::run_workers`, `NetServer`,
//! `SocketTransport`, `MemoryBackend`, `TraceReplayer`), check every
//! proof against a reference, and report end-to-end metrics from
//! untraced passes and per-layer metrics from traced ones. Layers are
//! timed from outside, by wrappers around `Problem`, `Transport` and
//! `StorageBackend`; no program code is instrumented.
//!
//! Out of scope: the `grid` simulator (a paper-figure reproducer with no
//! user-facing latency) and `tsp`.

pub mod checks;
pub mod metrics;
pub mod spans;
pub mod workload;
pub mod wrappers;
