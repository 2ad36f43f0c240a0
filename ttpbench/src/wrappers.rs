//! Thin timing wrappers around the program's public extension points.
//!
//! Each wrapper forwards every call unchanged and only records how long
//! the call took. Forwarding must be complete: a wrapper that left out
//! an overridden trait method (say `Problem::lower_bound_batch`) would
//! fall back to the trait's default, and the traced run would measure a
//! different program. The tests pin this by comparing byte-identical
//! replicable traces with and without the wrapper.

use crate::spans::{Layer, Recorder};
use gridbnb_core::{Problem, Request, Response, StorageBackend, Transport, TransportError};
use gridbnb_engine::TreeShape;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Times every bounding call of a [`Problem`] and counts branch calls.
pub struct TimedProblem<'a, P> {
    inner: &'a P,
    rec: &'a Recorder,
}

impl<'a, P> TimedProblem<'a, P> {
    pub fn new(inner: &'a P, rec: &'a Recorder) -> Self {
        TimedProblem { inner, rec }
    }
}

impl<P: Problem> Problem for TimedProblem<'_, P> {
    type State = P::State;

    fn shape(&self) -> TreeShape {
        self.inner.shape()
    }

    fn root_state(&self) -> Self::State {
        self.inner.root_state()
    }

    fn branch(&self, state: &Self::State, rank: u64) -> Self::State {
        self.rec.count_branch();
        self.inner.branch(state, rank)
    }

    fn lower_bound(&self, state: &Self::State) -> u64 {
        let t0 = self.rec.now();
        let b = self.inner.lower_bound(state);
        self.rec.record(Layer::Bound, t0, 1);
        b
    }

    fn lower_bound_against(&self, state: &Self::State, cutoff: u64) -> u64 {
        let t0 = self.rec.now();
        let b = self.inner.lower_bound_against(state, cutoff);
        self.rec.record(Layer::Bound, t0, 1);
        b
    }

    fn lower_bound_batch(&self, states: &[Self::State], cutoff: u64, out: &mut Vec<u64>) {
        let t0 = self.rec.now();
        self.inner.lower_bound_batch(states, cutoff, out);
        self.rec.record(Layer::Bound, t0, states.len() as u64);
    }

    fn leaf_cost(&self, state: &Self::State) -> u64 {
        self.inner.leaf_cost(state)
    }
}

/// Times every contact of a [`Transport`]; failed contacts are recorded
/// with zero items so they can be counted.
pub struct TimedTransport<'a, T> {
    inner: T,
    rec: &'a Recorder,
}

impl<'a, T> TimedTransport<'a, T> {
    pub fn new(inner: T, rec: &'a Recorder) -> Self {
        TimedTransport { inner, rec }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        let sent = requests.len() as u64;
        let t0 = self.rec.now();
        let result = self.inner.contact(requests);
        let items = if result.is_ok() { sent } else { 0 };
        self.rec.record(Layer::Contact, t0, items);
        result
    }
}

/// Times every write of a [`StorageBackend`] (the WAL's appends and
/// snapshot puts); reads and listings are forwarded untimed.
pub struct TimedBackend<B> {
    inner: B,
    rec: Arc<Recorder>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, rec: Arc<Recorder>) -> Self {
        TimedBackend { inner, rec }
    }
}

impl<B: fmt::Debug> fmt::Debug for TimedBackend<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedBackend").field(&self.inner).finish()
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t0 = self.rec.now();
        let r = self.inner.put(name, bytes);
        self.rec.record(Layer::WalPut, t0, bytes.len() as u64);
        r
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t0 = self.rec.now();
        let r = self.inner.append(name, bytes);
        self.rec.record(Layer::WalAppend, t0, bytes.len() as u64);
        r
    }

    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.get(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}
