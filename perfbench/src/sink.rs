//! Benchmark-owned observers handed to the program through its public seams: a
//! [`TraceSink`] that counts ops and times the phases between phase marks, and a
//! [`StorageBackend`] wrapper that counts and times what the journal asks of the disk.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fab_store::{FileBackend, StorageBackend, StorageError};
use fab_trace::{HeOp, OpCounts, OpTrace, TraceSink};

#[derive(Debug, Default)]
struct SinkState {
    counts: OpCounts,
    trace: Option<OpTrace>,
    open: Option<(String, Instant)>,
    last_op: Option<Instant>,
    phase_s: BTreeMap<String, f64>,
}

impl SinkState {
    fn close_at(&mut self, end: Instant) {
        if let Some((label, start)) = self.open.take() {
            let secs = end.saturating_duration_since(start).as_secs_f64();
            *self.phase_s.entry(label).or_default() += secs;
        }
    }
}

/// What a [`LayerSink`] saw since the last [`LayerSink::take`].
#[derive(Debug, Default)]
pub struct SinkReport {
    /// Ops by kind.
    pub counts: OpCounts,
    /// Wall seconds per phase label, summed over every visit of the phase.
    pub phase_s: BTreeMap<String, f64>,
    /// The full phase-marked trace, when the sink was built to record one.
    pub trace: Option<OpTrace>,
}

impl SinkReport {
    /// Seconds spent in `label` (0 when the phase never ran).
    pub fn phase(&self, label: &str) -> f64 {
        self.phase_s.get(label).copied().unwrap_or(0.0)
    }
}

/// Counts every recorded op and stamps each phase mark with wall time. A phase ends at the
/// next mark, or at the last op recorded before [`LayerSink::take`].
#[derive(Debug, Default)]
pub struct LayerSink {
    state: Mutex<SinkState>,
}

impl LayerSink {
    /// A sink that counts and times; with `record_trace` it also keeps the full trace.
    pub fn shared(record_trace: bool) -> Arc<Self> {
        let sink = Self::default();
        if record_trace {
            sink.lock().trace = Some(OpTrace::new("perfbench"));
        }
        Arc::new(sink)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state
            .lock()
            .expect("sink mutex poisoned by a panicking op")
    }

    /// Closes the open phase at the last recorded op and returns everything seen so far,
    /// leaving the sink empty.
    pub fn take(&self) -> SinkReport {
        let mut state = self.lock();
        let end = state.last_op.unwrap_or_else(Instant::now);
        state.close_at(end);
        let keep_trace = state.trace.is_some();
        let report = SinkReport {
            counts: std::mem::take(&mut state.counts),
            phase_s: std::mem::take(&mut state.phase_s),
            trace: state.trace.take(),
        };
        if keep_trace {
            state.trace = Some(OpTrace::new("perfbench"));
        }
        state.last_op = None;
        report
    }
}

impl TraceSink for LayerSink {
    fn record(&self, op: HeOp) {
        let mut state = self.lock();
        state.counts.record(op);
        if let Some(trace) = state.trace.as_mut() {
            trace.push(op);
        }
        state.last_op = Some(Instant::now());
    }

    fn begin_phase(&self, label: &str) {
        let now = Instant::now();
        let mut state = self.lock();
        state.close_at(now);
        state.open = Some((label.to_string(), now));
        if let Some(trace) = state.trace.as_mut() {
            trace.mark_phase(label);
        }
    }
}

/// Storage calls seen by a [`CountingBackend`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StoreCounts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub bytes_appended: u64,
    /// File fsyncs.
    pub syncs: u64,
    /// Directory fsyncs.
    pub dir_syncs: u64,
    /// Wall seconds inside file and directory fsyncs.
    pub sync_s: f64,
}

/// A [`FileBackend`] whose calls are counted, and whose fsyncs are timed, from outside.
#[derive(Debug)]
pub struct CountingBackend {
    inner: FileBackend,
    counts: Arc<Mutex<StoreCounts>>,
}

impl CountingBackend {
    /// Wraps `inner`, adding to `counts`, which the caller keeps to read them while the
    /// journal owns the backend.
    pub fn new(inner: FileBackend, counts: Arc<Mutex<StoreCounts>>) -> Self {
        Self { inner, counts }
    }

    fn count(&self, update: impl FnOnce(&mut StoreCounts)) {
        update(&mut self.counts.lock().expect("store counter mutex poisoned"));
    }
}

impl StorageBackend for CountingBackend {
    fn create(&mut self, path: &str) -> Result<(), StorageError> {
        self.inner.create(path)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.count(|c| {
            c.appends += 1;
            c.bytes_appended += bytes.len() as u64;
        });
        self.inner.append(path, bytes)
    }

    fn flush(&mut self, path: &str) -> Result<(), StorageError> {
        self.inner.flush(path)
    }

    fn sync(&mut self, path: &str) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.sync(path);
        let secs = start.elapsed().as_secs_f64();
        self.count(|c| {
            c.syncs += 1;
            c.sync_s += secs;
        });
        result
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.inner.remove(path)
    }

    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError> {
        self.inner.rename(src, dst)
    }

    fn sync_dir(&mut self) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.sync_dir();
        let secs = start.elapsed().as_secs_f64();
        self.count(|c| {
            c.dir_syncs += 1;
            c.sync_s += secs;
        });
        result
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn op_count(&self) -> u64 {
        self.inner.op_count()
    }
}
