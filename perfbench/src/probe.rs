//! Wrappers that time calls into each layer's public API from outside:
//! [`Traced`] around a replica host (`bayou_types::Process`), a
//! counting [`Context`], and [`TracedStorage`] around `FileStorage`
//! (`bayou_storage::Storage`).
//!
//! Every span and counter lives in memory — per-op spans in the
//! wrapper, which the cluster hands back at shutdown — and is read out
//! once the run ends. Counters only accumulate inside the measurement
//! [`Window`]; per-op spans are kept for every tagged op and joined with
//! the feeder's timed ops afterwards.

use bayou_core::ReplicaStats;
use bayou_server::KvHost;
use bayou_storage::{FileStorage, Storage, StorageError};
use bayou_types::{Context, GroupId, Process, ReplicaId, TimerId, Timestamp, VirtualTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The measurement window, in nanoseconds since the run's base instant.
pub struct Window {
    base: Instant,
    start: AtomicU64,
    end: AtomicU64,
}

impl Window {
    pub fn new() -> Arc<Window> {
        Arc::new(Window {
            base: Instant::now(),
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(u64::MAX),
        })
    }

    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&self) {
        self.start.store(self.now(), Ordering::SeqCst);
    }

    pub fn close(&self) {
        self.end.store(self.now(), Ordering::SeqCst);
    }

    pub fn contains(&self, t: u64) -> bool {
        t >= self.start.load(Ordering::Relaxed) && t < self.end.load(Ordering::Relaxed)
    }

    /// Length of the closed window in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end
            .load(Ordering::SeqCst)
            .saturating_sub(self.start.load(Ordering::SeqCst))
    }
}

/// What the storage wrapper of one replica saw.
#[derive(Default)]
pub struct StorageProbe {
    /// Nanoseconds spent in `sync` over the whole run (read by the
    /// process wrapper to attribute fsync time to an op's residence).
    pub sync_ns_total: AtomicU64,
    /// In-window counts.
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
    pub append_bytes: AtomicU64,
    /// In-window `sync` durations (ns).
    pub sync_samples: Mutex<Vec<u64>>,
}

/// `FileStorage` with its `append` and `sync` calls measured.
pub struct TracedStorage {
    inner: FileStorage,
    probe: Arc<StorageProbe>,
    window: Arc<Window>,
}

impl TracedStorage {
    pub fn new(inner: FileStorage, probe: Arc<StorageProbe>, window: Arc<Window>) -> Self {
        TracedStorage {
            inner,
            probe,
            window,
        }
    }
}

impl Storage for TracedStorage {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if self.window.contains(self.window.now()) {
            self.probe
                .append_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.inner.append(file, bytes)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let t0 = self.window.now();
        let r = self.inner.sync();
        let d = self.window.now() - t0;
        self.probe.sync_ns_total.fetch_add(d, Ordering::Relaxed);
        if self.window.contains(t0) {
            self.probe.syncs.fetch_add(1, Ordering::Relaxed);
            self.probe.sync_ns.fetch_add(d, Ordering::Relaxed);
            self.probe
                .sync_samples
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(d);
        }
        r
    }

    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(file)
    }

    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_atomic(file, bytes)
    }

    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.inner.remove(file)
    }

    fn exists(&self, file: &str) -> bool {
        self.inner.exists(file)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn take_sync_stall(&mut self) -> VirtualTime {
        self.inner.take_sync_stall()
    }
}

/// A [`Context`] that counts the messages a step sends.
struct CountingCtx<'a, M> {
    inner: &'a mut dyn Context<M>,
    sends: u64,
}

impl<M> Context<M> for CountingCtx<'_, M> {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    fn clock(&mut self) -> Timestamp {
        self.inner.clock()
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        self.sends += 1;
        self.inner.send(to, msg);
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        self.inner.set_timer(delay)
    }

    fn random(&mut self) -> u64 {
        self.inner.random()
    }

    fn omega(&mut self) -> ReplicaId {
        self.inner.omega()
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.inner.omega_for(lane)
    }
}

/// The handlers a step can run.
#[derive(Debug, Clone, Copy)]
pub enum Handler {
    Input = 0,
    Message = 1,
    Timer = 2,
    Internal = 3,
}

pub const HANDLERS: [(Handler, &str); 4] = [
    (Handler::Input, "input"),
    (Handler::Message, "message"),
    (Handler::Timer, "timer"),
    (Handler::Internal, "internal"),
];

/// One op's entry into a replica.
pub struct InputSpan {
    pub tag: u64,
    pub start: u64,
    pub step: u64,
    /// The replica's cumulative fsync time when the step began.
    pub sync_ns: u64,
}

/// One op's response leaving a replica (`drain_outputs`).
pub struct DrainSpan {
    pub tag: u64,
    pub at: u64,
    pub sync_ns: u64,
}

/// Everything one replica's wrapper recorded.
#[derive(Default)]
pub struct Spans {
    pub inputs: Vec<InputSpan>,
    pub drains: Vec<DrainSpan>,
    /// In-window step durations (ns) per [`Handler`].
    pub steps: [Vec<u64>; 4],
    /// In-window time inside any handler or `drain_outputs` (ns).
    pub busy_ns: u64,
    /// In-window messages sent and wire bytes.
    pub sends: u64,
    pub wire_bytes: u64,
    /// Tentative-list length after each in-window `on_input`.
    pub spec_depth: Vec<u64>,
    /// Replica counters at the first and last in-window step.
    pub stats_first: Option<ReplicaStats>,
    pub stats_last: Option<ReplicaStats>,
}

/// A replica host with every handler timed.
pub struct Traced<P> {
    inner: P,
    window: Arc<Window>,
    storage: Arc<StorageProbe>,
    pub spans: Spans,
}

impl<P> Traced<P> {
    pub fn new(inner: P, window: Arc<Window>, storage: Arc<StorageProbe>) -> Self {
        Traced {
            inner,
            window,
            storage,
            spans: Spans::default(),
        }
    }
}

type Msg = <KvHost as Process>::Msg;

impl Traced<KvHost> {
    /// Runs one handler under a counting context; records its duration
    /// (when `kind` is set) and what it sent and encoded.
    fn step<R>(
        &mut self,
        kind: Option<Handler>,
        ctx: &mut dyn Context<Msg>,
        f: impl FnOnce(&mut KvHost, &mut dyn Context<Msg>) -> R,
    ) -> (R, u64, u64) {
        let start = self.window.now();
        let mut counting = CountingCtx {
            inner: ctx,
            sends: 0,
        };
        let r = f(&mut self.inner, &mut counting);
        let dur = self.window.now() - start;
        let wire = self.inner.take_wire_bytes();
        if self.window.contains(start) {
            let s = &mut self.spans;
            if let Some(k) = kind {
                s.steps[k as usize].push(dur);
            }
            s.busy_ns += dur;
            s.sends += counting.sends;
            s.wire_bytes += wire;
            let stats = self.inner.group(GroupId::new(0)).stats();
            s.stats_first.get_or_insert(stats);
            s.stats_last = Some(stats);
        }
        (r, start, dur)
    }
}

impl Process for Traced<KvHost> {
    type Msg = Msg;
    type Input = <KvHost as Process>::Input;
    type Output = <KvHost as Process>::Output;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg>) {
        self.step(None, ctx, |h, c| h.on_start(c));
    }

    fn on_message(&mut self, from: ReplicaId, msg: Msg, ctx: &mut dyn Context<Msg>) {
        self.step(Some(Handler::Message), ctx, |h, c| {
            h.on_message(from, msg, c)
        });
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Msg>) {
        self.step(Some(Handler::Timer), ctx, |h, c| h.on_timer(timer, c));
    }

    fn on_input(&mut self, input: Self::Input, ctx: &mut dyn Context<Msg>) {
        let gid = input.0;
        let tag = input.1.tag;
        let sync_ns = self.storage.sync_ns_total.load(Ordering::Relaxed);
        let ((), start, step) = self.step(Some(Handler::Input), ctx, |h, c| h.on_input(input, c));
        if let Some(tag) = tag {
            self.spans.inputs.push(InputSpan {
                tag,
                start,
                step,
                sync_ns,
            });
        }
        if self.window.contains(start) {
            let depth = self.inner.group(gid).tentative_ids().len() as u64;
            self.spans.spec_depth.push(depth);
        }
    }

    fn on_internal(&mut self, ctx: &mut dyn Context<Msg>) -> bool {
        let start = self.window.now();
        let mut counting = CountingCtx {
            inner: ctx,
            sends: 0,
        };
        let progressed = self.inner.on_internal(&mut counting);
        if progressed {
            // a real step: account it like every other handler
            let dur = self.window.now() - start;
            let wire = self.inner.take_wire_bytes();
            if self.window.contains(start) {
                let s = &mut self.spans;
                s.steps[Handler::Internal as usize].push(dur);
                s.busy_ns += dur;
                s.sends += counting.sends;
                s.wire_bytes += wire;
            }
        } else if self.window.contains(start) {
            // the passive poll that ends every burst costs time too
            self.spans.busy_ns += self.window.now() - start;
        }
        progressed
    }

    fn drain_outputs(&mut self) -> Vec<Self::Output> {
        let start = self.window.now();
        let out = self.inner.drain_outputs();
        let at = self.window.now();
        let sync_ns = self.storage.sync_ns_total.load(Ordering::Relaxed);
        for (_, resp) in &out {
            if let Some(tag) = resp.tag {
                self.spans.drains.push(DrainSpan { tag, at, sync_ns });
            }
        }
        if self.window.contains(start) {
            self.spans.busy_ns += at - start;
        }
        out
    }

    fn take_storage_stall(&mut self) -> VirtualTime {
        self.inner.take_storage_stall()
    }

    // wire bytes are drained into the spans after every step; fsyncs
    // are counted where they happen, in `TracedStorage`

    fn has_failed(&self) -> bool {
        self.inner.has_failed()
    }
}
