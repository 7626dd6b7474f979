//! The traced run's instruments, all on the benchmark's side of the
//! program's public interfaces:
//!
//! * [`Traced`] hosts a `DbPeer` as a `Peer` of its own, times every
//!   `on_envelope` by `Wire::kind()`, and times `Wire::wire_size_with` on
//!   each delivered message outside that span;
//! * [`TimingBackend`] is a `StorageBackend` that times and counts every
//!   frame and snapshot, attached through `DbPeer::attach_storage`;
//! * [`WorkerPasses`] collects `p2p_net::codec::encode_passes` from worker
//!   threads as they exit, since that counter is thread-local.
//!
//! A handler's self time excludes the storage time spent inside it, which
//! is the only child span the benchmark can see.

use crate::host::Hosted;
use p2p_core::ProtocolMsg;
use p2p_net::codec::encode_passes;
use p2p_net::{Codec, Context, Peer, Wire};
use p2p_storage::{MemoryBackend, StorageBackend, StorageError};
use p2p_topology::NodeId;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Message kinds the per-layer metrics break handler time down by.
pub const KINDS: [&str; 5] = ["UpdateFlood", "Query", "Answer", "Ack", "Fixpoint"];

/// Slot of every other kind (session start commands, ...).
const OTHER: usize = KINDS.len();

fn kind_slot(kind: &str) -> usize {
    KINDS.iter().position(|k| *k == kind).unwrap_or(OTHER)
}

/// Counters and spans of delivered messages, per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Handler self time per kind, in nanoseconds.
    pub handler_ns: [u64; KINDS.len() + 1],
    /// Deliveries per kind.
    pub count: [u64; KINDS.len() + 1],
    /// Time spent in `wire_size_with` on delivered messages.
    pub size_ns: u64,
    /// Encode passes those sizing calls made (not the program's own).
    pub size_passes: u64,
    /// Storage time inside handlers, in nanoseconds.
    pub storage_ns: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        for i in 0..self.count.len() {
            self.handler_ns[i] += other.handler_ns[i];
            self.count[i] += other.count[i];
        }
        self.size_ns += other.size_ns;
        self.size_passes += other.size_passes;
        self.storage_ns += other.storage_ns;
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut out = *self;
        for i in 0..out.count.len() {
            out.handler_ns[i] -= earlier.handler_ns[i];
            out.count[i] -= earlier.count[i];
        }
        out.size_ns -= earlier.size_ns;
        out.size_passes -= earlier.size_passes;
        out.storage_ns -= earlier.storage_ns;
        out
    }

    /// Handler self time over all kinds.
    pub fn handler_total_ns(&self) -> u64 {
        self.handler_ns.iter().sum()
    }

    /// Deliveries over all kinds.
    pub fn deliveries(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Deliveries of one of [`KINDS`].
    pub fn of(&self, kind: &str) -> u64 {
        self.count[kind_slot(kind)]
    }

    /// Handler self time of one of [`KINDS`].
    pub fn ns_of(&self, kind: &str) -> u64 {
        self.handler_ns[kind_slot(kind)]
    }
}

/// A `DbPeer` hosted behind the benchmark's own `Peer` implementation.
#[derive(Debug)]
pub struct Traced {
    inner: p2p_core::peer::DbPeer,
    codec: Codec,
    tally: Tally,
}

impl Traced {
    /// Wraps `inner`; delivered messages are sized under `codec`.
    pub fn new(inner: p2p_core::peer::DbPeer, codec: Codec) -> Self {
        Traced {
            inner,
            codec,
            tally: Tally::default(),
        }
    }

    /// The database peer inside, for seeding inserts.
    pub fn inner_mut(&mut self) -> &mut p2p_core::peer::DbPeer {
        &mut self.inner
    }
}

impl Peer<ProtocolMsg> for Traced {
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg, ctx: &mut Context<ProtocolMsg>) {
        self.inner.on_message(from, msg, ctx);
    }

    fn on_envelope(
        &mut self,
        from: NodeId,
        msg_id: u64,
        msg: ProtocolMsg,
        ctx: &mut Context<ProtocolMsg>,
    ) {
        WORKER_PASSES.with(WorkerPasses::arm);
        let slot = kind_slot(msg.kind());
        let passes = encode_passes();
        let t0 = Instant::now();
        std::hint::black_box(msg.wire_size_with(self.codec));
        let t1 = Instant::now();
        self.tally.size_passes += encode_passes() - passes;
        let storage = STORAGE.with(|s| s.ns.get());
        self.inner.on_envelope(from, msg_id, msg, ctx);
        let t2 = Instant::now();
        let storage = STORAGE.with(|s| s.ns.get()) - storage;
        self.tally.size_ns += (t1 - t0).as_nanos() as u64;
        self.tally.storage_ns += storage;
        self.tally.handler_ns[slot] += ((t2 - t1).as_nanos() as u64).saturating_sub(storage);
        self.tally.count[slot] += 1;
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<ProtocolMsg>) {
        self.inner.on_restart(ctx);
    }
}

impl Hosted for Traced {
    fn db_peer(&self) -> &p2p_core::peer::DbPeer {
        &self.inner
    }

    fn tally(&self) -> Option<Tally> {
        Some(self.tally)
    }
}

/// Storage counters of the current thread (the simulator runs every peer
/// on one thread).
#[derive(Debug, Default)]
pub struct StorageTally {
    ns: Cell<u64>,
    frames: Cell<u64>,
    wal_bytes: Cell<u64>,
    snapshot_bytes: Cell<u64>,
}

thread_local! {
    static STORAGE: StorageTally = StorageTally::default();
}

/// A snapshot of the current thread's storage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounts {
    /// Time spent in the backend, in nanoseconds.
    pub ns: u64,
    /// WAL frames appended.
    pub frames: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
}

impl StorageCounts {
    /// The current thread's counters.
    pub fn now() -> Self {
        STORAGE.with(|s| StorageCounts {
            ns: s.ns.get(),
            frames: s.frames.get(),
            wal_bytes: s.wal_bytes.get(),
            snapshot_bytes: s.snapshot_bytes.get(),
        })
    }

    /// `self − earlier`.
    pub fn since(&self, earlier: &StorageCounts) -> StorageCounts {
        StorageCounts {
            ns: self.ns - earlier.ns,
            frames: self.frames - earlier.frames,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            snapshot_bytes: self.snapshot_bytes - earlier.snapshot_bytes,
        }
    }
}

/// An in-memory backend that times and counts what it stores.
#[derive(Debug, Default)]
pub struct TimingBackend {
    inner: MemoryBackend,
}

impl TimingBackend {
    fn timed<T>(
        &mut self,
        frame: Option<usize>,
        snapshot: usize,
        f: impl FnOnce(&mut MemoryBackend) -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        STORAGE.with(|s| {
            s.ns.set(s.ns.get() + ns);
            if let Some(len) = frame {
                s.frames.set(s.frames.get() + 1);
                s.wal_bytes.set(s.wal_bytes.get() + len as u64);
            }
            s.snapshot_bytes
                .set(s.snapshot_bytes.get() + snapshot as u64);
        });
        out
    }
}

impl StorageBackend for TimingBackend {
    fn append_wal(&mut self, frame: &str) -> Result<(), StorageError> {
        self.timed(Some(frame.len()), 0, |b| b.append_wal(frame))
    }

    fn read_wal(&self) -> Result<Vec<String>, StorageError> {
        self.inner.read_wal()
    }

    fn write_snapshot(&mut self, snapshot: &str) -> Result<(), StorageError> {
        self.timed(None, snapshot.len(), |b| b.write_snapshot(snapshot))
    }

    fn read_snapshot(&self) -> Result<Option<String>, StorageError> {
        self.inner.read_snapshot()
    }

    fn append_wal_bytes(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        self.timed(Some(frame.len()), 0, |b| b.append_wal_bytes(frame))
    }

    fn read_wal_bytes(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.inner.read_wal_bytes()
    }

    fn write_snapshot_bytes(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.timed(None, snapshot.len(), |b| b.write_snapshot_bytes(snapshot))
    }

    fn read_snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read_snapshot_bytes()
    }
}

/// Encode passes made on worker threads that have exited.
static EXITED_WORKER_PASSES: AtomicU64 = AtomicU64::new(0);

/// Reports its thread's `encode_passes` total when the thread exits. The
/// sharded pool starts fresh worker threads for every run, so that total is
/// exactly what the run did on the thread.
#[derive(Debug, Default)]
pub struct WorkerPasses {
    armed: Cell<bool>,
}

impl WorkerPasses {
    fn arm(&self) {
        self.armed.set(true);
    }

    /// Passes reported by exited worker threads so far.
    pub fn exited() -> u64 {
        EXITED_WORKER_PASSES.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPasses {
    fn drop(&mut self) {
        if self.armed.get() {
            EXITED_WORKER_PASSES.fetch_add(encode_passes(), Ordering::Relaxed);
        }
    }
}

thread_local! {
    static WORKER_PASSES: WorkerPasses = WorkerPasses::default();
}
