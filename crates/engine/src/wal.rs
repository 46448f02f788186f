//! Write-ahead log layered on an `sks-storage` [`FileDisk`].
//!
//! Logical model: an append-only byte stream of self-checking records,
//! packed across fixed-size blocks of a [`FileDisk`] (records straddle
//! block boundaries; blocks are used strictly sequentially, the free list
//! is never touched). Each record is
//!
//! ```text
//! tag(1)=0xA5 ‖ crc32(4) ‖ seq(8) ‖ nonce(8) ‖ blen(4) ‖ E(op ‖ key ‖ value)
//! ```
//!
//! with the CRC covering `seq ‖ nonce ‖ blen ‖ ciphertext`. The body —
//! operation, search key and record value — is sealed with an independent
//! stream cipher (Speck64-CTR keyed from the engine's WAL key, fresh
//! random per-record nonce stored in the clear so no two records ever
//! share keystream, even across checkpoint rewrites or torn-tail
//! rewrites). The log is the database's only durable representation, so
//! leaving it plaintext would hand the paper's opponent everything the
//! disguised tree withholds; sealing it keeps the §5 discipline that
//! stored key material is never readable off the medium.
//!
//! Record `seq 1` is a *key-check sentinel*: a sealed constant written at
//! creation. Opening with the wrong key decrypts the sentinel to garbage
//! and fails closed with a configuration error — it never touches the
//! data, so a mistyped key cannot destroy a log it cannot read.
//!
//! Replay accepts records while the tag, CRC and the strictly-increasing
//! sequence number all hold, and treats the first violation as the torn
//! tail of an interrupted write: everything before it is recovered,
//! everything after is scrubbed back to zeros so a later replay cannot
//! resurrect stale bytes.
//!
//! Durability follows a [`SyncPolicy`]: `Always` forces the device on
//! every commit; `EveryN(n)` is group commit — the block writes happen per
//! commit (so a process crash loses nothing) but only every `n`-th commit
//! pays the physical fsync (so a power failure can lose at most the last
//! `n − 1` commits). Those bounds assume the standard WAL storage model:
//! rewriting the partially-filled tail block preserves its unchanged
//! leading sectors (sector-level write atomicity), so a torn tail-block
//! write can damage at most the records not yet fsynced. Any I/O error in
//! the append path fail-stops the handle ([`EngineError::WalPoisoned`]):
//! a half-written record must not be built upon, and reopening replays
//! the log back to a consistent prefix.

use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use sks_crypto::modes::ctr_xor;
use sks_crypto::speck::Speck64;
use sks_storage::{
    crc32, BlockId, BlockStore, EventKind, FailStore, FileDisk, OpCounters, Stage, StorageError,
    SyncPolicy, NO_PARTITION,
};

use crate::error::EngineError;

/// The device surface a [`Wal`] needs: sequential block writes, partial
/// reads for torn-tail recovery, a physical sync, and counter
/// re-pointing. [`FileDisk`] is the production device; a
/// [`FailStore<FileDisk>`] implements it too, so crash probes can tear a
/// WAL write mid-group-commit and watch recovery scrub the tail.
pub trait WalDevice {
    fn block_size(&self) -> usize;
    fn num_blocks(&self) -> u32;
    fn allocate(&mut self) -> Result<BlockId, StorageError>;
    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError>;
    /// Best-effort read returning however many bytes exist (zero-padded);
    /// see [`FileDisk::read_block_partial`].
    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError>;
    fn sync(&mut self) -> Result<(), StorageError>;
    fn set_counters(&mut self, counters: OpCounters);
}

impl WalDevice for FileDisk {
    fn block_size(&self) -> usize {
        BlockStore::block_size(self)
    }

    fn num_blocks(&self) -> u32 {
        BlockStore::num_blocks(self)
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        BlockStore::allocate(self)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        BlockStore::write_block(self, id, data)
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        FileDisk::read_block_partial(self, id)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        FileDisk::sync(self)
    }

    fn set_counters(&mut self, counters: OpCounters) {
        FileDisk::set_counters(self, counters);
    }
}

impl WalDevice for FailStore<FileDisk> {
    fn block_size(&self) -> usize {
        BlockStore::block_size(self)
    }

    fn num_blocks(&self) -> u32 {
        BlockStore::num_blocks(self)
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        BlockStore::allocate(self)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        BlockStore::write_block(self, id, data)
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        // Reads keep working after the plan trips (inspecting the
        // wreckage is the point of a crash probe).
        self.inner().read_block_partial(id)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        // Routes through the plan so `arm_nth_flush` can kill a sync.
        BlockStore::flush(self)
    }

    fn set_counters(&mut self, counters: OpCounters) {
        self.inner_mut().set_counters(counters);
    }
}

/// The device the engine's own WAL runs on: the production [`FileDisk`],
/// or the same disk behind a [`FailStore`] when an [`crate::EngineConfig`]
/// carries a fault plan (the op-sequence fuzzer's crash kill points). One
/// concrete type (rather than making `SksDb` generic) keeps the fault seam
/// available on every engine WAL — including the fresh log a checkpoint
/// builds — at the cost of a single match per device call.
#[derive(Debug)]
pub enum EngineWalDisk {
    Plain(FileDisk),
    Fault(FailStore<FileDisk>),
}

impl EngineWalDisk {
    /// Wraps `disk` under `fault` when a plan is present.
    pub fn wrap(disk: FileDisk, fault: Option<&sks_storage::FailPlan>) -> Self {
        match fault {
            None => EngineWalDisk::Plain(disk),
            Some(plan) => EngineWalDisk::Fault(FailStore::with_plan(disk, plan.clone())),
        }
    }
}

impl WalDevice for EngineWalDisk {
    fn block_size(&self) -> usize {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::block_size(d),
            EngineWalDisk::Fault(d) => WalDevice::block_size(d),
        }
    }

    fn num_blocks(&self) -> u32 {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::num_blocks(d),
            EngineWalDisk::Fault(d) => WalDevice::num_blocks(d),
        }
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::allocate(d),
            EngineWalDisk::Fault(d) => WalDevice::allocate(d),
        }
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::write_block(d, id, data),
            EngineWalDisk::Fault(d) => WalDevice::write_block(d, id, data),
        }
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::read_block_partial(d, id),
            EngineWalDisk::Fault(d) => WalDevice::read_block_partial(d, id),
        }
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::sync(d),
            EngineWalDisk::Fault(d) => WalDevice::sync(d),
        }
    }

    fn set_counters(&mut self, counters: OpCounters) {
        match self {
            EngineWalDisk::Plain(d) => WalDevice::set_counters(d, counters),
            EngineWalDisk::Fault(d) => WalDevice::set_counters(d, counters),
        }
    }
}

// ---------------------------------------------------------------------------
// Double-buffered writer: a WalDevice that overlaps block writes and
// fsyncs with the caller's next batch seal.
// ---------------------------------------------------------------------------

/// A queued unit of work for the writer thread.
enum WriterJob {
    Write {
        id: BlockId,
        data: Vec<u8>,
    },
    /// An fsync enqueued behind the writes it must cover; completion is
    /// reported through [`SyncState`] to the matching [`SyncTicket`].
    Sync {
        ticket: u64,
    },
}

/// Completion state for fsyncs executed asynchronously on the writer
/// thread. Deliberately not generic over the device, so a [`SyncTicket`]
/// can be waited on after every `Wal` lock has been released.
struct SyncState {
    /// Highest completed ticket, and the first error any asynchronous
    /// sync surfaced (sticky, mirroring `WriterShared::error`).
    done: Mutex<(u64, Option<StorageError>)>,
    completed: Condvar,
}

/// State shared between the foreground handle and the writer thread.
struct WriterShared<D> {
    disk: Mutex<D>,
    /// Jobs enqueued but not yet executed; `sync`/reads drain to zero.
    inflight: Mutex<u32>,
    drained: Condvar,
    /// First error the writer thread hit. Sticky: once an asynchronous
    /// write has failed the stream past it is unknowable, so every later
    /// device call fails until the log is reopened (the `Wal` turns the
    /// first surfaced error into its poison fail-stop).
    error: Mutex<Option<StorageError>>,
    syncs: Arc<SyncState>,
}

/// Handle to one asynchronous WAL fsync. The commit that produced it is
/// durable only once `wait` returns `Ok`; the caller must not acknowledge
/// the commit before then.
#[derive(Debug)]
pub struct SyncTicket {
    state: Arc<SyncState>,
    seq: u64,
}

impl std::fmt::Debug for SyncState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncState").finish()
    }
}

impl SyncTicket {
    /// Blocks until the fsync this ticket names has completed, surfacing
    /// the first error any asynchronous sync hit. The error is sticky:
    /// once one fsync has failed, the durability of everything after it
    /// is unknowable, so every later waiter fails too.
    pub fn wait(self) -> Result<(), StorageError> {
        let mut done = self.state.done.lock().expect("wal sync state");
        while done.0 < self.seq && done.1.is_none() {
            done = self.state.completed.wait(done).expect("wal sync state");
        }
        match &done.1 {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

/// Double-buffered WAL device: `write_block` hands the sealed block to a
/// small writer thread through a two-slot channel (the two swap buffers)
/// and returns, so sealing batch N+1 overlaps the device write (and, at
/// the group-commit boundary, the fsync) of batch N. `sync` drains the
/// queue and then syncs the device, so every durability point the
/// [`SyncPolicy`] promises still holds exactly — the pipeline moves work
/// off the hot path, never past a commit's durability barrier. Reads
/// drain first too, so replay-style scans observe every queued write.
pub struct DoubleBuffered<D: WalDevice> {
    shared: Arc<WriterShared<D>>,
    /// `None` only during teardown.
    tx: Option<mpsc::SyncSender<WriterJob>>,
    handle: Option<std::thread::JoinHandle<()>>,
    counters: OpCounters,
    block_size: usize,
    /// Ticket the next [`DoubleBuffered::submit_sync`] will hand out.
    next_ticket: u64,
}

impl<D: WalDevice> std::fmt::Debug for DoubleBuffered<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoubleBuffered")
            .field("block_size", &self.block_size)
            .finish()
    }
}

/// Number of swap buffers: one block in flight on the device while the
/// foreground seals into the other.
const SWAP_BUFFERS: usize = 2;

impl<D: WalDevice + Send + 'static> DoubleBuffered<D> {
    fn new(disk: D, counters: OpCounters) -> Self {
        let block_size = disk.block_size();
        let shared = Arc::new(WriterShared {
            disk: Mutex::new(disk),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            error: Mutex::new(None),
            syncs: Arc::new(SyncState {
                done: Mutex::new((0, None)),
                completed: Condvar::new(),
            }),
        });
        let (tx, rx) = mpsc::sync_channel::<WriterJob>(SWAP_BUFFERS);
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sks-wal-writer".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        WriterJob::Write { id, data } => {
                            let result = worker
                                .disk
                                .lock()
                                .expect("wal device")
                                .write_block(id, &data);
                            if let Err(e) = result {
                                let mut slot = worker.error.lock().expect("wal writer error");
                                slot.get_or_insert(e);
                            }
                        }
                        WriterJob::Sync { ticket } => {
                            // A sync after a failed asynchronous write
                            // must not report durability the stream no
                            // longer has: the sticky write error wins
                            // over whatever the device would say now.
                            let prior = worker.error.lock().expect("wal writer error").clone();
                            let result = match prior {
                                Some(e) => Err(e),
                                None => worker.disk.lock().expect("wal device").sync(),
                            };
                            let mut done = worker.syncs.done.lock().expect("wal sync state");
                            done.0 = ticket;
                            if let Err(e) = result {
                                worker
                                    .error
                                    .lock()
                                    .expect("wal writer error")
                                    .get_or_insert(e.clone());
                                done.1.get_or_insert(e);
                            }
                            drop(done);
                            worker.syncs.completed.notify_all();
                        }
                    }
                    let mut inflight = worker.inflight.lock().expect("wal inflight");
                    *inflight -= 1;
                    worker.drained.notify_all();
                }
            })
            .expect("spawn wal writer thread");
        DoubleBuffered {
            shared,
            tx: Some(tx),
            handle: Some(handle),
            counters,
            block_size,
            next_ticket: 0,
        }
    }
}

impl<D: WalDevice> DoubleBuffered<D> {
    /// Blocks until every queued write has executed.
    fn drain(&self) {
        let mut inflight = self.shared.inflight.lock().expect("wal inflight");
        while *inflight > 0 {
            inflight = self.shared.drained.wait(inflight).expect("wal inflight");
        }
    }

    /// Surfaces (without clearing) the writer thread's first error.
    fn check_error(&self) -> Result<(), StorageError> {
        match &*self.shared.error.lock().expect("wal writer error") {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Enqueues an fsync behind every write accepted so far and returns a
    /// ticket to wait on *after* the caller has released its locks. The
    /// job channel is FIFO, so by the time the writer thread reaches the
    /// sync every earlier `write_block` has hit the device — the sync
    /// covers exactly the commits sealed before it was submitted, and
    /// the foreground is free to seal the next group meanwhile.
    fn submit_sync(&mut self) -> Result<SyncTicket, StorageError> {
        self.check_error()?;
        // Waking the writer can hand it this thread's core until its fsync
        // starts: part of the committer's durability barrier, like the
        // ticket wait.
        let timer = self.counters.obs().start();
        self.next_ticket += 1;
        let seq = self.next_ticket;
        *self.shared.inflight.lock().expect("wal inflight") += 1;
        let sent = self
            .tx
            .as_ref()
            .expect("writer channel open")
            .send(WriterJob::Sync { ticket: seq });
        if sent.is_err() {
            *self.shared.inflight.lock().expect("wal inflight") -= 1;
            self.check_error()?;
            return Err(StorageError::Io("wal writer thread exited".into()));
        }
        self.counters.obs().stage(Stage::WalFsync, timer);
        Ok(SyncTicket {
            state: Arc::clone(&self.shared.syncs),
            seq,
        })
    }
}

impl<D: WalDevice> Drop for DoubleBuffered<D> {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel; the thread drains and exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<D: WalDevice> WalDevice for DoubleBuffered<D> {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.shared.disk.lock().expect("wal device").num_blocks()
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.check_error()?;
        self.shared.disk.lock().expect("wal device").allocate()
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        self.check_error()?;
        let mut inflight = self.shared.inflight.lock().expect("wal inflight");
        *inflight += 1;
        drop(inflight);
        let timer = self.counters.obs().start();
        let sent = self
            .tx
            .as_ref()
            .expect("writer channel open")
            .send(WriterJob::Write {
                id,
                data: data.to_vec(),
            });
        // The send blocks while both swap buffers are in flight — that
        // wait is the pipeline's back-pressure, reported as its own stage.
        self.counters.obs().stage(Stage::WalSwap, timer);
        if sent.is_err() {
            // Writer thread gone: surface whatever killed it.
            *self.shared.inflight.lock().expect("wal inflight") -= 1;
            self.check_error()?;
            return Err(StorageError::Io("wal writer thread exited".into()));
        }
        Ok(())
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        // Reads must observe every accepted write (records_since scans the
        // stream mid-life); drain, then read through. Reads keep working
        // after a write error — inspecting the wreckage is recovery's job.
        self.drain();
        self.shared
            .disk
            .lock()
            .expect("wal device")
            .read_block_partial(id)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.drain();
        self.check_error()?;
        self.shared.disk.lock().expect("wal device").sync()
    }

    fn set_counters(&mut self, counters: OpCounters) {
        self.drain();
        self.counters = counters.clone();
        self.shared
            .disk
            .lock()
            .expect("wal device")
            .set_counters(counters);
    }
}

/// The device slot inside a [`Wal`]: the raw device, or the same device
/// behind the double-buffered writer pipeline.
#[derive(Debug)]
enum WalDisk<D: WalDevice> {
    Direct(D),
    Piped(DoubleBuffered<D>),
    /// Transient placeholder while [`Wal::enable_pipeline`] swaps the
    /// device into the pipeline; never observable.
    Swapping,
}

impl<D: WalDevice> WalDevice for WalDisk<D> {
    fn block_size(&self) -> usize {
        match self {
            WalDisk::Direct(d) => d.block_size(),
            WalDisk::Piped(p) => p.block_size(),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn num_blocks(&self) -> u32 {
        match self {
            WalDisk::Direct(d) => d.num_blocks(),
            WalDisk::Piped(p) => p.num_blocks(),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        match self {
            WalDisk::Direct(d) => d.allocate(),
            WalDisk::Piped(p) => p.allocate(),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        match self {
            WalDisk::Direct(d) => d.write_block(id, data),
            WalDisk::Piped(p) => p.write_block(id, data),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        match self {
            WalDisk::Direct(d) => d.read_block_partial(id),
            WalDisk::Piped(p) => p.read_block_partial(id),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        match self {
            WalDisk::Direct(d) => d.sync(),
            WalDisk::Piped(p) => p.sync(),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }

    fn set_counters(&mut self, counters: OpCounters) {
        match self {
            WalDisk::Direct(d) => d.set_counters(counters),
            WalDisk::Piped(p) => p.set_counters(counters),
            WalDisk::Swapping => unreachable!("wal device mid-swap"),
        }
    }
}

const TAG: u8 = 0xA5;
/// Batch frames: same header layout as [`TAG`] frames (`tag ‖ crc ‖
/// first_seq ‖ nonce ‖ blen`) but the sealed body is a *group* of
/// records — `count(4) ‖ (op ‖ key ‖ vlen ‖ value)*` — sealed as one
/// Speck-CTR pass under one nonce and checked by one CRC. A batch frame
/// consumes `count` consecutive sequence numbers starting at the header's
/// seq. Emitted only by [`Wal::set_seal_batch`] commits staging ≥ 2
/// records; replay accepts both framings, so old logs keep replaying and
/// new logs keep the old single-record grammar for singleton commits.
const BATCH_TAG: u8 = 0xB5;
/// Transaction-commit frames: byte-for-byte the [`BATCH_TAG`] layout —
/// one sealed `count(4) ‖ (op ‖ key ‖ vlen ‖ value)*` body, one nonce,
/// one CRC, `count` consecutive seqs — under a distinct tag, so the
/// grouping is *semantic*: these records are one multi-key transaction
/// and must stay one frame wherever the stream is rewritten (a fuzzy
/// checkpoint's cut re-seals them together rather than flattening them
/// like a physical group-commit batch). Replay inherits the batch
/// frame's all-or-nothing torn-tail rule, which is exactly the txn
/// atomicity guarantee. Emitted by [`Wal::append_txn`] only for ≥ 2
/// records; single-key transactions keep the legacy framing, so
/// autocommit streams stay byte-identical to pre-transaction logs.
const TXN_TAG: u8 = 0xC5;
/// `tag ‖ crc ‖ seq ‖ nonce ‖ blen`.
const HEADER_LEN: usize = 1 + 4 + 8 + 8 + 4;
/// `op ‖ key` inside the sealed body.
const BODY_MIN: usize = 1 + 8;
/// `op ‖ key ‖ vlen` heading each record inside a sealed batch body.
const BATCH_ENTRY_HEADER: usize = 1 + 8 + 4;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
/// Internal sentinel proving the opener holds the right key (record 1).
const OP_KEYCHECK: u8 = 3;
const KEYCHECK_MAGIC: &[u8; 16] = b"SKSWAL-KEYCHECK1";

/// A logged operation, as recovered by replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Insert { key: u64, value: Vec<u8> },
    Delete { key: u64 },
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub op: WalOp,
}

/// One frame's worth of records from a checkpoint tail scan
/// ([`Wal::records_since`]). `txn` groups were sealed as one atomic
/// transaction frame and must be re-sealed as one when the cut rewrites
/// the tail; the rest may be re-framed freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TailGroup {
    pub txn: bool,
    pub records: Vec<WalRecord>,
}

/// What replay found in an existing log.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    pub records: Vec<WalRecord>,
    /// A record prefix failed its checksum (interrupted write): the valid
    /// prefix was kept, the rest scrubbed.
    pub torn_tail: bool,
    /// Bytes discarded past the last valid record.
    pub bytes_discarded: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for the per-record nonce sequence: time, pid and a stack address
/// mixed together, so two log lifetimes (or two processes) draw from
/// disjoint 64-bit regions with overwhelming probability.
fn nonce_seed() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let addr = &t as *const _ as u64;
    splitmix64(t ^ addr.rotate_left(32) ^ u64::from(std::process::id()))
}

/// One record staged for batch sealing. The plaintext value is wiped
/// when the entry drops (after the batch body is sealed), so the staging
/// buffer can never leak record bytes through freed heap memory — the
/// same discipline the decoded-record cache follows.
#[derive(Debug)]
struct StagedOp {
    op: u8,
    key: u64,
    value: Vec<u8>,
}

impl Drop for StagedOp {
    fn drop(&mut self) {
        for b in self.value.iter_mut() {
            // Volatile so the wipe of soon-to-be-freed memory is not elided.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    }
}

/// Append/commit/replay handle over one log file. Generic over the
/// [`WalDevice`] so crash probes can interpose a fault-injecting store;
/// the default parameter keeps plain `Wal` meaning the production
/// [`FileDisk`]-backed log.
#[derive(Debug)]
pub struct Wal<D: WalDevice = FileDisk> {
    disk: WalDisk<D>,
    block_size: usize,
    /// In-memory image of the block currently being filled.
    tail: Vec<u8>,
    tail_used: usize,
    /// Block the tail occupies; `None` until the first byte lands.
    tail_id: Option<BlockId>,
    /// Next block the stream will move into once the tail fills.
    next_block: u32,
    next_seq: u64,
    nonce_state: u64,
    policy: SyncPolicy,
    pending_commits: u32,
    tail_dirty: bool,
    /// Set when an append-path I/O error leaves the stream in an unknown
    /// state; every later operation refuses until the log is reopened.
    poisoned: bool,
    cipher: Speck64,
    counters: OpCounters,
    /// When on, appends stage records and `commit` seals the whole group
    /// as one batch frame (one CTR pass + one CRC per commit).
    seal_batch: bool,
    /// Records staged since the last commit boundary. Values are wiped on
    /// drop; the buffer never reaches the medium unsealed.
    staged: Vec<StagedOp>,
    /// Sequence number of `staged[0]` (batch frames carry the first seq).
    staged_first_seq: u64,
    /// When on (and the device is pipelined), [`Wal::commit_pipelined`]
    /// submits policy-mandated fsyncs to the writer thread and returns a
    /// ticket instead of paying the fsync inline.
    overlap: bool,
}

impl Wal {
    /// Creates a fresh, empty log (truncating any existing file), sealed
    /// under `wal_key`, and durably writes the key-check sentinel.
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let disk = FileDisk::create_with_counters(path, block_size, counters.clone())?;
        Wal::create_on_device(disk, block_size, wal_key, policy, counters)
    }

    /// Opens an existing log: verifies the key-check sentinel (failing
    /// closed, without touching the data, when the key is wrong), replays
    /// every intact record, scrubs any torn tail, and positions the
    /// handle for further appends.
    pub fn open<P: AsRef<Path>>(
        path: P,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let disk = FileDisk::open_with_counters(path, counters.clone())?;
        Wal::open_on_device(disk, wal_key, policy, counters)
    }
}

impl Wal<EngineWalDisk> {
    /// [`Wal::create`] on the engine device, wrapping the disk in a
    /// [`FailStore`] when a fault plan is supplied.
    pub fn create_engine<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
        fault: Option<&sks_storage::FailPlan>,
    ) -> Result<Self, EngineError> {
        let disk = FileDisk::create_with_counters(path, block_size, counters.clone())?;
        Wal::create_on_device(
            EngineWalDisk::wrap(disk, fault),
            block_size,
            wal_key,
            policy,
            counters,
        )
    }

    /// [`Wal::open`] on the engine device, wrapping the disk in a
    /// [`FailStore`] when a fault plan is supplied.
    pub fn open_engine<P: AsRef<Path>>(
        path: P,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
        fault: Option<&sks_storage::FailPlan>,
    ) -> Result<(Self, WalReplay), EngineError> {
        let disk = FileDisk::open_with_counters(path, counters.clone())?;
        Wal::open_on_device(EngineWalDisk::wrap(disk, fault), wal_key, policy, counters)
    }
}

impl<D: WalDevice> Wal<D> {
    /// [`Wal::create`] over an already-constructed device (fault probes
    /// wrap a [`FileDisk`] in a [`FailStore`] first).
    pub fn create_on_device(
        disk: D,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let mut wal = Wal {
            disk: WalDisk::Direct(disk),
            block_size,
            tail: vec![0u8; block_size],
            tail_used: 0,
            tail_id: None,
            next_block: 0,
            next_seq: 1,
            nonce_state: nonce_seed(),
            policy,
            pending_commits: 0,
            tail_dirty: false,
            poisoned: false,
            cipher: Speck64::from_u128(wal_key),
            counters,
            seal_batch: false,
            staged: Vec::new(),
            staged_first_seq: 0,
            overlap: false,
        };
        wal.append_keycheck()?;
        Ok(wal)
    }

    /// [`Wal::open`] over an already-constructed device.
    pub fn open_on_device(
        disk: D,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let block_size = disk.block_size();
        let num_blocks = disk.num_blocks();
        let cipher = Speck64::from_u128(wal_key);

        // Stream the device block by block: records are parsed (and their
        // sealed bodies decrypted) incrementally, so peak memory is the
        // recovered records plus one compaction window — not a second
        // whole-log ciphertext copy. A physically truncated final region
        // (torn file) reads as zeros.
        let mut replay = WalReplay::default();
        let mut keycheck_seen = false;
        let mut expected_seq = 1u64;
        let mut buf: Vec<u8> = Vec::new();
        let mut start = 0usize; // parse cursor within `buf`
        let mut base_abs = 0usize; // absolute stream offset of `buf[0]`
        let mut real_end = 0usize; // absolute offset past the last non-zero byte
        let mut parsing = true;
        for b in 0..num_blocks {
            let (block, _have) = disk.read_block_partial(BlockId(b))?;
            if let Some(i) = block.iter().rposition(|&x| x != 0) {
                real_end = b as usize * block_size + i + 1;
            }
            if !parsing {
                continue; // only tracking real_end past the parse stop
            }
            buf.extend_from_slice(&block);
            loop {
                match parse_frame(&buf[start..], expected_seq) {
                    Frame::Complete { nonce, len, kind } => {
                        let body = ctr_xor(&cipher, nonce, &buf[start + HEADER_LEN..start + len]);
                        if kind.grouped() {
                            if expected_seq == 1 {
                                // The sentinel is always a legacy frame; a
                                // batch here means a forged or damaged
                                // stream start. Refuse before anything
                                // destructive, like the wrong-key path.
                                return Err(EngineError::Config(
                                    "wal stream does not begin with the key-check sentinel".into(),
                                ));
                            }
                            let Some(entries) = decode_batch(&body) else {
                                parsing = false; // damaged batch body: torn
                                break;
                            };
                            let n = entries.len() as u64;
                            for (i, (op, key, value)) in entries.into_iter().enumerate() {
                                let op = match op {
                                    OP_INSERT => WalOp::Insert { key, value },
                                    _ => WalOp::Delete { key },
                                };
                                replay.records.push(WalRecord {
                                    seq: expected_seq + i as u64,
                                    op,
                                });
                            }
                            start += len;
                            expected_seq += n;
                            continue;
                        }
                        if expected_seq == 1 {
                            // The sentinel: wrong decryption means wrong
                            // key — refuse before anything destructive.
                            if body[0] != OP_KEYCHECK || body[BODY_MIN..] != KEYCHECK_MAGIC[..] {
                                return Err(EngineError::Config(
                                    "wal key mismatch: the log was sealed under a different \
                                     tree/data key configuration"
                                        .into(),
                                ));
                            }
                            keycheck_seen = true;
                        } else {
                            let key =
                                u64::from_be_bytes(body[1..9].try_into().expect("fixed width"));
                            let op = match body[0] {
                                OP_INSERT => WalOp::Insert {
                                    key,
                                    value: body[BODY_MIN..].to_vec(),
                                },
                                OP_DELETE => WalOp::Delete { key },
                                _ => {
                                    parsing = false; // damaged body: torn
                                    break;
                                }
                            };
                            replay.records.push(WalRecord {
                                seq: expected_seq,
                                op,
                            });
                        }
                        start += len;
                        expected_seq += 1;
                    }
                    Frame::NeedMore => break, // feed the next block
                    Frame::End => {
                        parsing = false;
                        break;
                    }
                }
            }
            // Compact the window so long logs don't accumulate.
            if start > 4 * block_size {
                buf.drain(..start);
                base_abs += start;
                start = 0;
            }
        }
        let pos = base_abs + start;
        replay.torn_tail = real_end > pos;
        replay.bytes_discarded = real_end.saturating_sub(pos) as u64;
        counters.bump_by(|c| &c.wal_replayed, replay.records.len() as u64);
        drop(buf);

        let mut wal = Wal {
            disk: WalDisk::Direct(disk),
            block_size,
            tail: vec![0u8; block_size],
            tail_used: pos % block_size,
            tail_id: None,
            next_block: (pos / block_size) as u32 + u32::from(!pos.is_multiple_of(block_size)),
            next_seq: expected_seq,
            nonce_state: nonce_seed(),
            policy,
            pending_commits: 0,
            tail_dirty: false,
            poisoned: false,
            cipher,
            counters,
            seal_batch: false,
            staged: Vec::new(),
            staged_first_seq: 0,
            overlap: false,
        };
        if wal.tail_used > 0 {
            let tail_block = BlockId((pos / block_size) as u32);
            let (block, _have) = wal.disk.read_block_partial(tail_block)?;
            wal.tail[..wal.tail_used].copy_from_slice(&block[..wal.tail_used]);
            wal.tail_id = Some(tail_block);
        }
        if replay.torn_tail || replay.bytes_discarded > 0 {
            wal.scrub_after(pos)?;
            // Flight-recorder breadcrumb: where the valid stream ended and
            // how many trailing bytes recovery threw away.
            wal.counters.obs().note(
                EventKind::TornTailScrub,
                NO_PARTITION,
                pos as u64,
                replay.bytes_discarded,
                0,
            );
        }
        if !keycheck_seen {
            // Only reachable when the log start itself was destroyed (or
            // the file is brand-new empty): restore the sentinel so the
            // wrong-key guard holds for the next open.
            debug_assert_eq!(pos, 0, "keycheck can only be missing at stream start");
            wal.append_keycheck()?;
        }
        Ok((wal, replay))
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes the logical stream currently occupies.
    pub fn len_bytes(&self) -> u64 {
        match self.tail_id {
            Some(id) => id.0 as u64 * self.block_size as u64 + self.tail_used as u64,
            None => self.next_block as u64 * self.block_size as u64,
        }
    }

    /// Whether an earlier append-path failure fail-stopped this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Turns batch sealing on or off. With it on, appends stage records
    /// in memory and every [`Wal::commit`] seals the staged group as one
    /// CTR body + CRC (one frame per commit instead of one per record);
    /// the logical `wal_appends`/`wal_bytes` counters keep charging per
    /// record, byte-identical to the unbatched path. Only affects future
    /// appends — must be toggled at a commit boundary.
    pub fn set_seal_batch(&mut self, on: bool) {
        debug_assert!(
            self.staged.is_empty(),
            "seal_batch toggled mid-commit with staged records"
        );
        self.seal_batch = on;
    }

    /// Routes the device through the double-buffered writer pipeline:
    /// block writes are handed to a small writer thread through two swap
    /// buffers, so sealing the next batch overlaps the previous batch's
    /// device write and fsync. Durability barriers are unchanged —
    /// `sync` drains the pipe before syncing the device.
    pub fn enable_pipeline(&mut self)
    where
        D: Send + 'static,
    {
        if matches!(self.disk, WalDisk::Piped(_)) {
            return;
        }
        match std::mem::replace(&mut self.disk, WalDisk::Swapping) {
            WalDisk::Direct(d) => {
                self.disk = WalDisk::Piped(DoubleBuffered::new(d, self.counters.clone()));
            }
            other => self.disk = other,
        }
    }

    /// Turns fsync overlap on or off. With it on and the writer pipeline
    /// enabled, [`Wal::commit_pipelined`] hands policy-mandated fsyncs to
    /// the writer thread and returns a [`SyncTicket`] instead of paying
    /// the fsync inline, so the next commit group can seal while the
    /// previous group's fsync is in flight. [`Wal::commit`] is unaffected
    /// and stays fully synchronous.
    pub fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    /// Re-points counter accounting at a different shared set (used by
    /// checkpointing, which writes its snapshot against detached counters
    /// so internal rewrites don't masquerade as client traffic, then
    /// adopts the engine's counters for subsequent appends).
    pub(crate) fn adopt_counters(&mut self, counters: OpCounters) {
        self.disk.set_counters(counters.clone());
        self.counters = counters;
    }

    pub fn append_insert(&mut self, key: u64, value: &[u8]) -> Result<u64, EngineError> {
        self.append(OP_INSERT, key, value, true)
    }

    /// Re-reads the log from byte `from_offset` — which must be the
    /// frame boundary where record `from_seq` begins (a fuzzy
    /// checkpoint's epoch mark, captured as `(next_seq, len_bytes)`
    /// under the log lock) — and returns every client record from it
    /// onward, in order, grouped by frame: the *tail* the checkpoint
    /// carries into the fresh log it cuts over to. The scan is O(tail),
    /// not O(log). Legacy and batch frames come back as `txn: false`
    /// groups (a batch's grouping is physical — the cut may flatten it);
    /// [`TXN_TAG`] frames come back as `txn: true` groups the cut must
    /// re-seal as one frame, so a fuzzy checkpoint can never split a
    /// multi-key transaction across the rewrite. The stream is
    /// self-written and framed, so no torn-tail handling applies here
    /// (the frame grammar below is [`Wal::open`]'s — keep the two in
    /// sync); the in-memory tail block is written out first so the scan
    /// sees everything appended so far. Reads run against detached
    /// counters: checkpoint bookkeeping is not client traffic.
    pub(crate) fn records_since(
        &mut self,
        from_seq: u64,
        from_offset: u64,
    ) -> Result<Vec<TailGroup>, EngineError> {
        self.check_poison()?;
        self.seal_staged()?;
        if self.tail_dirty {
            if let Err(e) = self.write_tail() {
                self.poisoned = true;
                return Err(e);
            }
        }
        let block_size = self.block_size;
        let first_block = (from_offset / block_size as u64) as u32;
        let mut out: Vec<TailGroup> = Vec::new();
        let mut expected_seq = from_seq;
        let mut buf: Vec<u8> = Vec::new();
        let mut start = (from_offset % block_size as u64) as usize;
        self.disk.set_counters(OpCounters::new());
        let mut scan = || -> Result<(), EngineError> {
            'blocks: for b in first_block..self.disk.num_blocks() {
                let (block, _have) = self.disk.read_block_partial(BlockId(b))?;
                buf.extend_from_slice(&block);
                loop {
                    match parse_frame(&buf[start..], expected_seq) {
                        Frame::Complete { nonce, len, kind } => {
                            let body =
                                ctr_xor(&self.cipher, nonce, &buf[start + HEADER_LEN..start + len]);
                            if kind.grouped() {
                                let Some(entries) = decode_batch(&body) else {
                                    break 'blocks; // self-written: unreachable
                                };
                                let n = entries.len() as u64;
                                let records = entries
                                    .into_iter()
                                    .enumerate()
                                    .map(|(i, (op, key, value))| {
                                        let op = match op {
                                            OP_INSERT => WalOp::Insert { key, value },
                                            _ => WalOp::Delete { key },
                                        };
                                        WalRecord {
                                            seq: expected_seq + i as u64,
                                            op,
                                        }
                                    })
                                    .collect();
                                out.push(TailGroup {
                                    txn: kind == FrameKind::Txn,
                                    records,
                                });
                                start += len;
                                expected_seq += n;
                                continue;
                            }
                            let key =
                                u64::from_be_bytes(body[1..9].try_into().expect("fixed width"));
                            let op = match body[0] {
                                OP_INSERT => Some(WalOp::Insert {
                                    key,
                                    value: body[BODY_MIN..].to_vec(),
                                }),
                                OP_DELETE => Some(WalOp::Delete { key }),
                                _ => None, // the key-check sentinel is not client traffic
                            };
                            if let Some(op) = op {
                                out.push(TailGroup {
                                    txn: false,
                                    records: vec![WalRecord {
                                        seq: expected_seq,
                                        op,
                                    }],
                                });
                            }
                            start += len;
                            expected_seq += 1;
                        }
                        Frame::NeedMore => break,
                        Frame::End => break 'blocks,
                    }
                }
                if start > 4 * block_size {
                    buf.drain(..start);
                    start = 0;
                }
            }
            Ok(())
        };
        let result = scan();
        self.disk.set_counters(self.counters.clone());
        result?;
        Ok(out)
    }

    pub fn append_delete(&mut self, key: u64) -> Result<u64, EngineError> {
        self.append(OP_DELETE, key, &[], true)
    }

    /// Appends a multi-key transaction's writes as one atomic commit
    /// frame (`TXN_TAG`): one sealed body, one CRC, `ops.len()`
    /// consecutive seqs — replay recovers all of it or none of it.
    /// Requires ≥ 2 ops (single-key transactions take the legacy framing
    /// so autocommit streams stay byte-identical). The logical
    /// `wal_appends`/`wal_bytes` charge is per record with each record's
    /// own frame cost, exactly as if the ops had been appended
    /// individually — transactional framing cannot move the paper's
    /// counters; only the physical `wal_txn_frames` telemetry records
    /// the grouping. Independent of the batch-sealing knob: any staged
    /// group-commit records are sealed first so frames stay in seq
    /// order. Returns the first seq of the frame.
    pub fn append_txn(&mut self, ops: &[WalOp]) -> Result<u64, EngineError> {
        self.check_poison()?;
        debug_assert!(ops.len() >= 2, "single-op txns use the legacy framing");
        self.seal_staged()?;
        let timer = self.counters.obs().start();
        let first_seq = self.next_seq;
        let staged: Vec<StagedOp> = ops
            .iter()
            .map(|op| match op {
                WalOp::Insert { key, value } => StagedOp {
                    op: OP_INSERT,
                    key: *key,
                    value: value.clone(),
                },
                WalOp::Delete { key } => StagedOp {
                    op: OP_DELETE,
                    key: *key,
                    value: Vec::new(),
                },
            })
            .collect();
        for s in &staged {
            let frame_len = (HEADER_LEN + BODY_MIN + s.value.len()) as u64;
            self.counters.bump(|c| &c.wal_appends);
            self.counters.bump_by(|c| &c.wal_bytes, frame_len);
        }
        self.counters.bump(|c| &c.wal_txn_frames);
        let nonce = self.next_nonce();
        let rec = build_group_frame(TXN_TAG, &self.cipher, first_seq, nonce, &staged);
        drop(staged); // wipes the cloned plaintext values
        if let Err(e) = self.append_bytes(&rec) {
            self.poisoned = true;
            return Err(e);
        }
        self.next_seq += ops.len() as u64;
        self.counters.obs().stage(Stage::WalAppend, timer);
        Ok(first_seq)
    }

    /// Writes and fsyncs the key-check sentinel (not client traffic: no
    /// append counters).
    fn append_keycheck(&mut self) -> Result<(), EngineError> {
        debug_assert_eq!(self.next_seq, 1);
        self.append(OP_KEYCHECK, 0, KEYCHECK_MAGIC, false)?;
        self.flush()
    }

    fn append(&mut self, op: u8, key: u64, value: &[u8], count: bool) -> Result<u64, EngineError> {
        self.check_poison()?;
        let timer = self.counters.obs().start();
        let seq = self.next_seq;

        // The logical charge is per record in both modes and covers the
        // record's own frame cost, so batching cannot move the counters.
        let frame_len = (HEADER_LEN + BODY_MIN + value.len()) as u64;
        if count {
            self.counters.bump(|c| &c.wal_appends);
            self.counters.bump_by(|c| &c.wal_bytes, frame_len);
        }

        if self.seal_batch && op != OP_KEYCHECK {
            // Stage: the seal (and any device I/O) happens at the commit
            // boundary, one CTR pass for the whole group.
            if self.staged.is_empty() {
                self.staged_first_seq = seq;
            }
            self.staged.push(StagedOp {
                op,
                key,
                value: value.to_vec(),
            });
            self.next_seq += 1;
            self.counters.obs().stage(Stage::WalAppend, timer);
            return Ok(seq);
        }

        let nonce = self.next_nonce();
        let rec = build_record_frame(&self.cipher, seq, nonce, op, key, value);
        if let Err(e) = self.append_bytes(&rec) {
            // A half-written record may sit in the stream; nothing after
            // it could be replayed, so refuse all further use.
            self.poisoned = true;
            return Err(e);
        }
        self.next_seq += 1;
        self.counters.obs().stage(Stage::WalAppend, timer);
        Ok(seq)
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce_state = self.nonce_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.nonce_state)
    }

    /// Seals everything staged since the last commit boundary into the
    /// stream: singleton groups keep the legacy per-record framing (new
    /// logs stay byte-compatible with old readers for unbatched traffic),
    /// larger groups become one batch frame — one nonce, one CTR pass,
    /// one CRC for the whole group.
    fn seal_staged(&mut self) -> Result<(), EngineError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let timer = self.counters.obs().start();
        let first_seq = self.staged_first_seq;
        let staged = std::mem::take(&mut self.staged);
        let nonce = self.next_nonce();
        let rec = if staged.len() == 1 {
            build_record_frame(
                &self.cipher,
                first_seq,
                nonce,
                staged[0].op,
                staged[0].key,
                &staged[0].value,
            )
        } else {
            self.counters.bump(|c| &c.wal_sealed_batches);
            build_group_frame(BATCH_TAG, &self.cipher, first_seq, nonce, &staged)
        };
        drop(staged); // wipes the staged plaintext values
        if let Err(e) = self.append_bytes(&rec) {
            self.poisoned = true;
            return Err(e);
        }
        self.counters.obs().stage(Stage::SealBatch, timer);
        Ok(())
    }

    fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        let mut off = 0;
        while off < bytes.len() {
            if self.tail_id.is_none() {
                let id = BlockId(self.next_block);
                self.ensure_allocated(id)?;
                self.tail_id = Some(id);
                self.next_block += 1;
                self.tail.fill(0);
                self.tail_used = 0;
            }
            let n = (self.block_size - self.tail_used).min(bytes.len() - off);
            self.tail[self.tail_used..self.tail_used + n].copy_from_slice(&bytes[off..off + n]);
            self.tail_used += n;
            off += n;
            self.tail_dirty = true;
            if self.tail_used == self.block_size {
                self.write_tail()?;
                self.tail_id = None;
            }
        }
        Ok(())
    }

    /// Makes everything appended so far visible to the device, then
    /// applies the [`SyncPolicy`]: returns `true` when this commit paid a
    /// physical fsync.
    pub fn commit(&mut self) -> Result<bool, EngineError> {
        self.check_poison()?;
        self.seal_staged()?;
        if self.tail_dirty {
            let timer = self.counters.obs().start();
            if let Err(e) = self.write_tail() {
                self.poisoned = true;
                return Err(e);
            }
            self.counters.obs().stage(Stage::WalAppend, timer);
        }
        self.pending_commits += 1;
        if self.policy.should_sync(self.pending_commits) {
            let amortised = self.pending_commits;
            self.force_sync()?;
            self.counters
                .obs()
                .note(EventKind::GroupCommit, NO_PARTITION, amortised as u64, 0, 0);
            return Ok(true);
        }
        Ok(false)
    }

    /// [`Wal::commit`], except that when this commit's policy point
    /// demands an fsync, the device is pipelined, and overlap is enabled
    /// ([`Wal::set_overlap`]), the fsync is enqueued on the writer thread
    /// behind the group's sealed blocks and its [`SyncTicket`] returned
    /// instead of being waited for here. The durability barrier moves
    /// out of this handle's lock scope — it does not weaken: the commit
    /// is durable only once the ticket's `wait` returns `Ok`, and the
    /// caller must not acknowledge it before then. Meanwhile another
    /// thread can take this handle and seal group N+1 while group N's
    /// fsync runs. Returns `Ok(None)` when no fsync was due, or when one
    /// was due and was paid inline (the non-overlapped path).
    pub fn commit_pipelined(&mut self) -> Result<Option<SyncTicket>, EngineError> {
        self.check_poison()?;
        self.seal_staged()?;
        if self.tail_dirty {
            let timer = self.counters.obs().start();
            if let Err(e) = self.write_tail() {
                self.poisoned = true;
                return Err(e);
            }
            self.counters.obs().stage(Stage::WalAppend, timer);
        }
        self.pending_commits += 1;
        if !self.policy.should_sync(self.pending_commits) {
            return Ok(None);
        }
        let amortised = self.pending_commits;
        if self.overlap {
            if let WalDisk::Piped(p) = &mut self.disk {
                self.counters.bump(|c| &c.wal_fsyncs);
                let ticket = match p.submit_sync() {
                    Ok(t) => t,
                    Err(e) => {
                        // Same fail-stop as a failed inline fsync: the
                        // durability of pending commits is unknowable.
                        self.poisoned = true;
                        return Err(e.into());
                    }
                };
                self.counters.obs().note(
                    EventKind::GroupCommit,
                    NO_PARTITION,
                    amortised as u64,
                    0,
                    0,
                );
                self.pending_commits = 0;
                return Ok(Some(ticket));
            }
        }
        self.force_sync()?;
        self.counters
            .obs()
            .note(EventKind::GroupCommit, NO_PARTITION, amortised as u64, 0, 0);
        Ok(None)
    }

    /// [`Wal::commit_pipelined`] with the sync policy overridden to *pay
    /// the durability barrier now*: multi-partition transaction commits
    /// use this so their one atomic frame is durable before any tree
    /// effect becomes visible — under a lazy [`SyncPolicy`] a fuzzy
    /// checkpoint could otherwise flush one partition's post-apply pages
    /// while a crash loses the log frame that also touched another
    /// partition, splitting the transaction. Overlap still applies: on a
    /// pipelined device the fsync is enqueued and its ticket returned,
    /// so the barrier is paid outside the WAL lock.
    pub fn commit_durable(&mut self) -> Result<Option<SyncTicket>, EngineError> {
        self.check_poison()?;
        self.seal_staged()?;
        if self.tail_dirty {
            let timer = self.counters.obs().start();
            if let Err(e) = self.write_tail() {
                self.poisoned = true;
                return Err(e);
            }
            self.counters.obs().stage(Stage::WalAppend, timer);
        }
        self.pending_commits += 1;
        let amortised = self.pending_commits;
        if self.overlap {
            if let WalDisk::Piped(p) = &mut self.disk {
                self.counters.bump(|c| &c.wal_fsyncs);
                let ticket = match p.submit_sync() {
                    Ok(t) => t,
                    Err(e) => {
                        self.poisoned = true;
                        return Err(e.into());
                    }
                };
                self.counters.obs().note(
                    EventKind::GroupCommit,
                    NO_PARTITION,
                    amortised as u64,
                    0,
                    0,
                );
                self.pending_commits = 0;
                return Ok(Some(ticket));
            }
        }
        self.force_sync()?;
        self.counters
            .obs()
            .note(EventKind::GroupCommit, NO_PARTITION, amortised as u64, 0, 0);
        Ok(None)
    }

    /// Unconditional write-out + fsync (checkpoint/shutdown path).
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.check_poison()?;
        self.seal_staged()?;
        if self.tail_dirty {
            if let Err(e) = self.write_tail() {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.force_sync()
    }

    fn check_poison(&self) -> Result<(), EngineError> {
        if self.poisoned {
            return Err(EngineError::WalPoisoned);
        }
        Ok(())
    }

    fn force_sync(&mut self) -> Result<(), EngineError> {
        self.counters.bump(|c| &c.wal_fsyncs);
        let timer = self.counters.obs().start();
        if let Err(e) = self.disk.sync() {
            // An fsync failure may have silently dropped dirty pages
            // (Linux clears the error flag), so the durability of every
            // unsynced commit is now unknowable from this handle: fail
            // stop rather than ack future commits over a silent hole.
            self.poisoned = true;
            return Err(e.into());
        }
        self.counters.obs().stage(Stage::WalFsync, timer);
        self.pending_commits = 0;
        Ok(())
    }

    fn write_tail(&mut self) -> Result<(), EngineError> {
        let id = self.tail_id.expect("dirty tail always has a block");
        self.disk.write_block(id, &self.tail)?;
        self.tail_dirty = false;
        Ok(())
    }

    fn ensure_allocated(&mut self, id: BlockId) -> Result<(), EngineError> {
        while self.disk.num_blocks() <= id.0 {
            let got = self.disk.allocate()?;
            debug_assert!(got.0 < self.disk.num_blocks());
        }
        Ok(())
    }

    /// Zeroes every byte of the stream from `pos` onward (torn-tail
    /// scrub), so stale bytes can never be re-parsed as records.
    fn scrub_after(&mut self, pos: usize) -> Result<(), EngineError> {
        let first_block = (pos / self.block_size) as u32;
        let zero = vec![0u8; self.block_size];
        for b in first_block..self.disk.num_blocks() {
            if b == first_block && !pos.is_multiple_of(self.block_size) {
                // Preserve the valid prefix inside the boundary block.
                let mut buf = zero.clone();
                buf[..self.tail_used].copy_from_slice(&self.tail[..self.tail_used]);
                self.disk.write_block(BlockId(b), &buf)?;
            } else {
                self.disk.write_block(BlockId(b), &zero)?;
            }
        }
        self.disk.sync()?;
        Ok(())
    }

    #[cfg(test)]
    fn poison_for_test(&mut self) {
        self.poisoned = true;
    }
}

/// How a CRC-valid frame groups its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    /// Legacy single-record frame ([`TAG`]).
    Record,
    /// Physical group-commit batch ([`BATCH_TAG`]): grouped for I/O, free
    /// to be flattened when the stream is rewritten.
    Batch,
    /// Multi-key transaction commit ([`TXN_TAG`]): grouped semantically,
    /// must stay one frame across rewrites.
    Txn,
}

impl FrameKind {
    /// Whether the sealed body is the grouped `count ‖ entries*` grammar.
    fn grouped(self) -> bool {
        self != FrameKind::Record
    }
}

enum Frame {
    /// A CRC-valid frame with the expected sequence number; `len` is the
    /// full record length including the header. Grouped kinds carry a
    /// sealed group of records (see [`BATCH_TAG`], [`TXN_TAG`]) starting
    /// at that seq.
    Complete {
        nonce: u64,
        len: usize,
        kind: FrameKind,
    },
    /// The buffer ends inside this frame; feed more bytes.
    NeedMore,
    /// Clean end of stream, or a frame-level violation (bad tag, bad CRC,
    /// sequence gap) — the caller distinguishes via trailing content.
    End,
}

fn parse_frame(buf: &[u8], expected_seq: u64) -> Frame {
    if buf.is_empty() {
        return Frame::NeedMore;
    }
    if buf[0] == 0 {
        return Frame::End;
    }
    let kind = match buf[0] {
        TAG => FrameKind::Record,
        BATCH_TAG => FrameKind::Batch,
        TXN_TAG => FrameKind::Txn,
        _ => return Frame::End,
    };
    if buf.len() < HEADER_LEN {
        return Frame::NeedMore;
    }
    let crc_stored = u32::from_be_bytes(buf[1..5].try_into().expect("fixed width"));
    let seq = u64::from_be_bytes(buf[5..13].try_into().expect("fixed width"));
    let nonce = u64::from_be_bytes(buf[13..21].try_into().expect("fixed width"));
    let blen = u32::from_be_bytes(buf[21..25].try_into().expect("fixed width")) as usize;
    let body_min = if kind.grouped() {
        4 + 2 * BATCH_ENTRY_HEADER // count + two minimal entries
    } else {
        BODY_MIN
    };
    if blen < body_min || seq != expected_seq {
        return Frame::End;
    }
    let total = HEADER_LEN + blen;
    if buf.len() < total {
        return Frame::NeedMore;
    }
    if crc32(&buf[5..total]) != crc_stored {
        return Frame::End;
    }
    Frame::Complete {
        nonce,
        len: total,
        kind,
    }
}

/// Volatile zero of a plaintext scratch buffer (never elided).
fn wipe(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        unsafe { std::ptr::write_volatile(b, 0) };
    }
}

fn finish_frame(tag: u8, seq: u64, nonce: u64, sealed: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(HEADER_LEN + sealed.len());
    rec.push(tag);
    rec.extend_from_slice(&[0u8; 4]); // crc placeholder
    rec.extend_from_slice(&seq.to_be_bytes());
    rec.extend_from_slice(&nonce.to_be_bytes());
    rec.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
    rec.extend_from_slice(sealed);
    let crc = crc32(&rec[5..]);
    rec[1..5].copy_from_slice(&crc.to_be_bytes());
    rec
}

/// One legacy single-record frame: `tag ‖ crc ‖ seq ‖ nonce ‖ blen ‖
/// E(op ‖ key ‖ value)`.
fn build_record_frame(
    cipher: &Speck64,
    seq: u64,
    nonce: u64,
    op: u8,
    key: u64,
    value: &[u8],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(BODY_MIN + value.len());
    body.push(op);
    body.extend_from_slice(&key.to_be_bytes());
    body.extend_from_slice(value);
    let sealed = ctr_xor(cipher, nonce, &body);
    wipe(&mut body);
    finish_frame(TAG, seq, nonce, &sealed)
}

/// One grouped frame ([`BATCH_TAG`] or [`TXN_TAG`]) sealing the whole
/// group under a single nonce: `tag ‖ crc ‖ first_seq ‖ nonce ‖ blen ‖
/// E(count ‖ (op ‖ key ‖ vlen ‖ value)*)`.
fn build_group_frame(
    tag: u8,
    cipher: &Speck64,
    first_seq: u64,
    nonce: u64,
    staged: &[StagedOp],
) -> Vec<u8> {
    let body_len: usize = 4 + staged
        .iter()
        .map(|s| BATCH_ENTRY_HEADER + s.value.len())
        .sum::<usize>();
    let mut body = Vec::with_capacity(body_len);
    body.extend_from_slice(&(staged.len() as u32).to_be_bytes());
    for s in staged {
        body.push(s.op);
        body.extend_from_slice(&s.key.to_be_bytes());
        body.extend_from_slice(&(s.value.len() as u32).to_be_bytes());
        body.extend_from_slice(&s.value);
    }
    let sealed = ctr_xor(cipher, nonce, &body);
    wipe(&mut body);
    finish_frame(tag, first_seq, nonce, &sealed)
}

/// Decodes a decrypted batch body into `(op, key, value)` entries;
/// `None` on any grammar violation (the caller treats it as a torn
/// tail, exactly like a frame-level violation).
fn decode_batch(body: &[u8]) -> Option<Vec<(u8, u64, Vec<u8>)>> {
    if body.len() < 4 {
        return None;
    }
    let count = u32::from_be_bytes(body[0..4].try_into().expect("fixed width")) as usize;
    if count < 2 {
        return None; // the writer never emits smaller groups as batches
    }
    // The count word is corruption-controlled (a CRC-colliding body gets
    // this far), so it must never size an allocation on its own: a body of
    // `len` bytes can hold at most `len / BATCH_ENTRY_HEADER` entries.
    if count > body.len() / BATCH_ENTRY_HEADER {
        return None;
    }
    let mut off = 4;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if body.len().checked_sub(off)? < BATCH_ENTRY_HEADER {
            return None;
        }
        let op = body[off];
        if op != OP_INSERT && op != OP_DELETE {
            return None;
        }
        let key = u64::from_be_bytes(body[off + 1..off + 9].try_into().expect("fixed width"));
        let vlen =
            u32::from_be_bytes(body[off + 9..off + 13].try_into().expect("fixed width")) as usize;
        off += BATCH_ENTRY_HEADER;
        if body.len().checked_sub(off)? < vlen {
            return None;
        }
        out.push((op, key, body[off..off + vlen].to_vec()));
        off = off.checked_add(vlen)?;
    }
    if off != body.len() {
        return None; // trailing garbage inside a CRC-valid frame: torn
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u128 = 0x00AA_BB11_22CC_DD33_44EE_FF55_6677_8899;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sks_wal_{}_{}", std::process::id(), name));
        p
    }

    fn reopen(path: &std::path::Path) -> (Wal, WalReplay) {
        Wal::open(path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap()
    }

    #[test]
    fn append_commit_replay_roundtrip() {
        let path = tmpfile("roundtrip");
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..40u64 {
                wal.append_insert(k, format!("value-{k}").as_bytes())
                    .unwrap();
                wal.commit().unwrap();
            }
            wal.append_delete(7).unwrap();
            wal.commit().unwrap();
        }
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 41);
        assert_eq!(replay.records[0].seq, 2, "seq 1 is the key-check sentinel");
        assert_eq!(
            replay.records[40].op,
            WalOp::Delete { key: 7 },
            "last record is the delete"
        );
        assert_eq!(
            replay.records[12].op,
            WalOp::Insert {
                key: 12,
                value: b"value-12".to_vec()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_straddle_blocks() {
        let path = tmpfile("straddle");
        {
            let mut wal =
                Wal::create(&path, 64, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            // 100-byte values force every record across block boundaries.
            for k in 0..10u64 {
                wal.append_insert(k, &[k as u8; 100]).unwrap();
                wal.commit().unwrap();
            }
        }
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 10);
        for (k, rec) in replay.records.iter().enumerate() {
            assert_eq!(
                rec.op,
                WalOp::Insert {
                    key: k as u64,
                    value: vec![k as u8; 100]
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_reopen() {
        let path = tmpfile("continue");
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            wal.append_insert(1, b"one").unwrap();
            wal.commit().unwrap();
        }
        {
            let (mut wal, replay) = reopen(&path);
            assert_eq!(replay.records.len(), 1);
            assert_eq!(wal.next_seq(), 3, "sentinel + one record consumed 1..=2");
            wal.append_insert(2, b"two").unwrap();
            wal.commit().unwrap();
        }
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].seq, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_bytes_never_leak_keys_or_values() {
        let path = tmpfile("sealed");
        // Distinctive key values whose big-endian bytes cannot collide
        // with the plaintext seq field or block padding.
        let secret_key = |k: u64| 0xDEAD_BEEF_0000_0000u64 | (k * 3 + 1);
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..32u64 {
                wal.append_insert(secret_key(k), b"EXTREMELY-SECRET-PAYLOAD")
                    .unwrap();
                wal.commit().unwrap();
            }
        }
        let raw = std::fs::read(&path).unwrap();
        assert!(
            !raw.windows(16).any(|w| w == &b"EXTREMELY-SECRET"[..]),
            "record values must be sealed on the medium"
        );
        for k in 0..32u64 {
            let needle = secret_key(k).to_be_bytes();
            let hits = raw.windows(8).filter(|w| *w == needle).count();
            assert_eq!(hits, 0, "plaintext key {k} visible in the log");
        }
        // But replay under the right key recovers everything.
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 32);
        assert_eq!(
            replay.records[5].op,
            WalOp::Insert {
                key: secret_key(5),
                value: b"EXTREMELY-SECRET-PAYLOAD".to_vec()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_payload_twice_yields_distinct_cryptograms() {
        // Per-record nonces: identical plaintext must never produce
        // identical sealed bytes (checkpoint rewrites depend on this).
        let path = tmpfile("nonce_fresh");
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            wal.append_insert(42, b"SAME-PAYLOAD-SAME-KEY").unwrap();
            wal.append_insert(42, b"SAME-PAYLOAD-SAME-KEY").unwrap();
            wal.commit().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        // Find the two sealed bodies: scan for any repeated 21-byte
        // window (body length) outside the zero padding.
        let body_len = BODY_MIN + b"SAME-PAYLOAD-SAME-KEY".len();
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for w in raw.windows(body_len) {
            if w.iter().any(|&b| b != 0) && !seen.insert(w.to_vec()) {
                repeats += 1;
            }
        }
        assert_eq!(
            repeats, 0,
            "identical plaintexts produced repeated sealed bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_key_fails_closed_without_destroying_the_log() {
        let path = tmpfile("wrong_key");
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..8u64 {
                wal.append_insert(k, b"v").unwrap();
                wal.commit().unwrap();
            }
        }
        let err = Wal::open(&path, KEY ^ 1, SyncPolicy::Always, OpCounters::new())
            .map(|_| ())
            .expect_err("wrong key must be rejected");
        assert!(format!("{err}").contains("key mismatch"), "got: {err}");
        // The failed open must not have damaged anything: the right key
        // still recovers every record.
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_file_recovers_prefix() {
        let path = tmpfile("torn_truncate");
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..20u64 {
                wal.append_insert(k, &[0xCD; 50]).unwrap();
                wal.commit().unwrap();
            }
        }
        // Chop the file mid-way through the stream: a hard truncation of
        // the physical medium, cutting the last records in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 300).unwrap();
        drop(f);

        let (_wal, replay) = reopen(&path);
        assert!(replay.torn_tail, "truncation must be detected");
        assert!(
            !replay.records.is_empty() && replay.records.len() < 20,
            "a strict prefix survives, got {}",
            replay.records.len()
        );
        for (k, rec) in replay.records.iter().enumerate() {
            assert_eq!(
                rec.op,
                WalOp::Insert {
                    key: k as u64,
                    value: vec![0xCD; 50]
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_corrupt_bytes_recover_prefix_and_scrub() {
        let path = tmpfile("torn_corrupt");
        let logical_len;
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..8u64 {
                wal.append_insert(k, &[7; 20]).unwrap();
                wal.commit().unwrap();
            }
            logical_len = wal.len_bytes();
        }
        // Flip bytes inside the last record's sealed body: the stream
        // starts after the FileDisk's fixed 8 KiB header, so this lands
        // 10 bytes before the logical end — mid-payload.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(8192 + logical_len - 10)).unwrap();
            f.write_all(&[0xFF; 5]).unwrap();
        }
        let (mut wal, replay) = reopen(&path);
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 7, "first seven records intact");

        // The scrub + reopen leaves a log that keeps working.
        wal.append_insert(99, b"after-recovery").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail, "scrubbed log is clean again");
        assert_eq!(replay.records.len(), 8);
        assert_eq!(
            replay.records[7].op,
            WalOp::Insert {
                key: 99,
                value: b"after-recovery".to_vec()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_amortises_fsyncs() {
        let path = tmpfile("group_commit");
        let counters = OpCounters::new();
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::EveryN(8), counters.clone()).unwrap();
            for k in 0..64u64 {
                wal.append_insert(k, b"v").unwrap();
                wal.commit().unwrap();
            }
        }
        let s = counters.snapshot();
        assert_eq!(
            s.wal_appends, 64,
            "the key-check sentinel is not client traffic"
        );
        assert_eq!(
            s.wal_fsyncs,
            8 + 1,
            "64 commits at EveryN(8) = 8 fsyncs, +1 for the durable sentinel"
        );
        // Nothing is lost despite the amortisation (process exit, not
        // power failure).
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_since_returns_the_fuzzy_tail() {
        let path = tmpfile("records_since");
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        for k in 0..10u64 {
            wal.append_insert(k, format!("v{k}").as_bytes()).unwrap();
            wal.commit().unwrap();
        }
        let (mark, mark_offset) = (wal.next_seq(), wal.len_bytes());
        wal.append_insert(100, b"tail-a").unwrap();
        wal.append_delete(3).unwrap();
        // Deliberately no commit: the scan must see the in-memory tail.
        let tail = wal.records_since(mark, mark_offset).unwrap();
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|g| !g.txn && g.records.len() == 1));
        assert_eq!(
            tail[0].records[0].op,
            WalOp::Insert {
                key: 100,
                value: b"tail-a".to_vec()
            }
        );
        assert_eq!(tail[1].records[0].op, WalOp::Delete { key: 3 });
        // From the very beginning: every client record, sentinel excluded.
        assert_eq!(wal.records_since(1, 0).unwrap().len(), 12);
        // An empty tail (mark at the stream end) scans to nothing.
        let (end_seq, end_off) = (wal.next_seq(), wal.len_bytes());
        assert!(wal.records_since(end_seq, end_off).unwrap().is_empty());
        // Appends still work after the scan.
        wal.append_insert(101, b"after").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 13);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_wal_fail_stops() {
        let path = tmpfile("poison");
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        wal.append_insert(1, b"ok").unwrap();
        wal.commit().unwrap();
        wal.poison_for_test();
        assert!(wal.is_poisoned());
        assert!(matches!(
            wal.append_insert(2, b"no"),
            Err(EngineError::WalPoisoned)
        ));
        assert!(matches!(wal.commit(), Err(EngineError::WalPoisoned)));
        assert!(matches!(wal.flush(), Err(EngineError::WalPoisoned)));
        // Reopen recovers the committed prefix and a fresh, usable handle.
        drop(wal);
        let (mut wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 1);
        wal.append_insert(2, b"yes").unwrap();
        wal.commit().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_group_commit_replays_every_record() {
        let path = tmpfile("batch_roundtrip");
        let counters = OpCounters::new();
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::Always, counters.clone()).unwrap();
            wal.set_seal_batch(true);
            wal.enable_pipeline();
            // Two group commits of five records, one of three.
            for batch in 0..3u64 {
                let n = if batch < 2 { 5 } else { 3 };
                for i in 0..n {
                    let k = batch * 10 + i;
                    wal.append_insert(k, format!("b{batch}-{i}").as_bytes())
                        .unwrap();
                }
                wal.commit().unwrap();
            }
        }
        let s = counters.snapshot();
        assert_eq!(s.wal_appends, 13, "every record charged individually");
        assert_eq!(s.wal_sealed_batches, 3, "one sealed body per group commit");
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 13);
        // Seqs stay dense across batch boundaries (sentinel is seq 1).
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 2);
        }
        assert_eq!(
            replay.records[7].op,
            WalOp::Insert {
                key: 12,
                value: b"b1-2".to_vec()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn singleton_commits_keep_legacy_framing() {
        let path = tmpfile("batch_singleton");
        let counters = OpCounters::new();
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, counters.clone()).unwrap();
            wal.set_seal_batch(true);
            wal.enable_pipeline();
            for k in 0..4u64 {
                wal.append_insert(k, b"solo").unwrap();
                wal.commit().unwrap();
            }
        }
        assert_eq!(
            counters.snapshot().wal_sealed_batches,
            0,
            "a one-record commit is not a batch"
        );
        // A log of singleton batch-mode commits is readable by a plain
        // (batch-off) reopen: the framings are identical.
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_legacy_and_batch_log_replays() {
        let path = tmpfile("batch_mixed");
        {
            // Legacy era: per-record frames.
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            for k in 0..5u64 {
                wal.append_insert(k, b"legacy").unwrap();
                wal.commit().unwrap();
            }
        }
        {
            // Batch era on the same log.
            let (mut wal, replay) = reopen(&path);
            assert_eq!(replay.records.len(), 5);
            wal.set_seal_batch(true);
            wal.enable_pipeline();
            for k in 5..11u64 {
                wal.append_insert(k, b"batched").unwrap();
            }
            wal.commit().unwrap();
            // And one more legacy-framed record after toggling back off.
            wal.set_seal_batch(false);
            wal.append_insert(11, b"legacy-again").unwrap();
            wal.commit().unwrap();
        }
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 12);
        for (k, rec) in replay.records.iter().enumerate() {
            let value = match k {
                0..=4 => &b"legacy"[..],
                5..=10 => &b"batched"[..],
                _ => &b"legacy-again"[..],
            };
            assert_eq!(
                rec.op,
                WalOp::Insert {
                    key: k as u64,
                    value: value.to_vec()
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_batch_tail_recovers_committed_prefix() {
        let path = tmpfile("batch_torn");
        {
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
            wal.set_seal_batch(true);
            wal.enable_pipeline();
            for batch in 0..4u64 {
                for i in 0..5 {
                    wal.append_insert(batch * 5 + i, &[0xAB; 40]).unwrap();
                }
                wal.commit().unwrap();
            }
        }
        // Chop the medium mid-way through the last batch's sealed body:
        // the CRC covers the whole group, so the entire torn batch must
        // vanish while every earlier batch survives intact.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 100).unwrap();
        drop(f);

        let (_wal, replay) = reopen(&path);
        assert!(replay.torn_tail, "truncation must be detected");
        assert!(
            !replay.records.is_empty() && replay.records.len() < 20,
            "a strict prefix survives, got {}",
            replay.records.len()
        );
        assert_eq!(
            replay.records.len() % 5,
            0,
            "recovery is all-or-nothing per sealed batch"
        );
        for (k, rec) in replay.records.iter().enumerate() {
            assert_eq!(
                rec.op,
                WalOp::Insert {
                    key: k as u64,
                    value: vec![0xAB; 40]
                }
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_since_spans_batches_and_staged_tail() {
        let path = tmpfile("batch_records_since");
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        wal.set_seal_batch(true);
        wal.enable_pipeline();
        for batch in 0..2u64 {
            for i in 0..4 {
                wal.append_insert(batch * 4 + i, b"pre").unwrap();
            }
            wal.commit().unwrap();
        }
        let (mark, mark_offset) = (wal.next_seq(), wal.len_bytes());
        // One committed batch after the mark, plus a staged (uncommitted)
        // pair the scan must still surface.
        for k in 100..103u64 {
            wal.append_insert(k, b"tail").unwrap();
        }
        wal.commit().unwrap();
        wal.append_insert(200, b"staged").unwrap();
        wal.append_delete(201).unwrap();
        let tail = wal.records_since(mark, mark_offset).unwrap();
        // Two groups — the committed triple and the sealed staged pair —
        // both physical batches the cut is free to flatten.
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|g| !g.txn));
        let flat: Vec<&WalRecord> = tail.iter().flat_map(|g| &g.records).collect();
        assert_eq!(flat.len(), 5);
        assert_eq!(
            flat[0].op,
            WalOp::Insert {
                key: 100,
                value: b"tail".to_vec()
            }
        );
        assert_eq!(flat[4].op, WalOp::Delete { key: 201 });
        // From the start: all 13 client records, sentinel excluded.
        let all: usize = wal
            .records_since(1, 0)
            .unwrap()
            .iter()
            .map(|g| g.records.len())
            .sum();
        assert_eq!(all, 13);
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 13);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn txn_frame_roundtrip_and_tail_grouping() {
        let path = tmpfile("txn_roundtrip");
        let counters = OpCounters::new();
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, counters.clone()).unwrap();
        wal.append_insert(1, b"solo").unwrap();
        wal.commit().unwrap();
        let before = counters.snapshot();
        let ops = vec![
            WalOp::Insert {
                key: 10,
                value: b"txn-a".to_vec(),
            },
            WalOp::Delete { key: 1 },
            WalOp::Insert {
                key: 11,
                value: b"txn-b".to_vec(),
            },
        ];
        let first = wal.append_txn(&ops).unwrap();
        wal.commit().unwrap();
        let delta = counters.snapshot().delta(&before);
        // Per-record logical charge, as if appended individually.
        assert_eq!(delta.wal_appends, 3);
        assert_eq!(
            delta.wal_bytes,
            3 * (HEADER_LEN + BODY_MIN) as u64 + (b"txn-a".len() + b"txn-b".len()) as u64
        );
        assert_eq!(delta.wal_txn_frames, 1);
        assert_eq!(delta.wal_sealed_batches, 0);
        // The frame consumed three consecutive seqs.
        assert_eq!(wal.next_seq(), first + 3);

        // The checkpoint tail scan returns the txn as ONE group it must
        // re-seal atomically; the solo record stays a free singleton.
        let groups = wal.records_since(1, 0).unwrap();
        assert_eq!(groups.len(), 2);
        assert!(!groups[0].txn);
        assert!(groups[1].txn);
        assert_eq!(groups[1].records.len(), 3);
        assert_eq!(groups[1].records[0].seq, first);
        drop(wal);

        // Replay recovers every record of the frame, in order.
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[1].op, ops[0]);
        assert_eq!(replay.records[2].op, ops[1]);
        assert_eq!(replay.records[3].op, ops[2]);
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_txn_frame_replays_all_or_nothing() {
        // Corrupt one byte inside a committed txn frame: the whole
        // transaction must vanish on replay — never a prefix of it.
        let path = tmpfile("txn_torn");
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        wal.append_insert(1, b"keep").unwrap();
        wal.commit().unwrap();
        let frame_start = wal.len_bytes();
        wal.append_txn(&[
            WalOp::Insert {
                key: 2,
                value: b"half-a".to_vec(),
            },
            WalOp::Insert {
                key: 3,
                value: b"half-b".to_vec(),
            },
        ])
        .unwrap();
        wal.commit().unwrap();
        drop(wal);

        // Flip a byte in the middle of the txn frame's sealed body (the
        // stream starts after the FileDisk's fixed 8 KiB header).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = 8192 + frame_start as usize + HEADER_LEN + 6;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_wal, replay) = reopen(&path);
        assert!(replay.torn_tail, "the damaged frame is a torn tail");
        assert_eq!(replay.records.len(), 1, "all-or-nothing: none of the txn");
        assert_eq!(replay.records[0].seq, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_mode_preserves_logical_wal_counters() {
        // The same workload, batch off vs batch+pipeline on: every
        // logical WAL counter except the batch tally itself must agree.
        let run = |name: &str, batched: bool| {
            let path = tmpfile(name);
            let counters = OpCounters::new();
            {
                let mut wal =
                    Wal::create(&path, 256, KEY, SyncPolicy::EveryN(4), counters.clone()).unwrap();
                if batched {
                    wal.set_seal_batch(true);
                    wal.enable_pipeline();
                }
                counters.reset();
                for batch in 0..8u64 {
                    for i in 0..4 {
                        wal.append_insert(batch * 4 + i, b"pinned-value").unwrap();
                    }
                    wal.commit().unwrap();
                }
                wal.flush().unwrap();
            }
            std::fs::remove_file(&path).ok();
            counters.snapshot()
        };
        let off = run("pin_off", false);
        let on = run("pin_on", true);
        assert_eq!(off.wal_sealed_batches, 0);
        assert_eq!(on.wal_sealed_batches, 8);
        assert_eq!(on.wal_appends, off.wal_appends);
        assert_eq!(
            on.wal_bytes, off.wal_bytes,
            "logical WAL bytes are charged per record, not per frame"
        );
        assert_eq!(
            on.wal_fsyncs, off.wal_fsyncs,
            "group-commit cadence is untouched by batch sealing"
        );
    }

    #[test]
    fn crc_valid_batch_count_u32_max_fails_closed() {
        // The count word is corruption-controlled even under a valid frame
        // CRC: decode_batch must reject an absurd value before sizing any
        // allocation, instead of reserving count * entry bytes up front.
        let mut raw = vec![0u8; 64];
        raw[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_batch(&raw), None);

        // End to end: a batch frame whose CRC *is* valid over a sealed
        // body claiming u32::MAX entries. Replay must treat it as a torn
        // tail — promptly, with no multi-GB reservation — and leave the
        // log usable for further appends.
        let path = tmpfile("batch_count_max");
        drop(Wal::create(&path, 512, KEY, SyncPolicy::Always, OpCounters::new()).unwrap());

        let cipher = Speck64::from_u128(KEY);
        let nonce = 0xDEAD_BEEF_u64;
        let mut body = vec![0u8; 4 + 2 * BATCH_ENTRY_HEADER];
        body[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let frame = finish_frame(BATCH_TAG, 2, nonce, &ctr_xor(&cipher, nonce, &body));

        let sentinel_len = HEADER_LEN + BODY_MIN + KEYCHECK_MAGIC.len();
        let mut disk = FileDisk::open_with_counters(&path, OpCounters::new()).unwrap();
        let mut block0 = disk.read_block_vec(BlockId(0)).unwrap();
        block0[sentinel_len..sentinel_len + frame.len()].copy_from_slice(&frame);
        BlockStore::write_block(&mut disk, BlockId(0), &block0).unwrap();
        BlockStore::flush(&mut disk).unwrap();
        drop(disk);

        let (mut wal, replay) =
            Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert!(replay.records.is_empty(), "corrupt batch is a torn tail");
        assert!(replay.torn_tail, "the damaged frame is scrubbed");
        wal.append_insert(7, b"still-usable").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
