//! Drives one engine through a workload: set-up, warm-up, the timed
//! window, the recovery tail, reopen and the verify sweep. Every answer
//! the engine gives is checked against the shadow model.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sks_core::{Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, ObsLevel, Session, SksDb, Stage, StatsSnapshot};
use sks_storage::OpSnapshot;

use crate::calib::{process_cpu_s, Kernel, NOMINAL_US};
use crate::gen::{
    apply_to_model, stream_hash, value, Kind, Model, Op, OpGen, Rng, Spec, RECORD_BYTES,
};
use crate::probes::median;
use crate::sysio::{dir_bytes, rss_mb, ProcIo};
use crate::trace::{self, Tracer};

/// The engine configuration every workload runs: the defaults, with only
/// the scheme, capacity, partition count and file backend chosen.
pub fn engine_config(spec: &Spec, dir: &Path, level: ObsLevel) -> EngineConfig {
    let mut scheme = SchemeConfig::with_capacity(Scheme::Oval, spec.capacity)
        .partitions(4)
        .backend(StorageBackend::file(dir));
    if level != scheme.observability {
        scheme = scheme.observability(level);
    }
    EngineConfig::new(scheme)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-call latency samples (ns) by op kind, each tagged with the
/// checkpoint cycle it ran in.
#[derive(Default)]
pub struct Lat {
    ns: [Vec<u64>; 6],
    cycle: [Vec<u32>; 6],
}

impl Lat {
    fn push(&mut self, k: Kind, cycle: u32, ns: u64) {
        self.ns[k.idx()].push(ns);
        self.cycle[k.idx()].push(cycle);
    }

    pub fn get(&self, k: Kind) -> &[u64] {
        &self.ns[k.idx()]
    }

    /// Samples of kind `k` grouped by cycle, for cycles `0..cycles`.
    pub fn by_cycle(&self, k: Kind, cycles: u32) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); cycles as usize];
        for (&ns, &c) in self.ns[k.idx()].iter().zip(&self.cycle[k.idx()]) {
            if c < cycles {
                out[c as usize].push(ns);
            }
        }
        out
    }
}

/// Counter deltas and time, summed per op kind (traced run only).
#[derive(Default)]
pub struct Ledger {
    pub n: [u64; 6],
    pub ns: [u64; 6],
    pub sums: [Vec<u64>; 6],
}

impl Ledger {
    fn add(&mut self, k: Kind, ns: u64, delta: &OpSnapshot) {
        let i = k.idx();
        self.n[i] += 1;
        self.ns[i] += ns;
        let fields = delta.fields();
        if self.sums[i].is_empty() {
            self.sums[i] = vec![0; fields.len()];
        }
        for (s, (_, v)) in self.sums[i].iter_mut().zip(fields) {
            *s += v;
        }
    }

    /// Summed counter `field` over ops of kind `k`.
    pub fn total(&self, k: Kind, field: &str) -> u64 {
        let names = OpSnapshot::default().fields();
        let Some(pos) = names.iter().position(|(n, _)| *n == field) else {
            panic!("no counter {field}");
        };
        self.sums[k.idx()].get(pos).copied().unwrap_or(0)
    }

    /// Counter `field` per op of kind `k` (0 when no such op ran).
    pub fn per_op(&self, k: Kind, field: &str) -> f64 {
        let n = self.n[k.idx()];
        if n == 0 {
            0.0
        } else {
            self.total(k, field) as f64 / n as f64
        }
    }
}

/// One client session plus the bookkeeping around it.
pub struct Client {
    pub db: Arc<SksDb>,
    session: Session,
    pub model: Model,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub lat: Lat,
    /// Checkpoint cycle the next op belongs to.
    pub cycle: u32,
    /// Ops since the last checkpoint.
    since_ckpt: u64,
    /// User key+value bytes acknowledged as written.
    pub user_bytes: u64,
    pub trace: Option<Tracer>,
    pub ledger: Option<Ledger>,
}

impl Client {
    pub fn new(db: Arc<SksDb>, model: Model, seed: u64) -> Self {
        Client {
            session: db.session(),
            db,
            model,
            seed,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            lat: Lat::default(),
            cycle: 0,
            since_ckpt: 0,
            user_bytes: 0,
            trace: None,
            ledger: None,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn expect_value(&self, key: u64, got: &Option<Vec<u8>>) -> bool {
        let want = self.model.ver(key).map(|v| value(self.seed, key, v));
        *got == want
    }

    /// Runs one op, times it, checks its answer and, when it succeeds,
    /// applies it to the model.
    pub fn exec(&mut self, op: Op) {
        let kind = op.kind();
        self.attempted += 1;
        let before = self.ledger.as_ref().map(|_| self.db.snapshot());
        trace::begin_op(&mut self.trace, kind.name());
        let (ns, outcome) = match op {
            Op::Put(k) => {
                let v = value(self.seed, k, self.model.next_ver());
                trace::begin(&mut self.trace, "engine.insert");
                let t = Instant::now();
                let r = self.session.insert(k, v);
                let ns = ns_since(t);
                trace::end(&mut self.trace);
                let outcome = match r {
                    Ok(prev) if self.expect_value(k, &prev) => {
                        self.user_bytes += RECORD_BYTES;
                        apply_to_model(&mut self.model, op);
                        Ok(())
                    }
                    Ok(_) => Err(format!("insert {k}: wrong previous value")),
                    Err(e) => Err(format!("insert {k}: {e}")),
                };
                (ns, outcome)
            }
            Op::Get(k) => {
                trace::begin(&mut self.trace, "engine.get");
                let t = Instant::now();
                let r = self.session.get(k);
                let ns = ns_since(t);
                trace::end(&mut self.trace);
                let outcome = match r {
                    Ok(got) if self.expect_value(k, &got) => Ok(()),
                    Ok(_) => Err(format!("get {k}: wrong value")),
                    Err(e) => Err(format!("get {k}: {e}")),
                };
                (ns, outcome)
            }
            Op::Range(lo, hi) => {
                trace::begin(&mut self.trace, "engine.range");
                let t = Instant::now();
                let r = self.session.range(lo, hi);
                let ns = ns_since(t);
                trace::end(&mut self.trace);
                let outcome = match r {
                    Ok(rows) => {
                        let want = self.model.vals.range(lo..=hi);
                        let ok = rows.len() == want.clone().count()
                            && rows.iter().zip(want).all(|((k, v), (wk, wv))| {
                                k == wk && *v == value(self.seed, *wk, *wv)
                            });
                        if ok {
                            Ok(())
                        } else {
                            Err(format!("range {lo}..={hi}: wrong rows"))
                        }
                    }
                    Err(e) => Err(format!("range {lo}..={hi}: {e}")),
                };
                (ns, outcome)
            }
            Op::Txn(keys) => self.txn(keys, true),
            Op::Delete(k) => {
                trace::begin(&mut self.trace, "engine.delete");
                let t = Instant::now();
                let r = self.session.delete(k);
                let ns = ns_since(t);
                trace::end(&mut self.trace);
                let outcome = match r {
                    Ok(prev) if self.expect_value(k, &prev) => {
                        self.user_bytes += 8;
                        apply_to_model(&mut self.model, op);
                        Ok(())
                    }
                    Ok(_) => Err(format!("delete {k}: wrong previous value")),
                    Err(e) => Err(format!("delete {k}: {e}")),
                };
                (ns, outcome)
            }
        };
        trace::end(&mut self.trace);
        self.finish(kind, ns, before, outcome);
    }

    /// A four-key transaction: read every key, and when `write` is set
    /// overwrite each with its next version (read-modify-write), then
    /// commit. Reads are checked against the model as of the begin.
    fn txn(&mut self, keys: [u64; 4], write: bool) -> (u64, Result<(), String>) {
        let base = self.model.next_ver();
        let vals: Vec<Vec<u8>> = (0..4)
            .map(|i| value(self.seed, keys[i], base + i as u32))
            .collect();
        let mut got = Vec::with_capacity(4);
        let t = Instant::now();
        trace::begin(&mut self.trace, "engine.begin");
        let mut txn = self.session.begin();
        trace::end(&mut self.trace);
        let mut r = Ok(());
        for (i, &k) in keys.iter().enumerate() {
            trace::begin(&mut self.trace, "txn.get");
            let g = txn.get(k);
            trace::end(&mut self.trace);
            match g {
                Ok(v) => got.push(v),
                Err(e) => {
                    r = Err(e);
                    break;
                }
            }
            if write {
                trace::begin(&mut self.trace, "txn.insert");
                let w = txn.insert(k, vals[i].clone());
                trace::end(&mut self.trace);
                if let Err(e) = w {
                    r = Err(e);
                    break;
                }
            }
        }
        if r.is_ok() {
            trace::begin(&mut self.trace, "txn.commit");
            r = txn.commit();
            trace::end(&mut self.trace);
        }
        let ns = ns_since(t);
        drop(txn);
        let outcome = match r {
            Ok(()) => {
                if keys.iter().zip(&got).all(|(&k, g)| self.expect_value(k, g)) {
                    if write {
                        self.user_bytes += 4 * RECORD_BYTES;
                        apply_to_model(&mut self.model, Op::Txn(keys));
                    }
                    Ok(())
                } else {
                    Err(format!("txn {keys:?}: wrong snapshot read"))
                }
            }
            Err(e) => Err(format!("txn {keys:?}: {e}")),
        };
        (ns, outcome)
    }

    /// A read-only four-key transaction (verify sweep).
    pub fn read_txn(&mut self, keys: [u64; 4]) {
        self.attempted += 1;
        let before = self.ledger.as_ref().map(|_| self.db.snapshot());
        trace::begin_op(&mut self.trace, "txn");
        let (ns, outcome) = self.txn(keys, false);
        trace::end(&mut self.trace);
        self.finish(Kind::Txn, ns, before, outcome);
    }

    /// Runs the stream's next op, plus the checkpoint when it completes a
    /// cycle of `spec.ckpt_every` ops; true then.
    pub fn step(&mut self, gen: &mut OpGen, spec: &Spec) -> bool {
        let op = gen.next(&self.model);
        self.exec(op);
        self.since_ckpt += 1;
        let closes = self.since_ckpt == spec.ckpt_every;
        if closes {
            self.checkpoint();
            self.since_ckpt = 0;
        }
        closes
    }

    /// Runs on past `spec.warmup` ops to a cycle boundary, so timing
    /// starts on one. Its latencies are not kept.
    pub fn warm_up(&mut self, gen: &mut OpGen, spec: &Spec) {
        let lat = std::mem::take(&mut self.lat);
        trace::begin(&mut self.trace, "warmup");
        let mut warm = 0;
        while warm < spec.warmup || warm % spec.ckpt_every != 0 {
            self.step(gen, spec);
            warm += 1;
        }
        trace::end(&mut self.trace);
        self.lat = lat;
    }

    pub fn checkpoint(&mut self) {
        self.attempted += 1;
        let before = self.ledger.as_ref().map(|_| self.db.snapshot());
        trace::begin_op(&mut self.trace, "checkpoint");
        trace::begin(&mut self.trace, "engine.checkpoint");
        let t = Instant::now();
        let r = self.db.checkpoint();
        let ns = ns_since(t);
        trace::end(&mut self.trace);
        trace::end(&mut self.trace);
        self.finish(Kind::Checkpoint, ns, before, r.map(|_| ()).map_err(err));
    }

    pub fn flush(&mut self) {
        self.attempted += 1;
        trace::begin(&mut self.trace, "engine.flush");
        let r = self.db.flush();
        trace::end(&mut self.trace);
        if let Err(e) = r {
            self.fail(format!("flush: {e}"));
        }
    }

    fn finish(
        &mut self,
        kind: Kind,
        ns: u64,
        before: Option<OpSnapshot>,
        outcome: Result<(), String>,
    ) {
        self.lat.push(kind, self.cycle, ns);
        if let (Some(ledger), Some(before)) = (self.ledger.as_mut(), before) {
            ledger.add(kind, ns, &self.db.snapshot().delta(&before));
        }
        if let Err(what) = outcome {
            self.fail(what);
        }
    }
}

/// Closes the client's engine and times opening it again, recovery
/// included; the client continues on the reopened engine.
fn reopen(mut c: Client, dir: &Path, config: EngineConfig) -> Result<(Client, f64), String> {
    drop(c.session);
    drop(c.db);
    trace::begin(&mut c.trace, "engine.open");
    let t = Instant::now();
    let db = SksDb::open(dir, config).map_err(err)?;
    let secs = t.elapsed().as_secs_f64();
    trace::end(&mut c.trace);
    c.session = db.session();
    c.db = db;
    Ok((c, secs))
}

/// Kernel bursts timed on each side of a set-up.
pub const SETUP_BURSTS: usize = 8;

/// Creates a fresh database in `dir` and preloads it: `bulk_load` of the
/// workload's records plus one checkpoint. Returns the engine, the model
/// and the set-up's wall seconds (open + load + checkpoint) scaled to the
/// reference kernel's nominal speed (see `calib`).
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    level: ObsLevel,
    kernel: &Kernel,
) -> Result<(Arc<SksDb>, Model, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err)?;
    }
    let (keys, model) = OpGen::preload(spec, seed);
    let items: Vec<(u64, Vec<u8>)> = keys.iter().map(|&k| (k, value(seed, k, 0))).collect();
    let mut refs: Vec<f64> = (0..SETUP_BURSTS).map(|_| kernel.burst()).collect();
    let t = Instant::now();
    let db = SksDb::open(dir, engine_config(spec, dir, level)).map_err(err)?;
    let loaded = db.session().bulk_load(items).map_err(err)?;
    db.checkpoint().map_err(err)?;
    let wall_s = t.elapsed().as_secs_f64();
    refs.extend((0..SETUP_BURSTS).map(|_| kernel.burst()));
    let secs = wall_s / median(&mut refs) * NOMINAL_US * 1e-6;
    if loaded as u64 != spec.preload {
        return Err(format!(
            "bulk_load stored {loaded} of {} records",
            spec.preload
        ));
    }
    Ok((db, model, secs))
}

/// Replaces the client's engine with a fresh set-up in `dir`; returns the
/// scaled set-up seconds. Everything the client has counted carries over.
fn restart(
    mut c: Client,
    spec: &Spec,
    dir: &Path,
    kernel: &Kernel,
) -> Result<(Client, f64), String> {
    drop(c.session);
    drop(c.db);
    let (db, model, secs) = setup(spec, c.seed, dir, ObsLevel::Counters, kernel)?;
    c.session = db.session();
    c.db = db;
    c.model = model;
    Ok((c, secs))
}

/// Counts two runs of one seed must repeat exactly.
pub const FINGERPRINT: [&str; 14] = [
    "wchar",
    "wal_bytes",
    "wal_appends",
    "block_writes",
    "key_encrypts",
    "key_decrypts",
    "ptr_encrypts",
    "ptr_decrypts",
    "page_encrypts",
    "page_decrypts",
    "data_encrypts",
    "data_decrypts",
    "disguise_ops",
    "recover_ops",
];

pub type Fingerprint = Vec<(&'static str, u64)>;

fn fingerprint(io: ProcIo, delta: &OpSnapshot) -> Fingerprint {
    let fields = delta.fields();
    FINGERPRINT
        .iter()
        .map(|&name| {
            let v = if name == "wchar" {
                io.wchar
            } else {
                fields
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0, |(_, v)| *v)
            };
            (name, v)
        })
        .collect()
}

/// One set-up followed by the first `spec.prefix` ops of the stream and a
/// closing flush + checkpoint; returns the set-up seconds and the counts
/// of the ops part.
pub fn prefix_run(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    kernel: &Kernel,
) -> Result<(f64, Fingerprint), String> {
    let (db, model, secs) = setup(spec, seed, dir, ObsLevel::Counters, kernel)?;
    let mut c = Client::new(db, model, seed);
    let mut gen = OpGen::new(spec, seed);
    let io0 = ProcIo::read();
    let s0 = c.db.snapshot();
    for i in 1..=spec.prefix {
        let op = gen.next(&c.model);
        c.exec(op);
        if i % spec.ckpt_every == 0 {
            c.checkpoint();
        }
    }
    c.flush();
    c.checkpoint();
    let fp = fingerprint(ProcIo::read().since(io0), &c.db.snapshot().delta(&s0));
    if let Some(f) = c.failures.first() {
        return Err(format!("prefix run: {f}"));
    }
    drop(c);
    std::fs::remove_dir_all(dir).map_err(err)?;
    Ok((secs, fp))
}

/// Everything one full run measured.
pub struct FullRun {
    /// Scaled seconds of every set-up the run made: the first, and one
    /// per further epoch.
    pub setups: Vec<f64>,
    /// Window seconds, less the set-ups and warm-ups of later epochs.
    pub window_s: f64,
    pub window_ops: u64,
    /// Every whole checkpoint cycle in the window: the ops since the
    /// previous checkpoint plus the checkpoint closing them.
    pub cycles: Vec<Cycle>,
    pub window_lat: Lat,
    pub verify_lat: Lat,
    pub io: ProcIo,
    /// Process CPU seconds (every thread) over the window, less the
    /// reference kernel's.
    pub cpu_s: f64,
    /// Reference-kernel bursts run in the window.
    pub kernel_n: usize,
    /// Engine counters and stats over the window (the last epoch's).
    pub counters: OpSnapshot,
    pub stats0: StatsSnapshot,
    pub stats1: StatsSnapshot,
    pub user_bytes: u64,
    pub disk_bytes: u64,
    pub live_bytes: u64,
    pub rss_mb: f64,
    pub recover_s: Vec<f64>,
    pub replayed: u64,
    pub partition_lens: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub ops_emitted: u64,
    pub stream_hash: u64,
    pub stream_hash_ok: bool,
    pub ledger: Option<Ledger>,
    pub tracer: Option<Tracer>,
}

/// One checkpoint cycle of the window.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub ops: u64,
    /// Wall seconds, reference-kernel bursts included.
    pub wall_s: f64,
    /// Process CPU seconds, every thread, less the reference kernel's.
    pub cpu_s: f64,
    /// Median thread CPU seconds of the kernel bursts run in the cycle
    /// (the last burst before it, when none was).
    pub kernel_s: f64,
}

/// How often the window pauses between ops for one reference-kernel burst.
const BURST_EVERY: Duration = Duration::from_millis(250);

const REOPENS: usize = 7;
const VERIFY_GETS: u64 = 2_000;

/// Set-up, warm-up and the timed window (closing with flush +
/// checkpoint); then, unless `window_only`, the recovery tail, `REOPENS`
/// timed reopens and the verify sweep.
pub fn full_run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    traced: bool,
    window_only: bool,
    kernel: &Kernel,
) -> Result<FullRun, String> {
    let level = if traced {
        ObsLevel::Histograms
    } else {
        ObsLevel::Counters
    };
    let mut tracer = traced.then(Tracer::new);
    trace::begin(&mut tracer, "run");
    trace::begin(&mut tracer, "setup");
    let (db, model, setup_s) = setup(spec, seed, dir, level, kernel)?;
    trace::end(&mut tracer);
    let mut c = Client::new(db, model, seed);
    c.trace = tracer;
    let mut gen = OpGen::new(spec, seed);
    c.warm_up(&mut gen, spec);

    // The traced pair keeps one epoch: its per-layer counts are deltas
    // over one database.
    let epoch_cycles = if traced || window_only {
        0
    } else {
        spec.epoch_cycles
    };
    let mut setups = vec![setup_s];
    c.lat = Lat::default();
    c.ledger = traced.then(Ledger::default);
    let mut stats0 = c.db.stats();
    let mut s0 = c.db.snapshot();
    let mut io = ProcIo::default();
    let mut io0 = ProcIo::read();
    let mut user_bytes = 0;
    let mut user0 = c.user_bytes;
    trace::begin(&mut c.trace, "window");
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window_ops = 0u64;
    let mut cycles = Vec::new();
    let mut epoch_cycle = 0;
    // Wall and CPU seconds of set-ups and warm-ups inside the window.
    let (mut restart_s, mut restart_cpu_s) = (0.0, 0.0);
    let (mut bursts, mut kernel_s, mut next_burst) = (Vec::new(), 0.0, start);
    let (mut cycle_start, mut cycle_cpu, mut cycle_ops) = (start, cpu0, 0u64);
    let mut cycle_bursts = 0;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= next_burst {
            let b = kernel.burst();
            bursts.push(b);
            kernel_s += b;
            next_burst += BURST_EVERY;
        }
        let closes = c.step(&mut gen, spec);
        window_ops += 1;
        cycle_ops += 1;
        if !closes {
            continue;
        }
        let cpu = process_cpu_s() - kernel_s - restart_cpu_s;
        let mut own = bursts[cycle_bursts.min(bursts.len() - 1)..].to_vec();
        cycles.push(Cycle {
            ops: cycle_ops,
            wall_s: cycle_start.elapsed().as_secs_f64(),
            cpu_s: cpu - cycle_cpu,
            kernel_s: median(&mut own),
        });
        cycle_bursts = bursts.len();
        c.cycle += 1;
        epoch_cycle += 1;
        if epoch_cycle == epoch_cycles && Instant::now() < deadline {
            // A new epoch from a fresh set-up: every epoch times the same
            // ops from the same state, however many the host fits in.
            io = io.plus(ProcIo::read().since(io0));
            user_bytes += c.user_bytes - user0;
            let (t, cpu) = (Instant::now(), process_cpu_s());
            let secs;
            (c, secs) = restart(c, spec, dir, kernel)?;
            setups.push(secs);
            gen = OpGen::new(spec, seed);
            c.warm_up(&mut gen, spec);
            restart_s += t.elapsed().as_secs_f64();
            restart_cpu_s += process_cpu_s() - cpu;
            (io0, user0, epoch_cycle) = (ProcIo::read(), c.user_bytes, 0);
            (s0, stats0) = (c.db.snapshot(), c.db.stats());
        }
        (cycle_start, cycle_cpu, cycle_ops) = (Instant::now(), cpu, 0);
    }
    c.flush();
    c.checkpoint();
    let window_s = start.elapsed().as_secs_f64() - restart_s;
    trace::end(&mut c.trace);
    let io = io.plus(ProcIo::read().since(io0));
    let user_bytes = user_bytes + c.user_bytes - user0;
    let cpu_s = process_cpu_s() - cpu0 - kernel_s - restart_cpu_s;
    let kernel_n = bursts.len();
    let counters = c.db.snapshot().delta(&s0);
    let stats1 = c.db.stats();
    let rss = rss_mb();
    let disk_bytes = dir_bytes(dir);
    let live_bytes = c.model.len() * RECORD_BYTES;
    let window_lat = std::mem::take(&mut c.lat);
    let mut ledger = c.ledger.take();

    let mut recover_s = Vec::new();
    let mut replayed = 0;
    if !window_only {
        // The tail recovery must replay: acked writes after the last
        // checkpoint, counted in records so every workload replays alike.
        trace::begin(&mut c.trace, "tail");
        let mut written = 0;
        while written < spec.tail {
            let op = gen.next(&c.model);
            c.exec(op);
            written += match op {
                Op::Put(_) | Op::Delete(_) => 1,
                Op::Txn(_) => 4,
                Op::Get(_) | Op::Range(..) => 0,
            };
        }
        c.flush();
        trace::end(&mut c.trace);

        trace::begin(&mut c.trace, "recover");
        for _ in 0..REOPENS {
            let (reopened, secs) = reopen(c, dir, engine_config(spec, dir, level))?;
            c = reopened;
            recover_s.push(secs);
        }
        trace::end(&mut c.trace);
        replayed = c.db.recovery_report().records_replayed;

        c.ledger = ledger;
        trace::begin(&mut c.trace, "verify");
        verify(&mut c, spec, seed);
        trace::end(&mut c.trace);
        ledger = c.ledger.take();
    }
    trace::end(&mut c.trace);
    let ops_emitted = gen.emitted();
    let stream = gen.hash();
    let partition_lens = c.db.partition_lens();
    let stream_hash_ok = stream == stream_hash(spec, seed, ops_emitted);

    let verify_lat = std::mem::take(&mut c.lat);
    let Client {
        db,
        session,
        attempted,
        failed,
        failures,
        trace,
        ..
    } = c;
    drop(session);
    drop(db);
    std::fs::remove_dir_all(dir).map_err(err)?;
    Ok(FullRun {
        setups,
        window_s,
        window_ops,
        cycles,
        window_lat,
        verify_lat,
        io,
        cpu_s,
        kernel_n,
        counters,
        stats0,
        stats1,
        user_bytes,
        disk_bytes,
        live_bytes,
        rss_mb: rss,
        recover_s,
        replayed,
        partition_lens,
        attempted,
        failed,
        failures,
        ops_emitted,
        stream_hash: stream,
        stream_hash_ok,
        ledger,
        tracer: trace,
    })
}

/// The post-reopen sweep: every live record through range scans of ~64
/// keys (so missing and extra keys both show), point gets (`ingest`:
/// every key it inserted), and read-only four-key transactions.
fn verify(c: &mut Client, spec: &Spec, seed: u64) {
    let max_key = c.model.vals.keys().next_back().copied().unwrap_or(0);
    let live = c.model.len().max(1);
    let width = (64 * (max_key + 1)).div_ceil(live).max(1);
    let mut lo = 0u64;
    while lo <= max_key {
        c.exec(Op::Range(lo, lo + width - 1));
        lo += width;
    }

    let mut rng = Rng::new(seed ^ 0x7E21_F1ED);
    let gets: Vec<u64> = if spec.name == "ingest" {
        c.model
            .vals
            .keys()
            .copied()
            .filter(|k| k % 2 == 1)
            .collect()
    } else {
        (0..VERIFY_GETS).map(|_| rng.below(max_key + 1)).collect()
    };
    for k in gets {
        c.exec(Op::Get(k));
    }

    let txns = if spec.name == "txn_mixed" { 200 } else { 1_000 };
    for _ in 0..txns {
        let mut keys = [0u64; 4];
        let mut i = 0;
        while i < 4 {
            let k = rng.below(max_key + 1);
            if !keys[..i].contains(&k) {
                keys[i] = k;
                i += 1;
            }
        }
        c.read_txn(keys);
    }
}

/// Sum of one stage's nanoseconds between two stats snapshots.
pub fn stage_ns(s0: &StatsSnapshot, s1: &StatsSnapshot, stage: Stage) -> u64 {
    s1.stage_ns(stage).saturating_sub(s0.stage_ns(stage))
}
