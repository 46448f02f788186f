//! Seeded inputs: the workload specs, the op streams they replay, and the
//! shadow model every engine answer is checked against.
//!
//! Everything here is a pure function of the seed and of the model's
//! state, which itself only moves when the engine acknowledges an op, so
//! one seed always yields one op stream (`OpGen::hash` pins that).

use std::collections::BTreeMap;

/// Bytes in every value the benchmark writes.
pub const VALUE_LEN: usize = 100;
/// Bytes of one user record as the write/space amplification base counts
/// them: the `u64` key plus the value.
pub const RECORD_BYTES: u64 = 8 + VALUE_LEN as u64;

/// SplitMix64: small, fast and good enough to drive workload choices.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `0..n` in a seeded random order (Fisher–Yates).
pub fn shuffled(n: u64, rng: &mut Rng) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// The 100-byte value of write number `ver` to `key` under `seed`.
pub fn value(seed: u64, key: u64, ver: u32) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((ver as u64) << 40));
    let mut out = Vec::with_capacity(VALUE_LEN);
    while out.len() < VALUE_LEN {
        let word = rng.next_u64().to_le_bytes();
        let take = (VALUE_LEN - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// Zipfian ranks in `[0, n)` by the Gray et al. rejection-free method
/// (as in YCSB); rank 0 is the most popular.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One client operation. Puts carry no value: the client derives it from
/// the model's next write version, so the stream stays a list of keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put(u64),
    Get(u64),
    /// Inclusive key range.
    Range(u64, u64),
    /// Read-modify-write of four distinct keys in one explicit `Txn`.
    Txn([u64; 4]),
    Delete(u64),
}

/// Op kinds, in the order the per-kind tables are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Range,
    Txn,
    Delete,
    Checkpoint,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Put,
        Kind::Get,
        Kind::Range,
        Kind::Txn,
        Kind::Delete,
        Kind::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Range => "range",
            Kind::Txn => "txn",
            Kind::Delete => "delete",
            Kind::Checkpoint => "checkpoint",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Put(_) => Kind::Put,
            Op::Get(_) => Kind::Get,
            Op::Range(..) => Kind::Range,
            Op::Txn(_) => Kind::Txn,
            Op::Delete(_) => Kind::Delete,
        }
    }
}

/// A set of keys from a bounded key space with O(1) insert, remove and
/// uniform sampling.
pub struct KeySet {
    items: Vec<u64>,
    pos: Vec<u32>,
}

impl KeySet {
    const ABSENT: u32 = u32::MAX;

    pub fn new(keyspace: u64) -> Self {
        KeySet {
            items: Vec::new(),
            pos: vec![Self::ABSENT; keyspace as usize],
        }
    }

    pub fn insert(&mut self, key: u64) {
        if self.pos[key as usize] == Self::ABSENT {
            self.pos[key as usize] = self.items.len() as u32;
            self.items.push(key);
        }
    }

    pub fn remove(&mut self, key: u64) {
        let p = self.pos[key as usize];
        if p != Self::ABSENT {
            let last = self.items.pop().expect("non-empty");
            if last != key {
                self.items[p as usize] = last;
                self.pos[last as usize] = p;
            }
            self.pos[key as usize] = Self::ABSENT;
        }
    }

    pub fn pick(&self, rng: &mut Rng) -> Option<u64> {
        (!self.items.is_empty()).then(|| self.items[rng.below(self.items.len() as u64) as usize])
    }
}

/// The acknowledged state: live key → write version. Versions come from
/// one counter, so every write's value is distinct.
pub struct Model {
    pub vals: BTreeMap<u64, u32>,
    next_ver: u32,
    /// Live and absent keys of a bounded key space (only the workloads
    /// that pick keys by liveness keep these).
    sets: Option<(KeySet, KeySet)>,
}

impl Model {
    pub fn next_ver(&self) -> u32 {
        self.next_ver
    }

    pub fn ver(&self, key: u64) -> Option<u32> {
        self.vals.get(&key).copied()
    }

    pub fn put(&mut self, key: u64, ver: u32) {
        self.vals.insert(key, ver);
        self.next_ver = self.next_ver.max(ver + 1);
        if let Some((live, absent)) = &mut self.sets {
            live.insert(key);
            absent.remove(key);
        }
    }

    pub fn delete(&mut self, key: u64) {
        self.vals.remove(&key);
        if let Some((live, absent)) = &mut self.sets {
            live.remove(key);
            absent.insert(key);
        }
    }

    pub fn len(&self) -> u64 {
        self.vals.len() as u64
    }
}

/// Fixed shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Records bulk-loaded (plus one checkpoint) before timing starts.
    pub preload: u64,
    /// `SchemeConfig::with_capacity` argument: every key is below it.
    pub capacity: u64,
    /// One `checkpoint()` per this many client ops.
    pub ckpt_every: u64,
    /// Untimed ops run between set-up and the window.
    pub warmup: u64,
    /// Timed checkpoint cycles per epoch; 0 for one epoch over the whole
    /// window. Each further epoch starts from a fresh set-up and warm-up.
    pub epoch_cycles: u32,
    /// Ops of the determinism self-check prefix.
    pub prefix: u64,
    /// Records written by acked ops after the window's closing checkpoint:
    /// the log tail recovery replays.
    pub tail: u64,
}

pub const WORKLOADS: [&str; 3] = ["ingest", "read_zipf", "txn_mixed"];

/// `txn_mixed` keys outside the preload (the pool re-inserts draw from).
const TXN_RESERVE: u64 = 1024;
const INGEST_PRELOAD: u64 = 100_000;

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "ingest" => Spec {
            name: "ingest",
            preload: INGEST_PRELOAD,
            // Even preload keys below 2·preload, odd inserts interleaved,
            // then beyond: room for 8× the preload in fresh keys.
            capacity: 2 * INGEST_PRELOAD * 10,
            ckpt_every: 1_000,
            // Two cycles: the first after a set-up runs at twice the
            // steady cost, on cold caches.
            warmup: 2_000,
            // The tree grows by each insert, and past ~30k inserts its
            // cost per insert climbs steeply; epochs of 4k timed inserts
            // keep every timed op between 102k and 106k records.
            epoch_cycles: 4,
            prefix: 300,
            tail: 500,
        },
        "read_zipf" => Spec {
            name: "read_zipf",
            preload: 200_000,
            capacity: 200_000,
            ckpt_every: 10_000,
            warmup: 10_000,
            epoch_cycles: 0,
            prefix: 3_000,
            tail: 500,
        },
        "txn_mixed" => Spec {
            name: "txn_mixed",
            preload: 16_384,
            capacity: 16_384 + TXN_RESERVE,
            ckpt_every: 1_000,
            warmup: 500,
            epoch_cycles: 0,
            prefix: 500,
            tail: 500,
        },
        _ => return None,
    })
}

/// Mix constants of `read_zipf` and `txn_mixed`.
const ZIPF_THETA: f64 = 0.99;
const ZIPF_PUT_SHARE: f64 = 0.05;
const RANGE_KEYS: u64 = 64;

/// The op stream of one workload and seed.
pub struct OpGen {
    spec: Spec,
    rng: Rng,
    /// `ingest`: insert order of the in-range odd keys. `read_zipf`: rank
    /// → key scramble.
    perm: Vec<u64>,
    zipf: Option<Zipf>,
    emitted: u64,
    hash: u64,
}

impl OpGen {
    /// The preload (ascending, as `bulk_load` needs) and a fresh model
    /// holding it.
    pub fn preload(spec: &Spec, seed: u64) -> (Vec<u64>, Model) {
        let keys: Vec<u64> = match spec.name {
            "ingest" => (0..spec.preload).map(|i| 2 * i).collect(),
            "txn_mixed" => {
                let mut rng = Rng::new(seed ^ 0x5EED_0001);
                let mut order = shuffled(spec.capacity, &mut rng);
                order.truncate(spec.preload as usize);
                order.sort_unstable();
                order
            }
            _ => (0..spec.preload).collect(),
        };
        let sets = (spec.name == "txn_mixed").then(|| {
            let mut live = KeySet::new(spec.capacity);
            let mut absent = KeySet::new(spec.capacity);
            for k in 0..spec.capacity {
                absent.insert(k);
            }
            for &k in &keys {
                live.insert(k);
                absent.remove(k);
            }
            (live, absent)
        });
        let model = Model {
            vals: keys.iter().map(|&k| (k, 0)).collect(),
            next_ver: 1,
            sets,
        };
        (keys, model)
    }

    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (perm, zipf) = match spec.name {
            "ingest" => (shuffled(spec.preload, &mut rng), None),
            "read_zipf" => (
                shuffled(spec.preload, &mut rng),
                Some(Zipf::new(spec.preload, ZIPF_THETA)),
            ),
            _ => (Vec::new(), None),
        };
        OpGen {
            spec: spec.clone(),
            rng,
            perm,
            zipf,
            emitted: 0,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Ops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// FNV-1a over every op emitted so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    fn mix(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.hash ^= b as u64;
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    pub fn next(&mut self, model: &Model) -> Op {
        let op = match self.spec.name {
            "ingest" => {
                let i = self.emitted;
                let j = self.perm.get(i as usize).copied().unwrap_or(i);
                Op::Put(2 * j + 1)
            }
            "read_zipf" => {
                let rank = self.zipf.as_ref().expect("zipf").sample(&mut self.rng);
                let key = self.perm[rank as usize];
                if self.rng.unit() < ZIPF_PUT_SHARE {
                    Op::Put(key)
                } else {
                    Op::Get(key)
                }
            }
            _ => self.next_txn_mixed(model),
        };
        self.emitted += 1;
        let (tag, a, b) = match op {
            Op::Put(k) => (1, k, model.next_ver() as u64),
            Op::Get(k) => (2, k, 0),
            Op::Range(lo, hi) => (3, lo, hi),
            Op::Txn(ks) => (
                4,
                ks[0] ^ ks[1].rotate_left(16),
                ks[2] ^ ks[3].rotate_left(32),
            ),
            Op::Delete(k) => (5, k, 0),
        };
        self.mix(&[tag, a, b]);
        op
    }

    fn next_txn_mixed(&mut self, model: &Model) -> Op {
        let n = self.spec.capacity;
        let (live, absent) = model.sets.as_ref().expect("txn_mixed keeps key sets");
        let roll = self.rng.below(100);
        match roll {
            0..=34 => Op::Get(self.rng.below(n)),
            35..=49 => {
                // ~RANGE_KEYS live keys at the preload's density.
                let span = RANGE_KEYS * n / self.spec.preload;
                let lo = self.rng.below(n - span);
                Op::Range(lo, lo + span - 1)
            }
            50..=79 => {
                let mut keys = [0u64; 4];
                let mut i = 0;
                while i < 4 {
                    let k = self.rng.below(n);
                    if !keys[..i].contains(&k) {
                        keys[i] = k;
                        i += 1;
                    }
                }
                Op::Txn(keys)
            }
            80..=89 => match live.pick(&mut self.rng) {
                Some(k) => Op::Delete(k),
                None => Op::Get(self.rng.below(n)),
            },
            _ => match absent.pick(&mut self.rng) {
                Some(k) => Op::Put(k),
                None => Op::Put(self.rng.below(n)),
            },
        }
    }
}

/// Hash of the first `n` ops of a workload's stream, generated against
/// the model alone (every op assumed acknowledged). A run that fed the
/// engine the seed's stream reproduces it exactly.
pub fn stream_hash(spec: &Spec, seed: u64, n: u64) -> u64 {
    let (_, mut model) = OpGen::preload(spec, seed);
    let mut gen = OpGen::new(spec, seed);
    for _ in 0..n {
        let op = gen.next(&model);
        apply_to_model(&mut model, op);
    }
    gen.hash()
}

/// The model's effect of one acknowledged op.
pub fn apply_to_model(model: &mut Model, op: Op) {
    match op {
        Op::Put(k) => {
            let v = model.next_ver();
            model.put(k, v);
        }
        Op::Txn(keys) => {
            for k in keys {
                let v = model.next_ver();
                model.put(k, v);
            }
        }
        Op::Delete(k) => model.delete(k),
        Op::Get(_) | Op::Range(..) => {}
    }
}
