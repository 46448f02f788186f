//! Layer probes: each times one layer's public function in isolation, on
//! inputs drawn from the workload's own keys. They run after the timed
//! windows, so they cannot disturb the end-to-end numbers.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sks_btree_core::{BTree, Node, NodeCodec, PlainCodec, RecordPtr};
use sks_core::SchemeConfig;
use sks_crypto::cipher::BlockCipher64;
use sks_crypto::modes::ctr_xor;
use sks_crypto::{Des, Speck64};
use sks_engine::Wal;
use sks_storage::{BlockId, BlockStore, FileDisk, MemDisk, OpCounters, PagedFileStore, SyncPolicy};

use crate::gen::value;
use crate::trace::{self, Tracer};

/// Probe results by metric name, in the order they were measured.
pub type Probes = Vec<(&'static str, f64)>;

/// Median of `batches` timings of `per_batch` calls of `f`, in ns per call.
fn per_call_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..per_batch {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&mut v)
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe. `keys` are workload keys (distinct, unsorted),
/// `dir` a directory the file probes may fill.
pub fn run(
    cfg: &SchemeConfig,
    keys: &[u64],
    seed: u64,
    dir: &Path,
    t: &mut Option<Tracer>,
) -> Result<Probes, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let n = keys.len();
    let mut out: Probes = Vec::new();

    trace::begin(t, "probe.crypto");
    let des = Des::new(cfg.tree_key);
    out.push((
        "crypto.des_block_ns",
        per_call_ns(7, 20_000, |i| {
            black_box(des.encrypt_block(black_box(keys[i % n])));
        }),
    ));
    let speck = Speck64::from_u128(cfg.data_key);
    let kib: Vec<u8> = (0..8)
        .flat_map(|i| value(seed, keys[i % n], 0))
        .take(1024)
        .collect();
    out.push((
        "crypto.speck_ctr_ns_per_kib",
        per_call_ns(7, 500, |i| {
            black_box(ctr_xor(&speck, i as u64, black_box(&kib)));
        }),
    ));
    trace::end(t);

    trace::begin(t, "probe.disguise");
    let counters = OpCounters::new();
    let disguise = cfg
        .build_disguise(&counters)
        .map_err(err)?
        .ok_or("scheme has no key disguise")?;
    let disguised: Vec<u64> = keys
        .iter()
        .map(|&k| disguise.disguise(k))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    out.push((
        "disguise.disguise_ns",
        per_call_ns(7, 5_000, |i| {
            black_box(disguise.disguise(black_box(keys[i % n])).ok());
        }),
    ));
    out.push((
        "disguise.recover_ns",
        per_call_ns(7, 5_000, |i| {
            black_box(disguise.recover(black_box(disguised[i % n])).ok());
        }),
    ));
    trace::end(t);

    trace::begin(t, "probe.codec");
    let (codec, _) = cfg.build_codec(&counters).map_err(err)?;
    let fanout = codec.max_keys(cfg.block_size).min(n);
    let mut node_keys = keys[..fanout].to_vec();
    node_keys.sort_unstable();
    let id = BlockId(7);
    let node = Node {
        id,
        data_ptrs: (0..fanout)
            .map(|i| RecordPtr::pack(BlockId(100 + i as u32 / 32), (i % 32) as u16))
            .collect(),
        keys: node_keys.clone(),
        children: Vec::new(),
    };
    let mut page = vec![0u8; cfg.block_size];
    codec.encode(&node, &mut page).map_err(err)?;
    let decoded = codec.decode(id, &page).map_err(err)?;
    if decoded.keys != node.keys {
        return Err("codec probe: decode(encode(node)) lost keys".into());
    }
    let mut scratch = vec![0u8; cfg.block_size];
    out.push((
        "codec.encode_us",
        per_call_ns(7, 20, |_| {
            codec.encode(black_box(&node), &mut scratch).ok();
        }) / 1e3,
    ));
    out.push((
        "codec.decode_us",
        per_call_ns(7, 20, |_| {
            black_box(codec.decode(id, black_box(&page)).ok());
        }) / 1e3,
    ));
    out.push((
        "codec.probe_us",
        per_call_ns(7, 200, |i| {
            black_box(codec.probe(id, &page, node_keys[i % fanout]).ok());
        }) / 1e3,
    ));
    trace::end(t);

    trace::begin(t, "probe.btree");
    let mut insert_ns = Vec::new();
    let mut get_ns = Vec::new();
    let mut visits_per_get = 0.0;
    for _ in 0..5 {
        let c = OpCounters::new();
        let mut tree = BTree::create(
            MemDisk::with_counters(cfg.block_size, c.clone()),
            PlainCodec::new(c.clone()),
        )
        .map_err(err)?;
        let start = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, RecordPtr(i as u64)).map_err(err)?;
        }
        insert_ns.push(start.elapsed().as_nanos() as f64 / n as f64);
        let visits0 = c.snapshot().node_visits;
        let start = Instant::now();
        for &k in keys {
            black_box(tree.get(k).map_err(err)?);
        }
        get_ns.push(start.elapsed().as_nanos() as f64 / n as f64);
        visits_per_get = (c.snapshot().node_visits - visits0) as f64 / n as f64;
    }
    let get_ns = median(&mut get_ns);
    out.push(("btree.insert_ns", median(&mut insert_ns)));
    out.push(("btree.get_ns", get_ns));
    // Structure cost of one node visit, for the reconciliation model.
    out.push(("btree.visit_ns", get_ns / visits_per_get.max(1.0)));
    trace::end(t);

    trace::begin(t, "probe.wal");
    let wal_path = dir.join("probe-wal.sks");
    let mut append_ns = Vec::new();
    for _ in 0..5 {
        let mut wal = Wal::create(
            &wal_path,
            4096,
            0x5EED,
            SyncPolicy::Never,
            OpCounters::new(),
        )
        .map_err(err)?;
        let records: Vec<(u64, Vec<u8>)> = keys
            .iter()
            .take(2_000)
            .map(|&k| (k, value(seed, k, 1)))
            .collect();
        let start = Instant::now();
        for (k, v) in &records {
            wal.append_insert(*k, v).map_err(err)?;
            wal.commit().map_err(err)?;
        }
        append_ns.push(start.elapsed().as_nanos() as f64 / records.len() as f64);
    }
    out.push(("wal.append_ns", median(&mut append_ns)));
    trace::end(t);

    trace::begin(t, "probe.storage");
    let mut disk = FileDisk::create(dir.join("probe-fsync.sks"), 4096).map_err(err)?;
    let block = disk.allocate().map_err(err)?;
    let mut fsync_us = Vec::new();
    for i in 0..15 {
        disk.write_block(block, &[i as u8; 4096]).map_err(err)?;
        let start = Instant::now();
        disk.sync().map_err(err)?;
        fsync_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push(("storage.fsync_us", median(&mut fsync_us)));
    const PAGES: usize = 64;
    let mut store =
        PagedFileStore::create(dir.join("probe-pages.sks"), 4096, 256, OpCounters::new())
            .map_err(err)?;
    let ids: Vec<BlockId> = (0..PAGES)
        .map(|_| store.allocate())
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mut flush_us = Vec::new();
    for round in 0..9u8 {
        for id in &ids {
            store.write_block(*id, &[round; 4096]).map_err(err)?;
        }
        let start = Instant::now();
        store.flush().map_err(err)?;
        flush_us.push(start.elapsed().as_nanos() as f64 / 1e3 / PAGES as f64);
    }
    out.push(("storage.page_flush_us", median(&mut flush_us)));
    trace::end(t);

    Ok(out)
}
