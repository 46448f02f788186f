//! The repository benchmark. One closed-loop client drives `SksDb` through
//! its public `Session`/`Txn` API on the default engine configuration,
//! checks every answer against a shadow model, and prints a metric report
//! whose last line is one JSON object.
//!
//! ```text
//! sksbench --workload <ingest|read_zipf|txn_mixed> --seed <n> --seconds <s>
//!          --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of one untraced run.
//! `--trace 1` runs the workload untraced and then traced (same seed, same
//! op stream, `ObsLevel::Histograms`, spans recorded around every engine
//! call), times the layer probes, and reports the per-layer metrics; the
//! spans go to `<work-dir>/spans-<workload>.jsonl`.

mod calib;
mod gen;
mod probes;
mod run;
mod sysio;
mod trace;

use std::path::PathBuf;

use sks_engine::{Stage, WRITE_PATH_STAGES};

use gen::{spec, Kind, Spec, WORKLOADS};
use probes::median;
use run::{full_run, prefix_run, stage_ns, Fingerprint, FullRun, Ledger};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work = PathBuf::from(".bench_work");
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => trace = Some(val == "1"),
            "--work-dir" => work = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// What the value was computed from, for the human report.
    basis: String,
    /// Whether the metric goes into the JSON result. Only put p50 latency,
    /// CPU per op, set-up time and the byte and memory ratios go in; the
    /// rest are printed but kept out, because on a shared host their
    /// run-to-run spread reached or passed the largest bound a comparison
    /// may use.
    in_json: bool,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    basis: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        basis: basis.into(),
        in_json: true,
    }
}

fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Op kinds the workload's timed mix issues; the others are timed in the
/// post-reopen verify sweep.
fn mix_kinds(spec: &Spec) -> &'static [Kind] {
    match spec.name {
        "ingest" => &[Kind::Put],
        "read_zipf" => &[Kind::Put, Kind::Get],
        _ => &[Kind::Put, Kind::Get, Kind::Range, Kind::Txn, Kind::Delete],
    }
}

/// p99 is reported only from runs holding at least this many samples.
const MIN_P99_SAMPLES: usize = 1_000;

/// Median over `groups` of each group's `q`-quantile (empty groups skipped).
fn median_of(groups: &[Vec<u64>], q: f64) -> f64 {
    let mut per: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| quantile(g, q))
        .collect();
    median(&mut per)
}

/// Cuts samples into `n` consecutive slices of equal count.
fn slices(samples: &[u64], n: usize) -> Vec<Vec<u64>> {
    let size = samples.len().div_ceil(n).max(1);
    samples.chunks(size).map(<[u64]>::to_vec).collect()
}

/// Slices of the verify sweep a latency quantile is the median over.
const VERIFY_SLICES: usize = 8;

/// End-to-end metrics. Rates and window latencies are medians over the
/// window's whole checkpoint cycles, and verify-sweep latencies medians
/// over equal slices of the sweep, so a burst of interference on a shared
/// host moves a few slices rather than the reported figure.
fn end_to_end(spec: &Spec, setups: &[f64], r: &FullRun, notes: &mut Vec<String>) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut s = setups.to_vec();
    m.push(metric(
        "setup_s",
        median(&mut s),
        "s",
        format!(
            "median of {} set-ups, each scaled × {} us ÷ the median of {} reference-kernel bursts around it",
            setups.len(),
            calib::NOMINAL_US,
            2 * run::SETUP_BURSTS
        ),
    ));
    let full = r.cycles.len() as u32;
    let mut rates: Vec<f64> = r.cycles.iter().map(|c| c.ops as f64 / c.wall_s).collect();
    let pooled = r.window_ops as f64 / r.window_s;
    let rate = if rates.is_empty() {
        pooled
    } else {
        median(&mut rates)
    };
    m.push(Metric {
        in_json: false,
        ..metric(
            "ops_per_s",
            rate,
            "1/s",
            format!(
                "median of {full} checkpoint cycles; whole window incl. closing flush + checkpoint: {} ops in {:.3} s = {pooled:.1}/s",
                r.window_ops, r.window_s
            ),
        )
    });
    m.push(Metric {
        in_json: false,
        ..metric(
            "cpu_us_per_op",
            r.cpu_s * 1e6 / r.window_ops.max(1) as f64,
            "us",
            format!(
                "{:.2} CPU s, every thread, over the window's {} ops incl. checkpoints",
                r.cpu_s, r.window_ops
            ),
        )
    });
    // The JSON's CPU and put figures are scaled, cycle by cycle, to the
    // reference kernel's nominal speed (see `calib`), so host drift cancels.
    let scaled = |x: f64, c: &run::Cycle| x * calib::NOMINAL_US * 1e-6 / c.kernel_s;
    let mut kernel: Vec<f64> = r.cycles.iter().map(|c| c.kernel_s * 1e6).collect();
    let basis = format!(
        "× {} us ÷ the median reference-kernel burst in its cycle ({} bursts, median {:.1} us)",
        calib::NOMINAL_US,
        r.kernel_n,
        median(&mut kernel)
    );
    let mut cpu: Vec<f64> = r
        .cycles
        .iter()
        .map(|c| scaled(c.cpu_s * 1e6 / c.ops as f64, c))
        .collect();
    m.push(metric(
        "cpu_us_per_op_ref",
        median(&mut cpu),
        "us",
        format!("median of {full} cycles of CPU per op {basis}"),
    ));
    let puts = r.window_lat.by_cycle(Kind::Put, full);
    let mut put: Vec<f64> = r
        .cycles
        .iter()
        .zip(&puts)
        .filter(|(_, g)| !g.is_empty())
        .map(|(c, g)| scaled(quantile(g, 0.5) / 1e3, c))
        .collect();
    m.push(metric(
        "put_p50_us_ref",
        median(&mut put),
        "us",
        format!("median of {} cycles of put p50 {basis}", put.len()),
    ));
    for (kind, label) in [
        (Kind::Put, "put"),
        (Kind::Get, "get"),
        (Kind::Range, "range"),
        (Kind::Txn, "txn"),
    ] {
        let (groups, n, phase) = if mix_kinds(spec).contains(&kind) && full > 0 {
            let g = r.window_lat.by_cycle(kind, full);
            let n = g.iter().map(Vec::len).sum::<usize>();
            (g, n, format!("window, median of {full} cycles"))
        } else {
            let all = r.verify_lat.get(kind);
            (
                slices(all, VERIFY_SLICES),
                all.len(),
                format!("verify sweep, median of {VERIFY_SLICES} slices"),
            )
        };
        if n < MIN_P99_SAMPLES {
            notes.push(format!(
                "{label}: only {n} samples (< {MIN_P99_SAMPLES}) behind its p99"
            ));
        }
        m.push(Metric {
            in_json: false,
            ..metric(
                format!("{label}_p50_us"),
                median_of(&groups, 0.5) / 1e3,
                "us",
                format!("n={n}, {phase}"),
            )
        });
        m.push(Metric {
            in_json: false,
            ..metric(
                format!("{label}_p99_us"),
                median_of(&groups, 0.99) / 1e3,
                "us",
                format!("n={n}, {phase}"),
            )
        });
    }
    let ck = r.window_lat.get(Kind::Checkpoint);
    m.push(Metric {
        in_json: false,
        ..metric(
            "checkpoint_ms",
            quantile(ck, 0.5) / 1e6,
            "ms",
            format!("median of n={}", ck.len()),
        )
    });
    let mut rec = r.recover_s.clone();
    m.push(Metric {
        in_json: false,
        ..metric(
            "recover_s",
            median(&mut rec),
            "s",
            format!(
                "median of {} reopens, {} records replayed",
                rec.len(),
                r.replayed
            ),
        )
    });
    m.push(metric(
        "write_amp",
        ratio(r.io.wchar as f64, r.user_bytes as f64),
        "ratio",
        format!("wchar {} B / user bytes {} B", r.io.wchar, r.user_bytes),
    ));
    m.push(metric(
        "space_amp",
        ratio(r.disk_bytes as f64, r.live_bytes as f64),
        "ratio",
        format!("disk {} B / live {} B", r.disk_bytes, r.live_bytes),
    ));
    m.push(metric("rss_mb", r.rss_mb, "MiB", "VmRSS at window end"));
    m
}

/// Node cipher blocks a ledger row charges: two DES blocks per pointer
/// seal/unseal plus one per key or page block.
fn cipher_blocks(l: &Ledger, k: Kind) -> f64 {
    2.0 * (l.per_op(k, "ptr_encrypts") + l.per_op(k, "ptr_decrypts"))
        + l.per_op(k, "key_encrypts")
        + l.per_op(k, "key_decrypts")
        + l.per_op(k, "page_encrypts")
        + l.per_op(k, "page_decrypts")
}

fn probe(p: &probes::Probes, name: &str) -> f64 {
    p.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// Predicted ns per op of kind `k`: Σ physical layer count per op × that
/// layer's probe cost. Encrypt-side counters are physical (every re-seal
/// enciphers); decrypt-side node work is charged as one full-node decode
/// per node-cache miss, since cache hits skip the cipher.
fn predict(l: &Ledger, k: Kind, p: &probes::Probes) -> f64 {
    let record_cipher_ns =
        probe(p, "crypto.speck_ctr_ns_per_kib") * gen::RECORD_BYTES as f64 / 1024.0;
    let seal_blocks = 2.0 * l.per_op(k, "ptr_encrypts")
        + l.per_op(k, "key_encrypts")
        + l.per_op(k, "page_encrypts");
    seal_blocks * probe(p, "crypto.des_block_ns")
        + l.per_op(k, "disguise_ops") * probe(p, "disguise.disguise_ns")
        + l.per_op(k, "node_cache_misses") * probe(p, "codec.decode_us") * 1e3
        + l.per_op(k, "node_visits") * probe(p, "btree.visit_ns")
        + (l.per_op(k, "data_encrypts") + l.per_op(k, "record_cache_misses")) * record_cipher_ns
        + l.per_op(k, "wal_appends") * probe(p, "wal.append_ns")
        + l.per_op(k, "wal_fsyncs") * probe(p, "storage.fsync_us") * 1e3
}

fn per_layer(
    u: &FullRun,
    t: &FullRun,
    p: &probes::Probes,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let l = t.ledger.as_ref().expect("traced run keeps a ledger");
    let c = &t.counters;
    let ops = t.window_ops as f64;
    let mut m = Vec::new();
    let pm = |m: &mut Vec<Metric>, name: &'static str, unit: &'static str| {
        m.push(metric(name, probe(p, name), unit, "layer probe"));
    };
    let ledger_basis = |k: Kind| format!("ledger, n={} {}", l.n[k.idx()], k.name());

    pm(&mut m, "crypto.des_block_ns", "ns");
    pm(&mut m, "crypto.speck_ctr_ns_per_kib", "ns");
    m.push(metric(
        "crypto.node_cipher_blocks_per_put",
        cipher_blocks(l, Kind::Put),
        "count",
        ledger_basis(Kind::Put),
    ));
    m.push(metric(
        "crypto.node_cipher_blocks_per_get",
        cipher_blocks(l, Kind::Get),
        "count",
        ledger_basis(Kind::Get),
    ));
    m.push(metric(
        "crypto.data_unseals_per_get",
        l.per_op(Kind::Get, "record_cache_misses"),
        "count",
        ledger_basis(Kind::Get),
    ));

    pm(&mut m, "disguise.disguise_ns", "ns");
    pm(&mut m, "disguise.recover_ns", "ns");
    m.push(metric(
        "disguise.disguise_per_put",
        l.per_op(Kind::Put, "disguise_ops"),
        "count",
        ledger_basis(Kind::Put),
    ));
    m.push(metric(
        "disguise.recover_per_put",
        l.per_op(Kind::Put, "recover_ops"),
        "count",
        ledger_basis(Kind::Put),
    ));
    m.push(metric(
        "disguise.recover_per_get",
        l.per_op(Kind::Get, "recover_ops"),
        "count",
        ledger_basis(Kind::Get),
    ));

    pm(&mut m, "codec.encode_us", "us");
    pm(&mut m, "codec.decode_us", "us");
    pm(&mut m, "codec.probe_us", "us");

    pm(&mut m, "btree.insert_ns", "ns");
    pm(&mut m, "btree.get_ns", "ns");
    pm(&mut m, "btree.visit_ns", "ns");
    m.push(metric(
        "btree.node_visits_per_get",
        l.per_op(Kind::Get, "node_visits"),
        "count",
        ledger_basis(Kind::Get),
    ));
    m.push(metric(
        "btree.node_visits_per_put",
        l.per_op(Kind::Put, "node_visits"),
        "count",
        ledger_basis(Kind::Put),
    ));
    m.push(metric(
        "btree.splits_per_kput",
        1e3 * l.per_op(Kind::Put, "splits"),
        "count",
        ledger_basis(Kind::Put),
    ));
    let hits = c.node_cache_hits as f64;
    m.push(metric(
        "btree.node_cache_hit_ratio",
        ratio(hits, hits + c.node_cache_misses as f64),
        "ratio",
        format!(
            "window, base {} lookups",
            c.node_cache_hits + c.node_cache_misses
        ),
    ));

    let hits = c.record_cache_hits as f64;
    m.push(metric(
        "records.cache_hit_ratio",
        ratio(hits, hits + c.record_cache_misses as f64),
        "ratio",
        format!(
            "window, base {} lookups",
            c.record_cache_hits + c.record_cache_misses
        ),
    ));
    m.push(metric(
        "records.compact_moved_records",
        l.per_op(Kind::Checkpoint, "compact_moved_records"),
        "count",
        ledger_basis(Kind::Checkpoint),
    ));
    m.push(metric(
        "records.compact_freed_blocks",
        l.per_op(Kind::Checkpoint, "compact_freed_blocks"),
        "count",
        ledger_basis(Kind::Checkpoint),
    ));

    let lookups = (c.cache_hits + c.cache_misses) as f64;
    let window = format!("window, base {} ops", t.window_ops);
    m.push(metric(
        "storage.pool_hit_ratio",
        ratio(c.cache_hits as f64, lookups),
        "ratio",
        format!("window, base {lookups} lookups"),
    ));
    m.push(metric(
        "storage.block_reads_per_op",
        ratio(c.block_reads as f64, ops),
        "count",
        window.clone(),
    ));
    m.push(metric(
        "storage.block_writes_per_op",
        ratio(c.block_writes as f64, ops),
        "count",
        window.clone(),
    ));
    m.push(metric(
        "storage.write_bytes_per_op",
        ratio(t.io.wchar as f64, ops),
        "B",
        window.clone(),
    ));
    m.push(metric(
        "storage.write_syscalls_per_op",
        ratio(t.io.syscw as f64, ops),
        "count",
        window.clone(),
    ));
    pm(&mut m, "storage.fsync_us", "us");
    pm(&mut m, "storage.page_flush_us", "us");

    pm(&mut m, "wal.append_ns", "ns");
    m.push(metric(
        "wal.bytes_per_put",
        l.per_op(Kind::Put, "wal_bytes"),
        "B",
        ledger_basis(Kind::Put),
    ));
    m.push(metric(
        "wal.fsyncs_per_kop",
        1e3 * ratio(c.wal_fsyncs as f64, ops),
        "count",
        window.clone(),
    ));
    m.push(metric(
        "wal.sealed_batches_per_kop",
        1e3 * ratio(c.wal_sealed_batches as f64, ops),
        "count",
        window.clone(),
    ));

    let total = |f: &str| Kind::ALL.iter().map(|&k| l.total(k, f)).sum::<u64>() as f64;
    let txn_basis = "window + verify sweep";
    m.push(metric(
        "txn.begins",
        total("txn_begins"),
        "count",
        txn_basis,
    ));
    m.push(metric(
        "txn.commits",
        total("txn_commits"),
        "count",
        txn_basis,
    ));
    m.push(metric(
        "txn.aborts",
        total("txn_aborts"),
        "count",
        txn_basis,
    ));
    m.push(metric(
        "txn.conflicts",
        total("txn_conflicts"),
        "count",
        txn_basis,
    ));
    m.push(metric(
        "txn.frames_per_commit",
        ratio(total("wal_txn_frames"), total("txn_commits")),
        "ratio",
        format!("base {} commits", total("txn_commits")),
    ));

    m.push(metric(
        "engine.replayed_records",
        t.replayed as f64,
        "count",
        "reopen after the tail",
    ));
    let lens = &t.partition_lens;
    let mean = lens.iter().sum::<u64>() as f64 / lens.len().max(1) as f64;
    let max = lens.iter().copied().max().unwrap_or(0) as f64;
    m.push(metric(
        "engine.partition_skew",
        ratio(max, mean),
        "ratio",
        format!("partition lens {lens:?}"),
    ));

    let window_ns = t.window_s * 1e9;
    for stage in Stage::ALL {
        let ns = stage_ns(&t.stats0, &t.stats1, stage) as f64;
        let name = stage.name();
        m.push(metric(
            format!("stage.{name}_ms"),
            ns / 1e6,
            "ms",
            "traced window",
        ));
        m.push(metric(
            format!("stage.{name}_share"),
            ratio(ns, window_ns),
            "ratio",
            "of traced window",
        ));
    }
    let write_path: u64 = WRITE_PATH_STAGES
        .iter()
        .map(|&s| stage_ns(&t.stats0, &t.stats1, s))
        .sum();
    // Checkpoints re-seal nodes too (compaction moves records), so their
    // time belongs in the base beside the mutating calls'.
    let mutation_ns: u64 = [Kind::Put, Kind::Delete, Kind::Txn, Kind::Checkpoint]
        .iter()
        .map(|&k| t.window_lat.get(k).iter().sum::<u64>())
        .sum();
    m.push(metric(
        "stage.coverage",
        ratio(write_path as f64, mutation_ns as f64),
        "ratio",
        format!("write-path stages {write_path} ns / measured put+delete+txn+checkpoint time {mutation_ns} ns"),
    ));

    for (kind, name) in [
        (Kind::Put, "model.put_error"),
        (Kind::Get, "model.get_error"),
        (Kind::Txn, "model.txn_error"),
    ] {
        let n = l.n[kind.idx()];
        let measured = ratio(l.ns[kind.idx()] as f64, n as f64);
        let predicted = predict(l, kind, p);
        report.push(format!(
            "model {:<5} n={n:<7} measured {:>10.2} us  predicted {:>10.2} us  error {:+.3}",
            kind.name(),
            measured / 1e3,
            predicted / 1e3,
            ratio(predicted - measured, measured),
        ));
        m.push(metric(
            name,
            ratio(predicted - measured, measured),
            "ratio",
            format!("base: measured mean over n={n}"),
        ));
    }

    let untraced = u.window_ops as f64 / u.window_s;
    let traced = t.window_ops as f64 / t.window_s;
    m.push(metric(
        "obs.trace_overhead",
        ratio(traced, untraced),
        "ratio",
        format!("traced {traced:.1} / untraced {untraced:.1} ops/s"),
    ));
    m
}

fn fingerprint_line(fp: &Fingerprint) -> String {
    fp.iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn config_line(spec: &Spec, dir: &std::path::Path) -> String {
    let cfg = run::engine_config(spec, dir, sks_engine::ObsLevel::Counters);
    let s = &cfg.scheme;
    let pool = match &s.backend {
        sks_core::StorageBackend::File { pool_pages, .. } => *pool_pages,
        sks_core::StorageBackend::Memory => 0,
    };
    format!(
        "scheme={} capacity={} partitions={} block_size={} sealer={:?} design={:?} backend=file \
         pool_pages={pool} node_cache={} record_cache={} compaction={} compaction_floor={} \
         dirty_high_water={} global_dirty_budget={} global_record_cache={} seal_batch={} \
         write_behind={} index_delta={} index_rewrite_period={} observability={} sync={:?} \
         overlap={} incremental_checkpoints={} wal_block_size={}",
        s.scheme.name(),
        s.capacity,
        s.partitions,
        s.block_size,
        s.sealer,
        s.design,
        s.node_cache,
        s.record_cache,
        s.compaction,
        s.compaction_floor,
        s.dirty_high_water,
        s.global_dirty_budget,
        s.global_record_cache,
        s.seal_batch,
        s.write_behind,
        s.index_delta,
        s.index_rewrite_period,
        s.observability.name(),
        cfg.sync,
        cfg.overlap,
        cfg.incremental_checkpoints,
        cfg.wal_block_size,
    )
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    sysio::one_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sksbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!(
            "sksbench: unknown workload {} (one of {WORKLOADS:?})",
            args.workload
        );
        std::process::exit(2);
    };
    match bench(&args, &spec) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("sksbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when it completed but a check failed.
fn bench(args: &Args, spec: &Spec) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let mut report = vec![format!(
        "sksbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    )];
    let dir = |tag: &str| args.work.join(format!("{}-{tag}", spec.name));
    report.push(format!("config {}", config_line(spec, &dir("db"))));

    // Two set-ups, each followed by the same fixed prefix of the stream:
    // the counts must repeat exactly.
    let kernel = calib::Kernel::new();
    let (s0, fp0) = prefix_run(spec, args.seed, &dir("prefix"), &kernel)?;
    let (s1, fp1) = prefix_run(spec, args.seed, &dir("prefix"), &kernel)?;
    let deterministic = fp0 == fp1;
    report.push(format!(
        "determinism {} over {} prefix ops: {}",
        if deterministic { "ok" } else { "FAILED" },
        spec.prefix,
        fingerprint_line(&fp0)
    ));
    if !deterministic {
        report.push(format!(
            "determinism second run: {}",
            fingerprint_line(&fp1)
        ));
    }

    let mut notes = Vec::new();
    let (correct_runs, attempted, failed, metrics) = if !args.trace {
        let r = full_run(
            spec,
            args.seed,
            args.seconds,
            &dir("db"),
            false,
            false,
            &kernel,
        )?;
        report.push(stream_line(&r));
        let setups: Vec<f64> = [s0, s1]
            .into_iter()
            .chain(r.setups.iter().copied())
            .collect();
        let m = end_to_end(spec, &setups, &r, &mut notes);
        (check_run(&r, &mut report), r.attempted, r.failed, m)
    } else {
        // The run's seconds split evenly between an untraced window (for
        // the tracing overhead only) and the traced run.
        let half = args.seconds / 2.0;
        let u = full_run(spec, args.seed, half, &dir("db"), false, true, &kernel)?;
        let t = full_run(spec, args.seed, half, &dir("db"), true, false, &kernel)?;
        report.push(stream_line(&t));
        let keys = probe_keys(spec, args.seed);
        let mut tracer = t.tracer;
        trace::begin(&mut tracer, "probes");
        let p = probes::run(
            &run::engine_config(spec, &dir("db"), sks_engine::ObsLevel::Counters).scheme,
            &keys,
            args.seed,
            &dir("probes"),
            &mut tracer,
        )?;
        trace::end(&mut tracer);
        std::fs::remove_dir_all(dir("probes")).ok();
        let t = FullRun { tracer: None, ..t };
        let m = per_layer(&u, &t, &p, &mut report);
        if let Some(tr) = &tracer {
            let path = args.work.join(format!("spans-{}.jsonl", spec.name));
            tr.write_jsonl(&path).map_err(|e| e.to_string())?;
            report.push(format!("spans {} written to {}", tr.len(), path.display()));
            report.push(format!(
                "span totals: window {:.1} ms, engine.insert {:.1} ms, engine.get {:.1} ms, engine.checkpoint {:.1} ms",
                tr.total_ns("window") as f64 / 1e6,
                tr.total_ns("engine.insert") as f64 / 1e6,
                tr.total_ns("engine.get") as f64 / 1e6,
                tr.total_ns("engine.checkpoint") as f64 / 1e6,
            ));
        }
        let ok = check_run(&u, &mut report) & check_run(&t, &mut report);
        (ok, u.attempted + t.attempted, u.failed + t.failed, m)
    };
    let correct = correct_runs && deterministic;
    report.push(format!(
        "error_rate = {} ({failed} failed / {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    ));
    for m in &metrics {
        let tag = if m.in_json { "" } else { " (reported only)" };
        report.push(format!(
            "{:<34} {:>14.4} {:<6} {}{tag}",
            m.name, m.value, m.unit, m.basis
        ));
    }
    report.extend(notes);
    for line in &report {
        println!("# {line}");
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn stream_line(r: &FullRun) -> String {
    format!(
        "opstream hash={:016x} ops={} model-replay {}",
        r.stream_hash,
        r.ops_emitted,
        if r.stream_hash_ok {
            "matches"
        } else {
            "DIFFERS"
        }
    )
}

/// Whether a run's answers were all right; failures go to the report.
fn check_run(r: &FullRun, report: &mut Vec<String>) -> bool {
    for f in &r.failures {
        report.push(format!("FAILURE {f}"));
    }
    if !r.stream_hash_ok {
        report.push("FAILURE op stream differs from the seed's model replay".into());
    }
    r.failed == 0 && r.stream_hash_ok
}

/// Distinct workload keys the probes run on: the first keys of the
/// workload's own op stream, topped up from its preload.
fn probe_keys(spec: &Spec, seed: u64) -> Vec<u64> {
    const N: usize = 20_000;
    let (preload, mut model) = gen::OpGen::preload(spec, seed);
    let mut g = gen::OpGen::new(spec, seed);
    let mut seen = std::collections::HashSet::new();
    let mut keys = Vec::with_capacity(N);
    for _ in 0..4 * N {
        let op = g.next(&model);
        if let gen::Op::Put(k) | gen::Op::Get(k) | gen::Op::Delete(k) = op {
            if seen.insert(k) {
                keys.push(k);
            }
        }
        gen::apply_to_model(&mut model, op);
        if keys.len() == N {
            break;
        }
    }
    for k in preload {
        if keys.len() == N {
            break;
        }
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}
