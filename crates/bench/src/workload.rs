//! Workload generation shared by the repro binary and the Criterion
//! benches: deterministic key sets, tree builders per scheme, ground
//! truth extraction for the attack experiments, and the concurrent
//! session-workload driver for the engine benches.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sks_attack::{Edge, GroundTruth};
use sks_core::{EncipheredBTree, Scheme, SchemeConfig};
use sks_engine::SksDb;

/// Deterministic shuffled key set `start..start+n`.
pub fn shuffled_keys(start: u64, n: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (start..start + n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    keys.shuffle(&mut rng);
    keys
}

/// Keys valid for a scheme: exponentiation schemes exclude 0.
pub fn keys_for(scheme: Scheme, n: u64, seed: u64) -> Vec<u64> {
    match scheme {
        Scheme::Exponentiation | Scheme::ExponentiationPaper => shuffled_keys(1, n, seed),
        _ => shuffled_keys(0, n, seed),
    }
}

/// Builds a populated tree for a scheme at a given scale and block size,
/// flushed so the medium holds the at-rest image of every node.
pub fn build_tree(scheme: Scheme, n_keys: u64, block_size: usize, seed: u64) -> EncipheredBTree {
    let mut cfg = SchemeConfig::with_capacity(scheme, n_keys + 2);
    cfg.block_size = block_size;
    let mut tree = EncipheredBTree::create_in_memory(cfg).expect("config must build");
    for k in keys_for(scheme, n_keys, seed) {
        tree.insert(k, record_for(k)).expect("insert in-domain key");
    }
    tree.flush().expect("flush");
    tree
}

/// Synthetic record payload for key `k`.
pub fn record_for(k: u64) -> Vec<u8> {
    format!("employee:{k:08};dept:{};salary:{}", k % 17, 30_000 + k * 13).into_bytes()
}

/// Random lookup keys drawn from the inserted domain.
pub fn lookup_keys(scheme: Scheme, n_keys: u64, lookups: usize, seed: u64) -> Vec<u64> {
    let lo = match scheme {
        Scheme::Exponentiation | Scheme::ExponentiationPaper => 1,
        _ => 0,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    (0..lookups)
        .map(|_| rng.gen_range(lo..lo + n_keys))
        .collect()
}

/// Extracts the true parent→child edge set and (key, disguised) pairs from a
/// live tree — the experimenter's ground truth for the attack report.
pub fn ground_truth(tree: &EncipheredBTree) -> GroundTruth {
    let mut edges = Vec::new();
    let mut stack = vec![tree.tree().root_id()];
    let mut keys = Vec::new();
    while let Some(id) = stack.pop() {
        let node = tree.tree().inspect_node(id).expect("live tree");
        keys.extend_from_slice(&node.keys);
        for &child in &node.children {
            edges.push(Edge {
                parent: id.as_u32(),
                child: child.as_u32(),
            });
            stack.push(child);
        }
    }
    let key_pairs = match tree.disguise() {
        Some(d) => keys
            .iter()
            .filter_map(|&k| d.disguise(k).ok().map(|dk| (k, dk)))
            .collect(),
        None => Vec::new(),
    };
    GroundTruth { edges, key_pairs }
}

// ---- concurrent engine workloads -----------------------------------------

/// Specification of a concurrent mixed workload against an [`SksDb`]:
/// `threads` sessions each issue `ops_per_thread` operations over
/// `0..key_space`, of which `read_pct`% are point reads and the rest are
/// inserts (overwrites included). Fully deterministic per (thread, seed).
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    pub threads: usize,
    pub ops_per_thread: usize,
    /// 0..=100; 100 is a read-only scan mix.
    pub read_pct: u8,
    pub key_space: u64,
    pub seed: u64,
}

/// Wall-clock result of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct EngineRunStats {
    pub total_ops: u64,
    pub reads: u64,
    pub writes: u64,
    pub elapsed: Duration,
}

impl EngineRunStats {
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Loads `0..n` sequentially through one session (bench/demo setup).
pub fn prefill_engine(db: &Arc<SksDb>, n: u64) {
    let session = db.session();
    for k in 0..n {
        session
            .insert(k, record_for(k))
            .expect("prefill key in domain");
    }
}

/// Runs the workload: all sessions start on a barrier, the clock covers
/// the whole storm, and per-thread op counts are returned aggregated.
pub fn run_engine_workload(db: &Arc<SksDb>, w: &EngineWorkload) -> EngineRunStats {
    assert!(w.threads >= 1 && w.read_pct <= 100 && w.key_space >= 1);
    let barrier = Arc::new(Barrier::new(w.threads + 1));
    let mut handles = Vec::with_capacity(w.threads);
    for t in 0..w.threads {
        let session = db.session();
        let barrier = Arc::clone(&barrier);
        let w = *w;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(w.seed ^ (t as u64).wrapping_mul(0x9E37));
            let mut reads = 0u64;
            let mut writes = 0u64;
            barrier.wait();
            for _ in 0..w.ops_per_thread {
                let key = rng.gen_range(0..w.key_space);
                if rng.gen_range(0u8..100) < w.read_pct {
                    let _ = session.get(key).expect("in-domain read");
                    reads += 1;
                } else {
                    session
                        .insert(key, record_for(key))
                        .expect("in-domain write");
                    writes += 1;
                }
            }
            (reads, writes)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut reads = 0;
    let mut writes = 0;
    for h in handles {
        let (r, v) = h.join().expect("workload thread");
        reads += r;
        writes += v;
    }
    let elapsed = start.elapsed();
    EngineRunStats {
        total_ops: reads + writes,
        reads,
        writes,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_engine::EngineConfig;

    #[test]
    fn shuffled_keys_are_a_permutation() {
        let keys = shuffled_keys(0, 100, 7);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
        assert_ne!(keys, sorted, "seeded shuffle must actually shuffle");
        // Deterministic.
        assert_eq!(keys, shuffled_keys(0, 100, 7));
    }

    #[test]
    fn build_tree_all_measured_schemes() {
        for scheme in Scheme::MEASURED {
            let tree = build_tree(scheme, 200, 1024, 3);
            assert_eq!(tree.len(), 200, "{}", scheme.name());
            tree.validate().unwrap();
        }
    }

    #[test]
    fn ground_truth_edges_count_matches_structure() {
        let tree = build_tree(Scheme::Oval, 500, 512, 1);
        let gt = ground_truth(&tree);
        // A tree with E edges has E+1 nodes.
        let mut nodes: std::collections::HashSet<u32> = gt.edges.iter().map(|e| e.child).collect();
        nodes.insert(tree.tree().root_id().as_u32());
        assert_eq!(nodes.len(), gt.edges.len() + 1);
        assert_eq!(gt.key_pairs.len() as u64, tree.len());
    }

    #[test]
    fn exp_keys_exclude_zero() {
        let keys = keys_for(Scheme::Exponentiation, 50, 9);
        assert!(!keys.contains(&0));
        assert!(keys.contains(&50));
    }

    #[test]
    fn engine_workload_runs_mixed_sessions() {
        let dir = std::env::temp_dir().join(format!("sks_bench_workload_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 600).partitions(4);
        let db = SksDb::open(&dir, EngineConfig::new(cfg)).unwrap();
        prefill_engine(&db, 200);
        let stats = run_engine_workload(
            &db,
            &EngineWorkload {
                threads: 4,
                ops_per_thread: 250,
                read_pct: 70,
                key_space: 500,
                seed: 11,
            },
        );
        assert_eq!(stats.total_ops, 1000);
        assert!(stats.reads > 0 && stats.writes > 0);
        assert!(stats.ops_per_sec() > 0.0);
        db.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
