//! The decoded-node pool's codec contract, checked hook by hook for every
//! measured scheme: the split write path (`encode_to_cache` then
//! `encode_from_cache`) and the split read path (`decode_for_cache` then
//! `decode_cached`) must each charge exactly the counters, fail on exactly
//! the inputs, and produce exactly the bytes or nodes of the one-shot
//! `encode` / `decode` the paper's cost model is defined over.

use std::mem::discriminant;

use sks_btree_core::{CodecError, Node, NodeCodec, RecordPtr};
use sks_core::{Scheme, SchemeConfig};
use sks_storage::{BlockId, OpCounters, OpSnapshot};

const PAGE: usize = 512;

fn leaf(id: u32, keys: &[u64]) -> Node {
    Node {
        id: BlockId(id),
        keys: keys.to_vec(),
        data_ptrs: (0..keys.len() as u64).map(|i| RecordPtr(100 + i)).collect(),
        children: Vec::new(),
    }
}

fn internal(id: u32, keys: &[u64]) -> Node {
    let mut node = leaf(id, keys);
    node.children = (0..=keys.len() as u32).map(|c| BlockId(40 + c)).collect();
    node
}

/// Valid nodes plus every kind of input `encode` rejects: a node too
/// large for the page, a key outside the disguise domain, and a node
/// whose child count does not match its keys.
fn inputs(max_keys: usize) -> Vec<Node> {
    let full: Vec<u64> = (1..=max_keys as u64).collect();
    let over: Vec<u64> = (1..=4 * max_keys as u64).collect();
    let mut bad_shape = internal(9, &[3, 5]);
    bad_shape.children.pop();
    vec![
        leaf(2, &[]),
        leaf(3, &[7]),
        leaf(4, &full),
        internal(5, &[10, 20, 30]),
        internal(6, &full),
        leaf(7, &over),
        leaf(8, &[1, u64::MAX / 3]),
        bad_shape,
    ]
}

/// Counters bumped by `f`.
fn charged<T>(counters: &OpCounters, f: impl FnOnce() -> T) -> (T, OpSnapshot) {
    let before = counters.snapshot();
    let out = f();
    (out, counters.snapshot().delta(&before))
}

fn same_failure<A, B>(a: &Result<A, CodecError>, b: &Result<B, CodecError>) -> bool {
    match (a, b) {
        (Ok(_), Ok(_)) => true,
        (Err(x), Err(y)) => discriminant(x) == discriminant(y),
        _ => false,
    }
}

#[test]
fn pool_hooks_match_one_shot_codec_for_every_measured_scheme() {
    for scheme in Scheme::MEASURED {
        let counters = OpCounters::new();
        let (codec, _) = SchemeConfig::with_capacity(scheme, 300)
            .build_codec(&counters)
            .unwrap();
        let name = scheme.name();
        let mut valid = 0;
        for node in inputs(codec.max_keys(PAGE)) {
            let mut page = vec![0u8; PAGE];
            let (direct, direct_cost) = charged(&counters, || codec.encode(&node, &mut page));
            let (entry, deferred_cost) = charged(&counters, || codec.encode_to_cache(&node, PAGE));
            let id = node.id;
            assert!(
                same_failure(&direct, &entry),
                "{name}: encode {direct:?} vs encode_to_cache {:?} on node {id}",
                entry.as_ref().map(|_| ())
            );
            // A rejected node's partial charge depends on where each path
            // notices the fault; only accepted writes are charged.
            let Ok(entry) = entry else { continue };
            assert_eq!(
                deferred_cost, direct_cost,
                "{name}: encode charge, node {id}"
            );
            valid += 1;

            let mut sealed = vec![0u8; PAGE];
            let (res, seal_cost) =
                charged(&counters, || codec.encode_from_cache(&entry, &mut sealed));
            res.unwrap();
            assert_eq!(
                seal_cost,
                OpSnapshot::default(),
                "{name}: the seal is counter-silent"
            );
            assert_eq!(sealed, page, "{name}: sealed bytes of node {id}");

            let (decoded, decode_cost) = charged(&counters, || codec.decode(id, &page));
            let decoded = decoded.unwrap();
            assert_eq!(decoded, node, "{name}: roundtrip of node {id}");
            let (pooled, pooled_cost) = charged(&counters, || {
                let entry = codec.decode_for_cache(id, &page).unwrap();
                codec.decode_cached(&entry).unwrap()
            });
            assert_eq!(pooled, decoded, "{name}: pooled decode of node {id}");
            assert_eq!(pooled_cost, decode_cost, "{name}: decode charge, node {id}");
            // The dirty entry itself serves reads like the decoded page.
            let (dirty, dirty_cost) = charged(&counters, || codec.decode_cached(&entry).unwrap());
            assert_eq!(dirty, decoded, "{name}: dirty entry of node {id}");
            assert_eq!(
                dirty_cost, decode_cost,
                "{name}: dirty read charge, node {id}"
            );
        }
        assert!(valid >= 5, "{name}: every well-formed node encodes");
    }
}
