//! The paper's node-block format (§3/§4):
//!
//! ```text
//! header | [E(b‖0‖p₀)]          (internal nodes: the lone leftmost pointer)
//!        | f(k₁), E(b‖a₁‖p₁)
//!        | …
//!        | f(k_n), E(b‖a_n‖p_n)
//! ```
//!
//! Disguised keys are stored in the clear, so navigation is integer
//! comparisons; only the one pointer cryptogram actually followed is
//! decrypted — **one decryption per node visit** versus `log₂ n` for
//! search-and-decrypt (§6's headline claim). On reorganisation the keys are
//! re-disguised (cheap integer ops, counted separately) but never
//! re-*encrypted*.

use std::sync::Arc;

use sks_btree_core::{CachedNode, CodecError, Node, NodeCodec, Probe, RecordPtr, NODE_HEADER_LEN};
use sks_storage::{BlockId, OpCounters, PageReader, PageWriter};

use crate::codec::{pack_payload, unpack_payload, TripletSealer, SEAL_PAYLOAD_LEN};
use crate::disguise::KeyDisguise;

const TAG: u8 = 0x53; // 'S'

/// Node codec implementing the paper's search-key-substitution format.
pub struct SubstitutionCodec {
    disguise: Arc<dyn KeyDisguise>,
    sealer: Arc<dyn TripletSealer>,
    counters: OpCounters,
}

impl SubstitutionCodec {
    pub fn new(
        disguise: Arc<dyn KeyDisguise>,
        sealer: Arc<dyn TripletSealer>,
        counters: OpCounters,
    ) -> Self {
        SubstitutionCodec {
            disguise,
            sealer,
            counters,
        }
    }

    pub fn disguise(&self) -> &Arc<dyn KeyDisguise> {
        &self.disguise
    }

    fn entry_len(&self) -> usize {
        8 + self.sealer.sealed_len()
    }

    fn seal_at(&self, page: &[u8], offset: usize) -> Result<[u8; SEAL_PAYLOAD_LEN], CodecError> {
        let mut r = PageReader::new(page);
        r.seek(offset)?;
        let ct = r.get_bytes(self.sealer.sealed_len())?;
        self.counters.bump(|c| &c.ptr_decrypts);
        self.sealer.unseal(ct)
    }

    /// Offset of the disguised key of entry `i`.
    fn key_offset(&self, is_leaf: bool, i: usize) -> usize {
        let base = NODE_HEADER_LEN + if is_leaf { 0 } else { self.sealer.sealed_len() };
        base + i * self.entry_len()
    }

    /// Reads the raw disguised key of entry `i` from the page.
    fn raw_key_at(&self, page: &[u8], is_leaf: bool, i: usize) -> Result<u64, CodecError> {
        let mut r = PageReader::new(page);
        r.seek(self.key_offset(is_leaf, i))?;
        Ok(r.get_u64()?)
    }

    fn map_disguise_err(e: crate::disguise::DisguiseError) -> CodecError {
        match e {
            crate::disguise::DisguiseError::OutOfDomain { key, domain } => CodecError::KeyDomain {
                key,
                limit: domain
                    .trim_start_matches(|c| c != ',')
                    .trim_matches(|c: char| !c.is_ascii_digit())
                    .parse()
                    .unwrap_or(0),
            },
            other => CodecError::Corrupt(format!("disguise failure: {other}")),
        }
    }
}

impl NodeCodec for SubstitutionCodec {
    fn encode(&self, node: &Node, page: &mut [u8]) -> Result<(), CodecError> {
        node.check_shape().map_err(CodecError::Corrupt)?;
        let mut w = PageWriter::new(page);
        sks_btree_core::codec::write_header(&mut w, TAG, node)?;
        let b = node.id.0;
        if !node.is_leaf() {
            // The lone leftmost tree pointer: E(b ‖ 0 ‖ p₀).
            self.counters.bump(|c| &c.ptr_encrypts);
            let ct = self.sealer.seal(&pack_payload(b, 0, node.children[0].0));
            w.put_bytes(&ct)?;
        }
        for i in 0..node.n() {
            let disguised = self
                .disguise
                .disguise(node.keys[i])
                .map_err(Self::map_disguise_err)?;
            w.put_u64(disguised)?;
            let p = if node.is_leaf() {
                0
            } else {
                node.children[i + 1].0
            };
            self.counters.bump(|c| &c.ptr_encrypts);
            let ct = self.sealer.seal(&pack_payload(b, node.data_ptrs[i].0, p));
            w.put_bytes(&ct)?;
        }
        w.pad_remaining();
        Ok(())
    }

    fn decode(&self, id: BlockId, page: &[u8]) -> Result<Node, CodecError> {
        let mut r = PageReader::new(page);
        let (is_leaf, n) = sks_btree_core::codec::read_header(&mut r, TAG, id)?;
        let mut keys = Vec::with_capacity(n);
        let mut data_ptrs = Vec::with_capacity(n);
        let mut children = Vec::new();
        if !is_leaf {
            let ct = r.get_bytes(self.sealer.sealed_len())?;
            self.counters.bump(|c| &c.ptr_decrypts);
            let payload = self.sealer.unseal(ct)?;
            let (_, p0) = unpack_payload(&payload, id.0)?;
            children.push(BlockId(p0));
        }
        for _ in 0..n {
            let disguised = r.get_u64()?;
            let key = self
                .disguise
                .recover(disguised)
                .map_err(|e| CodecError::Corrupt(format!("recover failed: {e}")))?;
            keys.push(key);
            let ct = r.get_bytes(self.sealer.sealed_len())?;
            self.counters.bump(|c| &c.ptr_decrypts);
            let payload = self.sealer.unseal(ct)?;
            let (a, p) = unpack_payload(&payload, id.0)?;
            data_ptrs.push(RecordPtr(a));
            if !is_leaf {
                children.push(BlockId(p));
            }
        }
        let node = Node {
            id,
            keys,
            data_ptrs,
            children,
        };
        node.check_shape().map_err(CodecError::Corrupt)?;
        Ok(node)
    }

    fn probe(&self, id: BlockId, page: &[u8], key: u64) -> Result<Probe, CodecError> {
        let mut r = PageReader::new(page);
        let (is_leaf, n) = sks_btree_core::codec::read_header(&mut r, TAG, id)?;

        // Locate the key by comparisons on (dis)guised values — no pointer
        // decryption yet.
        let found: Result<usize, usize> = if self.disguise.order_preserving() {
            // Disguise the query once; compare against raw on-disk values.
            match self.disguise.disguise(key) {
                Ok(dq) => {
                    let mut lo = 0usize;
                    let mut hi = n;
                    let mut hit = None;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        self.counters.bump(|c| &c.key_compares);
                        let raw = self.raw_key_at(page, is_leaf, mid)?;
                        match raw.cmp(&dq) {
                            std::cmp::Ordering::Equal => {
                                hit = Some(mid);
                                break;
                            }
                            std::cmp::Ordering::Less => lo = mid + 1,
                            std::cmp::Ordering::Greater => hi = mid,
                        }
                    }
                    match hit {
                        Some(i) => Ok(i),
                        None => Err(lo),
                    }
                }
                // Query key outside the disguise domain cannot be stored.
                Err(_) => Err(if n == 0 { 0 } else { n }),
            }
        } else {
            // Recover each probed key (cheap integer inverse, counted as
            // recover_ops) — triplet positions are in plaintext order, so
            // binary search over recovered values is sound.
            let mut lo = 0usize;
            let mut hi = n;
            let mut hit = None;
            while lo < hi {
                let mid = (lo + hi) / 2;
                self.counters.bump(|c| &c.key_compares);
                let raw = self.raw_key_at(page, is_leaf, mid)?;
                let recovered = self
                    .disguise
                    .recover(raw)
                    .map_err(|e| CodecError::Corrupt(format!("recover failed: {e}")))?;
                match recovered.cmp(&key) {
                    std::cmp::Ordering::Equal => {
                        hit = Some(mid);
                        break;
                    }
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            match hit {
                Some(i) => Ok(i),
                None => Err(lo),
            }
        };

        match found {
            Ok(i) => {
                // Exactly one pointer decryption: entry i's seal.
                let off = self.key_offset(is_leaf, i) + 8;
                let payload = self.seal_at(page, off)?;
                let (a, _) = unpack_payload(&payload, id.0)?;
                Ok(Probe::Found {
                    data_ptr: RecordPtr(a),
                })
            }
            Err(slot) => {
                if is_leaf {
                    return Ok(Probe::Missing);
                }
                // Child `slot`: p₀ lives in the leftmost seal, child i+1 in
                // entry i's seal. One pointer decryption either way.
                if slot == 0 {
                    let payload = self.seal_at(page, NODE_HEADER_LEN)?;
                    let (_, p0) = unpack_payload(&payload, id.0)?;
                    Ok(Probe::Descend { child: BlockId(p0) })
                } else {
                    let off = self.key_offset(is_leaf, slot - 1) + 8;
                    let payload = self.seal_at(page, off)?;
                    let (_, p) = unpack_payload(&payload, id.0)?;
                    Ok(Probe::Descend { child: BlockId(p) })
                }
            }
        }
    }

    fn max_keys(&self, page_size: usize) -> usize {
        // Internal node (worst case): header + leftmost seal + n entries.
        let fixed = NODE_HEADER_LEN + self.sealer.sealed_len();
        if page_size <= fixed {
            return 0;
        }
        (page_size - fixed) / self.entry_len()
    }

    fn name(&self) -> &'static str {
        "substitution"
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        // `decode`, counter-silent, additionally retaining the raw
        // disguised key fields so `probe_cached` can replay the probe's
        // exact recover/compare sequence.
        let mut r = PageReader::new(page);
        let (is_leaf, n) = sks_btree_core::codec::read_header(&mut r, TAG, id)?;
        let mut keys = Vec::with_capacity(n);
        let mut raw_keys = Vec::with_capacity(n);
        let mut data_ptrs = Vec::with_capacity(n);
        let mut children = Vec::new();
        if !is_leaf {
            let ct = r.get_bytes(self.sealer.sealed_len())?;
            let payload = self.sealer.unseal(ct)?;
            let (_, p0) = unpack_payload(&payload, id.0)?;
            children.push(BlockId(p0));
        }
        for _ in 0..n {
            let disguised = r.get_u64()?;
            let key = self
                .disguise
                .recover_uncounted(disguised)
                .map_err(|e| CodecError::Corrupt(format!("recover failed: {e}")))?;
            raw_keys.push(disguised);
            keys.push(key);
            let ct = r.get_bytes(self.sealer.sealed_len())?;
            let payload = self.sealer.unseal(ct)?;
            let (a, p) = unpack_payload(&payload, id.0)?;
            data_ptrs.push(RecordPtr(a));
            if !is_leaf {
                children.push(BlockId(p));
            }
        }
        let node = Node {
            id,
            keys,
            data_ptrs,
            children,
        };
        node.check_shape().map_err(CodecError::Corrupt)?;
        Ok(CachedNode {
            node,
            raw_keys,
            page_len: page.len(),
        })
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        let node = &entry.node;
        let n = node.n();
        let is_leaf = node.is_leaf();

        // The same in-node search as `probe`, over the retained raw key
        // fields — including the real disguise/recover calls, so their
        // counter profile (disguise_ops, recover_ops, dlog_ops …) is
        // identical step for step. Only the pointer unseals are skipped.
        let found: Result<usize, usize> = if self.disguise.order_preserving() {
            match self.disguise.disguise(key) {
                Ok(dq) => {
                    let mut lo = 0usize;
                    let mut hi = n;
                    let mut hit = None;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        self.counters.bump(|c| &c.key_compares);
                        match entry.raw_keys[mid].cmp(&dq) {
                            std::cmp::Ordering::Equal => {
                                hit = Some(mid);
                                break;
                            }
                            std::cmp::Ordering::Less => lo = mid + 1,
                            std::cmp::Ordering::Greater => hi = mid,
                        }
                    }
                    match hit {
                        Some(i) => Ok(i),
                        None => Err(lo),
                    }
                }
                Err(_) => Err(if n == 0 { 0 } else { n }),
            }
        } else {
            let mut lo = 0usize;
            let mut hi = n;
            let mut hit = None;
            while lo < hi {
                let mid = (lo + hi) / 2;
                self.counters.bump(|c| &c.key_compares);
                let recovered = self
                    .disguise
                    .recover(entry.raw_keys[mid])
                    .map_err(|e| CodecError::Corrupt(format!("recover failed: {e}")))?;
                match recovered.cmp(&key) {
                    std::cmp::Ordering::Equal => {
                        hit = Some(mid);
                        break;
                    }
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            match hit {
                Some(i) => Ok(i),
                None => Err(lo),
            }
        };

        match found {
            Ok(i) => {
                // The probe would unseal exactly entry i's pointer.
                self.counters.bump(|c| &c.ptr_decrypts);
                Ok(Probe::Found {
                    data_ptr: node.data_ptrs[i],
                })
            }
            Err(slot) => {
                if is_leaf {
                    return Ok(Probe::Missing);
                }
                // One pointer decryption either way (leftmost seal for
                // slot 0, entry slot-1's seal otherwise).
                self.counters.bump(|c| &c.ptr_decrypts);
                Ok(Probe::Descend {
                    child: node.children[slot],
                })
            }
        }
    }

    fn decode_cached(&self, entry: &CachedNode) -> Result<Node, CodecError> {
        // A raw decode unseals every pointer cryptogram (plus the lone
        // leftmost one on internal nodes) and runs the *real* disguise
        // recovery per key — replay the recoveries against the retained
        // raw key fields so their counter profile (recover_ops, dlog_ops
        // …) is identical step for step, and charge the pointer unseals.
        let node = &entry.node;
        let seals = node.n() + usize::from(!node.is_leaf());
        self.counters.bump_by(|c| &c.ptr_decrypts, seals as u64);
        for &raw in &entry.raw_keys {
            self.disguise
                .recover(raw)
                .map_err(|e| CodecError::Corrupt(format!("recover failed: {e}")))?;
        }
        Ok(node.clone())
    }

    fn encode_to_cache(&self, node: &Node, page_len: usize) -> Result<CachedNode, CodecError> {
        // `encode`'s exact validation and counter profile with the seals
        // skipped: shape check, fit check, one ptr_encrypts per pointer
        // cryptogram, and the real *counted* disguise per key (which also
        // enforces the key domain). The disguised values become the raw-key
        // sidecar, so the eventual seal and every cached probe/decode
        // replay use the same on-page key fields.
        node.check_shape().map_err(CodecError::Corrupt)?;
        let end = self.key_offset(node.is_leaf(), node.n());
        if end > page_len {
            return Err(CodecError::Overflow(sks_storage::PageOverflow {
                offset: page_len,
                requested: end - page_len,
                page_len,
            }));
        }
        if !node.is_leaf() {
            self.counters.bump(|c| &c.ptr_encrypts);
        }
        let mut raw_keys = Vec::with_capacity(node.n());
        for i in 0..node.n() {
            let disguised = self
                .disguise
                .disguise(node.keys[i])
                .map_err(Self::map_disguise_err)?;
            raw_keys.push(disguised);
            self.counters.bump(|c| &c.ptr_encrypts);
        }
        Ok(CachedNode {
            node: node.clone(),
            raw_keys,
            page_len,
        })
    }

    fn encode_from_cache(&self, entry: &CachedNode, page: &mut [u8]) -> Result<(), CodecError> {
        // Counter-silent physical seal: same page bytes as `encode`, with
        // the disguised key fields replayed from the sidecar instead of
        // re-running the (already charged) disguise.
        let node = &entry.node;
        if entry.raw_keys.len() != node.n() {
            return Err(CodecError::Corrupt(format!(
                "pooled entry for block {} lacks its disguised keys",
                node.id
            )));
        }
        let mut w = PageWriter::new(page);
        sks_btree_core::codec::write_header(&mut w, TAG, node)?;
        let b = node.id.0;
        if !node.is_leaf() {
            let ct = self.sealer.seal(&pack_payload(b, 0, node.children[0].0));
            w.put_bytes(&ct)?;
        }
        for i in 0..node.n() {
            w.put_u64(entry.raw_keys[i])?;
            let p = if node.is_leaf() {
                0
            } else {
                node.children[i + 1].0
            };
            let ct = self.sealer.seal(&pack_payload(b, node.data_ptrs[i].0, p));
            w.put_bytes(&ct)?;
        }
        w.pad_remaining();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BlockCipherSealer;
    use crate::disguise::{IdentityDisguise, OvalSubstitution, SumSubstitution};

    /// Builds a codec whose disguise shares the codec's counter set, so
    /// tests observe disguise/recover ops alongside seal ops.
    fn codec_with_shared(
        make: impl FnOnce(OpCounters) -> Arc<dyn KeyDisguise>,
    ) -> (SubstitutionCodec, OpCounters) {
        let counters = OpCounters::new();
        let disguise = make(counters.clone());
        let sealer = Arc::new(BlockCipherSealer::des(0xA5A5_5A5A_0F0F_F0F0));
        (
            SubstitutionCodec::new(disguise, sealer, counters.clone()),
            counters,
        )
    }

    fn codec_with(disguise: Arc<dyn KeyDisguise>) -> (SubstitutionCodec, OpCounters) {
        let counters = OpCounters::new();
        let sealer = Arc::new(BlockCipherSealer::des(0xA5A5_5A5A_0F0F_F0F0));
        (
            SubstitutionCodec::new(disguise, sealer, counters.clone()),
            counters,
        )
    }

    fn sample_internal() -> Node {
        Node {
            id: BlockId(7),
            keys: vec![2, 5, 9],
            data_ptrs: vec![RecordPtr(20), RecordPtr(50), RecordPtr(90)],
            children: vec![BlockId(11), BlockId(12), BlockId(13), BlockId(14)],
        }
    }

    #[test]
    fn roundtrip_with_oval_disguise() {
        let (codec, _) = codec_with(Arc::new(OvalSubstitution::paper_example(OpCounters::new())));
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(7), &page).unwrap(), node);
    }

    #[test]
    fn disk_keys_are_disguised_not_plaintext() {
        let disguise = Arc::new(OvalSubstitution::paper_example(OpCounters::new()));
        let (codec, _) = codec_with(disguise.clone());
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        // Entry 0's key field must hold f(2) = 2*7 mod 13 = 1, not 2.
        let raw = codec.raw_key_at(&page, false, 0).unwrap();
        assert_eq!(raw, 1);
        assert_ne!(raw, node.keys[0]);
    }

    #[test]
    fn probe_costs_exactly_one_pointer_decryption() {
        let (codec, counters) =
            codec_with(Arc::new(OvalSubstitution::paper_example(OpCounters::new())));
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        counters.reset();

        // Found.
        let p = codec.probe(BlockId(7), &page, 5).unwrap();
        assert_eq!(
            p,
            Probe::Found {
                data_ptr: RecordPtr(50)
            }
        );
        assert_eq!(counters.snapshot().ptr_decrypts, 1);

        counters.reset();
        // Descend (middle child).
        let p = codec.probe(BlockId(7), &page, 3).unwrap();
        assert_eq!(p, Probe::Descend { child: BlockId(12) });
        assert_eq!(counters.snapshot().ptr_decrypts, 1);

        counters.reset();
        // Descend leftmost.
        let p = codec.probe(BlockId(7), &page, 1).unwrap();
        assert_eq!(p, Probe::Descend { child: BlockId(11) });
        assert_eq!(counters.snapshot().ptr_decrypts, 1);
    }

    #[test]
    fn leaf_miss_costs_zero_decryptions() {
        let (codec, counters) =
            codec_with(Arc::new(OvalSubstitution::paper_example(OpCounters::new())));
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![4, 8];
        leaf.data_ptrs = vec![RecordPtr(1), RecordPtr(2)];
        let mut page = vec![0u8; 256];
        codec.encode(&leaf, &mut page).unwrap();
        counters.reset();
        assert_eq!(codec.probe(BlockId(3), &page, 6).unwrap(), Probe::Missing);
        assert_eq!(counters.snapshot().ptr_decrypts, 0);
    }

    #[test]
    fn order_preserving_path_disguises_query_once() {
        let (codec, counters) = codec_with_shared(|c| Arc::new(SumSubstitution::paper_example(c)));
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![1, 4, 8];
        leaf.data_ptrs = vec![RecordPtr(1), RecordPtr(2), RecordPtr(3)];
        let mut page = vec![0u8; 256];
        codec.encode(&leaf, &mut page).unwrap();
        counters.reset();
        let p = codec.probe(BlockId(3), &page, 4).unwrap();
        assert_eq!(
            p,
            Probe::Found {
                data_ptr: RecordPtr(2)
            }
        );
        let s = counters.snapshot();
        assert_eq!(s.disguise_ops, 1, "query disguised once");
        assert_eq!(s.recover_ops, 0, "no per-entry recovery needed");
    }

    #[test]
    fn non_order_preserving_path_recovers_probed_entries() {
        let (codec, counters) = codec_with_shared(|c| Arc::new(OvalSubstitution::paper_example(c)));
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![1, 4, 8, 10, 12];
        leaf.data_ptrs = (0..5).map(RecordPtr).collect();
        let mut page = vec![0u8; 256];
        codec.encode(&leaf, &mut page).unwrap();
        counters.reset();
        let _ = codec.probe(BlockId(3), &page, 10).unwrap();
        let s = counters.snapshot();
        assert!(
            s.recover_ops >= 1 && s.recover_ops <= 3,
            "~log2(5) recoveries"
        );
        assert_eq!(s.disguise_ops, 0);
    }

    #[test]
    fn no_key_encryption_ever() {
        let (codec, counters) = codec_with_shared(|c| Arc::new(OvalSubstitution::paper_example(c)));
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        let _ = codec.decode(BlockId(7), &page).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.key_encrypts, 0, "§4: keys are disguised, never encrypted");
        assert_eq!(s.key_decrypts, 0);
        assert!(s.disguise_ops >= 3);
    }

    #[test]
    fn key_domain_violation_reported() {
        let (codec, _) = codec_with(Arc::new(OvalSubstitution::paper_example(OpCounters::new())));
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![99]; // >= v = 13
        leaf.data_ptrs = vec![RecordPtr(1)];
        let mut page = vec![0u8; 256];
        assert!(matches!(
            codec.encode(&leaf, &mut page),
            Err(CodecError::KeyDomain { key: 99, .. })
        ));
    }

    #[test]
    fn binding_detects_block_relocation() {
        // Copying a node page to a different block id must fail decode: the
        // cryptograms are bound to b.
        let (codec, _) = codec_with(Arc::new(OvalSubstitution::paper_example(OpCounters::new())));
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        // Overwrite the plaintext header block id so the header check passes
        // and the cryptographic binding does the work.
        page[4..8].copy_from_slice(&8u32.to_be_bytes());
        let err = codec.decode(BlockId(8), &page).unwrap_err();
        assert!(matches!(err, CodecError::BindingMismatch { .. }));
    }

    #[test]
    fn identity_disguise_works_as_degenerate_case() {
        let (codec, _) = codec_with(Arc::new(IdentityDisguise));
        let node = sample_internal();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(7), &page).unwrap(), node);
    }

    #[test]
    fn max_keys_consistent_with_encode() {
        let (codec, _) = codec_with(Arc::new(IdentityDisguise));
        for page_size in [128usize, 256, 512] {
            let m = codec.max_keys(page_size);
            let node = Node {
                id: BlockId(1),
                keys: (0..m as u64).collect(),
                data_ptrs: (0..m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32).map(BlockId).collect(),
            };
            let mut page = vec![0u8; page_size];
            codec.encode(&node, &mut page).unwrap();
        }
    }
}
