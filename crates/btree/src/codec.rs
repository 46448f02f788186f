//! The node-codec boundary: how a plaintext [`Node`] becomes a disk page.
//!
//! This is the paper's entire design space in one trait. §2/§3 (Bayer &
//! Metzger) encipher everything; §4 disguises keys and enciphers only
//! pointers; a plaintext codec is the no-security baseline. The codec owns
//! the page layout, all cryptography, *and the in-page search procedure* —
//! because the number of decryptions a search costs (`log₂n` for
//! search-and-decrypt vs. one for substitution) depends on how the probe
//! walks the ciphertext, the probe must run against the raw page.

use sks_storage::{BlockId, OpCounters, PageOverflow, PageReader, PageWriter};

use crate::cache::CachedNode;
use crate::node::{Node, RecordPtr};

/// Errors from node encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Node does not fit the page (too many triplets for this codec).
    Overflow(PageOverflow),
    /// Page bytes are structurally invalid.
    Corrupt(String),
    /// Decryption produced data inconsistent with the block binding `b`
    /// (wrong key, moved block, or tampering).
    BindingMismatch { expected: u32, got: u32 },
    /// A key is outside the disguise's domain (e.g. `k ≥ v`).
    KeyDomain { key: u64, limit: u64 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Overflow(o) => write!(f, "node too large for page: {o}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt node page: {msg}"),
            CodecError::BindingMismatch { expected, got } => write!(
                f,
                "block binding mismatch: page claims {got}, expected {expected}"
            ),
            CodecError::KeyDomain { key, limit } => {
                write!(f, "key {key} outside disguise domain (limit {limit})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<PageOverflow> for CodecError {
    fn from(o: PageOverflow) -> Self {
        CodecError::Overflow(o)
    }
}

/// Outcome of probing a node page for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The key is present with this data pointer.
    Found { data_ptr: RecordPtr },
    /// Descend into this child.
    Descend { child: BlockId },
    /// Leaf reached and the key is absent.
    Missing,
}

/// Encodes/decodes nodes to raw pages and searches within raw pages.
pub trait NodeCodec {
    /// Serialises (and enciphers/disguises) `node` into `page`.
    fn encode(&self, node: &Node, page: &mut [u8]) -> Result<(), CodecError>;

    /// Fully materialises the plaintext node from a page, decrypting
    /// whatever the scheme requires. Update paths (insert/delete/split)
    /// use this.
    fn decode(&self, id: BlockId, page: &[u8]) -> Result<Node, CodecError>;

    /// Searches the *raw page* for `key`, decrypting as little as the
    /// scheme allows. This is where the paper's per-node decryption counts
    /// come from.
    fn probe(&self, id: BlockId, page: &[u8], key: u64) -> Result<Probe, CodecError>;

    /// Maximum number of triplets that fit a page of `page_size` bytes.
    fn max_keys(&self, page_size: usize) -> usize;

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;

    /// Decodes a page into a decoded-node pool entry *without bumping
    /// any operation counters*: pool maintenance is physical work outside
    /// the paper's cost model, which charges only the visits themselves.
    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError>;

    /// Searches a pooled plaintext node, bumping *exactly* the counters a
    /// raw-page [`NodeCodec::probe`] of the same page would bump — the
    /// logical paper cost — while skipping the cryptographic work. The
    /// returned [`Probe`] must be identical to the raw probe's.
    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError>;

    /// Materialises the plaintext node from a pooled entry, bumping
    /// *exactly* the counters a raw-page [`NodeCodec::decode`] of the same
    /// page would bump — so range scans and update-path descents served
    /// from the pool report the identical logical cost — while skipping
    /// the cryptographic work. The returned node must equal the raw
    /// decode's.
    fn decode_cached(&self, entry: &CachedNode) -> Result<Node, CodecError>;

    /// The logical half of a node write: validates `node` exactly as
    /// [`NodeCodec::encode`] into a page of `page_len` bytes would
    /// (shape, key domain, fit — same error cases), bumps *exactly* the
    /// logical counters that encode would bump, but performs no
    /// cryptography and produces no ciphertext. Returns a [`CachedNode`]
    /// equal to what decoding the would-be page yields (including any
    /// codec-specific raw-key sidecar), so reads can serve the dirty node
    /// through [`NodeCodec::probe_cached`] / [`NodeCodec::decode_cached`]
    /// and the eventual seal can reuse the sidecar.
    fn encode_to_cache(&self, node: &Node, page_len: usize) -> Result<CachedNode, CodecError>;

    /// The physical half of a node write: enciphers a pooled entry into
    /// `page` *without touching any operation counters* — the logical
    /// cost was already charged per mutation by
    /// [`NodeCodec::encode_to_cache`]; this is maintenance work below the
    /// paper's cost model. The page bytes must equal what a plain
    /// [`NodeCodec::encode`] of `entry.node` would produce.
    fn encode_from_cache(&self, entry: &CachedNode, page: &mut [u8]) -> Result<(), CodecError>;
}

/// Header layout shared by the provided codecs:
/// `[u8 tag, u8 is_leaf, u16 n, u32 block_id]` (8 bytes).
pub const NODE_HEADER_LEN: usize = 8;

/// Writes the common header. `tag` identifies the codec that produced the
/// page (decoding with the wrong codec fails fast).
pub fn write_header(w: &mut PageWriter<'_>, tag: u8, node: &Node) -> Result<(), CodecError> {
    w.put_u8(tag)?;
    w.put_u8(node.is_leaf() as u8)?;
    w.put_u16(node.n() as u16)?;
    w.put_u32(node.id.0)?;
    Ok(())
}

/// Reads and validates the common header; returns `(is_leaf, n)`.
pub fn read_header(
    r: &mut PageReader<'_>,
    tag: u8,
    id: BlockId,
) -> Result<(bool, usize), CodecError> {
    let got_tag = r.get_u8()?;
    if got_tag != tag {
        return Err(CodecError::Corrupt(format!(
            "codec tag mismatch: page has {got_tag:#x}, codec expects {tag:#x}"
        )));
    }
    let is_leaf = match r.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(CodecError::Corrupt(format!("bad leaf flag {other}"))),
    };
    let n = r.get_u16()? as usize;
    let got_id = r.get_u32()?;
    if got_id != id.0 {
        return Err(CodecError::BindingMismatch {
            expected: id.0,
            got: got_id,
        });
    }
    // The entry count is medium-controlled. No codec packs an entry into
    // less than one byte, so a count beyond the page's remaining capacity
    // is corrupt — reject it here, before any decoder sizes an allocation
    // or walks fixed-stride offsets from it.
    if n > r.remaining() {
        return Err(CodecError::Corrupt(format!(
            "entry count {n} exceeds page capacity ({} bytes)",
            r.remaining()
        )));
    }
    Ok((is_leaf, n))
}

/// The plaintext codec: no cryptography at all. This is the "no security"
/// baseline every enciphered scheme is compared against, and the codec used
/// for trees *behind* a high-level security filter (§4.3), where protection
/// happens above the DBMS.
#[derive(Debug, Clone)]
pub struct PlainCodec {
    counters: OpCounters,
}

const PLAIN_TAG: u8 = 0x00;

impl PlainCodec {
    pub fn new(counters: OpCounters) -> Self {
        PlainCodec { counters }
    }
}

impl NodeCodec for PlainCodec {
    fn encode(&self, node: &Node, page: &mut [u8]) -> Result<(), CodecError> {
        node.check_shape().map_err(CodecError::Corrupt)?;
        let mut w = PageWriter::new(page);
        write_header(&mut w, PLAIN_TAG, node)?;
        for (&k, &a) in node.keys.iter().zip(&node.data_ptrs) {
            w.put_u64(k)?;
            w.put_u64(a.0)?;
        }
        for &c in &node.children {
            w.put_u32(c.0)?;
        }
        w.pad_remaining();
        Ok(())
    }

    fn decode(&self, id: BlockId, page: &[u8]) -> Result<Node, CodecError> {
        let mut r = PageReader::new(page);
        let (is_leaf, n) = read_header(&mut r, PLAIN_TAG, id)?;
        let mut keys = Vec::with_capacity(n);
        let mut data_ptrs = Vec::with_capacity(n);
        for _ in 0..n {
            keys.push(r.get_u64()?);
            data_ptrs.push(RecordPtr(r.get_u64()?));
        }
        let mut children = Vec::new();
        if !is_leaf {
            for _ in 0..=n {
                children.push(BlockId(r.get_u32()?));
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
        // Plaintext keys: binary search directly on the page.
        let mut r = PageReader::new(page);
        let (is_leaf, n) = read_header(&mut r, PLAIN_TAG, id)?;
        let key_at = |i: usize| -> Result<u64, CodecError> {
            let mut rr = PageReader::new(page);
            rr.seek(NODE_HEADER_LEN + i * 16)?;
            Ok(rr.get_u64()?)
        };
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.counters.bump(|c| &c.key_compares);
            let k = key_at(mid)?;
            if k == key {
                let mut rr = PageReader::new(page);
                rr.seek(NODE_HEADER_LEN + mid * 16 + 8)?;
                return Ok(Probe::Found {
                    data_ptr: RecordPtr(rr.get_u64()?),
                });
            } else if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if is_leaf {
            return Ok(Probe::Missing);
        }
        let mut rr = PageReader::new(page);
        rr.seek(NODE_HEADER_LEN + n * 16 + lo * 4)?;
        Ok(Probe::Descend {
            child: BlockId(rr.get_u32()?),
        })
    }

    fn max_keys(&self, page_size: usize) -> usize {
        // header + n*(8 key + 8 data ptr) + (n+1)*4 child ptr <= page
        if page_size <= NODE_HEADER_LEN + 4 {
            return 0;
        }
        (page_size - NODE_HEADER_LEN - 4) / 20
    }

    fn name(&self) -> &'static str {
        "plaintext"
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        // Plain decoding touches no counters, so the normal path is
        // already silent.
        let page_len = page.len();
        Ok(CachedNode {
            node: self.decode(id, page)?,
            raw_keys: Vec::new(),
            page_len,
        })
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        // The same binary search as `probe`, compare for compare.
        let node = &entry.node;
        let (mut lo, mut hi) = (0usize, node.n());
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.counters.bump(|c| &c.key_compares);
            let k = node.keys[mid];
            if k == key {
                return Ok(Probe::Found {
                    data_ptr: node.data_ptrs[mid],
                });
            } else if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if node.is_leaf() {
            return Ok(Probe::Missing);
        }
        Ok(Probe::Descend {
            child: node.children[lo],
        })
    }

    fn decode_cached(&self, entry: &CachedNode) -> Result<Node, CodecError> {
        // A raw plaintext decode touches no counters either.
        Ok(entry.node.clone())
    }

    fn encode_to_cache(&self, node: &Node, page_len: usize) -> Result<CachedNode, CodecError> {
        // Plain encoding touches no counters; a scratch encode is the
        // validation (shape + fit), then the plaintext node is the entry.
        let mut scratch = vec![0u8; page_len];
        self.encode(node, &mut scratch)?;
        Ok(CachedNode {
            node: node.clone(),
            raw_keys: Vec::new(),
            page_len,
        })
    }

    fn encode_from_cache(&self, entry: &CachedNode, page: &mut [u8]) -> Result<(), CodecError> {
        // Counter-free already.
        self.encode(&entry.node, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u32) -> Node {
        Node {
            id: BlockId(id),
            keys: vec![10, 20, 30],
            data_ptrs: vec![RecordPtr(100), RecordPtr(200), RecordPtr(300)],
            children: vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(9), &page).unwrap(), node);
    }

    #[test]
    fn leaf_roundtrip() {
        let codec = PlainCodec::new(OpCounters::new());
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![5];
        leaf.data_ptrs = vec![RecordPtr(55)];
        let mut page = vec![0u8; 64];
        codec.encode(&leaf, &mut page).unwrap();
        let back = codec.decode(BlockId(3), &page).unwrap();
        assert!(back.is_leaf());
        assert_eq!(back, leaf);
    }

    #[test]
    fn binding_mismatch_detected() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert!(matches!(
            codec.decode(BlockId(10), &page),
            Err(CodecError::BindingMismatch {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn tag_mismatch_detected() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        page[0] = 0x77;
        assert!(matches!(
            codec.decode(BlockId(9), &page),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn probe_found_descend_missing() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(
            codec.probe(BlockId(9), &page, 20).unwrap(),
            Probe::Found {
                data_ptr: RecordPtr(200)
            }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 15).unwrap(),
            Probe::Descend { child: BlockId(2) }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 5).unwrap(),
            Probe::Descend { child: BlockId(1) }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 99).unwrap(),
            Probe::Descend { child: BlockId(4) }
        );

        let mut leaf = Node::leaf(BlockId(2));
        leaf.keys = vec![7];
        leaf.data_ptrs = vec![RecordPtr(70)];
        let mut lp = vec![0u8; 256];
        codec.encode(&leaf, &mut lp).unwrap();
        assert_eq!(codec.probe(BlockId(2), &lp, 8).unwrap(), Probe::Missing);
    }

    #[test]
    fn probe_counts_comparisons_not_decryptions() {
        let counters = OpCounters::new();
        let codec = PlainCodec::new(counters.clone());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        let _ = codec.probe(BlockId(9), &page, 20).unwrap();
        let s = counters.snapshot();
        assert!(s.key_compares >= 1);
        assert_eq!(s.total_decrypts(), 0);
    }

    #[test]
    fn max_keys_consistent_with_encode() {
        let codec = PlainCodec::new(OpCounters::new());
        for page_size in [64usize, 128, 256, 512, 4096] {
            let m = codec.max_keys(page_size);
            // A node with exactly m keys (internal, worst case) must fit.
            let node = Node {
                id: BlockId(1),
                keys: (0..m as u64).collect(),
                data_ptrs: (0..m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32).map(BlockId).collect(),
            };
            let mut page = vec![0u8; page_size];
            codec.encode(&node, &mut page).unwrap_or_else(|e| {
                panic!("m={m} should fit page {page_size}: {e}");
            });
            // m+1 must not fit.
            let node_big = Node {
                id: BlockId(1),
                keys: (0..=m as u64).collect(),
                data_ptrs: (0..=m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32 + 1).map(BlockId).collect(),
            };
            assert!(codec.encode(&node_big, &mut page).is_err());
        }
    }

    #[test]
    fn overflow_reported_for_tiny_page() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 32];
        assert!(matches!(
            codec.encode(&node, &mut page),
            Err(CodecError::Overflow(_))
        ));
    }
}
