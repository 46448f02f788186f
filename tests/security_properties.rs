//! Security-facing integration tests: what leaks, what doesn't, and what
//! the attack tooling concludes — §4.1, §5 and §6 claims end to end.

use sks_btree::attack::{AttackReport, DiskImage, Edge, FormatKnowledge, GroundTruth};
use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};

fn build(scheme: Scheme, n: u64, block_size: usize) -> EncipheredBTree {
    let mut cfg = SchemeConfig::with_capacity(scheme, n + 2);
    cfg.block_size = block_size;
    let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
    let start = matches!(scheme, Scheme::Exponentiation) as u64;
    for k in start..start + n {
        tree.insert(k, format!("secret-{k}").into_bytes()).unwrap();
    }
    // Attacks read the at-rest image: seal every pooled node first.
    tree.flush().unwrap();
    tree
}

fn truth_of(tree: &EncipheredBTree) -> GroundTruth {
    let mut edges = Vec::new();
    let mut keys = Vec::new();
    let mut stack = vec![tree.tree().root_id()];
    while let Some(id) = stack.pop() {
        let node = tree.tree().inspect_node(id).unwrap();
        keys.extend_from_slice(&node.keys);
        for &c in &node.children {
            edges.push(Edge {
                parent: id.as_u32(),
                child: c.as_u32(),
            });
            stack.push(c);
        }
    }
    let key_pairs = tree
        .disguise()
        .map(|d| {
            keys.iter()
                .filter_map(|&k| d.disguise(k).ok().map(|dk| (k, dk)))
                .collect()
        })
        .unwrap_or_default();
    GroundTruth { edges, key_pairs }
}

/// No plaintext key bytes appear in node images under any enciphered scheme
/// (keys are disguised or sealed), and no record plaintext ever appears in
/// either image.
#[test]
fn raw_images_never_contain_plaintext() {
    for scheme in [
        Scheme::Oval,
        Scheme::SumOfTreatments,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
    ] {
        let tree = build(scheme, 200, 512);
        let needle = b"secret-";
        for image in [
            tree.raw_node_image().expect("raw image"),
            tree.raw_data_image().expect("raw image"),
        ] {
            let hit = image
                .iter()
                .any(|b| b.windows(needle.len()).any(|w| w == needle));
            assert!(!hit, "{}: record plaintext leaked", scheme.name());
        }
    }
}

/// The §4.1 headline: the opponent cannot recreate the tree shape under the
/// oval substitution, but can under plaintext.
#[test]
fn shape_recovery_separation() {
    let plain = build(Scheme::Plaintext, 250, 512);
    let oval = build(Scheme::Oval, 250, 512);
    let report = |tree: &EncipheredBTree, name: &str| {
        let truth = truth_of(tree);
        let image = DiskImage::new(tree.block_size(), tree.raw_node_image().expect("raw image"));
        AttackReport::run(name, &image, &FormatKnowledge::default(), &truth)
    };
    let rp = report(&plain, "plaintext");
    let ro = report(&oval, "oval");
    assert!(
        rp.shape.recall > 0.8,
        "plaintext recall {}",
        rp.shape.recall
    );
    assert!(ro.shape.recall < 0.2, "oval recall {}", ro.shape.recall);
}

/// §2's page-key property carried through: identical logical content in
/// different blocks yields different cryptograms, so the image contains no
/// repeated 16-byte cryptogram chunks to frequency-analyse.
#[test]
fn no_repeated_cryptograms_across_blocks() {
    for scheme in [Scheme::BayerMetzger, Scheme::BayerMetzgerPage, Scheme::Oval] {
        let tree = build(scheme, 400, 512);
        let image = DiskImage::new(512, tree.raw_node_image().expect("raw image"));
        let (distinct, _) = sks_btree::attack::repeated_chunks(&image, 16);
        // The paper's point is that the *sealed* material never repeats. A
        // handful of collisions can occur in plaintext header areas for the
        // substitution scheme; sealed content must not repeat at scale.
        assert!(
            distinct < 5,
            "{}: {distinct} repeated cryptogram chunks",
            scheme.name()
        );
    }
}

/// Moving a node block to a different disk position is detected on read —
/// the `b` bound inside every pointer cryptogram (§3's format).
#[test]
fn block_relocation_detected() {
    use sks_btree::btree::NodeCodec;
    use sks_btree::storage::OpCounters;

    let counters = OpCounters::new();
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 100);
    let (codec, _) = cfg.build_codec(&counters).unwrap();
    let node = sks_btree::btree::Node {
        id: sks_btree::storage::BlockId(5),
        keys: vec![1, 2, 3],
        data_ptrs: vec![
            sks_btree::btree::RecordPtr(10),
            sks_btree::btree::RecordPtr(20),
            sks_btree::btree::RecordPtr(30),
        ],
        children: vec![],
    };
    let mut page = vec![0u8; cfg.block_size];
    codec.encode(&node, &mut page).unwrap();
    // An adversary copies the page to block 9 and fixes up the visible
    // header; the sealed binding still snitches.
    page[4..8].copy_from_slice(&9u32.to_be_bytes());
    let err = codec
        .decode(sks_btree::storage::BlockId(9), &page)
        .unwrap_err();
    assert!(matches!(
        err,
        sks_btree::btree::CodecError::BindingMismatch { .. }
    ));
}

/// Order leakage is a deliberate dial: τ ≈ 0 (oval) vs τ = 1 (sum).
#[test]
fn order_leakage_dial() {
    let oval = build(Scheme::Oval, 300, 512);
    let sum = build(Scheme::SumOfTreatments, 300, 512);
    let tau =
        |tree: &EncipheredBTree| sks_btree::attack::kendall_tau(&truth_of(tree).key_pairs).unwrap();
    assert!(tau(&oval).abs() < 0.2, "oval tau {}", tau(&oval));
    assert!((tau(&sum) - 1.0).abs() < 1e-9, "sum tau {}", tau(&sum));
}

/// The multilevel hierarchy of §5: a level-3 clearance can open level-3
/// data but not level-1 data.
#[test]
fn multilevel_key_hierarchy_integration() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sks_btree::crypto::modes::{cbc_decrypt, cbc_encrypt};
    use sks_btree::crypto::{Des, KeyHierarchy};

    let mut rng = StdRng::seed_from_u64(77);
    let hierarchy = KeyHierarchy::generate(&mut rng, 128, 4);

    // Authority encrypts one record per level.
    let records: Vec<(u32, Vec<u8>)> = (1..=4u32)
        .map(|level| {
            let key = hierarchy.clearance(level).unwrap().cipher_key64();
            let ct = cbc_encrypt(
                &Des::new(key),
                level as u64,
                format!("level-{level} dossier").as_bytes(),
            );
            (level, ct)
        })
        .collect();

    // A user cleared at level 3 derives keys for levels 3 and 4 only.
    let user = hierarchy.clearance(3).unwrap();
    for (level, ct) in &records {
        let derived = user.derive(*level);
        match level {
            3 | 4 => {
                let key = derived.unwrap().cipher_key64();
                let pt = cbc_decrypt(&Des::new(key), *level as u64, ct).unwrap();
                assert_eq!(pt, format!("level-{level} dossier").into_bytes());
            }
            _ => assert!(derived.is_err(), "level {level} must be out of reach"),
        }
    }
}
