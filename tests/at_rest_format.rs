//! Pins the at-rest node format byte for byte. Each fixed tree is built,
//! churned and flushed, and its raw node image is hashed (FNV-1a). The
//! schemes cover every way DES reaches the medium: the paper's pointer
//! seal (Oval over the DES sealer, one key schedule per tree) and the two
//! Bayer–Metzger codecs, which build a fresh DES key schedule per page.
//! A change to the cipher's implementation that is not bit-exact moves
//! these hashes; a deliberate format change must update them.

use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};

const N_KEYS: u64 = 400;

/// FNV-1a over every block of the image, each prefixed by its length so
/// that block boundaries count.
fn fnv1a(image: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for block in image {
        for b in (block.len() as u32).to_be_bytes() {
            eat(b);
        }
        for &b in block {
            eat(b);
        }
    }
    h
}

fn flushed_node_image_hash(scheme: Scheme) -> (usize, u64) {
    let mut cfg = SchemeConfig::with_capacity(scheme, N_KEYS + 2);
    cfg.block_size = 512;
    let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
    for k in 0..N_KEYS {
        let key = (k * 7919) % N_KEYS;
        tree.insert(key, format!("record-{key}").into_bytes())
            .unwrap();
    }
    for key in (0..N_KEYS).step_by(5) {
        tree.delete(key).unwrap();
    }
    tree.flush().unwrap();
    let image = tree.raw_node_image().unwrap();
    (image.len(), fnv1a(&image))
}

#[test]
fn flushed_node_images_match_golden_hashes() {
    let golden: [(Scheme, usize, u64); 3] = [
        (Scheme::Oval, 33, 0xade7_014d_bffc_cb9c),
        (Scheme::BayerMetzger, 33, 0x6315_4290_ee18_ade5),
        (Scheme::BayerMetzgerPage, 24, 0x6b5d_af5e_c16d_7e8f),
    ];
    let got: Vec<_> = golden
        .iter()
        .map(|&(scheme, _, _)| {
            let (blocks, hash) = flushed_node_image_hash(scheme);
            (scheme, blocks, hash)
        })
        .collect();
    assert_eq!(
        got, golden,
        "sealed node images moved: (scheme, blocks, FNV-1a)"
    );
}
