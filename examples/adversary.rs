//! The opponent of §4.1/§6: steal the disk, try to rebuild the B-tree.
//!
//! Builds the same database under four schemes, hands the raw node-block
//! image to the attack tooling, and prints how much of the true tree shape
//! each scheme leaks.
//!
//! ```sh
//! cargo run --release --example adversary
//! ```

use sks_btree::attack::{AttackReport, DiskImage, Edge, FormatKnowledge, GroundTruth};
use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};

fn build(scheme: Scheme, n: u64) -> EncipheredBTree {
    let mut cfg = SchemeConfig::with_capacity(scheme, n + 2);
    cfg.block_size = 512;
    let mut tree = EncipheredBTree::create_in_memory(cfg).expect("stack");
    let start = match scheme {
        Scheme::Exponentiation | Scheme::ExponentiationPaper => 1,
        _ => 0,
    };
    for k in start..start + n {
        tree.insert(k, format!("patient-{k};diagnosis=redacted").into_bytes())
            .expect("insert");
    }
    // The opponent steals the at-rest image: seal every pooled node.
    tree.flush().expect("flush");
    tree
}

fn truth_of(tree: &EncipheredBTree) -> GroundTruth {
    let mut edges = Vec::new();
    let mut keys = Vec::new();
    let mut stack = vec![tree.tree().root_id()];
    while let Some(id) = stack.pop() {
        let node = tree.tree().inspect_node(id).expect("inspect");
        keys.extend_from_slice(&node.keys);
        for &c in &node.children {
            edges.push(Edge {
                parent: id.as_u32(),
                child: c.as_u32(),
            });
            stack.push(c);
        }
    }
    let key_pairs = match tree.disguise() {
        Some(d) => keys
            .iter()
            .filter_map(|&k| d.disguise(k).ok().map(|dk| (k, dk)))
            .collect(),
        None => vec![],
    };
    GroundTruth { edges, key_pairs }
}

fn main() {
    let n = 300u64;
    println!("adversary: stolen disk image, {n} records per scheme\n");
    println!("{}", AttackReport::header());
    for scheme in [
        Scheme::Plaintext,
        Scheme::SumOfTreatments,
        Scheme::Oval,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
    ] {
        let tree = build(scheme, n);
        let truth = truth_of(&tree);
        let image = DiskImage::new(tree.block_size(), tree.raw_node_image().expect("raw image"));
        let report = AttackReport::run(scheme.name(), &image, &FormatKnowledge::default(), &truth);
        println!("{}", report.row());
    }
    println!(
        "\nreading the table: 'recall' is the fraction of true parent→child edges the\n\
         attacker recovered. Plaintext and the (deliberately) order-preserving sum\n\
         scheme give the shape away; the oval substitution and both Bayer–Metzger\n\
         baselines do not. |tau| is rank correlation between real and visible keys —\n\
         the §4.3 trade-off in one number."
    );
}
