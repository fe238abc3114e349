//! Property-based tests of the code algebra — the invariants the paper's
//! fault-tolerance argument rests on.

use ftbb_tree::io::{read_tree_file, write_tree_file, CodecError};
use ftbb_tree::{pick_recovery, random_basic_tree, BasicTree, Code, CodeSet, NodeId, TreeConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A small random full binary tree and a subset of its leaves.
fn tree_and_leaf_subset() -> impl Strategy<Value = (ftbb_tree::BasicTree, Vec<bool>)> {
    (2usize..60, any::<u64>()).prop_flat_map(|(pairs, seed)| {
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 2 * pairs + 1,
            mean_cost: 0.001,
            seed,
            ..Default::default()
        });
        let leaves = tree.nodes().iter().filter(|n| n.is_leaf()).count();
        (Just(tree), proptest::collection::vec(any::<bool>(), leaves))
    })
}

fn leaf_ids(tree: &ftbb_tree::BasicTree) -> Vec<NodeId> {
    (0..tree.len() as NodeId)
        .filter(|&i| tree.node(i).is_leaf())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inserting leaf completions in any order yields the same table.
    #[test]
    fn insertion_order_is_irrelevant((tree, picks) in tree_and_leaf_subset(), shuffle_seed in any::<u64>()) {
        let leaves = leaf_ids(&tree);
        let chosen: Vec<Code> = leaves
            .iter()
            .zip(&picks)
            .filter(|(_, &p)| p)
            .map(|(&id, _)| tree.code_of(id))
            .collect();

        let mut forward = CodeSet::new();
        forward.merge(chosen.iter());

        let mut shuffled = chosen.clone();
        use rand::seq::SliceRandom;
        shuffled.shuffle(&mut SmallRng::seed_from_u64(shuffle_seed));
        let mut backward = CodeSet::new();
        backward.merge(shuffled.iter());

        prop_assert_eq!(forward, backward);
    }

    /// Merging is idempotent: re-inserting everything changes nothing.
    #[test]
    fn merge_is_idempotent((tree, picks) in tree_and_leaf_subset()) {
        let leaves = leaf_ids(&tree);
        let chosen: Vec<Code> = leaves
            .iter()
            .zip(&picks)
            .filter(|(_, &p)| p)
            .map(|(&id, _)| tree.code_of(id))
            .collect();
        let mut set = CodeSet::new();
        set.merge(chosen.iter());
        let snapshot = set.minimal_codes();
        let outcome = set.merge(chosen.iter());
        prop_assert_eq!(outcome.inserted, 0);
        prop_assert_eq!(set.minimal_codes(), snapshot);
    }

    /// `contains(leaf)` is exactly leaf membership in the inserted set —
    /// contraction neither loses nor invents completions.
    #[test]
    fn contains_tracks_leaf_membership((tree, picks) in tree_and_leaf_subset()) {
        let leaves = leaf_ids(&tree);
        let mut set = CodeSet::new();
        for (&id, &p) in leaves.iter().zip(&picks) {
            if p {
                set.insert(&tree.code_of(id));
            }
        }
        for (&id, &p) in leaves.iter().zip(&picks) {
            prop_assert_eq!(set.contains(&tree.code_of(id)), p, "leaf {}", id);
        }
    }

    /// Root contracts exactly when every leaf is complete (termination
    /// detection is sound and complete, §5.4).
    #[test]
    fn root_done_iff_all_leaves((tree, picks) in tree_and_leaf_subset()) {
        let leaves = leaf_ids(&tree);
        let mut set = CodeSet::new();
        for (&id, &p) in leaves.iter().zip(&picks) {
            if p {
                set.insert(&tree.code_of(id));
            }
        }
        let all = picks.iter().take(leaves.len()).all(|&p| p);
        prop_assert_eq!(set.is_root_done(), all);
    }

    /// The complement is disjoint from the table and, together with it,
    /// covers the whole tree: completing every complement code closes the
    /// root (recovery always suffices, §5.3.2).
    #[test]
    fn complement_is_exact((tree, picks) in tree_and_leaf_subset()) {
        let leaves = leaf_ids(&tree);
        let mut set = CodeSet::new();
        for (&id, &p) in leaves.iter().zip(&picks) {
            if p {
                set.insert(&tree.code_of(id));
            }
        }
        let complement = set.complement();
        for code in &complement {
            prop_assert!(!set.contains(code), "complement overlaps table");
        }
        for code in &complement {
            set.insert(code);
        }
        prop_assert!(set.is_root_done());
    }

    /// Splitting a batch arbitrarily and merging the compressed halves
    /// equals merging the raw batch (reports may be compressed, split, and
    /// routed arbitrarily without information loss).
    #[test]
    fn compression_distributes_over_merge((tree, picks) in tree_and_leaf_subset(), split in any::<u64>()) {
        let leaves = leaf_ids(&tree);
        let chosen: Vec<Code> = leaves
            .iter()
            .zip(&picks)
            .filter(|(_, &p)| p)
            .map(|(&id, _)| tree.code_of(id))
            .collect();

        let mut raw = CodeSet::new();
        raw.merge(chosen.iter());

        let pivot = if chosen.is_empty() { 0 } else { (split as usize) % (chosen.len() + 1) };
        let (a, b) = chosen.split_at(pivot);
        let mut via_reports = CodeSet::new();
        via_reports.merge(CodeSet::from(a.to_vec()).minimal_codes().iter());
        via_reports.merge(CodeSet::from(b.to_vec()).minimal_codes().iter());

        prop_assert_eq!(raw, via_reports);
    }

    /// Recovery picks terminate: repeatedly completing a recovery pick
    /// closes the root in finitely many steps, for every rng seed.
    #[test]
    fn recovery_converges((tree, picks) in tree_and_leaf_subset(), seed in any::<u64>()) {
        let leaves = leaf_ids(&tree);
        let mut set = CodeSet::new();
        for (&id, &p) in leaves.iter().zip(&picks) {
            if p {
                set.insert(&tree.code_of(id));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut steps = 0usize;
        while let Some(code) = pick_recovery(&set, &mut rng) {
            set.insert(&code);
            steps += 1;
            prop_assert!(steps <= tree.len(), "recovery did not converge");
        }
        prop_assert!(set.is_root_done());
    }

    /// A code list round-trips through the one binary format.
    #[test]
    fn codes_roundtrip_binary((tree, _picks) in tree_and_leaf_subset()) {
        let codes: Vec<Code> = (0..tree.len() as NodeId).map(|i| tree.code_of(i)).collect();
        let back: Vec<Code> = serde::decode(&serde::encode(&codes)).unwrap();
        prop_assert_eq!(codes, back);
    }

    /// Basic trees round-trip through a tree file.
    #[test]
    fn trees_roundtrip_binary(pairs in 2usize..40, seed in any::<u64>()) {
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 2 * pairs + 1,
            seed,
            ..Default::default()
        });
        let file = TreeFile::new("roundtrip");
        write_tree_file(&tree, &file.0).unwrap();
        prop_assert_eq!(tree, read_tree_file(&file.0).unwrap());
    }
}

/// A code's length prefix is untrusted: `u32::MAX` followed by one
/// 3-byte pair is a decode error, not a panic or a 16 GiB reservation.
#[test]
fn code_with_a_huge_length_prefix_is_refused() {
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[1, 0, 1]);
    assert!(serde::decode::<Code>(&bytes).is_err());
}

/// A scratch tree file, unique to one test of this process, removed on drop.
struct TreeFile(std::path::PathBuf);

impl TreeFile {
    fn new(test: &str) -> TreeFile {
        let name = format!("ftbb-tree-props-{}-{test}.ftbb", std::process::id());
        TreeFile(std::env::temp_dir().join(name))
    }

    /// `read_tree_file` over `bytes`.
    fn read(&self, bytes: &[u8]) -> Result<BasicTree, CodecError> {
        std::fs::write(&self.0, bytes).unwrap();
        read_tree_file(&self.0)
    }
}

impl Drop for TreeFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

proptest! {
    // Every case reads the file once per byte of it, twice over.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No tree file can panic its reader: every prefix and every
    /// single-byte mutation of a good file is refused or reads back as a
    /// tree that passes `validate`. (An attacker's length field cannot
    /// size an allocation either — the serde decoder clamps a `Vec`'s
    /// capacity to the bytes that remain, and each of these files is a
    /// few hundred bytes.)
    #[test]
    fn damaged_tree_files_are_refused_or_valid(
        pairs in 2usize..12,
        seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 2 * pairs + 1,
            seed,
            ..Default::default()
        });
        let file = TreeFile::new("damaged");
        write_tree_file(&tree, &file.0).unwrap();
        let good = std::fs::read(&file.0).unwrap();

        for cut in 0..good.len() {
            prop_assert!(file.read(&good[..cut]).is_err(), "prefix of {} bytes accepted", cut);
        }
        let mut bytes = good.clone();
        for at in 0..good.len() {
            bytes[at] ^= flip;
            if let Ok(read) = file.read(&bytes) {
                prop_assert!(read.validate().is_ok(), "byte {} ^ {:#x}", at, flip);
            }
            bytes[at] = good[at];
        }
    }
}

/// A well-formed file whose tree breaks the bounding invariant — a child
/// bounded below its parent — is refused, not replayed.
#[test]
fn tree_file_with_child_bound_below_parent_is_refused() {
    let tree = ftbb_tree::basic_tree::fig1_example();
    let file = TreeFile::new("bound");
    write_tree_file(&tree, &file.0).unwrap();
    let good = std::fs::read(&file.0).unwrap();

    // Node 3's bound (3.0, under a parent bounded 1.0) is the only
    // f64 3.0 in the file; rewrite it to -5.0, the same width.
    let three = 3.0f64.to_le_bytes();
    let at = good
        .windows(8)
        .position(|w| w == three)
        .expect("node 3's bound is in the file");
    let mut bytes = good.clone();
    bytes[at..at + 8].copy_from_slice(&(-5.0f64).to_le_bytes());
    let err = file.read(&bytes).unwrap_err().to_string();
    assert!(err.contains("below parent bound"), "{err}");
}

/// A file of the previous format version is refused by number, not
/// misread as the current layout.
#[test]
fn previous_version_tree_file_is_refused_by_number() {
    let file = TreeFile::new("v1");
    write_tree_file(&ftbb_tree::basic_tree::fig1_example(), &file.0).unwrap();
    let mut bytes = std::fs::read(&file.0).unwrap();
    // The header is the magic (4 bytes), then the format version.
    assert_eq!(bytes[4..6], 2u16.to_le_bytes());
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    let err = file.read(&bytes).unwrap_err().to_string();
    assert!(err.contains("unsupported version 1"), "{err}");
}
