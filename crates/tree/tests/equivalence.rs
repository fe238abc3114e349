//! Equivalence tests for the flattened hot-path representations.
//!
//! The packed-word `Code` and the arena-backed `CodeSet` are required to
//! be *observably identical* to the representations they replaced: a
//! `Vec<Pair>` with derived traits, and a boxed-pointer trie. Both models
//! are reimplemented here, independently of the library, and driven with
//! the same random inputs.

use ftbb_tree::{random_basic_tree, Code, CodeSet, NodeId, Pair, TreeConfig, Var};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// Part 1: packed `Code` vs the old `Vec<Pair>` representation.
//
// The old `Code` was `struct Code { pairs: Vec<Pair> }` with derived
// `PartialEq/Eq/Ord/Hash` and the shim-derived serde impl (which encodes a
// struct as its fields, i.e. exactly the `Vec<Pair>` encoding). So the
// reference for every trait is the bare `Vec<Pair>`.
// ---------------------------------------------------------------------------

/// Decision sequences of lengths 0..=20.
fn pairs_strategy() -> impl Strategy<Value = Vec<Pair>> {
    proptest::collection::vec(
        (any::<Var>(), any::<bool>()).prop_map(|(var, bit)| Pair { var, bit }),
        0..21,
    )
}

fn code_of(pairs: &[Pair]) -> Code {
    pairs.iter().copied().collect()
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Code` iterates back exactly the pairs it was built from, and its
    /// clone is an independent equal copy.
    #[test]
    fn code_round_trips_pairs(model in pairs_strategy()) {
        let code = code_of(&model);
        prop_assert_eq!(code.depth(), model.len());
        let back: Vec<Pair> = code.pairs().collect();
        prop_assert_eq!(&back, &model);
        let cloned = code.clone();
        prop_assert_eq!(&cloned, &code);
        let back2: Vec<Pair> = cloned.pairs().collect();
        prop_assert_eq!(back2, model);
    }

    /// Total order matches the derived `Vec<Pair>` lexicographic order.
    #[test]
    fn code_ord_matches_vec_model(a in pairs_strategy(), b in pairs_strategy()) {
        let (ca, cb) = (code_of(&a), code_of(&b));
        prop_assert_eq!(ca.cmp(&cb), a.cmp(&b));
        prop_assert_eq!(ca == cb, a == b);
        prop_assert_eq!(ca.partial_cmp(&cb), a.partial_cmp(&b));
    }

    /// Hash matches the derived `Vec<Pair>` hash bit-for-bit (so any map
    /// keyed by codes before the change hashes identically after it).
    #[test]
    fn code_hash_matches_vec_model(model in pairs_strategy()) {
        prop_assert_eq!(hash_of(&code_of(&model)), hash_of(&model));
    }

    /// Wire encoding is byte-identical to the old `Vec<Pair>`-backed
    /// struct (u32 length + per-pair u16 var, u8 bit), and decodes back.
    #[test]
    fn code_serde_matches_vec_model(model in pairs_strategy()) {
        let code = code_of(&model);
        let mut code_bytes = Vec::new();
        code.ser(&mut code_bytes);
        let mut model_bytes = Vec::new();
        model.ser(&mut model_bytes);
        prop_assert_eq!(&code_bytes, &model_bytes);
        prop_assert_eq!(code_bytes.len(), 4 + 3 * model.len());

        let mut r = &code_bytes[..];
        let back = Code::de(&mut r).expect("own bytes decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(back, code);
    }

    /// A code *list* (a checkpoint's table, a report's payload) round-trips
    /// codes of every depth, with the full 16-bit variable range.
    #[test]
    fn code_io_round_trips_across_boundary(model in pairs_strategy()) {
        let codes: Vec<Code> = (0..=model.len())
            .map(|d| code_of(&model[..d]))
            .collect();
        let back: Vec<Code> = serde::decode(&serde::encode(&codes)).unwrap();
        prop_assert_eq!(back, codes);
    }

    /// Lineage algebra (child/parent/sibling) agrees with the model.
    #[test]
    fn code_lineage_matches_vec_model(model in pairs_strategy(), var in any::<Var>(), bit in any::<bool>()) {
        let code = code_of(&model);
        // child = push
        let mut child_model = model.clone();
        child_model.push(Pair { var, bit });
        let child = code.child(var, bit);
        prop_assert_eq!(&child, &code_of(&child_model));
        // parent = pop
        prop_assert_eq!(child.parent(), Some(code.clone()));
        prop_assert_eq!(code_of(&[]).parent(), None);
        // sibling = flip last bit
        let sib = child.sibling().expect("non-root has a sibling");
        let mut sib_model = child_model.clone();
        sib_model.last_mut().unwrap().bit = !bit;
        prop_assert_eq!(&sib, &code_of(&sib_model));
        prop_assert!(sib.is_sibling_of(&child));
        prop_assert!(!sib.is_sibling_of(&sib));
    }
}

// ---------------------------------------------------------------------------
// Part 2: arena `CodeSet` vs a boxed-pointer trie model.
//
// The model is the pre-arena design: one heap node per trie position,
// recursive insert with eager sibling contraction and ancestor
// subsumption. Both structures consume identical insert sequences; all
// observable outputs must agree, including per-insert outcome counts.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BoxNode {
    var: Option<Var>,
    done: bool,
    kids: [Option<Box<BoxNode>>; 2],
}

impl BoxNode {
    /// Returns (inserted, already_known, contractions), mirroring
    /// `MergeOutcome` for a single code.
    fn insert(&mut self, pairs: &[Pair]) -> (usize, usize, usize) {
        if self.done {
            return (0, 1, 0);
        }
        match pairs.split_first() {
            None => {
                self.done = true;
                self.var = None;
                self.kids = [None, None];
                (1, 0, 0)
            }
            Some((p, rest)) => {
                self.var = Some(p.var);
                let kid = self.kids[p.bit as usize].get_or_insert_with(Default::default);
                let (ins, known, mut contr) = kid.insert(rest);
                if ins == 1 && self.kids.iter().all(|k| k.as_ref().is_some_and(|k| k.done)) {
                    self.done = true;
                    self.var = None;
                    self.kids = [None, None];
                    contr += 1;
                }
                (ins, known, contr)
            }
        }
    }

    fn contains(&self, pairs: &[Pair]) -> bool {
        if self.done {
            return true;
        }
        match pairs.split_first() {
            None => false,
            Some((p, rest)) => match &self.kids[p.bit as usize] {
                Some(k) => k.contains(rest),
                None => false,
            },
        }
    }

    fn minimal_codes(&self, path: &mut Vec<Pair>, out: &mut Vec<Code>) {
        if self.done {
            out.push(path.iter().copied().collect());
            return;
        }
        let Some(var) = self.var else { return };
        for bit in [false, true] {
            if let Some(kid) = &self.kids[bit as usize] {
                path.push(Pair { var, bit });
                kid.minimal_codes(path, out);
                path.pop();
            }
        }
    }

    fn complement(&self, path: &mut Vec<Pair>, out: &mut Vec<Code>) {
        debug_assert!(!self.done);
        let var = self.var.expect("non-done interior node has a var");
        for bit in [false, true] {
            match &self.kids[bit as usize] {
                None => {
                    path.push(Pair { var, bit });
                    out.push(path.iter().copied().collect());
                    path.pop();
                }
                Some(kid) if !kid.done => {
                    path.push(Pair { var, bit });
                    kid.complement(path, out);
                    path.pop();
                }
                Some(_) => {}
            }
        }
    }
}

/// The boxed-trie reference table.
#[derive(Default)]
struct BoxedTrie {
    root: BoxNode,
}

impl BoxedTrie {
    fn insert(&mut self, code: &Code) -> (usize, usize, usize) {
        let pairs: Vec<Pair> = code.pairs().collect();
        self.root.insert(&pairs)
    }

    fn contains(&self, code: &Code) -> bool {
        let pairs: Vec<Pair> = code.pairs().collect();
        self.root.contains(&pairs)
    }

    fn minimal_codes(&self) -> Vec<Code> {
        let mut out = Vec::new();
        self.root.minimal_codes(&mut Vec::new(), &mut out);
        out
    }

    fn complement(&self) -> Vec<Code> {
        if self.root.done {
            return Vec::new();
        }
        if self.root.var.is_none() {
            return vec![Code::root()];
        }
        let mut out = Vec::new();
        self.root.complement(&mut Vec::new(), &mut out);
        out
    }

    fn is_root_done(&self) -> bool {
        self.root.done
    }
}

/// A random tree plus a random sequence of its node codes (interior and
/// leaf, duplicates allowed) — an adversarial insert stream.
fn tree_and_insert_stream() -> impl Strategy<Value = (ftbb_tree::BasicTree, Vec<NodeId>)> {
    (2usize..60, any::<u64>()).prop_flat_map(|(pairs, seed)| {
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 2 * pairs + 1,
            mean_cost: 0.001,
            seed,
            ..Default::default()
        });
        let n = tree.len() as NodeId;
        (Just(tree), proptest::collection::vec(0..n, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arena table and boxed-trie model agree on every observable after
    /// every insert: outcome counts, containment for every tree node,
    /// minimal codes, complement, and root-done.
    #[test]
    fn arena_matches_boxed_trie((tree, stream) in tree_and_insert_stream()) {
        let mut arena = CodeSet::new();
        let mut model = BoxedTrie::default();
        for &id in &stream {
            let code = tree.code_of(id);
            let out = arena.insert(&code);
            let (ins, known, contr) = model.insert(&code);
            prop_assert_eq!(out.inserted, ins);
            prop_assert_eq!(out.already_known, known);
            prop_assert_eq!(out.contractions, contr);
        }
        prop_assert_eq!(arena.is_root_done(), model.is_root_done());
        prop_assert_eq!(arena.minimal_codes(), model.minimal_codes());
        prop_assert_eq!(arena.complement(), model.complement());
        for id in 0..tree.len() as NodeId {
            let code = tree.code_of(id);
            prop_assert_eq!(
                arena.contains(&code),
                model.contains(&code),
                "containment diverges at node {}", id
            );
        }
    }

    /// Slot recycling never corrupts the table: interleaving subsuming
    /// inserts (which free whole subtrees back to the arena's free list)
    /// with fresh growth still matches the model, and the live node count
    /// stays exact.
    #[test]
    fn arena_reuse_matches_model((tree, stream) in tree_and_insert_stream()) {
        let mut arena = CodeSet::new();
        let mut model = BoxedTrie::default();
        for (i, &id) in stream.iter().enumerate() {
            // Every third insert, also complete the node's parent — the
            // subsumption path that frees arena slots.
            let code = tree.code_of(id);
            arena.insert(&code);
            model.insert(&code);
            if i % 3 == 2 {
                if let Some(parent) = code.parent() {
                    arena.insert(&parent);
                    model.insert(&parent);
                }
            }
            prop_assert_eq!(arena.minimal_codes(), model.minimal_codes());
        }
        // node_count is exactly the trie's live size: recount via a walk
        // of the minimal codes' union trie (rebuild from scratch).
        let rebuilt = CodeSet::from(arena.minimal_codes());
        prop_assert_eq!(arena.node_count(), rebuilt.node_count());
    }
}
