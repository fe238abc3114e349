//! The paper's problem encoding (§5.3.1).
//!
//! A subproblem is uniquely identified by its position in the B&B tree,
//! written as a sequence of pairs `⟨xᵢ, value⟩`: `xᵢ` is the condition
//! (branching) variable and `value ∈ {0, 1}` selects the left or right
//! branch. Variables are part of the code because different subtrees may
//! branch on different variables in different orders. Together with the
//! root instance data, a code is *self-contained*: it suffices to
//! reconstruct and re-solve the subproblem on any processor.
//!
//! ## Representation
//!
//! A code is one `Vec<u32>` of packed `var << 1 | bit` words, root
//! first. `var` occupies the high bits, so a word's order is the
//! `(var, bit)` order and the derived equality and ordering on the words
//! are exactly those of the logical pair sequence; `Hash` and the serde
//! encoding are written over the pairs and are byte-identical to the
//! earlier `Vec<Pair>` representation (pinned by equivalence proptests).
//! Every child code costs one exact-capacity allocation.
//!
//! An earlier layout kept up to 12 decisions in a 32-byte inline arm to
//! make cloning shallow codes free. It doubled every operation and won
//! only a code-clone microbench: end-to-end solve time did not move, a
//! deployed node builds codes only at work-unit boundaries, and the
//! benchmark's instances branch deeper than the cap anyway. It is gone.

use serde::{DecodeError, Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A condition (branching) variable identifier.
pub type Var = u16;

/// One decision `⟨var, bit⟩` on the path from the root.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pair {
    /// The condition variable branched upon.
    pub var: Var,
    /// `false` = left branch (0), `true` = right branch (1).
    pub bit: bool,
}

impl Pair {
    /// Pack into the in-memory word. `var` occupies the high bits so the
    /// packed `u32` order equals the `(var, bit)` lexicographic order.
    #[inline]
    fn pack(self) -> u32 {
        ((self.var as u32) << 1) | self.bit as u32
    }

    /// Unpack from the in-memory word.
    #[inline]
    fn unpack(word: u32) -> Pair {
        Pair {
            var: (word >> 1) as Var,
            bit: word & 1 == 1,
        }
    }
}

impl fmt::Debug for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<x{},{}>", self.var, self.bit as u8)
    }
}

/// A subproblem code: the path of decisions from the root. The root problem
/// has the empty code `()`.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Code {
    /// Packed `var << 1 | bit` words, root-first.
    words: Vec<u32>,
}

impl Code {
    /// The root problem's code, `()`.
    pub fn root() -> Self {
        Code { words: Vec::new() }
    }

    /// Build a code from decision pairs.
    pub fn from_pairs(pairs: Vec<Pair>) -> Self {
        pairs.into_iter().collect()
    }

    /// Convenience constructor from `(var, bit)` tuples.
    pub fn from_decisions(decisions: &[(Var, bool)]) -> Self {
        decisions
            .iter()
            .map(|&(var, bit)| Pair { var, bit })
            .collect()
    }

    /// The decision pairs, root-first.
    #[inline]
    pub fn pairs(&self) -> Pairs<'_> {
        Pairs(self.words.iter())
    }

    /// Is this the root code?
    #[inline]
    pub fn is_root(&self) -> bool {
        self.words.is_empty()
    }

    /// Depth in the tree (number of decisions).
    #[inline]
    pub fn depth(&self) -> usize {
        self.words.len()
    }

    /// The code of the child obtained by branching on `var` with `bit`:
    /// one exact-capacity allocation (cloning, then pushing, would
    /// allocate twice).
    pub fn child(&self, var: Var, bit: bool) -> Code {
        let mut words = Vec::with_capacity(self.words.len() + 1);
        words.extend_from_slice(&self.words);
        words.push(Pair { var, bit }.pack());
        Code { words }
    }

    /// The parent's code, or `None` for the root.
    pub fn parent(&self) -> Option<Code> {
        let (_, prefix) = self.words.split_last()?;
        Some(Code {
            words: prefix.to_vec(),
        })
    }

    /// The sibling's code (same parent, opposite final branch), or `None`
    /// for the root.
    pub fn sibling(&self) -> Option<Code> {
        let mut code = self.clone();
        *code.words.last_mut()? ^= 1;
        Some(code)
    }

    /// The final decision pair, or `None` for the root.
    pub fn last(&self) -> Option<Pair> {
        self.words.last().copied().map(Pair::unpack)
    }

    /// Is `self` an ancestor of or equal to `other`?
    pub fn is_prefix_of(&self, other: &Code) -> bool {
        other.words.starts_with(&self.words)
    }

    /// Are `self` and `other` siblings (same parent, opposite branch)?
    pub fn is_sibling_of(&self, other: &Code) -> bool {
        // Same parent path, and final words that differ only in the
        // branch bit (same variable).
        match (self.words.split_last(), other.words.split_last()) {
            (Some((a, pa)), Some((b, pb))) => a ^ b == 1 && pa == pb,
            _ => false,
        }
    }

    /// The simulator's *modelled* message size of this code, in bytes —
    /// the paper's packed pair: a 15-bit variable id and the branch bit in
    /// a `u16`, plus a 2-byte length header. This is the quantity the
    /// work-report compression of §5.3.2 reduces and every byte column of
    /// `PAPER_RESULTS.md` counts. It is not what a deployed node ships: the
    /// one binary encoding (this type's `Serialize`) is 4 + 3·depth bytes.
    pub fn wire_size(&self) -> usize {
        2 + 2 * self.depth()
    }
}

/// Iterator over a code's decision pairs, root-first (see [`Code::pairs`]).
#[derive(Clone)]
pub struct Pairs<'a>(std::slice::Iter<'a, u32>);

impl Iterator for Pairs<'_> {
    type Item = Pair;

    #[inline]
    fn next(&mut self) -> Option<Pair> {
        self.0.next().copied().map(Pair::unpack)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Pairs<'_> {}

impl FromIterator<Pair> for Code {
    fn from_iter<I: IntoIterator<Item = Pair>>(iter: I) -> Self {
        Code {
            words: iter.into_iter().map(Pair::pack).collect(),
        }
    }
}

impl Hash for Code {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Mirror the derived `Vec<Pair>` hash: length prefix, then each
        // pair as (u16 var, u8 bit).
        state.write_usize(self.depth());
        for p in self.pairs() {
            p.hash(state);
        }
    }
}

impl Serialize for Code {
    fn ser(&self, out: &mut Vec<u8>) {
        // Byte-identical to the former derived encoding of
        // `struct Code { pairs: Vec<Pair> }`: u32 length prefix, then
        // each pair as (u16 var LE, u8 bit).
        (self.depth() as u32).ser(out);
        for p in self.pairs() {
            p.ser(out);
        }
    }
}

impl Deserialize for Code {
    fn de(r: &mut &[u8]) -> Result<Self, DecodeError> {
        // The length prefix is untrusted: grow with the decoded pairs
        // rather than reserving it up front.
        let len = u32::de(r)?;
        let mut words = Vec::new();
        for _ in 0..len {
            words.push(Pair::de(r)?.pack());
        }
        Ok(Code { words })
    }
}

impl fmt::Debug for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Code {
    /// Formats like the paper's Figure 1: `(<x1,0>,<x2,1>)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.pairs().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "<x{},{}>", p.var, p.bit as u8)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example of the paper's Figure 1.
    fn fig1_code() -> Code {
        Code::from_decisions(&[(1, false), (2, true), (5, false)])
    }

    /// A code of `depth` decisions on vars 1..=depth.
    fn deep_code(depth: u16) -> Code {
        let mut c = Code::root();
        for var in 1..=depth {
            c = c.child(var, var % 2 == 0);
        }
        c
    }

    #[test]
    fn root_properties() {
        let r = Code::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.sibling(), None);
        assert_eq!(r.last(), None);
        assert_eq!(format!("{r}"), "()");
        assert_eq!(r.wire_size(), 2);
    }

    #[test]
    fn figure_1_display() {
        assert_eq!(format!("{}", fig1_code()), "(<x1,0>,<x2,1>,<x5,0>)");
    }

    #[test]
    fn child_parent_sibling() {
        let c = fig1_code();
        let parent = Code::from_decisions(&[(1, false), (2, true)]);
        assert_eq!(c.parent(), Some(parent.clone()));
        assert_eq!(parent.child(5, false), c);
        let sib = Code::from_decisions(&[(1, false), (2, true), (5, true)]);
        assert_eq!(c.sibling(), Some(sib.clone()));
        assert!(c.is_sibling_of(&sib));
        assert!(sib.is_sibling_of(&c));
        assert_eq!(sib.sibling(), Some(c.clone()));
    }

    #[test]
    fn siblings_require_same_var() {
        // Same position, different variable: NOT siblings (different subtrees
        // may branch on different variables — paper §5.3.1).
        let a = Code::from_decisions(&[(1, false), (3, false)]);
        let b = Code::from_decisions(&[(1, false), (4, true)]);
        assert!(!a.is_sibling_of(&b));
    }

    #[test]
    fn ancestry() {
        let c = fig1_code();
        let anc = Code::from_decisions(&[(1, false)]);
        assert!(anc.is_prefix_of(&c) && anc != c);
        assert!(Code::root().is_prefix_of(&c));
        assert!(!c.is_prefix_of(&anc));
        assert!(c.is_prefix_of(&c));
        // Divergent path is not an ancestor.
        let other = Code::from_decisions(&[(1, true)]);
        assert!(!other.is_prefix_of(&c));
    }

    #[test]
    fn wire_size_grows_with_depth() {
        // "The deeper the node in the tree, the larger the size of its code."
        let mut c = Code::root();
        let mut prev = c.wire_size();
        for d in 0..10 {
            c = c.child(d, d % 2 == 0);
            assert!(c.wire_size() > prev);
            prev = c.wire_size();
        }
        assert_eq!(c.wire_size(), 2 + 2 * 10);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Code::from_decisions(&[(1, false)]);
        let b = Code::from_decisions(&[(1, false), (2, false)]);
        let c = Code::from_decisions(&[(1, true)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn spill_boundary_preserves_semantics() {
        // Walk a deep lineage back to the root: every depth must keep
        // child/parent/sibling/ancestry coherent.
        let deep = deep_code(16);
        let mut c = deep.clone();
        let mut depth = c.depth();
        while let Some(p) = c.parent() {
            assert_eq!(p.depth(), depth - 1);
            assert!(p.is_prefix_of(&deep) && p != deep);
            assert_eq!(p.child(c.last().unwrap().var, c.last().unwrap().bit), c);
            let sib = c.sibling().unwrap();
            assert!(c.is_sibling_of(&sib));
            assert_eq!(sib.parent().unwrap(), p);
            c = p;
            depth -= 1;
        }
        assert!(c.is_root());
    }

    #[test]
    fn spilled_codes_round_trip_serde() {
        for depth in [0u16, 1, 11, 12, 13, 20] {
            let c = deep_code(depth);
            let bytes = serde::encode(&c);
            assert_eq!(bytes.len(), 4 + 3 * depth as usize);
            let back: Code = serde::decode(&bytes).expect("round trip");
            assert_eq!(back, c);
        }
    }
}
