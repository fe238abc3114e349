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
//! The paper's efficiency argument leans on codes being *tiny* — most
//! B&B subproblems live within a few dozen decisions of the root — so
//! the in-memory layout stores up to [`Code::INLINE_CAP`] decisions
//! inline in the struct: the variables in a `[Var; INLINE_CAP]` array
//! and the branch bits in one `u16` mask, 32 bytes total. Cloning a
//! shallow code is a single memcpy with no heap traffic; only codes
//! deeper than the cap spill to a heap `Vec<u32>` of packed
//! `var << 1 | bit` words. Equality, ordering, hashing, and the serde
//! wire encoding are all defined over the logical pair sequence and are
//! byte-identical to the previous `Vec<Pair>` representation (pinned by
//! equivalence proptests).

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

/// Decisions stored inline (no heap) up to this depth.
const INLINE_CAP: usize = 12;

/// Inline decisions: variables in an array, branch bits in one mask
/// (bit `i` = decision `i`'s branch; bits at or above `len` are zero).
/// Codes deeper than [`INLINE_CAP`] spill to a heap `Vec` of packed
/// `var << 1 | bit` words.
enum Repr {
    Inline {
        len: u8,
        bits: u16,
        vars: [Var; INLINE_CAP],
    },
    Spill(Vec<u32>),
}

/// A subproblem code: the path of decisions from the root. The root problem
/// has the empty code `()`.
pub struct Code {
    repr: Repr,
}

// Manual `Clone` (instead of the derive) so the in-cap arm — a plain
// 32-byte copy — inlines into downstream crates without LTO. This is
// the hottest single operation in the solver (every expansion clones
// the parent code twice).
impl Clone for Code {
    #[inline]
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Inline { len, bits, vars } => Code {
                repr: Repr::Inline {
                    len: *len,
                    bits: *bits,
                    vars: *vars,
                },
            },
            Repr::Spill(v) => Code {
                repr: Repr::Spill(v.clone()),
            },
        }
    }
}

impl Code {
    /// Maximum depth stored inline; deeper codes spill to the heap.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// The root problem's code, `()`.
    pub fn root() -> Self {
        Code {
            repr: Repr::Inline {
                len: 0,
                bits: 0,
                vars: [0; INLINE_CAP],
            },
        }
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

    /// Append one decision in place.
    fn push(&mut self, p: Pair) {
        match &mut self.repr {
            Repr::Inline { len, bits, vars } => {
                let n = *len as usize;
                if n < INLINE_CAP {
                    vars[n] = p.var;
                    *bits |= (p.bit as u16) << n;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_CAP + 1);
                    for (i, var) in vars.iter().enumerate() {
                        v.push(((*var as u32) << 1) | ((*bits >> i) & 1) as u32);
                    }
                    v.push(p.pack());
                    self.repr = Repr::Spill(v);
                }
            }
            Repr::Spill(v) => v.push(p.pack()),
        }
    }

    /// Drop the final decision in place. Panics on the root.
    fn pop(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, bits, vars } => {
                debug_assert!(*len > 0);
                *len -= 1;
                *bits &= (1u16 << *len) - 1;
                vars[*len as usize] = 0;
            }
            Repr::Spill(v) => {
                v.pop().expect("non-empty");
                if v.len() <= INLINE_CAP {
                    let mut vars = [0 as Var; INLINE_CAP];
                    let mut bits = 0u16;
                    for (i, &w) in v.iter().enumerate() {
                        vars[i] = (w >> 1) as Var;
                        bits |= ((w & 1) as u16) << i;
                    }
                    self.repr = Repr::Inline {
                        len: v.len() as u8,
                        bits,
                        vars,
                    };
                }
            }
        }
    }

    /// The decision pairs, root-first.
    pub fn pairs(&self) -> Pairs<'_> {
        Pairs {
            inner: self.pairs_kind(),
        }
    }

    /// The repr-specific pair iterator — lets crate-internal hot loops
    /// (the table walks) monomorphize per variant instead of branching
    /// on the representation at every step.
    #[inline]
    pub(crate) fn pairs_kind(&self) -> PairsKind<'_> {
        match &self.repr {
            Repr::Inline { len, bits, vars } => PairsKind::Inline(InlinePairs {
                vars: vars[..*len as usize].iter(),
                bits: *bits,
            }),
            Repr::Spill(v) => PairsKind::Spill(SpillPairs(v.iter())),
        }
    }

    /// The decision at `depth` (0 = the root's first branch), or `None`
    /// past the end.
    pub fn pair_at(&self, depth: usize) -> Option<Pair> {
        match &self.repr {
            Repr::Inline { len, bits, vars } => (depth < *len as usize).then(|| Pair {
                var: vars[depth],
                bit: (bits >> depth) & 1 == 1,
            }),
            Repr::Spill(v) => v.get(depth).copied().map(Pair::unpack),
        }
    }

    /// Is this the root code?
    #[inline]
    pub fn is_root(&self) -> bool {
        self.depth() == 0
    }

    /// Depth in the tree (number of decisions).
    #[inline]
    pub fn depth(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spill(v) => v.len(),
        }
    }

    /// The code of the child obtained by branching on `var` with `bit`.
    /// A spilled child costs one exact-capacity allocation (cloning, then
    /// pushing, would allocate twice).
    pub fn child(&self, var: Var, bit: bool) -> Code {
        let p = Pair { var, bit };
        match &self.repr {
            Repr::Spill(v) => {
                let mut words = Vec::with_capacity(v.len() + 1);
                words.extend_from_slice(v);
                words.push(p.pack());
                Code {
                    repr: Repr::Spill(words),
                }
            }
            Repr::Inline { .. } => {
                let mut code = self.clone();
                code.push(p);
                code
            }
        }
    }

    /// The parent's code, or `None` for the root.
    pub fn parent(&self) -> Option<Code> {
        if self.is_root() {
            return None;
        }
        let mut code = self.clone();
        code.pop();
        Some(code)
    }

    /// The sibling's code (same parent, opposite final branch), or `None`
    /// for the root.
    pub fn sibling(&self) -> Option<Code> {
        if self.is_root() {
            return None;
        }
        let mut code = self.clone();
        match &mut code.repr {
            Repr::Inline { len, bits, .. } => *bits ^= 1 << (*len - 1),
            Repr::Spill(v) => *v.last_mut().expect("non-empty") ^= 1,
        }
        Some(code)
    }

    /// The final decision pair, or `None` for the root.
    pub fn last(&self) -> Option<Pair> {
        let d = self.depth();
        if d == 0 {
            None
        } else {
            self.pair_at(d - 1)
        }
    }

    /// Is `self` an ancestor of or equal to `other`?
    pub fn is_prefix_of(&self, other: &Code) -> bool {
        self.depth() <= other.depth() && self.matches_prefix(other)
    }

    /// Do `other`'s first `self.depth()` pairs equal `self`'s? (Caller
    /// checks the depth relation.)
    fn matches_prefix(&self, other: &Code) -> bool {
        self.pairs().zip(other.pairs()).all(|(a, b)| a == b)
    }

    /// Are `self` and `other` siblings (same parent, opposite branch)?
    pub fn is_sibling_of(&self, other: &Code) -> bool {
        let n = self.depth();
        if n != other.depth() || n == 0 {
            return false;
        }
        let (a, b) = (self.last().unwrap(), other.last().unwrap());
        // Same parent path, same variable, opposite branch bit.
        a.var == b.var
            && a.bit != b.bit
            && self
                .pairs()
                .zip(other.pairs())
                .take(n - 1)
                .all(|(x, y)| x == y)
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
pub struct Pairs<'a> {
    inner: PairsKind<'a>,
}

/// Repr-specific pair iterators (see [`Code::pairs_kind`]).
#[derive(Clone)]
pub(crate) enum PairsKind<'a> {
    Inline(InlinePairs<'a>),
    Spill(SpillPairs<'a>),
}

/// Pairs of an inline code: variable slice plus the shifting bit mask.
#[derive(Clone)]
pub(crate) struct InlinePairs<'a> {
    vars: std::slice::Iter<'a, Var>,
    bits: u16,
}

impl Iterator for InlinePairs<'_> {
    type Item = Pair;

    #[inline]
    fn next(&mut self) -> Option<Pair> {
        let var = *self.vars.next()?;
        let bit = self.bits & 1 == 1;
        self.bits >>= 1;
        Some(Pair { var, bit })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.vars.size_hint()
    }
}

impl ExactSizeIterator for InlinePairs<'_> {}

/// Pairs of a spilled code: packed `var << 1 | bit` words.
#[derive(Clone)]
pub(crate) struct SpillPairs<'a>(std::slice::Iter<'a, u32>);

impl Iterator for SpillPairs<'_> {
    type Item = Pair;

    #[inline]
    fn next(&mut self) -> Option<Pair> {
        self.0.next().copied().map(Pair::unpack)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for SpillPairs<'_> {}

impl Iterator for Pairs<'_> {
    type Item = Pair;

    #[inline]
    fn next(&mut self) -> Option<Pair> {
        match &mut self.inner {
            PairsKind::Inline(it) => it.next(),
            PairsKind::Spill(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            PairsKind::Inline(it) => it.size_hint(),
            PairsKind::Spill(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Pairs<'_> {}

impl Default for Code {
    fn default() -> Self {
        Code::root()
    }
}

impl FromIterator<Pair> for Code {
    fn from_iter<I: IntoIterator<Item = Pair>>(iter: I) -> Self {
        let mut code = Code::root();
        for p in iter {
            code.push(p);
        }
        code
    }
}

impl PartialEq for Code {
    fn eq(&self, other: &Self) -> bool {
        // Representation is canonical (inline iff depth <= cap), so
        // variants compare directly; inline bits above `len` are zero.
        match (&self.repr, &other.repr) {
            (
                Repr::Inline { len, bits, vars },
                Repr::Inline {
                    len: l2,
                    bits: b2,
                    vars: v2,
                },
            ) => len == l2 && bits == b2 && vars[..*len as usize] == v2[..*l2 as usize],
            (Repr::Spill(a), Repr::Spill(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Code {}

impl PartialOrd for Code {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Code {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic over the pair sequence — exactly the derived
        // `Vec<Pair>` ordering.
        self.pairs().cmp(other.pairs())
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
        let len = u32::de(r)? as usize;
        let mut code = Code::root();
        for _ in 0..len {
            code.push(Pair::de(r)?);
        }
        Ok(code)
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
        // Walk a lineage across the inline cap: every depth must keep
        // child/parent/sibling/ancestry coherent, inline or spilled.
        let deep = deep_code(Code::INLINE_CAP as u16 + 4);
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
