//! Weighted MAX-SAT as a [`BranchBound`] problem.
//!
//! Minimizes the total weight of falsified clauses. Unlike knapsack, the
//! branching variable is chosen *dynamically* (the unassigned variable
//! occurring in the most unresolved clauses), so different subtrees branch
//! on different variables in different orders — exactly the situation the
//! paper's `⟨variable, value⟩` code pairs exist for (§5.3.1, Figure 1).
//!
//! The operators never walk the clause list. Each instance keeps a
//! *clause index*, derived from its clauses when it is built or decoded:
//! for every variable, the set of clauses holding it positively and the
//! set holding it negatively, as bitsets over clause numbers (`u64`
//! words, stored word-major: a word's sets for all variables sit
//! together). Under a partial assignment, a clause is *satisfied* when it
//! is in the set of an assigned variable's value, *touched* when it is in
//! either set of an unassigned variable, *open* when touched and not
//! satisfied, and *falsified* when neither. The branching count of an
//! unassigned variable is the popcount of the clauses holding it minus
//! the satisfied ones, plus one per further occurrence of the variable in
//! a clause (a repeated or complementary literal, kept in a short list),
//! so every literal occurrence counts once, as in a literal walk. Bound
//! sums the falsified clauses' weights in ascending clause order.
//!
//! [`branch`](BranchBound::branch) makes one pass over the words. Per
//! word it takes the satisfied set `sat`, the clauses touched by at least
//! one and by at least two unassigned variables (`once`, `twice`), the
//! branching counts (consuming the repeat list in clause order) and
//! whether a clause is open. A child's bound needs no second pass: setting
//! `x` to `b` satisfies `sat | sets[x][b]` and leaves touched `(once &
//! !holds_x) | (twice & holds_x)`, so the child falsifies the node's
//! falsified clauses and those outside `sat | twice` that hold `x` only
//! with `!b`. That state is two words per index word, in one buffer
//! allocated per call (16 bytes per 64 clauses; the prototype of this
//! pass used the same buffer). The results are bit-for-bit those of the
//! literal walk, which the tests keep as a reference. The index never goes on the wire: an instance encodes as
//! its variable count and clauses only, and decoding rebuilds the index.

use crate::problem::{Branch, BranchBound};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A literal: variable index and polarity (`true` = positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Literal {
    /// Variable index in `0..num_vars`.
    pub var: u16,
    /// `true` for `x`, `false` for `¬x`.
    pub positive: bool,
}

/// A weighted clause (disjunction of literals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clause {
    /// The literals.
    pub literals: Vec<Literal>,
    /// Weight paid if the clause is falsified.
    pub weight: f64,
}

/// A weighted MAX-SAT instance with at most 64 variables.
///
/// The fields are private so the derived clause index cannot go stale;
/// read them through [`num_vars`](Self::num_vars) and
/// [`clauses`](Self::clauses).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "RawInstance", from = "RawInstance")]
pub struct MaxSatInstance {
    num_vars: u16,
    clauses: Vec<Clause>,
    index: ClauseIndex,
}

/// The wire shape of a [`MaxSatInstance`]: the instance without its index.
#[derive(Serialize, Deserialize)]
struct RawInstance {
    num_vars: u16,
    clauses: Vec<Clause>,
}

impl From<RawInstance> for MaxSatInstance {
    /// Never panics, whatever the decoded shape: the index skips what it
    /// cannot hold, and [`MaxSatInstance::validate`] refuses the instance.
    fn from(raw: RawInstance) -> Self {
        let index = ClauseIndex::new(raw.num_vars, &raw.clauses);
        MaxSatInstance {
            num_vars: raw.num_vars,
            clauses: raw.clauses,
            index,
        }
    }
}

impl From<MaxSatInstance> for RawInstance {
    fn from(m: MaxSatInstance) -> Self {
        RawInstance {
            num_vars: m.num_vars,
            clauses: m.clauses,
        }
    }
}

impl fmt::Debug for MaxSatInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaxSatInstance")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses)
            .finish_non_exhaustive()
    }
}

impl MaxSatInstance {
    /// Build an instance.
    ///
    /// # Panics
    /// If [`validate`](Self::validate) refuses it.
    pub fn new(num_vars: u16, clauses: Vec<Clause>) -> Self {
        let instance = MaxSatInstance::from(RawInstance { num_vars, clauses });
        if let Err(e) = instance.validate() {
            panic!("invalid MAX-SAT instance: {e}");
        }
        instance
    }

    /// The one validity rule, shared by [`new`](Self::new) and decoded
    /// instances ([`AnyInstance::validate`](crate::AnyInstance::validate)):
    /// at most 64 variables, and every clause non-empty, of positive
    /// finite weight, over variables in `0..num_vars`.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_vars > 64 {
            return Err("maxsat supports at most 64 variables".into());
        }
        for c in &self.clauses {
            if c.literals.is_empty() {
                return Err("maxsat has an empty clause".into());
            }
            if !(c.weight > 0.0 && c.weight.is_finite()) {
                return Err("maxsat clause weight must be positive and finite".into());
            }
            if c.literals.iter().any(|l| l.var >= self.num_vars) {
                return Err("maxsat literal variable out of range".into());
            }
        }
        Ok(())
    }

    /// Number of variables (≤ 64).
    pub fn num_vars(&self) -> u16 {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Random weighted 3-SAT-ish instance (clauses of length 2–3),
    /// deterministic per seed.
    pub fn generate(num_vars: u16, num_clauses: usize, seed: u64) -> Self {
        assert!((2..=64).contains(&num_vars));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut clauses = Vec::with_capacity(num_clauses);
        for _ in 0..num_clauses {
            let len = rng.gen_range(2..=3usize.min(num_vars as usize));
            let mut vars: Vec<u16> = Vec::with_capacity(len);
            while vars.len() < len {
                let v = rng.gen_range(0..num_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let literals = vars
                .into_iter()
                .map(|var| Literal {
                    var,
                    positive: rng.gen_bool(0.5),
                })
                .collect();
            clauses.push(Clause {
                literals,
                weight: rng.gen_range(1..=10) as f64,
            });
        }
        MaxSatInstance::new(num_vars, clauses)
    }

    /// Exhaustive optimum (minimum falsified weight) for small instances.
    pub fn brute_force(&self) -> f64 {
        assert!(self.num_vars <= 22, "brute force only for small instances");
        let mut best = f64::INFINITY;
        for assignment in 0u64..(1u64 << self.num_vars) {
            let mut falsified = 0.0;
            for c in &self.clauses {
                let sat = c
                    .literals
                    .iter()
                    .any(|l| ((assignment >> l.var) & 1 == 1) == l.positive);
                if !sat {
                    falsified += c.weight;
                }
            }
            best = best.min(falsified);
        }
        best
    }
}

/// Which clauses each literal occurs in, derived from the clause list
/// (module doc). Clause `c` is bit `c % 64` of word `c / 64`.
#[derive(Clone, PartialEq)]
struct ClauseIndex {
    /// Variables indexed: `min(num_vars, 64)`.
    vars: usize,
    /// Bitmask of the indexed variables.
    var_mask: u64,
    /// `occurs[w * vars + v][p]`: the clauses of word `w` holding
    /// variable `v` with polarity `p` (1 = positive).
    occurs: Vec<[u64; 2]>,
    /// Clause weights, in clause order.
    weights: Vec<f64>,
    /// One `(clause, variable)` entry per occurrence of a variable past
    /// its first in that clause, of either polarity, in ascending clause
    /// order (`branch` reads it word by word).
    repeats: Vec<(usize, u16)>,
}

impl ClauseIndex {
    /// Index `clauses`. Literals over variables outside `0..min(num_vars,
    /// 64)` only occur in invalid instances; they are left out.
    fn new(num_vars: u16, clauses: &[Clause]) -> Self {
        let vars = usize::from(num_vars.min(64));
        let mut occurs = vec![[0u64; 2]; clauses.len().div_ceil(64) * vars];
        let mut repeats = Vec::new();
        for (c, clause) in clauses.iter().enumerate() {
            let bit = 1u64 << (c % 64);
            for l in clause.literals.iter().filter(|l| usize::from(l.var) < vars) {
                let sets = &mut occurs[(c / 64) * vars + usize::from(l.var)];
                if (sets[0] | sets[1]) & bit != 0 {
                    repeats.push((c, l.var));
                }
                sets[usize::from(l.positive)] |= bit;
            }
        }
        debug_assert!(repeats.is_sorted_by_key(|r| r.0));
        ClauseIndex {
            vars,
            var_mask: if vars == 64 {
                u64::MAX
            } else {
                (1 << vars) - 1
            },
            occurs,
            weights: clauses.iter().map(|c| c.weight).collect(),
            repeats,
        }
    }

    fn words(&self) -> usize {
        self.weights.len().div_ceil(64)
    }

    /// Word `w`'s `[negative, positive]` sets, one pair per variable.
    fn word(&self, w: usize) -> &[[u64; 2]] {
        &self.occurs[w * self.vars..(w + 1) * self.vars]
    }

    /// The clauses of word `w` that exist.
    fn live(&self, w: usize) -> u64 {
        u64::MAX >> (64 - (self.weights.len() - w * 64).min(64))
    }

    /// The clauses of word `w` satisfied under `node`.
    fn satisfied(&self, node: &SatNode, w: usize) -> u64 {
        let sets = self.word(w);
        Bits(node.assigned & self.var_mask).fold(0, |sat, v| {
            sat | sets[v][usize::from(node.values >> v & 1 == 1)]
        })
    }

    /// The summed weights of the clauses `falsified(w)` holds in each word
    /// `w`, in ascending clause order, as a walk over the clauses sums
    /// them.
    fn weight(&self, falsified: impl Fn(usize) -> u64) -> f64 {
        (0..self.words())
            .flat_map(|w| Bits(falsified(w)).map(move |bit| w * 64 + bit))
            .map(|c| self.weights[c])
            .sum()
    }
}

/// The set bits of a word, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A partial assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SatNode {
    /// Bitmask of assigned variables.
    pub assigned: u64,
    /// Values of assigned variables (bits meaningful where `assigned` set).
    pub values: u64,
}

impl BranchBound for MaxSatInstance {
    type Node = SatNode;

    fn root(&self) -> SatNode {
        SatNode::default()
    }

    fn bound(&self, node: &SatNode) -> f64 {
        // Weight of clauses already falsified — every extension pays it.
        let (index, unassigned) = (&self.index, !node.assigned & self.index.var_mask);
        index.weight(|w| {
            let sets = index.word(w);
            let touched = Bits(unassigned).fold(0, |t, v| t | sets[v][0] | sets[v][1]);
            index.live(w) & !(index.satisfied(node, w) | touched)
        })
    }

    fn branch(&self, node: &SatNode) -> Branch<SatNode> {
        let index = &self.index;
        let unassigned = !node.assigned & index.var_mask;
        let mut counts = [0u32; 64];
        let mut repeats = index.repeats.iter().peekable();
        let mut open = false;
        // Per word: the clauses falsified here, and those satisfied or
        // touched by two unassigned variables, which no child falsifies.
        let mut words = vec![[0u64; 2]; index.words()];
        for (w, word) in words.iter_mut().enumerate() {
            let (sets, sat) = (index.word(w), index.satisfied(node, w));
            let (mut once, mut twice) = (0, 0);
            for v in Bits(unassigned) {
                let holds = sets[v][0] | sets[v][1];
                twice |= once & holds;
                once |= holds;
                counts[v] += (holds & !sat).count_ones();
            }
            while let Some(&(c, var)) = repeats.next_if(|&&(c, _)| c / 64 == w) {
                if unassigned >> var & 1 == 1 && sat >> (c % 64) & 1 == 0 {
                    counts[usize::from(var)] += 1;
                }
            }
            open |= once & !sat != 0;
            *word = [index.live(w) & !(sat | once), sat | twice];
        }
        if !open {
            // A solution exists once no clause is open (even if variables
            // remain unassigned — they can't change anything).
            return Branch {
                solution: Some(index.weight(|w| words[w][0])),
                children: None,
            };
        }
        // Most-occurring unassigned variable among open clauses, one count
        // per literal occurrence.
        let var = (0..self.num_vars)
            .max_by_key(|&v| counts[usize::from(v)])
            .expect("an open clause holds a variable");
        let child = |value: bool| {
            let child = SatNode {
                assigned: node.assigned | 1 << var,
                values: node.values & !(1 << var) | u64::from(value) << var,
            };
            // Setting `var` falsifies the unsatisfied clauses it alone
            // touches and holds only with the other value.
            let bound = index.weight(|w| {
                let sets = index.word(w)[usize::from(var)];
                let [falsified, kept] = words[w];
                falsified | (sets[usize::from(!value)] & !(sets[usize::from(value)] | kept))
            });
            (bound, child)
        };
        Branch {
            solution: None,
            children: Some((var, [child(false), child(true)])),
        }
    }

    fn cost(&self, _node: &SatNode) -> f64 {
        1e-6 * (1.0 + self.clauses.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve, SolveConfig};
    use crate::AnyInstance;
    use ftbb_tree::Var;

    fn lit(var: u16, positive: bool) -> Literal {
        Literal { var, positive }
    }

    /// The operators as a walk over every clause's literals: the
    /// implementation the clause index replaced, kept as the reference it
    /// must match bit for bit.
    mod reference {
        use super::*;

        enum ClauseState {
            Satisfied,
            Falsified,
            Open,
        }

        fn clause_state(clause: &Clause, node: &SatNode) -> ClauseState {
            let mut any_unassigned = false;
            for l in &clause.literals {
                if (node.assigned >> l.var) & 1 == 1 {
                    if ((node.values >> l.var) & 1 == 1) == l.positive {
                        return ClauseState::Satisfied;
                    }
                } else {
                    any_unassigned = true;
                }
            }
            if any_unassigned {
                ClauseState::Open
            } else {
                ClauseState::Falsified
            }
        }

        pub fn bound(inst: &MaxSatInstance, node: &SatNode) -> f64 {
            inst.clauses()
                .iter()
                .filter(|c| matches!(clause_state(c, node), ClauseState::Falsified))
                .map(|c| c.weight)
                .sum()
        }

        pub fn solution(inst: &MaxSatInstance, node: &SatNode) -> Option<f64> {
            let any_open = inst
                .clauses()
                .iter()
                .any(|c| matches!(clause_state(c, node), ClauseState::Open));
            if any_open {
                None
            } else {
                Some(bound(inst, node))
            }
        }

        pub fn branching_var(inst: &MaxSatInstance, node: &SatNode) -> Option<Var> {
            let mut counts = [0u32; 64];
            let mut any = false;
            for c in inst.clauses() {
                if matches!(clause_state(c, node), ClauseState::Open) {
                    for l in &c.literals {
                        if (node.assigned >> l.var) & 1 == 0 {
                            counts[l.var as usize] += 1;
                            any = true;
                        }
                    }
                }
            }
            if !any {
                return None;
            }
            (0..inst.num_vars()).max_by_key(|&v| counts[v as usize])
        }

        pub fn decompose(inst: &MaxSatInstance, node: &SatNode) -> Option<(SatNode, SatNode)> {
            let var = branching_var(inst, node)?;
            let mk = |value: bool| SatNode {
                assigned: node.assigned | (1 << var),
                values: if value {
                    node.values | (1 << var)
                } else {
                    node.values & !(1 << var)
                },
            };
            Some((mk(false), mk(true)))
        }
    }

    /// Check `bound` and `branch` against the literal walk at every node
    /// of `walks` random root-to-leaf paths: the node's bound and
    /// solution, its branching variable, and both children's states and
    /// bounds, bit for bit.
    fn assert_matches_reference(inst: &MaxSatInstance, walks: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..walks {
            let mut node = inst.root();
            loop {
                assert_eq!(
                    inst.bound(&node).to_bits(),
                    reference::bound(inst, &node).to_bits(),
                    "bound at {node:?}"
                );
                let branch = inst.branch(&node);
                assert_eq!(
                    branch.solution.map(f64::to_bits),
                    reference::solution(inst, &node).map(f64::to_bits),
                    "solution at {node:?}"
                );
                let expect =
                    reference::branching_var(inst, &node).zip(reference::decompose(inst, &node));
                let Some((var, [(lb, l), (rb, r)])) = branch.children else {
                    assert_eq!(expect, None, "leaf at {node:?}");
                    break;
                };
                assert_eq!(expect, Some((var, (l, r))), "children at {node:?}");
                for (bound, child) in [(lb, l), (rb, r)] {
                    assert_eq!(
                        bound.to_bits(),
                        reference::bound(inst, &child).to_bits(),
                        "bound of {child:?}, child of {node:?}"
                    );
                }
                node = if rng.gen_bool(0.5) { r } else { l };
            }
        }
    }

    /// Clauses of 1–5 literals drawn with replacement, so repeated and
    /// complementary literals in one clause are common, with non-integer
    /// weights.
    fn messy(num_vars: u16, num_clauses: usize, seed: u64) -> MaxSatInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let clauses = (0..num_clauses)
            .map(|_| Clause {
                literals: (0..rng.gen_range(1..=5))
                    .map(|_| lit(rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
                    .collect(),
                weight: rng.gen_range(0.001..10.0),
            })
            .collect();
        MaxSatInstance::new(num_vars, clauses)
    }

    /// Variable and clause counts: a clause count on each side of the
    /// 64-clause word boundary, several words, and all 64 variables.
    const SHAPES: [(u16, usize); 8] = [
        (8, 1),
        (12, 63),
        (12, 64),
        (12, 65),
        (26, 110),
        (20, 300),
        (64, 130),
        (64, 320),
    ];

    #[test]
    fn clause_index_matches_literal_walk_on_generated_instances() {
        for (vars, clauses) in SHAPES {
            for seed in 0..3 {
                assert_matches_reference(&MaxSatInstance::generate(vars, clauses, seed), 20, seed);
            }
        }
    }

    #[test]
    fn clause_index_matches_literal_walk_on_repeated_literals_and_fractional_weights() {
        for (vars, clauses) in SHAPES {
            for seed in 0..3 {
                assert_matches_reference(&messy(vars, clauses, seed), 20, seed);
            }
        }
        // By hand: x0 twice and ¬x0 in one clause count 3 for x0, beating
        // the tautologies' 2 each (one count per distinct literal would
        // tie all three, and the last maximum, x2, would win).
        let inst = MaxSatInstance::new(
            3,
            vec![
                Clause {
                    literals: vec![lit(0, true), lit(0, true), lit(0, false)],
                    weight: 0.1,
                },
                Clause {
                    literals: vec![lit(1, true), lit(1, false)],
                    weight: 0.2,
                },
                Clause {
                    literals: vec![lit(2, true), lit(2, false)],
                    weight: 0.7,
                },
            ],
        );
        assert_eq!(
            inst.branch(&inst.root()).children.map(|(var, _)| var),
            Some(0)
        );
        assert_matches_reference(&inst, 16, 0);
    }

    /// The same differential check over many more instances and paths.
    /// Outside tier-1 (~14 s in release on a 2-core x86 host):
    /// `cargo test --release -p ftbb-bnb --lib maxsat -- --ignored`.
    #[test]
    #[ignore]
    fn clause_index_deep_sweep() {
        for (vars, clauses) in SHAPES {
            for seed in 0..40 {
                assert_matches_reference(&MaxSatInstance::generate(vars, clauses, seed), 50, seed);
                assert_matches_reference(&messy(vars, clauses, seed), 50, seed);
            }
        }
    }

    #[test]
    fn encodes_as_variable_count_and_clauses_only() {
        let inst = MaxSatInstance::generate(26, 110, 13);
        let bytes = serde::encode(&inst);
        let mut expect = inst.num_vars().to_le_bytes().to_vec();
        expect.extend((inst.clauses().len() as u32).to_le_bytes());
        for c in inst.clauses() {
            expect.extend((c.literals.len() as u32).to_le_bytes());
            for l in &c.literals {
                expect.extend(l.var.to_le_bytes());
                expect.push(u8::from(l.positive));
            }
            expect.extend(c.weight.to_le_bytes());
        }
        assert_eq!(bytes, expect);
        let back: MaxSatInstance = serde::decode(&bytes).expect("round trip");
        assert_eq!(back, inst, "the decoded index is rebuilt");
    }

    #[test]
    fn decoding_a_malformed_instance_yields_the_validate_error() {
        let clause = |literals: Vec<Literal>, weight: f64| Clause { literals, weight };
        let cases = [
            (65, clause(vec![lit(64, true)], 1.0), "at most 64 variables"),
            (
                300,
                clause(vec![lit(299, false)], 1.0),
                "at most 64 variables",
            ),
            (4, clause(vec![lit(4, true)], 1.0), "out of range"),
            (10, clause(vec![lit(64, true)], 1.0), "out of range"),
            (10, clause(vec![lit(1000, false)], 1.0), "out of range"),
            (4, clause(vec![], 1.0), "empty clause"),
            (
                4,
                clause(vec![lit(0, true)], f64::NAN),
                "positive and finite",
            ),
        ];
        for (num_vars, bad, expect) in cases {
            let mut clauses = MaxSatInstance::generate(4, 8, 1).clauses().to_vec();
            clauses.insert(3, bad);
            let bytes = serde::encode(&RawInstance { num_vars, clauses });
            let inst: MaxSatInstance = serde::decode(&bytes).expect("structurally sound");
            let err = inst.validate().expect_err(expect);
            assert!(err.contains(expect), "{num_vars}: {err}");
            let any = AnyInstance::MaxSat(inst);
            assert_eq!(any.validate(), Err(err));
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_infinite_weight() {
        MaxSatInstance::new(
            1,
            vec![Clause {
                literals: vec![lit(0, true)],
                weight: f64::INFINITY,
            }],
        );
    }

    #[test]
    fn trivially_satisfiable() {
        let inst = MaxSatInstance::new(
            2,
            vec![Clause {
                literals: vec![lit(0, true), lit(1, true)],
                weight: 5.0,
            }],
        );
        let r = solve(&inst, &SolveConfig::default());
        assert_eq!(r.best, Some(0.0));
    }

    #[test]
    fn contradiction_pays_min_weight() {
        // (x0) weight 2 and (¬x0) weight 3: best falsifies the cheaper one.
        let inst = MaxSatInstance::new(
            1,
            vec![
                Clause {
                    literals: vec![lit(0, true)],
                    weight: 2.0,
                },
                Clause {
                    literals: vec![lit(0, false)],
                    weight: 3.0,
                },
            ],
        );
        let r = solve(&inst, &SolveConfig::default());
        assert_eq!(r.best, Some(2.0));
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..10 {
            let inst = MaxSatInstance::generate(10, 30, seed);
            let r = solve(&inst, &SolveConfig::default());
            let expect = inst.brute_force();
            assert!(
                (r.best.unwrap() - expect).abs() < 1e-9,
                "seed {seed}: got {:?}, expected {expect}",
                r.best
            );
        }
    }

    #[test]
    fn branching_order_varies_across_subtrees() {
        // Find an instance where the two root children branch on different
        // variables — the motivating case for ⟨var, value⟩ code pairs.
        let mut found = false;
        for seed in 0..50 {
            let inst = MaxSatInstance::generate(8, 16, seed);
            let var = |node: &SatNode| inst.branch(node).children.map(|(var, _)| var);
            let Some((_, [(_, l), (_, r)])) = inst.branch(&inst.root()).children else {
                continue;
            };
            let (lv, rv) = (var(&l), var(&r));
            if lv.is_some() && rv.is_some() && lv != rv {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "expected at least one instance with divergent branching order"
        );
    }

    #[test]
    fn rebuild_is_self_contained() {
        let inst = MaxSatInstance::generate(8, 20, 3);
        let r = solve(&inst, &SolveConfig::default());
        let code = r.best_code.unwrap();
        let node = inst.rebuild(&code).unwrap();
        assert_eq!(inst.branch(&node).solution, r.best);
    }

    #[test]
    fn bound_monotone_in_assignments() {
        let inst = MaxSatInstance::generate(8, 20, 4);
        let root = inst.root();
        let (_, [(lb, _), (rb, _)]) = inst.branch(&root).children.unwrap();
        assert!(lb >= inst.bound(&root));
        assert!(rb >= inst.bound(&root));
    }

    #[test]
    #[should_panic(expected = "empty clause")]
    fn rejects_empty_clause() {
        MaxSatInstance::new(
            1,
            vec![Clause {
                literals: vec![],
                weight: 1.0,
            }],
        );
    }
}
