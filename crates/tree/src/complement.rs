//! Choosing which uncompleted problem to recover (§5.3.2).
//!
//! "When a member runs out of work and an attempt to get work through the
//! load-balancing mechanism fails, it chooses an uncompleted problem (by
//! complementing the code of a solved problem whose sibling is not solved)
//! and solves it."
//!
//! The paper notes the costs of uncoordinated recovery "can be reduced by
//! employing more sophisticated methods for choosing work"; the pick here is
//! the one it evaluates — uniformly random, which decorrelates concurrent
//! recoverers ("work reports are sent to randomly chosen resources, without
//! eliminating redundant messages").

use crate::code::Code;
use crate::codeset::CodeSet;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Pick an uncompleted problem uniformly at random from `table`'s
/// complement.
///
/// Returns `None` iff the root is completed (nothing left to recover).
pub fn pick_recovery(table: &CodeSet, rng: &mut SmallRng) -> Option<Code> {
    table.complement().choose(rng).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Var;
    use rand::SeedableRng;

    fn c(dec: &[(Var, bool)]) -> Code {
        Code::from_decisions(dec)
    }

    fn table() -> CodeSet {
        let mut s = CodeSet::new();
        // Completed: (x1,0)(x2,1)(x5,0) and (x1,1)(x3,0).
        s.insert(&c(&[(1, false), (2, true), (5, false)]));
        s.insert(&c(&[(1, true), (3, false)]));
        s
    }

    #[test]
    fn none_when_root_done() {
        let mut s = CodeSet::new();
        s.insert(&Code::root());
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(pick_recovery(&s, &mut rng), None);
    }

    #[test]
    fn empty_table_recovers_root() {
        let s = CodeSet::new();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(pick_recovery(&s, &mut rng), Some(Code::root()));
    }

    #[test]
    fn random_pick_is_a_candidate() {
        let s = table();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let got = pick_recovery(&s, &mut rng).unwrap();
            assert!(!s.contains(&got), "picked an already-completed code");
        }
    }

    #[test]
    fn recovery_loop_terminates() {
        // Repeatedly recovering and completing must reach root-done.
        let mut s = table();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut steps = 0;
        while let Some(code) = pick_recovery(&s, &mut rng) {
            s.insert(&code);
            steps += 1;
            assert!(steps < 100, "recovery loop did not converge");
        }
        assert!(s.is_root_done());
    }
}
