//! [`TokenSet`] is a `BTreeSet<u64>`: random sequences of `insert` and
//! `absorb` leave both holding the same tokens in the same ascending order,
//! `insert` answers alike, and `absorb` reports exactly the tokens that were
//! new, each once — whatever the batch looks like.

use std::collections::BTreeSet;

use hybrid_sim::TokenSet;
use proptest::prelude::*;
use proptest::TestCaseError;

/// The shapes of batch a sender could produce, honest or not.
fn shape(kind: u8, mut batch: Vec<u64>) -> Vec<u64> {
    match kind {
        // Strictly ascending: what every token program sends.
        0 => {
            batch.sort_unstable();
            batch.dedup();
        }
        1 => {
            batch.sort_unstable();
            batch.dedup();
            batch.reverse();
        }
        // Ascending with every token twice.
        2 => {
            batch.sort_unstable();
            batch = batch.iter().flat_map(|&t| [t, t]).collect();
        }
        3 => batch.clear(),
        // As drawn: unsorted, with whatever repeats the draw holds.
        _ => {}
    }
    batch
}

/// Holds `set` to `model` in everything it answers.
fn same(set: &TokenSet, model: &BTreeSet<u64>) -> Result<(), TestCaseError> {
    let expected: Vec<u64> = model.iter().copied().collect();
    prop_assert_eq!(&set[..], &expected[..]);
    prop_assert_eq!(set.iter().copied().collect::<Vec<_>>(), expected);
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tokens come from a small pool of arbitrary `u64`s (the extremes
    /// always among them), so a batch often repeats a token or brings one
    /// the set already holds.
    #[test]
    fn token_set_is_a_btree_set(
        drawn in prop::collection::vec(any::<u64>(), 1..24),
        initial in prop::collection::vec(any::<u16>(), 0..12),
        ops in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u16>(), 0..24)), 0..48),
    ) {
        let pool: Vec<u64> = [0, 1, u64::MAX - 1, u64::MAX].into_iter().chain(drawn).collect();
        let pick = |i: &u16| pool[usize::from(*i) % pool.len()];

        let mut set: TokenSet = initial.iter().map(pick).collect();
        let mut model: BTreeSet<u64> = initial.iter().map(pick).collect();
        same(&set, &model)?;
        for (kind, picks) in ops {
            let kind = kind % 6;
            if kind == 5 {
                let token = picks.first().map_or(pool[0], pick);
                prop_assert_eq!(set.insert(token), model.insert(token));
            } else {
                let batch = shape(kind, picks.iter().map(pick).collect());
                let mut reported = Vec::new();
                set.absorb(&batch, |t| reported.push(t));
                // The batch's tokens in batch order, each at its first
                // occurrence, that the set did not hold yet.
                let mut expected = Vec::new();
                for &t in &batch {
                    if model.insert(t) {
                        expected.push(t);
                    }
                }
                prop_assert_eq!(reported, expected);
            }
            same(&set, &model)?;
        }
    }
}

#[test]
fn absorb_merges_below_between_and_above() {
    let mut set: TokenSet = [10, 20, 30].into_iter().collect();
    let mut reported = Vec::new();
    set.absorb(&[5, 10, 15, 25, 30, 35], |t| reported.push(t));
    assert_eq!(reported, [5, 15, 25, 35]);
    assert_eq!(&set[..], &[5, 10, 15, 20, 25, 30, 35]);
    // Nothing new: nothing reported, nothing moved.
    set.absorb(&[5, 35], |t| panic!("{t} is not new"));
    assert_eq!(set.len(), 7);
    assert!(TokenSet::default().is_empty());
}
