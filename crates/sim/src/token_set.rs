//! What a node knows: a set of `u64` tokens kept as one sorted `Vec`.
//!
//! A token program asks three things of its known set: is this token new,
//! how many are there, and what are they in ascending order (a local
//! broadcast sends them all).  A `BTreeSet<u64>` answers them with a tree of
//! small heap nodes.  A [`TokenSet`] answers them from one contiguous,
//! ascending buffer that grows by doubling, so a node holding `k` tokens
//! has paid `O(log k)` allocator calls and a broadcast is a slice copy.
//!
//! Tokens are arbitrary `u64`s, not a dense range, so the set is sorted
//! storage and not a bitset.  It iterates in ascending order exactly like
//! the `BTreeSet<u64>` it replaced: state summaries render the same bytes.

use std::ops::Deref;

/// A sorted, deduplicated set of tokens.  Dereferences to the ascending
/// `[u64]`.  The default set is empty and allocates nothing until its first
/// token.
#[derive(Debug, Clone, Default)]
pub struct TokenSet(Vec<u64>);

impl TokenSet {
    /// Adds `token`; returns whether it was new.  Shifts every larger token
    /// one slot up, so a batch goes through [`Self::absorb`] instead.
    pub fn insert(&mut self, token: u64) -> bool {
        match self.0.binary_search(&token) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, token);
                true
            }
        }
    }

    /// Adds every token of `batch` and calls `on_new` once per token that
    /// was not in the set yet.
    ///
    /// A strictly ascending batch of several tokens — every batch a token
    /// program sends but a gossip push — is merged in `O(|set| + |batch|)`:
    /// one forward pass finds the new tokens (reported in ascending order),
    /// one backward pass moves each old token at most once to make room for
    /// them.  One token is an [`Self::insert`].  Any other batch is inserted
    /// token by token, in batch order: still correct, not linear.
    pub fn absorb(&mut self, batch: &[u64], mut on_new: impl FnMut(u64)) {
        if batch.len() < 2 || !batch.windows(2).all(|w| w[0] < w[1]) {
            for &token in batch {
                if self.insert(token) {
                    on_new(token);
                }
            }
            return;
        }
        let mut fresh = 0;
        let mut from = 0;
        for &token in batch {
            // A walk, not a binary search per token: on the sets a node
            // holds its branches predict, and it keeps the pass linear.
            while from < self.0.len() && self.0[from] < token {
                from += 1;
            }
            if self.0.get(from) != Some(&token) {
                fresh += 1;
                on_new(token);
            }
        }
        if fresh == 0 {
            return;
        }
        // Back to front: `read` is the end of the old tokens still to move,
        // `write` the end of the slots still to fill.  Once they meet,
        // everything below is already in place.
        let mut read = self.0.len();
        self.0.resize(read + fresh, 0);
        let mut write = self.0.len();
        for &token in batch.iter().rev() {
            while read > 0 && self.0[read - 1] > token {
                read -= 1;
                write -= 1;
                self.0[write] = self.0[read];
            }
            if read > 0 && self.0[read - 1] == token {
                continue;
            }
            write -= 1;
            self.0[write] = token;
            if write == read {
                break;
            }
        }
    }
}

/// The tokens in ascending order.  There is no `DerefMut`: only `insert`
/// and `absorb` change the set, so it stays sorted.
impl Deref for TokenSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.0
    }
}

/// Sorts and deduplicates once, whatever order the tokens come in.
impl FromIterator<u64> for TokenSet {
    fn from_iter<I: IntoIterator<Item = u64>>(tokens: I) -> Self {
        let mut tokens: Vec<u64> = tokens.into_iter().collect();
        tokens.sort_unstable();
        tokens.dedup();
        TokenSet(tokens)
    }
}
