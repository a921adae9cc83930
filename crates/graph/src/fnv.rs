//! FNV-1a-64, the repository's one content digest.
//!
//! Every recorded golden (generator edge orders, engine traces, phase
//! ledgers, `oracle_answers.json`) is this byte-sequential hash over raw
//! bytes and little-endian `u64`s, so the constants live here once and a
//! digest printed by one suite can be compared with another's.

use crate::Graph;

/// Incremental FNV-1a over bytes, 64-bit variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// A hasher at the offset basis (the digest of the empty input).
    pub const fn new() -> Self {
        Fnv1a64(0xcbf29ce484222325)
    }

    /// Feeds `bytes`, one at a time, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    /// Feeds the eight little-endian bytes of `x`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a graph's content: `n`, then every `(u, v, w)` of
/// [`Graph::edges`] in order, each widened to a `u64`.  It is API because
/// the generator goldens are pinned in two crates (this one's tests and the
/// workspace property tests) and must hash the edge list the same way.
pub fn graph_digest(graph: &Graph) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(graph.n() as u64);
    for &(u, v, w) in graph.edges() {
        h.write_u64(u64::from(u));
        h.write_u64(u64::from(v));
        h.write_u64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1a64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_u64_is_the_little_endian_bytes_and_splits_do_not_matter() {
        let mut a = Fnv1a64::new();
        a.write_u64(0x0807_0605_0403_0201);
        let mut b = Fnv1a64::default();
        b.write(&[1, 2, 3]);
        b.write(&[4, 5, 6, 7, 8]);
        assert_eq!(a, b);
    }
}
