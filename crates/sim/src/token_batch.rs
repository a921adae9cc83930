//! The payload of every token-carrying message: a short batch of `u64`
//! tokens that lives inside the message itself.
//!
//! A HYBRID message is `O(log n)` bits — one token or a handful of them — so
//! a heap `Vec<u64>` per message spends one allocator call to carry a few
//! words.  A [`TokenBatch`] stores up to `INLINE` tokens in place; a longer
//! batch spills to one immutable `Arc<[u64]>`, so cloning it (an ack echo, a
//! local broadcast, a fault-injected duplicate) bumps a reference count and
//! copies nothing.
//!
//! On the wire it is a plain JSON array, byte for byte what `Vec<u64>`
//! renders: traces, goldens and the networked runtime cannot tell the two
//! apart.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::{DeError, Deserialize, JsonWriter, Serialize, Value};

/// Tokens stored inside the message.  In the benchmark's 1024-node ack-flood
/// run about 93 % of all batches hold at most 6 tokens (three quarters under
/// the chaos fault plan) and a gossip push holds one.  6 makes a staged
/// `(NodeId, AckFloodMsg)` 72 bytes and is the largest capacity at which the
/// run's peak memory stays where `Vec` payloads had it: 8 saves another
/// eighth of the allocator calls but the wider stage shows in the peak.
const INLINE: usize = 6;
// The inline length is a `u8`.
const _: () = assert!(INLINE <= u8::MAX as usize);

/// An immutable batch of tokens: inline up to `INLINE` of them, one shared
/// heap slice beyond.  Dereferences to `[u64]`.
#[derive(Clone)]
pub struct TokenBatch(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, tokens: [u64; INLINE] },
    Spilled(Arc<[u64]>),
}

impl TokenBatch {
    /// A batch of `len` zero tokens, for a constructor to fill in.
    fn zeroed(len: usize) -> Self {
        TokenBatch(if len <= INLINE {
            Repr::Inline {
                len: len as u8,
                tokens: [0; INLINE],
            }
        } else {
            Repr::Spilled(std::iter::repeat_n(0, len).collect())
        })
    }

    /// The slots of a batch nobody else holds yet.
    fn slots(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { len, tokens } => &mut tokens[..usize::from(*len)],
            Repr::Spilled(shared) => Arc::get_mut(shared).expect("a batch under construction"),
        }
    }

    /// The one-token batch (a gossip push); never allocates.
    pub fn single(token: u64) -> Self {
        Self::from_slice(&[token])
    }

    /// A batch holding a copy of `tokens`, in order.
    pub fn from_slice(tokens: &[u64]) -> Self {
        let mut batch = Self::zeroed(tokens.len());
        batch.slots().copy_from_slice(tokens);
        batch
    }
}

impl Deref for TokenBatch {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, tokens } => &tokens[..usize::from(*len)],
            Repr::Spilled(shared) => shared,
        }
    }
}

impl fmt::Debug for TokenBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// Hand-written: the vendored derive has no "as an array" representation.
impl Serialize for TokenBatch {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<'de> Deserialize<'de> for TokenBatch {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let items = value
            .as_array()
            .ok_or_else(|| DeError::expected("array", value))?;
        let mut batch = Self::zeroed(items.len());
        for (slot, item) in batch.slots().iter_mut().zip(items) {
            *slot = u64::deserialize(item)?;
        }
        Ok(batch)
    }
}
