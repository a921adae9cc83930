//! The wire contract of [`TokenBatch`]: it renders and parses exactly like
//! the `Vec<u64>` it replaced, whatever its length, and a body that is not an
//! array of unsigned integers is a typed error — never a panic, never a
//! shorter batch.

use hybrid_sim::programs::AckFloodMsg;
use hybrid_sim::TokenBatch;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// `len` distinct tokens, the largest ones `u64` can hold among them.
fn tokens(len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| u64::MAX - 3 * i).collect()
}

#[test]
fn renders_and_parses_like_a_vec_at_every_length() {
    // 0, 1, around the inline capacity wherever it sits below 16, and long.
    for len in (0..=16).chain([4096]) {
        let ts = tokens(len);
        let batch = TokenBatch::from_slice(&ts);
        assert_eq!(&*batch, &ts[..]);
        let text = serde_json::to_string(&batch).unwrap();
        assert_eq!(text, serde_json::to_string(&ts).unwrap(), "len {len}");
        let back: TokenBatch = serde_json::from_str(&text).unwrap();
        assert_eq!(&*back, &ts[..], "len {len}");
    }
    assert_eq!(&*TokenBatch::single(9), &[9]);
    let msg = AckFloodMsg::Tokens(TokenBatch::from_slice(&[5, 42]));
    assert_eq!(serde_json::to_string(&msg).unwrap(), "{\"Tokens\":[5,42]}");
    let msg = AckFloodMsg::Ack(TokenBatch::from_slice(&[]));
    assert_eq!(serde_json::to_string(&msg).unwrap(), "{\"Ack\":[]}");
}

#[test]
fn a_clone_of_a_spilled_batch_shares_its_buffer() {
    let long = TokenBatch::from_slice(&tokens(4096));
    assert!(std::ptr::eq(long.as_ptr(), long.clone().as_ptr()));
    // An inline batch is its own storage: a clone is a copy of the message.
    let short = TokenBatch::single(7);
    assert!(!std::ptr::eq(short.as_ptr(), short.clone().as_ptr()));
}

/// One entry no token can be.
fn hostile_entry(kind: u8, x: u64) -> Value {
    match kind % 6 {
        0 => Value::Object(vec![("t".to_string(), Value::UInt(x))]),
        1 => Value::Array(vec![Value::UInt(x)]),
        2 => Value::Float((x % 1000) as f64 + 0.5),
        3 => Value::Int(-1 - (x >> 1) as i64),
        4 => Value::Str(x.to_string()),
        _ => Value::Null,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An array of unsigned integers of any length binds to exactly itself.
    #[test]
    fn honest_arrays_bind_whole(ts in prop::collection::vec(any::<u64>(), 0..40)) {
        let body = ts.to_value();
        prop_assert_eq!(&*TokenBatch::deserialize(&body).unwrap(), &ts[..]);
        let tagged = Value::Object(vec![("Ack".to_string(), body)]);
        match AckFloodMsg::deserialize(&tagged) {
            Ok(AckFloodMsg::Ack(back)) => prop_assert_eq!(&*back, &ts[..]),
            other => prop_assert!(false, "bound to {other:?}"),
        }
    }

    /// One hostile entry anywhere in an otherwise honest array — or a body
    /// that is no array at all, or an unknown tag — is a `DeError`.
    #[test]
    fn hostile_bodies_are_typed_errors(
        ts in prop::collection::vec(any::<u64>(), 0..40),
        at in 0usize..40,
        kind in any::<u8>(),
        x in any::<u64>(),
    ) {
        let mut items: Vec<Value> = ts.iter().map(|&t| Value::UInt(t)).collect();
        let at = at.min(items.len());
        items.insert(at, hostile_entry(kind, x));
        let body = Value::Array(items);
        prop_assert!(TokenBatch::deserialize(&body).is_err());
        // The entry alone as the body: no array at all, unless it is the
        // nested-array kind, which alone is an honest one-token batch.
        let bare = hostile_entry(kind, x);
        if bare.as_array().is_none() {
            prop_assert!(TokenBatch::deserialize(&bare).is_err());
        }
        for tag in ["Tokens", "Ack"] {
            let tagged = Value::Object(vec![(tag.to_string(), body.clone())]);
            prop_assert!(AckFloodMsg::deserialize(&tagged).is_err());
        }
        let unknown = Value::Object(vec![("Token".to_string(), ts.to_value())]);
        prop_assert!(AckFloodMsg::deserialize(&unknown).is_err());
        prop_assert!(AckFloodMsg::deserialize(&ts.to_value()).is_err());
    }
}

/// Longer than any length field narrower than `usize` could hold: the batch
/// spills whole, and one bad entry at its far end still fails it.
#[test]
fn a_70_000_element_array_spills_whole_or_fails_whole() {
    let ts: Vec<u64> = (0..70_000).collect();
    let mut body = ts.to_value();
    let batch = TokenBatch::deserialize(&body).unwrap();
    assert_eq!(batch.len(), 70_000);
    assert_eq!(&*batch, &ts[..]);
    let Value::Array(items) = &mut body else {
        unreachable!("a Vec renders as an array");
    };
    items[69_999] = Value::Int(-1);
    assert!(TokenBatch::deserialize(&body).is_err());
}
