//! The transport contract between node programs and engines.
//!
//! The in-process [`Executor`](crate::engine::Executor) moves program
//! messages by value — no serialization anywhere on that path.  The
//! networked runtime (`hybrid-node` / `hybrid-driver`) moves the *same*
//! messages as length-framed JSON envelopes `{src, dst, round, body}` over
//! sockets.  [`Body`] is the bound that makes one program type work
//! unmodified in both worlds: any `Clone + Serialize + DeserializeOwned`
//! message type qualifies automatically, so in-process programs pay nothing
//! and networked programs get a wire format for free.
//!
//! [`RoundTrace`]/[`TraceEntry`] are the conformance contract: both engines
//! can record, per sending round, the exact ordered list of delivered
//! messages (payloads rendered as canonical compact JSON).  Two runs are
//! considered equivalent iff their traces are bit-identical — the networked
//! conformance tests diff these against the in-process engine.

use hybrid_graph::NodeId;

use serde::{DeError, Deserialize, DeserializeOwned, JsonWriter, Serialize, Value};

/// Bound on program message types making them transportable.
///
/// Blanket-implemented: any `Clone + Serialize + DeserializeOwned` type is a
/// `Body`.  The in-process engine never serializes (zero-copy fast path);
/// the networked runtime converts bodies to and from JSON [`Value`] trees at
/// the process boundary.
pub trait Body: Clone + Serialize + DeserializeOwned {}

impl<T: Clone + Serialize + DeserializeOwned> Body for T {}

/// A routed message as it crosses a process boundary: sender, receiver, a
/// round stamp, and the payload.
///
/// `round` is informational — whoever frames the envelope stamps it, and no
/// consumer reads it.  A node stamps its sending round on what it sends; the
/// [`RoundRouter`](crate::router::RoundRouter) keeps only `(src, dst, body)`,
/// so the driver stamps a delivery into round `r` with `r - 1`: the round
/// whose routing pass delivered it, which for a fault-delayed message is
/// later than the round it was first sent in.
///
/// Serializes as the wire object `{"src": …, "dst": …, "round": …,
/// "body": …}`.  The serde impls are hand-written because the vendored
/// derive macro does not handle generic types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<B> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Sending round as stamped by the framing side (init pass = round 0).
    pub round: u64,
    /// Program payload.
    pub body: B,
}

impl<B: Serialize> Serialize for Envelope<B> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("src".to_string(), self.src.to_value()),
            ("dst".to_string(), self.dst.to_value()),
            ("round".to_string(), self.round.to_value()),
            ("body".to_string(), self.body.to_value()),
        ])
    }

    fn write_json(&self, w: &mut JsonWriter) {
        let mut object = w.object();
        object.field("src", &self.src);
        object.field("dst", &self.dst);
        object.field("round", &self.round);
        object.field("body", &self.body);
        object.end();
    }
}

impl<'de, B: Deserialize<'de>> Deserialize<'de> for Envelope<B> {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| DeError(format!("missing field `{key}` in envelope")))
        };
        Ok(Envelope {
            src: NodeId::deserialize(field("src")?)?,
            dst: NodeId::deserialize(field("dst")?)?,
            round: u64::deserialize(field("round")?)?,
            body: B::deserialize(field("body")?)?,
        })
    }
}

/// One delivered message in a [`RoundTrace`]: the payload is rendered as
/// compact JSON (`serde_json::to_string`'s text) so traces from different
/// transports compare bit-for-bit — a [`Value`] body (the wire's) renders to
/// the same text as the typed message it was read from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload as canonical compact JSON.
    pub body: String,
}

/// The delivered messages of one round, in the engine's deterministic
/// delivery order (destination-major, then staging sequence).
///
/// `round` is the *sending* round: the init pass is round 0, and the
/// messages recorded under round `r` are the ones programs see at the start
/// of round `r + 1`.  Messages dropped by the γ receive cap are not traced —
/// only what was actually delivered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Sending round of every message below.
    pub round: u64,
    /// Delivered local messages.
    pub local: Vec<TraceEntry>,
    /// Delivered global messages (after the γ receive cap).
    pub global: Vec<TraceEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_through_json() {
        let env = Envelope {
            src: 3,
            dst: 7,
            round: 12,
            body: vec![1u64, u64::MAX],
        };
        let text = serde_json::to_string(&env).unwrap();
        assert_eq!(
            text,
            "{\"src\":3,\"dst\":7,\"round\":12,\"body\":[1,18446744073709551615]}"
        );
        let back: Envelope<Vec<u64>> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn envelope_missing_field_is_a_typed_error() {
        let bad = serde_json::from_str::<Envelope<u64>>("{\"src\":1,\"dst\":2,\"round\":0}");
        assert!(bad.is_err());
    }

    #[test]
    fn trace_types_round_trip() {
        let trace = RoundTrace {
            round: 4,
            local: vec![TraceEntry {
                src: 0,
                dst: 1,
                body: serde_json::to_string(&vec![9u64]).unwrap(),
            }],
            global: vec![],
        };
        let text = serde_json::to_string(&trace).unwrap();
        let back: RoundTrace = serde_json::from_str(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.local[0].body, "[9]");
    }
}
