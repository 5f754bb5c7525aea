//! The mutation vocabulary of the write-ahead log.
//!
//! One [`Op`] per engine-level mutation; one `Vec<Op>` per WAL record (=
//! per published epoch).  The encoding rides on
//! [`hilog_core::PayloadWriter`] — every record is a self-contained payload with its
//! own symbol and term tables, so records decode independently of each other
//! and of the process-global symbol pool.

use crate::error::StoreError;
use hilog_core::{PayloadReader, PayloadWriter, Rule, Term};
use std::fmt;

const OP_ASSERT_FACT: u8 = 0;
const OP_RETRACT_FACT: u8 = 1;
const OP_ASSERT_RULE: u8 = 2;
const OP_RETRACT_RULE: u8 = 3;

/// One logged mutation, mirroring the [`hilog_engine::DbWriter`] surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `DbWriter::assert_fact` — the fact must be ground (the live path
    /// validates before logging, so replay never sees a non-ground one from
    /// a well-formed log).
    AssertFact(Term),
    /// `DbWriter::retract_fact`.  Retracting an absent fact is a no-op on
    /// both the live and the replay path.
    RetractFact(Term),
    /// `DbWriter::assert_rule`.
    AssertRule(Rule),
    /// `DbWriter::retract_rule` — absent rules are a no-op, like facts.
    RetractRule(Rule),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::AssertFact(t) => write!(f, "assert fact {t}"),
            Op::RetractFact(t) => write!(f, "retract fact {t}"),
            Op::AssertRule(r) => write!(f, "assert rule {r}"),
            Op::RetractRule(r) => write!(f, "retract rule {r}"),
        }
    }
}

/// Encodes one WAL-record payload: the epoch the batch publishes, then the
/// operations in application order.
pub fn encode_batch(epoch: u64, ops: &[Op]) -> Vec<u8> {
    // A fact op is about three distinct terms: its own `App` and two new
    // argument symbols.
    let mut writer = PayloadWriter::with_capacity(3 * ops.len());
    writer.write_u64(epoch);
    writer.write_u32(ops.len() as u32);
    for op in ops {
        match op {
            Op::AssertFact(term) => {
                writer.write_u8(OP_ASSERT_FACT);
                writer.write_term(term);
            }
            Op::RetractFact(term) => {
                writer.write_u8(OP_RETRACT_FACT);
                writer.write_term(term);
            }
            Op::AssertRule(rule) => {
                writer.write_u8(OP_ASSERT_RULE);
                writer.write_rule(rule);
            }
            Op::RetractRule(rule) => {
                writer.write_u8(OP_RETRACT_RULE);
                writer.write_rule(rule);
            }
        }
    }
    writer.finish()
}

/// Decodes one WAL-record payload back into `(epoch, ops)`.
pub fn decode_batch(payload: &[u8]) -> Result<(u64, Vec<Op>), StoreError> {
    let mut reader = PayloadReader::new(payload)?;
    let epoch = reader.read_u64()?;
    // The smallest op is a fact: a tag and a term id.
    let count = reader.read_count(5)?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let op = match reader.read_u8()? {
            OP_ASSERT_FACT => Op::AssertFact(reader.read_term()?),
            OP_RETRACT_FACT => Op::RetractFact(reader.read_term()?),
            OP_ASSERT_RULE => Op::AssertRule(reader.read_rule()?),
            OP_RETRACT_RULE => Op::RetractRule(reader.read_rule()?),
            other => {
                return Err(StoreError::Corrupt(format!("unknown op tag {other}")));
            }
        };
        ops.push(op);
    }
    if !reader.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing byte(s) after the last op",
            reader.remaining()
        )));
    }
    Ok((epoch, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::fnv1a;
    use hilog_syntax::{parse_program, parse_term};

    fn term(s: &str) -> Term {
        parse_term(s).unwrap()
    }

    fn rule(s: &str) -> Rule {
        parse_program(s).unwrap().rules.remove(0)
    }

    #[test]
    fn batch_roundtrip() {
        let ops = vec![
            Op::AssertFact(term("edge(a, b)")),
            Op::RetractFact(term("edge(b, c)")),
            Op::AssertRule(rule("tc(G)(X, Y) :- G(X, Y).")),
            Op::RetractRule(rule("p(X) :- q(X), not r(X).")),
        ];
        let payload = encode_batch(42, &ops);
        let (epoch, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(decoded, ops);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let payload = encode_batch(7, &[]);
        let (epoch, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(epoch, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn an_op_count_the_payload_cannot_hold_is_an_error() {
        // Empty symbol and term tables, epoch 0, then `u32::MAX` ops: 20
        // bytes that once asked for a 275 GB `Vec<Op>`.
        let mut payload = vec![0u8; 20];
        payload[16..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch(&payload).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_batch(1, &[Op::AssertFact(term("p(a)"))]);
        payload.push(0);
        assert!(decode_batch(&payload).is_err());
    }

    #[test]
    fn a_fixed_batch_encodes_to_the_pinned_bytes() {
        // Facts, a HiLog name, ints, an arity-9 `App`, repeated subterms,
        // `not` / builtin / aggregate literals, and a rule over variables of
        // non-zero generation.
        let x2 = Term::Var(hilog_core::Var::new("X").with_generation(2));
        let renamed = Rule {
            head: Term::app(Term::sym("r"), vec![x2.clone()]),
            body: vec![hilog_core::Literal::Pos(Term::app(
                Term::sym("s"),
                vec![x2, Term::var("X")],
            ))],
        };
        let ops = vec![
            Op::AssertFact(term("edge(a, b)")),
            Op::AssertFact(term("edge(b, a)")),
            Op::AssertFact(term("tc(e1)(p0, p1)")),
            Op::AssertFact(term("cost(widget, 12, -3)")),
            Op::AssertFact(term("wide(1, 2, 3, 4, 5, 6, 7, 8, 9)")),
            Op::AssertFact(term("nest(f(a, b), f(a, b), g(f(a, b)))")),
            Op::RetractFact(term("edge(a, b)")),
            Op::AssertRule(rule("tc(G)(X, Y) :- G(X, Y), not blocked(X), T is X * 2.")),
            Op::AssertRule(rule("total(W, N) :- whole(W), N = sum(Q, parts(W, P, Q)).")),
            Op::RetractRule(renamed),
        ];
        let payload = encode_batch(0x00c0_ffee, &ops);
        // Captured from the structural writer this codec replaced.
        assert_eq!(
            (payload.len(), format!("{:016x}", fnv1a(&payload))),
            (924, "2dc09568f8863786".to_string()),
            "the batch bytes moved: {payload:02x?}"
        );
        assert_eq!(decode_batch(&payload).unwrap(), (0x00c0_ffee, ops));
    }
}
