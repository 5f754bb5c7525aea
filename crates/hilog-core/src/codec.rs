//! Stable binary serialization of interned symbols, terms and rules.
//!
//! The durable storage layer (`hilog-store`) persists mutation batches and
//! recovery points (segments, models, manifests).  Every such file is built
//! from the same *payload* format defined here:
//!
//! * a **symbol table** — every distinct symbol name appears once, referenced
//!   by a dense `u32` id;
//! * a **term table** — every distinct term appears once, tag-encoded, with
//!   child references pointing strictly at lower ids (so a single forward
//!   pass reconstructs the table and structure sharing survives the
//!   round-trip: `App` nodes that shared an `Arc` on the way in share one on
//!   the way out);
//! * a **body** of primitive fields and term/rule references written by the
//!   caller.
//!
//! Ids are *payload-local*: nothing in a file depends on the process-global
//! symbol pool, so the pool can be garbage-collected (see
//! [`crate::symbol::gc_symbol_pool`]) without remapping anything on disk.
//! Integrity is the container's job — [`crc32`] is provided for WAL records
//! and snapshot files to frame payloads with a checksum.
//!
//! All multi-byte integers are little-endian and fixed-width; the format
//! favours a dumb, obviously-correct decoder over compactness.

use crate::builtin::{BuiltinCall, BuiltinOp};
use crate::hash::TermMap;
use crate::literal::{Aggregate, AggregateFunc, Literal};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;
use std::sync::Arc;

/// A decoding failure: truncated input, an unknown tag, or a dangling
/// table reference.  Payloads are checksummed by their containers, so in
/// practice this indicates a logic error or a corrupted-but-lucky file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// Term-table entry tags.
const TAG_VAR: u8 = 0;
const TAG_SYM: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_APP: u8 = 3;

// Literal tags.
const LIT_POS: u8 = 0;
const LIT_NEG: u8 = 1;
const LIT_BUILTIN: u8 = 2;
const LIT_AGGREGATE: u8 = 3;

/// Computes the IEEE CRC-32 checksum of `data` (the polynomial used by
/// gzip/zip).  Containers frame every payload with this.
pub fn crc32(data: &[u8]) -> u32 {
    // Small table built on demand; the cost is dwarfed by I/O.
    fn table() -> &'static [u32; 256] {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = [0u32; 256];
            for (i, entry) in table.iter_mut().enumerate() {
                let mut crc = i as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
                *entry = crc;
            }
            table
        })
    }
    let table = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Key for the writer's term-dedup map.  Terms are compared structurally,
/// which merges duplicated subtrees even when the in-memory `Arc`s differ;
/// the reader then rebuilds them shared.
type TermKey = Term;

/// Builds one payload: interns symbols and terms into payload-local tables
/// while the caller writes primitive fields and term/rule references into
/// the body.  [`PayloadWriter::finish`] lays out
/// `[symbol table][term table][body]`.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    symbol_ids: TermMap<Symbol, u32>,
    symbol_table: Vec<Symbol>,
    term_ids: TermMap<TermKey, u32>,
    term_table: Vec<u8>,
    term_count: u32,
    body: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    fn intern_symbol(&mut self, symbol: &Symbol) -> u32 {
        if let Some(&id) = self.symbol_ids.get(symbol) {
            return id;
        }
        let id = self.symbol_table.len() as u32;
        self.symbol_ids.insert(symbol.clone(), id);
        self.symbol_table.push(symbol.clone());
        id
    }

    /// Interns `term` (and, recursively, its subterms) into the term table
    /// and returns its payload-local id.
    fn intern_term(&mut self, term: &Term) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        // Children first: every reference in a table entry points at a
        // strictly smaller id, which is what lets the reader decode in one
        // forward pass.
        let entry = match term {
            Term::Var(var) => {
                let name = self.intern_symbol(&Symbol::new(var.name()));
                let mut entry = vec![TAG_VAR];
                entry.extend_from_slice(&name.to_le_bytes());
                entry.extend_from_slice(&var.generation().to_le_bytes());
                entry
            }
            Term::Sym(symbol) => {
                let sid = self.intern_symbol(symbol);
                let mut entry = vec![TAG_SYM];
                entry.extend_from_slice(&sid.to_le_bytes());
                entry
            }
            Term::Int(value) => {
                let mut entry = vec![TAG_INT];
                entry.extend_from_slice(&value.to_le_bytes());
                entry
            }
            Term::App(name, args) => {
                let name_id = self.intern_term(name);
                let arg_ids: Vec<u32> = args.iter().map(|a| self.intern_term(a)).collect();
                let mut entry = vec![TAG_APP];
                entry.extend_from_slice(&name_id.to_le_bytes());
                entry.extend_from_slice(&(arg_ids.len() as u32).to_le_bytes());
                for id in arg_ids {
                    entry.extend_from_slice(&id.to_le_bytes());
                }
                entry
            }
        };
        let id = self.term_count;
        self.term_count += 1;
        self.term_table.extend_from_slice(&entry);
        self.term_ids.insert(term.clone(), id);
        id
    }

    /// Writes a single byte into the body.
    pub fn write_u8(&mut self, value: u8) {
        self.body.push(value);
    }

    /// Writes a `u32` into the body.
    pub fn write_u32(&mut self, value: u32) {
        self.body.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a `u64` into the body.
    pub fn write_u64(&mut self, value: u64) {
        self.body.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes an `i64` into the body.
    pub fn write_i64(&mut self, value: i64) {
        self.body.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a term reference into the body (interning the term).
    pub fn write_term(&mut self, term: &Term) {
        let id = self.intern_term(term);
        self.body.extend_from_slice(&id.to_le_bytes());
    }

    /// Writes a literal into the body.
    pub fn write_literal(&mut self, literal: &Literal) {
        match literal {
            Literal::Pos(atom) => {
                self.write_u8(LIT_POS);
                self.write_term(atom);
            }
            Literal::Neg(atom) => {
                self.write_u8(LIT_NEG);
                self.write_term(atom);
            }
            Literal::Builtin(call) => {
                self.write_u8(LIT_BUILTIN);
                self.write_u8(builtin_op_tag(call.op));
                self.write_term(&call.left);
                self.write_term(&call.right);
            }
            Literal::Aggregate(agg) => {
                self.write_u8(LIT_AGGREGATE);
                self.write_u8(aggregate_func_tag(agg.func));
                self.write_term(&agg.result);
                self.write_term(&agg.value);
                self.write_term(&agg.pattern);
            }
        }
    }

    /// Writes a rule (head term + literal list) into the body.
    pub fn write_rule(&mut self, rule: &Rule) {
        self.write_term(&rule.head);
        self.write_u32(rule.body.len() as u32);
        for literal in &rule.body {
            self.write_literal(literal);
        }
    }

    /// Lays the payload out as `[symbol table][term table][body]` bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.term_table.len() + self.body.len() + 64);
        out.extend_from_slice(&(self.symbol_table.len() as u32).to_le_bytes());
        for symbol in &self.symbol_table {
            let bytes = symbol.name().as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&self.term_count.to_le_bytes());
        out.extend_from_slice(&self.term_table);
        out.extend_from_slice(&self.body);
        out
    }
}

fn builtin_op_tag(op: BuiltinOp) -> u8 {
    match op {
        BuiltinOp::Is => 0,
        BuiltinOp::ArithEq => 1,
        BuiltinOp::ArithNeq => 2,
        BuiltinOp::Lt => 3,
        BuiltinOp::Le => 4,
        BuiltinOp::Gt => 5,
        BuiltinOp::Ge => 6,
        BuiltinOp::Eq => 7,
        BuiltinOp::Neq => 8,
    }
}

fn builtin_op_from_tag(tag: u8) -> Result<BuiltinOp, CodecError> {
    Ok(match tag {
        0 => BuiltinOp::Is,
        1 => BuiltinOp::ArithEq,
        2 => BuiltinOp::ArithNeq,
        3 => BuiltinOp::Lt,
        4 => BuiltinOp::Le,
        5 => BuiltinOp::Gt,
        6 => BuiltinOp::Ge,
        7 => BuiltinOp::Eq,
        8 => BuiltinOp::Neq,
        other => return err(format!("unknown builtin op tag {other}")),
    })
}

fn aggregate_func_tag(func: AggregateFunc) -> u8 {
    match func {
        AggregateFunc::Sum => 0,
        AggregateFunc::Count => 1,
        AggregateFunc::Min => 2,
        AggregateFunc::Max => 3,
    }
}

fn aggregate_func_from_tag(tag: u8) -> Result<AggregateFunc, CodecError> {
    Ok(match tag {
        0 => AggregateFunc::Sum,
        1 => AggregateFunc::Count,
        2 => AggregateFunc::Min,
        3 => AggregateFunc::Max,
        other => return err(format!("unknown aggregate func tag {other}")),
    })
}

/// Decodes one payload produced by [`PayloadWriter`]: the constructor parses
/// the symbol and term tables, then the caller reads the body back in the
/// order it was written.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    data: &'a [u8],
    pos: usize,
    terms: Vec<Term>,
}

impl<'a> PayloadReader<'a> {
    /// Parses the symbol and term tables at the head of `data`, leaving the
    /// cursor at the start of the body.
    pub fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        let mut reader = PayloadReader {
            data,
            pos: 0,
            terms: Vec::new(),
        };
        let symbol_count = reader.read_u32()? as usize;
        let mut symbols = Vec::with_capacity(symbol_count);
        for _ in 0..symbol_count {
            let len = reader.read_u32()? as usize;
            let bytes = reader.take(len)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| CodecError("symbol name is not UTF-8".into()))?;
            symbols.push(Symbol::new(name));
        }
        let term_count = reader.read_u32()? as usize;
        reader.terms.reserve(term_count);
        for id in 0..term_count {
            let term = reader.read_term_entry(id, &symbols)?;
            reader.terms.push(term);
        }
        Ok(reader)
    }

    fn read_term_entry(&mut self, id: usize, symbols: &[Symbol]) -> Result<Term, CodecError> {
        let tag = self.read_u8()?;
        match tag {
            TAG_VAR => {
                let name = self.read_u32()? as usize;
                let generation = self.read_u32()?;
                let symbol = symbols
                    .get(name)
                    .ok_or_else(|| CodecError(format!("dangling symbol id {name}")))?;
                let var = Var::new(symbol.name()).with_generation(generation);
                Ok(Term::Var(var))
            }
            TAG_SYM => {
                let sid = self.read_u32()? as usize;
                let symbol = symbols
                    .get(sid)
                    .ok_or_else(|| CodecError(format!("dangling symbol id {sid}")))?;
                Ok(Term::Sym(symbol.clone()))
            }
            TAG_INT => Ok(Term::Int(self.read_i64()?)),
            TAG_APP => {
                let name_id = self.read_u32()? as usize;
                let argc = self.read_u32()? as usize;
                if name_id >= id {
                    return err(format!("term {id} references forward term {name_id}"));
                }
                let name = Arc::new(self.terms[name_id].clone());
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    let arg_id = self.read_u32()? as usize;
                    if arg_id >= id {
                        return err(format!("term {id} references forward term {arg_id}"));
                    }
                    args.push(self.terms[arg_id].clone());
                }
                Ok(Term::App(name, Arc::from(args)))
            }
            other => err(format!("unknown term tag {other}")),
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.data.len() - self.pos < len {
            return err("payload truncated");
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte from the body.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` from the body.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` from the body.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64` from the body.
    pub fn read_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a term reference from the body.
    pub fn read_term(&mut self) -> Result<Term, CodecError> {
        let id = self.read_u32()? as usize;
        self.terms
            .get(id)
            .cloned()
            .ok_or_else(|| CodecError(format!("dangling term id {id}")))
    }

    /// Reads a literal from the body.
    pub fn read_literal(&mut self) -> Result<Literal, CodecError> {
        match self.read_u8()? {
            LIT_POS => Ok(Literal::Pos(self.read_term()?)),
            LIT_NEG => Ok(Literal::Neg(self.read_term()?)),
            LIT_BUILTIN => {
                let op = builtin_op_from_tag(self.read_u8()?)?;
                let left = self.read_term()?;
                let right = self.read_term()?;
                Ok(Literal::Builtin(BuiltinCall { op, left, right }))
            }
            LIT_AGGREGATE => {
                let func = aggregate_func_from_tag(self.read_u8()?)?;
                let result = self.read_term()?;
                let value = self.read_term()?;
                let pattern = self.read_term()?;
                Ok(Literal::Aggregate(Aggregate {
                    func,
                    result,
                    value,
                    pattern,
                }))
            }
            other => err(format!("unknown literal tag {other}")),
        }
    }

    /// Reads a rule from the body.
    pub fn read_rule(&mut self) -> Result<Rule, CodecError> {
        let head = self.read_term()?;
        let len = self.read_u32()? as usize;
        let mut body = Vec::with_capacity(len);
        for _ in 0..len {
            body.push(self.read_literal()?);
        }
        Ok(Rule { head, body })
    }

    /// Bytes of body left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` once the whole body has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &str, args: Vec<Term>) -> Term {
        Term::App(Arc::new(Term::Sym(Symbol::new(name))), Arc::from(args))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_terms() {
        let terms = vec![
            Term::Sym(Symbol::new("a")),
            Term::Int(-42),
            Term::Var(Var::new("X")),
            Term::Var(Var::new("X").with_generation(3)),
            app(
                "edge",
                vec![Term::Sym(Symbol::new("a")), Term::Sym(Symbol::new("b"))],
            ),
            // Higher-order: a term in predicate position.
            Term::App(
                Arc::new(app("tc", vec![Term::Sym(Symbol::new("edge"))])),
                Arc::from(vec![Term::Var(Var::new("X")), Term::Int(7)]),
            ),
        ];
        let mut writer = PayloadWriter::new();
        writer.write_u32(terms.len() as u32);
        for term in &terms {
            writer.write_term(term);
        }
        let bytes = writer.finish();
        let mut reader = PayloadReader::new(&bytes).unwrap();
        let count = reader.read_u32().unwrap() as usize;
        let decoded: Vec<Term> = (0..count).map(|_| reader.read_term().unwrap()).collect();
        assert_eq!(decoded, terms);
        assert!(reader.is_empty());
    }

    #[test]
    fn roundtrip_preserves_structure_sharing() {
        let shared = app("f", vec![Term::Int(1), Term::Int(2)]);
        let outer = app("g", vec![shared.clone(), shared.clone()]);
        let mut writer = PayloadWriter::new();
        writer.write_term(&outer);
        let bytes = writer.finish();
        let mut reader = PayloadReader::new(&bytes).unwrap();
        let decoded = reader.read_term().unwrap();
        assert_eq!(decoded, outer);
        // Both children decode to structurally equal terms; the term table
        // stores the shared subtree once (one entry for f, 1, 2, f(1,2), g
        // node = 6 entries total incl. symbols' Sym terms).
        match decoded {
            Term::App(_, args) => assert_eq!(args[0], args[1]),
            other => panic!("expected App, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_rules_all_literal_kinds() {
        // Build a rule exercising every literal variant by hand.
        let head = app(
            "p",
            vec![Term::Var(Var::new("X")), Term::Var(Var::new("S"))],
        );
        let rule = Rule {
            head,
            body: vec![
                Literal::Pos(app("q", vec![Term::Var(Var::new("X"))])),
                Literal::Neg(app("r", vec![Term::Var(Var::new("X"))])),
                Literal::Builtin(BuiltinCall {
                    op: BuiltinOp::Lt,
                    left: Term::Var(Var::new("X")),
                    right: Term::Int(10),
                }),
                Literal::Aggregate(Aggregate {
                    func: AggregateFunc::Sum,
                    result: Term::Var(Var::new("S")),
                    value: Term::Var(Var::new("V")),
                    pattern: app(
                        "cost",
                        vec![Term::Var(Var::new("X")), Term::Var(Var::new("V"))],
                    ),
                }),
            ],
        };
        let mut writer = PayloadWriter::new();
        writer.write_rule(&rule);
        let bytes = writer.finish();
        let mut reader = PayloadReader::new(&bytes).unwrap();
        assert_eq!(reader.read_rule().unwrap(), rule);
        assert!(reader.is_empty());
    }

    #[test]
    fn all_builtin_ops_roundtrip() {
        for op in [
            BuiltinOp::Is,
            BuiltinOp::ArithEq,
            BuiltinOp::ArithNeq,
            BuiltinOp::Lt,
            BuiltinOp::Le,
            BuiltinOp::Gt,
            BuiltinOp::Ge,
            BuiltinOp::Eq,
            BuiltinOp::Neq,
        ] {
            assert_eq!(builtin_op_from_tag(builtin_op_tag(op)).unwrap(), op);
        }
        for func in [
            AggregateFunc::Sum,
            AggregateFunc::Count,
            AggregateFunc::Min,
            AggregateFunc::Max,
        ] {
            assert_eq!(
                aggregate_func_from_tag(aggregate_func_tag(func)).unwrap(),
                func
            );
        }
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut writer = PayloadWriter::new();
        writer.write_term(&app("edge", vec![Term::Int(1), Term::Int(2)]));
        let bytes = writer.finish();
        for cut in 0..bytes.len() {
            // Every prefix either fails to parse or fails to read the term;
            // none may panic.
            if let Ok(mut reader) = PayloadReader::new(&bytes[..cut]) {
                let _ = reader.read_term();
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        // Symbol table: 0 symbols, term table: 1 term with bogus tag 9.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(9);
        assert!(PayloadReader::new(&bytes).is_err());
    }
}
