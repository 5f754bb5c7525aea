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
//!
//! ## Interning by entry bytes
//!
//! The writer never hashes, compares or clones a [`Term`].  It interns
//! bottom-up: the children of a term first, then the term's own *entry* —
//! its tag and the ids it refers to (`Var`: name symbol id + generation;
//! `Sym`: symbol id; `Int`: the value; `App`: name term id, argument count,
//! argument ids) — written at the end of the term table and looked up by
//! those bytes.  Because every child is already deduplicated, two terms are
//! structurally equal exactly when their entries are byte-equal (induction
//! on the term: equal children got equal ids, unequal ones different ids),
//! so the lookup merges the same subtrees the structural comparison did and
//! hands out the same ids in the same order.  A hit cuts the entry off the
//! table again; a miss keeps it as the next id.  `Sym` entries skip the
//! lookup: their id is cached per symbol id.
//!
//! The reader allocates once per term: the `Arc` of an `App`'s name is
//! built once per name id and shared by every `App` that names it, and an
//! argument slice is collected straight from its validated ids.
//!
//! ## Counts are checked before anything is allocated
//!
//! Every count the reader takes from a payload (symbols, terms, arguments,
//! rule body literals, and the counts its callers read with
//! [`PayloadReader::read_count`]) is rejected when its items could not fit
//! in the bytes that remain, so a corrupt or hostile length is a
//! [`CodecError`], never an allocation the size of the `u32`.

use crate::builtin::{BuiltinCall, BuiltinOp};
use crate::hash::TermMap;
use crate::literal::{Aggregate, AggregateFunc, Literal};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// A decoding failure: truncated input, an unknown tag, a dangling table
/// reference, or a count the remaining bytes cannot hold.  Payloads are
/// checksummed by their containers, so in practice this indicates a logic
/// error or a corrupted-but-lucky file.
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

/// The smallest term-table entry: a `Sym` (tag + symbol id).
const MIN_ENTRY_BYTES: usize = 5;

// Literal tags.
const LIT_POS: u8 = 0;
const LIT_NEG: u8 = 1;
const LIT_BUILTIN: u8 = 2;
const LIT_AGGREGATE: u8 = 3;

/// The smallest literal: a tag and one term id.
const MIN_LITERAL_BYTES: usize = 5;

/// The reflected IEEE polynomial (gzip, zip, PNG).
const CRC_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
}

/// Computes the IEEE CRC-32 checksum of `data` (the polynomial used by
/// gzip/zip).  Containers frame every payload with this.  Eight bytes per
/// step (slicing-by-8), the tail a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// "No id": an empty `sym_terms` slot, the end of a `chain`.
const NONE: u32 = u32::MAX;

/// Argument ids of an `App` are gathered on the stack up to this arity.
const INLINE_ARGS: usize = 8;

/// The bits of an entry hash the lookup keys on.  This crate's own tests
/// keep four, so entries collide all the time and the tests that hold the
/// writer to its structural oracle walk the collision chains too.
const ENTRY_HASH_MASK: u64 = if cfg!(test) { 0xF } else { u64::MAX };

/// Builds one payload: interns symbols and terms into payload-local tables
/// while the caller writes primitive fields and term/rule references into
/// the body.  [`PayloadWriter::finish`] lays out
/// `[symbol table][term table][body]`.  Terms are interned by their entry
/// bytes (see the module docs).
#[derive(Debug, Default)]
pub struct PayloadWriter {
    symbol_ids: TermMap<Symbol, u32>,
    symbol_table: Vec<Symbol>,
    /// Per symbol id: the term id of `Term::Sym` of it, or [`NONE`].
    sym_terms: Vec<u32>,
    /// Hash of a non-`Sym` entry's bytes → the newest term id with that hash.
    entry_ids: TermMap<u64, u32>,
    /// Per term id: the next older id whose entry hashes the same, or
    /// [`NONE`].
    chain: Vec<u32>,
    /// Per term id: where its entry starts in `term_table`.
    offsets: Vec<u32>,
    term_table: Vec<u8>,
    body: Vec<u8>,
}

impl PayloadWriter {
    /// Creates an empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// Creates an empty payload sized for about `terms` distinct terms, so
    /// a large one (a WAL batch, a segment) grows its tables once.
    pub fn with_capacity(terms: usize) -> Self {
        let symbols = terms / 2;
        PayloadWriter {
            symbol_ids: TermMap::with_capacity_and_hasher(symbols, Default::default()),
            symbol_table: Vec::with_capacity(symbols),
            sym_terms: Vec::with_capacity(symbols),
            entry_ids: TermMap::with_capacity_and_hasher(terms, Default::default()),
            chain: Vec::with_capacity(terms),
            offsets: Vec::with_capacity(terms),
            // A binary `App` entry is 17 bytes, a `Sym` entry 5.
            term_table: Vec::with_capacity(terms * 16),
            body: Vec::new(),
        }
    }

    fn intern_symbol(&mut self, symbol: &Symbol) -> u32 {
        if let Some(&id) = self.symbol_ids.get(symbol) {
            return id;
        }
        let id = self.symbol_table.len() as u32;
        self.symbol_ids.insert(symbol.clone(), id);
        self.symbol_table.push(symbol.clone());
        self.sym_terms.push(NONE);
        id
    }

    /// Interns `term` (and, first, its subterms) into the term table and
    /// returns its payload-local id.
    fn intern_term(&mut self, term: &Term) -> u32 {
        // Children first: every reference in a table entry points at a
        // strictly smaller id, which is what lets the reader decode in one
        // forward pass.
        match term {
            Term::Var(var) => {
                let name = self.intern_symbol(var.symbol());
                let start = self.term_table.len();
                self.term_table.push(TAG_VAR);
                self.term_table.extend_from_slice(&name.to_le_bytes());
                self.term_table
                    .extend_from_slice(&var.generation().to_le_bytes());
                self.commit_entry(start)
            }
            Term::Sym(symbol) => {
                let sid = self.intern_symbol(symbol);
                let cached = self.sym_terms[sid as usize];
                if cached != NONE {
                    return cached;
                }
                let id = self.offsets.len() as u32;
                self.offsets.push(self.term_table.len() as u32);
                self.chain.push(NONE);
                self.term_table.push(TAG_SYM);
                self.term_table.extend_from_slice(&sid.to_le_bytes());
                self.sym_terms[sid as usize] = id;
                id
            }
            Term::Int(value) => {
                let start = self.term_table.len();
                self.term_table.push(TAG_INT);
                self.term_table.extend_from_slice(&value.to_le_bytes());
                self.commit_entry(start)
            }
            Term::App(name, args) => {
                let name_id = self.intern_term(name);
                if args.len() <= INLINE_ARGS {
                    let mut ids = [0u32; INLINE_ARGS];
                    for (slot, arg) in ids.iter_mut().zip(args.iter()) {
                        *slot = self.intern_term(arg);
                    }
                    self.app_entry(name_id, &ids[..args.len()])
                } else {
                    let ids: Vec<u32> = args.iter().map(|arg| self.intern_term(arg)).collect();
                    self.app_entry(name_id, &ids)
                }
            }
        }
    }

    fn app_entry(&mut self, name_id: u32, arg_ids: &[u32]) -> u32 {
        let start = self.term_table.len();
        self.term_table.push(TAG_APP);
        self.term_table.extend_from_slice(&name_id.to_le_bytes());
        self.term_table
            .extend_from_slice(&(arg_ids.len() as u32).to_le_bytes());
        for id in arg_ids {
            self.term_table.extend_from_slice(&id.to_le_bytes());
        }
        self.commit_entry(start)
    }

    /// Deduplicates the entry just written at `start..` of the term table:
    /// an equal entry already in the table keeps its id and the new bytes
    /// are cut off; otherwise they stay, as the next id.
    fn commit_entry(&mut self, start: usize) -> u32 {
        let PayloadWriter {
            entry_ids,
            chain,
            offsets,
            term_table,
            ..
        } = self;
        let entry = &term_table[start..];
        let mut hasher = entry_ids.hasher().build_hasher();
        hasher.write(entry);
        let id = offsets.len() as u32;
        match entry_ids.entry(hasher.finish() & ENTRY_HASH_MASK) {
            Entry::Occupied(mut slot) => {
                let mut candidate = *slot.get();
                while candidate != NONE {
                    let at = offsets[candidate as usize] as usize;
                    // Every id in the table ends at or before `start`.
                    let end = offsets
                        .get(candidate as usize + 1)
                        .map_or(start, |&next| next as usize);
                    if &term_table[at..end] == entry {
                        term_table.truncate(start);
                        return candidate;
                    }
                    candidate = chain[candidate as usize];
                }
                chain.push(*slot.get());
                slot.insert(id);
            }
            Entry::Vacant(slot) => {
                chain.push(NONE);
                slot.insert(id);
            }
        }
        offsets.push(start as u32);
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
    fn write_literal(&mut self, literal: &Literal) {
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
        let names: usize = self.symbol_table.iter().map(|s| 4 + s.name().len()).sum();
        let mut out = Vec::with_capacity(8 + names + self.term_table.len() + self.body.len());
        out.extend_from_slice(&(self.symbol_table.len() as u32).to_le_bytes());
        for symbol in &self.symbol_table {
            let bytes = symbol.name().as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
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
        // A symbol is at least its length field.
        let symbol_count = reader.read_count(4)?;
        let mut symbols = Vec::with_capacity(symbol_count);
        for _ in 0..symbol_count {
            let len = reader.read_u32()? as usize;
            let bytes = reader.take(len)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| CodecError("symbol name is not UTF-8".into()))?;
            symbols.push(Symbol::new(name));
        }
        let term_count = reader.read_count(MIN_ENTRY_BYTES)?;
        reader.terms.reserve(term_count);
        // One `Arc` per term id used as an `App` name, shared by every `App`
        // that names it.
        let mut names: Vec<Option<Arc<Term>>> = Vec::new();
        for id in 0..term_count {
            let term = reader.read_term_entry(id, &symbols, &mut names)?;
            reader.terms.push(term);
        }
        Ok(reader)
    }

    fn read_term_entry(
        &mut self,
        id: usize,
        symbols: &[Symbol],
        names: &mut Vec<Option<Arc<Term>>>,
    ) -> Result<Term, CodecError> {
        let symbol = |sid: usize| {
            symbols
                .get(sid)
                .ok_or_else(|| CodecError(format!("dangling symbol id {sid}")))
        };
        let tag = self.read_u8()?;
        match tag {
            TAG_VAR => {
                let name = symbol(self.read_u32()? as usize)?;
                let generation = self.read_u32()?;
                Ok(Term::Var(Var::from_symbol(name.clone(), generation)))
            }
            TAG_SYM => Ok(Term::Sym(symbol(self.read_u32()? as usize)?.clone())),
            TAG_INT => Ok(Term::Int(self.read_i64()?)),
            TAG_APP => {
                let name_id = self.read_u32()? as usize;
                let argc = self.read_count(4)?;
                let arg_ids = self.take(argc * 4)?;
                let forward = std::iter::once(name_id)
                    .chain(arg_ids.chunks_exact(4).map(le_u32_at))
                    .find(|&child| child >= id);
                if let Some(child) = forward {
                    return err(format!("term {id} references forward term {child}"));
                }
                if names.len() <= name_id {
                    names.resize(name_id + 1, None);
                }
                let name = names[name_id]
                    .get_or_insert_with(|| Arc::new(self.terms[name_id].clone()))
                    .clone();
                let terms = &self.terms;
                let args: Arc<[Term]> = arg_ids
                    .chunks_exact(4)
                    .map(|arg| terms[le_u32_at(arg)].clone())
                    .collect();
                Ok(Term::App(name, args))
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

    /// Reads a `u32` count of items that each take at least `min_bytes`
    /// bytes, and rejects it when the rest of the payload cannot hold that
    /// many — before the caller allocates for them.
    pub fn read_count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let count = self.read_u32()? as usize;
        if count > self.remaining() / min_bytes.max(1) {
            return err(format!(
                "count {count} of {min_bytes}-byte items exceeds the {} byte(s) left",
                self.remaining()
            ));
        }
        Ok(count)
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
    fn read_literal(&mut self) -> Result<Literal, CodecError> {
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
        let len = self.read_count(MIN_LITERAL_BYTES)?;
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

/// The little-endian `u32` in a 4-byte chunk, as an index.
fn le_u32_at(chunk: &[u8]) -> usize {
    u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as usize
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

    /// FNV-1a (64-bit): a digest of pinned bytes that does not depend on
    /// the process.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One payload with every entry kind and literal kind: a HiLog fact
    /// `tc(e1)(p0, p1)`, an arity-9 `App` of ints, a subterm repeated inside
    /// one term and across the body, and a rule whose variables have
    /// non-zero generations, with `not`, a builtin and an aggregate.
    fn pinned_payload() -> Vec<u8> {
        let x3 = Term::Var(Var::new("X").with_generation(3));
        let y7 = Term::Var(Var::new("Y").with_generation(7));
        let tc_e1 = Arc::new(app("tc", vec![Term::sym("e1")]));
        let hilog_fact = Term::App(
            Arc::clone(&tc_e1),
            Arc::from(vec![Term::sym("p0"), Term::sym("p1")]),
        );
        let hilog_goal = Term::App(tc_e1, Arc::from(vec![Term::sym("p0"), Term::var("X")]));
        let wide = app("wide", (0..9).map(|i| Term::Int(i * 1000 - 4)).collect());
        let shared = app("f", vec![Term::Int(i64::MIN), Term::Int(i64::MAX)]);
        let repeated = app(
            "g",
            vec![shared.clone(), shared.clone(), app("h", vec![shared])],
        );
        let rule = Rule {
            head: app("p", vec![x3.clone(), y7.clone()]),
            body: vec![
                Literal::Pos(app("q", vec![x3.clone(), Term::var("X")])),
                Literal::Neg(hilog_goal),
                Literal::Builtin(BuiltinCall {
                    op: BuiltinOp::Ge,
                    left: y7.clone(),
                    right: Term::Int(-1),
                }),
                Literal::Aggregate(Aggregate {
                    func: AggregateFunc::Count,
                    result: y7,
                    value: x3.clone(),
                    pattern: app("cost", vec![x3, wide.clone()]),
                }),
            ],
        };
        let mut writer = PayloadWriter::new();
        writer.write_u64(0x0123_4567_89ab_cdef);
        writer.write_term(&hilog_fact);
        writer.write_term(&wide);
        writer.write_term(&repeated);
        writer.write_rule(&rule);
        writer.write_term(&hilog_fact);
        writer.write_i64(-5);
        writer.write_u8(9);
        writer.finish()
    }

    #[test]
    fn the_payload_format_is_pinned() {
        // Captured from the structural writer this one replaced.
        let bytes = pinned_payload();
        assert_eq!(
            (bytes.len(), format!("{:016x}", fnv1a(&bytes))),
            (542, "148264873bb27199".to_string()),
            "the payload bytes moved: {bytes:02x?}"
        );
    }

    #[test]
    fn a_symbol_count_the_payload_cannot_hold_is_an_error() {
        // `u32::MAX` symbols in 4 bytes: a 68.7 GB table to a reader that
        // trusted the count.
        assert!(PayloadReader::new(&[0xff; 4]).is_err());
    }

    #[test]
    fn a_term_count_the_payload_cannot_hold_is_an_error() {
        // No symbols, then `u32::MAX` terms.
        assert!(PayloadReader::new(&[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]).is_err());
    }

    #[test]
    fn an_argument_count_the_payload_cannot_hold_is_an_error() {
        // Terms `0` and an `App` named by it with `u32::MAX` arguments.
        let mut bytes = vec![0, 0, 0, 0, 2, 0, 0, 0, TAG_INT];
        bytes.extend_from_slice(&0i64.to_le_bytes());
        bytes.extend_from_slice(&[TAG_APP, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        assert!(PayloadReader::new(&bytes).is_err());
    }

    #[test]
    fn a_rule_length_the_payload_cannot_hold_is_an_error() {
        // One symbol `""`, its `Sym` term, then a rule: head 0 and
        // `u32::MAX` body literals.
        let mut bytes = vec![1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, TAG_SYM, 0, 0, 0, 0];
        bytes.extend_from_slice(&[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        let mut reader = PayloadReader::new(&bytes).unwrap();
        assert!(reader.read_rule().is_err());
    }

    /// CRC-32 one bit at a time, with no table: the reference the sliced
    /// tables are held to.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_reference_at_every_length_and_offset() {
        let data: Vec<u8> = (0..72u32)
            .map(|i| (i * 37 + 11) as u8 ^ (i >> 3) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "offset {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_reference_on_random_megabytes() {
        for seed in [1, 2] {
            let mut rng = Rng(seed);
            let data: Vec<u8> = (0..1 << 20).map(|_| rng.next() as u8).collect();
            assert_eq!(crc32(&data), crc32_reference(&data), "seed {seed}");
            assert_eq!(
                crc32(&data[3..]),
                crc32_reference(&data[3..]),
                "seed {seed}"
            );
        }
    }

    /// Randomized cases per property; `HILOG_CODEC_CASES` scales it (CI's
    /// recovery job runs 256).
    fn codec_cases() -> u64 {
        std::env::var("HILOG_CODEC_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// SplitMix64: a pinned seed gives the same case on every platform.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Small alphabets, so terms repeat within a payload; `X` is both a
    /// variable name and a symbol.
    const NAMES: [&str; 6] = ["X", "Y", "p", "edge", "tc", "é"];
    const INTS: [i64; 6] = [i64::MIN, -1, 0, 1, 1 << 40, i64::MAX];

    fn random_term(rng: &mut Rng, depth: usize) -> Term {
        match rng.below(if depth == 0 { 3 } else { 5 }) {
            0 => Term::Var(Var::new(NAMES[rng.below(2)]).with_generation(rng.below(3) as u32 * 7)),
            1 => Term::sym(NAMES[rng.below(NAMES.len())]),
            2 => Term::Int(INTS[rng.below(INTS.len())]),
            _ => {
                // A HiLog name one time in three; arity 9–11 one time in six.
                let name = if rng.below(3) == 0 {
                    random_term(rng, depth - 1)
                } else {
                    Term::sym(NAMES[2 + rng.below(NAMES.len() - 2)])
                };
                let arity = if rng.below(6) == 0 {
                    9 + rng.below(3)
                } else {
                    rng.below(4)
                };
                let args: Vec<Term> = (0..arity).map(|_| random_term(rng, depth - 1)).collect();
                Term::App(Arc::new(name), Arc::from(args))
            }
        }
    }

    fn random_literal(rng: &mut Rng) -> Literal {
        match rng.below(4) {
            0 => Literal::Pos(random_term(rng, 3)),
            1 => Literal::Neg(random_term(rng, 3)),
            2 => Literal::Builtin(BuiltinCall {
                op: builtin_op_from_tag(rng.below(9) as u8).unwrap(),
                left: random_term(rng, 2),
                right: random_term(rng, 2),
            }),
            _ => Literal::Aggregate(Aggregate {
                func: aggregate_func_from_tag(rng.below(4) as u8).unwrap(),
                result: random_term(rng, 1),
                value: random_term(rng, 1),
                pattern: random_term(rng, 3),
            }),
        }
    }

    /// The structural writer this codec replaced, kept as its byte oracle:
    /// it deduplicates terms in a map keyed by the whole term.
    #[derive(Default)]
    struct StructuralWriter {
        symbol_ids: TermMap<Symbol, u32>,
        symbol_table: Vec<Symbol>,
        term_ids: TermMap<Term, u32>,
        term_table: Vec<u8>,
        term_count: u32,
        body: Vec<u8>,
    }

    impl StructuralWriter {
        fn intern_symbol(&mut self, symbol: &Symbol) -> u32 {
            if let Some(&id) = self.symbol_ids.get(symbol) {
                return id;
            }
            let id = self.symbol_table.len() as u32;
            self.symbol_ids.insert(symbol.clone(), id);
            self.symbol_table.push(symbol.clone());
            id
        }

        fn intern_term(&mut self, term: &Term) -> u32 {
            if let Some(&id) = self.term_ids.get(term) {
                return id;
            }
            let mut entry = Vec::new();
            match term {
                Term::Var(var) => {
                    let name = self.intern_symbol(&Symbol::new(var.name()));
                    entry.push(TAG_VAR);
                    entry.extend_from_slice(&name.to_le_bytes());
                    entry.extend_from_slice(&var.generation().to_le_bytes());
                }
                Term::Sym(symbol) => {
                    let sid = self.intern_symbol(symbol);
                    entry.push(TAG_SYM);
                    entry.extend_from_slice(&sid.to_le_bytes());
                }
                Term::Int(value) => {
                    entry.push(TAG_INT);
                    entry.extend_from_slice(&value.to_le_bytes());
                }
                Term::App(name, args) => {
                    let name_id = self.intern_term(name);
                    let arg_ids: Vec<u32> = args.iter().map(|a| self.intern_term(a)).collect();
                    entry.push(TAG_APP);
                    entry.extend_from_slice(&name_id.to_le_bytes());
                    entry.extend_from_slice(&(arg_ids.len() as u32).to_le_bytes());
                    for id in arg_ids {
                        entry.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
            let id = self.term_count;
            self.term_count += 1;
            self.term_table.extend_from_slice(&entry);
            self.term_ids.insert(term.clone(), id);
            id
        }

        fn write_term(&mut self, term: &Term) {
            let id = self.intern_term(term);
            self.body.extend_from_slice(&id.to_le_bytes());
        }

        fn write_rule(&mut self, rule: &Rule) {
            self.write_term(&rule.head);
            self.body
                .extend_from_slice(&(rule.body.len() as u32).to_le_bytes());
            for literal in &rule.body {
                match literal {
                    Literal::Pos(atom) => {
                        self.body.push(LIT_POS);
                        self.write_term(atom);
                    }
                    Literal::Neg(atom) => {
                        self.body.push(LIT_NEG);
                        self.write_term(atom);
                    }
                    Literal::Builtin(call) => {
                        self.body
                            .extend_from_slice(&[LIT_BUILTIN, builtin_op_tag(call.op)]);
                        self.write_term(&call.left);
                        self.write_term(&call.right);
                    }
                    Literal::Aggregate(agg) => {
                        self.body
                            .extend_from_slice(&[LIT_AGGREGATE, aggregate_func_tag(agg.func)]);
                        self.write_term(&agg.result);
                        self.write_term(&agg.value);
                        self.write_term(&agg.pattern);
                    }
                }
            }
        }

        fn finish(self) -> Vec<u8> {
            let mut out = Vec::new();
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

    #[test]
    fn the_writer_matches_the_structural_oracle_on_random_terms_and_rules() {
        for case in 0..codec_cases() {
            let mut rng = Rng(0xc0de_c0de ^ case);
            let items: Vec<Result<Term, Rule>> = (0..1 + rng.below(24))
                .map(|_| match rng.below(3) {
                    0 => Err(Rule {
                        head: random_term(&mut rng, 3),
                        body: (0..rng.below(5))
                            .map(|_| random_literal(&mut rng))
                            .collect(),
                    }),
                    _ => Ok(random_term(&mut rng, 4)),
                })
                .collect();
            let mut writer = match case % 2 {
                0 => PayloadWriter::new(),
                _ => PayloadWriter::with_capacity(rng.below(64)),
            };
            let mut oracle = StructuralWriter::default();
            for item in &items {
                match item {
                    Ok(term) => {
                        writer.write_term(term);
                        oracle.write_term(term);
                    }
                    Err(rule) => {
                        writer.write_rule(rule);
                        oracle.write_rule(rule);
                    }
                }
            }
            let bytes = writer.finish();
            assert_eq!(bytes, oracle.finish(), "case {case}: {items:?}");
            let mut reader = PayloadReader::new(&bytes).unwrap();
            for item in &items {
                match item {
                    Ok(term) => assert_eq!(&reader.read_term().unwrap(), term, "case {case}"),
                    Err(rule) => assert_eq!(&reader.read_rule().unwrap(), rule, "case {case}"),
                }
            }
            assert!(reader.is_empty(), "case {case}");
        }
    }

    #[test]
    fn the_reader_shares_one_name_per_name_id() {
        let facts: Vec<Term> = (0..4)
            .map(|i| app("edge", vec![Term::Int(i), Term::Int(i + 1)]))
            .collect();
        let mut writer = PayloadWriter::new();
        for fact in &facts {
            writer.write_term(fact);
        }
        let bytes = writer.finish();
        let mut reader = PayloadReader::new(&bytes).unwrap();
        let decoded: Vec<Term> = facts.iter().map(|_| reader.read_term().unwrap()).collect();
        assert_eq!(decoded, facts);
        let name = |term: &Term| match term {
            Term::App(name, _) => Arc::clone(name),
            other => panic!("expected App, got {other:?}"),
        };
        assert!(decoded
            .iter()
            .all(|fact| Arc::ptr_eq(&name(fact), &name(&decoded[0]))));
    }
}
