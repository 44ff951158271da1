//! Per-model tables for the generated instruction tools, built once by
//! [`Model::build`](super::Model::build) (tool generation is a one-time
//! step per description, paper §4.1):
//!
//! * **decoder trial orders** — for every (operation, group) pair, the
//!   order in which a decoder tries the group's alternatives: non-alias
//!   operations before aliases, more fixed (discriminating) coding bits
//!   first, then declaration order;
//! * **syntax lead sets** — for every operation and every variant, the
//!   literal text its SYNTAX can begin with. An assembler skips a
//!   candidate whose lead set cannot match the statement's next
//!   non-blank text;
//! * **matcher tables** — every variant's SYNTAX compiled against its
//!   CODING ([`AsmVariant`], [`AsmElem`]): the constant sub-word the
//!   coding fixes (fixed bits, guard-pinned discriminators, single-member
//!   groups and reserved fields, all synthesized here), and for each
//!   syntax element the coding fields ([`Place`]) its value is ORed into.
//!   Operands over literal-only operations (predicates) become choices,
//!   and the candidates of a long group are keyed by leading literal, so
//!   an assembler binds a statement's operands straight into the
//!   instruction word without searching the whole group.
//!
//! A lead set looks through nullable elements: a `Pred` group whose
//! `pred_always` member has the empty syntax `""` contributes its other
//! members' literals *and* lets the following mnemonic lead too. A set
//! admits anything when a number or label can come first, or when the
//! whole syntax can match without consuming input. Pruning by lead sets
//! only removes candidates whose first consumed literal cannot match, so
//! assembly results and errors are unchanged.

use std::cmp::Reverse;
use std::collections::HashMap;

use super::{Coding, CodingTarget, OpId, Operation, SynElem};
use crate::ast::NumFormat;

/// The literals one operation or variant syntax can begin with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct LeadSet {
    /// Admits any input (number or label first, or nullable syntax).
    any: bool,
    /// Bitmap of the literals' first bytes, for a quick reject.
    first: [u64; 4],
    /// The literals: a range of [`ToolTables::lead_literals`].
    start: u32,
    end: u32,
}

/// Decoder trial orders, assembler syntax lead sets and matcher tables
/// of one model.
///
/// Every table is a flat arena indexed through per-operation offsets, so
/// generation makes a handful of allocations whatever the model size.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolTables {
    /// Interned leading literal chunks.
    literals: Vec<Box<str>>,
    /// Deduplicated indices into `literals`, one run per set.
    lead_literals: Vec<u32>,
    /// The first byte of each `lead_literals` entry's literal.
    lead_first: Vec<u8>,
    /// Per operation, the index of its first group in `group_ranges`.
    group_base: Vec<u32>,
    /// Per group, its range of `trial_orders`.
    group_ranges: Vec<(u32, u32)>,
    /// Decoder trial orders, groups in order.
    trial_orders: Vec<OpId>,
    /// The compiled syntax of every variant an assembler tries.
    matcher: Matcher,
}

impl ToolTables {
    /// Generates the tables for a model's resolved operations. Each
    /// operation's lead set is computed once and memoized, and every set
    /// is deduplicated in time linear in its size.
    #[must_use]
    pub fn generate(operations: &[Operation]) -> ToolTables {
        // Trial order: non-alias first, most fixed coding bits first,
        // stable on declaration order.
        let keys: Vec<(bool, Reverse<u32>)> = operations
            .iter()
            .map(|op| {
                let fixed = op
                    .variants
                    .iter()
                    .filter_map(|v| v.coding.as_ref())
                    .map(super::Coding::fixed_bits)
                    .max()
                    .unwrap_or(0);
                (op.alias, Reverse(fixed))
            })
            .collect();
        let mut group_base = Vec::with_capacity(operations.len());
        let mut group_ranges = Vec::new();
        let mut trial_orders = Vec::new();
        for op in operations {
            group_base.push(index(group_ranges.len()));
            for group in &op.groups {
                let start = trial_orders.len();
                trial_orders.extend_from_slice(&group.members);
                trial_orders[start..].sort_by_key(|m: &OpId| keys[m.0]);
                group_ranges.push((index(start), index(trial_orders.len())));
            }
        }

        let mut variant_base = Vec::with_capacity(operations.len());
        let mut variants = 0;
        for op in operations {
            variant_base.push(index(variants));
            variants += op.variants.len();
        }
        let mut leads = LeadBuilder {
            operations,
            visits: vec![Visit::Unvisited; operations.len()],
            op_leads: vec![LeadSet::default(); operations.len()],
            // A variant without syntax is never tried: it admits nothing.
            variant_leads: vec![LeadSet::default(); variants],
            variant_base: &variant_base,
            lead_literals: Vec::new(),
            scratch: Vec::new(),
            literals: Vec::new(),
            interned: HashMap::new(),
            first_bytes: Vec::new(),
            marks: Vec::new(),
            stamp: 0,
        };
        for op in 0..operations.len() {
            leads.op_first(OpId(op));
        }
        let matcher = MatcherBuilder::new(operations, &mut leads).build(&variant_base);
        let lead_first =
            leads.lead_literals.iter().map(|&l| leads.first_bytes[l as usize]).collect();
        ToolTables {
            literals: leads.literals,
            lead_literals: leads.lead_literals,
            lead_first,
            group_base,
            group_ranges,
            trial_orders,
            matcher,
        }
    }

    /// The decoder's trial order for group `group` of operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if the operation or group index does not belong to the
    /// model these tables were generated from.
    #[must_use]
    pub fn group_order(&self, op: OpId, group: usize) -> &[OpId] {
        let (start, end) = self.group_ranges[self.group_base[op.0] as usize + group];
        &self.trial_orders[start as usize..end as usize]
    }

    /// The compiled variants of `op` an assembler tries on `text`, in
    /// declaration order: those with a SYNTAX whose lead set can begin
    /// matching `text` (leading whitespace ignored), and whose coding
    /// fields all receive a value.
    #[inline]
    pub fn asm_variants<'t>(
        &'t self,
        op: OpId,
        text: &'t str,
    ) -> impl Iterator<Item = &'t AsmVariant> + 't {
        self.matcher.op_variants[op.0]
            .of(&self.matcher.variants)
            .iter()
            .filter(move |v| self.admits(&v.lead, text))
    }

    /// The compiled syntax elements of a variant or of its part.
    #[must_use]
    #[inline]
    pub fn asm_elems(&self, span: Span) -> &[AsmElem] {
        span.of(&self.matcher.elems)
    }

    /// The coding fields a compiled element's value goes into.
    #[must_use]
    #[inline]
    pub fn places(&self, span: Span) -> &[Place] {
        span.of(&self.matcher.places)
    }

    /// The forms of an [`AsmElem::Immediate`], one run per candidate
    /// operation, in member order.
    #[inline]
    pub fn immediate_forms(&self, span: Span) -> impl Iterator<Item = &[ImmForm]> + '_ {
        span.of(&self.matcher.form_sets).iter().map(|set| set.of(&self.matcher.forms))
    }

    /// The members of candidate list `list` (see [`AsmElem::Operand`])
    /// that can begin matching `text`, in member order.
    ///
    /// A long list is keyed by its members' leading literals in a trie:
    /// walking the text down it finds the members whose literal the text
    /// begins with. Where the members all begin with the same choice of
    /// literal-only alternatives (vliw62's `Pred`), they are keyed by what
    /// follows it, and the text is walked after each prefix that matches.
    #[must_use]
    #[inline]
    pub fn candidates<'t>(&'t self, list: u32, text: &'t str) -> Candidates<'t> {
        let m = &self.matcher;
        let list = &m.lists[list as usize];
        let text = &text[skip_whitespace(text, 0)..];
        let entries = list.entries.of(&m.entries);
        let scan = Candidates { tables: self, entries, text, found: None, next: 0 };
        let Some(trie) = list.trie else { return scan };
        let mut found = Found::default();
        found.extend(trie.any.of(&m.indices));
        let ends = match &list.prefix {
            Some(prefix) => match self.prefix_ends(prefix, text) {
                Some(ends) => ends,
                None => return scan,
            },
            None => PrefixEnds { ends: [0; MAX_PREFIX_ENDS], len: 1 },
        };
        // Walking at 0 also finds the prefixed members that would need an
        // empty prefix; trying one more member than needed is harmless.
        for &end in ends.iter().chain((ends.iter().all(|&e| e != 0)).then_some(&0)) {
            let mut node = trie.root;
            for &byte in &text.as_bytes()[skip_whitespace(text, end)..] {
                let edges = m.trie_nodes[node as usize].edges.of(&m.trie_edges);
                let Ok(at) = edges.binary_search_by_key(&byte, |&(b, _)| b) else { break };
                node = edges[at].1;
                found.extend(m.trie_nodes[node as usize].entries.of(&m.indices));
            }
        }
        if found.overflow {
            return scan;
        }
        found.indices[..found.len].sort_unstable();
        Candidates { found: Some(found), ..scan }
    }

    /// Where a statement can continue after one of a list's prefix
    /// alternatives (`None` when more than [`MAX_PREFIX_ENDS`] distinct
    /// places).
    fn prefix_ends(&self, prefix: &Prefix, text: &str) -> Option<PrefixEnds> {
        let mut ends = PrefixEnds::default();
        if prefix.nullable {
            ends.push(0)?;
        }
        // Only a non-empty alternative can end elsewhere, and its first
        // chunk begins with the text's first byte.
        let Some(&byte) = text.as_bytes().first() else { return Some(ends) };
        let byte = usize::from(byte);
        if prefix.first[byte >> 6] & (1 << (byte & 63)) == 0 {
            return Some(ends);
        }
        for alt in prefix.alternatives.of(&self.matcher.alternatives) {
            if let Some(end) = self.match_literals(alt.elems, text, 0) {
                if !ends.iter().any(|&e| e == end) {
                    ends.push(end)?;
                }
            }
        }
        Some(ends)
    }

    /// Matches a run of literal elements (an [`Alternative`]'s) in `text`
    /// at byte `pos`. Returns where the run ended.
    #[inline]
    #[must_use]
    pub fn match_literals(&self, elems: Span, text: &str, pos: usize) -> Option<usize> {
        elems.of(&self.matcher.elems).iter().try_fold(pos, |pos, elem| match *elem {
            AsmElem::Literal { chunks, boundary } => {
                self.match_literal(chunks, boundary, text, pos)
            }
            _ => None,
        })
    }

    /// The alternatives of an [`AsmElem::Choice`].
    #[inline]
    #[must_use]
    pub fn alternatives(&self, span: Span) -> &[Alternative] {
        span.of(&self.matcher.alternatives)
    }

    /// Matches a compiled literal in `text` at byte `pos`: whitespace
    /// before each chunk is skipped, and with `boundary` no identifier
    /// character may follow. Returns where the literal ended.
    #[must_use]
    #[inline]
    pub fn match_literal(
        &self,
        chunks: Span,
        boundary: bool,
        text: &str,
        pos: usize,
    ) -> Option<usize> {
        let mut pos = pos;
        for &(start, end) in chunks.of(&self.matcher.chunks) {
            let chunk = &self.matcher.chunk_text[start as usize..end as usize];
            pos = skip_whitespace(text, pos);
            if !text.as_bytes()[pos..].starts_with(chunk.as_bytes()) {
                return None;
            }
            pos += chunk.len();
        }
        let word_follows =
            text.as_bytes().get(pos).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        (!(boundary && word_follows)).then_some(pos)
    }

    #[inline]
    fn admits(&self, lead: &LeadSet, text: &str) -> bool {
        if lead.any {
            return true;
        }
        let text = &text[skip_whitespace(text, 0)..];
        let Some(&byte) = text.as_bytes().first() else { return false };
        let range = lead.start as usize..lead.end as usize;
        lead.first[usize::from(byte >> 6)] & (1 << (byte & 63)) != 0
            && self.lead_first[range.clone()]
                .iter()
                .zip(&self.lead_literals[range])
                .any(|(&first, &l)| first == byte && text.starts_with(&*self.literals[l as usize]))
    }
}

/// The position of the first non-whitespace character of `text` at or
/// after byte `pos`.
#[must_use]
#[inline]
pub fn skip_whitespace(text: &str, pos: usize) -> usize {
    let bytes = text.as_bytes();
    let mut at = pos;
    while let Some(&b) = bytes.get(at) {
        match b {
            b'\t'..=b'\r' | b' ' => at += 1,
            // Unicode whitespace is rare: let `str` find its end.
            0x80.. => {
                let rest = &text[at..];
                return at + (rest.len() - rest.trim_start().len());
            }
            _ => break,
        }
    }
    at
}

fn index(n: usize) -> u32 {
    u32::try_from(n).expect("tool tables hold fewer than 2^32 entries")
}

/// Lead-set computation state of one operation.
#[derive(Debug, Clone, Copy)]
enum Visit {
    Unvisited,
    InProgress,
    /// `op_leads` holds its literals. `any`: a number or label can come
    /// first; `nullable`: the syntax can match without consuming input.
    Done {
        any: bool,
        nullable: bool,
    },
}

/// Builds the lead sets. Literal sets under construction live on one
/// `scratch` stack: each computation pushes above the current top and
/// truncates back to where it started, so nested computations never
/// disturb a caller's partial set.
struct LeadBuilder<'a> {
    operations: &'a [Operation],
    visits: Vec<Visit>,
    op_leads: Vec<LeadSet>,
    variant_leads: Vec<LeadSet>,
    variant_base: &'a [u32],
    lead_literals: Vec<u32>,
    scratch: Vec<u32>,
    literals: Vec<Box<str>>,
    interned: HashMap<&'a str, u32>,
    /// First byte of each interned literal.
    first_bytes: Vec<u8>,
    /// Per literal, the `stamp` of the last set it was added to.
    marks: Vec<u32>,
    stamp: u32,
}

impl<'a> LeadBuilder<'a> {
    /// Computes and memoizes the lead set of an operation (the union over
    /// its variants that have a syntax, the only ones an assembler tries)
    /// and of each of its variants.
    fn op_first(&mut self, op: OpId) {
        if !matches!(self.visits[op.0], Visit::Unvisited) {
            return;
        }
        self.visits[op.0] = Visit::InProgress;
        let operations = self.operations;
        let operation = &operations[op.0];
        let base = self.scratch.len();
        let (mut any, mut nullable, mut tried) = (false, false, 0);
        let mut last = LeadSet::default();
        for (vidx, variant) in operation.variants.iter().enumerate() {
            let Some(syntax) = &variant.syntax else { continue };
            let start = self.scratch.len();
            let (v_any, v_nullable) = self.seq_first(operation, &variant.guard, syntax);
            last = self.finish(start, v_any || v_nullable);
            self.variant_leads[self.variant_base[op.0] as usize + vidx] = last;
            any |= v_any;
            nullable |= v_nullable;
            tried += 1;
        }
        // One tried variant: the operation's set is that variant's.
        self.op_leads[op.0] = if tried == 1 { last } else { self.finish(base, any || nullable) };
        self.scratch.truncate(base);
        self.visits[op.0] = Visit::Done { any, nullable };
    }

    /// Pushes the lead literals of an operation on the scratch stack and
    /// returns its `(any, nullable)` flags.
    fn push_op_first(&mut self, op: OpId) -> (bool, bool) {
        self.op_first(op);
        match self.visits[op.0] {
            Visit::Done { any, nullable } => {
                let lead = self.op_leads[op.0];
                self.scratch
                    .extend_from_slice(&self.lead_literals[lead.start as usize..lead.end as usize]);
                (any, nullable)
            }
            // A syntax cycle: admit anything, which is always sound.
            Visit::Unvisited | Visit::InProgress => (true, false),
        }
    }

    /// Pushes the lead literals of a syntax element sequence, looking
    /// through nullable elements, and returns its `(any, nullable)` flags.
    fn seq_first(
        &mut self,
        op: &Operation,
        guard: &[(usize, OpId)],
        syntax: &'a [SynElem],
    ) -> (bool, bool) {
        for elem in syntax {
            let (any, nullable) = match elem {
                SynElem::Literal(text) => match text.split_whitespace().next() {
                    Some(chunk) => {
                        let id = self.intern(chunk);
                        self.scratch.push(id);
                        (false, false)
                    }
                    None => (false, true),
                },
                SynElem::Label { .. }
                | SynElem::Group { format: Some(_), .. }
                | SynElem::Op { format: Some(_), .. } => (true, false),
                SynElem::Group { group, format: None } => {
                    let pinned = guard.iter().find(|(g, _)| g == group).map(|(_, m)| *m);
                    let (mut any, mut nullable) = (false, false);
                    for &member in &op.groups[*group].members {
                        if pinned.is_none_or(|p| p == member) {
                            let (m_any, m_nullable) = self.push_op_first(member);
                            any |= m_any;
                            nullable |= m_nullable;
                        }
                    }
                    (any, nullable)
                }
                SynElem::Op { op, format: None } => self.push_op_first(*op),
            };
            if any {
                return (true, false);
            }
            if !nullable {
                return (false, false);
            }
        }
        (false, true)
    }

    /// Deduplicates the scratch literals from `start` on in place (in
    /// linear time, keeping first occurrences), and records them as a
    /// lead set.
    fn finish(&mut self, start: usize, any: bool) -> LeadSet {
        self.stamp += 1;
        let set = &mut self.scratch[start..];
        let mut unique = 0;
        for i in 0..set.len() {
            let l = set[i] as usize;
            if self.marks[l] != self.stamp {
                self.marks[l] = self.stamp;
                set[unique] = set[i];
                unique += 1;
            }
        }
        self.scratch.truncate(start + unique);
        let set = &self.scratch[start..];
        let mut first = [0u64; 4];
        for &l in set {
            let byte = self.first_bytes[l as usize];
            first[usize::from(byte >> 6)] |= 1 << (byte & 63);
        }
        let begin = index(self.lead_literals.len());
        self.lead_literals.extend_from_slice(set);
        LeadSet { any, first, start: begin, end: index(self.lead_literals.len()) }
    }

    fn intern(&mut self, chunk: &'a str) -> u32 {
        let next = index(self.literals.len());
        *self.interned.entry(chunk).or_insert_with(|| {
            self.literals.push(chunk.into());
            self.first_bytes.push(chunk.as_bytes()[0]);
            self.marks.push(0);
            next
        })
    }
}

// -- matcher tables -----------------------------------------------------------

/// Candidate lists longer than this are keyed by leading literal.
const TRIE_MIN: usize = 8;

/// A range of one of the matcher-table arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    start: u32,
    end: u32,
}

impl Span {
    #[inline]
    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// One operation variant compiled for the assembler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsmVariant {
    /// Index of the variant within its operation.
    pub variant: usize,
    /// The sub-word the coding fixes whatever the statement says: fixed
    /// bits (don't-cares zero) and the words of synthesized children
    /// (guard-pinned discriminators, single-member groups, reserved
    /// fields).
    pub word: u128,
    /// The compiled SYNTAX elements, in order.
    pub elems: Span,
    /// Set when encoding a match of this variant can fail (it has no
    /// coding, or a constant field conflicts with its fixed bits): its
    /// word must then be checked against the exact encoder.
    pub checked: bool,
    lead: LeadSet,
}

/// A coding field that receives a bound value: the value is ORed in at
/// `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Place {
    /// Bit offset of the field's least significant bit.
    pub offset: u32,
    /// Field width in bits.
    pub width: u32,
    /// Fixed bits of a label field's pattern (zero for operand fields).
    pub mask: u128,
    /// The values those fixed bits must have.
    pub fixed: u128,
}

impl Place {
    /// Whether `value` encodes in this field as it is: it fits the width
    /// and agrees with the fixed bits.
    #[must_use]
    #[inline]
    pub fn admits(&self, value: u128) -> bool {
        (self.width >= 128 || value >> self.width == 0) && value & self.mask == self.fixed
    }
}

/// One compiled SYNTAX element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AsmElem {
    /// Literal text, as whitespace-separated chunks
    /// ([`ToolTables::match_literal`]).
    Literal {
        /// The chunks.
        chunks: Span,
        /// The literal ends a word: no identifier character may follow it
        /// (so `ADD` does not match the prefix of `ADDK`).
        boundary: bool,
    },
    /// A number bound to a label, two's-complement encoded into `width`
    /// bits.
    Number {
        /// Width of the label's first coding field.
        width: u32,
        /// The label's syntax format.
        format: NumFormat,
        /// Where the value goes (empty when a later element rebinds the
        /// label).
        places: Span,
    },
    /// A sub-operand that only one operation can fill.
    Child {
        /// The operation.
        op: OpId,
        /// Where the child's word goes.
        places: Span,
    },
    /// A sub-operand whose candidates are literal-only operations (a
    /// predicate, a unit suffix): each candidate's first variant whose
    /// literals match is tried, in order ([`ToolTables::alternatives`]).
    Choice {
        /// The candidates' literal-only variants, candidates in order.
        alternatives: Span,
        /// Where the chosen variant's word goes.
        places: Span,
    },
    /// A sub-operand: one candidate operation matches it, tried in order.
    Operand {
        /// Index of the candidate list ([`ToolTables::candidates`]).
        candidates: u32,
        /// Where the child's word goes.
        places: Span,
    },
    /// A sub-operand written as a number: the first form of a candidate
    /// operation that can encode it takes it
    /// ([`ToolTables::immediate_forms`]).
    Immediate {
        /// The number's syntax format.
        format: NumFormat,
        /// The candidates' form runs.
        forms: Span,
        /// Where the child's word goes.
        places: Span,
    },
    /// Never matches: a label with no coding field, or an operand with
    /// no candidate.
    Never,
}

/// A variant whose syntax is literals only, as an alternative of
/// [`AsmElem::Choice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alternative {
    /// The operation.
    pub op: OpId,
    /// Index of the variant within the operation.
    pub variant: usize,
    /// The variant's word.
    pub word: u128,
    /// Its literal elements.
    pub elems: Span,
    /// As [`AsmVariant::checked`].
    pub checked: bool,
}

/// A coded variant of an operation that takes a number in its first
/// label field (the immediate operands `Imm:#s`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImmForm {
    /// The operation.
    pub op: OpId,
    /// Index of the variant within the operation.
    pub variant: usize,
    /// Width of the first label field, which the number is encoded to.
    pub width: u32,
    /// The constant sub-word (fixed bits and synthesized children).
    pub word: u128,
    /// The fields of that label.
    pub places: Span,
    /// As [`AsmVariant::checked`].
    pub checked: bool,
}

/// The most places a prefix operand may end at for keyed lookup.
const MAX_PREFIX_ENDS: usize = 4;

/// Where a statement continues after a prefix operand, as byte offsets.
#[derive(Debug, Clone, Copy, Default)]
struct PrefixEnds {
    ends: [usize; MAX_PREFIX_ENDS],
    len: usize,
}

impl PrefixEnds {
    fn push(&mut self, end: usize) -> Option<()> {
        *self.ends.get_mut(self.len)? = end;
        self.len += 1;
        Some(())
    }

    fn iter(&self) -> impl Iterator<Item = &usize> {
        self.ends[..self.len].iter()
    }
}

/// A candidate list of [`AsmElem::Operand`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct CandidateList {
    entries: Span,
    /// The literal trie of a long list.
    trie: Option<Trie>,
    /// The choice the members begin with.
    prefix: Option<Prefix>,
}

/// The members of a long candidate list by leading literal.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Trie {
    /// Root of the list's nodes in `Matcher::trie_nodes`.
    root: u32,
    /// The members any text may begin (a number or label first, or a
    /// nullable syntax), as entry indices.
    any: Span,
}

/// A trie node: its edges by byte, and the entries whose literal ends
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct TrieNode {
    /// `(byte, node)` pairs sorted by byte, in `Matcher::trie_edges`.
    edges: Span,
    /// Entry indices, in `Matcher::indices`.
    entries: Span,
}

/// The leading [`AsmElem::Choice`] every member of a candidate list
/// shares.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prefix {
    alternatives: Span,
    /// Some alternative matches without consuming text.
    nullable: bool,
    /// Bitmap of the first bytes of the other alternatives.
    first: [u64; 4],
}

/// One member of a candidate list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    op: OpId,
    /// The operation's lead set.
    lead: LeadSet,
}

/// The most members a trie lookup collects before falling back to a
/// scan of the whole list.
const MAX_FOUND: usize = 32;

/// Entry indices a trie lookup found, in a fixed buffer.
#[derive(Debug, Clone, Copy)]
struct Found {
    indices: [u32; MAX_FOUND],
    len: usize,
    overflow: bool,
}

impl Default for Found {
    fn default() -> Self {
        Found { indices: [0; MAX_FOUND], len: 0, overflow: false }
    }
}

impl Found {
    #[inline]
    fn extend(&mut self, indices: &[u32]) {
        for &i in indices {
            if self.indices[..self.len].contains(&i) {
                continue;
            }
            if self.len == MAX_FOUND {
                self.overflow = true;
                return;
            }
            self.indices[self.len] = i;
            self.len += 1;
        }
    }
}

/// The members of a candidate list that can begin matching a text, in
/// member order ([`ToolTables::candidates`]).
#[derive(Debug, Clone)]
pub struct Candidates<'t> {
    tables: &'t ToolTables,
    entries: &'t [Entry],
    /// The text, leading whitespace skipped.
    text: &'t str,
    /// The members a trie lookup found; `None`: scan the whole list.
    found: Option<Found>,
    next: usize,
}

impl Iterator for Candidates<'_> {
    type Item = OpId;

    #[inline]
    fn next(&mut self) -> Option<OpId> {
        match &self.found {
            Some(found) => {
                let index = *found.indices[..found.len].get(self.next)?;
                self.next += 1;
                Some(self.entries[index as usize].op)
            }
            None => loop {
                let entry = self.entries.get(self.next)?;
                self.next += 1;
                if self.tables.admits(&entry.lead, self.text) {
                    return Some(entry.op);
                }
            },
        }
    }
}

/// The compiled syntax of every variant an assembler tries.
#[derive(Debug, Clone, PartialEq, Default)]
struct Matcher {
    /// Per operation, its range of `variants`.
    op_variants: Vec<Span>,
    variants: Vec<AsmVariant>,
    elems: Vec<AsmElem>,
    /// Literal chunks, as ranges of `chunk_text`.
    chunks: Vec<(u32, u32)>,
    chunk_text: String,
    places: Vec<Place>,
    lists: Vec<CandidateList>,
    entries: Vec<Entry>,
    /// Entry indices of the tries.
    indices: Vec<u32>,
    trie_nodes: Vec<TrieNode>,
    trie_edges: Vec<(u8, u32)>,
    alternatives: Vec<Alternative>,
    /// Per immediate element and candidate, a range of `forms`.
    form_sets: Vec<Span>,
    forms: Vec<ImmForm>,
}

/// How a coding field gets its value when a constant sub-word is built.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// The syntax binds it: zero in the constant.
    Bound,
    /// This member's synthesized word.
    Synthesized(OpId),
    /// Nothing can fill it.
    Missing,
    /// Labels zero, groups their first member that synthesizes,
    /// references their operation synthesized.
    Default,
}

/// Memoized synthesis of an operation matched without input.
#[derive(Debug, Clone, Copy)]
enum Synth {
    Unvisited,
    InProgress,
    /// `(word, checked)`, or `None` when some field has no member.
    Done(Option<(u128, bool)>),
}

struct MatcherBuilder<'a, 'b> {
    operations: &'a [Operation],
    leads: &'b mut LeadBuilder<'a>,
    synth: Vec<Synth>,
    /// Per operation, its immediate forms, once computed.
    op_forms: Vec<Option<Span>>,
    /// Candidate lists by id (a model has a handful).
    members: Vec<Vec<OpId>>,
    out: Matcher,
}

impl<'a, 'b> MatcherBuilder<'a, 'b> {
    fn new(operations: &'a [Operation], leads: &'b mut LeadBuilder<'a>) -> Self {
        MatcherBuilder {
            operations,
            leads,
            synth: vec![Synth::Unvisited; operations.len()],
            op_forms: vec![None; operations.len()],
            members: Vec::new(),
            out: Matcher::default(),
        }
    }

    fn build(mut self, variant_base: &[u32]) -> Matcher {
        let syntaxes =
            || self.operations.iter().flat_map(|o| &o.variants).filter_map(|v| v.syntax.as_ref());
        let (variants, elems) = (syntaxes().count(), syntaxes().map(Vec::len).sum());
        self.out.variants.reserve(variants);
        self.out.elems.reserve(elems);
        self.out.places.reserve(elems);
        self.out.chunks.reserve(elems);
        for (op, operation) in self.operations.iter().enumerate() {
            let start = self.out.variants.len();
            for (vidx, variant) in operation.variants.iter().enumerate() {
                let Some(syntax) = &variant.syntax else { continue };
                if let Some(mut compiled) = self.variant(operation, vidx, syntax) {
                    compiled.lead = self.leads.variant_leads[variant_base[op] as usize + vidx];
                    self.out.variants.push(compiled);
                }
            }
            // Lead sets only prune: a variant whose syntax begins with a
            // literal rejects a statement as fast itself, and a lone
            // variant's set is all of its operation's, which the operand
            // trying the operation has checked (the decode root is tried
            // unchecked: its operands filter).
            let lone = self.out.variants.len() == start + 1;
            for compiled in &mut self.out.variants[start..] {
                let literal_first = matches!(
                    compiled.elems.of(&self.out.elems).first(),
                    Some(AsmElem::Literal { chunks, .. }) if !chunks.is_empty()
                );
                if lone || literal_first {
                    compiled.lead = LeadSet { any: true, ..LeadSet::default() };
                }
            }
            let span = span(start, self.out.variants.len());
            self.out.op_variants.push(span);
        }
        self.finish_lists();
        self.out
    }

    /// Compiles one variant, or `None` when a coding field can never get
    /// a value (a group neither in the syntax, pinned nor single-member;
    /// a referenced operation that cannot be synthesized): such a variant
    /// never assembles.
    fn variant(
        &mut self,
        op: &Operation,
        vidx: usize,
        syntax: &'a [SynElem],
    ) -> Option<AsmVariant> {
        let variant = &op.variants[vidx];
        let coding = variant.coding.as_ref();
        // A later element rebinding a group or label overrides an earlier
        // one, so only the last occurrence places its value.
        let binds_group =
            |e: &SynElem, g: usize| matches!(e, SynElem::Group { group, .. } if *group == g);
        let binds_label =
            |e: &SynElem, l: usize| matches!(e, SynElem::Label { label, .. } if *label == l);
        let last_group = |i: usize, g: usize| !syntax[i + 1..].iter().any(|e| binds_group(e, g));
        let last_label = |i: usize, l: usize| !syntax[i + 1..].iter().any(|e| binds_label(e, l));

        let (word, checked) = match coding {
            None => (0, true),
            Some(coding) => self.constant(op, coding, |fidx, target| match *target {
                CodingTarget::Label { label, .. }
                    if syntax.iter().any(|e| binds_label(e, label)) =>
                {
                    Fill::Bound
                }
                CodingTarget::Group(g) if syntax.iter().any(|e| binds_group(e, g)) => Fill::Bound,
                // A group the syntax leaves out takes its pinned or only
                // member.
                CodingTarget::Group(g) => {
                    let members = &op.groups[g].members;
                    variant
                        .guard
                        .iter()
                        .find(|(gg, _)| *gg == g)
                        .map(|(_, m)| *m)
                        .or_else(|| (members.len() == 1).then(|| members[0]))
                        .map_or(Fill::Missing, Fill::Synthesized)
                }
                // The k-th field of `o` takes the k-th reference to `o` in
                // the syntax.
                CodingTarget::Op(o)
                    if op_refs(syntax, o).nth(fields_before(coding, fidx, o)).is_some() =>
                {
                    Fill::Bound
                }
                _ => Fill::Default,
            })?,
        };

        let start = self.out.elems.len();
        for (i, elem) in syntax.iter().enumerate() {
            let compiled = match elem {
                SynElem::Literal(text) => {
                    let boundary = ends_alnum(text)
                        && !matches!(
                            syntax.get(i + 1),
                            Some(SynElem::Label { .. })
                                | Some(SynElem::Group { format: Some(_), .. })
                                | Some(SynElem::Op { format: Some(_), .. })
                        );
                    let begin = self.out.chunks.len();
                    for chunk in text.split_whitespace() {
                        let start = self.out.chunk_text.len();
                        self.out.chunk_text.push_str(chunk);
                        self.out.chunks.push((index(start), index(self.out.chunk_text.len())));
                    }
                    AsmElem::Literal { chunks: span(begin, self.out.chunks.len()), boundary }
                }
                SynElem::Label { label, format } => {
                    let is_label = |t: &CodingTarget| matches!(t, CodingTarget::Label { label: l, .. } if l == label);
                    let first = coding.and_then(|c| c.fields.iter().find(|f| is_label(&f.target)));
                    match (coding, first) {
                        (Some(coding), Some(first)) => AsmElem::Number {
                            width: first.width,
                            format: *format,
                            places: if last_label(i, *label) {
                                self.places(coding, |_, t| is_label(t))
                            } else {
                                Span::default()
                            },
                        },
                        _ => AsmElem::Never,
                    }
                }
                SynElem::Group { group, format } => {
                    let places = match coding {
                        Some(c) if last_group(i, *group) => {
                            self.places(c, |_, t| matches!(t, CodingTarget::Group(g) if g == group))
                        }
                        _ => Span::default(),
                    };
                    let members = &op.groups[*group].members;
                    match format {
                        None => {
                            let pinned =
                                variant.guard.iter().find(|(g, _)| g == group).map(|(_, m)| *m);
                            match pinned {
                                Some(m) if members.contains(&m) => AsmElem::Child { op: m, places },
                                Some(_) => AsmElem::Never,
                                None => self.operand(members, places),
                            }
                        }
                        Some(format) => AsmElem::Immediate {
                            format: *format,
                            forms: self.form_sets(members),
                            places,
                        },
                    }
                }
                SynElem::Op { op: target, format } => {
                    // The k-th reference fills the k-th field of the operation.
                    let k = op_refs(&syntax[..i], *target).count();
                    let field = coding.and_then(|c| {
                        c.fields
                            .iter()
                            .enumerate()
                            .filter(
                                |(_, f)| matches!(f.target, CodingTarget::Op(o) if o == *target),
                            )
                            .nth(k)
                    });
                    let places = match (coding, field) {
                        (Some(c), Some((fidx, _))) => self.places(c, |j, _| j == fidx),
                        _ => Span::default(),
                    };
                    match format {
                        None => AsmElem::Child { op: *target, places },
                        Some(format) => AsmElem::Immediate {
                            format: *format,
                            forms: self.form_sets(&[*target]),
                            places,
                        },
                    }
                }
            };
            self.out.elems.push(compiled);
        }
        Some(AsmVariant {
            variant: vidx,
            word,
            elems: span(start, self.out.elems.len()),
            checked,
            lead: LeadSet::default(),
        })
    }

    /// The word of an operation matched without consuming input: its
    /// first coded variant, labels zero, every group filled with its first
    /// member that synthesizes.
    fn synth(&mut self, op: OpId) -> Option<(u128, bool)> {
        match self.synth[op.0] {
            Synth::Done(result) => return result,
            // A coding cycle (rejected by model analysis): no word.
            Synth::InProgress => return None,
            Synth::Unvisited => {}
        }
        self.synth[op.0] = Synth::InProgress;
        let operation = &self.operations[op.0];
        let result = operation
            .variants
            .iter()
            .find_map(|v| v.coding.as_ref())
            .and_then(|coding| self.constant(operation, coding, |_, _| Fill::Default));
        self.synth[op.0] = Synth::Done(result);
        result
    }

    /// One run of immediate forms per candidate operation that has any.
    fn form_sets(&mut self, candidates: &[OpId]) -> Span {
        let sets: Vec<Span> =
            candidates.iter().map(|&m| self.op_forms(m)).filter(|set| !set.is_empty()).collect();
        let start = self.out.form_sets.len();
        self.out.form_sets.extend(sets);
        span(start, self.out.form_sets.len())
    }

    /// The immediate forms of an operation: each coded variant with a
    /// label field whose other operand fields synthesize, in order.
    fn op_forms(&mut self, op: OpId) -> Span {
        if let Some(set) = self.op_forms[op.0] {
            return set;
        }
        let operation = &self.operations[op.0];
        let mut forms = Vec::new();
        for (vidx, variant) in operation.variants.iter().enumerate() {
            let Some(coding) = &variant.coding else { continue };
            let Some(label) = coding.fields.iter().find_map(|f| match f.target {
                CodingTarget::Label { label, .. } => Some(label),
                _ => None,
            }) else {
                continue;
            };
            let bound = |_, target: &CodingTarget| match *target {
                CodingTarget::Label { label: l, .. } if l == label => Fill::Bound,
                _ => Fill::Default,
            };
            let Some((word, checked)) = self.constant(operation, coding, bound) else { continue };
            let is_label =
                |t: &CodingTarget| matches!(t, CodingTarget::Label { label: l, .. } if *l == label);
            let width = coding.fields.iter().find(|f| is_label(&f.target)).map_or(0, |f| f.width);
            let places = self.places(coding, |_, t| is_label(t));
            forms.push(ImmForm { op, variant: vidx, width, word, places, checked });
        }
        let start = self.out.forms.len();
        self.out.forms.extend(forms);
        let set = span(start, self.out.forms.len());
        self.op_forms[op.0] = Some(set);
        set
    }

    /// The sub-word a coding fixes on its own, and whether encoding it
    /// can fail (a zero label against fixed bits, a checked child);
    /// `None` if an operand field cannot be filled. `fill` says, per field
    /// index and target, how a label or operand field gets its value.
    fn constant(
        &mut self,
        op: &Operation,
        coding: &Coding,
        fill: impl Fn(usize, &CodingTarget) -> Fill,
    ) -> Option<(u128, bool)> {
        let (mut word, mut checked) = (0, false);
        for (fidx, field) in coding.fields.iter().enumerate() {
            let (value, sub_checked) = match (&field.target, fill(fidx, &field.target)) {
                (CodingTarget::Pattern(p), _) => (p.fixed_value(), false),
                (_, Fill::Bound) => (0, false),
                (_, Fill::Missing) => return None,
                (_, Fill::Synthesized(member)) => self.synth(member)?,
                (CodingTarget::Label { pattern, .. }, Fill::Default) => {
                    (0, !pattern.matches_u128(0))
                }
                (CodingTarget::Group(g), Fill::Default) => {
                    op.groups[*g].members.iter().find_map(|m| self.synth(*m))?
                }
                (CodingTarget::Op(o), Fill::Default) => self.synth(*o)?,
            };
            word |= value << field.offset;
            checked |= sub_checked;
        }
        Some((word, checked))
    }

    /// Appends the coding's fields that pass `takes` (given the field
    /// index and target) as places: a label field checked against its
    /// fixed bits, an operand field unchecked.
    fn places(&mut self, coding: &Coding, takes: impl Fn(usize, &CodingTarget) -> bool) -> Span {
        let start = self.out.places.len();
        for (fidx, field) in coding.fields.iter().enumerate() {
            if takes(fidx, &field.target) {
                let (mask, fixed) = match &field.target {
                    CodingTarget::Label { pattern, .. } => {
                        (pattern.fixed_mask(), pattern.fixed_value())
                    }
                    _ => (0, 0),
                };
                self.out.places.push(Place {
                    offset: field.offset,
                    width: field.width,
                    mask,
                    fixed,
                });
            }
        }
        span(start, self.out.places.len())
    }

    /// The element of an operand with these candidates.
    fn operand(&mut self, candidates: &[OpId], places: Span) -> AsmElem {
        match *candidates {
            [] => AsmElem::Never,
            [op] => AsmElem::Child { op, places },
            _ => AsmElem::Operand { candidates: self.list(candidates), places },
        }
    }

    /// Interns a candidate list. Its entries are filled in by
    /// [`MatcherBuilder::finish_lists`], once every operation is compiled.
    fn list(&mut self, members: &[OpId]) -> u32 {
        if let Some(id) = self.members.iter().position(|m| m == members) {
            return index(id);
        }
        self.members.push(members.to_vec());
        index(self.members.len() - 1)
    }

    /// Fills in every candidate list: its entries, and for a long list
    /// its shared prefix operand and its first-byte buckets.
    fn finish_lists(&mut self) {
        let lists = std::mem::take(&mut self.members);
        // Operands over literal-only candidates become choices.
        let choices: Vec<Option<Span>> = lists.iter().map(|m| self.literal_only(m)).collect();
        for elem in &mut self.out.elems {
            if let AsmElem::Operand { candidates, places } = *elem {
                if let Some(alternatives) = choices[candidates as usize] {
                    *elem = AsmElem::Choice { alternatives, places };
                }
            }
        }
        for members in &lists {
            let start = self.out.entries.len();
            self.out
                .entries
                .extend(members.iter().map(|&op| Entry { op, lead: self.leads.op_leads[op.0] }));
            let entries = span(start, self.out.entries.len());
            let (trie, prefix) = if members.len() > TRIE_MIN {
                let prefix = self.shared_prefix(members);
                (Some(self.trie(members, prefix.map(|p| p.alternatives))), prefix)
            } else {
                (None, None)
            };
            self.out.lists.push(CandidateList { entries, trie, prefix });
        }
    }

    /// The literals a member of a long list is keyed by (`None`: any
    /// text): its lead set's, or with the list's prefix choice, the first
    /// chunk after that choice in each of its variants.
    fn keys(&self, op: OpId, prefix: Option<Span>) -> Option<Vec<&[u8]>> {
        let variants = self.out.op_variants[op.0].of(&self.out.variants);
        let prefixed = prefix.is_some_and(|p| {
            !variants.is_empty()
                && variants.iter().all(|v| {
                    matches!(v.elems.of(&self.out.elems).first(),
                        Some(AsmElem::Choice { alternatives, .. }) if *alternatives == p)
                })
        });
        if prefixed {
            variants
                .iter()
                .map(|v| match v.elems.of(&self.out.elems).get(1) {
                    Some(AsmElem::Literal { chunks, .. }) => {
                        let &(start, end) = chunks.of(&self.out.chunks).first()?;
                        Some(&self.out.chunk_text.as_bytes()[start as usize..end as usize])
                    }
                    _ => None,
                })
                .collect()
        } else {
            let lead = &self.leads.op_leads[op.0];
            let literals = &self.leads.lead_literals[lead.start as usize..lead.end as usize];
            (!lead.any).then(|| {
                literals.iter().map(|&l| self.leads.literals[l as usize].as_bytes()).collect()
            })
        }
    }

    /// Builds the literal trie of a long list from its members' keys.
    fn trie(&mut self, members: &[OpId], prefix: Option<Span>) -> Trie {
        let mut keyed: Vec<(&[u8], u32)> = Vec::new();
        let mut any = Vec::new();
        for (i, &op) in members.iter().enumerate() {
            match self.keys(op, prefix) {
                Some(keys) => keyed.extend(keys.into_iter().map(|k| (k, index(i)))),
                None => any.push(index(i)),
            }
        }
        // Inserted in sorted order, a key shares the path of its
        // predecessor up to their common prefix, and each node's children
        // are created in ascending byte order.
        keyed.sort_unstable();
        let mut edges: Vec<(u32, u8, u32)> = Vec::new(); // (parent, byte, child)
        let mut ends: Vec<(u32, u32)> = Vec::new(); // (node, entry index)
        let mut path: Vec<u32> = vec![0];
        let mut previous: &[u8] = &[];
        for &(key, entry) in &keyed {
            let common = key.iter().zip(previous).take_while(|(a, b)| a == b).count();
            path.truncate(common + 1);
            for &byte in &key[common..] {
                let child = index(edges.len() + 1);
                edges.push((path[path.len() - 1], byte, child));
                path.push(child);
            }
            ends.push((path[key.len()], entry));
            previous = key;
        }
        let nodes = edges.len() + 1;
        edges.sort_by_key(|&(parent, ..)| parent);
        ends.sort_unstable();
        let (mut edges, mut ends) = (edges.into_iter().peekable(), ends.into_iter().peekable());
        let root = index(self.out.trie_nodes.len());
        for node in 0..index(nodes) {
            let (e, x) = (self.out.trie_edges.len(), self.out.indices.len());
            while let Some((_, byte, child)) = edges.next_if(|&(parent, ..)| parent == node) {
                self.out.trie_edges.push((byte, root + child));
            }
            while let Some((_, entry)) = ends.next_if(|&(n, _)| n == node) {
                self.out.indices.push(entry);
            }
            self.out.trie_nodes.push(TrieNode {
                edges: span(e, self.out.trie_edges.len()),
                entries: span(x, self.out.indices.len()),
            });
        }
        let start = self.out.indices.len();
        self.out.indices.extend(any);
        Trie { root, any: span(start, self.out.indices.len()) }
    }

    /// The alternatives of a candidate list whose every member's every
    /// compiled variant is literals only.
    fn literal_only(&mut self, members: &[OpId]) -> Option<Span> {
        let mut alternatives = Vec::new();
        for &op in members {
            for variant in self.out.op_variants[op.0].of(&self.out.variants) {
                let elems = variant.elems.of(&self.out.elems);
                if !elems.iter().all(|e| matches!(e, AsmElem::Literal { .. })) {
                    return None;
                }
                alternatives.push(Alternative {
                    op,
                    variant: variant.variant,
                    word: variant.word,
                    elems: variant.elems,
                    checked: variant.checked,
                });
            }
        }
        let start = self.out.alternatives.len();
        self.out.alternatives.extend(alternatives);
        Some(span(start, self.out.alternatives.len()))
    }

    /// The choice the members of a list begin with: the leading
    /// [`AsmElem::Choice`] of the first member's first variant.
    fn shared_prefix(&self, members: &[OpId]) -> Option<Prefix> {
        let first = self.out.op_variants[members[0].0].of(&self.out.variants).first()?;
        let AsmElem::Choice { alternatives, .. } = *first.elems.of(&self.out.elems).first()? else {
            return None;
        };
        let mut prefix = Prefix { alternatives, nullable: false, first: [0; 4] };
        for alt in alternatives.of(&self.out.alternatives) {
            let first_chunk = alt.elems.of(&self.out.elems).iter().find_map(|e| match *e {
                AsmElem::Literal { chunks, .. } => chunks.of(&self.out.chunks).first(),
                _ => None,
            });
            match first_chunk {
                Some(&(start, _)) => {
                    let byte = usize::from(self.out.chunk_text.as_bytes()[start as usize]);
                    prefix.first[byte >> 6] |= 1 << (byte & 63);
                }
                None => prefix.nullable = true,
            }
        }
        Some(prefix)
    }
}

fn span(start: usize, end: usize) -> Span {
    Span { start: index(start), end: index(end) }
}

fn ends_alnum(s: &str) -> bool {
    s.trim_end().chars().last().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The references to `target` in a syntax, in order.
fn op_refs(syntax: &[SynElem], target: OpId) -> impl Iterator<Item = &SynElem> {
    syntax.iter().filter(move |e| matches!(e, SynElem::Op { op, .. } if *op == target))
}

/// How many fields before `fidx` reference `target`.
fn fields_before(coding: &Coding, fidx: usize, target: OpId) -> usize {
    coding.fields[..fidx]
        .iter()
        .filter(|f| matches!(f.target, CodingTarget::Op(o) if o == target))
        .count()
}
