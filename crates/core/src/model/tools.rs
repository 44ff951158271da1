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
//!   non-blank text, so it no longer backtracks through every operation.
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

use super::{OpId, Operation, SynElem};

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

/// Decoder trial orders and assembler syntax lead sets of one model.
///
/// Every table is a flat arena indexed through per-operation offsets, so
/// generation makes a handful of allocations whatever the model size.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolTables {
    /// Interned leading literal chunks.
    literals: Vec<Box<str>>,
    /// Deduplicated indices into `literals`, one run per set.
    lead_literals: Vec<u32>,
    /// Union of the variants' lead sets, per operation.
    op_leads: Vec<LeadSet>,
    /// Per operation, the index of its first variant in `variant_leads`.
    variant_base: Vec<u32>,
    /// Lead set per variant, operations in order.
    variant_leads: Vec<LeadSet>,
    /// Per operation, the index of its first group in `group_ranges`.
    group_base: Vec<u32>,
    /// Per group, its range of `trial_orders`.
    group_ranges: Vec<(u32, u32)>,
    /// Decoder trial orders, groups in order.
    trial_orders: Vec<OpId>,
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
        ToolTables {
            literals: leads.literals,
            lead_literals: leads.lead_literals,
            op_leads: leads.op_leads,
            variant_leads: leads.variant_leads,
            variant_base,
            group_base,
            group_ranges,
            trial_orders,
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

    /// Whether some variant of `op` can begin matching `text` (leading
    /// whitespace ignored).
    #[must_use]
    pub fn op_may_match(&self, op: OpId, text: &str) -> bool {
        self.admits(&self.op_leads[op.0], text)
    }

    /// Whether variant `variant` of `op` can begin matching `text`
    /// (leading whitespace ignored).
    #[must_use]
    pub fn variant_may_match(&self, op: OpId, variant: usize, text: &str) -> bool {
        self.admits(&self.variant_leads[self.variant_base[op.0] as usize + variant], text)
    }

    fn admits(&self, lead: &LeadSet, text: &str) -> bool {
        if lead.any {
            return true;
        }
        let text = text.trim_start();
        let Some(&byte) = text.as_bytes().first() else { return false };
        lead.first[usize::from(byte >> 6)] & (1 << (byte & 63)) != 0
            && self.lead_literals[lead.start as usize..lead.end as usize]
                .iter()
                .any(|&l| text.starts_with(&*self.literals[l as usize]))
    }
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
