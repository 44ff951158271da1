//! The generated assembler and disassembler (instruction level).
//!
//! "During assembly, the string pattern must match the provided assembly
//! statement to select a specific operation or resource. During
//! disassembly, the same pattern is used to generate the respective
//! assembly statement" (paper §3.2.1). The label links between coding and
//! syntax sections form the translation rules (paper Example 4).
//!
//! The assembler is compiled with the model: [`Model::build`] turns every
//! variant's SYNTAX and CODING into matcher tables
//! ([`lisa_core::model::ToolTables`]) that say, for each syntax element,
//! which coding fields its value goes into, and hold the sub-word the
//! coding fixes on its own (fixed bits and synthesized discriminators).
//! Matching a statement walks those tables and ORs each bound operand
//! straight into a `u128` instruction word. It backtracks over group
//! members only (a member may match locally, e.g. an empty predicate, yet
//! be wrong for the rest of the statement), restoring a `Copy` pair of
//! word and text position. Only candidates whose SYNTAX can begin with the
//! statement's next text are tried: a long group is looked up by leading
//! literal, a short one filtered by lead sets. Where the syntax takes a
//! number, an identifier is looked up as a program label.
//!
//! [`Assembler::assemble_instruction`] records the winning match's
//! choices as it goes and builds the [`Decoded`] tree from them once.
//!
//! [`Model::build`]: lisa_core::Model::build

use std::sync::Arc;

use lisa_core::ast::NumFormat;
use lisa_core::model::{
    skip_whitespace, AsmElem, CodingTarget, Model, OpId, Span, SynElem, ToolTables,
};

use crate::{Decoded, Decoder, IsaError};

/// A retargetable instruction assembler/disassembler generated from a
/// model database.
#[derive(Debug, Clone)]
pub struct Assembler<'m> {
    model: &'m Model,
    decoder: &'m Decoder<'m>,
}

impl<'m> Assembler<'m> {
    /// Creates the assembler for a model, matching statements from the
    /// decoder's root.
    #[must_use]
    pub fn new(model: &'m Model, decoder: &'m Decoder<'m>) -> Self {
        Assembler { model, decoder }
    }

    /// Assembles one statement (e.g. `ADD .D A4, A3, A15`) into a decoded
    /// instruction tree. Use [`Decoded::encode`] for the binary word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AsmNoMatch`] if no instruction syntax matches
    /// and [`IsaError::AsmTrailing`] if input remains after a match.
    pub fn assemble_instruction(&self, statement: &str) -> Result<Decoded, IsaError> {
        let mut steps = Vec::new();
        self.match_statement(statement, &|_| None, &mut steps)?;
        Ok(self.build(&mut steps.iter()))
    }

    /// Assembles one statement straight into its instruction word. Where
    /// the syntax takes a number, an identifier is resolved by `labels`
    /// (a program label's address); identifiers anywhere else are syntax.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AsmNoMatch`] if no instruction syntax matches,
    /// [`IsaError::AsmTrailing`] if input remains after a match, and the
    /// errors of [`Decoded::encode`] if a bound value does not encode.
    pub fn assemble_word(
        &self,
        statement: &str,
        labels: &dyn Fn(&str) -> Option<u64>,
    ) -> Result<u128, IsaError> {
        let mut unchecked = WordOnly { checked: false };
        let word = self.match_statement(statement, labels, &mut unchecked)?;
        if !unchecked.checked {
            return Ok(word);
        }
        // Some value met a field it may not encode in as bound: the exact
        // encoder decides, on the tree of the same match.
        let mut steps = Vec::new();
        self.match_statement(statement, labels, &mut steps)?;
        self.build(&mut steps.iter()).encode(self.model)
    }

    /// Renders a decoded instruction back to canonical assembly text.
    #[must_use]
    pub fn disassemble(&self, decoded: &Decoded) -> String {
        let mut out = String::new();
        self.render(decoded, &mut out);
        out
    }

    // -- assembling ---------------------------------------------------------

    fn match_statement<R: Record>(
        &self,
        statement: &str,
        labels: &dyn Fn(&str) -> Option<u64>,
        rec: &mut R,
    ) -> Result<u128, IsaError> {
        let mut matcher =
            Matcher { tables: self.model.tool_tables(), text: statement, labels, rec };
        let (word, end) = matcher
            .op(self.decoder.root(), 0)
            .ok_or_else(|| IsaError::AsmNoMatch { statement: statement.to_owned() })?;
        let rest = statement[end..].trim_start();
        if !rest.is_empty() {
            return Err(IsaError::AsmTrailing {
                statement: statement.to_owned(),
                rest: rest.to_owned(),
            });
        }
        Ok(word)
    }

    /// Builds the [`Decoded`] node of one recorded operation match,
    /// synthesizing children for coding fields that have no syntax
    /// counterpart (guard-pinned discriminators, reserved fields).
    fn build(&self, steps: &mut std::slice::Iter<'_, Step>) -> Decoded {
        let Some(&Step::Variant { op, variant }) = steps.next() else {
            unreachable!("an operation match is recorded from its variant on")
        };
        let operation = self.model.operation(op);
        let mut decoded = Decoded::new(self.model, op, variant);
        let mut group_children = vec![None; operation.groups.len()];
        let mut op_children = Vec::new();
        for elem in operation.variants[variant].syntax.iter().flatten() {
            match elem {
                SynElem::Literal(_) => {}
                SynElem::Label { label, .. } => {
                    let Some(&Step::Number(value)) = steps.next() else {
                        unreachable!("a bound label is recorded as a number")
                    };
                    decoded.labels[*label] = value;
                }
                SynElem::Group { group, format } => {
                    group_children[*group] = Some(self.child(format.is_some(), steps));
                }
                SynElem::Op { op, format } => {
                    op_children.push((*op, self.child(format.is_some(), steps)));
                }
            }
        }

        let Some(coding) = &operation.variants[variant].coding else {
            // Syntax-only operations (pure mnemonic sugar) keep empty
            // children; encoding requires a coding, so this only appears
            // as a sub-operand of something that never encodes it.
            return decoded;
        };
        let unfilled = "the matcher tables compile only variants whose fields all fill";
        for (fidx, field) in coding.fields.iter().enumerate() {
            let child = match &field.target {
                CodingTarget::Pattern(_) | CodingTarget::Label { .. } => continue,
                // The same group may fill several coding fields (e.g. an
                // alias `MV d, s` encoding as `OR d, s, s`): each field
                // gets the bound operand.
                CodingTarget::Group(g) => group_children[*g].clone().unwrap_or_else(|| {
                    let members = &operation.groups[*g].members;
                    let variant = &operation.variants[variant];
                    let member = variant
                        .guard
                        .iter()
                        .find(|(gg, _)| gg == g)
                        .map(|(_, m)| *m)
                        .or_else(|| (members.len() == 1).then(|| members[0]))
                        .expect(unfilled);
                    self.synthesize(member).expect(unfilled)
                }),
                CodingTarget::Op(o) => match op_children.iter().position(|(id, _)| id == o) {
                    Some(pos) => op_children.remove(pos).1,
                    None => self.synthesize(*o).expect(unfilled),
                },
            };
            decoded.children[fidx] = Some(Arc::new(child));
        }
        decoded
    }

    /// The child of a group or reference: a recorded operation match, or
    /// an immediate-like operation whose first label takes the number.
    fn child(&self, immediate: bool, steps: &mut std::slice::Iter<'_, Step>) -> Decoded {
        if !immediate {
            return self.build(steps);
        }
        let Some(&Step::Immediate { op, variant, value }) = steps.next() else {
            unreachable!("a numeric operand is recorded as an immediate")
        };
        let operation = self.model.operation(op);
        let coding =
            operation.variants[variant].coding.as_ref().expect("immediate forms are coded");
        let mut decoded = Decoded::new(self.model, op, variant);
        let synthesized = "immediate forms synthesize their other operands";
        for (fidx, field) in coding.fields.iter().enumerate() {
            match &field.target {
                CodingTarget::Pattern(_) | CodingTarget::Label { .. } => {}
                CodingTarget::Group(g) => {
                    let members = &operation.groups[*g].members;
                    let child =
                        members.iter().find_map(|m| self.synthesize(*m)).expect(synthesized);
                    decoded.children[fidx] = Some(Arc::new(child));
                }
                CodingTarget::Op(o) => {
                    decoded.children[fidx] =
                        Some(Arc::new(self.synthesize(*o).expect(synthesized)));
                }
            }
        }
        let label = coding.fields.iter().find_map(|f| match f.target {
            CodingTarget::Label { label, .. } => Some(label),
            _ => None,
        });
        decoded.labels[label.expect("immediate forms have a label field")] = value;
        decoded
    }

    /// Builds a decoded node for an operation without consuming input:
    /// labels zero, group fields filled with their first synthesizable
    /// member. Used for discriminator sub-operations (paper Example 6's
    /// `side1`/`side2`) and reserved fields.
    fn synthesize(&self, op_id: OpId) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        let vidx = operation.variants.iter().position(|v| v.coding.is_some())?;
        let coding = operation.variants[vidx].coding.as_ref()?;
        let mut decoded = Decoded::new(self.model, op_id, vidx);
        for (fidx, field) in coding.fields.iter().enumerate() {
            match &field.target {
                CodingTarget::Pattern(_) | CodingTarget::Label { .. } => {}
                CodingTarget::Group(g) => {
                    let child =
                        operation.groups[*g].members.iter().find_map(|m| self.synthesize(*m))?;
                    decoded.children[fidx] = Some(Arc::new(child));
                }
                CodingTarget::Op(o) => {
                    decoded.children[fidx] = Some(Arc::new(self.synthesize(*o)?));
                }
            }
        }
        Some(decoded)
    }

    fn label_width(&self, op_id: OpId, vidx: usize, label: usize) -> Option<u32> {
        let coding = self.model.operation(op_id).variants[vidx].coding.as_ref()?;
        coding.fields.iter().find_map(|f| match &f.target {
            CodingTarget::Label { label: l, .. } if *l == label => Some(f.width),
            _ => None,
        })
    }

    // -- disassembling --------------------------------------------------------

    fn render(&self, decoded: &Decoded, out: &mut String) {
        let operation = self.model.operation(decoded.op);
        let Some(syntax) = &operation.variants[decoded.variant].syntax else {
            return;
        };
        for elem in syntax {
            match elem {
                SynElem::Literal(text) => {
                    push_token(out, text, starts_glue(text));
                }
                SynElem::Label { label, format } => {
                    let width = self.label_width(decoded.op, decoded.variant, *label).unwrap_or(32);
                    let text = format_label(decoded.labels[*label], width, *format);
                    // Labels glue to a preceding register-letter literal
                    // ("A" ++ 4 → "A4").
                    push_token(out, &text, true);
                }
                SynElem::Group { group, format } => {
                    match (decoded.group_child(self.model, *group), format) {
                        (Some(child), None) => {
                            push_sub(out, &self.disassemble(child));
                        }
                        (Some(child), Some(format)) => {
                            let text = self.render_numeric_child(child, *format);
                            push_sub(out, &text);
                        }
                        (None, _) => {}
                    }
                }
                SynElem::Op { op, format } => {
                    // Find the child for this op reference among coding
                    // fields.
                    let child = operation.variants[decoded.variant].coding.as_ref().and_then(|c| {
                        c.fields.iter().zip(&decoded.children).find_map(|(f, ch)| match &f.target {
                            CodingTarget::Op(o) if o == op => ch.as_deref(),
                            _ => None,
                        })
                    });
                    if let Some(child) = child {
                        match format {
                            None => push_sub(out, &self.disassemble(child)),
                            Some(format) => {
                                let text = self.render_numeric_child(child, *format);
                                push_sub(out, &text);
                            }
                        }
                    }
                }
            }
        }
    }

    fn render_numeric_child(&self, child: &Decoded, format: NumFormat) -> String {
        let operation = self.model.operation(child.op);
        let coding = operation.variants[child.variant].coding.as_ref();
        let label_field = coding.and_then(|c| {
            c.fields.iter().find_map(|f| match &f.target {
                CodingTarget::Label { label, .. } => Some((*label, f.width)),
                _ => None,
            })
        });
        match label_field {
            Some((label, width)) => format_label(child.labels[label], width, format),
            None => self.disassemble(child),
        }
    }
}

// -- helpers ----------------------------------------------------------------

fn starts_glue(s: &str) -> bool {
    matches!(s.trim_start().chars().next(), Some(',' | ';' | ':' | ')' | ']' | '['))
}

/// Appends a token with canonical spacing: a single space separator unless
/// the output is empty, the previous character opens a bracket, or the
/// token glues left.
fn push_token(out: &mut String, text: &str, glue_left: bool) {
    let text = text.trim();
    if text.is_empty() {
        return;
    }
    if !out.is_empty() && !glue_left && !out.ends_with(['(', '[', ' ']) {
        out.push(' ');
    }
    out.push_str(text);
}

/// Appends a sub-operand rendering (spaced like an ordinary token).
fn push_sub(out: &mut String, text: &str) {
    push_token(out, text, false);
}

fn format_label(value: u128, width: u32, format: NumFormat) -> String {
    match format {
        NumFormat::Unsigned => value.to_string(),
        NumFormat::Hex => format!("{value:#x}"),
        NumFormat::Signed => {
            let bits = lisa_bits::Bits::from_u128_wrapped(width.clamp(1, 128), value);
            bits.to_i128().to_string()
        }
    }
}

/// Validates and two's-complement-encodes a parsed number into a label
/// field of `width` bits.
fn encode_label(value: i128, width: u32, format: NumFormat) -> Option<u128> {
    if width == 0 || width > 128 {
        return None;
    }
    let fits = match format {
        NumFormat::Unsigned | NumFormat::Hex => {
            value >= 0 && (width == 128 || value < 1i128 << width)
        }
        NumFormat::Signed => {
            if width == 128 {
                true
            } else {
                let max = (1i128 << (width - 1)) - 1;
                // Accept the full unsigned range too, so `ADD …, 255`
                // works on an 8-bit field alongside `-1`.
                value >= -max - 1 && value < 1i128 << width
            }
        }
    };
    if !fits {
        return None;
    }
    Some(value as u128 & (u128::MAX >> (128 - width)))
}

/// One choice of a match, recorded for building its [`Decoded`] tree.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// An operation matched with this variant; its elements' steps follow.
    Variant { op: OpId, variant: usize },
    /// A label took this encoded value.
    Number(u128),
    /// A numeric operand: this variant's first label took the value.
    Immediate { op: OpId, variant: usize, value: u128 },
}

/// What a match keeps beyond its word: the recorded steps, or nothing.
trait Record {
    /// The current record length, to backtrack to.
    fn mark(&self) -> usize;
    /// Drops what was recorded after `mark`.
    fn reset(&mut self, mark: usize);
    fn step(&mut self, step: Step);
    /// Notes that a value met a field it may not encode in as bound.
    fn check(&mut self);
}

impl Record for Vec<Step> {
    fn mark(&self) -> usize {
        self.len()
    }

    fn reset(&mut self, mark: usize) {
        self.truncate(mark);
    }

    fn step(&mut self, step: Step) {
        self.push(step);
    }

    fn check(&mut self) {}
}

/// The word path: records nothing, and only notes whether some value may
/// not encode (a note made on an abandoned branch just costs a recheck).
struct WordOnly {
    checked: bool,
}

impl Record for WordOnly {
    fn mark(&self) -> usize {
        0
    }

    fn reset(&mut self, _: usize) {}

    fn step(&mut self, _: Step) {}

    fn check(&mut self) {
        self.checked = true;
    }
}

/// Matches one statement against the compiled syntax. A match state is
/// the pair (word so far, byte position), passed by value, so
/// backtracking is restoring a copy.
struct Matcher<'a, R> {
    tables: &'a ToolTables,
    text: &'a str,
    labels: &'a dyn Fn(&str) -> Option<u64>,
    rec: &'a mut R,
}

impl<'a, R: Record> Matcher<'a, R> {
    /// Matches operation `op` at byte `pos` with its first variant whose
    /// syntax matches; returns the operation's word and where it ended.
    fn op(&mut self, op: OpId, pos: usize) -> Option<(u128, usize)> {
        let (tables, text) = (self.tables, self.text);
        for variant in tables.asm_variants(op, &text[pos..]) {
            let mark = self.rec.mark();
            self.rec.step(Step::Variant { op, variant: variant.variant });
            if variant.checked {
                self.rec.check();
            }
            if let Some(done) = self.seq(tables.asm_elems(variant.elems), variant.word, pos) {
                return Some(done);
            }
            self.rec.reset(mark);
        }
        None
    }

    /// Matches syntax elements in order, backtracking over the candidates
    /// of operand elements.
    fn seq(
        &mut self,
        elems: &'a [AsmElem],
        mut word: u128,
        mut pos: usize,
    ) -> Option<(u128, usize)> {
        let (tables, text) = (self.tables, self.text);
        for (i, elem) in elems.iter().enumerate() {
            match *elem {
                AsmElem::Literal { chunks, boundary } => {
                    pos = tables.match_literal(chunks, boundary, text, pos)?;
                }
                AsmElem::Child { op, places } => {
                    // One candidate: no alternative to come back for.
                    let (child, end) = self.op(op, pos)?;
                    word |= self.place(places, child);
                    pos = end;
                }
                AsmElem::Number { width, format, places } => {
                    let (value, end) = self.number(pos, format)?;
                    let encoded = encode_label(value, width, format)?;
                    self.rec.step(Step::Number(encoded));
                    word |= self.place(places, encoded);
                    pos = end;
                }
                AsmElem::Choice { alternatives, places } => {
                    // A candidate's match is its first variant whose
                    // literals match: later ones are not alternatives.
                    let mut matched = None;
                    for alt in tables.alternatives(alternatives) {
                        if matched == Some(alt.op) {
                            continue;
                        }
                        let Some(end) = tables.match_literals(alt.elems, text, pos) else {
                            continue;
                        };
                        matched = Some(alt.op);
                        let mark = self.rec.mark();
                        self.rec.step(Step::Variant { op: alt.op, variant: alt.variant });
                        if alt.checked {
                            self.rec.check();
                        }
                        let bound = word | self.place(places, alt.word);
                        if let Some(done) = self.seq(&elems[i + 1..], bound, end) {
                            return Some(done);
                        }
                        self.rec.reset(mark);
                    }
                    return None;
                }
                AsmElem::Operand { candidates, places } => {
                    for member in tables.candidates(candidates, &text[pos..]) {
                        let mark = self.rec.mark();
                        if let Some((child, end)) = self.op(member, pos) {
                            let bound = word | self.place(places, child);
                            if let Some(done) = self.seq(&elems[i + 1..], bound, end) {
                                return Some(done);
                            }
                        }
                        self.rec.reset(mark);
                    }
                    return None;
                }
                AsmElem::Immediate { format, forms, places } => {
                    let (value, end) = self.number(pos, format)?;
                    for set in tables.immediate_forms(forms) {
                        let Some((form, encoded)) = set
                            .iter()
                            .find_map(|f| Some((f, encode_label(value, f.width, format)?)))
                        else {
                            continue;
                        };
                        let mark = self.rec.mark();
                        self.rec.step(Step::Immediate {
                            op: form.op,
                            variant: form.variant,
                            value: encoded,
                        });
                        if form.checked {
                            self.rec.check();
                        }
                        let child = form.word | self.place(form.places, encoded);
                        let bound = word | self.place(places, child);
                        if let Some(done) = self.seq(&elems[i + 1..], bound, end) {
                            return Some(done);
                        }
                        self.rec.reset(mark);
                    }
                    return None;
                }
                AsmElem::Never => return None,
            }
        }
        Some((word, pos))
    }

    /// ORs `value` into each of its fields.
    fn place(&mut self, places: Span, value: u128) -> u128 {
        let mut word = 0;
        for place in self.tables.places(places) {
            if !place.admits(value) {
                self.rec.check();
            }
            word |= value << place.offset;
        }
        word
    }

    /// Parses a number at `pos`: an optional sign (signed formats), then a
    /// program label, `0x` hex or decimal digits (`_` separators allowed).
    /// Returns the value and where it ended.
    fn number(&self, pos: usize, format: NumFormat) -> Option<(i128, usize)> {
        let start = skip_whitespace(self.text, pos);
        let bytes = &self.text.as_bytes()[start..];
        let negative = format == NumFormat::Signed && bytes.first() == Some(&b'-');
        let at = usize::from(negative);
        let bytes = &bytes[at..];
        let label = if bytes
            .first()
            .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_' || b == b'.')
        {
            let len =
                bytes.iter().position(|&b| !is_word_byte(b) && b != b'.').unwrap_or(bytes.len());
            (self.labels)(&self.text[start + at..start + at + len]).map(|v| (i128::from(v), len))
        } else {
            None
        };
        let (magnitude, len) = match label {
            Some(found) => found,
            None => parse_digits(bytes)?,
        };
        Some((if negative { -magnitude } else { magnitude }, start + at + len))
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parses `0x` hex or decimal digits with `_` separators; returns the
/// value and the bytes consumed.
fn parse_digits(bytes: &[u8]) -> Option<(i128, usize)> {
    let (radix, prefix) =
        if bytes.starts_with(b"0x") || bytes.starts_with(b"0X") { (16, 2) } else { (10, 0) };
    let (mut value, mut digits, mut len) = (0i128, 0, prefix);
    for &b in &bytes[prefix..] {
        if b != b'_' {
            let Some(digit) = char::from(b).to_digit(radix) else { break };
            value = value.checked_mul(i128::from(radix))?.checked_add(i128::from(digit))?;
            digits += 1;
        }
        len += 1;
    }
    (digits > 0).then_some((value, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::Model;

    fn model() -> Model {
        Model::from_source(
            r#"
            RESOURCE { CONTROL_REGISTER int ir; REGISTER int A[16]; REGISTER int B[16]; }
            OPERATION side_a { CODING { 0b0 } SYNTAX { "a" } }
            OPERATION side_b { CODING { 0b1 } SYNTAX { "b" } }
            OPERATION register {
                DECLARE { GROUP Side = { side_a || side_b }; LABEL index; }
                CODING { Side index:0bx[4] }
                SWITCH (Side) {
                    CASE side_a: { SYNTAX { "A" index:#u } EXPRESSION { A[index] } }
                    CASE side_b: { SYNTAX { "B" index:#u } EXPRESSION { B[index] } }
                }
            }
            OPERATION imm8 {
                DECLARE { LABEL value; }
                CODING { value:0bx[8] }
                SYNTAX { value:#s }
            }
            OPERATION add {
                DECLARE { GROUP Dest, Src1, Src2 = { register }; }
                CODING { 0b0001 Dest Src1 Src2 0bx[9] }
                SYNTAX { "ADD" Dest "," Src1 "," Src2 }
                BEHAVIOR { Dest = Src1 + Src2; }
            }
            OPERATION addk {
                DECLARE { GROUP Dest = { register }; GROUP Imm = { imm8 }; }
                CODING { 0b0010 Dest Imm 0bx[11] }
                SYNTAX { "ADDK" Dest "," Imm:#s }
                BEHAVIOR { Dest = Dest + Imm; }
            }
            OPERATION decode {
                DECLARE { GROUP Instruction = { add || addk }; }
                CODING { ir == Instruction }
                SYNTAX { Instruction }
                BEHAVIOR { Instruction; }
            }
            "#,
        )
        .expect("model builds")
    }

    #[test]
    fn assembles_and_disassembles_canonically() {
        let model = model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);

        let decoded = asm.assemble_instruction("ADD B3, A1, B2").expect("assembles");
        let word = decoded.encode(&model).expect("encodes");
        let back = decoder.decode(word).expect("decodes");
        assert_eq!(asm.disassemble(&back), "ADD B3, A1, B2");
    }

    #[test]
    fn whitespace_and_case_of_digits_are_flexible() {
        let model = model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        let a = asm.assemble_instruction("ADD   B3 ,A1,   B2").unwrap();
        let b = asm.assemble_instruction("ADD B3, A1, B2").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mnemonic_boundary_prevents_prefix_matches() {
        let model = model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        // ADDK must not be parsed as ADD + garbage.
        let decoded = asm.assemble_instruction("ADDK A5, -3").expect("assembles addk");
        let op = model.operation(decoded.children[0].as_deref().unwrap().op);
        assert_eq!(op.name, "addk");
    }

    #[test]
    fn signed_immediates_round_trip() {
        let model = model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        for imm in [-128i64, -3, 0, 5, 127] {
            let stmt = format!("ADDK A5, {imm}");
            let decoded = asm.assemble_instruction(&stmt).expect("assembles");
            let word = decoded.encode(&model).unwrap();
            let back = decoder.decode(word).unwrap();
            assert_eq!(asm.disassemble(&back), stmt, "round trip of {imm}");
        }
    }

    #[test]
    fn bad_statements_fail_cleanly() {
        let model = model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        assert!(matches!(
            asm.assemble_instruction("FROB A1, A2"),
            Err(IsaError::AsmNoMatch { .. })
        ));
        assert!(matches!(
            asm.assemble_instruction("ADD A1, A2, A3 garbage"),
            Err(IsaError::AsmTrailing { .. })
        ));
        // Out-of-range register index: A16 needs 5 bits.
        assert!(asm.assemble_instruction("ADD A16, A1, A2").is_err());
        // Out-of-range immediate.
        assert!(asm.assemble_instruction("ADDK A5, 300").is_err());
    }

    /// A nullable predicate group in front of the mnemonics, an
    /// `ADD`/`ADDK` prefix pair, and a data word whose syntax starts with
    /// a label.
    fn predicated_model() -> Model {
        Model::from_source(
            r#"
            RESOURCE { CONTROL_REGISTER int ir; REGISTER int R[4]; }
            OPERATION p_always { CODING { 0b00 } SYNTAX { "" } }
            OPERATION p_r0 { CODING { 0b01 } SYNTAX { "[R0]" } }
            OPERATION p_nr0 { CODING { 0b10 } SYNTAX { "[!R0]" } }
            OPERATION reg {
                DECLARE { LABEL i; }
                CODING { i:0bx[2] }
                SYNTAX { "R" i:#u }
                EXPRESSION { R[i] }
            }
            OPERATION add {
                DECLARE { GROUP P = { p_always || p_r0 || p_nr0 }; GROUP D, S = { reg }; }
                CODING { P 0b00 D S 0bx[2] }
                SYNTAX { P "ADD" D "," S }
            }
            OPERATION addk {
                DECLARE { GROUP P = { p_always || p_r0 || p_nr0 }; GROUP D = { reg }; LABEL k; }
                CODING { P 0b01 D k:0bx[4] }
                SYNTAX { P "ADDK" D "," k:#u }
            }
            OPERATION data {
                DECLARE { LABEL v; }
                CODING { 0b11 v:0bx[8] }
                SYNTAX { v:#u }
            }
            OPERATION decode {
                DECLARE { GROUP Instruction = { add || addk || data }; }
                CODING { ir == Instruction }
                SYNTAX { Instruction }
            }
            "#,
        )
        .expect("model builds")
    }

    fn instruction_name(model: &Model, decoded: &Decoded) -> String {
        model.operation(decoded.children[0].as_deref().expect("instruction").op).name.clone()
    }

    /// The names of the `decode` root's `Instruction` candidates that
    /// can begin matching `text`.
    fn instruction_candidates(model: &Model, text: &str) -> Vec<String> {
        let tables = model.tool_tables();
        let decode = model.operation_by_name("decode").unwrap().id;
        let variant = tables.asm_variants(decode, text).next().expect("the root admits anything");
        let list = tables
            .asm_elems(variant.elems)
            .iter()
            .find_map(|elem| match *elem {
                AsmElem::Operand { candidates, .. } => Some(candidates),
                _ => None,
            })
            .expect("an operand list");
        tables.candidates(list, text).map(|op| model.operation(op).name.clone()).collect()
    }

    #[test]
    fn lead_sets_look_through_a_nullable_predicate() {
        let model = predicated_model();
        // `add` and `addk` begin with a predicate literal or, through the
        // empty predicate, with their mnemonics; nothing else. The
        // label-first data word admits anything.
        assert_eq!(instruction_candidates(&model, "ADD R1, R2"), ["add", "data"]);
        for text in ["  [R0] ADD R1, R2", "[!R0] ADD R1, R2"] {
            assert_eq!(instruction_candidates(&model, text), ["add", "addk", "data"], "{text}");
        }
        for text in ["SUB R1, R2", "[R1] ADD R1, R2", "R1", "", "%% anything"] {
            assert_eq!(instruction_candidates(&model, text), ["data"], "{text}");
        }

        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        for (statement, op) in [("ADD R1, R2", "add"), ("[R0] ADD R1, R2", "add")] {
            let decoded = asm.assemble_instruction(statement).expect("assembles");
            assert_eq!(instruction_name(&model, &decoded), op, "{statement}");
            let back = decoder.decode(decoded.encode(&model).unwrap()).unwrap();
            assert_eq!(asm.disassemble(&back), statement);
        }
    }

    #[test]
    fn lead_prefix_match_still_honours_the_word_boundary() {
        let model = predicated_model();
        // `ADD` is a prefix of `ADDK`: the lead filter lets `add` through
        // and the literal's word boundary rejects it.
        assert_eq!(instruction_candidates(&model, "ADDK R1, 3"), ["add", "addk", "data"]);
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        for statement in ["ADDK R1, 3", "[!R0] ADDK R3, 15"] {
            let decoded = asm.assemble_instruction(statement).expect("assembles");
            assert_eq!(instruction_name(&model, &decoded), "addk", "{statement}");
        }
        assert!(matches!(asm.assemble_instruction("ADDKR1, 3"), Err(IsaError::AsmNoMatch { .. })));
    }

    #[test]
    fn label_first_syntax_is_never_filtered() {
        let model = predicated_model();
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        let decoded = asm.assemble_instruction("  200").expect("data word assembles");
        assert_eq!(instruction_name(&model, &decoded), "data");
        assert_eq!(decoded.encode(&model).unwrap(), 0b11_1100_1000);
        assert!(matches!(asm.assemble_instruction("SUB R1, R2"), Err(IsaError::AsmNoMatch { .. })));
    }

    #[test]
    fn words_that_may_not_encode_take_the_exact_encoder() {
        let model = Model::from_source(
            r#"
            RESOURCE { CONTROL_REGISTER int ir; }
            OPERATION odd {
                DECLARE { LABEL v; }
                CODING { 0b0 v:0b1xx }
                SYNTAX { "ODD" v:#u }
            }
            OPERATION decode {
                DECLARE { GROUP Instruction = { odd }; }
                CODING { ir == Instruction }
                SYNTAX { Instruction }
            }
            "#,
        )
        .expect("model builds");
        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        let exact = |stmt: &str| asm.assemble_instruction(stmt)?.encode(&model);
        assert_eq!(asm.assemble_word("ODD 5", &|_| None), Ok(0b0101));
        let err = asm.assemble_word("ODD 3", &|_| None);
        assert!(matches!(err, Err(IsaError::LabelFixedBitConflict { .. })), "{err:?}");
        assert_eq!(err, exact("ODD 3"));
        assert_eq!(asm.assemble_word("ODD x", &|_| Some(6)), Ok(0b0110));
    }

    #[test]
    fn numbers_parse_with_signs_radixes_and_labels() {
        let model = model();
        let labels = |name: &str| (name == "loop").then_some(6);
        let mut rec = Vec::new();
        let matcher = Matcher {
            tables: model.tool_tables(),
            text: " -42 0x1F 7 1_000 loop -loop _5 nope 0x",
            labels: &labels,
            rec: &mut rec,
        };
        let mut pos = 0;
        let mut next = |format| {
            let (value, end) = matcher.number(pos, format)?;
            pos = end;
            Some(value)
        };
        assert_eq!(next(NumFormat::Signed), Some(-42));
        assert_eq!(next(NumFormat::Unsigned), Some(0x1f));
        assert_eq!(next(NumFormat::Hex), Some(7));
        assert_eq!(next(NumFormat::Unsigned), Some(1000));
        assert_eq!(next(NumFormat::Unsigned), Some(6));
        assert_eq!(next(NumFormat::Signed), Some(-6));
        // An identifier that is no label still parses as digits.
        assert_eq!(next(NumFormat::Unsigned), Some(5));
        assert_eq!(next(NumFormat::Unsigned), None);
        // Unsigned formats reject a sign; overflow and bare prefixes fail.
        assert_eq!(parse_digits(b"-3"), None);
        assert_eq!(parse_digits(b"0x"), None);
        assert_eq!(parse_digits(b"___"), None);
        assert_eq!(parse_digits(b"9".repeat(40).as_slice()), None);
        assert_eq!(parse_digits(b"0x_fF,"), Some((255, 5)));
    }

    #[test]
    fn encode_label_ranges() {
        assert_eq!(encode_label(5, 4, NumFormat::Unsigned), Some(5));
        assert_eq!(encode_label(-1, 4, NumFormat::Signed), Some(0xF));
        assert_eq!(encode_label(-8, 4, NumFormat::Signed), Some(8));
        assert_eq!(encode_label(16, 4, NumFormat::Unsigned), None);
        assert_eq!(encode_label(-9, 4, NumFormat::Signed), None);
        assert_eq!(encode_label(15, 4, NumFormat::Signed), Some(15));
    }
}
