//! The generated assembler and disassembler (instruction level).
//!
//! "During assembly, the string pattern must match the provided assembly
//! statement to select a specific operation or resource. During
//! disassembly, the same pattern is used to generate the respective
//! assembly statement" (paper §3.2.1). The label links between coding and
//! syntax sections form the translation rules (paper Example 4).
//!
//! Matching is a backtracking search over the coding tree, pruned by the
//! syntax lead sets generated once with the model
//! ([`lisa_core::model::ToolTables`]): an operation or variant is only
//! tried when its SYNTAX can begin with the statement's next text.

use std::sync::Arc;

use lisa_core::ast::NumFormat;
use lisa_core::model::{CodingTarget, Model, OpId, SynElem};

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
        let mut cursor = Cursor::new(statement);
        let decoded = self
            .match_op(self.decoder.root(), &mut cursor)
            .ok_or_else(|| IsaError::AsmNoMatch { statement: statement.to_owned() })?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err(IsaError::AsmTrailing {
                statement: statement.to_owned(),
                rest: cursor.rest().to_owned(),
            });
        }
        Ok(decoded)
    }

    /// Renders a decoded instruction back to canonical assembly text.
    #[must_use]
    pub fn disassemble(&self, decoded: &Decoded) -> String {
        let mut out = String::new();
        self.render(decoded, &mut out);
        out
    }

    // -- assembling ---------------------------------------------------------

    fn match_op(&self, op_id: OpId, cursor: &mut Cursor<'_>) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        let tables = self.model.tool_tables();
        for (vidx, variant) in operation.variants.iter().enumerate() {
            let Some(syntax) = &variant.syntax else { continue };
            if !tables.variant_may_match(op_id, vidx, cursor.rest()) {
                continue;
            }
            let save = cursor.pos;
            if let Some(decoded) = self.try_syntax(op_id, vidx, syntax, cursor) {
                return Some(decoded);
            }
            cursor.pos = save;
        }
        None
    }

    fn try_syntax(
        &self,
        op_id: OpId,
        vidx: usize,
        syntax: &[SynElem],
        cursor: &mut Cursor<'_>,
    ) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        let mut state = MatchState {
            group_children: vec![None; operation.groups.len()],
            op_children: Vec::new(),
            labels: vec![0u128; operation.labels.len()],
        };
        if !self.match_elems(op_id, vidx, syntax, 0, cursor, &mut state) {
            return None;
        }
        self.finish_decoded(op_id, vidx, state.labels, state.group_children, state.op_children)
    }

    /// Matches syntax elements from `eidx` on, backtracking over group
    /// member choices: a member may match locally (e.g. an empty
    /// predicate) yet be wrong for the rest of the statement, in which
    /// case the next alternative is tried. Members whose syntax cannot
    /// begin with the remaining text are skipped without saving state.
    fn match_elems(
        &self,
        op_id: OpId,
        vidx: usize,
        syntax: &[SynElem],
        eidx: usize,
        cursor: &mut Cursor<'_>,
        state: &mut MatchState,
    ) -> bool {
        let Some(elem) = syntax.get(eidx) else { return true };
        let operation = self.model.operation(op_id);
        let variant = &operation.variants[vidx];
        match elem {
            SynElem::Literal(text) => {
                let boundary = ends_alnum(text)
                    && !matches!(
                        syntax.get(eidx + 1),
                        Some(SynElem::Label { .. })
                            | Some(SynElem::Group { format: Some(_), .. })
                            | Some(SynElem::Op { format: Some(_), .. })
                    );
                cursor.match_literal(text, boundary)
                    && self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state)
            }
            SynElem::Label { label, format } => {
                let Some(width) = self.label_width(op_id, vidx, *label) else {
                    return false;
                };
                let Some(value) = cursor.parse_int(*format) else { return false };
                let Some(encoded) = encode_label(value, width, *format) else {
                    return false;
                };
                state.labels[*label] = encoded;
                self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state)
            }
            SynElem::Group { group, format: None } => {
                // Honour the guard: if this variant pins the member, only
                // that member's syntax may match.
                let required = variant.guard.iter().find(|(g, _)| g == group).map(|(_, m)| *m);
                let tables = self.model.tool_tables();
                for &member in &operation.groups[*group].members {
                    if required.is_some_and(|r| r != member)
                        || !tables.op_may_match(member, cursor.rest())
                    {
                        continue;
                    }
                    let save_pos = cursor.pos;
                    let save_state = state.clone();
                    if let Some(child) = self.match_op(member, cursor) {
                        state.group_children[*group] = Some(child);
                        if self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state) {
                            return true;
                        }
                    }
                    cursor.pos = save_pos;
                    *state = save_state;
                }
                false
            }
            SynElem::Group { group, format: Some(format) } => {
                let save_pos = cursor.pos;
                let Some(value) = cursor.parse_int(*format) else { return false };
                for &member in &operation.groups[*group].members {
                    let save_state = state.clone();
                    if let Some(child) = self.immediate_child(member, value, *format) {
                        state.group_children[*group] = Some(child);
                        if self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state) {
                            return true;
                        }
                    }
                    *state = save_state;
                }
                cursor.pos = save_pos;
                false
            }
            SynElem::Op { op, format: None } => {
                if !self.model.tool_tables().op_may_match(*op, cursor.rest()) {
                    return false;
                }
                let save_pos = cursor.pos;
                let save_state = state.clone();
                if let Some(child) = self.match_op(*op, cursor) {
                    state.op_children.push((*op, child));
                    if self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state) {
                        return true;
                    }
                }
                cursor.pos = save_pos;
                *state = save_state;
                false
            }
            SynElem::Op { op, format: Some(format) } => {
                let save_pos = cursor.pos;
                let Some(value) = cursor.parse_int(*format) else { return false };
                if let Some(child) = self.immediate_child(*op, value, *format) {
                    state.op_children.push((*op, child));
                    if self.match_elems(op_id, vidx, syntax, eidx + 1, cursor, state) {
                        return true;
                    }
                    state.op_children.pop();
                }
                cursor.pos = save_pos;
                false
            }
        }
    }

    /// Builds the [`Decoded`] node once syntax matching bound all
    /// operands, synthesising children for coding fields that have no
    /// syntax counterpart (guard-pinned discriminators, reserved fields).
    fn finish_decoded(
        &self,
        op_id: OpId,
        vidx: usize,
        labels: Vec<u128>,
        group_children: Vec<Option<Decoded>>,
        mut op_children: Vec<(OpId, Decoded)>,
    ) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        let variant = &operation.variants[vidx];
        let mut decoded = Decoded::new(self.model, op_id, vidx);
        decoded.labels = labels;

        let Some(coding) = &variant.coding else {
            // Syntax-only operations (pure mnemonic sugar) keep empty
            // children; encoding requires a coding, so this only appears
            // as a sub-operand of something that never encodes it.
            return Some(decoded);
        };
        for (fidx, field) in coding.fields.iter().enumerate() {
            match &field.target {
                CodingTarget::Pattern(_) | CodingTarget::Label { .. } => {}
                CodingTarget::Group(g) => {
                    // The same group may fill several coding fields (e.g.
                    // an alias `MV d, s` encoding as `OR d, s, s`): each
                    // field gets the bound operand.
                    let child = match group_children[*g].clone() {
                        Some(c) => c,
                        None => {
                            // Guard-pinned member or single alternative.
                            let member = variant
                                .guard
                                .iter()
                                .find(|(gg, _)| gg == g)
                                .map(|(_, m)| *m)
                                .or_else(|| {
                                    (operation.groups[*g].members.len() == 1)
                                        .then(|| operation.groups[*g].members[0])
                                })?;
                            self.synthesize(member)?
                        }
                    };
                    decoded.children[fidx] = Some(Arc::new(child));
                }
                CodingTarget::Op(o) => {
                    let pos = op_children.iter().position(|(id, _)| id == o);
                    let child = match pos {
                        Some(pos) => op_children.remove(pos).1,
                        None => self.synthesize(*o)?,
                    };
                    decoded.children[fidx] = Some(Arc::new(child));
                }
            }
        }
        Some(decoded)
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

    /// Builds a decoded node for an immediate-like operation whose sole
    /// label takes `value`.
    fn immediate_child(&self, op_id: OpId, value: i128, format: NumFormat) -> Option<Decoded> {
        let operation = self.model.operation(op_id);
        for (vidx, variant) in operation.variants.iter().enumerate() {
            let Some(coding) = &variant.coding else { continue };
            let label_field = coding.fields.iter().find_map(|f| match &f.target {
                CodingTarget::Label { label, .. } => Some((*label, f.width)),
                _ => None,
            });
            let Some((label, width)) = label_field else { continue };
            let Some(encoded) = encode_label(value, width, format) else { continue };
            let mut decoded = Decoded::new(self.model, op_id, vidx);
            decoded.labels[label] = encoded;
            // Any remaining operand fields must be synthesizable.
            let mut ok = true;
            for (fidx, field) in coding.fields.iter().enumerate() {
                match &field.target {
                    CodingTarget::Group(g) => {
                        match operation.groups[*g].members.iter().find_map(|m| self.synthesize(*m))
                        {
                            Some(child) => decoded.children[fidx] = Some(Arc::new(child)),
                            None => ok = false,
                        }
                    }
                    CodingTarget::Op(o) => match self.synthesize(*o) {
                        Some(child) => decoded.children[fidx] = Some(Arc::new(child)),
                        None => ok = false,
                    },
                    _ => {}
                }
            }
            if ok {
                return Some(decoded);
            }
        }
        None
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

fn ends_alnum(s: &str) -> bool {
    s.trim_end().chars().last().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

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
    Some(lisa_bits::Bits::from_i128_wrapped(width, value).to_u128())
}

/// Operand bindings accumulated while matching one operation's syntax.
#[derive(Debug, Clone)]
struct MatchState {
    group_children: Vec<Option<Decoded>>,
    op_children: Vec<(OpId, Decoded)>,
    labels: Vec<u128>,
}

/// A backtrackable text cursor for syntax matching.
#[derive(Debug)]
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    /// Matches a syntax literal. Whitespace inside the literal matches any
    /// input whitespace; when `boundary` is set, an alphanumeric literal
    /// must not be followed by another identifier character (so `ADD`
    /// does not match the prefix of `ADDK`).
    fn match_literal(&mut self, literal: &str, boundary: bool) -> bool {
        for chunk in literal.split_whitespace() {
            self.skip_ws();
            if !self.rest().starts_with(chunk) {
                return false;
            }
            self.pos += chunk.len();
        }
        if boundary {
            if let Some(next) = self.rest().chars().next() {
                if next.is_ascii_alphanumeric() || next == '_' {
                    return false;
                }
            }
        }
        true
    }

    /// Parses an integer: optional sign (signed formats), `0x` hex or
    /// decimal.
    fn parse_int(&mut self, format: NumFormat) -> Option<i128> {
        self.skip_ws();
        let rest = self.rest();
        let mut chars = rest.char_indices().peekable();
        let mut idx = 0;
        let negative = if matches!(format, NumFormat::Signed) && rest.starts_with('-') {
            chars.next();
            idx = 1;
            true
        } else {
            false
        };
        let (radix, digits_start) =
            if rest[idx..].starts_with("0x") || rest[idx..].starts_with("0X") {
                (16, idx + 2)
            } else {
                (10, idx)
            };
        let digits_end = rest[digits_start..]
            .find(|c: char| !c.is_digit(radix) && c != '_')
            .map_or(rest.len(), |o| digits_start + o);
        if digits_end == digits_start {
            return None;
        }
        let digits: String = rest[digits_start..digits_end].chars().filter(|c| *c != '_').collect();
        let magnitude = i128::from_str_radix(&digits, radix).ok()?;
        self.pos += digits_end;
        Some(if negative { -magnitude } else { magnitude })
    }
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
        let back = decoder.decode(word.to_u128()).expect("decodes");
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
            let back = decoder.decode(word.to_u128()).unwrap();
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

    #[test]
    fn lead_sets_look_through_a_nullable_predicate() {
        let model = predicated_model();
        let tables = model.tool_tables();
        let may_match = |name: &str, text: &str| {
            tables.op_may_match(model.operation_by_name(name).unwrap().id, text)
        };
        // `add` begins with a predicate literal or, through the empty
        // predicate, with its mnemonic; nothing else.
        for text in ["ADD R1, R2", "  [R0] ADD R1, R2", "[!R0] ADD R1, R2"] {
            assert!(may_match("add", text), "{text}");
        }
        for text in ["SUB R1, R2", "[R1] ADD R1, R2", "R1", ""] {
            assert!(!may_match("add", text), "{text}");
        }
        assert!(!may_match("addk", "ADD R1, R2"));
        // The empty predicate and the label-first data word admit anything,
        // and so does the root that can begin with either.
        for name in ["p_always", "data", "decode"] {
            assert!(may_match(name, "%% anything"), "{name}");
        }

        let decoder = Decoder::new(&model).unwrap();
        let asm = Assembler::new(&model, &decoder);
        for (statement, op) in [("ADD R1, R2", "add"), ("[R0] ADD R1, R2", "add")] {
            let decoded = asm.assemble_instruction(statement).expect("assembles");
            assert_eq!(instruction_name(&model, &decoded), op, "{statement}");
            let back = decoder.decode(decoded.encode(&model).unwrap().to_u128()).unwrap();
            assert_eq!(asm.disassemble(&back), statement);
        }
    }

    #[test]
    fn lead_prefix_match_still_honours_the_word_boundary() {
        let model = predicated_model();
        let add = model.operation_by_name("add").unwrap().id;
        // `ADD` is a prefix of `ADDK`: the lead filter lets `add` through
        // and the literal's word boundary rejects it.
        assert!(model.tool_tables().op_may_match(add, "ADDK R1, 3"));
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
        assert_eq!(decoded.encode(&model).unwrap().to_u128(), 0b11_1100_1000);
        assert!(matches!(asm.assemble_instruction("SUB R1, R2"), Err(IsaError::AsmNoMatch { .. })));
    }

    #[test]
    fn cursor_parses_numbers() {
        let mut c = Cursor::new(" -42 0x1F 7");
        assert_eq!(c.parse_int(NumFormat::Signed), Some(-42));
        assert_eq!(c.parse_int(NumFormat::Unsigned), Some(0x1f));
        assert_eq!(c.parse_int(NumFormat::Unsigned), Some(7));
        assert_eq!(c.parse_int(NumFormat::Unsigned), None);
        // Unsigned formats reject a sign.
        let mut c = Cursor::new("-3");
        assert_eq!(c.parse_int(NumFormat::Unsigned), None);
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
