//! Two-pass program assembly and listing generation.

use std::collections::HashMap;
use std::fmt::Write as _;

use lisa_core::Model;
use lisa_isa::Decoder;

use crate::AsmError;

/// An assembled program image.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Word address the image loads at.
    pub origin: u64,
    /// The program words (instruction-width units).
    pub words: Vec<u128>,
    /// Label addresses (word units, absolute).
    pub labels: HashMap<String, u64>,
    /// Human-readable listing: address, word, source.
    pub listing: String,
}

/// A retargetable program assembler generated from a model database.
///
/// For VLIW targets, configure the fetch-packet size and p-bit with
/// [`Assembler::with_packet`]; `||`-joined lines then form execute
/// packets, chained by the p-bit and padded at fetch-packet boundaries.
#[derive(Debug)]
pub struct Assembler<'m> {
    model: &'m Model,
    decoder: Decoder<'m>,
    packet_size: Option<usize>,
    pbit_mask: u128,
    /// The padding word: an assembled `NOP 1`/`NOP` when the model has
    /// one, zero otherwise.
    pad_word: u128,
}

/// One source statement after line-level parsing.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// An execute packet: a run of [`Source::slots`].
    Packet {
        start: usize,
        len: usize,
    },
    Org(usize, u64),
    Word(u128),
    Align(u64),
}

/// A program's statements after line-level parsing.
#[derive(Debug, Default)]
struct Source<'s> {
    items: Vec<Item>,
    /// Instruction slots of all packets: `(line, instruction text)`.
    slots: Vec<(usize, &'s str)>,
    /// Labels: `(name, index of the item they precede, line)`.
    labels: Vec<(&'s str, usize, usize)>,
    /// Where the packet being parsed starts in `slots`.
    open: usize,
}

impl Source<'_> {
    /// Closes the packet being parsed, if it has a slot.
    fn close_packet(&mut self) {
        if self.slots.len() > self.open {
            self.items.push(Item::Packet { start: self.open, len: self.slots.len() - self.open });
            self.open = self.slots.len();
        }
    }

    fn packet(&self, start: usize, len: usize) -> &[(usize, &str)] {
        &self.slots[start..start + len]
    }
}

impl<'m> Assembler<'m> {
    /// Creates a scalar (one instruction per word, no packets) assembler.
    ///
    /// # Panics
    ///
    /// Panics if the model has no decode root (no assemblable syntax).
    #[must_use]
    pub fn new(model: &'m Model) -> Self {
        Self::build(model, None, 1)
    }

    /// Creates a VLIW assembler: `||` bars join execute packets,
    /// `pbit_mask` is OR-ed into every slot but the last, and execute
    /// packets never straddle a `packet_size`-word fetch packet.
    ///
    /// # Panics
    ///
    /// Panics if the model has no decode root or `packet_size` is zero.
    #[must_use]
    pub fn with_packet(model: &'m Model, packet_size: usize, pbit_mask: u128) -> Self {
        assert!(packet_size > 0, "packet size must be positive");
        Self::build(model, Some(packet_size), pbit_mask)
    }

    fn build(model: &'m Model, packet_size: Option<usize>, pbit_mask: u128) -> Self {
        let decoder = Decoder::new(model).expect("model has a decode root");
        let pad_word = pad_word(model, &decoder);
        Assembler { model, decoder, packet_size, pbit_mask, pad_word }
    }

    /// Assembles a complete program.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] with the offending source line for label,
    /// directive, packing and instruction-syntax problems.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let parsed = self.parse(source)?;
        let labels = self.layout(&parsed)?;
        self.emit(&parsed, labels, source.len())
    }

    // -- parsing ---------------------------------------------------------

    /// Splits the source into items; labels are recorded by the item
    /// index they precede.
    fn parse<'s>(&self, source: &'s str) -> Result<Source<'s>, AsmError> {
        let mut parsed = Source::default();
        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx + 1;
            let mut line = raw;
            // Strip comments: `;` or `//` to end of line.
            if let Some(pos) = line.find(';') {
                line = &line[..pos];
            }
            if let Some(pos) = line.find("//") {
                line = &line[..pos];
            }
            let mut line = line.trim();
            if line.is_empty() {
                continue;
            }

            // `||` joins this instruction to the open packet.
            if let Some(rest) = line.strip_prefix("||") {
                let text = rest.trim();
                if parsed.slots.len() == parsed.open || text.is_empty() {
                    return Err(AsmError::DanglingParallelBar { line: line_no });
                }
                parsed.slots.push((line_no, text));
                continue;
            }

            // Leading labels (`name:`), possibly several.
            while let Some(colon) = line.find(':') {
                let candidate = line[..colon].trim();
                if candidate.is_empty()
                    || !candidate.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                    || candidate.starts_with(|c: char| c.is_ascii_digit())
                {
                    break;
                }
                // A new statement starts here: close any open packet so the
                // label binds to the next placement.
                parsed.close_packet();
                parsed.labels.push((candidate, parsed.items.len(), line_no));
                line = line[colon + 1..].trim();
            }
            if line.is_empty() {
                continue;
            }

            if let Some(directive) = line.strip_prefix('.') {
                parsed.close_packet();
                parsed.items.push(self.parse_directive(directive, line_no)?);
                continue;
            }

            // A plain instruction starts a new packet.
            parsed.close_packet();
            parsed.slots.push((line_no, line));
        }
        parsed.close_packet();
        Ok(parsed)
    }

    fn parse_directive(&self, text: &str, line: usize) -> Result<Item, AsmError> {
        let mut parts = text.split_whitespace();
        let name = parts.next().unwrap_or("");
        let arg = parts.next();
        let bad = || AsmError::BadDirective { line, text: format!(".{text}") };
        let parse_num = |s: &str| -> Option<u64> {
            let s = s.trim();
            if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            }
        };
        match name {
            "org" => {
                let addr = arg.and_then(parse_num).ok_or_else(bad)?;
                Ok(Item::Org(line, addr))
            }
            "align" => {
                let n = arg.and_then(parse_num).ok_or_else(bad)?;
                if n == 0 || !n.is_power_of_two() {
                    return Err(bad());
                }
                Ok(Item::Align(n))
            }
            "word" => {
                let raw = arg.ok_or_else(bad)?;
                let value = if let Some(neg) = raw.strip_prefix('-') {
                    let v: u64 = parse_num(neg).ok_or_else(bad)?;
                    (v as i64).wrapping_neg() as u64 as u128
                } else {
                    u128::from(parse_num(raw).ok_or_else(bad)?)
                };
                Ok(Item::Word(value))
            }
            _ => Err(bad()),
        }
    }

    // -- layout ------------------------------------------------------------

    /// Computes label addresses. Layout never depends on label values
    /// (every instruction is one word), so one pass suffices.
    fn layout(&self, parsed: &Source<'_>) -> Result<HashMap<String, u64>, AsmError> {
        let items = &parsed.items;
        // Address of each item start (after packet padding).
        let mut item_addr = vec![0u64; items.len() + 1];
        let mut addr: u64 = 0;
        for (i, item) in items.iter().enumerate() {
            addr = match *item {
                Item::Packet { start, len } => {
                    let padded = self.pad_for_packet(addr, len, parsed.slots[start].0)?;
                    item_addr[i] = padded;
                    padded + len as u64
                }
                Item::Org(line, target) => {
                    if target < addr {
                        return Err(AsmError::OrgBackwards {
                            line,
                            requested: target,
                            current: addr,
                        });
                    }
                    item_addr[i] = target;
                    target
                }
                Item::Word(_) => {
                    item_addr[i] = addr;
                    addr + 1
                }
                Item::Align(n) => {
                    let aligned = addr.next_multiple_of(n);
                    item_addr[i] = aligned;
                    aligned
                }
            };
        }
        item_addr[items.len()] = addr;

        let mut labels = HashMap::with_capacity(parsed.labels.len());
        for &(name, item_idx, line) in &parsed.labels {
            if labels.insert(name.to_owned(), item_addr[item_idx]).is_some() {
                return Err(AsmError::DuplicateLabel { line, label: name.to_owned() });
            }
        }
        Ok(labels)
    }

    /// The placement address of a packet starting at `addr`, applying the
    /// no-straddle rule.
    fn pad_for_packet(&self, addr: u64, len: usize, line: usize) -> Result<u64, AsmError> {
        let Some(ps) = self.packet_size else { return Ok(addr) };
        if len > ps {
            return Err(AsmError::PacketTooLong { line, packet_size: ps });
        }
        let pos = (addr % ps as u64) as usize;
        if pos + len > ps {
            Ok(addr + (ps - pos) as u64)
        } else {
            Ok(addr)
        }
    }

    // -- emission ---------------------------------------------------------

    fn emit(
        &self,
        parsed: &Source<'_>,
        labels: HashMap<String, u64>,
        source_len: usize,
    ) -> Result<Program, AsmError> {
        let isa = lisa_isa::Assembler::new(self.model, &self.decoder);
        let resolve = |name: &str| labels.get(name).copied();
        let pad_word = self.pad_word;
        let origin = match parsed.items.first() {
            Some(Item::Org(_, addr)) => *addr,
            _ => 0,
        };
        let mut words: Vec<u128> = Vec::with_capacity(parsed.slots.len());
        // A listing line is the source text plus 24 bytes of address,
        // word and spacing.
        let mut listing = String::with_capacity(source_len + 24 * parsed.slots.len());
        let at = |words: &Vec<u128>, origin: u64| origin + words.len() as u64;

        let pad_to = |words: &mut Vec<u128>, listing: &mut String, target: u64| {
            while at(words, origin) < target {
                listing_line(listing, at(words, origin), pad_word, "", "; <pad>");
                words.push(pad_word);
            }
        };

        for item in &parsed.items {
            match *item {
                Item::Org(_, target) => {
                    if !(words.is_empty() && target == origin) {
                        pad_to(&mut words, &mut listing, target);
                    }
                }
                Item::Align(n) => {
                    let target = at(&words, origin).next_multiple_of(n);
                    pad_to(&mut words, &mut listing, target);
                }
                Item::Word(value) => {
                    listing_line(&mut listing, at(&words, origin), value, "", "; .word");
                    words.push(value);
                }
                Item::Packet { start, len } => {
                    let slots = parsed.packet(start, len);
                    let placed = self
                        .pad_for_packet(at(&words, origin), len, slots[0].0)
                        .expect("validated in layout");
                    pad_to(&mut words, &mut listing, placed);
                    for (i, &(line, text)) in slots.iter().enumerate() {
                        let mut word = isa
                            .assemble_word(text, &resolve)
                            .map_err(|source| AsmError::Instruction { line, source })?;
                        if self.packet_size.is_some() && i + 1 < len {
                            word |= self.pbit_mask;
                        }
                        let bar = if i > 0 { "|| " } else { "" };
                        listing_line(&mut listing, at(&words, origin), word, bar, text);
                        words.push(word);
                    }
                }
            }
        }
        // Final fetch-packet padding for VLIW targets.
        if let Some(ps) = self.packet_size {
            let target = at(&words, origin).next_multiple_of(ps as u64);
            pad_to(&mut words, &mut listing, target);
        }
        Ok(Program { origin, words, labels, listing })
    }

    /// Disassembles a program image into a listing.
    #[must_use]
    pub fn disassemble_listing(&self, words: &[u128], origin: u64) -> String {
        let isa = lisa_isa::Assembler::new(self.model, &self.decoder);
        let mut out = String::new();
        for (i, &word) in words.iter().enumerate() {
            let addr = origin + i as u64;
            let text = match self.decoder.decode(word & !self.pbit_mask_if_packet()) {
                Ok(decoded) => isa.disassemble(&decoded),
                Err(_) => "<data>".to_owned(),
            };
            let parallel = if self.packet_size.is_some() && i > 0 {
                // The p-bit of the *previous* word chains this one.
                if words[i - 1] & self.pbit_mask != 0 {
                    "|| "
                } else {
                    ""
                }
            } else {
                ""
            };
            let _ = writeln!(out, "{addr:06x}  {word:08x}      {parallel}{text}");
        }
        out
    }

    fn pbit_mask_if_packet(&self) -> u128 {
        if self.packet_size.is_some() {
            self.pbit_mask
        } else {
            0
        }
    }
}

/// Appends a listing line: the address (at least 6 hex digits), the word
/// (at least 8), then `bar` and `text`.
fn listing_line(listing: &mut String, addr: u64, word: u128, bar: &str, text: &str) {
    push_hex(listing, u128::from(addr), 6);
    listing.push_str("  ");
    push_hex(listing, word, 8);
    listing.push_str("      ");
    listing.push_str(bar);
    listing.push_str(text);
    listing.push('\n');
}

/// Appends `value` in lower-case hex, zero-padded to `min_digits`.
fn push_hex(out: &mut String, value: u128, min_digits: usize) {
    let digits = ((128 - value.leading_zeros() as usize).div_ceil(4)).max(min_digits);
    let mut buf = [0u8; 32];
    for (i, digit) in buf[..digits].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(value >> (4 * (digits - 1 - i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf[..digits]).expect("hex digits are ASCII"));
}

/// The word used for padding: an assembled `NOP 1`/`NOP` when the model
/// has one, zero otherwise.
fn pad_word(model: &Model, decoder: &Decoder<'_>) -> u128 {
    let isa = lisa_isa::Assembler::new(model, decoder);
    ["NOP 1", "NOP"].iter().find_map(|nop| isa.assemble_word(nop, &|_| None).ok()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_models::{tinyrisc, vliw62};
    use lisa_sim::SimMode;

    #[test]
    fn labels_and_branches_resolve() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        let program = asm
            .assemble(
                r#"
                LDI R1, 5        ; counter
                LDI R2, 0
                LDI R3, 1
        loop:   ADD R2, R2, R1
                SUB R1, R1, R3
                BNZ loop
                HLT
                "#,
            )
            .expect("assembles");
        assert_eq!(program.labels["loop"], 3);
        assert_eq!(program.origin, 0);
        // Run it: 5+4+3+2+1.
        let mut sim = wb.simulator(SimMode::Ops).unwrap();
        sim.load_program("pmem", &program.words).unwrap();
        wb.run_to_halt(&mut sim, 1000).unwrap();
        let r = wb.model().resource_by_name("R").unwrap();
        assert_eq!(sim.state().read_int(r, &[2]).unwrap(), 15);
    }

    #[test]
    fn labels_resolve_only_where_a_number_goes() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        // A label named like a register leaves the register operand
        // alone, and still resolves where the syntax takes a number.
        let program = asm.assemble("R1: LDI R1, 1\n").expect("assembles");
        assert_eq!(program.words, [0x1208]);
        let program = asm.assemble("R1: LDI R1, 1\nBNZ R1\nloop: JMP loop\n").expect("assembles");
        assert_eq!(program.words, [0x1208, 0xc000, 0xd020]);
    }

    #[test]
    fn org_word_align_directives() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        let program = asm
            .assemble(
                r#"
                .org 4
        start:  LDI R1, 1
                .align 8
        data:   .word 0xBEEF
                .word -2
                "#,
            )
            .expect("assembles");
        assert_eq!(program.origin, 4);
        assert_eq!(program.labels["start"], 4);
        assert_eq!(program.labels["data"], 8);
        // Words: LDI at 4, pads at 5..8, data at 8..10.
        assert_eq!(program.words.len(), 6);
        assert_eq!(program.words[4], 0xBEEF);
        assert_eq!(program.words[5], 0xFFFF_FFFF_FFFF_FFFE);
    }

    #[test]
    fn vliw_parallel_bars_and_packing() {
        let wb = vliw62::workbench().unwrap();
        let asm = Assembler::with_packet(wb.model(), vliw62::FETCH_PACKET, 1);
        let program = asm
            .assemble(
                r#"
                MVK A2, 5
                MVK B2, 0
                MVK B3, 1
        loop:   ADD .L B2, B2, A2
             || SUB .L A2, A2, B3    ; same execute packet
             || MVK B4, 9
                MVK B5, 1
                HALT
                "#,
            )
            .expect("assembles");
        assert_eq!(program.labels["loop"], 3);
        // p-bits chain the three parallel slots.
        assert_eq!(program.words[3] & 1, 1);
        assert_eq!(program.words[4] & 1, 1);
        assert_eq!(program.words[5] & 1, 0);
        // Image padded to a whole fetch packet.
        assert_eq!(program.words.len() % vliw62::FETCH_PACKET, 0);
    }

    #[test]
    fn vliw_packets_do_not_straddle_fetch_boundaries() {
        let wb = vliw62::workbench().unwrap();
        let asm = Assembler::with_packet(wb.model(), 8, 1);
        // Six single-slot packets, then a 4-slot packet: must start at 8.
        let mut src = String::new();
        for i in 1..=6 {
            src.push_str(&format!("MVK A{i}, {i}\n"));
        }
        src.push_str(
            "wide: ADD .L A2, A3, A4\n || ADD .L B2, B3, B4\n || SUB .L A5, A5, A6\n || SUB .L B5, B5, B6\nHALT\n",
        );
        let program = asm.assemble(&src).expect("assembles");
        assert_eq!(program.labels["wide"], 8, "wide packet pushed to next fetch packet");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        let err = asm.assemble("LDI R1, 1\nFROB R1\n").unwrap_err();
        assert_eq!(err.line(), 2);
        let err = asm.assemble("|| ADD R1, R2, R3\n").unwrap_err();
        assert!(matches!(err, AsmError::DanglingParallelBar { line: 1 }));
        let err = asm.assemble("x: LDI R1, 1\nx: HLT\n").unwrap_err();
        assert!(matches!(err, AsmError::DuplicateLabel { .. }));
        let err = asm.assemble(".bogus 3\n").unwrap_err();
        assert!(matches!(err, AsmError::BadDirective { .. }));
        let err = asm.assemble("LDI R1, 1\n.org 0\nHLT\n").unwrap_err();
        assert!(matches!(err, AsmError::OrgBackwards { .. }));
    }

    #[test]
    fn listing_round_trips_through_disassembly() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        let program = asm.assemble("LDI R1, -3\nADD R2, R1, R1\nHLT\n").unwrap();
        assert!(program.listing.contains("LDI R1, -3"));
        let listing = asm.disassemble_listing(&program.words, 0);
        assert!(listing.contains("LDI R1, -3"), "{listing}");
        assert!(listing.contains("ADD R2, R1, R1"));
        assert!(listing.contains("HLT"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let wb = tinyrisc::workbench().unwrap();
        let asm = Assembler::new(wb.model());
        let program =
            asm.assemble("; header\n\n  // also a comment\nHLT ; trailing\n").expect("assembles");
        assert_eq!(program.words.len(), 1);
    }
}
