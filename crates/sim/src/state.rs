//! Processor state: every resource cell in one flat arena.
//!
//! The memory model from the `RESOURCE` section materialises here: scalars
//! (registers, control registers, the program counter) and arrays (register
//! files, data/program memories, banked memories) with their declared bit
//! widths and address ranges. They all share one `Vec<i64>`. A [`Layout`],
//! derived from the model alone, gives each resource a run of cells in
//! declaration order, and every cell holds its value already wrapped to
//! the declared width, sign- or zero-extended to 64 bits. A read is then
//! one slice load, and the ops backend names a cell by its absolute index
//! and wrap byte, both settled at translate time.

use std::sync::Arc;

use lisa_bits::Bits;
use lisa_core::ast::Dim;
use lisa_core::model::{Model, Resource, ResourceId};

use crate::SimError;

/// One resource's run of cells in the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Extent {
    /// Arena index of the first cell.
    offset: u32,
    /// Cell count: the element count, 1 for a scalar.
    len: u32,
    width: u32,
    signed: bool,
    dims: Vec<Dim>,
}

/// Where each resource's cells sit in the arena and how they wrap,
/// derived from the model alone: every state of a model and the ops
/// translator agree on it. Clones share one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    extents: Arc<[Extent]>,
}

impl Layout {
    pub(crate) fn of(model: &Model) -> Layout {
        let mut cells = 0u32;
        let extents = model
            .resources()
            .iter()
            .map(|r| {
                // `Model::build` caps the total at `MAX_STATE_CELLS`, which
                // fits a `u32`, and every width at 64.
                let len = r.element_count().max(1) as u32;
                let extent = Extent {
                    offset: cells,
                    len,
                    width: r.ty.width(),
                    signed: r.ty.is_signed(),
                    dims: r.dims.clone(),
                };
                cells += len;
                extent
            })
            .collect();
        Layout { extents }
    }

    /// Total cell count.
    fn cells(&self) -> usize {
        self.extents.last().map_or(0, |e| (e.offset + e.len) as usize)
    }

    /// The arena index and wrap byte of element `flat` of `res`, which
    /// the caller has checked is in bounds.
    pub(crate) fn cell(&self, res: ResourceId, flat: u32) -> (u32, u8) {
        let e = &self.extents[res.0];
        debug_assert!(flat < e.len, "cells are in bounds");
        (e.offset + flat, wrap_byte(e.width, e.signed))
    }

    /// The element of `res` at arena index `cell`: the inverse of
    /// [`Layout::cell`].
    pub(crate) fn flat(&self, res: ResourceId, cell: u32) -> usize {
        (cell - self.extents[res.0].offset) as usize
    }
}

/// The flat element index of `indices` in resource `res`, from its
/// declared dimensions alone: the addressing rules of [`State::read`],
/// usable where no state exists (translation reads only the layout).
pub(crate) fn flatten_indices(res: &Resource, indices: &[i64]) -> Result<usize, SimError> {
    flatten(&res.name, &res.dims, indices)
}

fn flatten(name: &str, dims: &[Dim], indices: &[i64]) -> Result<usize, SimError> {
    if indices.len() != dims.len() {
        return Err(SimError::WrongArity {
            resource: name.to_owned(),
            got: indices.len(),
            expected: dims.len(),
        });
    }
    let mut flat = 0usize;
    for (d, (&idx, dim)) in indices.iter().zip(dims).enumerate() {
        let base = dim.base() as i64;
        let len = dim.len() as i64;
        if idx < base || idx >= base + len {
            return Err(SimError::IndexOutOfBounds {
                resource: name.to_owned(),
                index: idx,
                dim: d,
            });
        }
        flat = flat * len as usize + (idx - base) as usize;
    }
    Ok(flat)
}

/// Wraps `value` to `width` bits, then sign- or zero-extends it back to
/// 64: the register-write-then-read semantics of a declared C type.
/// Widths of 64 and above leave the value unchanged.
#[inline]
pub(crate) fn wrap_to_width(value: i64, width: u32, signed: bool) -> i64 {
    if width >= 64 {
        return value;
    }
    let unused = 64 - width;
    if signed {
        (value << unused) >> unused
    } else {
        ((value as u64) << unused >> unused) as i64
    }
}

/// The wrap byte's flag for a cell that sign-extends.
const WRAP_SIGNED: u8 = 0x80;

/// The wrap byte of a cell `width` (1 to 64) bits wide: the count of its
/// unused high bits, with [`WRAP_SIGNED`] set when it sign-extends.
const fn wrap_byte(width: u32, signed: bool) -> u8 {
    (64 - width) as u8 | if signed { WRAP_SIGNED } else { 0 }
}

/// `value` as a cell with wrap byte `wrap` holds it: one shift pair.
#[inline(always)]
pub(crate) fn wrap_cell(value: i64, wrap: u8) -> i64 {
    let unused = u32::from(wrap & !WRAP_SIGNED);
    if wrap & WRAP_SIGNED != 0 {
        (value << unused) >> unused
    } else {
        ((value as u64) << unused >> unused) as i64
    }
}

/// The complete architectural state of a simulated processor.
///
/// Every resource element is one cell of a single arena, kept at its
/// declared width: reads return sign- or zero-extended `i64` views
/// matching the declared C type (`int` is signed, `bit[N]` unsigned), and
/// writes wrap to the declared width like hardware register writes.
/// Equality, [`State::digest`], snapshots and [`State::reset`] each run
/// over the arena in one pass.
#[derive(Debug, PartialEq)]
pub struct State {
    cells: Vec<i64>,
    layout: Layout,
}

impl Clone for State {
    fn clone(&self) -> State {
        State { cells: self.cells.clone(), layout: self.layout.clone() }
    }

    /// Copies into the existing arena: a restore allocates nothing.
    fn clone_from(&mut self, source: &State) {
        self.cells.clone_from(&source.cells);
        self.layout.clone_from(&source.layout);
    }
}

impl State {
    /// Allocates zeroed state for all resources of a model.
    #[must_use]
    pub fn new(model: &Model) -> State {
        let layout = Layout::of(model);
        State { cells: vec![0; layout.cells()], layout }
    }

    /// Resets every resource to zero.
    pub fn reset(&mut self) {
        self.cells.fill(0);
    }

    /// The resource's extent and the arena index of its element at
    /// `indices`.
    fn locate(&self, res: &Resource, indices: &[i64]) -> Result<(&Extent, usize), SimError> {
        let e = &self.layout.extents[res.id.0];
        let flat = flatten(&res.name, &e.dims, indices)?;
        Ok((e, e.offset as usize + flat))
    }

    /// The arena index of element `flat` of `id`, with its extent, when
    /// both exist.
    #[inline]
    fn index(&self, id: ResourceId, flat: usize) -> Option<(&Extent, usize)> {
        let e = self.layout.extents.get(id.0)?;
        (flat < e.len as usize).then_some((e, e.offset as usize + flat))
    }

    /// Reads a resource element as raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongArity`] or [`SimError::IndexOutOfBounds`]
    /// on bad addressing (scalars take an empty index slice).
    pub fn read(&self, res: &Resource, indices: &[i64]) -> Result<Bits, SimError> {
        let (e, index) = self.locate(res, indices)?;
        Ok(Bits::from_u128_wrapped(e.width, u128::from(self.cells[index] as u64)))
    }

    /// Reads a resource element as an `i64`, honouring the declared
    /// signedness (`int` sign-extends; `bit[N]`/`unsigned` zero-extend;
    /// 64-bit unsigned reads wrap into `i64`).
    ///
    /// # Errors
    ///
    /// Same as [`State::read`].
    pub fn read_int(&self, res: &Resource, indices: &[i64]) -> Result<i64, SimError> {
        let (_, index) = self.locate(res, indices)?;
        Ok(self.cells[index])
    }

    /// Writes a resource element, wrapping `value` to the declared width.
    ///
    /// # Errors
    ///
    /// Same as [`State::read`].
    pub fn write_int(
        &mut self,
        res: &Resource,
        indices: &[i64],
        value: i64,
    ) -> Result<(), SimError> {
        let (e, index) = self.locate(res, indices)?;
        self.cells[index] = wrap_to_width(value, e.width, e.signed);
        Ok(())
    }

    /// Writes raw bits (must already have the declared width).
    ///
    /// # Errors
    ///
    /// Same as [`State::read`], plus a wrap if widths differ (the value is
    /// resized with zero extension).
    pub fn write(&mut self, res: &Resource, indices: &[i64], value: Bits) -> Result<(), SimError> {
        let (e, index) = self.locate(res, indices)?;
        self.cells[index] = wrap_to_width(value.to_u128() as i64, e.width, e.signed);
        Ok(())
    }

    /// Direct flat read used by every backend's cycle loop: the cell,
    /// already sign- or zero-extended from the declared width.
    #[inline]
    pub(crate) fn read_flat(&self, id: ResourceId, flat: usize) -> Option<i64> {
        self.index(id, flat).map(|(_, index)| self.cells[index])
    }

    /// The declared-width bits of element `flat` of `id`, zero-extended:
    /// the instruction word a fetch of that element sees.
    #[inline]
    pub(crate) fn word_flat(&self, id: ResourceId, flat: usize) -> Option<u128> {
        self.index(id, flat)
            .map(|(e, index)| u128::from(wrap_to_width(self.cells[index], e.width, false) as u64))
    }

    /// Direct flat write used by every backend's cycle loop: the value
    /// wrapped to the declared width.
    #[inline]
    pub(crate) fn write_flat(&mut self, id: ResourceId, flat: usize, value: i64) -> bool {
        let Some((e, index)) = self.index(id, flat) else { return false };
        self.cells[index] = wrap_to_width(value, e.width, e.signed);
        true
    }

    /// The cell at arena index `cell`: an ops operand read.
    #[inline(always)]
    pub(crate) fn cell(&self, cell: u32) -> i64 {
        self.cells[cell as usize]
    }

    /// Stores `value` at arena index `cell`, wrapped by the cell's wrap
    /// byte: an ops operand write.
    #[inline(always)]
    pub(crate) fn put_cell(&mut self, cell: u32, wrap: u8, value: i64) {
        self.cells[cell as usize] = wrap_cell(value, wrap);
    }

    /// The arena layout, shared by every clone of this state.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of elements stored for resource `id`.
    #[must_use]
    pub fn element_count(&self, id: ResourceId) -> usize {
        self.layout.extents[id.0].len as usize
    }

    /// Whether another state has the same resource layout (count, widths,
    /// signedness, dimensions) — the compatibility check behind
    /// [`crate::Simulator::restore`].
    pub(crate) fn same_shape(&self, other: &State) -> bool {
        self.layout == other.layout
    }

    /// The exact 64-bit FNV-1a hash of every resource's width and cells
    /// (each cell's declared-width bits, little-endian, 16 bytes per
    /// cell), at a cost proportional to the non-zero bytes. Equal states
    /// of one model hash equally; the batch engine records one per
    /// finished job.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv { h: FNV_OFFSET, zeros: 0 };
        for e in self.layout.extents.iter() {
            fnv.word(u64::from(e.width));
            let mask = u64::MAX >> (64 - e.width);
            let start = e.offset as usize;
            for &cell in &self.cells[start..start + e.len as usize] {
                let raw = cell as u64 & mask;
                if raw != 0 {
                    fnv.word(raw);
                }
                // The high half of the 16 bytes, always zero.
                fnv.zeros += if raw == 0 { 16 } else { 8 };
            }
        }
        fnv.flush();
        fnv.h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^(2^k) mod 2^64` for every `k`.
const FNV_PRIME_POW2: [u64; 64] = {
    let mut table = [FNV_PRIME; 64];
    let mut k = 1;
    while k < 64 {
        table[k] = table[k - 1].wrapping_mul(table[k - 1]);
        k += 1;
    }
    table
};

/// FNV-1a with deferred zero bytes: hashing a zero byte is `h *= PRIME`,
/// so a run of `n` of them folds into one multiply by `PRIME^n`.
struct Fnv {
    h: u64,
    /// Zero bytes hashed but not yet folded into `h`.
    zeros: u64,
}

impl Fnv {
    /// Hashes the eight little-endian bytes of `v`.
    #[inline]
    fn word(&mut self, mut v: u64) {
        let mut rest = 8;
        while v != 0 {
            let skip = u64::from(v.trailing_zeros() / 8);
            self.zeros += skip;
            v >>= skip * 8;
            self.flush();
            self.h = (self.h ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
            v >>= 8;
            rest -= skip + 1;
        }
        self.zeros += rest;
    }

    /// Folds the pending zero bytes into `h`, one multiply per set bit
    /// of their count.
    #[inline]
    fn flush(&mut self) {
        let mut n = self.zeros;
        while n != 0 {
            self.h = self.h.wrapping_mul(FNV_PRIME_POW2[n.trailing_zeros() as usize]);
            n &= n - 1;
        }
        self.zeros = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lisa_core::Model;
    use proptest::prelude::*;

    fn model() -> Model {
        Model::from_source(
            r#"RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER bit[48] accu;
                REGISTER bit[64] wide;
                REGISTER bit carry;
                DATA_MEMORY short mem[0x10];
                DATA_MEMORY int banked[2]([4]);
                PROGRAM_MEMORY int prog[0x100..0x10f];
            }"#,
        )
        .expect("model builds")
    }

    #[test]
    fn scalars_read_back_written_values() {
        let m = model();
        let mut st = State::new(&m);
        let pc = m.resource_by_name("pc").unwrap();
        st.write_int(pc, &[], -5).unwrap();
        assert_eq!(st.read_int(pc, &[]).unwrap(), -5);
        let accu = m.resource_by_name("accu").unwrap();
        st.write_int(accu, &[], -1).unwrap();
        // bit[48] is unsigned: reads back as 2^48 - 1.
        assert_eq!(st.read_int(accu, &[]).unwrap(), (1 << 48) - 1);
    }

    #[test]
    fn short_memory_wraps_to_16_bits() {
        let m = model();
        let mut st = State::new(&m);
        let mem = m.resource_by_name("mem").unwrap();
        st.write_int(mem, &[3], 0x12345).unwrap();
        assert_eq!(st.read_int(mem, &[3]).unwrap(), 0x2345);
        st.write_int(mem, &[3], -1).unwrap();
        assert_eq!(st.read_int(mem, &[3]).unwrap(), -1); // short is signed
    }

    #[test]
    fn range_based_addressing() {
        let m = model();
        let mut st = State::new(&m);
        let prog = m.resource_by_name("prog").unwrap();
        st.write_int(prog, &[0x100], 42).unwrap();
        st.write_int(prog, &[0x10f], 7).unwrap();
        assert_eq!(st.read_int(prog, &[0x100]).unwrap(), 42);
        assert_eq!(st.read_int(prog, &[0x10f]).unwrap(), 7);
        assert!(matches!(st.read(prog, &[0xff]), Err(SimError::IndexOutOfBounds { .. })));
        assert!(matches!(st.read(prog, &[0x110]), Err(SimError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn banked_memory_uses_two_indices() {
        let m = model();
        let mut st = State::new(&m);
        let banked = m.resource_by_name("banked").unwrap();
        st.write_int(banked, &[1, 2], 99).unwrap();
        assert_eq!(st.read_int(banked, &[1, 2]).unwrap(), 99);
        assert_eq!(st.read_int(banked, &[0, 2]).unwrap(), 0);
        assert!(matches!(st.read(banked, &[1]), Err(SimError::WrongArity { .. })));
        assert!(matches!(st.read(banked, &[2, 0]), Err(SimError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = model();
        let mut st = State::new(&m);
        let pc = m.resource_by_name("pc").unwrap();
        st.write_int(pc, &[], 123).unwrap();
        st.reset();
        assert_eq!(st.read_int(pc, &[]).unwrap(), 0);
    }

    /// Values around every sign and width boundary of a 64-bit word.
    pub(crate) fn edge_values() -> Vec<i64> {
        let mut vals = vec![0, 1, -1, i64::MIN, i64::MAX, 0x1234_5678_9abc_def0];
        for b in 0..64 {
            let p = 1i64 << b;
            vals.extend([p, p.wrapping_sub(1), p.wrapping_neg(), !p]);
        }
        vals
    }

    #[test]
    fn wrap_to_width_matches_a_bits_round_trip() {
        for width in 1..=64 {
            for &v in &edge_values() {
                let bits = Bits::from_i128_wrapped(width, i128::from(v));
                assert_eq!(wrap_to_width(v, width, true), bits.to_i128() as i64, "{v} s{width}");
                assert_eq!(wrap_to_width(v, width, false), bits.to_u128() as i64, "{v} u{width}");
            }
        }
        assert_eq!(wrap_to_width(-5, 80, true), -5);
    }

    #[test]
    fn raw_cells_keep_wide_and_narrow_values_exact() {
        let m = Model::from_source(
            r#"RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER bit[40] wide;
                REGISTER bit[64] full;
                REGISTER bit[3] tiny;
            }"#,
        )
        .expect("model builds");
        let mut st = State::new(&m);
        let wide = m.resource_by_name("wide").unwrap();
        st.write_int(wide, &[], -2).unwrap();
        // A negative i64 fills all 40 bits, and reads back unsigned.
        assert_eq!(st.read(wide, &[]).unwrap().to_u128(), (1u128 << 40) - 2);
        assert_eq!(st.read_int(wide, &[]).unwrap(), (1 << 40) - 2);
        st.write(wide, &[], Bits::ones(128)).unwrap();
        assert_eq!(st.read(wide, &[]).unwrap(), Bits::ones(40));
        let full = m.resource_by_name("full").unwrap();
        st.write_int(full, &[], i64::MIN).unwrap();
        assert_eq!(st.read_int(full, &[]).unwrap(), i64::MIN);
        assert_eq!(st.read(full, &[]).unwrap().to_u128(), 1u128 << 63);
        let tiny = m.resource_by_name("tiny").unwrap();
        st.write(tiny, &[], Bits::from_u128_wrapped(8, 0xff)).unwrap();
        assert_eq!(st.read_int(tiny, &[]).unwrap(), 7);
        assert_eq!(st.read(tiny, &[]).unwrap().width(), 3);
    }

    /// A state of one scalar resource with any width and signedness,
    /// including the signed widths no C type declares.
    fn one_cell_state(width: u32, signed: bool) -> State {
        let extent = Extent { offset: 0, len: 1, width, signed, dims: Vec::new() };
        State { cells: vec![0], layout: Layout { extents: Arc::new([extent]) } }
    }

    #[test]
    fn wrap_byte_writes_match_the_flat_funnels() {
        let res = Resource {
            id: ResourceId(0),
            name: "r".into(),
            class: lisa_core::ast::ResourceClass::Register,
            ty: lisa_core::ast::DataType::Long,
            dims: Vec::new(),
        };
        for width in 1..=64 {
            let mask = u64::MAX >> (64 - width);
            for signed in [false, true] {
                let mut st = one_cell_state(width, signed);
                let (cell, wrap) = st.layout().cell(res.id, 0);
                for &v in &edge_values() {
                    st.put_cell(cell, wrap, v);
                    let through_wrap = st.cell(cell);
                    assert!(st.write_flat(res.id, 0, v));
                    let at = format!("{v} width {width} signed {signed}");
                    assert_eq!(st.read_flat(res.id, 0), Some(through_wrap), "{at}");
                    let bits = st.read(&res, &[]).unwrap();
                    assert_eq!(bits.to_u128(), u128::from(v as u64 & mask), "{at}");
                    assert_eq!(bits.width(), width, "{at}");
                    assert_eq!(st.word_flat(res.id, 0), Some(bits.to_u128()), "{at}");
                }
            }
        }
    }

    #[test]
    fn carry_bit_is_one_bit_wide() {
        let m = model();
        let mut st = State::new(&m);
        let carry = m.resource_by_name("carry").unwrap();
        st.write_int(carry, &[], 3).unwrap();
        assert_eq!(st.read_int(carry, &[]).unwrap(), 1); // wrapped to 1 bit
    }

    /// The byte-at-a-time FNV-1a that [`State::digest`] must equal.
    fn bytewise_digest(st: &State) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (r, e) in st.layout.extents.iter().enumerate() {
            mix(u64::from(e.width));
            for flat in 0..e.len as usize {
                let raw = st.word_flat(ResourceId(r), flat).unwrap();
                mix(raw as u64);
                mix((raw >> 64) as u64);
            }
        }
        h
    }

    /// Applies `(resource, cell, value)` writes, each picked modulo the
    /// model's resources and the resource's cells.
    fn apply_writes(m: &Model, writes: &[(usize, usize, i64)]) -> State {
        let mut st = State::new(m);
        for &(r, cell, value) in writes {
            let id = m.resources()[r % m.resources().len()].id;
            assert!(st.write_flat(id, cell % st.element_count(id), value));
        }
        st
    }

    fn value_strategy() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(0i64),
            -3i64..=3,
            any::<i64>(),
            any::<u8>().prop_map(|b| i64::from(b) << 40)
        ]
    }

    #[test]
    fn digest_matches_bytewise_reference_on_fixed_states() {
        let m = model();
        let mut st = State::new(&m);
        assert_eq!(st.digest(), bytewise_digest(&st), "all-zero state");
        let wide = m.resource_by_name("wide").unwrap();
        st.write(wide, &[], Bits::ones(128)).unwrap();
        assert_eq!(st.read_int(wide, &[]).unwrap(), -1, "every bit of the cell set");
        assert_eq!(st.digest(), bytewise_digest(&st), "full-width register");
        let mem = m.resource_by_name("mem").unwrap();
        st.write_int(mem, &[0xf], -1).unwrap();
        st.write_int(mem, &[7], i64::from(i16::MIN)).unwrap();
        assert_eq!(st.digest(), bytewise_digest(&st), "negative short cells");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn digest_matches_bytewise_reference_on_sparse_writes(
            writes in prop::collection::vec((any::<usize>(), any::<usize>(), value_strategy()), 0..=12),
        ) {
            let st = apply_writes(&model(), &writes);
            prop_assert_eq!(st.digest(), bytewise_digest(&st));
        }

        #[test]
        fn digest_matches_bytewise_reference_on_dense_writes(
            values in prop::collection::vec(value_strategy(), 64..=256),
        ) {
            let m = model();
            let zero = State::new(&m);
            let writes: Vec<_> = m
                .resources()
                .iter()
                .enumerate()
                .flat_map(|(r, res)| (0..zero.element_count(res.id)).map(move |c| (r, c)))
                .zip(values.iter().cycle())
                .map(|((r, c), &v)| (r, c, v))
                .collect();
            let st = apply_writes(&m, &writes);
            prop_assert_eq!(st.digest(), bytewise_digest(&st));
        }
    }
}
