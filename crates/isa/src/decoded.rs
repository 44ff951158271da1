//! The decoded-operation tree: the structured result of matching an
//! instruction word against the coding tree.

use std::sync::Arc;

use lisa_core::model::{CodingTarget, Model, OpId};

use crate::IsaError;

/// A decoded operation instance: which operation (and which compile-time
/// variant) matched, the values of its label-bound operand fields, and the
/// decoded children filling its group/reference coding fields.
///
/// A `Decoded` is produced by [`crate::Decoder::decode`] and by
/// [`crate::Assembler::assemble_instruction`]; the simulator walks it to
/// evaluate behaviors, and [`Decoded::encode`] regenerates the instruction
/// word.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    /// The matched operation.
    pub op: OpId,
    /// Index of the selected variant within the operation.
    pub variant: usize,
    /// Label values by label index (`0` for labels without a coding
    /// field).
    pub labels: Vec<u128>,
    /// Children aligned with the variant's coding fields (`None` for
    /// pattern/label fields). Shared subtrees (`Arc`) keep operand
    /// activation cheap on the simulator's cycle path.
    pub children: Vec<Option<Arc<Decoded>>>,
}

impl Decoded {
    /// Creates a decoded node for an operation, with label and child
    /// storage sized to the given variant.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is out of range for the operation.
    #[must_use]
    pub fn new(model: &Model, op: OpId, variant: usize) -> Decoded {
        let operation = model.operation(op);
        let n_fields = operation.variants[variant].coding.as_ref().map_or(0, |c| c.fields.len());
        Decoded {
            op,
            variant,
            labels: vec![0; operation.labels.len()],
            children: vec![None; n_fields],
        }
    }

    /// The decoded child filling the coding field of local group `gidx`,
    /// if any.
    #[must_use]
    pub fn group_child(&self, model: &Model, gidx: usize) -> Option<&Decoded> {
        let coding = model.operation(self.op).variants[self.variant].coding.as_ref()?;
        coding
            .fields
            .iter()
            .zip(&self.children)
            .find(|(f, _)| matches!(f.target, CodingTarget::Group(g) if g == gidx))
            .and_then(|(_, c)| c.as_deref())
    }

    /// Like [`Decoded::group_child`], but returns the shared handle so
    /// callers can keep the subtree alive without a deep clone.
    #[must_use]
    pub fn group_child_rc(&self, model: &Model, gidx: usize) -> Option<Arc<Decoded>> {
        let coding = model.operation(self.op).variants[self.variant].coding.as_ref()?;
        coding
            .fields
            .iter()
            .zip(&self.children)
            .find(|(f, _)| matches!(f.target, CodingTarget::Group(g) if g == gidx))
            .and_then(|(_, c)| c.clone())
    }

    /// The member operation chosen for local group `gidx`, if decodable
    /// from the coding fields.
    #[must_use]
    pub fn group_choice(&self, model: &Model, gidx: usize) -> Option<OpId> {
        self.group_child(model, gidx).map(|c| c.op)
    }

    /// Group-member choices for all groups of the operation (used for
    /// variant selection).
    #[must_use]
    pub fn group_choices(&self, model: &Model) -> Vec<Option<OpId>> {
        let n = model.operation(self.op).groups.len();
        (0..n).map(|g| self.group_choice(model, g)).collect()
    }

    /// Regenerates the instruction word for this decoded tree: each
    /// coding field's value ORed in at its offset.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::LabelValueTooWide`] or
    /// [`IsaError::LabelFixedBitConflict`] if a label value cannot be
    /// encoded, and [`IsaError::MalformedDecoded`] if a group/reference
    /// field has no child (hand-built trees only).
    pub fn encode(&self, model: &Model) -> Result<u128, IsaError> {
        let operation = model.operation(self.op);
        let coding =
            operation.variants[self.variant].coding.as_ref().ok_or(IsaError::MalformedDecoded {
                operation: operation.name.clone(),
                missing: "a coding section",
            })?;
        let mut word = 0u128;
        for (field, child) in coding.fields.iter().zip(&self.children) {
            let value = match &field.target {
                CodingTarget::Pattern(p) => p.fixed_value(),
                CodingTarget::Label { label, pattern } => {
                    let value = self.labels[*label];
                    if field.width < 128 && value >> field.width != 0 {
                        return Err(IsaError::LabelValueTooWide {
                            operation: operation.name.clone(),
                            label: operation.labels[*label].clone(),
                            value: value as i128,
                            width: field.width,
                        });
                    }
                    if !pattern.matches_u128(value) {
                        return Err(IsaError::LabelFixedBitConflict {
                            operation: operation.name.clone(),
                            label: operation.labels[*label].clone(),
                            value,
                        });
                    }
                    value
                }
                CodingTarget::Group(_) | CodingTarget::Op(_) => {
                    let child = child.as_deref().ok_or_else(|| IsaError::MalformedDecoded {
                        operation: operation.name.clone(),
                        missing: "an operand child",
                    })?;
                    child.encode(model)?
                }
            };
            word |= value << field.offset;
        }
        Ok(word)
    }

    /// Total number of nodes in this decoded tree (diagnostics).
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().flatten().map(|c| c.node_count()).sum::<usize>()
    }
}
