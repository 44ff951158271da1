//! The LISA *model database*: the analysed, name-resolved form of a
//! description, "accessed by all other tools" (paper §4.1).
//!
//! [`Model::build`] performs:
//!
//! * resource and pipeline registration (memory + resource models);
//! * operation registration with `DECLARE` resolution (groups, labels,
//!   references);
//! * compile-time `SWITCH`/`IF` expansion into operation **variants**
//!   (paper §3.4 — "the selection … can already be determined at
//!   compile-time thus avoiding to check the bit at run-time");
//! * coding resolution: element widths, bit offsets, flattened match
//!   patterns, decode-root discovery, cycle and width validation;
//! * ambiguity analysis of group alternatives (aliases are expected to
//!   overlap; anything else is reported as a warning);
//! * generation of the instruction tools' per-model tables
//!   ([`ToolTables`]): decoder trial orders, assembler syntax lead sets
//!   and the assembler's matcher tables.
//!
//! A model also keeps one slot, [`Model::sim_image`], where the
//! simulator generator stores what it derives from the model once.

mod build;
mod coding;
mod error;
mod stats;
mod tools;

pub use coding::{Coding, CodingField, CodingTarget};
pub use error::{ModelError, ModelWarning};
pub use stats::ModelStats;
pub use tools::{
    skip_whitespace, Alternative, AsmElem, AsmVariant, Candidates, ImmForm, Place, Span, ToolTables,
};

use std::any::Any;
use std::collections::HashMap;
use std::sync::OnceLock;

use crate::ast::{ActNode, Block, DataType, Dim, Expr, NumFormat, ResourceClass};

/// The most cells the resources of one model may hold together, counting
/// one per element and one for each scalar.
///
/// The simulator keeps every cell in one arena of 64-bit words addressed
/// by a `u32` index, and allocates and zeroes that arena for each
/// simulator and each snapshot. 2^28 cells fit the index with room to
/// spare and cap one state at 2 GiB, so a description cannot make a
/// simulator ask for more memory than a host can be expected to give it.
pub const MAX_STATE_CELLS: u64 = 1 << 28;

/// Index of a resource in [`Model::resources`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Index of a pipeline in [`Model::pipelines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(pub usize);

/// Index of an operation in [`Model::operations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// A resolved storage object from the `RESOURCE` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Its id.
    pub id: ResourceId,
    /// Declared name.
    pub name: String,
    /// Classifying keyword.
    pub class: ResourceClass,
    /// Element type.
    pub ty: DataType,
    /// Dimensions (empty = scalar).
    pub dims: Vec<Dim>,
}

impl Resource {
    /// Total number of addressable elements (1 for scalars).
    #[must_use]
    pub fn element_count(&self) -> u64 {
        self.dims.iter().map(Dim::len).product()
    }

    /// Whether this is a memory-like (dimensioned) resource.
    #[must_use]
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A resolved pipeline with its ordered stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Its id.
    pub id: PipelineId,
    /// Declared name.
    pub name: String,
    /// Stage names, first stage first.
    pub stages: Vec<String>,
}

impl Pipeline {
    /// Index of a stage by name.
    #[must_use]
    pub fn stage_index(&self, name: &str) -> Option<usize> {
        self.stages.iter().position(|s| s == name)
    }

    /// Number of stages.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stages.len()
    }
}

/// A group instance local to an operation: a named list of alternative
/// operations (the or-rule mechanism).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// The instance name (`Dest`, `Src1`, …).
    pub name: String,
    /// The alternative operations.
    pub members: Vec<OpId>,
}

/// A resolved syntax element of an operation variant.
#[derive(Debug, Clone, PartialEq)]
pub enum SynElem {
    /// Literal text (mnemonic or punctuation).
    Literal(String),
    /// A sub-operand rendered by a group's selected member. A format
    /// (`imm:#s`) forces numeric rendering of the member's label value.
    Group {
        /// Index into the operation's group list.
        group: usize,
        /// Forced numeric format, if any.
        format: Option<NumFormat>,
    },
    /// A sub-operand rendered by a directly referenced operation.
    Op {
        /// The referenced operation.
        op: OpId,
        /// Forced numeric format, if any.
        format: Option<NumFormat>,
    },
    /// A numeric field bound to a label, with its display format.
    Label {
        /// Index into the operation's label list.
        label: usize,
        /// Display format.
        format: NumFormat,
    },
}

/// One specialisation of an operation: the sections that are active for a
/// particular selection of `SWITCH`/`IF` group members. Operations without
/// conditional structuring have exactly one variant with an empty guard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Variant {
    /// `(local group index, selected member)` constraints. Empty = always
    /// active.
    pub guard: Vec<(usize, OpId)>,
    /// Resolved coding (None if the operation has no `CODING`).
    pub coding: Option<Coding>,
    /// Resolved syntax elements.
    pub syntax: Option<Vec<SynElem>>,
    /// Behavior block.
    pub behavior: Option<Block>,
    /// Expression section.
    pub expression: Option<Expr>,
    /// Activation list.
    pub activation: Option<Vec<ActNode>>,
    /// Raw semantics text.
    pub semantics: Option<String>,
}

impl Variant {
    /// Whether this variant is selected given chosen members for the
    /// operation's groups (`choices[i]` = member chosen for group `i`).
    #[must_use]
    pub fn matches(&self, choices: &[Option<OpId>]) -> bool {
        self.guard.iter().all(|(g, m)| choices.get(*g).copied().flatten() == Some(*m))
    }
}

/// A resolved operation with its variants.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Its id.
    pub id: OpId,
    /// Declared name.
    pub name: String,
    /// Whether declared with the `ALIAS` option.
    pub alias: bool,
    /// Pipeline-stage assignment, `(pipeline, stage index)`.
    pub stage: Option<(PipelineId, usize)>,
    /// Local group instances (in declaration order).
    pub groups: Vec<Group>,
    /// Local label names (in declaration order).
    pub labels: Vec<String>,
    /// Declared operation references.
    pub references: Vec<OpId>,
    /// Specialisations; at least one.
    pub variants: Vec<Variant>,
    /// If this operation's coding has a root compare
    /// (`resource == group`), the compared resource.
    pub decode_root: Option<ResourceId>,
    /// User-defined sections (paper §3.2: "the designer may add further
    /// sections in order to describe other attributes, like e.g. power
    /// consumption"): `(section name, raw text)` pairs.
    pub customs: Vec<(String, String)>,
}

impl Operation {
    /// Finds a local group index by name.
    #[must_use]
    pub fn group_index(&self, name: &str) -> Option<usize> {
        self.groups.iter().position(|g| g.name == name)
    }

    /// Finds a label index by name.
    #[must_use]
    pub fn label_index(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// The index of the variant this operation runs with no group
    /// member chosen: the first whose guard matches all-`None` choices
    /// (an unguarded one), else 0.
    #[must_use]
    pub fn default_variant(&self) -> usize {
        self.variants.iter().position(|v| v.matches(&[])).unwrap_or(0)
    }

    /// The coding width of this operation (all variants agree; validated
    /// at build time). `None` if it has no coding.
    #[must_use]
    pub fn coding_width(&self) -> Option<u32> {
        self.variants.iter().find_map(|v| v.coding.as_ref()).map(Coding::width)
    }
}

/// The complete analysed model database.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    resources: Vec<Resource>,
    pipelines: Vec<Pipeline>,
    operations: Vec<Operation>,
    resource_names: HashMap<String, ResourceId>,
    op_names: HashMap<String, OpId>,
    decode_roots: Vec<OpId>,
    main_op: Option<OpId>,
    warnings: Vec<ModelWarning>,
    tools: ToolTables,
    source_lines: usize,
    sim_image: SimImageSlot,
}

/// The type-erased [`Model::sim_image`] slot. lisa-core cannot name the
/// simulator's types, so the value is boxed as `Any`. A cloned model
/// starts with an empty slot, and model equality ignores the slot.
#[derive(Debug, Default)]
pub(crate) struct SimImageSlot(OnceLock<Box<dyn Any + Send + Sync>>);

impl Clone for SimImageSlot {
    fn clone(&self) -> Self {
        SimImageSlot::default()
    }
}

impl PartialEq for SimImageSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Model {
    /// All resources.
    #[must_use]
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// All pipelines.
    #[must_use]
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// All operations.
    #[must_use]
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// Looks up a resource by name.
    #[must_use]
    pub fn resource_by_name(&self, name: &str) -> Option<&Resource> {
        self.resource_names.get(name).map(|id| &self.resources[id.0])
    }

    /// Looks up an operation by name.
    #[must_use]
    pub fn operation_by_name(&self, name: &str) -> Option<&Operation> {
        self.op_names.get(name).map(|id| &self.operations[id.0])
    }

    /// A resource by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// A pipeline by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn pipeline(&self, id: PipelineId) -> &Pipeline {
        &self.pipelines[id.0]
    }

    /// An operation by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn operation(&self, id: OpId) -> &Operation {
        &self.operations[id.0]
    }

    /// Operations whose coding contains a root compare — the decoder entry
    /// points.
    #[must_use]
    pub fn decode_roots(&self) -> &[OpId] {
        &self.decode_roots
    }

    /// The `main` operation, activated once per control step by the
    /// simulator (paper Example 5).
    #[must_use]
    pub fn main_op(&self) -> Option<OpId> {
        self.main_op
    }

    /// The decoder trial orders, assembler syntax lead sets and matcher
    /// tables, generated once with the model.
    #[must_use]
    pub fn tool_tables(&self) -> &ToolTables {
        &self.tools
    }

    /// Non-fatal findings from analysis (coding overlaps, unreachable
    /// operations…).
    #[must_use]
    pub fn warnings(&self) -> &[ModelWarning] {
        &self.warnings
    }

    /// Number of source lines the model was built from (for statistics).
    #[must_use]
    pub fn source_lines(&self) -> usize {
        self.source_lines
    }

    /// The simulator image of this model: built by `init` on the first
    /// call and kept with the model, so every later call, from any
    /// thread, returns the same value. Simulator generation is a one-time
    /// step per description (paper §3.3); `lisa-sim` keeps its lowered
    /// behaviors and translated routines here.
    ///
    /// # Panics
    ///
    /// Panics if an earlier call stored a different type.
    pub fn sim_image<T: Any + Send + Sync>(&self, init: impl FnOnce(&Model) -> T) -> &T {
        self.sim_image
            .0
            .get_or_init(|| Box::new(init(self)))
            .downcast_ref()
            .expect("one simulator image type per model")
    }
}
