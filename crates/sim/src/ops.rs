//! Threaded micro-op simulation: behaviors flattened to linear code.
//!
//! The paper's compiled simulation (§3.3), the fast backend next to the
//! interpretive reference. `lower.rs` lowers behaviors once per model
//! into a slot-resolved tree IR; this module translates that IR further,
//! in the spirit of the paper's claim that compiled simulation can beat
//! interpretation by orders of magnitude. Every operation's
//! default-variant routine is translated once per model into the shared
//! [`ModelImage`]; at predecode time every decoded instruction
//! *instance* is translated into a flat `Vec<MicroOp>` in the
//! simulator's own store — three-address code over one frame of slots,
//! in which
//!
//! * LABEL references are constant-folded against the decoded fields,
//! * operand (group / op-ref) expressions are inlined into the parent,
//! * SWITCH/CASE arms with constant scrutinees keep only the taken arm,
//! * constant resource indices are pre-flattened to absolute cells of the
//!   state arena, each with its wrap byte,
//! * `for` loops with a constant trip count of at most
//!   [`UNROLL_MAX_TRIPS`] are unrolled, their induction variable folded
//!   into each copy of the body,
//! * every translate-time-detectable error becomes a positioned `Fail`
//!   op so runtime error behavior matches the interpretive backend
//!   exactly.
//!
//! Translation is one pass over the IR. Each op names its operands —
//! frame slots, pre-flattened register cells or immediates — and its
//! destination, so reading an operand or storing a result costs no op of
//! its own: tinyrisc's `add` is `enter; R[3] = R[1] + R[2]; zflag = R[3]
//! == 0`. Conditions become one compare-and-jump. The cycle loop
//! dispatches over a contiguous op array with zero name resolution and
//! zero tree traversal. Activation scheduling, pipeline intrinsics,
//! tracing and statistics all reuse the shared engine paths, so
//! `State::digest` and mode-independent `SimStats` stay byte-identical
//! across both modes (enforced by `lisa-conform`'s lockstep oracle).
//! Both backends count the arch profile's register writes, executions
//! and activations in the simulator's one set of counters; a cell write
//! that only the profile listens to is counted in line.

use std::sync::Arc;

use lisa_core::ast::{ActNode, AssignOp, BinOp, ResourceClass, UnOp};
use lisa_core::model::{CodingTarget, Model, OpId, PipelineId, ResourceId};
use lisa_isa::Decoded;

use crate::engine::{Binding, ExecItem, Pending};
use crate::eval::{apply_binop, compound_binop, saturate};
use crate::fasthash::FastMap;
use crate::lower::{lower_act_expr, Builtin, LBlock, LExpr, LPlace, LStmt, Lowered, PipeOp};
use crate::state::{flatten_indices, wrap_to_width, Layout};
use crate::{SimError, Simulator};

/// Where a micro-op reads a value or writes its result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Operand {
    /// A frame slot: a behavior local or a translator temporary.
    Slot(u16),
    /// A resource element at a constant, in-bounds index, named by its
    /// absolute index into the state arena and by its wrap byte (the
    /// cell's unused high bits, `0x80` when it sign-extends), which rides
    /// in the operand's padding. Reading one is one slice load; writing
    /// one is a shift pair and a store. As a source it never names a
    /// memory-class resource (see [`MicroOp::Load`]), so reading it at
    /// its use is unobservable: lowered expressions never write state. As
    /// a destination it can: a store to a memory at a constant index is a
    /// cell too, and the profile records it as write heat, not as a
    /// register write, so a cell write is routed by its resource `res`
    /// (see `Simulator::ops_put`).
    Cell { res: u16, wrap: u8, cell: u32 },
    /// An immediate; never a destination. Wider constants load into a
    /// slot through [`MicroOp::Const`].
    Imm(i32),
}

impl Operand {
    fn slot_mut(&mut self) -> Option<&mut u16> {
        match self {
            Operand::Slot(s) => Some(s),
            _ => None,
        }
    }
}

/// One flat micro-operation in three-address form: a value-producing op
/// names its operands and its destination. Jump targets are absolute
/// indices into the routine's code; `ctx` is the id of the operation the
/// op was translated from, named by division-by-zero errors and `print`
/// events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MicroOp {
    /// `dst = src`.
    Move {
        dst: Operand,
        src: Operand,
    },
    /// `dst = value`, for a constant too wide for [`Operand::Imm`].
    Const {
        dst: Operand,
        value: i64,
    },
    /// `dst = res[flat]`, a read the probe runtime sees: memory reads feed
    /// the arch profile's read heat, so they keep their own op at their
    /// source position instead of becoming a [`Operand::Cell`].
    Load {
        dst: Operand,
        res: ResourceId,
        flat: u32,
    },
    /// `dst = res[idx]` on a one-dimensional base-0 resource.
    LoadIdx {
        dst: Operand,
        res: ResourceId,
        idx: Operand,
    },
    /// `dst = res[..]` with `n` indices in consecutive slots from `idx`.
    LoadDyn {
        dst: Operand,
        res: ResourceId,
        idx: u16,
        n: u8,
    },
    /// `dst = op src`.
    Unary {
        op: UnOp,
        dst: Operand,
        src: Operand,
    },
    /// `dst = a op b`.
    Binary {
        op: BinOp,
        dst: Operand,
        a: Operand,
        b: Operand,
        ctx: u32,
    },
    /// `dst = f(a, b)`; `print` emits its event and passes `a` through.
    Builtin {
        f: Builtin,
        dst: Operand,
        a: Operand,
        b: Operand,
        ctx: u32,
    },
    /// `res[idx] = src` on a one-dimensional base-0 resource.
    StoreIdx {
        res: ResourceId,
        idx: Operand,
        src: Operand,
    },
    /// `res[..] = src` with `n` indices in consecutive slots from `idx`.
    StoreDyn {
        res: ResourceId,
        idx: u16,
        n: u8,
        src: Operand,
    },
    /// `res[..] = res[..] op rhs` with dynamic indices: compound
    /// assignment and `++`/`--`.
    RmwDyn {
        res: ResourceId,
        idx: u16,
        n: u8,
        op: BinOp,
        rhs: Operand,
        ctx: u32,
    },
    Jump(u32),
    /// Jump when `a op b` is zero: every conditional branch.
    JumpUnless {
        op: BinOp,
        a: Operand,
        b: Operand,
        ctx: u32,
        target: u32,
    },
    /// Pipeline intrinsic (shift / stall / flush), shared engine path.
    Pipe(PipeOp),
    /// Invoke an embedded child instance routine (behavior+activation).
    InvokeChild(u16),
    /// Invoke an operation with no operand binding via the engine.
    InvokeUnbound(OpId),
    /// Entry marker for an inlined child instance: the per-operation
    /// statistics bump and Exec trace event the out-of-line invocation
    /// would have produced.
    Enter(OpId),
    /// Zero an inlined child's local-slot block — fresh locals per
    /// invocation, exactly as if the child ran in its own frame.
    ZeroLocals {
        base: u16,
        n: u16,
    },
    /// Raise a translate-time-detected error at its exact runtime
    /// position (index into the routine's error table).
    Fail(u16),
}

impl MicroOp {
    /// The jump target of a control-transfer op — the one place that
    /// patching and child inlining retarget through.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            MicroOp::Jump(t) | MicroOp::JumpUnless { target: t, .. } => Some(t),
            _ => None,
        }
    }

    /// The frame slots an op names — the one place child inlining
    /// relocates them through.
    fn slots_mut(&mut self) -> [Option<&mut u16>; 3] {
        match self {
            MicroOp::Move { dst, src } | MicroOp::Unary { dst, src, .. } => {
                [dst.slot_mut(), src.slot_mut(), None]
            }
            MicroOp::Const { dst, .. } | MicroOp::Load { dst, .. } => [dst.slot_mut(), None, None],
            MicroOp::LoadIdx { dst, idx, .. } => [dst.slot_mut(), idx.slot_mut(), None],
            MicroOp::LoadDyn { dst, idx, .. } => [dst.slot_mut(), Some(idx), None],
            MicroOp::Binary { dst, a, b, .. } | MicroOp::Builtin { dst, a, b, .. } => {
                [dst.slot_mut(), a.slot_mut(), b.slot_mut()]
            }
            MicroOp::StoreIdx { idx, src, .. } => [idx.slot_mut(), src.slot_mut(), None],
            MicroOp::StoreDyn { idx, src, .. } => [Some(idx), src.slot_mut(), None],
            MicroOp::RmwDyn { idx, rhs, .. } => [Some(idx), rhs.slot_mut(), None],
            MicroOp::JumpUnless { a, b, .. } => [a.slot_mut(), b.slot_mut(), None],
            MicroOp::ZeroLocals { base, .. } => [Some(base), None, None],
            MicroOp::Jump(_)
            | MicroOp::Pipe(_)
            | MicroOp::InvokeChild(_)
            | MicroOp::InvokeUnbound(_)
            | MicroOp::Enter(_)
            | MicroOp::Fail(_) => [None, None, None],
        }
    }
}

/// The `ctx` an op records for `op`.
fn ctx_of(op: OpId) -> u32 {
    u32::try_from(op.0).expect("operation ids fit in u32")
}

fn is_compare(op: BinOp) -> bool {
    matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
}

/// The comparison that holds exactly when `op` does not.
fn inverse_compare(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => unreachable!("{other:?} is not a comparison"),
    }
}

/// A translated routine: flat code plus the tables it references.
#[derive(Debug)]
pub(crate) struct OpsRoutine {
    pub(crate) code: Vec<MicroOp>,
    /// Behavior locals: frame slots `0..n_locals`, zeroed on entry.
    pub(crate) n_locals: u16,
    /// Frame size: the locals, the translator's temporaries and the slot
    /// blocks of inlined children.
    pub(crate) n_slots: u16,
    /// Child instances invoked by `InvokeChild`, in emission order.
    pub(crate) children: Vec<ChildInvoke>,
    /// Errors referenced by `Fail` ops.
    pub(crate) errors: Vec<SimError>,
    /// Pre-resolved ACTIVATION plan, when this variant has one.
    pub(crate) act: Option<ActPlan>,
}

/// A pre-lowered ACTIVATION section: target names resolved to operation
/// ids (with their translated routines), delays precomputed from static
/// stage assignments, pipeline intrinsics parsed, and conditions lowered
/// to micro-op code — the string matching the interpretive scheduler
/// performs per cycle all happens once here.
#[derive(Debug)]
pub(crate) struct ActPlan {
    pub(crate) steps: Vec<ActStep>,
    pub(crate) targets: Vec<ActTarget>,
    /// Condition routines referenced by `If`/`Switch` steps.
    pub(crate) conds: Vec<OpsRoutine>,
    /// Errors referenced by `Fail` steps.
    pub(crate) errors: Vec<SimError>,
}

/// One pre-resolved ACTIVATION item.
#[derive(Debug)]
pub(crate) enum ActStep {
    /// Schedule `targets[i]`.
    Activate(u16),
    /// Pipeline intrinsic: acts immediately through the shared engine
    /// path (identical control logic / events / stall accounting).
    Pipe(PipeOp),
    /// Conditional activation; the condition runs as a micro-op routine.
    If { cond: u16, then_steps: Vec<ActStep>, else_steps: Vec<ActStep> },
    /// Switch over a resource value.
    Switch { cond: u16, cases: Vec<(i64, Vec<ActStep>)>, default: Vec<ActStep> },
    /// Raise a translate-time-detected error at its runtime position.
    Fail(u16),
}

/// A resolved activation target with its precomputed schedule slot.
#[derive(Debug)]
pub(crate) struct ActTarget {
    /// The activating operation (event attribution).
    pub(crate) from: OpId,
    pub(crate) op: OpId,
    /// The target's routine when it has an operand binding; scheduled
    /// items carry this index, so maturing runs it without a cache probe.
    pub(crate) routine: Option<RoutineId>,
    /// Spatial distance plus explicit `;` delay, both static.
    pub(crate) delay: u32,
    /// Target pipeline stage when the operation is pipelined.
    pub(crate) stage: Option<(PipelineId, usize)>,
}

/// A bound child operand kept out of line: its operation and routine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildInvoke {
    pub(crate) op: OpId,
    pub(crate) routine: RoutineId,
}

/// Index of a translated routine in one simulator's [`RoutineStore`]:
/// the model image's routines first, then the simulator's own. Plain
/// data: scheduling, invoking or snapshotting by id touches no reference
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoutineId(u32);

/// One store entry: a routine and the decoded instance it was
/// specialized against (`None` for default-variant routines).
#[derive(Debug)]
struct StoredRoutine {
    decoded: Option<Arc<Decoded>>,
    routine: OpsRoutine,
}

/// Every routine one simulator can run, addressed by [`RoutineId`]: the
/// model image's shared routines, then the simulator's own, appended as
/// instances are bound. Append-only between reclaims, so an id stays
/// valid; but the owned vector may reallocate on append, so code holds
/// ids, not references, across anything that can translate.
#[derive(Debug)]
struct RoutineStore<'m> {
    shared: &'m [StoredRoutine],
    own: Vec<StoredRoutine>,
}

impl RoutineStore<'_> {
    fn push(&mut self, decoded: Option<Arc<Decoded>>, routine: OpsRoutine) -> RoutineId {
        let index = self.shared.len() + self.own.len();
        let id = RoutineId(u32::try_from(index).expect("routine store below u32::MAX"));
        self.own.push(StoredRoutine { decoded, routine });
        id
    }

    /// Number of routines this simulator added (the shared ones excluded).
    fn len(&self) -> usize {
        self.own.len()
    }

    /// The ACTIVATION plan of routine `id`, if it has one.
    fn plan(&self, id: RoutineId) -> Option<&ActPlan> {
        self[id].routine.act.as_ref()
    }

    /// The operation a bound routine's decoded instance belongs to.
    fn decoded_op(&self, id: RoutineId) -> OpId {
        self[id].decoded.as_ref().expect("bound routine").op
    }
}

impl std::ops::Index<RoutineId> for RoutineStore<'_> {
    type Output = StoredRoutine;

    #[inline]
    fn index(&self, id: RoutineId) -> &StoredRoutine {
        let i = id.0 as usize;
        match self.shared.get(i) {
            Some(r) => r,
            None => &self.own[i - self.shared.len()],
        }
    }
}

/// What ops simulation generates once per model: the lowered behaviors
/// and the default-variant routine of every operation. Built by the
/// first ops [`Simulator::new`] on a model and kept with it
/// ([`Model::sim_image`]); every later ops simulator on that model,
/// on any thread, shares it.
#[derive(Debug)]
pub(crate) struct ModelImage {
    lowered: Lowered,
    /// The state arena's layout, which cell operands index.
    layout: Layout,
    routines: Vec<StoredRoutine>,
    /// Default-variant routine per operation id (no operand binding).
    unbound: Vec<RoutineId>,
}

impl ModelImage {
    /// The model's image, built on first use. A lowering error is kept
    /// too, so every ops simulator on the model reports the same one.
    pub(crate) fn of(model: &Model) -> Result<&ModelImage, SimError> {
        model.sim_image(ModelImage::build).as_ref().map_err(Clone::clone)
    }

    fn build(model: &Model) -> Result<ModelImage, SimError> {
        let lowered = Lowered::lower(model)?;
        let layout = Layout::of(model);
        let mut image = ModelImage { lowered, layout, routines: Vec::new(), unbound: Vec::new() };
        // Translated over the empty image, the routines land in the
        // tables' own store under the ids they keep in the image.
        let mut t = OpsTables::over(model, &image);
        let unbound = model
            .operations()
            .iter()
            .map(|op| {
                let variant = default_variant(model, op.id);
                let routine = translate_routine(&mut t, op.id, variant, None);
                t.store.push(None, routine)
            })
            .collect();
        image.routines = t.store.own;
        image.unbound = unbound;
        Ok(image)
    }
}

/// Per-simulator translation state for ops mode: the routine store and
/// the caches and pools that index into it.
#[derive(Debug)]
pub(crate) struct OpsTables<'m> {
    /// What translation reads: the model and its lowered behaviors.
    model: &'m Model,
    lowered: &'m Lowered,
    layout: &'m Layout,
    store: RoutineStore<'m>,
    /// Default-variant routine per operation id, in the image.
    pub(crate) unbound: &'m [RoutineId],
    /// Bound routines keyed by (`Arc<Decoded>` pointer, operation id). The
    /// store entry holds the `Arc`, pinning the allocation so a key can
    /// never be reused while its entry is live.
    instances: FastMap<(usize, usize), RoutineId>,
    /// Fused decode+translate cache for decode-root fetches: one lookup
    /// replaces the word-cache probe plus the instance-cache probe.
    words: FastMap<u128, RoutineId>,
    /// Recycled execution frames (one slot vector each), so nested
    /// routine invocations allocate nothing in the steady state.
    frames: Vec<Vec<i64>>,
    /// Recycled target-index buffers for behavior-context plan drains.
    act_scratch: Vec<Vec<u16>>,
}

/// Safety valve for callers that mint transient `Arc<Decoded>` values
/// (e.g. repeated `execute_decoded`): once a simulator's own routines
/// reach this many entries, the next step boundary drops them all.
const OPS_CACHE_MAX: usize = 1 << 16;

/// The variant an operation runs with no operand binding.
fn default_variant(model: &Model, op: OpId) -> usize {
    let operation = model.operation(op);
    let choices = vec![None; operation.groups.len()];
    operation.variants.iter().position(|v| v.matches(&choices)).unwrap_or(0)
}

impl<'m> OpsTables<'m> {
    /// One simulator's empty tables over the model's shared image.
    pub(crate) fn over(model: &'m Model, image: &'m ModelImage) -> OpsTables<'m> {
        OpsTables {
            model,
            lowered: &image.lowered,
            layout: &image.layout,
            store: RoutineStore { shared: &image.routines, own: Vec::new() },
            unbound: &image.unbound,
            instances: FastMap::default(),
            words: FastMap::default(),
            frames: Vec::new(),
            act_scratch: Vec::new(),
        }
    }

    /// The routine running `op` against `decoded`, translated on miss.
    /// `decoded` is usually an instance of `op` itself; otherwise `op`'s
    /// default variant runs with `decoded`'s fields bound.
    pub(crate) fn bind(&mut self, op: OpId, decoded: &Arc<Decoded>) -> RoutineId {
        let key = (Arc::as_ptr(decoded) as usize, op.0);
        if let Some(&id) = self.instances.get(&key) {
            return id;
        }
        let variant =
            if decoded.op == op { decoded.variant } else { default_variant(self.model, op) };
        let routine = translate_routine(self, op, variant, Some(decoded));
        let id = self.store.push(Some(Arc::clone(decoded)), routine);
        self.instances.insert(key, id);
        id
    }

    /// Like [`OpsTables::bind`] for the binding of stored routine `id`
    /// (a fetched word's): a hit clones nothing.
    pub(crate) fn rebind(&mut self, op: OpId, id: RoutineId) -> RoutineId {
        let decoded = self.store[id].decoded.as_ref().expect("bound routine");
        if decoded.op == op {
            return id;
        }
        if let Some(&hit) = self.instances.get(&(Arc::as_ptr(decoded) as usize, op.0)) {
            return hit;
        }
        let decoded = Arc::clone(decoded);
        self.bind(op, &decoded)
    }

    /// A binding that means the same in any simulator: routine ids turn
    /// back into the decoded instance they were translated from.
    fn portable(&self, bind: &Binding) -> Binding {
        match bind {
            Binding::Routine(id) => {
                self.store[*id].decoded.clone().map_or(Binding::Unbound, Binding::Decoded)
            }
            other => other.clone(),
        }
    }

    /// Resolves decoded bindings in `pending` to this store's routines.
    fn bind_pending(&mut self, pending: &mut [Pending]) {
        for p in pending {
            if let Binding::Decoded(d) = &p.item.bind {
                p.item.bind = Binding::Routine(self.bind(p.item.op, d));
            }
        }
    }

    /// The safety valve: drops this simulator's own routines and both
    /// caches, carrying `pending` (the only ids held outside the store at
    /// a step boundary) across by re-resolving their bindings.
    fn reclaim(&mut self, pending: &mut [Pending]) {
        for p in pending.iter_mut() {
            p.item.bind = self.portable(&p.item.bind);
        }
        self.store.own.clear();
        self.instances.clear();
        self.words.clear();
        self.bind_pending(pending);
    }
}

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

/// Translation context: which operation's code we are inlining and the
/// decoded instance (if any) its labels/operands resolve against.
#[derive(Clone, Copy)]
struct Ctx<'d> {
    op: OpId,
    decoded: Option<&'d Decoded>,
}

/// A place resolved as far as translate time allows.
enum PlaceKind<'e, 'd> {
    Local(u16),
    Flat { res: ResourceId, flat: u32 },
    Dyn { res: ResourceId, indices: &'e [LExpr], ctx: Ctx<'d> },
    Err(SimError),
}

/// Break/continue patch collection for one enclosing loop or switch.
struct CtlFrame {
    is_loop: bool,
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

struct Emitter<'m, 'e, 'o> {
    model: &'m Model,
    tables: &'e Lowered,
    /// The store that out-of-line children and activation targets of
    /// the routine being emitted are appended to.
    ops: &'o mut OpsTables<'m>,
    code: Vec<MicroOp>,
    /// Translated child instances, in `InvokeChild` order; they enter the
    /// store only if [`inline_children`] keeps them out of line.
    children: Vec<(Arc<Decoded>, OpsRoutine)>,
    errors: Vec<SimError>,
    frames: Vec<CtlFrame>,
    /// Break/continue with no enclosing construct: ends the behavior
    /// (tree-walk semantics: the flow propagates out and is discarded).
    end_patches: Vec<usize>,
    /// The next free temporary slot. Temporaries live within one
    /// statement, so each statement hands its own back.
    next_slot: u16,
    /// Frame slots used so far: the locals, then the temporaries.
    n_slots: u16,
    /// Induction variables of the unrolled loops being emitted, with the
    /// current iteration's value (innermost last); reads fold to it.
    known: Vec<(u16, i64)>,
    /// Body copies the enclosing unrolled loops already multiply to.
    unroll_copies: usize,
}

/// Most iterations a constant-trip `for` loop may have to be unrolled.
const UNROLL_MAX_TRIPS: usize = 16;

/// Cap on body copies across nested unrolled loops (the product of their
/// trip counts), so nesting cannot blow code size up exponentially.
const UNROLL_MAX_COPIES: usize = 256;

/// Translates one `(operation, variant)` behavior, specialized against
/// `decoded` when a binding exists. Infallible: anything that would
/// error at run time in the interpretive backend becomes a positioned
/// `Fail` op.
fn translate_routine(
    ops: &mut OpsTables<'_>,
    op: OpId,
    variant: usize,
    decoded: Option<&Decoded>,
) -> OpsRoutine {
    let tables = ops.lowered;
    let idx = tables.slot(op, variant);
    let mut e = Emitter::new(ops, tables.locals_count[idx]);
    if let Some(block) = tables.behaviors[idx].as_ref() {
        e.block(block, Ctx { op, decoded });
    }
    let end = e.here();
    for j in std::mem::take(&mut e.end_patches) {
        e.patch_to(j, end);
    }
    let draft = Draft {
        code: e.code,
        n_locals: tables.locals_count[idx],
        n_slots: e.n_slots,
        children: e.children,
        errors: e.errors,
    };
    let act = translate_act_plan(ops, op, variant, decoded);
    inline_children(ops, draft, act)
}

/// An emitted routine whose children are not yet placed: each is either
/// spliced into the parent or appended to the store.
struct Draft {
    code: Vec<MicroOp>,
    n_locals: u16,
    n_slots: u16,
    children: Vec<(Arc<Decoded>, OpsRoutine)>,
    errors: Vec<SimError>,
}

/// Flattened-size cap: beyond this, child invocations stay as calls
/// (blow-up guard for pathologically deep operand trees).
const INLINE_CODE_MAX: usize = 1 << 14;

/// Splices activation-free child routines into the parent's code — the
/// "threaded code" flattening step. An out-of-line `InvokeChild` costs a
/// frame acquire/release, a nested dispatch entry and an activation-plan
/// check per execution; after flattening the child contributes one
/// `Enter` marker (statistics + Exec event, identical to the call) plus
/// its own micro-ops run in the parent's frame. The child's slots move
/// to a fresh block and its locals are re-zeroed at each invocation
/// site, so loop-carried behavior is unchanged. Children with an
/// ACTIVATION plan keep the call — their plan must run after the
/// behavior. The pass runs bottom-up for free: children are fully
/// translated (and themselves flattened) before the parent routine is
/// assembled.
fn inline_children(ops: &mut OpsTables<'_>, r: Draft, act: Option<ActPlan>) -> OpsRoutine {
    let mut new_len = 0usize;
    let mut total_slots = r.n_slots as usize;
    let mut any = false;
    for op in &r.code {
        new_len += 1;
        if let MicroOp::InvokeChild(k) = op {
            let child = &r.children[*k as usize].1;
            if child.act.is_none() {
                any = true;
                new_len += child.code.len() + usize::from(child.n_locals > 0);
                total_slots += child.n_slots as usize;
            }
        }
    }
    if !any || new_len > INLINE_CODE_MAX || total_slots > u16::MAX as usize {
        let children = r
            .children
            .into_iter()
            .map(|(d, routine)| ChildInvoke { op: d.op, routine: ops.store.push(Some(d), routine) })
            .collect();
        return OpsRoutine {
            code: r.code,
            n_locals: r.n_locals,
            n_slots: r.n_slots,
            children,
            errors: r.errors,
            act,
        };
    }

    // Pass 1: the new index of every old instruction (plus one-past-end,
    // a valid jump target for loop exits).
    let mut new_pos: Vec<u32> = Vec::with_capacity(r.code.len() + 1);
    let mut at = 0u32;
    for op in &r.code {
        new_pos.push(at);
        at += 1;
        if let MicroOp::InvokeChild(k) = op {
            let child = &r.children[*k as usize].1;
            if child.act.is_none() {
                at += u32::from(child.n_locals > 0) + child.code.len() as u32;
            }
        }
    }
    new_pos.push(at);

    // Pass 2: emit, relocating parent jumps through `new_pos` and child
    // jumps/slots/tables by their splice bases.
    // Each child is named by exactly one `InvokeChild`, so it is moved
    // out (into the store or the splice) the one time it is reached.
    let mut sites: Vec<Option<(Arc<Decoded>, OpsRoutine)>> =
        r.children.into_iter().map(Some).collect();
    let mut code: Vec<MicroOp> = Vec::with_capacity(new_len);
    let mut children: Vec<ChildInvoke> = Vec::new();
    let mut errors = r.errors;
    let mut slot_base = r.n_slots;
    for op in &r.code {
        match op {
            MicroOp::InvokeChild(k) => {
                let (decoded, child) = sites[*k as usize].take().expect("one site per child");
                if child.act.is_some() {
                    let nk = children.len() as u16;
                    let child_op = decoded.op;
                    let routine = ops.store.push(Some(decoded), child);
                    children.push(ChildInvoke { op: child_op, routine });
                    code.push(MicroOp::InvokeChild(nk));
                    continue;
                }
                code.push(MicroOp::Enter(decoded.op));
                if child.n_locals > 0 {
                    code.push(MicroOp::ZeroLocals { base: slot_base, n: child.n_locals });
                }
                let base = code.len() as u32;
                let err_base = errors.len() as u16;
                let child_base = children.len() as u16;
                errors.extend(child.errors.iter().cloned());
                children.extend_from_slice(&child.children);
                for &cop in &child.code {
                    let mut cop = cop;
                    for slot in cop.slots_mut().into_iter().flatten() {
                        *slot += slot_base;
                    }
                    match &mut cop {
                        MicroOp::InvokeChild(ck) => *ck += child_base,
                        MicroOp::Fail(fk) => *fk += err_base,
                        _ => {}
                    }
                    if let Some(t) = cop.target_mut() {
                        *t += base;
                    }
                    code.push(cop);
                }
                slot_base += child.n_slots;
            }
            &other => {
                let mut op = other;
                if let Some(t) = op.target_mut() {
                    *t = new_pos[*t as usize];
                }
                code.push(op);
            }
        }
    }
    OpsRoutine { code, n_locals: r.n_locals, n_slots: slot_base, children, errors, act }
}

/// Lowers the `(operation, variant)` ACTIVATION section to a plan, when
/// one exists. Resolution order matches the interpretive scheduler
/// exactly: group of the activating operation first, then operation by
/// name; pipeline intrinsics are recognised by their first path segment.
fn translate_act_plan(
    ops: &mut OpsTables<'_>,
    op: OpId,
    variant: usize,
    decoded: Option<&Decoded>,
) -> Option<ActPlan> {
    let activation =
        ops.model.operation(op).variants.get(variant).and_then(|v| v.activation.as_ref())?;
    let mut b = PlanBuilder {
        ops,
        op,
        decoded,
        targets: Vec::new(),
        conds: Vec::new(),
        errors: Vec::new(),
    };
    let steps = b.steps(activation);
    Some(ActPlan { steps, targets: b.targets, conds: b.conds, errors: b.errors })
}

struct PlanBuilder<'m, 'e, 'o> {
    ops: &'o mut OpsTables<'m>,
    op: OpId,
    decoded: Option<&'e Decoded>,
    targets: Vec<ActTarget>,
    conds: Vec<OpsRoutine>,
    errors: Vec<SimError>,
}

impl PlanBuilder<'_, '_, '_> {
    fn steps(&mut self, nodes: &[ActNode]) -> Vec<ActStep> {
        nodes.iter().map(|n| self.node(n)).collect()
    }

    fn node(&mut self, node: &ActNode) -> ActStep {
        match node {
            ActNode::Activate { name, delay } => self.activate(&name.name, *delay),
            ActNode::Call { call, delay } => {
                // Pipeline intrinsics act immediately regardless of delay
                // (stall/flush/shift are control operations); operation
                // calls schedule like activations.
                match self.pipe_intrinsic(call) {
                    Some(step) => step,
                    None => {
                        let target = call.path.first().map(|p| p.name.as_str()).unwrap_or_default();
                        self.activate(target, *delay)
                    }
                }
            }
            ActNode::If { cond, then_items, else_items, .. } => {
                match self.cond(cond) {
                    CondKind::Const(v) => {
                        let branch = if v != 0 { then_items } else { else_items };
                        ActStep::If {
                            cond: u16::MAX, // unused: branch resolved at translate time
                            then_steps: self.steps(branch),
                            else_steps: Vec::new(),
                        }
                    }
                    CondKind::Routine(c) => ActStep::If {
                        cond: c,
                        then_steps: self.steps(then_items),
                        else_steps: self.steps(else_items),
                    },
                    CondKind::Err(k) => ActStep::Fail(k),
                }
            }
            ActNode::Switch { scrutinee, cases, default, .. } => match self.cond(scrutinee) {
                CondKind::Const(v) => {
                    let body =
                        cases.iter().find(|(cv, _)| *cv == v).map(|(_, b)| b).unwrap_or(default);
                    ActStep::If {
                        cond: u16::MAX,
                        then_steps: self.steps(body),
                        else_steps: Vec::new(),
                    }
                }
                CondKind::Routine(c) => ActStep::Switch {
                    cond: c,
                    cases: cases.iter().map(|(v, b)| (*v, self.steps(b))).collect(),
                    default: self.steps(default),
                },
                CondKind::Err(k) => ActStep::Fail(k),
            },
        }
    }

    fn fail(&mut self, err: SimError) -> ActStep {
        let k = self.errors.len() as u16;
        self.errors.push(err);
        ActStep::Fail(k)
    }

    /// Resolves one activation target (group first, then operation by
    /// name — the interpretive `activate_name` order) and precomputes
    /// its delay from the static stage assignments.
    fn activate(&mut self, name: &str, extra_delay: u32) -> ActStep {
        let operation = self.ops.model.operation(self.op);
        let (target_op, child) = if let Some(gidx) = operation.group_index(name) {
            match self.decoded.and_then(|d| d.group_child_rc(self.ops.model, gidx)) {
                Some(child) => (child.op, Some(child)),
                None => {
                    return self.fail(SimError::UnboundGroup {
                        group: name.to_owned(),
                        operation: operation.name.clone(),
                    });
                }
            }
        } else if let Some(target) = self.ops.model.operation_by_name(name) {
            let target = target.id;
            // Direct operation activation; if the current binding has a
            // matching op-reference child, pass it along.
            let child = self.decoded.and_then(|d| {
                let coding = operation.variants.get(d.variant)?.coding.as_ref()?;
                coding.fields.iter().zip(&d.children).find_map(|(f, c)| match (&f.target, c) {
                    (CodingTarget::Op(o), Some(c)) if *o == target => Some(Arc::clone(c)),
                    _ => None,
                })
            });
            (target, child)
        } else {
            return self.fail(SimError::UnknownActivation {
                name: name.to_owned(),
                operation: operation.name.clone(),
            });
        };

        let target_stage = self.ops.model.operation(target_op).stage;
        let spatial = match (operation.stage, target_stage) {
            (_, None) => 0,
            (None, Some((_, s))) => s as u32,
            (Some((p0, s0)), Some((p1, s1))) if p0 == p1 => s1.saturating_sub(s0) as u32,
            (Some(_), Some((_, s1))) => s1 as u32,
        };
        let routine = child.as_ref().map(|c| self.ops.bind(c.op, c));
        let k = self.targets.len() as u16;
        self.targets.push(ActTarget {
            from: self.op,
            op: target_op,
            routine,
            delay: spatial + extra_delay,
            stage: target_stage,
        });
        ActStep::Activate(k)
    }

    /// Parses `pipe.shift()` / `pipe.stall()` / `pipe.flush()` and the
    /// per-stage forms. `None` when the call's first segment names no
    /// pipeline (it then resolves as an activation).
    fn pipe_intrinsic(&mut self, call: &lisa_core::ast::Call) -> Option<ActStep> {
        let first = call.path.first()?;
        let pipeline = self.ops.model.pipelines().iter().find(|p| p.name == first.name)?;
        let pid = pipeline.id;
        let path_str = || call.path.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(".");
        let step = match call.path.len() {
            2 => match call.path[1].name.as_str() {
                "shift" => ActStep::Pipe(PipeOp::Shift(pid)),
                "stall" => ActStep::Pipe(PipeOp::Stall(pid, pipeline.depth().saturating_sub(1))),
                "flush" => ActStep::Pipe(PipeOp::Flush(pid, None)),
                _ => self.fail(SimError::UnknownPipeline { path: path_str() }),
            },
            3 => {
                let Some(sidx) = pipeline.stage_index(&call.path[1].name) else {
                    return Some(self.fail(SimError::UnknownPipeline { path: path_str() }));
                };
                match call.path[2].name.as_str() {
                    "stall" => ActStep::Pipe(PipeOp::Stall(pid, sidx)),
                    "flush" => ActStep::Pipe(PipeOp::Flush(pid, Some(sidx))),
                    _ => self.fail(SimError::UnknownPipeline { path: path_str() }),
                }
            }
            _ => self.fail(SimError::UnknownPipeline { path: path_str() }),
        };
        Some(step)
    }

    /// Lowers a condition expression. Constant-foldable conditions are
    /// pure, so resolving the branch at translate time is observably
    /// identical to re-evaluating every cycle.
    fn cond(&mut self, expr: &lisa_core::ast::Expr) -> CondKind {
        let lexpr = match lower_act_expr(self.ops.model, self.op, expr) {
            Ok(l) => l,
            Err(e) => {
                let k = self.errors.len() as u16;
                self.errors.push(e);
                return CondKind::Err(k);
            }
        };
        // Slot 0 receives the condition's value.
        let mut e = Emitter::new(self.ops, 1);
        let ctx = Ctx { op: self.op, decoded: self.decoded };
        if let Some(v) = e.const_eval(&lexpr, ctx) {
            return CondKind::Const(v);
        }
        e.expr_into(&lexpr, ctx, Operand::Slot(0));
        // Expressions invoke no operations, so a condition has no children.
        debug_assert!(e.children.is_empty());
        let routine = OpsRoutine {
            code: e.code,
            n_locals: 0,
            n_slots: e.n_slots,
            children: Vec::new(),
            errors: e.errors,
            act: None,
        };
        let k = self.conds.len() as u16;
        self.conds.push(routine);
        CondKind::Routine(k)
    }
}

enum CondKind {
    Const(i64),
    Routine(u16),
    Err(u16),
}

/// Pure builtin evaluation shared by the translator's constant folder
/// and the runtime dispatcher (`Print`/`Nop` are handled by callers).
fn eval_builtin_pure(f: Builtin, vals: [i64; 2]) -> i64 {
    match f {
        Builtin::Sext => wrap_to_width(vals[0], vals[1].clamp(1, 64) as u32, true),
        Builtin::Zext => wrap_to_width(vals[0], vals[1].clamp(1, 64) as u32, false),
        Builtin::Saturate => saturate(vals[0], vals[1].clamp(1, 64) as u32),
        Builtin::Abs => vals[0].wrapping_abs(),
        Builtin::Min => vals[0].min(vals[1]),
        Builtin::Max => vals[0].max(vals[1]),
        Builtin::Norm => {
            // Redundant sign bits below the MSB of the `w`-bit value.
            let w = vals[1].clamp(1, 64) as u32;
            let v = wrap_to_width(vals[0], w, true);
            let same_as_sign = if v < 0 { (!v).leading_zeros() } else { v.leading_zeros() };
            i64::from(same_as_sign - 1 - (64 - w))
        }
        Builtin::Print | Builtin::Nop => vals[0],
    }
}

impl<'m: 'e, 'e, 'o> Emitter<'m, 'e, 'o> {
    /// An emitter for a routine whose behavior has `n_locals` locals;
    /// temporaries are allocated above them.
    fn new(ops: &'o mut OpsTables<'m>, n_locals: u16) -> Self {
        Emitter {
            model: ops.model,
            tables: ops.lowered,
            ops,
            code: Vec::new(),
            children: Vec::new(),
            errors: Vec::new(),
            frames: Vec::new(),
            end_patches: Vec::new(),
            next_slot: n_locals,
            n_slots: n_locals,
            known: Vec::new(),
            unroll_copies: 1,
        }
    }
}

impl<'m, 'e> Emitter<'m, 'e, '_> {
    /// The next code position, as a jump target.
    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Appends `op` and returns its index (for patching).
    fn emit(&mut self, op: MicroOp) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        self.patch_to(at, target);
    }

    fn patch_all(&mut self, jumps: Vec<usize>) {
        for j in jumps {
            self.patch(j);
        }
    }

    fn patch_to(&mut self, at: usize, target: u32) {
        if let Some(t) = self.code[at].target_mut() {
            *t = target;
        }
    }

    fn fail(&mut self, err: SimError) {
        let k = self.errors.len() as u16;
        self.errors.push(err);
        self.emit(MicroOp::Fail(k));
    }

    /// A fresh temporary slot, free again when the enclosing expression
    /// or statement restores `next_slot`.
    fn temp(&mut self) -> u16 {
        let t = self.next_slot;
        self.next_slot = t.checked_add(1).expect("a frame holds at most u16::MAX slots");
        self.n_slots = self.n_slots.max(self.next_slot);
        t
    }

    /// The operand for constant `v`: an immediate, or a slot loaded with
    /// it when it is wider than 32 bits.
    fn imm(&mut self, v: i64) -> Operand {
        match i32::try_from(v) {
            Ok(v) => Operand::Imm(v),
            Err(_) => {
                let t = self.temp();
                self.emit(MicroOp::Const { dst: Operand::Slot(t), value: v });
                Operand::Slot(t)
            }
        }
    }

    /// `dst = v`.
    fn move_const(&mut self, dst: Operand, v: i64) {
        match i32::try_from(v) {
            Ok(v) => self.mov(dst, Operand::Imm(v)),
            Err(_) => {
                self.emit(MicroOp::Const { dst, value: v });
            }
        }
    }

    /// `dst = src`; a slot copied onto itself emits nothing (a cell copied
    /// onto itself still writes, with its event).
    fn mov(&mut self, dst: Operand, src: Operand) {
        if dst != src || !matches!(dst, Operand::Slot(_)) {
            self.emit(MicroOp::Move { dst, src });
        }
    }

    /// The cell operand reading element `flat` of `res` at its use, when
    /// that read is unobservable. Memory reads feed the probe runtime's
    /// read heat (`ProbeRuntime::observe_read`), so they keep a
    /// [`MicroOp::Load`] at their source position; so does a resource id
    /// too wide for a cell.
    fn silent_cell(&self, res: ResourceId, flat: u32) -> Option<Operand> {
        let class = self.model.resource(res).class;
        let memory = matches!(class, ResourceClass::DataMemory | ResourceClass::ProgramMemory);
        (!memory && u16::try_from(res.0).is_ok()).then(|| self.cell(res, flat))
    }

    /// The cell operand of element `flat` of `res`, a place resolved to
    /// `PlaceKind::Flat`, whose resource id `Emitter::res_place` checked
    /// fits.
    fn cell(&self, res: ResourceId, flat: u32) -> Operand {
        let (cell, wrap) = self.ops.layout.cell(res, flat);
        Operand::Cell { res: res.0 as u16, wrap, cell }
    }

    /// The operand holding element `flat` of `res`: its cell, or a
    /// temporary loaded here.
    fn read_cell(&mut self, res: ResourceId, flat: u32) -> Operand {
        match self.silent_cell(res, flat) {
            Some(cell) => cell,
            None => {
                let t = self.temp();
                self.emit(MicroOp::Load { dst: Operand::Slot(t), res, flat });
                Operand::Slot(t)
            }
        }
    }

    fn unbound_group_err(&self, op: OpId, g: u16) -> SimError {
        let operation = self.model.operation(op);
        SimError::UnboundGroup {
            group: operation.groups[g as usize].name.clone(),
            operation: operation.name.clone(),
        }
    }

    /// The decoded child bound to an op-reference through the current
    /// variant's coding, mirroring the tree-walk lookup.
    fn op_ref_child<'d>(&self, ctx: Ctx<'d>, target: OpId) -> Option<&'d Decoded> {
        let d = ctx.decoded?;
        let coding = self.model.operation(ctx.op).variants.get(d.variant)?.coding.as_ref()?;
        coding.fields.iter().zip(&d.children).find_map(|(f, c)| match (&f.target, c) {
            (CodingTarget::Op(o), Some(c)) if *o == target => Some(&**c),
            _ => None,
        })
    }

    fn op_ref_child_arc(&self, ctx: Ctx<'_>, target: OpId) -> Option<Arc<Decoded>> {
        let d = ctx.decoded?;
        let coding = self.model.operation(ctx.op).variants.get(d.variant)?.coding.as_ref()?;
        coding.fields.iter().zip(&d.children).find_map(|(f, c)| match (&f.target, c) {
            (CodingTarget::Op(o), Some(c)) if *o == target => Some(Arc::clone(c)),
            _ => None,
        })
    }

    // -- constant folding ---------------------------------------------------

    /// Evaluates an expression at translate time when every input is
    /// known and side-effect-free. LABELs fold against the decoded
    /// fields; operand expressions fold through the child instance; the
    /// induction variables of unrolled loops fold to this copy's value.
    fn const_eval(&self, expr: &LExpr, ctx: Ctx<'_>) -> Option<i64> {
        match expr {
            LExpr::Const(v) => Some(*v),
            LExpr::Local(slot) => self.known.iter().rev().find(|(s, _)| s == slot).map(|&(_, v)| v),
            LExpr::Label(l) => Some(
                ctx.decoded.map(|d| d.labels.get(*l as usize).copied().unwrap_or(0)).unwrap_or(0)
                    as i64,
            ),
            LExpr::Unary { op, expr } => {
                let v = self.const_eval(expr, ctx)?;
                Some(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                    UnOp::BitNot => !v,
                })
            }
            LExpr::Binary { op, lhs, rhs } => {
                let l = self.const_eval(lhs, ctx)?;
                match op {
                    // Short-circuit folding matches runtime order: a
                    // constant-false lhs never evaluates the rhs.
                    BinOp::LogAnd => {
                        if l == 0 {
                            return Some(0);
                        }
                        Some(i64::from(self.const_eval(rhs, ctx)? != 0))
                    }
                    BinOp::LogOr => {
                        if l != 0 {
                            return Some(1);
                        }
                        Some(i64::from(self.const_eval(rhs, ctx)? != 0))
                    }
                    // Folding a constant division by zero would erase a
                    // runtime error; `apply_binop` rejects it here too.
                    _ => apply_binop(*op, l, self.const_eval(rhs, ctx)?).ok(),
                }
            }
            LExpr::Ternary { cond, then_expr, else_expr } => {
                let c = self.const_eval(cond, ctx)?;
                self.const_eval(if c != 0 { then_expr } else { else_expr }, ctx)
            }
            LExpr::GroupValue(g) => {
                let child = ctx.decoded?.group_child(self.model, *g as usize)?;
                self.child_expr_const(child)
            }
            LExpr::OpRefValue(target) => {
                let child = self.op_ref_child(ctx, *target)?;
                self.child_expr_const(child)
            }
            LExpr::Builtin { f, args } => {
                if matches!(f, Builtin::Print) {
                    return None; // side effect: trace event
                }
                if matches!(f, Builtin::Nop) {
                    return Some(0);
                }
                let mut vals = [0i64; 2];
                for (i, a) in args.iter().enumerate().take(2) {
                    vals[i] = self.const_eval(a, ctx)?;
                }
                Some(eval_builtin_pure(*f, vals))
            }
            LExpr::ResScalar(_) | LExpr::ResElem { .. } => None,
        }
    }

    /// Folds an operand child's EXPRESSION (or sole label) to a value.
    fn child_expr_const(&self, child: &Decoded) -> Option<i64> {
        let tables = self.tables;
        let idx = tables.slot(child.op, child.variant);
        match tables.expressions[idx].as_ref() {
            Some(expr) => self.const_eval(expr, Ctx { op: child.op, decoded: Some(child) }),
            None => {
                let operation = self.model.operation(child.op);
                if operation.labels.len() == 1 {
                    Some(child.labels[0] as i64)
                } else {
                    None
                }
            }
        }
    }
}

impl<'m, 'e> Emitter<'m, 'e, '_> {
    // -- expressions --------------------------------------------------------

    /// Emits `e` and returns the operand holding its value. A local, a
    /// register cell or a constant costs no op; anything else is computed
    /// into a fresh temporary.
    fn operand(&mut self, e: &'e LExpr, ctx: Ctx<'_>) -> Operand {
        if let Some(v) = self.const_eval(e, ctx) {
            return self.imm(v);
        }
        if let Some((inner, ictx)) = self.look_through(e, ctx) {
            return self.operand(inner, ictx);
        }
        match e {
            LExpr::Local(slot) => Operand::Slot(*slot),
            LExpr::ResScalar(res) => self.read_cell(*res, 0),
            LExpr::ResElem { res, indices } => match self.res_place(*res, indices, ctx) {
                PlaceKind::Flat { res, flat } => self.read_cell(res, flat),
                kind => self.in_temp(|em, dst| em.read_into(kind, dst)),
            },
            _ => self.in_temp(|em, dst| em.emit_into(e, ctx, dst)),
        }
    }

    /// Runs `emit` with a fresh temporary as its destination and returns
    /// that temporary; whatever `emit` allocates beyond it is free again.
    fn in_temp(&mut self, emit: impl FnOnce(&mut Self, Operand)) -> Operand {
        let dst = Operand::Slot(self.temp());
        let mark = self.next_slot;
        emit(self, dst);
        self.next_slot = mark;
        dst
    }

    /// Emits `e` so that its value lands in `dst`. Only the last op on
    /// each path writes `dst`, so `e` may read what `dst` names.
    fn expr_into(&mut self, e: &'e LExpr, ctx: Ctx<'_>, dst: Operand) {
        if let Some(v) = self.const_eval(e, ctx) {
            self.move_const(dst, v);
            return;
        }
        match self.look_through(e, ctx) {
            Some((inner, ictx)) => self.expr_into(inner, ictx, dst),
            None => self.emit_into(e, ctx, dst),
        }
    }

    /// [`Self::expr_into`] for an `e` that neither folds nor looks
    /// through.
    fn emit_into(&mut self, e: &'e LExpr, ctx: Ctx<'_>, dst: Operand) {
        let mark = self.next_slot;
        match e {
            // Const/Label always fold; these arms keep the match total.
            LExpr::Const(v) => self.move_const(dst, *v),
            LExpr::Label(_) => self.move_const(dst, 0),
            LExpr::Local(slot) => self.mov(dst, Operand::Slot(*slot)),
            LExpr::ResScalar(res) => self.read_into(PlaceKind::Flat { res: *res, flat: 0 }, dst),
            LExpr::ResElem { res, indices } => {
                let kind = self.res_place(*res, indices, ctx);
                self.read_into(kind, dst);
            }
            // A bound operand's EXPRESSION was looked through and a sole
            // label folded, so what reaches these arms fails.
            LExpr::GroupValue(g) => {
                let err = match ctx.decoded.and_then(|d| d.group_child(self.model, *g as usize)) {
                    Some(child) => self.valueless_child_err(child),
                    None => self.unbound_group_err(ctx.op, *g),
                };
                self.fail(err);
            }
            LExpr::OpRefValue(target) => {
                let err = match self.op_ref_child(ctx, *target) {
                    Some(child) => self.valueless_child_err(child),
                    None => SimError::UnboundGroup {
                        group: self.model.operation(*target).name.clone(),
                        operation: self.model.operation(ctx.op).name.clone(),
                    },
                };
                self.fail(err);
            }
            LExpr::Unary { op, expr } => {
                let src = self.operand(expr, ctx);
                self.emit(MicroOp::Unary { op: *op, dst, src });
            }
            LExpr::Binary { op: op @ (BinOp::LogAnd | BinOp::LogOr), lhs, rhs } => {
                // `&&` is 0 once its lhs is false and `||` is 1 once its lhs
                // is true; otherwise the rhs, normalized, decides.
                let or = *op == BinOp::LogOr;
                let mut decided = Vec::new();
                self.branch(lhs, ctx, or, &mut decided);
                self.bool_into(rhs, ctx, dst);
                if !decided.is_empty() {
                    let end = self.emit(MicroOp::Jump(0));
                    self.patch_all(decided);
                    self.move_const(dst, i64::from(or));
                    self.patch(end);
                }
            }
            LExpr::Binary { op, lhs, rhs } => {
                let a = self.operand(lhs, ctx);
                let b = self.operand(rhs, ctx);
                self.emit(MicroOp::Binary { op: *op, dst, a, b, ctx: ctx_of(ctx.op) });
            }
            LExpr::Ternary { cond, then_expr, else_expr } => {
                if let Some(c) = self.const_eval(cond, ctx) {
                    // Constant condition is pure, so evaluating only the
                    // taken branch is observably identical.
                    self.expr_into(if c != 0 { then_expr } else { else_expr }, ctx, dst);
                } else {
                    let mut to_else = Vec::new();
                    self.branch(cond, ctx, false, &mut to_else);
                    self.expr_into(then_expr, ctx, dst);
                    let end = self.emit(MicroOp::Jump(0));
                    self.patch_all(to_else);
                    self.expr_into(else_expr, ctx, dst);
                    self.patch(end);
                }
            }
            LExpr::Builtin { f, args } => {
                let a = match args.first() {
                    Some(arg) => self.operand(arg, ctx),
                    None => Operand::Imm(0),
                };
                let b = match args.get(1) {
                    Some(arg) => self.operand(arg, ctx),
                    None => Operand::Imm(0),
                };
                self.emit(MicroOp::Builtin { f: *f, dst, a, b, ctx: ctx_of(ctx.op) });
            }
        }
        self.next_slot = mark;
    }

    /// `dst = (e != 0)`: the rhs of a logical operator. An operand that
    /// is already 0 or 1 lands in `dst` as it is.
    fn bool_into(&mut self, e: &'e LExpr, ctx: Ctx<'_>, dst: Operand) {
        if let Some(v) = self.const_eval(e, ctx) {
            self.move_const(dst, i64::from(v != 0));
            return;
        }
        if let Some((inner, ictx)) = self.look_through(e, ctx) {
            return self.bool_into(inner, ictx, dst);
        }
        let boolean = match e {
            LExpr::Unary { op, .. } => *op == UnOp::Not,
            LExpr::Binary { op, .. } => {
                is_compare(*op) || matches!(op, BinOp::LogAnd | BinOp::LogOr)
            }
            _ => false,
        };
        if boolean {
            self.expr_into(e, ctx, dst);
        } else {
            let mark = self.next_slot;
            let a = self.operand(e, ctx);
            let op =
                MicroOp::Binary { op: BinOp::Ne, dst, a, b: Operand::Imm(0), ctx: ctx_of(ctx.op) };
            self.emit(op);
            self.next_slot = mark;
        }
    }

    /// Emits a test of `cond` that jumps when its truth equals `when` and
    /// falls through otherwise, pushing the jumps to patch onto `jumps`.
    /// A comparison is one compare-and-jump, `!` flips the sense, and
    /// `&&`/`||` short-circuit into jump chains; anything else is
    /// compared against zero.
    fn branch(&mut self, cond: &'e LExpr, ctx: Ctx<'_>, when: bool, jumps: &mut Vec<usize>) {
        if let Some(v) = self.const_eval(cond, ctx) {
            if (v != 0) == when {
                jumps.push(self.emit(MicroOp::Jump(0)));
            }
            return;
        }
        if let Some((inner, ictx)) = self.look_through(cond, ctx) {
            return self.branch(inner, ictx, when, jumps);
        }
        let mark = self.next_slot;
        let (op, a, b) = match cond {
            LExpr::Unary { op: UnOp::Not, expr } => return self.branch(expr, ctx, !when, jumps),
            LExpr::Binary { op: op @ (BinOp::LogAnd | BinOp::LogOr), lhs, rhs } => {
                // The lhs alone decides toward `when` for `||` jumping
                // when true and for `&&` jumping when false.
                if (*op == BinOp::LogOr) == when {
                    self.branch(lhs, ctx, when, jumps);
                    self.branch(rhs, ctx, when, jumps);
                } else {
                    let mut skip = Vec::new();
                    self.branch(lhs, ctx, !when, &mut skip);
                    self.branch(rhs, ctx, when, jumps);
                    self.patch_all(skip);
                }
                return;
            }
            LExpr::Binary { op, lhs, rhs } if is_compare(*op) || !when => {
                let a = self.operand(lhs, ctx);
                let b = self.operand(rhs, ctx);
                (if when { inverse_compare(*op) } else { *op }, a, b)
            }
            _ => {
                let a = self.operand(cond, ctx);
                (if when { BinOp::Eq } else { BinOp::Ne }, a, Operand::Imm(0))
            }
        };
        jumps.push(self.emit(MicroOp::JumpUnless { op, a, b, ctx: ctx_of(ctx.op), target: 0 }));
        self.next_slot = mark;
    }

    /// An expression with the same value and effects as `e`, and the
    /// context it evaluates in: a bound operand child's EXPRESSION (so
    /// operand reads cost nothing beyond the ops they lower to), the lhs
    /// of `x + 0`, `x - 0`, `x | 0`, `x ^ 0`, `x << 0` or `x >> 0`, or the
    /// argument of a `sext`, `zext` or `saturate` its value already fits.
    fn look_through<'d>(&self, e: &'e LExpr, ctx: Ctx<'d>) -> Option<(&'e LExpr, Ctx<'d>)> {
        let child = match e {
            LExpr::GroupValue(g) => ctx.decoded?.group_child(self.model, *g as usize)?,
            LExpr::OpRefValue(target) => self.op_ref_child(ctx, *target)?,
            LExpr::Binary { op, lhs, rhs } => {
                let identity = matches!(
                    op,
                    BinOp::Add
                        | BinOp::Sub
                        | BinOp::BitOr
                        | BinOp::BitXor
                        | BinOp::Shl
                        | BinOp::Shr
                );
                return (identity && self.const_eval(rhs, ctx) == Some(0)).then_some((&**lhs, ctx));
            }
            LExpr::Builtin { f, args } => {
                let signed = match f {
                    Builtin::Sext | Builtin::Saturate => true,
                    Builtin::Zext => false,
                    _ => return None,
                };
                let [arg, width] = args.as_slice() else { return None };
                let width = self.const_eval(width, ctx)?.clamp(1, 64) as u32;
                return self.fits(arg, ctx, width, signed).then_some((arg, ctx));
            }
            _ => return None,
        };
        // Operand EXPRESSIONs never declare locals, so inlining into the
        // parent's frame is safe.
        let expr = self.tables.expressions[self.tables.slot(child.op, child.variant)].as_ref()?;
        Some((expr, Ctx { op: child.op, decoded: Some(child) }))
    }

    /// Whether `e`'s value provably survives wrapping to `width` bits
    /// (`signed` or not) unchanged, so the wrap can be left out.
    fn fits(&self, e: &'e LExpr, ctx: Ctx<'_>, width: u32, signed: bool) -> bool {
        if width >= 64 {
            return true;
        }
        match self.value_range(e, ctx) {
            Some((bits, false)) => bits + u32::from(signed) <= width,
            Some((bits, true)) => signed && bits <= width,
            None => false,
        }
    }

    /// A range `e`'s value provably lies in, as `(bits, signed)`: a
    /// `bits`-bit two's-complement (`signed`) or unsigned number.
    fn value_range(&self, e: &'e LExpr, ctx: Ctx<'_>) -> Option<(u32, bool)> {
        if let Some((inner, ictx)) = self.look_through(e, ctx) {
            return self.value_range(inner, ictx);
        }
        match e {
            // A read wraps to the resource's declared width.
            LExpr::ResScalar(res) | LExpr::ResElem { res, .. } => {
                let ty = self.model.resource(*res).ty;
                Some((ty.width().min(64), ty.is_signed() || ty.width() >= 64))
            }
            LExpr::Unary { op: UnOp::Not, .. } => Some((1, false)),
            LExpr::Binary { op: BinOp::LogAnd | BinOp::LogOr, .. } => Some((1, false)),
            LExpr::Binary { op, .. } if is_compare(*op) => Some((1, false)),
            // `x & m` with `m >= 0` lies in `0..=m`.
            LExpr::Binary { op: BinOp::BitAnd, lhs, rhs } => {
                let mask = self.const_eval(rhs, ctx).or_else(|| self.const_eval(lhs, ctx))?;
                (mask >= 0).then(|| (64 - mask.leading_zeros(), false))
            }
            LExpr::Builtin { f, args } => {
                let signed = match f {
                    Builtin::Sext | Builtin::Saturate => true,
                    Builtin::Zext => false,
                    _ => return None,
                };
                let width = self.const_eval(args.get(1)?, ctx)?.clamp(1, 64) as u32;
                Some((width, signed || width == 64))
            }
            _ => None,
        }
    }

    /// The error reading a bound operand child with neither an EXPRESSION
    /// nor exactly one label raises.
    fn valueless_child_err(&self, child: &Decoded) -> SimError {
        let operation = self.model.operation(child.op);
        SimError::UnknownName {
            name: format!("<expression of {}>", operation.name),
            operation: operation.name.clone(),
        }
    }

    // -- places -------------------------------------------------------------

    /// Resolves a place as far as translate time allows: constant
    /// indices become direct element slots; operand places chase the
    /// decoded child exactly as the tree-walk does.
    fn place_kind<'d>(&self, place: &'e LPlace, ctx: Ctx<'d>) -> PlaceKind<'e, 'd> {
        match place {
            LPlace::Local(slot) => PlaceKind::Local(*slot),
            LPlace::Res { res, indices } => self.res_place(*res, indices, ctx),
            LPlace::Group(g) => {
                match ctx.decoded.and_then(|d| d.group_child(self.model, *g as usize)) {
                    Some(child) => self.child_place_kind(child),
                    None => PlaceKind::Err(self.unbound_group_err(ctx.op, *g)),
                }
            }
            LPlace::OpRef(target) => match self.op_ref_child(ctx, *target) {
                Some(child) => self.child_place_kind(child),
                None => PlaceKind::Err(SimError::NotAnLvalue {
                    operation: self.model.operation(ctx.op).name.clone(),
                }),
            },
        }
    }

    /// Constant indices resolve to a flat element; a resource id too
    /// wide for [`Operand::Cell`] takes the dynamic path with them, which
    /// flattens (and fails) the same way at run time.
    fn res_place<'d>(
        &self,
        res: ResourceId,
        indices: &'e [LExpr],
        ctx: Ctx<'d>,
    ) -> PlaceKind<'e, 'd> {
        let consts: Option<Vec<i64>> = indices.iter().map(|e| self.const_eval(e, ctx)).collect();
        match consts {
            Some(vals) if u16::try_from(res.0).is_ok() => {
                match flatten_indices(self.model.resource(res), &vals) {
                    Ok(flat) => PlaceKind::Flat { res, flat: flat as u32 },
                    Err(e) => PlaceKind::Err(e),
                }
            }
            _ => PlaceKind::Dyn { res, indices, ctx },
        }
    }

    /// Resolves an operand child's EXPRESSION as a place (locals are not
    /// assignable through operands, matching the tree-walk).
    fn child_place_kind<'d>(&self, child: &'d Decoded) -> PlaceKind<'e, 'd> {
        let tables = self.tables;
        let idx = tables.slot(child.op, child.variant);
        let Some(place) = tables.expr_places[idx].as_ref() else {
            return PlaceKind::Err(SimError::NotAnLvalue {
                operation: self.model.operation(child.op).name.clone(),
            });
        };
        match self.place_kind(place, Ctx { op: child.op, decoded: Some(child) }) {
            PlaceKind::Local(_) => PlaceKind::Err(SimError::NotAnLvalue {
                operation: self.model.operation(child.op).name.clone(),
            }),
            other => other,
        }
    }

    /// Emits the read of a resolved place into `dst`.
    fn read_into(&mut self, kind: PlaceKind<'e, '_>, dst: Operand) {
        match kind {
            PlaceKind::Local(slot) => self.mov(dst, Operand::Slot(slot)),
            PlaceKind::Flat { res, flat } => match self.silent_cell(res, flat) {
                Some(cell) => self.mov(dst, cell),
                None => {
                    self.emit(MicroOp::Load { dst, res, flat });
                }
            },
            PlaceKind::Dyn { res, indices, ctx } => {
                if indices.len() == 1 && self.linear_1d(res) {
                    let idx = self.operand(&indices[0], ctx);
                    self.emit(MicroOp::LoadIdx { dst, res, idx });
                } else {
                    let idx = self.index_slots(indices, ctx);
                    self.emit(MicroOp::LoadDyn { dst, res, idx, n: indices.len() as u8 });
                }
            }
            PlaceKind::Err(e) => self.fail(e),
        }
    }

    /// Evaluates dynamic indices, in source order, into consecutive fresh
    /// slots and returns the first.
    fn index_slots(&mut self, indices: &'e [LExpr], ctx: Ctx<'_>) -> u16 {
        let first = self.next_slot;
        for _ in indices {
            self.temp();
        }
        for (i, e) in indices.iter().enumerate() {
            self.expr_into(e, ctx, Operand::Slot(first + i as u16));
        }
        first
    }

    /// Whether a resource is a one-dimensional base-0 array — eligible
    /// for the specialized indexed micro-ops.
    fn linear_1d(&self, res: ResourceId) -> bool {
        let dims = &self.model.resource(res).dims;
        dims.len() == 1 && dims[0].base() == 0
    }

    /// `place = value`: the value first, then the place — tree-walk order.
    /// A local or cell destination is written by the value's last op.
    fn assign(&mut self, place: &'e LPlace, value: &'e LExpr, ctx: Ctx<'_>) {
        match self.place_kind(place, ctx) {
            PlaceKind::Local(slot) => self.expr_into(value, ctx, Operand::Slot(slot)),
            PlaceKind::Flat { res, flat } => self.expr_into(value, ctx, self.cell(res, flat)),
            PlaceKind::Dyn { res, indices, ctx: ictx } => {
                let src = self.operand(value, ctx);
                if indices.len() == 1 && self.linear_1d(res) {
                    let idx = self.operand(&indices[0], ictx);
                    self.emit(MicroOp::StoreIdx { res, idx, src });
                } else {
                    let idx = self.index_slots(indices, ictx);
                    self.emit(MicroOp::StoreDyn { res, idx, n: indices.len() as u8, src });
                }
            }
            PlaceKind::Err(e) => {
                self.operand(value, ctx);
                self.fail(e);
            }
        }
    }

    /// `place = place op rhs` — compound assignment and `++`/`--` — with
    /// `rhs` already evaluated. `ctx` is the frame the update executes in:
    /// division by zero names its operation even when writing through an
    /// operand.
    fn update(&mut self, place: &'e LPlace, op: BinOp, rhs: Operand, ctx: Ctx<'_>) {
        let c = ctx_of(ctx.op);
        match self.place_kind(place, ctx) {
            PlaceKind::Local(slot) => {
                let x = Operand::Slot(slot);
                self.emit(MicroOp::Binary { op, dst: x, a: x, b: rhs, ctx: c });
            }
            PlaceKind::Flat { res, flat } => {
                let old = self.read_cell(res, flat);
                let dst = self.cell(res, flat);
                self.emit(MicroOp::Binary { op, dst, a: old, b: rhs, ctx: c });
            }
            PlaceKind::Dyn { res, indices, ctx: ictx } => {
                let idx = self.index_slots(indices, ictx);
                let n = indices.len() as u8;
                self.emit(MicroOp::RmwDyn { res, idx, n, op, rhs, ctx: c });
            }
            PlaceKind::Err(e) => self.fail(e),
        }
    }

    /// Embeds a bound child instance and emits its invocation.
    fn invoke_child(&mut self, child: Arc<Decoded>) {
        let routine = translate_routine(self.ops, child.op, child.variant, Some(&child));
        let k = self.children.len() as u16;
        self.children.push((child, routine));
        self.emit(MicroOp::InvokeChild(k));
    }
}

impl<'m, 'e> Emitter<'m, 'e, '_> {
    // -- statements ---------------------------------------------------------

    fn block<'d>(&mut self, b: &'e LBlock, ctx: Ctx<'d>) {
        for s in &b.stmts {
            self.stmt(s, ctx);
        }
    }

    /// Emits one statement; the temporaries it allocates are free again
    /// once it ends.
    fn stmt<'d>(&mut self, s: &'e LStmt, ctx: Ctx<'d>) {
        let mark = self.next_slot;
        self.emit_stmt(s, ctx);
        self.next_slot = mark;
    }

    fn emit_stmt<'d>(&mut self, s: &'e LStmt, ctx: Ctx<'d>) {
        match s {
            LStmt::DeclLocal { slot, init, width, signed } => {
                let dst = Operand::Slot(*slot);
                match init {
                    None => self.move_const(dst, 0),
                    Some(e) if self.fits(e, ctx, *width, *signed) => self.expr_into(e, ctx, dst),
                    Some(e) => match self.const_eval(e, ctx) {
                        Some(v) => self.move_const(dst, wrap_to_width(v, *width, *signed)),
                        None => {
                            // Declared-width wrap: `sext`/`zext` to the width.
                            let a = self.operand(e, ctx);
                            let f = if *signed { Builtin::Sext } else { Builtin::Zext };
                            let b = Operand::Imm(*width as i32);
                            self.emit(MicroOp::Builtin { f, dst, a, b, ctx: ctx_of(ctx.op) });
                        }
                    },
                }
            }
            LStmt::Assign { place, op, value } => match compound_binop(*op) {
                None => self.assign(place, value, ctx),
                Some(bin) => {
                    // rhs first, then place resolution — tree-walk order.
                    let rhs = self.operand(value, ctx);
                    self.update(place, bin, rhs, ctx);
                }
            },
            LStmt::IncDec { place, delta } => {
                let rhs = self.imm(*delta);
                self.update(place, BinOp::Add, rhs, ctx);
            }
            LStmt::InvokeGroup(g) => {
                match ctx.decoded.and_then(|d| d.group_child_rc(self.model, *g as usize)) {
                    Some(child) => self.invoke_child(child),
                    None => {
                        let err = self.unbound_group_err(ctx.op, *g);
                        self.fail(err);
                    }
                }
            }
            LStmt::InvokeOp(target) => match self.op_ref_child_arc(ctx, *target) {
                Some(child) => self.invoke_child(child),
                None => {
                    self.emit(MicroOp::InvokeUnbound(*target));
                }
            },
            LStmt::Intrinsic(p) => {
                self.emit(MicroOp::Pipe(*p));
            }
            LStmt::EvalDrop(e) => {
                // A foldable expression is pure, and a local or register
                // read is unobservable: discarding either emits nothing.
                if self.const_eval(e, ctx).is_none() {
                    self.operand(e, ctx);
                }
            }
            LStmt::If { cond, then_block, else_block } => {
                if let Some(c) = self.const_eval(cond, ctx) {
                    self.block(if c != 0 { then_block } else { else_block }, ctx);
                    return;
                }
                let mut to_else = Vec::new();
                self.branch(cond, ctx, false, &mut to_else);
                self.block(then_block, ctx);
                if else_block.stmts.is_empty() {
                    self.patch_all(to_else);
                } else {
                    let end = self.emit(MicroOp::Jump(0));
                    self.patch_all(to_else);
                    self.block(else_block, ctx);
                    self.patch(end);
                }
            }
            LStmt::While { cond, body } => {
                if let Some(0) = self.const_eval(cond, ctx) {
                    return;
                }
                let start = self.here();
                // A constant-true condition emits no test on the back edge.
                let mut exits = Vec::new();
                self.branch(cond, ctx, false, &mut exits);
                self.frames.push(CtlFrame {
                    is_loop: true,
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.block(body, ctx);
                self.emit(MicroOp::Jump(start));
                let frame = self.frames.pop().expect("loop frame");
                self.patch_all(exits);
                self.patch_all(frame.breaks);
                for c in frame.continues {
                    self.patch_to(c, start);
                }
            }
            LStmt::DoWhile { body, cond } => {
                let start = self.here();
                self.frames.push(CtlFrame {
                    is_loop: true,
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.block(body, ctx);
                let frame = self.frames.pop().expect("loop frame");
                let cond_at = self.here();
                for c in frame.continues {
                    self.patch_to(c, cond_at);
                }
                let mut back = Vec::new();
                self.branch(cond, ctx, true, &mut back);
                for j in back {
                    self.patch_to(j, start);
                }
                self.patch_all(frame.breaks);
            }
            LStmt::For { init, cond, step, body } => {
                if let Some(u) =
                    self.const_trip(init.as_deref(), cond.as_ref(), step.as_deref(), body, ctx)
                {
                    self.unroll(u, body, ctx);
                    return;
                }
                if let Some(init) = init {
                    self.stmt(init, ctx);
                }
                if let Some(c) = cond {
                    // A constant-false condition still runs init (above),
                    // then the loop never starts.
                    if let Some(0) = self.const_eval(c, ctx) {
                        return;
                    }
                }
                let start = self.here();
                let mut exits = Vec::new();
                if let Some(c) = cond {
                    self.branch(c, ctx, false, &mut exits);
                }
                self.frames.push(CtlFrame {
                    is_loop: true,
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.block(body, ctx);
                let frame = self.frames.pop().expect("loop frame");
                let step_at = self.here();
                for c in frame.continues {
                    self.patch_to(c, step_at);
                }
                if let Some(step) = step {
                    self.stmt(step, ctx);
                }
                self.emit(MicroOp::Jump(start));
                self.patch_all(exits);
                self.patch_all(frame.breaks);
            }
            LStmt::Switch { scrutinee, cases, default } => {
                if let Some(v) = self.const_eval(scrutinee, ctx) {
                    // Constant scrutinee: only the taken arm is emitted
                    // (the decode-specialization the paper calls out).
                    let body =
                        cases.iter().find(|(cv, _)| *cv == v).map(|(_, b)| b).or(default.as_ref());
                    if let Some(b) = body {
                        self.frames.push(CtlFrame {
                            is_loop: false,
                            breaks: Vec::new(),
                            continues: Vec::new(),
                        });
                        self.block(b, ctx);
                        let frame = self.frames.pop().expect("switch frame");
                        self.patch_all(frame.breaks);
                    }
                    return;
                }
                let value = self.operand(scrutinee, ctx);
                let case_jumps: Vec<usize> = cases
                    .iter()
                    .map(|(v, _)| {
                        let mark = self.next_slot;
                        let b = self.imm(*v);
                        let ctx = ctx_of(ctx.op);
                        let j = self.emit(MicroOp::JumpUnless {
                            op: BinOp::Ne,
                            a: value,
                            b,
                            ctx,
                            target: 0,
                        });
                        self.next_slot = mark;
                        j
                    })
                    .collect();
                self.frames.push(CtlFrame {
                    is_loop: false,
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                let mut end_jumps = Vec::new();
                if let Some(def) = default {
                    self.block(def, ctx);
                }
                end_jumps.push(self.emit(MicroOp::Jump(0)));
                for (i, (_, body)) in cases.iter().enumerate() {
                    self.patch(case_jumps[i]);
                    self.block(body, ctx);
                    end_jumps.push(self.emit(MicroOp::Jump(0)));
                }
                let frame = self.frames.pop().expect("switch frame");
                self.patch_all(end_jumps);
                self.patch_all(frame.breaks);
            }
            LStmt::Break => {
                let j = self.emit(MicroOp::Jump(0));
                match self.frames.last_mut() {
                    Some(f) => f.breaks.push(j),
                    None => self.end_patches.push(j),
                }
            }
            LStmt::Continue => {
                let j = self.emit(MicroOp::Jump(0));
                match self.frames.iter_mut().rev().find(|f| f.is_loop) {
                    Some(f) => f.continues.push(j),
                    None => self.end_patches.push(j),
                }
            }
            LStmt::Block(b) => self.block(b, ctx),
        }
    }

    /// Plans the unrolling of a constant-trip `for` loop: the init sets a
    /// local to a translate-time constant, the condition compares that
    /// local against a constant, the step is `++`/`--` on it, the body
    /// never writes it and has no `break`/`continue` of its own, and the
    /// loop runs at most [`UNROLL_MAX_TRIPS`] times. `None` keeps the loop.
    fn const_trip(
        &self,
        init: Option<&LStmt>,
        cond: Option<&LExpr>,
        step: Option<&LStmt>,
        body: &LBlock,
        ctx: Ctx<'_>,
    ) -> Option<Unroll> {
        // The start value is what the init would store: declarations wrap
        // to their width, plain assignments store as-is. A declared
        // variable goes out of scope with the loop, so only an assigned
        // one has an exit value to keep.
        let (slot, start, scoped) = match init? {
            LStmt::DeclLocal { slot, init: Some(e), width, signed } => {
                (*slot, wrap_to_width(self.const_eval(e, ctx)?, *width, *signed), true)
            }
            LStmt::Assign { place: LPlace::Local(slot), op: AssignOp::Set, value } => {
                (*slot, self.const_eval(value, ctx)?, false)
            }
            _ => return None,
        };
        let LExpr::Binary { op, lhs, rhs } = cond? else { return None };
        if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Ne)
            || **lhs != LExpr::Local(slot)
        {
            return None;
        }
        let bound = self.const_eval(rhs, ctx)?;
        let LStmt::IncDec { place: LPlace::Local(s), delta } = step? else { return None };
        if *s != slot
            || body.stmts.iter().any(|st| writes_local(st, slot))
            || leaves_loop(body, false)
        {
            return None;
        }
        let mut values = Vec::new();
        let mut v = start;
        while apply_binop(*op, v, bound).ok()? != 0 {
            if values.len() == UNROLL_MAX_TRIPS
                || (values.len() + 1) * self.unroll_copies > UNROLL_MAX_COPIES
            {
                return None;
            }
            values.push(v);
            v = v.wrapping_add(*delta);
        }
        Some(Unroll { slot, values, exit: (!scoped).then_some(v) })
    }

    /// Emits one copy of the body per iteration with the induction value
    /// folded in, then stores the exit value, if any: the variable ends
    /// exactly as the loop would leave it.
    fn unroll<'d>(&mut self, u: Unroll, body: &'e LBlock, ctx: Ctx<'d>) {
        let copies = self.unroll_copies;
        self.unroll_copies = copies * u.values.len().max(1);
        self.known.push((u.slot, 0));
        for v in u.values {
            self.known.last_mut().expect("induction entry").1 = v;
            self.block(body, ctx);
        }
        self.known.pop();
        self.unroll_copies = copies;
        if let Some(exit) = u.exit {
            self.move_const(Operand::Slot(u.slot), exit);
        }
    }
}

/// A `for` loop resolved for unrolling: its induction slot, the slot's
/// value in each iteration, and its value after the loop (`None` when
/// the loop declared it, so nothing can read it afterwards).
struct Unroll {
    slot: u16,
    values: Vec<i64>,
    exit: Option<i64>,
}

/// Whether statement `s` (nested constructs included) writes or
/// redeclares local `slot`.
fn writes_local(s: &LStmt, slot: u16) -> bool {
    let block = |b: &LBlock| b.stmts.iter().any(|s| writes_local(s, slot));
    match s {
        LStmt::DeclLocal { slot: s, .. } => *s == slot,
        LStmt::Assign { place: LPlace::Local(s), .. }
        | LStmt::IncDec { place: LPlace::Local(s), .. } => *s == slot,
        LStmt::If { then_block, else_block, .. } => block(then_block) || block(else_block),
        LStmt::While { body, .. } | LStmt::DoWhile { body, .. } => block(body),
        LStmt::For { init, step, body, .. } => {
            [init, step].into_iter().flatten().any(|st| writes_local(st, slot)) || block(body)
        }
        LStmt::Switch { cases, default, .. } => {
            cases.iter().map(|(_, b)| b).chain(default).any(block)
        }
        LStmt::Block(b) => block(b),
        _ => false,
    }
}

/// Whether a `break` or `continue` in loop body `b` leaves that loop.
/// Nested loops own theirs; inside a switch (`in_switch`) only
/// `continue` still reaches the loop.
fn leaves_loop(b: &LBlock, in_switch: bool) -> bool {
    b.stmts.iter().any(|s| match s {
        LStmt::Break => !in_switch,
        LStmt::Continue => true,
        LStmt::If { then_block, else_block, .. } => {
            leaves_loop(then_block, in_switch) || leaves_loop(else_block, in_switch)
        }
        LStmt::Switch { cases, default, .. } => {
            cases.iter().map(|(_, b)| b).chain(default).any(|b| leaves_loop(b, true))
        }
        LStmt::Block(b) => leaves_loop(b, in_switch),
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Where activation targets land while a plan runs: the scheduler's
/// ready list (control-step context) or a local drain buffer of target
/// indices (behavior context, executed immediately afterwards).
enum ActSink<'a> {
    Sched(&'a mut Vec<ExecItem>),
    Local(&'a mut Vec<u16>),
}

/// An out-of-line invocation reached by [`Simulator::exec_code`]. Its
/// caller, `run_routine_in`, performs it, because it may translate and so
/// append to the store the running code is borrowed from.
enum Call {
    Child(ChildInvoke),
    Unbound(OpId),
}

/// Pops a recycled frame off the pool, sized and zeroed for `routine`.
fn take_frame(frames: &mut Vec<Vec<i64>>, routine: &OpsRoutine) -> Vec<i64> {
    let mut f = frames.pop().unwrap_or_default();
    f.clear();
    f.resize(routine.n_slots as usize, 0);
    f
}

/// Returns a frame to the pool, keeping its capacity.
fn put_frame(frames: &mut Vec<Vec<i64>>, frame: Vec<i64>) {
    if frames.len() < 64 {
        frames.push(frame);
    }
}

impl Simulator<'_> {
    fn ops_oob(&self, res: ResourceId, index: i64) -> SimError {
        SimError::IndexOutOfBounds {
            resource: self.model.resource(res).name.clone(),
            index,
            dim: 0,
        }
    }

    fn ops_div0(&self, ctx: u32) -> SimError {
        SimError::DivisionByZero {
            operation: self.model.operation(OpId(ctx as usize)).name.clone(),
        }
    }

    /// Flattens the `n` indices held in slots `idx..idx + n`.
    fn ops_flatten(
        &self,
        slots: &[i64],
        res: ResourceId,
        idx: u16,
        n: u8,
    ) -> Result<usize, SimError> {
        let first = usize::from(idx);
        flatten_indices(self.model.resource(res), &slots[first..first + usize::from(n)])
    }

    /// Reads an operand. A cell is in bounds and never memory-class, so
    /// the read has no error and nothing for the probe runtime.
    #[inline(always)]
    fn ops_get(&self, slots: &[i64], o: Operand) -> i64 {
        match o {
            Operand::Slot(s) => slots[usize::from(s)],
            Operand::Cell { cell, .. } => self.state.cell(cell),
            Operand::Imm(v) => i64::from(v),
        }
    }

    /// Writes a destination operand; a cell write is reported first,
    /// along its resource's route. A cell is in bounds, so the write
    /// cannot fail. Inlined at the dispatch loop's one store site.
    #[inline(always)]
    fn ops_put(&mut self, slots: &mut [i64], dst: Operand, value: i64) {
        match dst {
            Operand::Slot(s) => slots[usize::from(s)] = value,
            Operand::Cell { res, wrap, cell } => {
                if self.observing() {
                    let res = ResourceId(usize::from(res));
                    self.route_write(res, |sim| sim.state.layout().flat(res, cell), value);
                }
                self.state.put_cell(cell, wrap, value);
            }
            Operand::Imm(_) => unreachable!("an immediate is never a destination"),
        }
    }

    /// Reads one element for a load op, feeding the probe runtime.
    fn ops_load(&mut self, res: ResourceId, flat: usize, index: i64) -> Result<i64, SimError> {
        let v = self.state.read_flat(res, flat).ok_or_else(|| self.ops_oob(res, index))?;
        self.probe_read(res, flat);
        Ok(v)
    }

    /// Writes one element, emitting the write event first — identical
    /// order to the interpretive backend.
    fn ops_write(&mut self, res: ResourceId, flat: usize, value: i64) -> Result<(), SimError> {
        if self.observing() {
            self.route_write(res, |_| flat, value);
        }
        if self.state.write_flat(res, flat, value) {
            Ok(())
        } else {
            Err(self.ops_oob(res, flat as i64))
        }
    }

    /// Runs routine `id`'s behavior in a pooled frame.
    pub(crate) fn run_routine(
        &mut self,
        t: &mut OpsTables<'_>,
        id: RoutineId,
    ) -> Result<(), SimError> {
        let mut frame = take_frame(&mut t.frames, &t.store[id].routine);
        let res = self.run_routine_in(t, id, &mut frame);
        put_frame(&mut t.frames, frame);
        res
    }

    /// Drives routine `id` to its end. Straight-line stretches run in
    /// [`Self::exec_code`] on a borrowed routine; every call ends that
    /// borrow, and the code is borrowed again by id once it returns.
    fn run_routine_in(
        &mut self,
        t: &mut OpsTables<'_>,
        id: RoutineId,
        frame: &mut [i64],
    ) -> Result<(), SimError> {
        let mut pc = 0;
        while let Some(call) = self.exec_code(&t.store[id].routine, frame, &mut pc)? {
            match call {
                Call::Child(c) => self.invoke_routine(t, c.op, c.routine)?,
                Call::Unbound(op) => self.ops_invoke_unbound(t, op)?,
            }
        }
        Ok(())
    }

    /// Executes `op` through routine `id` outside the scheduler: the
    /// statistics bump and Exec event, the behavior, then its plan.
    fn invoke_routine(
        &mut self,
        t: &mut OpsTables<'_>,
        op: OpId,
        id: RoutineId,
    ) -> Result<(), SimError> {
        self.stats.executed_ops += 1;
        if self.observing() {
            self.emit_exec(op);
        }
        self.run_routine(t, id)?;
        self.invoke_plan(t, id)
    }

    /// Runs an ACTIVATION-condition routine and returns the value it
    /// leaves in slot 0.
    fn run_cond(
        &mut self,
        frames: &mut Vec<Vec<i64>>,
        routine: &OpsRoutine,
    ) -> Result<i64, SimError> {
        let mut frame = take_frame(frames, routine);
        let res = self.exec_code(routine, &mut frame, &mut 0);
        let value = frame[0];
        put_frame(frames, frame);
        match res? {
            None => Ok(value),
            Some(_) => unreachable!("conditions invoke no operations"),
        }
    }

    /// The dispatch loop: runs `routine` from `*pc` over the flat op array
    /// until it ends (`None`) or reaches a call, which it hands back with
    /// `*pc` just past the call site.
    fn exec_code(
        &mut self,
        routine: &OpsRoutine,
        slots: &mut [i64],
        pc_io: &mut usize,
    ) -> Result<Option<Call>, SimError> {
        let code = &routine.code;
        let mut pc = *pc_io;
        while let Some(&op) = code.get(pc) {
            pc += 1;
            // Value-producing ops yield their destination and value, which
            // the one `ops_put` after the match stores; the others
            // `continue`.
            let (dst, v) = match op {
                MicroOp::Move { dst, src } => (dst, self.ops_get(slots, src)),
                MicroOp::Const { dst, value } => (dst, value),
                MicroOp::Load { dst, res, flat } => {
                    (dst, self.ops_load(res, flat as usize, i64::from(flat))?)
                }
                MicroOp::LoadIdx { dst, res, idx } => {
                    let i = self.ops_get(slots, idx);
                    (dst, self.ops_load(res, i as usize, i)?)
                }
                MicroOp::LoadDyn { dst, res, idx, n } => {
                    let flat = self.ops_flatten(slots, res, idx, n)?;
                    (dst, self.ops_load(res, flat, flat as i64)?)
                }
                MicroOp::Unary { op, dst, src } => {
                    let v = self.ops_get(slots, src);
                    let v = match op {
                        UnOp::Neg => v.wrapping_neg(),
                        UnOp::Not => i64::from(v == 0),
                        UnOp::BitNot => !v,
                    };
                    (dst, v)
                }
                MicroOp::Binary { op, dst, a, b, ctx } => {
                    let (l, r) = (self.ops_get(slots, a), self.ops_get(slots, b));
                    (dst, apply_binop(op, l, r).map_err(|()| self.ops_div0(ctx))?)
                }
                MicroOp::Builtin { f, dst, a, b, ctx } => {
                    let x = self.ops_get(slots, a);
                    let v = match f {
                        Builtin::Print => {
                            if self.tracing() {
                                let event = lisa_trace::TraceEvent::Print {
                                    cycle: self.stats.cycles,
                                    op: OpId(ctx as usize),
                                    value: x,
                                };
                                self.record(&event);
                            }
                            x
                        }
                        _ => eval_builtin_pure(f, [x, self.ops_get(slots, b)]),
                    };
                    (dst, v)
                }
                MicroOp::StoreIdx { res, idx, src } => {
                    let i = self.ops_get(slots, idx);
                    let v = self.ops_get(slots, src);
                    // Bounds first, so no Write event fires for an
                    // out-of-range index (matching the flatten path).
                    let flat = i as usize;
                    if flat >= self.state.element_count(res) {
                        return Err(self.ops_oob(res, i));
                    }
                    self.ops_write(res, flat, v)?;
                    continue;
                }
                MicroOp::StoreDyn { res, idx, n, src } => {
                    let flat = self.ops_flatten(slots, res, idx, n)?;
                    let v = self.ops_get(slots, src);
                    self.ops_write(res, flat, v)?;
                    continue;
                }
                MicroOp::RmwDyn { res, idx, n, op, rhs, ctx } => {
                    let flat = self.ops_flatten(slots, res, idx, n)?;
                    let rhs = self.ops_get(slots, rhs);
                    let old = self.ops_load(res, flat, flat as i64)?;
                    let new = apply_binop(op, old, rhs).map_err(|()| self.ops_div0(ctx))?;
                    self.ops_write(res, flat, new)?;
                    continue;
                }
                MicroOp::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                MicroOp::JumpUnless { op, a, b, ctx, target } => {
                    let (l, r) = (self.ops_get(slots, a), self.ops_get(slots, b));
                    if apply_binop(op, l, r).map_err(|()| self.ops_div0(ctx))? == 0 {
                        pc = target as usize;
                    }
                    continue;
                }
                MicroOp::Pipe(p) => {
                    self.apply_pipe_op(p);
                    continue;
                }
                MicroOp::InvokeChild(k) => {
                    *pc_io = pc;
                    return Ok(Some(Call::Child(routine.children[k as usize])));
                }
                MicroOp::InvokeUnbound(op) => {
                    *pc_io = pc;
                    return Ok(Some(Call::Unbound(op)));
                }
                MicroOp::Enter(op) => {
                    self.stats.executed_ops += 1;
                    if self.observing() {
                        self.emit_exec(op);
                    }
                    continue;
                }
                MicroOp::ZeroLocals { base, n } => {
                    let base = usize::from(base);
                    slots[base..base + usize::from(n)].fill(0);
                    continue;
                }
                MicroOp::Fail(k) => return Err(routine.errors[k as usize].clone()),
            };
            self.ops_put(slots, dst, v);
        }
        Ok(None)
    }

    /// Runs routine `id`'s ACTIVATION plan in behavior context: targets
    /// are collected, then zero-delay ones execute immediately (behavior,
    /// then their own plan) in activation order — the ops-mode twin of
    /// `invoke_activation`.
    fn invoke_plan(&mut self, t: &mut OpsTables<'_>, id: RoutineId) -> Result<(), SimError> {
        if t.store.plan(id).is_none() {
            return Ok(());
        }
        let mut out = t.act_scratch.pop().unwrap_or_default();
        out.clear();
        let res = self.drain_plan(t, id, &mut out);
        if t.act_scratch.len() < 16 {
            t.act_scratch.push(out);
        }
        res
    }

    /// Runs routine `id`'s ACTIVATION plan in control-step context:
    /// zero-delay targets join this step's ready list.
    pub(crate) fn schedule_plan(
        &mut self,
        t: &mut OpsTables<'_>,
        id: RoutineId,
        ready: &mut Vec<ExecItem>,
    ) -> Result<(), SimError> {
        let Some(plan) = t.store.plan(id) else { return Ok(()) };
        self.run_act_steps(&mut t.frames, plan, &plan.steps, &mut ActSink::Sched(ready))
    }

    fn drain_plan(
        &mut self,
        t: &mut OpsTables<'_>,
        id: RoutineId,
        out: &mut Vec<u16>,
    ) -> Result<(), SimError> {
        let plan = t.store.plan(id).expect("caller checked for a plan");
        self.run_act_steps(&mut t.frames, plan, &plan.steps, &mut ActSink::Local(out))?;
        for &k in out.iter() {
            let target = &t.store.plan(id).expect("plan").targets[k as usize];
            match (target.op, target.routine) {
                (op, Some(r)) => self.invoke_routine(t, op, r)?,
                (op, None) => self.ops_invoke_unbound(t, op)?,
            }
        }
        Ok(())
    }

    /// Walks a plan's steps, scheduling targets into `sink`. Statistics,
    /// trace events, delayed-activation bookkeeping and intrinsic
    /// handling are identical to the interpretive `run_act_nodes` /
    /// `activate_name` pair.
    fn run_act_steps(
        &mut self,
        frames: &mut Vec<Vec<i64>>,
        plan: &ActPlan,
        steps: &[ActStep],
        sink: &mut ActSink<'_>,
    ) -> Result<(), SimError> {
        for step in steps {
            match step {
                ActStep::Activate(k) => {
                    let t = &plan.targets[*k as usize];
                    self.stats.activations += 1;
                    if self.observing() {
                        self.emit_activation(t.from, t.op, t.delay);
                    }
                    let bind = t.routine.map_or(Binding::Unbound, Binding::Routine);
                    if t.delay == 0 {
                        match sink {
                            ActSink::Sched(ready) => ready.push(ExecItem { op: t.op, bind }),
                            ActSink::Local(out) => out.push(*k),
                        }
                    } else {
                        let item = ExecItem { op: t.op, bind };
                        self.pending.push(Pending { item, pipe: t.stage, remaining: t.delay });
                    }
                }
                ActStep::Pipe(p) => self.apply_pipe_op(*p),
                ActStep::If { cond, then_steps, else_steps } => {
                    let taken = if *cond == u16::MAX {
                        true // branch was resolved at translate time
                    } else {
                        self.run_cond(frames, &plan.conds[*cond as usize])? != 0
                    };
                    let branch = if taken { then_steps } else { else_steps };
                    self.run_act_steps(frames, plan, branch, sink)?;
                }
                ActStep::Switch { cond, cases, default } => {
                    let value = self.run_cond(frames, &plan.conds[*cond as usize])?;
                    let body =
                        cases.iter().find(|(v, _)| *v == value).map(|(_, b)| b).unwrap_or(default);
                    self.run_act_steps(frames, plan, body, sink)?;
                }
                ActStep::Fail(k) => return Err(plan.errors[*k as usize].clone()),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Caches and engine glue
// ---------------------------------------------------------------------------

impl Simulator<'_> {
    /// Number of routines this simulator added to its ops store, the
    /// model image's shared ones excluded (0 outside ops mode).
    #[cfg(test)]
    pub(crate) fn ops_store_len(&self) -> usize {
        self.ops.as_ref().map_or(0, |t| t.store.len())
    }

    /// Executes an operation with no operand binding: the ops twin of
    /// `invoke_unbound`. A decode-root operation fetches and decodes its
    /// compared resource first.
    fn ops_invoke_unbound(&mut self, t: &mut OpsTables<'_>, op: OpId) -> Result<(), SimError> {
        let Some(root_res) = self.model.operation(op).decode_root else {
            // The pre-translated routine already encodes the default
            // variant, so the guard-matching walk is skipped entirely.
            let id = t.unbound[op.0];
            return self.invoke_routine(t, op, id);
        };
        let word = self.state.scalar(root_res).to_u128();
        self.emit_fetch(word);
        let id = self.ops_decode_word(t, word)?;
        self.invoke_routine(t, t.store.decoded_op(id), id)?;
        self.stats.instructions_retired += 1;
        Ok(())
    }

    /// Fused decode+translate for decode-root fetches: bookkeeping
    /// (decode count, cache-hit count, Decode event) matches
    /// `decode_word` exactly, but a hit costs a single map probe and
    /// hands back a routine id.
    pub(crate) fn ops_decode_word(
        &mut self,
        t: &mut OpsTables<'_>,
        word: u128,
    ) -> Result<RoutineId, SimError> {
        self.stats.decodes += 1;
        let (id, cache_hit) = match t.words.get(&word) {
            Some(&id) => {
                self.stats.decode_cache_hits += 1;
                (id, true)
            }
            None => {
                let (decoded, was_hit) = if let Some(d) = self.decode_cache.get(&word) {
                    (Arc::clone(d), true)
                } else {
                    let decoder = self
                        .decoder
                        .as_ref()
                        .ok_or(SimError::Decode(lisa_isa::IsaError::NoDecodeRoot))?;
                    let decoded = Arc::new(decoder.decode(word)?);
                    self.decode_cache.insert(word, Arc::clone(&decoded));
                    (decoded, false)
                };
                if was_hit {
                    self.stats.decode_cache_hits += 1;
                }
                let id = t.bind(decoded.op, &decoded);
                t.words.insert(word, id);
                (id, was_hit)
            }
        };
        if self.observing() {
            self.emit_decode(word, t.store.decoded_op(id), cache_hit);
        }
        Ok(id)
    }

    /// Eagerly translates every cached decode (called after predecode so
    /// `load_program` pays all translation cost up front).
    pub(crate) fn ops_translate_decode_cache(&mut self) {
        let Some(t) = self.ops.as_mut() else { return };
        for (word, d) in &self.decode_cache {
            let id = t.bind(d.op, d);
            t.words.entry(*word).or_insert(id);
        }
    }

    /// The pending list with every routine id turned back into its
    /// decoded binding, as snapshots carry it.
    pub(crate) fn portable_pending(&self) -> Vec<Pending> {
        let Some(t) = self.ops.as_ref() else { return self.pending.clone() };
        self.pending
            .iter()
            .map(|p| Pending {
                item: ExecItem { op: p.item.op, bind: t.portable(&p.item.bind) },
                pipe: p.pipe,
                remaining: p.remaining,
            })
            .collect()
    }

    /// Resolves the pending list's decoded bindings to routine ids (after
    /// a restore installed a snapshot's portable list).
    pub(crate) fn ops_bind_pending(&mut self) {
        let Some(t) = self.ops.as_mut() else { return };
        t.bind_pending(&mut self.pending);
    }

    /// The [`OPS_CACHE_MAX`] safety valve, run at step boundaries, where
    /// the pending list holds the only routine ids outside the store.
    #[inline]
    pub(crate) fn ops_reclaim_if_full(&mut self) {
        if self.ops.as_ref().is_some_and(|t| t.store.len() >= OPS_CACHE_MAX) {
            self.ops_reclaim();
        }
    }

    #[cold]
    fn ops_reclaim(&mut self) {
        let Some(t) = self.ops.as_mut() else { return };
        t.reclaim(&mut self.pending);
    }

    /// Renders the translated micro-op listing: the default-variant
    /// routine of every operation with a behavior, then one routine per
    /// pre-decoded program word (sorted by word), with child-operand
    /// routines nested. Returns an empty string outside ops mode.
    ///
    /// This is the surface the golden/determinism tests pin down: two
    /// simulators over the same model and program must render
    /// byte-identical listings.
    pub fn ops_listing(&mut self) -> String {
        let mut out = String::new();
        let Some(t) = self.ops.as_mut() else { return out };
        for op in self.model.operations() {
            let routine = &t.store[t.unbound[op.id.0]].routine;
            if routine.code.is_empty() {
                continue;
            }
            out.push_str(&format!("== op {} (unbound)\n", op.name));
            render_routine(&t.store, routine, self.model, t.layout, 1, &mut out);
        }
        let mut words: Vec<u128> = self.decode_cache.keys().copied().collect();
        words.sort_unstable();
        for word in words {
            let d = &self.decode_cache[&word];
            let id = t.bind(d.op, d);
            out.push_str(&format!(
                "== word {:#x} op {} variant {}\n",
                word,
                self.model.operation(d.op).name,
                d.variant
            ));
            render_routine(&t.store, &t.store[id].routine, self.model, t.layout, 1, &mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Listing (goldens / debugging)
// ---------------------------------------------------------------------------

fn render_routine(
    store: &RoutineStore<'_>,
    routine: &OpsRoutine,
    model: &Model,
    layout: &Layout,
    indent: usize,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let variant = |id: RoutineId| store[id].decoded.as_ref().map_or(0, |d| d.variant);
    for (i, op) in routine.code.iter().enumerate() {
        out.push_str(&format!("{pad}{i:04}  {}\n", render_micro(op, model, layout, routine)));
    }
    for (k, child) in routine.children.iter().enumerate() {
        out.push_str(&format!(
            "{pad}child {k}: op {} variant {}\n",
            model.operation(store.decoded_op(child.routine)).name,
            variant(child.routine)
        ));
        render_routine(store, &store[child.routine].routine, model, layout, indent + 1, out);
    }
    if let Some(plan) = routine.act.as_ref() {
        render_act_steps(plan, &plan.steps, model, indent, out);
        for (c, cond) in plan.conds.iter().enumerate() {
            out.push_str(&format!("{pad}act cond {c}:\n"));
            render_routine(store, cond, model, layout, indent + 1, out);
        }
        for (k, t) in plan.targets.iter().enumerate() {
            if let Some(r) = t.routine {
                out.push_str(&format!(
                    "{pad}act target {k}: op {} variant {}\n",
                    model.operation(t.op).name,
                    variant(r)
                ));
                render_routine(store, &store[r].routine, model, layout, indent + 1, out);
            }
        }
    }
}

fn render_act_steps(
    plan: &ActPlan,
    steps: &[ActStep],
    model: &Model,
    indent: usize,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    for step in steps {
        match step {
            ActStep::Activate(k) => {
                let t = &plan.targets[*k as usize];
                out.push_str(&format!(
                    "{pad}act activate {} delay={} [{k}]\n",
                    model.operation(t.op).name,
                    t.delay
                ));
            }
            ActStep::Pipe(p) => out.push_str(&format!("{pad}act pipe {p:?}\n")),
            ActStep::If { cond, then_steps, else_steps } => {
                if *cond == u16::MAX {
                    out.push_str(&format!("{pad}act taken-branch\n"));
                } else {
                    out.push_str(&format!("{pad}act if cond {cond}\n"));
                }
                render_act_steps(plan, then_steps, model, indent + 1, out);
                if !else_steps.is_empty() {
                    out.push_str(&format!("{pad}act else\n"));
                    render_act_steps(plan, else_steps, model, indent + 1, out);
                }
            }
            ActStep::Switch { cond, cases, default } => {
                out.push_str(&format!("{pad}act switch cond {cond}\n"));
                for (v, body) in cases {
                    out.push_str(&format!("{pad}act case {v}\n"));
                    render_act_steps(plan, body, model, indent + 1, out);
                }
                if !default.is_empty() {
                    out.push_str(&format!("{pad}act default\n"));
                    render_act_steps(plan, default, model, indent + 1, out);
                }
            }
            ActStep::Fail(k) => {
                out.push_str(&format!("{pad}act fail {:?}\n", plan.errors[*k as usize]));
            }
        }
    }
}

fn render_micro(op: &MicroOp, model: &Model, layout: &Layout, routine: &OpsRoutine) -> String {
    let res_name = |r: &ResourceId| model.resource(*r).name.clone();
    let op_name = |o: &OpId| model.operation(*o).name.clone();
    let o = |x: &Operand| match *x {
        Operand::Slot(s) => format!("%{s}"),
        Operand::Cell { res, cell, .. } => {
            let res = model.resource(ResourceId(usize::from(res)));
            if res.dims.is_empty() {
                res.name.clone()
            } else {
                format!("{}[{}]", res.name, layout.flat(res.id, cell))
            }
        }
        Operand::Imm(v) => v.to_string(),
    };
    match op {
        MicroOp::Move { dst, src } => format!("{} = {}", o(dst), o(src)),
        MicroOp::Const { dst, value } => format!("{} = {value}", o(dst)),
        MicroOp::Load { dst, res, flat } => format!("{} = load {}[{flat}]", o(dst), res_name(res)),
        MicroOp::LoadIdx { dst, res, idx } => {
            format!("{} = {}[idx {}]", o(dst), res_name(res), o(idx))
        }
        MicroOp::LoadDyn { dst, res, idx, n } => {
            format!("{} = {}[dyn %{idx} x{n}]", o(dst), res_name(res))
        }
        MicroOp::Unary { op, dst, src } => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
            };
            format!("{} = {sym}{}", o(dst), o(src))
        }
        MicroOp::Binary { op, dst, a, b, .. } => {
            format!("{} = {} {} {}", o(dst), o(a), binop_symbol(*op), o(b))
        }
        MicroOp::Builtin { f, dst, a, b, .. } => {
            let name = format!("{f:?}").to_lowercase();
            match f {
                Builtin::Abs | Builtin::Print => format!("{} = {name}({})", o(dst), o(a)),
                Builtin::Nop => format!("{} = {name}()", o(dst)),
                _ => format!("{} = {name}({}, {})", o(dst), o(a), o(b)),
            }
        }
        MicroOp::StoreIdx { res, idx, src } => {
            format!("{}[idx {}] = {}", res_name(res), o(idx), o(src))
        }
        MicroOp::StoreDyn { res, idx, n, src } => {
            format!("{}[dyn %{idx} x{n}] = {}", res_name(res), o(src))
        }
        MicroOp::RmwDyn { res, idx, n, op, rhs, .. } => {
            format!("{}[dyn %{idx} x{n}] {}= {}", res_name(res), binop_symbol(*op), o(rhs))
        }
        MicroOp::Jump(t) => format!("jump {t:04}"),
        MicroOp::JumpUnless { op, a, b, target, .. } => {
            format!("unless {} {} {} -> {target:04}", o(a), binop_symbol(*op), o(b))
        }
        MicroOp::Pipe(p) => format!("pipe {p:?}"),
        MicroOp::InvokeChild(k) => format!("invoke child {k}"),
        MicroOp::InvokeUnbound(o) => format!("invoke {}", op_name(o)),
        MicroOp::Enter(o) => format!("enter {}", op_name(o)),
        MicroOp::ZeroLocals { base, n } => format!("zero-locals {base}..{}", base + n),
        MicroOp::Fail(k) => format!("fail {:?}", routine.errors[*k as usize]),
    }
}

fn binop_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::LogAnd => "&&",
        BinOp::LogOr => "||",
    }
}

#[cfg(test)]
mod tests {
    use lisa_bits::Bits;

    use super::*;
    use crate::state::tests::edge_values;

    /// Every `execute_decoded` call mints a fresh `Arc<Decoded>`, so each
    /// one binds a new routine. Past the cap the store must be reclaimed
    /// at the call boundary, and execution must carry on unchanged.
    #[test]
    fn store_is_reclaimed_past_the_cache_cap() {
        let wb = lisa_models::tinyrisc::workbench().expect("tinyrisc builds");
        let model = wb.model();
        let mut sim = Simulator::new(model, crate::SimMode::Ops).expect("simulator builds");
        let r = model.resource_by_name("R").expect("R").clone();
        sim.state_mut().write_int(&r, &[2], 1).expect("R2 = 1");
        let add = wb.assemble_one("ADD R1, R1, R2").expect("assembles");

        let calls = OPS_CACHE_MAX + 64;
        let mut reclaims = 0;
        let mut last = sim.ops_store_len();
        for call in 0..calls {
            sim.execute_decoded(&add).expect("executes");
            let len = sim.ops_store_len();
            assert!(len < OPS_CACHE_MAX, "store at {len} entries after call {call}");
            reclaims += usize::from(len < last);
            last = len;
        }
        assert!(reclaims >= 1, "the valve never fired");
        assert_eq!(sim.state().read_int(&r, &[1]).expect("R1"), calls as i64);
    }

    /// A snapshot's pending bindings re-resolve through the instance
    /// cache, so restoring into the simulator that took it translates
    /// nothing.
    #[test]
    fn restore_into_the_same_simulator_translates_nothing() {
        let wb = lisa_models::vliw62::workbench().expect("vliw62 builds");
        let words = wb
            .assemble(&["MVK A1, 40", "MVK B1, 2", "ADD .L A2, A1, A1", "HALT"])
            .expect("assembles");
        let mut sim = Simulator::new(wb.model(), crate::SimMode::Ops).expect("simulator builds");
        sim.load_program(wb.program_memory(), &words).expect("loads");
        while !sim.pending.iter().any(|p| matches!(p.item.bind, Binding::Routine(_))) {
            sim.step().expect("steps");
        }
        let snap = sim.snapshot();
        let len = sim.ops_store_len();
        sim.run(3).expect("runs");
        sim.restore(&snap).expect("restores");
        assert_eq!(sim.ops_store_len(), len);
    }

    /// Every ops simulator on a model shares the model's image, including
    /// two built on their own threads the way serve's workers build them:
    /// lowering and default translation run once per model, and every
    /// simulator runs the program the same.
    #[test]
    fn ops_simulators_on_one_model_share_one_image() {
        let wb = lisa_models::vliw62::workbench().expect("vliw62 builds");
        let words = wb
            .assemble(&["MVK A1, 40", "MVK B1, 2", "ADD .L A2, A1, B1", "HALT"])
            .expect("assembles");
        let halt = wb.model().resource_by_name(wb.halt_flag()).expect("halt flag");
        let run = || {
            let mut sim = Simulator::new(wb.model(), crate::SimMode::Ops).expect("builds");
            sim.load_program(wb.program_memory(), &words).expect("loads");
            let halted = |st: &crate::State| st.read_int(halt, &[]).unwrap_or(0) != 0;
            let cycles = sim.run_until(halted, 1000).expect("halts").cycles;
            let t = sim.ops.as_ref().expect("ops tables");
            let image = (t.lowered as *const Lowered as usize, t.store.shared.as_ptr() as usize);
            (image, cycles, sim.state().digest(), sim.ops_listing())
        };
        let mut runs: Vec<_> = std::thread::scope(|s| {
            let workers = [s.spawn(run), s.spawn(run)];
            workers.map(|w| w.join().expect("worker runs")).to_vec()
        });
        runs.extend([run(), run()]);

        let image = ModelImage::of(wb.model()).expect("image builds");
        let shared = (&image.lowered as *const Lowered as usize, image.routines.as_ptr() as usize);
        assert!(!image.routines.is_empty());
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.0, shared, "simulator {i} has its own image");
            assert_eq!((r.1, r.2), (runs[0].1, runs[0].2), "simulator {i} cycles and digest");
            assert_eq!(r.3, runs[0].3, "simulator {i} listing");
        }
    }

    /// Every routine is an array of these, so a variant that grows the
    /// enum grows every op the cycle loop touches.
    #[test]
    fn micro_op_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Operand>(), 8);
        assert_eq!(std::mem::size_of::<MicroOp>(), 32);
    }

    #[test]
    fn width_builtins_match_bits() {
        for width in 1..=64i64 {
            for &v in &edge_values() {
                let bits = Bits::from_i128_wrapped(width as u32, i128::from(v));
                let eval = |f| eval_builtin_pure(f, [v, width]);
                assert_eq!(eval(Builtin::Sext), bits.to_i128() as i64, "sext {v} {width}");
                assert_eq!(eval(Builtin::Zext), bits.to_u128() as i64, "zext {v} {width}");
                assert_eq!(eval(Builtin::Norm), i64::from(bits.norm()), "norm {v} {width}");
            }
        }
    }
}
