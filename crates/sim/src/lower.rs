//! Compiled simulation, front end: behaviors lowered to slot-resolved IR.
//!
//! The paper's headline performance technique (§3.3) moves work from
//! simulation run time to simulator generation time: instruction decoding
//! happens once per program word, and compile-time-evaluable structure
//! (SWITCH/CASE specialisation, name binding) is resolved before the cycle
//! loop starts. This module is the "generation" half: each operation
//! variant's BEHAVIOR and EXPRESSION sections are lowered once per model
//! into an IR whose locals are stack slots, whose resources are ids, and
//! whose group operands dispatch through precomputed variant tables — no
//! string lookups remain. `ops.rs` translates this IR into micro-op code
//! and keeps the result in the model's shared image.

use lisa_core::ast::{AssignOp, BinOp, Block, Call, DataType, Expr, Stmt, UnOp};
use lisa_core::model::{Model, OpId, PipelineId, ResourceId};

use crate::{SimError, Simulator};

/// Built-in functions recognised in behavior code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Sext,
    Zext,
    Saturate,
    Abs,
    Min,
    Max,
    Norm,
    Print,
    Nop,
}

impl Builtin {
    fn from_name(name: &str) -> Option<(Builtin, usize)> {
        Some(match name {
            "sext" => (Builtin::Sext, 2),
            "zext" => (Builtin::Zext, 2),
            "saturate" => (Builtin::Saturate, 2),
            "abs" => (Builtin::Abs, 1),
            "min" => (Builtin::Min, 2),
            "max" => (Builtin::Max, 2),
            "norm" => (Builtin::Norm, 2),
            "print" => (Builtin::Print, 1),
            "nop" => (Builtin::Nop, 0),
            _ => return None,
        })
    }
}

/// Lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LExpr {
    Const(i64),
    Local(u16),
    Label(u16),
    ResScalar(ResourceId),
    ResElem { res: ResourceId, indices: Vec<LExpr> },
    GroupValue(u16),
    OpRefValue(OpId),
    Unary { op: UnOp, expr: Box<LExpr> },
    Binary { op: BinOp, lhs: Box<LExpr>, rhs: Box<LExpr> },
    Ternary { cond: Box<LExpr>, then_expr: Box<LExpr>, else_expr: Box<LExpr> },
    Builtin { f: Builtin, args: Vec<LExpr> },
}

/// Lowered lvalue.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LPlace {
    Local(u16),
    Res { res: ResourceId, indices: Vec<LExpr> },
    Group(u16),
    OpRef(OpId),
}

/// Lowered pipeline intrinsic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PipeOp {
    Shift(PipelineId),
    Stall(PipelineId, usize),
    Flush(PipelineId, Option<usize>),
}

/// Lowered statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LStmt {
    DeclLocal { slot: u16, init: Option<LExpr>, width: u32, signed: bool },
    Assign { place: LPlace, op: AssignOp, value: LExpr },
    IncDec { place: LPlace, delta: i64 },
    InvokeGroup(u16),
    InvokeOp(OpId),
    Intrinsic(PipeOp),
    EvalDrop(LExpr),
    If { cond: LExpr, then_block: LBlock, else_block: LBlock },
    While { cond: LExpr, body: LBlock },
    DoWhile { body: LBlock, cond: LExpr },
    For { init: Option<Box<LStmt>>, cond: Option<LExpr>, step: Option<Box<LStmt>>, body: LBlock },
    Switch { scrutinee: LExpr, cases: Vec<(i64, LBlock)>, default: Option<LBlock> },
    Break,
    Continue,
    Block(LBlock),
}

/// A lowered block.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LBlock {
    pub stmts: Vec<LStmt>,
}

/// All lowered code for a model, indexed by flattened (operation,
/// variant).
#[derive(Debug)]
pub(crate) struct Lowered {
    variant_base: Vec<usize>,
    pub(crate) behaviors: Vec<Option<LBlock>>,
    pub(crate) expressions: Vec<Option<LExpr>>,
    pub(crate) expr_places: Vec<Option<LPlace>>,
    pub(crate) locals_count: Vec<u16>,
}

impl Lowered {
    #[inline]
    pub(crate) fn slot(&self, op: OpId, variant: usize) -> usize {
        self.variant_base[op.0] + variant
    }

    /// Lowers every operation variant of a model.
    pub(crate) fn lower(model: &Model) -> Result<Lowered, SimError> {
        let mut variant_base = Vec::with_capacity(model.operations().len());
        let mut total = 0usize;
        for op in model.operations() {
            variant_base.push(total);
            total += op.variants.len();
        }
        let mut tables = Lowered {
            variant_base,
            behaviors: vec![None; total],
            expressions: vec![None; total],
            expr_places: vec![None; total],
            locals_count: vec![0; total],
        };
        for op in model.operations() {
            for (vidx, variant) in op.variants.iter().enumerate() {
                let idx = tables.slot(op.id, vidx);
                let mut ctx = LowerCtx::new(model, op.id);
                if let Some(behavior) = &variant.behavior {
                    let block = ctx.lower_block(behavior)?;
                    tables.behaviors[idx] = Some(block);
                }
                if let Some(expr) = &variant.expression {
                    tables.expressions[idx] = Some(ctx.lower_expr(expr)?);
                    tables.expr_places[idx] = ctx.lower_place(expr).ok();
                }
                tables.locals_count[idx] = ctx.max_slots;
            }
        }
        Ok(tables)
    }
}

/// Lowers one ACTIVATION condition expression. Conditions evaluate in a
/// fresh frame (no behavior locals in scope), so a bare `LowerCtx` gives
/// the same name resolution the interpretive `eval_condition` performs at
/// run time.
pub(crate) fn lower_act_expr(model: &Model, op: OpId, expr: &Expr) -> Result<LExpr, SimError> {
    LowerCtx::new(model, op).lower_expr(expr)
}

/// Name-resolution context while lowering one operation.
struct LowerCtx<'m> {
    model: &'m Model,
    op: OpId,
    locals: Vec<String>,
    scopes: Vec<usize>,
    max_slots: u16,
}

impl<'m> LowerCtx<'m> {
    fn new(model: &'m Model, op: OpId) -> Self {
        LowerCtx { model, op, locals: Vec::new(), scopes: Vec::new(), max_slots: 0 }
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scopes.pop().unwrap_or(0);
        self.locals.truncate(mark);
    }

    fn declare(&mut self, name: &str) -> u16 {
        self.locals.push(name.to_owned());
        let slot = (self.locals.len() - 1) as u16;
        self.max_slots = self.max_slots.max(self.locals.len() as u16);
        slot
    }

    fn local(&self, name: &str) -> Option<u16> {
        self.locals.iter().rposition(|n| n == name).map(|i| i as u16)
    }

    fn unknown(&self, name: &str) -> SimError {
        SimError::UnknownName {
            name: name.to_owned(),
            operation: self.model.operation(self.op).name.clone(),
        }
    }

    fn lower_block(&mut self, block: &Block) -> Result<LBlock, SimError> {
        self.push_scope();
        let stmts = block.stmts.iter().map(|s| self.lower_stmt(s)).collect::<Result<Vec<_>, _>>();
        self.pop_scope();
        Ok(LBlock { stmts: stmts? })
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<LStmt, SimError> {
        Ok(match stmt {
            Stmt::Local { ty, name, init } => {
                let init = init.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                let slot = self.declare(&name.name);
                let width = width_of(*ty);
                LStmt::DeclLocal { slot, init, width, signed: ty.is_signed() }
            }
            Stmt::Assign { target, op, value } => {
                let value = self.lower_expr(value)?;
                let place = self.lower_place(target)?;
                LStmt::Assign { place, op: *op, value }
            }
            Stmt::IncDec { target, delta } => {
                LStmt::IncDec { place: self.lower_place(target)?, delta: *delta }
            }
            Stmt::Expr(expr) => self.lower_effect(expr)?,
            Stmt::If { cond, then_block, else_block } => LStmt::If {
                cond: self.lower_expr(cond)?,
                then_block: self.lower_block(then_block)?,
                else_block: self.lower_block(else_block)?,
            },
            Stmt::While { cond, body } => {
                LStmt::While { cond: self.lower_expr(cond)?, body: self.lower_block(body)? }
            }
            Stmt::DoWhile { body, cond } => {
                LStmt::DoWhile { body: self.lower_block(body)?, cond: self.lower_expr(cond)? }
            }
            Stmt::For { init, cond, step, body } => {
                self.push_scope();
                let init = init.as_ref().map(|s| self.lower_stmt(s)).transpose()?.map(Box::new);
                let cond = cond.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                let step = step.as_ref().map(|s| self.lower_stmt(s)).transpose()?.map(Box::new);
                let body = self.lower_block(body)?;
                self.pop_scope();
                LStmt::For { init, cond, step, body }
            }
            Stmt::Switch { scrutinee, cases, default } => LStmt::Switch {
                scrutinee: self.lower_expr(scrutinee)?,
                cases: cases.iter().map(|(v, b)| Ok((*v, self.lower_block(b)?))).collect::<Result<
                    Vec<_>,
                    SimError,
                >>(
                )?,
                default: default.as_ref().map(|b| self.lower_block(b)).transpose()?,
            },
            Stmt::Break => LStmt::Break,
            Stmt::Continue => LStmt::Continue,
            Stmt::Block(b) => LStmt::Block(self.lower_block(b)?),
        })
    }

    /// Statement-position expressions: invocations and intrinsics.
    fn lower_effect(&mut self, expr: &Expr) -> Result<LStmt, SimError> {
        let operation = self.model.operation(self.op);
        match expr {
            Expr::Name(id) => {
                if let Some(g) = operation.group_index(&id.name) {
                    return Ok(LStmt::InvokeGroup(g as u16));
                }
                if let Some(target) = self.model.operation_by_name(&id.name) {
                    return Ok(LStmt::InvokeOp(target.id));
                }
                Ok(LStmt::EvalDrop(self.lower_expr(expr)?))
            }
            Expr::Call(call) => {
                if let Some(pipe_op) = self.lower_intrinsic(call)? {
                    return Ok(LStmt::Intrinsic(pipe_op));
                }
                if call.path.len() == 1 {
                    let name = &call.path[0].name;
                    if Builtin::from_name(name).is_some() {
                        return Ok(LStmt::EvalDrop(self.lower_expr(expr)?));
                    }
                    if let Some(g) = operation.group_index(name) {
                        return Ok(LStmt::InvokeGroup(g as u16));
                    }
                    if let Some(target) = self.model.operation_by_name(name) {
                        return Ok(LStmt::InvokeOp(target.id));
                    }
                }
                Ok(LStmt::EvalDrop(self.lower_expr(expr)?))
            }
            _ => Ok(LStmt::EvalDrop(self.lower_expr(expr)?)),
        }
    }

    fn lower_intrinsic(&mut self, call: &Call) -> Result<Option<PipeOp>, SimError> {
        let Some(first) = call.path.first() else { return Ok(None) };
        let Some(pipeline) = self.model.pipelines().iter().find(|p| p.name == first.name) else {
            return Ok(None);
        };
        let path_str = || call.path.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(".");
        let op = match call.path.len() {
            2 => match call.path[1].name.as_str() {
                "shift" => PipeOp::Shift(pipeline.id),
                "stall" => PipeOp::Stall(pipeline.id, pipeline.depth().saturating_sub(1)),
                "flush" => PipeOp::Flush(pipeline.id, None),
                _ => return Err(SimError::UnknownPipeline { path: path_str() }),
            },
            3 => {
                let sidx = pipeline
                    .stage_index(&call.path[1].name)
                    .ok_or_else(|| SimError::UnknownPipeline { path: path_str() })?;
                match call.path[2].name.as_str() {
                    "stall" => PipeOp::Stall(pipeline.id, sidx),
                    "flush" => PipeOp::Flush(pipeline.id, Some(sidx)),
                    _ => return Err(SimError::UnknownPipeline { path: path_str() }),
                }
            }
            _ => return Err(SimError::UnknownPipeline { path: path_str() }),
        };
        Ok(Some(op))
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<LExpr, SimError> {
        let operation = self.model.operation(self.op);
        Ok(match expr {
            Expr::Int(v, _) => LExpr::Const(*v),
            Expr::Name(id) => {
                if let Some(slot) = self.local(&id.name) {
                    LExpr::Local(slot)
                } else if let Some(l) = operation.label_index(&id.name) {
                    LExpr::Label(l as u16)
                } else if let Some(g) = operation.group_index(&id.name) {
                    LExpr::GroupValue(g as u16)
                } else if let Some(res) = self.model.resource_by_name(&id.name) {
                    LExpr::ResScalar(res.id)
                } else if let Some(target) = self.model.operation_by_name(&id.name) {
                    LExpr::OpRefValue(target.id)
                } else {
                    return Err(self.unknown(&id.name));
                }
            }
            Expr::Index { .. } => {
                let (res, indices) = self.lower_indexed(expr)?;
                LExpr::ResElem { res, indices }
            }
            Expr::Unary { op, expr } => {
                LExpr::Unary { op: *op, expr: Box::new(self.lower_expr(expr)?) }
            }
            Expr::Binary { op, lhs, rhs } => LExpr::Binary {
                op: *op,
                lhs: Box::new(self.lower_expr(lhs)?),
                rhs: Box::new(self.lower_expr(rhs)?),
            },
            Expr::Ternary { cond, then_expr, else_expr } => LExpr::Ternary {
                cond: Box::new(self.lower_expr(cond)?),
                then_expr: Box::new(self.lower_expr(then_expr)?),
                else_expr: Box::new(self.lower_expr(else_expr)?),
            },
            Expr::Call(call) => {
                if call.path.len() == 1 {
                    let name = &call.path[0].name;
                    if let Some((f, expected)) = Builtin::from_name(name) {
                        if call.args.len() != expected {
                            return Err(SimError::BadArity {
                                builtin: name.clone(),
                                got: call.args.len(),
                                expected,
                            });
                        }
                        let args = call
                            .args
                            .iter()
                            .map(|a| self.lower_expr(a))
                            .collect::<Result<Vec<_>, _>>()?;
                        return Ok(LExpr::Builtin { f, args });
                    }
                    if let Some(g) = operation.group_index(name) {
                        return Ok(LExpr::GroupValue(g as u16));
                    }
                    if let Some(target) = self.model.operation_by_name(name) {
                        return Ok(LExpr::OpRefValue(target.id));
                    }
                }
                return Err(SimError::UnknownCall {
                    path: call.path.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join("."),
                    operation: operation.name.clone(),
                });
            }
        })
    }

    fn lower_indexed(&mut self, expr: &Expr) -> Result<(ResourceId, Vec<LExpr>), SimError> {
        let mut indices_rev = Vec::new();
        let mut cur = expr;
        loop {
            match cur {
                Expr::Index { base, index } => {
                    indices_rev.push(self.lower_expr(index)?);
                    cur = base;
                }
                Expr::Name(id) => {
                    let res = self
                        .model
                        .resource_by_name(&id.name)
                        .ok_or_else(|| self.unknown(&id.name))?;
                    indices_rev.reverse();
                    return Ok((res.id, indices_rev));
                }
                _ => {
                    return Err(SimError::NotAnLvalue {
                        operation: self.model.operation(self.op).name.clone(),
                    });
                }
            }
        }
    }

    fn lower_place(&mut self, expr: &Expr) -> Result<LPlace, SimError> {
        let operation = self.model.operation(self.op);
        Ok(match expr {
            Expr::Name(id) => {
                if let Some(slot) = self.local(&id.name) {
                    LPlace::Local(slot)
                } else if let Some(g) = operation.group_index(&id.name) {
                    LPlace::Group(g as u16)
                } else if let Some(res) = self.model.resource_by_name(&id.name) {
                    LPlace::Res { res: res.id, indices: Vec::new() }
                } else if let Some(target) = self.model.operation_by_name(&id.name) {
                    LPlace::OpRef(target.id)
                } else {
                    return Err(self.unknown(&id.name));
                }
            }
            Expr::Index { .. } => {
                let (res, indices) = self.lower_indexed(expr)?;
                LPlace::Res { res, indices }
            }
            _ => {
                return Err(SimError::NotAnLvalue { operation: operation.name.clone() });
            }
        })
    }
}

fn width_of(ty: DataType) -> u32 {
    ty.width().min(64)
}

impl Simulator<'_> {
    pub(crate) fn apply_pipe_op(&mut self, op: PipeOp) {
        // Same control logic (and same trace events / stall accounting)
        // as the interpretive intrinsic path — lowering only resolves
        // the names earlier.
        match op {
            PipeOp::Shift(pid) => self.pipe_shift(pid),
            PipeOp::Stall(pid, upto) => self.pipe_stall(pid, upto),
            PipeOp::Flush(pid, upto) => self.pipe_flush(pid, upto),
        }
    }
}
