//! Interpretive behavior evaluation: direct AST walking with name-based
//! resolution: the paper's baseline technique and the reference
//! semantics. The ops backend ([`crate::ops`]) pre-resolves everything
//! this module looks up at run time.

use lisa_core::ast::{AssignOp, BinOp, Block, Call, Expr, Stmt, UnOp};
use lisa_core::model::{CodingTarget, OpId, Resource};
use lisa_isa::Decoded;

use crate::state::flatten_indices;
use crate::{SimError, Simulator};

/// A behavior-execution frame: the operation instance being evaluated and
/// its local variables.
#[derive(Debug)]
pub(crate) struct Frame<'d> {
    pub op: OpId,
    pub decoded: Option<&'d Decoded>,
    locals: Vec<(String, i64)>,
    scopes: Vec<usize>,
}

impl<'d> Frame<'d> {
    pub fn new(op: OpId, decoded: Option<&'d Decoded>) -> Self {
        Frame { op, decoded, locals: Vec::new(), scopes: Vec::new() }
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scopes.pop().unwrap_or(0);
        self.locals.truncate(mark);
    }

    fn declare(&mut self, name: &str, value: i64) {
        self.locals.push((name.to_owned(), value));
    }

    fn local(&self, name: &str) -> Option<usize> {
        self.locals.iter().rposition(|(n, _)| n == name)
    }
}

/// An lvalue: where an assignment lands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Place {
    Local(usize),
    Resource { res: lisa_core::model::ResourceId, flat: usize },
}

/// Loop control flow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flow {
    Normal,
    Break,
    Continue,
}

impl<'m> Simulator<'m> {
    /// Executes an operation's BEHAVIOR section interpretively.
    pub(crate) fn exec_behavior_interp(
        &mut self,
        op: OpId,
        variant: usize,
        decoded: Option<&Decoded>,
    ) -> Result<(), SimError> {
        let operation = self.model.operation(op);
        let Some(behavior) = operation.variants[variant].behavior.as_ref() else {
            return Ok(());
        };
        let mut frame = Frame::new(op, decoded);
        self.eval_block(behavior, &mut frame)?;
        Ok(())
    }

    fn eval_block(&mut self, block: &Block, frame: &mut Frame<'_>) -> Result<Flow, SimError> {
        frame.push_scope();
        let flow = self.eval_stmts(&block.stmts, frame);
        frame.pop_scope();
        flow
    }

    fn eval_stmts(&mut self, stmts: &[Stmt], frame: &mut Frame<'_>) -> Result<Flow, SimError> {
        for stmt in stmts {
            match self.eval_stmt(stmt, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn eval_stmt(&mut self, stmt: &Stmt, frame: &mut Frame<'_>) -> Result<Flow, SimError> {
        match stmt {
            Stmt::Local { ty, name, init } => {
                let value = match init {
                    Some(e) => self.eval_expr_interp(e, frame)?,
                    None => 0,
                };
                // Locals are C ints; widths below 64 wrap like the type.
                let width = ty.width().min(64);
                let wrapped = lisa_bits::Bits::from_i128_wrapped(width, i128::from(value));
                let value = if ty.is_signed() {
                    wrapped.to_i128() as i64
                } else {
                    wrapped.to_u128() as i64
                };
                frame.declare(&name.name, value);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                let rhs = self.eval_expr_interp(value, frame)?;
                let place = self.eval_place(target, frame)?;
                let new = match op {
                    AssignOp::Set => rhs,
                    _ => {
                        let old = self.read_place(place, frame)?;
                        apply_compound(*op, old, rhs).map_err(|_| SimError::DivisionByZero {
                            operation: self.model.operation(frame.op).name.clone(),
                        })?
                    }
                };
                self.write_place(place, new, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::IncDec { target, delta } => {
                let place = self.eval_place(target, frame)?;
                let old = self.read_place(place, frame)?;
                self.write_place(place, old.wrapping_add(*delta), frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval_effect(expr, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_block, else_block } => {
                if self.eval_expr_interp(cond, frame)? != 0 {
                    self.eval_block(then_block, frame)
                } else {
                    self.eval_block(else_block, frame)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval_expr_interp(cond, frame)? != 0 {
                    if self.eval_block(body, frame)? == Flow::Break {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    if self.eval_block(body, frame)? == Flow::Break {
                        break;
                    }
                    if self.eval_expr_interp(cond, frame)? == 0 {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body } => {
                frame.push_scope();
                if let Some(init) = init {
                    self.eval_stmt(init, frame)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if self.eval_expr_interp(cond, frame)? == 0 {
                            break;
                        }
                    }
                    if self.eval_block(body, frame)? == Flow::Break {
                        break;
                    }
                    if let Some(step) = step {
                        self.eval_stmt(step, frame)?;
                    }
                }
                frame.pop_scope();
                Ok(Flow::Normal)
            }
            Stmt::Switch { scrutinee, cases, default } => {
                let value = self.eval_expr_interp(scrutinee, frame)?;
                let body =
                    cases.iter().find(|(v, _)| *v == value).map(|(_, b)| b).or(default.as_ref());
                match body {
                    Some(block) => {
                        // A Break inside a case ends the switch, not an
                        // enclosing loop (cases absorb their trailing
                        // break at parse time; stray breaks are local).
                        match self.eval_block(block, frame)? {
                            Flow::Break => Ok(Flow::Normal),
                            other => Ok(other),
                        }
                    }
                    None => Ok(Flow::Normal),
                }
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(block) => self.eval_block(block, frame),
        }
    }

    /// Expression-statement semantics: operation/group names and calls
    /// invoke behaviors; intrinsics act; anything else evaluates for
    /// value and discards it.
    fn eval_effect(&mut self, expr: &Expr, frame: &mut Frame<'_>) -> Result<(), SimError> {
        match expr {
            Expr::Name(id) => {
                let operation = self.model.operation(frame.op);
                if let Some(gidx) = operation.group_index(&id.name) {
                    return self.invoke_group(gidx, frame);
                }
                if let Some(target) = self.model.operation_by_name(&id.name) {
                    let target = target.id;
                    return self.invoke_op(target, frame);
                }
                self.eval_expr_interp(expr, frame).map(drop)
            }
            Expr::Call(call) => {
                if self.try_pipe_intrinsic(call)? {
                    return Ok(());
                }
                if call.path.len() == 1 {
                    let name = &call.path[0].name;
                    let operation = self.model.operation(frame.op);
                    if let Some(gidx) = operation.group_index(name) {
                        return self.invoke_group(gidx, frame);
                    }
                    if let Some(target) = self.model.operation_by_name(name) {
                        let target = target.id;
                        return self.invoke_op(target, frame);
                    }
                }
                self.eval_expr_interp(expr, frame).map(drop)
            }
            _ => self.eval_expr_interp(expr, frame).map(drop),
        }
    }

    /// Invokes the behavior (and activation) of a group's selected member
    /// in the same control step.
    fn invoke_group(&mut self, gidx: usize, frame: &mut Frame<'_>) -> Result<(), SimError> {
        let child =
            frame.decoded.and_then(|d| d.group_child(self.model, gidx)).ok_or_else(|| {
                let operation = self.model.operation(frame.op);
                SimError::UnboundGroup {
                    group: operation.groups[gidx].name.clone(),
                    operation: operation.name.clone(),
                }
            })?;
        self.invoke_decoded(child)
    }

    /// Invokes an operation by id, passing through a matching op-reference
    /// binding when the current instruction carries one.
    fn invoke_op(&mut self, target: OpId, frame: &mut Frame<'_>) -> Result<(), SimError> {
        let bound = self.op_ref_child(target, frame);
        match bound {
            Some(child) => self.invoke_decoded(child),
            None => self.invoke_unbound(target),
        }
    }

    /// Executes a decoded operation instance immediately (behavior +
    /// activation; zero-delay activations also run in this control step).
    fn invoke_decoded(&mut self, decoded: &Decoded) -> Result<(), SimError> {
        self.stats.executed_ops += 1;
        if self.observing() {
            self.emit_exec(decoded.op);
        }
        self.exec_behavior_interp(decoded.op, decoded.variant, Some(decoded))?;
        self.invoke_activation(decoded.op, decoded.variant, Some(decoded))
    }

    /// Executes an operation with no operand binding. Decode-root
    /// operations fetch and decode their compared resource first. Ops
    /// mode has its own twin, `ops_invoke_unbound`.
    fn invoke_unbound(&mut self, op: OpId) -> Result<(), SimError> {
        let operation = self.model.operation(op);
        if let Some(root_res) = operation.decode_root {
            let word = self.fetch(root_res);
            let decoded = self.decode_word(word)?;
            self.invoke_decoded(&decoded)?;
            self.stats.instructions_retired += 1;
            return Ok(());
        }
        self.stats.executed_ops += 1;
        if self.observing() {
            self.emit_exec(op);
        }
        let variant = operation.default_variant();
        self.exec_behavior_interp(op, variant, None)?;
        self.invoke_activation(op, variant, None)
    }

    /// Runs the invoked operation's ACTIVATION list; zero-delay targets
    /// execute immediately, delayed ones enter the schedule.
    pub(crate) fn invoke_activation(
        &mut self,
        op: OpId,
        variant: usize,
        decoded: Option<&Decoded>,
    ) -> Result<(), SimError> {
        let operation = self.model.operation(op);
        let Some(activation) = operation.variants[variant].activation.as_ref() else {
            return Ok(());
        };
        let mut ready = Vec::new();
        self.run_act_nodes(activation, op, decoded, &mut ready)?;
        let mut i = 0;
        while i < ready.len() {
            let item = ready[i].clone();
            match item.bind {
                crate::engine::Binding::Decoded(d) => self.invoke_decoded(&d)?,
                crate::engine::Binding::Unbound => self.invoke_unbound(item.op)?,
                crate::engine::Binding::Routine(_) => {
                    unreachable!("routine bindings exist only in ops mode")
                }
            }
            i += 1;
        }
        Ok(())
    }

    // -- expressions --------------------------------------------------------

    pub(crate) fn eval_expr_interp(
        &mut self,
        expr: &Expr,
        frame: &mut Frame<'_>,
    ) -> Result<i64, SimError> {
        match expr {
            Expr::Int(v, _) => Ok(*v),
            Expr::Name(id) => self.read_name(&id.name, frame),
            Expr::Index { .. } => {
                let place = self.eval_place(expr, frame)?;
                self.read_place(place, frame)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_expr_interp(expr, frame)?;
                Ok(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                    UnOp::BitNot => !v,
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::LogAnd => {
                        let l = self.eval_expr_interp(lhs, frame)?;
                        if l == 0 {
                            return Ok(0);
                        }
                        let r = self.eval_expr_interp(rhs, frame)?;
                        return Ok(i64::from(r != 0));
                    }
                    BinOp::LogOr => {
                        let l = self.eval_expr_interp(lhs, frame)?;
                        if l != 0 {
                            return Ok(1);
                        }
                        let r = self.eval_expr_interp(rhs, frame)?;
                        return Ok(i64::from(r != 0));
                    }
                    _ => {}
                }
                let l = self.eval_expr_interp(lhs, frame)?;
                let r = self.eval_expr_interp(rhs, frame)?;
                apply_binop(*op, l, r).map_err(|_| SimError::DivisionByZero {
                    operation: self.model.operation(frame.op).name.clone(),
                })
            }
            Expr::Ternary { cond, then_expr, else_expr } => {
                if self.eval_expr_interp(cond, frame)? != 0 {
                    self.eval_expr_interp(then_expr, frame)
                } else {
                    self.eval_expr_interp(else_expr, frame)
                }
            }
            Expr::Call(call) => self.eval_call(call, frame),
        }
    }

    fn read_name(&mut self, name: &str, frame: &mut Frame<'_>) -> Result<i64, SimError> {
        if let Some(idx) = frame.local(name) {
            return Ok(frame.locals[idx].1);
        }
        let operation = self.model.operation(frame.op);
        if let Some(lidx) = operation.label_index(name) {
            let value =
                frame.decoded.map(|d| d.labels.get(lidx).copied().unwrap_or(0)).unwrap_or(0);
            return Ok(value as i64);
        }
        if let Some(gidx) = operation.group_index(name) {
            return self.read_group(gidx, frame);
        }
        if let Some(res) = self.model.resource_by_name(name) {
            let value = self.state.read_int(res, &[])?;
            self.count_read(res.id, 0);
            return Ok(value);
        }
        // An operation reference used as a value: its expression.
        if self.model.operation_by_name(name).is_some() {
            let target = self.model.operation_by_name(name).map(|o| o.id);
            if let Some(target) = target {
                if let Some(child) = self.op_ref_child(target, frame) {
                    return self.eval_expression_of(child);
                }
            }
        }
        Err(SimError::UnknownName { name: name.to_owned(), operation: operation.name.clone() })
    }

    fn op_ref_child<'d>(&self, target: OpId, frame: &Frame<'d>) -> Option<&'d Decoded> {
        let d = frame.decoded?;
        let coding = self.model.operation(frame.op).variants.get(d.variant)?.coding.as_ref()?;
        coding.fields.iter().zip(&d.children).find_map(|(f, c)| match (&f.target, c) {
            (CodingTarget::Op(o), Some(c)) if *o == target => Some(&**c),
            _ => None,
        })
    }

    /// Reads a group operand: the selected member's EXPRESSION value, or
    /// its sole label when it has no expression (immediate operands).
    fn read_group(&mut self, gidx: usize, frame: &mut Frame<'_>) -> Result<i64, SimError> {
        let child =
            frame.decoded.and_then(|d| d.group_child(self.model, gidx)).ok_or_else(|| {
                let operation = self.model.operation(frame.op);
                SimError::UnboundGroup {
                    group: operation.groups[gidx].name.clone(),
                    operation: operation.name.clone(),
                }
            })?;
        self.eval_expression_of(child)
    }

    /// Evaluates an operand operation's EXPRESSION section (paper §3.2.3:
    /// "The EXPRESSION section identifies an object which is accessed by
    /// the behavior part of a referencing operation").
    pub(crate) fn eval_expression_of(&mut self, child: &Decoded) -> Result<i64, SimError> {
        let operation = self.model.operation(child.op);
        let variant = &operation.variants[child.variant];
        if let Some(expr) = variant.expression.as_ref() {
            let mut child_frame = Frame::new(child.op, Some(child));
            return self.eval_expr_interp(expr, &mut child_frame);
        }
        // Immediate-like operand: a single label value.
        if operation.labels.len() == 1 {
            return Ok(child.labels[0] as i64);
        }
        Err(SimError::UnknownName {
            name: format!("<expression of {}>", operation.name),
            operation: operation.name.clone(),
        })
    }

    fn eval_call(&mut self, call: &Call, frame: &mut Frame<'_>) -> Result<i64, SimError> {
        // Pipeline intrinsics are statements; in value position they yield 0.
        if self.try_pipe_intrinsic(call)? {
            return Ok(0);
        }
        if call.path.len() == 1 {
            let name = call.path[0].name.as_str();
            if let Some(value) = self.eval_builtin(name, &call.args, frame)? {
                return Ok(value);
            }
            // Operand read through call syntax: `Src1()`.
            let operation = self.model.operation(frame.op);
            if let Some(gidx) = operation.group_index(name) {
                return self.read_group(gidx, frame);
            }
            if let Some(target) = self.model.operation_by_name(name) {
                let target = target.id;
                if let Some(child) = self.op_ref_child(target, frame) {
                    return self.eval_expression_of(child);
                }
                // Invoke for effect; an operation used as a value yields 0.
                self.invoke_op(target, frame)?;
                return Ok(0);
            }
        }
        Err(SimError::UnknownCall {
            path: call.path.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join("."),
            operation: self.model.operation(frame.op).name.clone(),
        })
    }

    /// Evaluates a builtin function; `Ok(None)` when `name` is not a
    /// builtin.
    fn eval_builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        frame: &mut Frame<'_>,
    ) -> Result<Option<i64>, SimError> {
        let arity = |expected: usize| -> Result<(), SimError> {
            if args.len() != expected {
                Err(SimError::BadArity { builtin: name.to_owned(), got: args.len(), expected })
            } else {
                Ok(())
            }
        };
        let value = match name {
            "sext" => {
                arity(2)?;
                let v = self.eval_expr_interp(&args[0], frame)?;
                let w = self.eval_expr_interp(&args[1], frame)?.clamp(1, 64) as u32;
                lisa_bits::Bits::from_i128_wrapped(w, i128::from(v)).to_i128() as i64
            }
            "zext" => {
                arity(2)?;
                let v = self.eval_expr_interp(&args[0], frame)?;
                let w = self.eval_expr_interp(&args[1], frame)?.clamp(1, 64) as u32;
                lisa_bits::Bits::from_i128_wrapped(w, i128::from(v)).to_u128() as i64
            }
            "saturate" => {
                arity(2)?;
                let v = self.eval_expr_interp(&args[0], frame)?;
                let w = self.eval_expr_interp(&args[1], frame)?.clamp(1, 64) as u32;
                saturate(v, w)
            }
            "abs" => {
                arity(1)?;
                self.eval_expr_interp(&args[0], frame)?.wrapping_abs()
            }
            "min" => {
                arity(2)?;
                let a = self.eval_expr_interp(&args[0], frame)?;
                let b = self.eval_expr_interp(&args[1], frame)?;
                a.min(b)
            }
            "max" => {
                arity(2)?;
                let a = self.eval_expr_interp(&args[0], frame)?;
                let b = self.eval_expr_interp(&args[1], frame)?;
                a.max(b)
            }
            "norm" => {
                arity(2)?;
                let v = self.eval_expr_interp(&args[0], frame)?;
                let w = self.eval_expr_interp(&args[1], frame)?.clamp(1, 64) as u32;
                i64::from(lisa_bits::Bits::from_i128_wrapped(w, i128::from(v)).norm())
            }
            "print" => {
                arity(1)?;
                let v = self.eval_expr_interp(&args[0], frame)?;
                if self.tracing() {
                    let event = crate::TraceEvent::Print {
                        cycle: self.stats.cycles,
                        op: frame.op,
                        value: v,
                    };
                    self.record(&event);
                }
                v
            }
            "nop" => {
                arity(0)?;
                0
            }
            _ => return Ok(None),
        };
        Ok(Some(value))
    }

    // -- places ----------------------------------------------------------------

    fn eval_place(&mut self, expr: &Expr, frame: &mut Frame<'_>) -> Result<Place, SimError> {
        match expr {
            Expr::Name(id) => {
                if let Some(idx) = frame.local(&id.name) {
                    return Ok(Place::Local(idx));
                }
                let operation = self.model.operation(frame.op);
                if let Some(gidx) = operation.group_index(&id.name) {
                    let child = frame
                        .decoded
                        .and_then(|d| d.group_child(self.model, gidx))
                        .ok_or_else(|| SimError::UnboundGroup {
                            group: operation.groups[gidx].name.clone(),
                            operation: operation.name.clone(),
                        })?;
                    return self.place_of_expression(child);
                }
                if let Some(res) = self.model.resource_by_name(&id.name) {
                    let flat = flatten_indices(res, &[])?;
                    return Ok(Place::Resource { res: res.id, flat });
                }
                if let Some(target) = self.model.operation_by_name(&id.name) {
                    let target = target.id;
                    if let Some(child) = self.op_ref_child(target, frame) {
                        return self.place_of_expression(child);
                    }
                }
                Err(SimError::UnknownName {
                    name: id.name.clone(),
                    operation: operation.name.clone(),
                })
            }
            Expr::Index { .. } => {
                let (res, indices) = self.indexed_resource(expr, frame)?;
                let flat = flatten_indices(res, &indices)?;
                Ok(Place::Resource { res: res.id, flat })
            }
            _ => Err(SimError::NotAnLvalue {
                operation: self.model.operation(frame.op).name.clone(),
            }),
        }
    }

    /// Resolves `mem[i][j]` chains to a resource and index list.
    fn indexed_resource(
        &mut self,
        expr: &Expr,
        frame: &mut Frame<'_>,
    ) -> Result<(&'m Resource, Vec<i64>), SimError> {
        let mut indices_rev = Vec::new();
        let mut cur = expr;
        loop {
            match cur {
                Expr::Index { base, index } => {
                    let idx = self.eval_expr_interp(index, frame)?;
                    indices_rev.push(idx);
                    cur = base;
                }
                Expr::Name(id) => {
                    let res = self.model.resource_by_name(&id.name).ok_or_else(|| {
                        SimError::UnknownName {
                            name: id.name.clone(),
                            operation: self.model.operation(frame.op).name.clone(),
                        }
                    })?;
                    indices_rev.reverse();
                    return Ok((res, indices_rev));
                }
                _ => {
                    return Err(SimError::NotAnLvalue {
                        operation: self.model.operation(frame.op).name.clone(),
                    });
                }
            }
        }
    }

    /// The place an operand operation's EXPRESSION refers to (for writes
    /// through group operands: `Dest = …`).
    fn place_of_expression(&mut self, child: &Decoded) -> Result<Place, SimError> {
        let operation = self.model.operation(child.op);
        let expr = operation.variants[child.variant]
            .expression
            .as_ref()
            .ok_or_else(|| SimError::NotAnLvalue { operation: operation.name.clone() })?;
        let mut child_frame = Frame::new(child.op, Some(child));
        self.eval_place(expr, &mut child_frame)
    }

    fn read_place(&mut self, place: Place, frame: &Frame<'_>) -> Result<i64, SimError> {
        match place {
            Place::Local(idx) => Ok(frame.locals[idx].1),
            Place::Resource { res, flat } => {
                let value =
                    self.state.read_flat(res, flat).ok_or_else(|| SimError::IndexOutOfBounds {
                        resource: self.model.resource(res).name.clone(),
                        index: flat as i64,
                        dim: 0,
                    })?;
                self.count_read(res, flat);
                Ok(value)
            }
        }
    }

    fn write_place(
        &mut self,
        place: Place,
        value: i64,
        frame: &mut Frame<'_>,
    ) -> Result<(), SimError> {
        match place {
            Place::Local(idx) => {
                frame.locals[idx].1 = value;
                Ok(())
            }
            Place::Resource { res, flat } => {
                if self.observing() {
                    self.emit_write(res, flat, value);
                }
                if self.state.write_flat(res, flat, value) {
                    Ok(())
                } else {
                    Err(SimError::IndexOutOfBounds {
                        resource: self.model.resource(res).name.clone(),
                        index: flat as i64,
                        dim: 0,
                    })
                }
            }
        }
    }
}

/// C arithmetic over i64 with explicit division-by-zero signalling.
#[inline]
pub(crate) fn apply_binop(op: BinOp, l: i64, r: i64) -> Result<i64, ()> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(());
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return Err(());
            }
            l.wrapping_rem(r)
        }
        BinOp::Shl => l.wrapping_shl((r & 63) as u32),
        BinOp::Shr => l.wrapping_shr((r & 63) as u32),
        BinOp::Lt => i64::from(l < r),
        BinOp::Le => i64::from(l <= r),
        BinOp::Gt => i64::from(l > r),
        BinOp::Ge => i64::from(l >= r),
        BinOp::Eq => i64::from(l == r),
        BinOp::Ne => i64::from(l != r),
        BinOp::BitAnd => l & r,
        BinOp::BitOr => l | r,
        BinOp::BitXor => l ^ r,
        BinOp::LogAnd => i64::from(l != 0 && r != 0),
        BinOp::LogOr => i64::from(l != 0 || r != 0),
    })
}

pub(crate) fn apply_compound(op: AssignOp, old: i64, rhs: i64) -> Result<i64, ()> {
    match compound_binop(op) {
        Some(bin) => apply_binop(bin, old, rhs),
        None => Ok(rhs),
    }
}

/// The operator a compound assignment applies; `None` for plain `=`.
pub(crate) fn compound_binop(op: AssignOp) -> Option<BinOp> {
    Some(match op {
        AssignOp::Set => return None,
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
        AssignOp::Shl => BinOp::Shl,
        AssignOp::Shr => BinOp::Shr,
        AssignOp::And => BinOp::BitAnd,
        AssignOp::Or => BinOp::BitOr,
        AssignOp::Xor => BinOp::BitXor,
    })
}

/// Clamps to the signed `width`-bit range (DSP saturation builtin).
pub(crate) fn saturate(v: i64, width: u32) -> i64 {
    if width >= 64 {
        return v;
    }
    let max = (1i64 << (width - 1)) - 1;
    v.clamp(-max - 1, max)
}
