//! Construction of the model database from a parsed description.

use std::collections::{HashMap, HashSet};

use lisa_bits::BitPattern;

use crate::ast::*;

use super::coding::{Coding, CodingField, CodingTarget};
use super::{
    Group, Model, ModelError, ModelWarning, OpId, Operation, Pipeline, PipelineId, Resource,
    ResourceId, SynElem, ToolTables, Variant, MAX_STATE_CELLS,
};

impl Model {
    /// Analyses a parsed description into the model database.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] for duplicate names, unresolved
    /// references, recursive or width-inconsistent codings, and malformed
    /// conditional structuring. Non-fatal findings are collected as
    /// [`ModelWarning`]s on the returned model.
    pub fn build(desc: &Description) -> Result<Model, ModelError> {
        Builder::new(desc)?.run(desc)
    }

    /// Parses LISA source and builds the model database in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::LisaError`] wrapping either the parse error or
    /// the model error.
    pub fn from_source(source: &str) -> Result<Model, crate::LisaError> {
        let desc = crate::parser::parse(source)?;
        let mut model = Model::build(&desc)?;
        model.source_lines = source.lines().filter(|l| !l.trim().is_empty()).count();
        Ok(model)
    }
}

/// Sections accumulated for one variant during conditional expansion.
#[derive(Debug, Clone, Default)]
struct SectionSet {
    guard: Vec<(usize, OpId)>,
    coding: Option<CodingSection>,
    syntax: Option<SyntaxSection>,
    behavior: Option<Block>,
    expression: Option<Expr>,
    activation: Option<Vec<ActNode>>,
    semantics: Option<String>,
}

struct Builder {
    resources: Vec<Resource>,
    pipelines: Vec<Pipeline>,
    resource_names: HashMap<String, ResourceId>,
    pipeline_names: HashMap<String, PipelineId>,
    op_names: HashMap<String, OpId>,
    warnings: Vec<ModelWarning>,
}

impl Builder {
    fn new(desc: &Description) -> Result<Self, ModelError> {
        let mut b = Builder {
            resources: Vec::new(),
            pipelines: Vec::new(),
            resource_names: HashMap::new(),
            pipeline_names: HashMap::new(),
            op_names: HashMap::new(),
            warnings: Vec::new(),
        };
        let mut cells = 0u64;
        for decl in &desc.resources {
            let id = ResourceId(b.resources.len());
            if b.resource_names.insert(decl.name.name.clone(), id).is_some() {
                return Err(ModelError::DuplicateResource {
                    name: decl.name.name.clone(),
                    span: decl.name.span,
                });
            }
            let width = decl.ty.width();
            if !(1..=64).contains(&width) {
                return Err(ModelError::ResourceTooWide {
                    resource: decl.name.name.clone(),
                    width,
                    span: decl.name.span,
                });
            }
            // The simulator keeps one cell even for an empty resource.
            cells = decl
                .dims
                .iter()
                .try_fold(1u64, |n, d| n.checked_mul(d.len()))
                .and_then(|n| cells.checked_add(n.max(1)))
                .filter(|&n| n <= MAX_STATE_CELLS)
                .ok_or_else(|| ModelError::TooManyCells {
                    resource: decl.name.name.clone(),
                    span: decl.name.span,
                })?;
            b.resources.push(Resource {
                id,
                name: decl.name.name.clone(),
                class: decl.class,
                ty: decl.ty,
                dims: decl.dims.clone(),
            });
        }
        for decl in &desc.pipelines {
            let id = PipelineId(b.pipelines.len());
            if b.pipeline_names.insert(decl.name.name.clone(), id).is_some()
                || b.resource_names.contains_key(&decl.name.name)
            {
                return Err(ModelError::DuplicatePipeline {
                    name: decl.name.name.clone(),
                    span: decl.name.span,
                });
            }
            let mut seen = HashSet::new();
            for stage in &decl.stages {
                if !seen.insert(stage.name.clone()) {
                    return Err(ModelError::DuplicateStage {
                        stage: stage.name.clone(),
                        pipeline: decl.name.name.clone(),
                    });
                }
            }
            b.pipelines.push(Pipeline {
                id,
                name: decl.name.name.clone(),
                stages: decl.stages.iter().map(|s| s.name.clone()).collect(),
            });
        }
        for op in &desc.operations {
            let id = OpId(b.op_names.len());
            if b.op_names.insert(op.name.name.clone(), id).is_some() {
                return Err(ModelError::DuplicateOperation {
                    name: op.name.name.clone(),
                    span: op.name.span,
                });
            }
        }
        Ok(b)
    }

    fn run(mut self, desc: &Description) -> Result<Model, ModelError> {
        let mut operations = Vec::with_capacity(desc.operations.len());
        let mut raw_codings: Vec<Vec<Option<CodingSection>>> =
            Vec::with_capacity(desc.operations.len());
        for (index, decl) in desc.operations.iter().enumerate() {
            let (op, codings) = self.build_operation(OpId(index), decl)?;
            operations.push(op);
            raw_codings.push(codings);
        }

        resolve_codings(&mut operations, &self.resources, &self.resource_names, &raw_codings)?;
        self.warn_overlaps(&operations);
        self.warn_unreachable(&operations, desc);

        let decode_roots: Vec<OpId> =
            operations.iter().filter(|o| o.decode_root.is_some()).map(|o| o.id).collect();
        let main_op = self.op_names.get("main").copied();
        let tools = ToolTables::generate(&operations);

        Ok(Model {
            resources: self.resources,
            pipelines: self.pipelines,
            operations,
            resource_names: self.resource_names,
            op_names: self.op_names,
            decode_roots,
            main_op,
            warnings: self.warnings,
            tools,
            source_lines: 0,
            sim_image: super::SimImageSlot::default(),
        })
    }

    fn build_operation(
        &mut self,
        id: OpId,
        decl: &OperationDecl,
    ) -> Result<(Operation, Vec<Option<CodingSection>>), ModelError> {
        // Gather DECLARE sections (anywhere in the body, including inside
        // conditional structuring — declarations are operation-global).
        let mut groups = Vec::new();
        let mut labels = Vec::new();
        let mut references = Vec::new();
        collect_declares(&decl.items, &mut |section: &DeclareSection| {
            for g in &section.groups {
                for name in &g.names {
                    groups.push((name.clone(), g.members.clone()));
                }
            }
            for l in &section.labels {
                labels.push(l.name.clone());
            }
            for r in &section.references {
                references.push(r.clone());
            }
        });

        let resolved_groups = groups
            .into_iter()
            .map(|(name, members)| {
                if members.is_empty() {
                    return Err(ModelError::EmptyGroup {
                        group: name.name.clone(),
                        operation: decl.name.name.clone(),
                    });
                }
                let members = members
                    .iter()
                    .map(|m| self.lookup_op(m, "group member"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Group { name: name.name, members })
            })
            .collect::<Result<Vec<Group>, ModelError>>()?;

        let references = references
            .iter()
            .map(|r| self.lookup_op(r, "referenced operation"))
            .collect::<Result<Vec<_>, _>>()?;

        let stage = match &decl.stage {
            None => None,
            Some(sr) => {
                let pid = self.pipeline_names.get(&sr.pipeline.name).copied().ok_or_else(|| {
                    ModelError::UnknownStage {
                        pipeline: sr.pipeline.name.clone(),
                        stage: sr.stage.name.clone(),
                        span: sr.pipeline.span,
                    }
                })?;
                let sidx = self.pipelines[pid.0].stage_index(&sr.stage.name).ok_or_else(|| {
                    ModelError::UnknownStage {
                        pipeline: sr.pipeline.name.clone(),
                        stage: sr.stage.name.clone(),
                        span: sr.stage.span,
                    }
                })?;
                Some((pid, sidx))
            }
        };

        // Expand conditional structuring into variants.
        let ctx =
            OpCtx { name: &decl.name.name, groups: &resolved_groups, op_names: &self.op_names };
        let mut sets = vec![SectionSet::default()];
        expand_items(&decl.items, &mut sets, &ctx)?;
        // Most-specific guard first so the first matching guard is the
        // right specialisation and `Operation::default_variant` picks an
        // unguarded one.
        sets.sort_by_key(|s| std::cmp::Reverse(s.guard.len()));

        let mut variants = Vec::with_capacity(sets.len());
        let mut codings = Vec::with_capacity(sets.len());
        for set in sets {
            let syntax = match set.syntax {
                None => None,
                Some(sec) => Some(resolve_syntax(&sec, &ctx, &labels)?),
            };
            codings.push(set.coding);
            variants.push(Variant {
                guard: set.guard,
                coding: None, // resolved once all operations are registered
                syntax,
                behavior: set.behavior,
                expression: set.expression,
                activation: set.activation,
                semantics: set.semantics,
            });
        }

        let mut customs = Vec::new();
        collect_customs(&decl.items, &mut customs);

        let op = Operation {
            id,
            name: decl.name.name.clone(),
            alias: decl.alias,
            stage,
            groups: resolved_groups,
            labels,
            references,
            variants,
            decode_root: None,
            customs,
        };
        Ok((op, codings))
    }

    fn lookup_op(&self, ident: &Ident, expected: &'static str) -> Result<OpId, ModelError> {
        self.op_names.get(&ident.name).copied().ok_or_else(|| ModelError::UnknownName {
            name: ident.name.clone(),
            expected,
            span: ident.span,
        })
    }

    fn warn_overlaps(&mut self, operations: &[Operation]) {
        for op in operations {
            for group in &op.groups {
                for (i, &a) in group.members.iter().enumerate() {
                    for &b in &group.members[i + 1..] {
                        let (oa, ob) = (&operations[a.0], &operations[b.0]);
                        if oa.alias || ob.alias {
                            continue;
                        }
                        let (Some(ca), Some(cb)) = (
                            oa.variants.iter().find_map(|v| v.coding.as_ref()),
                            ob.variants.iter().find_map(|v| v.coding.as_ref()),
                        ) else {
                            continue;
                        };
                        if ca.flat_pattern().overlaps(cb.flat_pattern()) {
                            self.warnings.push(ModelWarning::OverlappingCoding {
                                group: group.name.clone(),
                                operation: op.name.clone(),
                                first: oa.name.clone(),
                                second: ob.name.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    fn warn_unreachable(&mut self, operations: &[Operation], desc: &Description) {
        let mut reachable: HashSet<OpId> = HashSet::new();
        for op in operations {
            for g in &op.groups {
                reachable.extend(g.members.iter().copied());
            }
            reachable.extend(op.references.iter().copied());
        }
        // Names mentioned in activations and behaviors also count.
        let mut mentioned: HashSet<&str> = HashSet::new();
        for decl in &desc.operations {
            collect_mentions(&decl.items, &mut mentioned);
        }
        for op in operations {
            let is_root = op.decode_root.is_some();
            let is_main = op.name == "main" || op.name == "reset";
            if !is_root
                && !is_main
                && !reachable.contains(&op.id)
                && !mentioned.contains(op.name.as_str())
            {
                self.warnings
                    .push(ModelWarning::UnreachableOperation { operation: op.name.clone() });
            }
        }
    }
}

/// Minimal context needed while resolving one operation's sections.
struct OpCtx<'a> {
    name: &'a str,
    groups: &'a [Group],
    op_names: &'a HashMap<String, OpId>,
}

impl OpCtx<'_> {
    fn group_index(&self, name: &str) -> Option<usize> {
        self.groups.iter().position(|g| g.name == name)
    }
}

fn collect_customs(items: &[OpItem], out: &mut Vec<(String, String)>) {
    for item in items {
        match item {
            OpItem::Custom(name, raw) => out.push((name.name.clone(), raw.text.clone())),
            OpItem::Switch(sw) => {
                for case in &sw.cases {
                    collect_customs(&case.items, out);
                }
                if let Some(d) = &sw.default {
                    collect_customs(d, out);
                }
            }
            OpItem::If(i) => {
                collect_customs(&i.then_items, out);
                collect_customs(&i.else_items, out);
            }
            _ => {}
        }
    }
}

fn collect_declares(items: &[OpItem], f: &mut impl FnMut(&DeclareSection)) {
    for item in items {
        match item {
            OpItem::Declare(d) => f(d),
            OpItem::Switch(sw) => {
                for case in &sw.cases {
                    collect_declares(&case.items, f);
                }
                if let Some(d) = &sw.default {
                    collect_declares(d, f);
                }
            }
            OpItem::If(i) => {
                collect_declares(&i.then_items, f);
                collect_declares(&i.else_items, f);
            }
            _ => {}
        }
    }
}

fn collect_mentions<'a>(items: &'a [OpItem], out: &mut HashSet<&'a str>) {
    fn walk_act<'a>(nodes: &'a [ActNode], out: &mut HashSet<&'a str>) {
        for node in nodes {
            match node {
                ActNode::Activate { name, .. } => {
                    out.insert(name.name.as_str());
                }
                ActNode::Call { .. } => {}
                ActNode::If { then_items, else_items, .. } => {
                    walk_act(then_items, out);
                    walk_act(else_items, out);
                }
                ActNode::Switch { cases, default, .. } => {
                    for (_, body) in cases {
                        walk_act(body, out);
                    }
                    walk_act(default, out);
                }
            }
        }
    }
    fn walk_expr<'a>(e: &'a Expr, out: &mut HashSet<&'a str>) {
        match e {
            Expr::Int(..) => {}
            Expr::Name(id) => {
                out.insert(id.name.as_str());
            }
            Expr::Index { base, index } => {
                walk_expr(base, out);
                walk_expr(index, out);
            }
            Expr::Unary { expr, .. } => walk_expr(expr, out),
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            Expr::Ternary { cond, then_expr, else_expr } => {
                walk_expr(cond, out);
                walk_expr(then_expr, out);
                walk_expr(else_expr, out);
            }
            Expr::Call(c) => {
                if let Some(first) = c.path.first() {
                    out.insert(first.name.as_str());
                }
                for a in &c.args {
                    walk_expr(a, out);
                }
            }
        }
    }
    fn walk_block<'a>(b: &'a Block, out: &mut HashSet<&'a str>) {
        for stmt in &b.stmts {
            walk_stmt(stmt, out);
        }
    }
    fn walk_stmt<'a>(s: &'a Stmt, out: &mut HashSet<&'a str>) {
        match s {
            Stmt::Local { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, out);
                }
            }
            Stmt::Assign { target, value, .. } => {
                walk_expr(target, out);
                walk_expr(value, out);
            }
            Stmt::IncDec { target, .. } => walk_expr(target, out),
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::If { cond, then_block, else_block } => {
                walk_expr(cond, out);
                walk_block(then_block, out);
                walk_block(else_block, out);
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                walk_expr(cond, out);
                walk_block(body, out);
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(s) = init {
                    walk_stmt(s, out);
                }
                if let Some(e) = cond {
                    walk_expr(e, out);
                }
                if let Some(s) = step {
                    walk_stmt(s, out);
                }
                walk_block(body, out);
            }
            Stmt::Switch { scrutinee, cases, default } => {
                walk_expr(scrutinee, out);
                for (_, b) in cases {
                    walk_block(b, out);
                }
                if let Some(b) = default {
                    walk_block(b, out);
                }
            }
            Stmt::Break | Stmt::Continue => {}
            Stmt::Block(b) => walk_block(b, out),
        }
    }
    for item in items {
        match item {
            OpItem::Behavior(b) => walk_block(b, out),
            OpItem::Activation(a) => walk_act(&a.items, out),
            OpItem::Expression(e) => walk_expr(e, out),
            OpItem::Switch(sw) => {
                for case in &sw.cases {
                    collect_mentions(&case.items, out);
                }
                if let Some(d) = &sw.default {
                    collect_mentions(d, out);
                }
            }
            OpItem::If(i) => {
                collect_mentions(&i.then_items, out);
                collect_mentions(&i.else_items, out);
            }
            _ => {}
        }
    }
}

/// Expands conditional structuring, forking the accumulated section sets
/// at each `SWITCH`/`IF`.
fn expand_items(
    items: &[OpItem],
    sets: &mut Vec<SectionSet>,
    ctx: &OpCtx<'_>,
) -> Result<(), ModelError> {
    for item in items {
        match item {
            OpItem::Declare(_) => {} // handled globally
            OpItem::Coding(sec) => {
                assign_section(sets, ctx.name, "CODING", |s| &mut s.coding, sec.clone())?;
            }
            OpItem::Syntax(sec) => {
                assign_section(sets, ctx.name, "SYNTAX", |s| &mut s.syntax, sec.clone())?;
            }
            OpItem::Behavior(b) => {
                assign_section(sets, ctx.name, "BEHAVIOR", |s| &mut s.behavior, b.clone())?;
            }
            OpItem::Expression(e) => {
                assign_section(sets, ctx.name, "EXPRESSION", |s| &mut s.expression, e.clone())?;
            }
            OpItem::Activation(a) => {
                assign_section(
                    sets,
                    ctx.name,
                    "ACTIVATION",
                    |s| &mut s.activation,
                    a.items.clone(),
                )?;
            }
            OpItem::Semantics(raw) => {
                assign_section(
                    sets,
                    ctx.name,
                    "SEMANTICS",
                    |s| &mut s.semantics,
                    raw.text.clone(),
                )?;
            }
            OpItem::Custom(..) => {} // user sections carry no model info
            OpItem::Switch(sw) => {
                let gidx = ctx.group_index(&sw.group.name).ok_or_else(|| {
                    ModelError::SwitchOnUnknownGroup {
                        group: sw.group.name.clone(),
                        operation: ctx.name.to_owned(),
                        span: sw.group.span,
                    }
                })?;
                let group = &ctx.groups[gidx];
                let mut new_sets = Vec::new();
                let mut covered: HashSet<OpId> = HashSet::new();
                for case in &sw.cases {
                    for member in &case.members {
                        let mid = resolve_member(member, group, ctx)?;
                        covered.insert(mid);
                        let mut forked = sets.clone();
                        for set in &mut forked {
                            set.guard.push((gidx, mid));
                        }
                        expand_items(&case.items, &mut forked, ctx)?;
                        new_sets.extend(forked);
                    }
                }
                // Members not covered by a CASE take the DEFAULT arm (or
                // just the base sections when there is no default).
                let uncovered: Vec<OpId> =
                    group.members.iter().copied().filter(|m| !covered.contains(m)).collect();
                for mid in uncovered {
                    let mut forked = sets.clone();
                    for set in &mut forked {
                        set.guard.push((gidx, mid));
                    }
                    if let Some(default_items) = &sw.default {
                        expand_items(default_items, &mut forked, ctx)?;
                    }
                    new_sets.extend(forked);
                }
                *sets = new_sets;
            }
            OpItem::If(ifitem) => {
                let gidx = ctx.group_index(&ifitem.group.name).ok_or_else(|| {
                    ModelError::SwitchOnUnknownGroup {
                        group: ifitem.group.name.clone(),
                        operation: ctx.name.to_owned(),
                        span: ifitem.group.span,
                    }
                })?;
                let group = &ctx.groups[gidx];
                let mid = resolve_member(&ifitem.member, group, ctx)?;
                let mut then_sets = sets.clone();
                for set in &mut then_sets {
                    set.guard.push((gidx, mid));
                }
                expand_items(&ifitem.then_items, &mut then_sets, ctx)?;

                let others: Vec<OpId> =
                    group.members.iter().copied().filter(|m| *m != mid).collect();
                let mut else_sets = Vec::new();
                for other in others {
                    let mut forked = sets.clone();
                    for set in &mut forked {
                        set.guard.push((gidx, other));
                    }
                    expand_items(&ifitem.else_items, &mut forked, ctx)?;
                    else_sets.extend(forked);
                }
                *sets = then_sets;
                sets.extend(else_sets);
            }
        }
    }
    Ok(())
}

fn resolve_member(member: &Ident, group: &Group, ctx: &OpCtx<'_>) -> Result<OpId, ModelError> {
    let mid = ctx.op_names.get(&member.name).copied().ok_or_else(|| ModelError::UnknownName {
        name: member.name.clone(),
        expected: "operation",
        span: member.span,
    })?;
    if !group.members.contains(&mid) {
        return Err(ModelError::CaseNotInGroup {
            member: member.name.clone(),
            group: group.name.clone(),
            span: member.span,
        });
    }
    Ok(mid)
}

fn assign_section<T: Clone>(
    sets: &mut [SectionSet],
    op: &str,
    section: &'static str,
    field: impl Fn(&mut SectionSet) -> &mut Option<T>,
    value: T,
) -> Result<(), ModelError> {
    for set in sets {
        let slot = field(set);
        if slot.is_some() {
            return Err(ModelError::DuplicateSection { section, operation: op.to_owned() });
        }
        *slot = Some(value.clone());
    }
    Ok(())
}

fn resolve_syntax(
    sec: &SyntaxSection,
    ctx: &OpCtx<'_>,
    labels: &[String],
) -> Result<Vec<SynElem>, ModelError> {
    sec.elements
        .iter()
        .map(|elem| match elem {
            SyntaxElement::Literal(text, _) => Ok(SynElem::Literal(text.clone())),
            SyntaxElement::Ref(name) => {
                if let Some(g) = ctx.group_index(&name.name) {
                    Ok(SynElem::Group { group: g, format: None })
                } else if let Some(op) = ctx.op_names.get(&name.name) {
                    Ok(SynElem::Op { op: *op, format: None })
                } else if let Some(l) = labels.iter().position(|l| *l == name.name) {
                    // Bare label reference renders unsigned.
                    Ok(SynElem::Label { label: l, format: NumFormat::Unsigned })
                } else {
                    Err(ModelError::UnknownName {
                        name: name.name.clone(),
                        expected: "syntax operand",
                        span: name.span,
                    })
                }
            }
            SyntaxElement::Num { name, format } => {
                if let Some(l) = labels.iter().position(|l| *l == name.name) {
                    Ok(SynElem::Label { label: l, format: *format })
                } else if let Some(g) = ctx.group_index(&name.name) {
                    Ok(SynElem::Group { group: g, format: Some(*format) })
                } else if let Some(op) = ctx.op_names.get(&name.name) {
                    Ok(SynElem::Op { op: *op, format: Some(*format) })
                } else {
                    Err(ModelError::UnknownName {
                        name: name.name.clone(),
                        expected: "label or operand",
                        span: name.span,
                    })
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Coding resolution
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Visit {
    Unvisited,
    InProgress,
    Done,
}

/// Resolves every operation's coding: widths (with recursion detection),
/// field offsets, flattened patterns and decode roots.
fn resolve_codings(
    operations: &mut [Operation],
    resources: &[Resource],
    resource_names: &HashMap<String, ResourceId>,
    raw: &[Vec<Option<CodingSection>>],
) -> Result<(), ModelError> {
    // Pass 1: coding widths via DFS with cycle detection.
    let mut widths: Vec<Option<u32>> = vec![None; operations.len()];
    let mut state = vec![Visit::Unvisited; operations.len()];
    for idx in 0..operations.len() {
        compute_width(idx, operations, raw, &mut widths, &mut state)?;
    }

    // Pass 2: flattened patterns (widths now known, graph acyclic).
    let mut flats: Vec<Option<BitPattern>> = vec![None; operations.len()];
    for idx in 0..operations.len() {
        compute_flat(idx, operations, raw, &widths, &mut flats)?;
    }

    // Pass 3: positioned Coding values and decode roots.
    for idx in 0..operations.len() {
        let op_name = operations[idx].name.clone();
        for (vidx, section) in raw[idx].iter().enumerate() {
            let Some(section) = section else { continue };
            let root = match &section.root {
                None => None,
                Some(res) => {
                    let id = *resource_names.get(&res.name).ok_or_else(|| {
                        ModelError::UnknownRootResource {
                            resource: res.name.clone(),
                            operation: op_name.clone(),
                            span: res.span,
                        }
                    })?;
                    if resources[id.0].is_array() {
                        return Err(ModelError::NonScalarRoot {
                            resource: res.name.clone(),
                            operation: op_name.clone(),
                            span: res.span,
                        });
                    }
                    Some(id)
                }
            };
            let (fields, width, flat) =
                layout_fields(&operations[idx], section, operations, &widths, &flats)?;
            let coding = Coding::new(root, fields, width, flat);
            if root.is_some() {
                operations[idx].decode_root = root;
            }
            operations[idx].variants[vidx].coding = Some(coding);
        }
        // Variant width consistency (compute_width also checks, but that
        // only sees variants with codings; re-verify the built ones).
        let ws: Vec<u32> = operations[idx]
            .variants
            .iter()
            .filter_map(|v| v.coding.as_ref().map(Coding::width))
            .collect();
        if ws.windows(2).any(|w| w[0] != w[1]) {
            return Err(ModelError::VariantWidthMismatch { operation: op_name, widths: ws });
        }
    }
    Ok(())
}

fn compute_width(
    idx: usize,
    operations: &[Operation],
    raw: &[Vec<Option<CodingSection>>],
    widths: &mut Vec<Option<u32>>,
    state: &mut Vec<Visit>,
) -> Result<(), ModelError> {
    match state[idx] {
        Visit::Done => return Ok(()),
        Visit::InProgress => {
            return Err(ModelError::CodingCycle { operation: operations[idx].name.clone() });
        }
        Visit::Unvisited => {}
    }
    state[idx] = Visit::InProgress;
    let op = &operations[idx];
    let mut result: Option<u32> = None;
    for section in raw[idx].iter().flatten() {
        let mut total: u32 = 0;
        for elem in &section.elements {
            let w = match elem {
                CodingElement::Pattern(p, _) => p.width(),
                CodingElement::LabelField { pattern, .. } => pattern.width(),
                CodingElement::Ref(name) => {
                    if let Some(gidx) = op.group_index(&name.name) {
                        group_width(idx, gidx, operations, raw, widths, state)?
                    } else {
                        let target = find_op_by_name(operations, &name.name).ok_or_else(|| {
                            ModelError::UnknownName {
                                name: name.name.clone(),
                                expected: "operation or group in coding",
                                span: name.span,
                            }
                        })?;
                        compute_width(target.0, operations, raw, widths, state)?;
                        widths[target.0].ok_or_else(|| ModelError::MissingCoding {
                            operation: name.name.clone(),
                            referenced_from: op.name.clone(),
                        })?
                    }
                }
            };
            total = total.saturating_add(w);
        }
        if total > lisa_bits::MAX_WIDTH {
            return Err(ModelError::CodingTooWide { operation: op.name.clone(), width: total });
        }
        match result {
            None => result = Some(total),
            Some(prev) if prev != total => {
                return Err(ModelError::VariantWidthMismatch {
                    operation: op.name.clone(),
                    widths: vec![prev, total],
                });
            }
            Some(_) => {}
        }
    }
    widths[idx] = result;
    state[idx] = Visit::Done;
    Ok(())
}

fn group_width(
    op_idx: usize,
    gidx: usize,
    operations: &[Operation],
    raw: &[Vec<Option<CodingSection>>],
    widths: &mut Vec<Option<u32>>,
    state: &mut Vec<Visit>,
) -> Result<u32, ModelError> {
    let op = &operations[op_idx];
    let group = &op.groups[gidx];
    let mut seen: Vec<u32> = Vec::new();
    for member in &group.members {
        compute_width(member.0, operations, raw, widths, state)?;
        let w = widths[member.0].ok_or_else(|| ModelError::MissingCoding {
            operation: operations[member.0].name.clone(),
            referenced_from: op.name.clone(),
        })?;
        if !seen.contains(&w) {
            seen.push(w);
        }
    }
    if seen.len() != 1 {
        return Err(ModelError::GroupWidthMismatch {
            group: group.name.clone(),
            operation: op.name.clone(),
            widths: seen,
        });
    }
    Ok(seen[0])
}

fn find_op_by_name(operations: &[Operation], name: &str) -> Option<OpId> {
    operations.iter().find(|o| o.name == name).map(|o| o.id)
}

fn compute_flat(
    idx: usize,
    operations: &[Operation],
    raw: &[Vec<Option<CodingSection>>],
    widths: &[Option<u32>],
    flats: &mut Vec<Option<BitPattern>>,
) -> Result<(), ModelError> {
    if flats[idx].is_some() || widths[idx].is_none() {
        return Ok(());
    }
    let op = &operations[idx];
    let mut variant_flats: Vec<BitPattern> = Vec::new();
    for section in raw[idx].iter().flatten() {
        let mut flat: Option<BitPattern> = None;
        for elem in &section.elements {
            let piece = match elem {
                CodingElement::Pattern(p, _) => p.clone(),
                CodingElement::LabelField { pattern, .. } => pattern.clone(),
                CodingElement::Ref(name) => {
                    if let Some(gidx) = op.group_index(&name.name) {
                        let group = &op.groups[gidx];
                        let mut merged: Option<BitPattern> = None;
                        for member in &group.members {
                            compute_flat(member.0, operations, raw, widths, flats)?;
                            let mflat = flats[member.0].clone().ok_or_else(|| {
                                ModelError::MissingCoding {
                                    operation: operations[member.0].name.clone(),
                                    referenced_from: op.name.clone(),
                                }
                            })?;
                            merged = Some(match merged {
                                None => mflat,
                                Some(prev) => intersect_fixed(&prev, &mflat),
                            });
                        }
                        merged.expect("groups are non-empty")
                    } else {
                        let target = find_op_by_name(operations, &name.name).expect("validated");
                        compute_flat(target.0, operations, raw, widths, flats)?;
                        flats[target.0].clone().ok_or_else(|| ModelError::MissingCoding {
                            operation: name.name.clone(),
                            referenced_from: op.name.clone(),
                        })?
                    }
                }
            };
            flat = Some(match flat {
                None => piece,
                Some(prev) => prev.concat(&piece).map_err(|_| ModelError::CodingTooWide {
                    operation: op.name.clone(),
                    width: u32::MAX,
                })?,
            });
        }
        if let Some(flat) = flat {
            variant_flats.push(flat);
        }
    }
    flats[idx] = match variant_flats.len() {
        0 => None,
        _ => {
            let mut merged = variant_flats[0].clone();
            for other in &variant_flats[1..] {
                merged = intersect_fixed(&merged, other);
            }
            Some(merged)
        }
    };
    Ok(())
}

/// A pattern whose fixed bits are exactly those fixed *and equal* in both
/// inputs (the sound merge for alternatives).
fn intersect_fixed(a: &BitPattern, b: &BitPattern) -> BitPattern {
    debug_assert_eq!(a.width(), b.width());
    let both = a.fixed_mask() & b.fixed_mask() & !(a.fixed_value() ^ b.fixed_value());
    pattern_from_mask_value(a.width(), both, a.fixed_value() & both)
}

fn pattern_from_mask_value(width: u32, mask: u128, value: u128) -> BitPattern {
    use lisa_bits::Tern;
    let terns: Vec<Tern> = (0..width)
        .rev()
        .map(|i| {
            if mask >> i & 1 == 0 {
                Tern::DontCare
            } else if value >> i & 1 == 1 {
                Tern::One
            } else {
                Tern::Zero
            }
        })
        .collect();
    BitPattern::from_terns(&terns).expect("width validated")
}

fn layout_fields(
    op: &Operation,
    section: &CodingSection,
    operations: &[Operation],
    widths: &[Option<u32>],
    flats: &[Option<BitPattern>],
) -> Result<(Vec<CodingField>, u32, BitPattern), ModelError> {
    // First collect (target, width, flat piece), then assign offsets from
    // the right.
    let mut entries: Vec<(CodingTarget, u32, BitPattern)> = Vec::new();
    for elem in &section.elements {
        match elem {
            CodingElement::Pattern(p, _) => {
                entries.push((CodingTarget::Pattern(p.clone()), p.width(), p.clone()));
            }
            CodingElement::LabelField { label, pattern } => {
                let lidx = op.label_index(&label.name).ok_or_else(|| ModelError::UnknownLabel {
                    label: label.name.clone(),
                    operation: op.name.clone(),
                    span: label.span,
                })?;
                entries.push((
                    CodingTarget::Label { label: lidx, pattern: pattern.clone() },
                    pattern.width(),
                    pattern.clone(),
                ));
            }
            CodingElement::Ref(name) => {
                if let Some(gidx) = op.group_index(&name.name) {
                    let group = &op.groups[gidx];
                    let w = widths[group.members[0].0].expect("validated");
                    let mut merged = flats[group.members[0].0].clone().expect("validated");
                    for member in &group.members[1..] {
                        merged =
                            intersect_fixed(&merged, flats[member.0].as_ref().expect("validated"));
                    }
                    entries.push((CodingTarget::Group(gidx), w, merged));
                } else {
                    let target = find_op_by_name(operations, &name.name).ok_or_else(|| {
                        ModelError::UnknownName {
                            name: name.name.clone(),
                            expected: "operation or group in coding",
                            span: name.span,
                        }
                    })?;
                    let w = widths[target.0].ok_or_else(|| ModelError::MissingCoding {
                        operation: name.name.clone(),
                        referenced_from: op.name.clone(),
                    })?;
                    let flat = flats[target.0].clone().expect("validated");
                    entries.push((CodingTarget::Op(target), w, flat));
                }
            }
        }
    }
    let total: u32 = entries.iter().map(|(_, w, _)| *w).sum();
    if total == 0 || total > lisa_bits::MAX_WIDTH {
        return Err(ModelError::CodingTooWide { operation: op.name.clone(), width: total });
    }
    let mut fields = Vec::with_capacity(entries.len());
    let mut offset = total;
    let mut flat: Option<BitPattern> = None;
    for (target, width, piece) in entries {
        offset -= width;
        flat = Some(match flat {
            None => piece,
            Some(prev) => prev.concat(&piece).expect("total validated"),
        });
        fields.push(CodingField { target, width, offset });
    }
    Ok((fields, total, flat.expect("non-empty coding")))
}
