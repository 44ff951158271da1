//! The probe-spec language and its compilation against a model.

use lisa_core::ast::ResourceClass;
use lisa_core::model::{Model, ResourceId};

/// A probe-spec failure: parse errors name the offending clause,
/// compile errors name the model object that did not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// The spec text did not parse.
    Parse(String),
    /// The spec parsed but does not fit the model.
    Compile(String),
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::Parse(msg) => write!(f, "probe parse error: {msg}"),
            ProbeError::Compile(msg) => write!(f, "probe compile error: {msg}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// One parsed probe clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// `watch NAME`, `watch NAME[I]`, `watch NAME[LO..HI]` — hit on
    /// every write to the cell / half-open flat index range.
    Watch {
        /// Resource name.
        resource: String,
        /// Half-open flat index range (`None` = the whole resource).
        range: Option<(u64, u64)>,
    },
    /// `reg NAME`, `reg NAME[I]` — register trace probe: hit on every
    /// write to the (register-class) resource.
    Reg {
        /// Resource name.
        resource: String,
        /// Single flat index (`None` = the whole resource).
        index: Option<u64>,
    },
    /// `break PC` — stop `run_until` after the step that writes the
    /// program counter to `PC`.
    Break {
        /// Program-counter value to stop at.
        pc: i64,
    },
    /// `trace PC` — hit (without stopping) whenever the program counter
    /// is written to `PC`.
    Trace {
        /// Program-counter value to record.
        pc: i64,
    },
}

/// A parsed probe specification: `;`-separated clauses.
///
/// ```
/// use lisa_probe::ProbeSpec;
/// let spec = ProbeSpec::parse("watch dmem[0..16]; break 0x12; reg acc").unwrap();
/// assert_eq!(spec.probes.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeSpec {
    /// The clauses, in spec order (probe ids follow this order).
    pub probes: Vec<Probe>,
}

fn parse_int(text: &str) -> Result<i64, ProbeError> {
    let text = text.trim();
    let (negative, digits) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = match digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        Some(hex) => i64::from_str_radix(hex, 16),
        None => digits.parse(),
    }
    .map_err(|_| ProbeError::Parse(format!("bad integer `{text}`")))?;
    Ok(if negative { -value } else { value })
}

fn parse_index(text: &str) -> Result<u64, ProbeError> {
    u64::try_from(parse_int(text)?)
        .map_err(|_| ProbeError::Parse(format!("negative index `{text}`")))
}

/// A parsed probe subject: the resource name plus an optional single
/// index or `(lo, Some(hi))` range.
type Subject<'a> = (&'a str, Option<(u64, Option<u64>)>);

/// Splits `NAME`, `NAME[I]` or `NAME[LO..HI]`.
fn parse_subject(text: &str) -> Result<Subject<'_>, ProbeError> {
    let text = text.trim();
    let Some(open) = text.find('[') else {
        if text.is_empty() {
            return Err(ProbeError::Parse("missing resource name".into()));
        }
        return Ok((text, None));
    };
    let name = text[..open].trim();
    let rest = text[open + 1..]
        .strip_suffix(']')
        .ok_or_else(|| ProbeError::Parse(format!("missing `]` in `{text}`")))?;
    if name.is_empty() {
        return Err(ProbeError::Parse(format!("missing resource name in `{text}`")));
    }
    match rest.split_once("..") {
        Some((lo, hi)) => Ok((name, Some((parse_index(lo)?, Some(parse_index(hi)?))))),
        None => Ok((name, Some((parse_index(rest)?, None)))),
    }
}

impl ProbeSpec {
    /// Parses a `;`-separated probe spec. Empty clauses are skipped, so
    /// trailing separators are fine; an empty string is an empty spec.
    ///
    /// # Errors
    ///
    /// [`ProbeError::Parse`] naming the first malformed clause.
    pub fn parse(text: &str) -> Result<ProbeSpec, ProbeError> {
        let mut probes = Vec::new();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (keyword, rest) = clause.split_once(char::is_whitespace).unwrap_or((clause, ""));
            let rest = rest.trim();
            let probe = match keyword {
                "watch" => {
                    let (name, idx) = parse_subject(rest)?;
                    let range = match idx {
                        None => None,
                        Some((lo, Some(hi))) => Some((lo, hi)),
                        Some((i, None)) => Some((i, i + 1)),
                    };
                    Probe::Watch { resource: name.to_owned(), range }
                }
                "reg" => {
                    let (name, idx) = parse_subject(rest)?;
                    let index = match idx {
                        None => None,
                        Some((i, None)) => Some(i),
                        Some(_) => {
                            return Err(ProbeError::Parse(format!(
                                "`reg` takes a single index, not a range: `{clause}`"
                            )))
                        }
                    };
                    Probe::Reg { resource: name.to_owned(), index }
                }
                "break" => Probe::Break { pc: parse_int(rest)? },
                "trace" => Probe::Trace { pc: parse_int(rest)? },
                other => {
                    return Err(ProbeError::Parse(format!(
                        "unknown probe kind `{other}` (expected watch|reg|break|trace)"
                    )))
                }
            };
            probes.push(probe);
        }
        Ok(ProbeSpec { probes })
    }

    /// Compiles the spec against a model: resource names become flat
    /// index tables, PC probes bind to the model's `PROGRAM_COUNTER`.
    ///
    /// # Errors
    ///
    /// [`ProbeError::Compile`] for unknown resources, out-of-range
    /// indices, or PC probes on a model without a program counter.
    pub fn compile(&self, model: &Model) -> Result<ProbeSet, ProbeError> {
        let mut set = ProbeSet::empty(model);
        for probe in &self.probes {
            if set.labels.len() > usize::from(u16::MAX) {
                return Err(ProbeError::Compile("more than 65536 probes".into()));
            }
            let id = set.labels.len() as u16;
            match probe {
                Probe::Watch { resource, range } => {
                    let res = model.resource_by_name(resource).ok_or_else(|| {
                        ProbeError::Compile(format!("unknown resource `{resource}`"))
                    })?;
                    let elements = res.element_count();
                    let (lo, hi) = range.unwrap_or((0, elements));
                    if lo >= hi || hi > elements {
                        return Err(ProbeError::Compile(format!(
                            "range [{lo}..{hi}) out of bounds for `{resource}` ({elements} elements)"
                        )));
                    }
                    set.watches[res.id.0].push((lo, hi, id));
                    set.labels.push(match range {
                        None => format!("watch {resource}"),
                        Some((lo, hi)) if hi - lo == 1 => format!("watch {resource}[{lo}]"),
                        Some((lo, hi)) => format!("watch {resource}[{lo}..{hi}]"),
                    });
                }
                Probe::Reg { resource, index } => {
                    let res = model.resource_by_name(resource).ok_or_else(|| {
                        ProbeError::Compile(format!("unknown resource `{resource}`"))
                    })?;
                    let elements = res.element_count();
                    let (lo, hi) = match index {
                        None => (0, elements),
                        Some(i) => (*i, i + 1),
                    };
                    if lo >= hi || hi > elements {
                        return Err(ProbeError::Compile(format!(
                            "index {lo} out of bounds for `{resource}` ({elements} elements)"
                        )));
                    }
                    set.watches[res.id.0].push((lo, hi, id));
                    set.labels.push(match index {
                        None => format!("reg {resource}"),
                        Some(i) => format!("reg {resource}[{i}]"),
                    });
                }
                Probe::Break { pc } => {
                    if set.pc_res.is_none() {
                        return Err(ProbeError::Compile(
                            "model declares no PROGRAM_COUNTER resource".into(),
                        ));
                    }
                    set.breaks.push((*pc, id));
                    set.labels.push(format!("break {pc}"));
                }
                Probe::Trace { pc } => {
                    if set.pc_res.is_none() {
                        return Err(ProbeError::Compile(
                            "model declares no PROGRAM_COUNTER resource".into(),
                        ));
                    }
                    set.traces.push((*pc, id));
                    set.labels.push(format!("trace {pc}"));
                }
            }
        }
        set.breaks.sort_unstable();
        set.traces.sort_unstable();
        Ok(set)
    }
}

/// Cap on the hot-PC table: program counters past this many words of
/// program memory are counted as instructions but not attributed.
pub(crate) const MAX_HOT_PCS: usize = 1 << 16;

/// A spec compiled against one model: watch tables indexed by resource
/// id, sorted PC breakpoint/tracepoint tables, and the memory-heatmap
/// layout. Everything the hot path touches is a pre-resolved index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSet {
    /// Watch ranges per resource id: `(lo, hi, probe_id)`, half-open.
    pub(crate) watches: Vec<Vec<(u64, u64, u16)>>,
    /// Sorted `(pc, probe_id)` breakpoints.
    pub(crate) breaks: Vec<(i64, u16)>,
    /// Sorted `(pc, probe_id)` tracepoints.
    pub(crate) traces: Vec<(i64, u16)>,
    /// The model's `PROGRAM_COUNTER` resource index, if any.
    pub(crate) pc_res: Option<usize>,
    /// Per-resource heatmap slot (memory-class resources only).
    pub(crate) heat_slot: Vec<Option<u16>>,
    /// Heatmap slot layout: `(resource name, element count)`.
    pub(crate) heat: Vec<(String, u64)>,
    /// Hot-PC table window: first address and word count of the
    /// model's program memory (capped at [`MAX_HOT_PCS`] words).
    pub(crate) pc_window: (i64, usize),
    /// Human-readable label per probe id.
    pub(crate) labels: Vec<String>,
}

impl ProbeSet {
    /// A probe-free set for `model` — still carries the memory-heatmap
    /// layout, so architecture profiling works without any probes.
    #[must_use]
    pub fn empty(model: &Model) -> ProbeSet {
        let n = model.resources().len();
        let mut heat_slot = vec![None; n];
        let mut heat = Vec::new();
        let mut pc_res = None;
        let mut pc_window = None;
        for res in model.resources() {
            match res.class {
                ResourceClass::DataMemory | ResourceClass::ProgramMemory => {
                    heat_slot[res.id.0] = Some(heat.len() as u16);
                    heat.push((res.name.clone(), res.element_count()));
                    if res.class == ResourceClass::ProgramMemory {
                        let base = res.dims.first().map_or(0, |d| d.base());
                        let words = res.element_count().min(MAX_HOT_PCS as u64) as usize;
                        pc_window.get_or_insert((i64::try_from(base).unwrap_or(i64::MAX), words));
                    }
                }
                ResourceClass::ProgramCounter => {
                    pc_res.get_or_insert(res.id.0);
                }
                _ => {}
            }
        }
        ProbeSet {
            watches: vec![Vec::new(); n],
            breaks: Vec::new(),
            traces: Vec::new(),
            pc_res,
            heat_slot,
            heat,
            pc_window: pc_window.unwrap_or((0, 0)),
            labels: Vec::new(),
        }
    }

    /// Number of compiled probes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set contains no probes (it may still carry the
    /// heatmap layout for profiling).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The human-readable label of a probe id (`"?"` when unknown).
    #[must_use]
    pub fn label(&self, id: u16) -> &str {
        self.labels.get(usize::from(id)).map_or("?", String::as_str)
    }

    /// All probe labels, in probe-id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Whether a profile records heat for writes to `res`: it is a
    /// memory, so it has a heatmap slot.
    #[must_use]
    pub fn records_heat(&self, res: ResourceId) -> bool {
        self.heat_slot.get(res.0).is_some_and(Option::is_some)
    }

    /// Whether a write to `res` can match a probe: a watchpoint on it,
    /// or a breakpoint or tracepoint when it is the program counter.
    #[must_use]
    pub fn matches_writes_to(&self, res: ResourceId) -> bool {
        let pc_probed = !self.breaks.is_empty() || !self.traces.is_empty();
        self.watches.get(res.0).is_some_and(|w| !w.is_empty())
            || (pc_probed && self.pc_res == Some(res.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model::from_source(
            r"
            RESOURCE {
                PROGRAM_COUNTER int pc;
                REGISTER int acc;
                REGISTER int R[8];
                DATA_MEMORY int dmem[256];
                PROGRAM_MEMORY int pmem[64];
            }
            OPERATION main { BEHAVIOR { pc = pc + 1; } }
            ",
        )
        .expect("model builds")
    }

    #[test]
    fn parses_every_clause_kind() {
        let spec =
            ProbeSpec::parse(" watch dmem[0..16];break 0x12; trace -1 ; reg acc; watch R[3];")
                .unwrap();
        assert_eq!(spec.probes.len(), 5);
        assert_eq!(spec.probes[0], Probe::Watch { resource: "dmem".into(), range: Some((0, 16)) });
        assert_eq!(spec.probes[1], Probe::Break { pc: 0x12 });
        assert_eq!(spec.probes[2], Probe::Trace { pc: -1 });
        assert_eq!(spec.probes[3], Probe::Reg { resource: "acc".into(), index: None });
        assert_eq!(spec.probes[4], Probe::Watch { resource: "R".into(), range: Some((3, 4)) });
        assert!(ProbeSpec::parse("").unwrap().probes.is_empty());
    }

    #[test]
    fn parse_errors_name_the_clause() {
        for (text, needle) in [
            ("inspect R", "unknown probe kind"),
            ("watch R[1", "missing `]`"),
            ("watch [1]", "missing resource name"),
            ("watch", "missing resource name"),
            ("break 12z", "bad integer"),
            ("watch R[-1]", "negative index"),
            ("reg R[0..4]", "single index"),
        ] {
            let err = ProbeSpec::parse(text).unwrap_err();
            assert!(matches!(&err, ProbeError::Parse(m) if m.contains(needle)), "{text}: {err}");
        }
    }

    #[test]
    fn compiles_to_flat_tables() {
        let model = model();
        let set = ProbeSpec::parse("watch dmem[0..16]; break 3; trace 5; reg R[2]; watch acc")
            .unwrap()
            .compile(&model)
            .unwrap();
        assert_eq!(set.len(), 5);
        let dmem = model.resource_by_name("dmem").unwrap().id.0;
        assert_eq!(set.watches[dmem], vec![(0, 16, 0)]);
        assert_eq!(set.breaks, vec![(3, 1)]);
        assert_eq!(set.traces, vec![(5, 2)]);
        let r = model.resource_by_name("R").unwrap().id.0;
        assert_eq!(set.watches[r], vec![(2, 3, 3)]);
        assert_eq!(set.label(0), "watch dmem[0..16]");
        assert_eq!(set.label(3), "reg R[2]");
        assert_eq!(set.label(9), "?");
    }

    #[test]
    fn heatmap_layout_covers_memories_only() {
        let model = model();
        let set = ProbeSet::empty(&model);
        assert_eq!(set.heat.len(), 2);
        assert_eq!(set.heat[0].0, "dmem");
        assert_eq!(set.heat[0].1, 256);
        assert_eq!(set.heat[1].0, "pmem");
        assert!(set.pc_res.is_some());
        assert!(set.is_empty());
        let heat = ["pc", "acc", "R", "dmem", "pmem"]
            .map(|n| set.records_heat(model.resource_by_name(n).unwrap().id));
        assert_eq!(heat, [false, false, false, true, true]);
        assert!(!set.records_heat(ResourceId(99)));
    }

    #[test]
    fn compile_errors_are_specific() {
        let model = model();
        for (text, needle) in [
            ("watch nosuch", "unknown resource"),
            ("watch dmem[0..300]", "out of bounds"),
            ("watch dmem[5..5]", "out of bounds"),
            ("reg R[8]", "out of bounds"),
        ] {
            let err = ProbeSpec::parse(text).unwrap().compile(&model).unwrap_err();
            assert!(matches!(&err, ProbeError::Compile(m) if m.contains(needle)), "{text}: {err}");
        }
        let no_pc = Model::from_source(
            "RESOURCE { REGISTER int a; } OPERATION main { BEHAVIOR { a = a; } }",
        )
        .unwrap();
        let err = ProbeSpec::parse("break 0").unwrap().compile(&no_pc).unwrap_err();
        assert!(matches!(&err, ProbeError::Compile(m) if m.contains("PROGRAM_COUNTER")));
    }
}
