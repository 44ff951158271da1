//! VCD (value-change-dump) export of the pipeline timeline.
//!
//! Renders a recorded event stream as a waveform: one 16-bit `op` wire
//! per pipeline stage (carrying `OpId + 1`, `0` = idle), a 16-bit
//! top-level `op` wire for stage-less execution, and per-pipeline
//! 1-bit `stall` / `flush` strobes. One VCD time unit is one control
//! step, so a waveform viewer shows exactly the paper's §3.4 picture:
//! which operation occupied which stage at which cycle, and where the
//! pipeline stalled or flushed.

use std::io::{self, Write};

use crate::trace::{NameTable, TraceEvent};

/// Writes `events` as a VCD document shaped by `names`.
///
/// Events are grouped by cycle; wires are combinational per control
/// step (a stage occupied at cycle *c* returns to idle at *c + 1*
/// unless re-occupied). The header is static so output is
/// byte-for-byte deterministic.
pub fn write_vcd<W: Write>(names: &NameTable, events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    let layout = Layout::of(names);

    // The version text is part of the pinned format (tests/golden/pipeline.vcd).
    writeln!(w, "$version lisa-trace pipeline timeline $end")?;
    writeln!(w, "$timescale 1 ns $end")?;
    writeln!(w, "$comment one time unit = one control step $end")?;
    writeln!(w, "$scope module cpu $end")?;
    writeln!(w, "$var wire 16 {} op $end", code(Layout::CPU_OP))?;
    for (p, (pipe_name, stages)) in names.pipelines.iter().enumerate() {
        writeln!(w, "$scope module {} $end", ident(pipe_name))?;
        for (s, stage_name) in stages.iter().enumerate() {
            writeln!(w, "$var wire 16 {} {} $end", code(layout.stage(p, s)), ident(stage_name))?;
        }
        writeln!(w, "$var wire 1 {} stall $end", code(layout.stall(p)))?;
        writeln!(w, "$var wire 1 {} flush $end", code(layout.flush(p)))?;
        writeln!(w, "$upscope $end")?;
    }
    writeln!(w, "$upscope $end")?;
    writeln!(w, "$enddefinitions $end")?;

    // Initial state: everything idle.
    writeln!(w, "$dumpvars")?;
    let mut current = vec![0u32; layout.vars];
    for var in 0..layout.vars {
        write_value(w, &layout, var, 0)?;
    }
    writeln!(w, "$end")?;

    let mut i = 0;
    let mut last_cycle: Option<u64> = None;
    while i < events.len() {
        let cycle = events[i].cycle();
        // Wires are per-control-step: zero anything still set from the
        // previous event-bearing cycle before applying this one.
        if let Some(prev) = last_cycle {
            if prev + 1 < cycle && current.iter().any(|&v| v != 0) {
                writeln!(w, "#{}", prev + 1)?;
                reset(w, &layout, &mut current)?;
            }
        }
        let mut next = vec![0u32; layout.vars];
        while i < events.len() && events[i].cycle() == cycle {
            apply(&layout, &events[i], &mut next);
            i += 1;
        }
        writeln!(w, "#{cycle}")?;
        for var in 0..layout.vars {
            if next[var] != current[var] {
                write_value(w, &layout, var, next[var])?;
            }
        }
        current = next;
        last_cycle = Some(cycle);
    }
    if let Some(prev) = last_cycle {
        if current.iter().any(|&v| v != 0) {
            writeln!(w, "#{}", prev + 1)?;
            reset(w, &layout, &mut current)?;
        }
    }
    w.flush()
}

/// Variable indexing: `[cpu.op, pipe0 stages.., pipe0 stall, pipe0
/// flush, pipe1 stages.., ...]`.
struct Layout {
    /// First variable index of each pipeline's block.
    pipe_base: Vec<usize>,
    /// Stage count per pipeline.
    depth: Vec<usize>,
    /// Total variable count.
    vars: usize,
}

impl Layout {
    const CPU_OP: usize = 0;

    fn of(names: &NameTable) -> Layout {
        let mut pipe_base = Vec::with_capacity(names.pipelines.len());
        let mut depth = Vec::with_capacity(names.pipelines.len());
        let mut vars = 1;
        for (_, stages) in &names.pipelines {
            pipe_base.push(vars);
            depth.push(stages.len());
            vars += stages.len() + 2;
        }
        Layout { pipe_base, depth, vars }
    }

    fn stage(&self, pipe: usize, stage: usize) -> usize {
        self.pipe_base[pipe] + stage
    }

    fn stall(&self, pipe: usize) -> usize {
        self.pipe_base[pipe] + self.depth[pipe]
    }

    fn flush(&self, pipe: usize) -> usize {
        self.pipe_base[pipe] + self.depth[pipe] + 1
    }

    fn is_scalar(&self, var: usize) -> bool {
        self.pipe_base
            .iter()
            .zip(&self.depth)
            .any(|(&base, &d)| var == base + d || var == base + d + 1)
    }
}

fn apply(layout: &Layout, event: &TraceEvent, values: &mut [u32]) {
    match *event {
        TraceEvent::Exec { op, stage, .. } => {
            let encoded = (op.0 as u32).saturating_add(1).min(u32::from(u16::MAX));
            match stage {
                Some((p, s)) if p.0 < layout.depth.len() && usize::from(s) < layout.depth[p.0] => {
                    values[layout.stage(p.0, usize::from(s))] = encoded;
                }
                _ => values[Layout::CPU_OP] = encoded,
            }
        }
        TraceEvent::Stall { pipe, .. } if pipe.0 < layout.depth.len() => {
            values[layout.stall(pipe.0)] = 1;
        }
        TraceEvent::Flush { pipe, .. } if pipe.0 < layout.depth.len() => {
            values[layout.flush(pipe.0)] = 1;
        }
        _ => {}
    }
}

fn reset<W: Write>(w: &mut W, layout: &Layout, current: &mut [u32]) -> io::Result<()> {
    for (var, value) in current.iter_mut().enumerate() {
        if *value != 0 {
            write_value(w, layout, var, 0)?;
            *value = 0;
        }
    }
    Ok(())
}

fn write_value<W: Write>(w: &mut W, layout: &Layout, var: usize, value: u32) -> io::Result<()> {
    if layout.is_scalar(var) {
        writeln!(w, "{}{}", value.min(1), code(var))
    } else if value == 0 {
        writeln!(w, "b0 {}", code(var))
    } else {
        writeln!(w, "b{value:b} {}", code(var))
    }
}

/// Short printable identifier code for variable `var` (base-94 over the
/// printable ASCII range VCD allows, `!`..`~`).
fn code(var: usize) -> String {
    let mut n = var;
    let mut out = String::new();
    loop {
        out.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            break;
        }
    }
    out
}

/// VCD identifiers must not contain whitespace; model names are
/// identifiers already, but never emit a malformed header.
fn ident(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_core::model::{OpId, PipelineId};

    fn names() -> NameTable {
        NameTable {
            ops: vec!["main".into(), "add".into()],
            resources: vec![],
            pipelines: vec![("pipe".into(), vec!["FE".into(), "EX".into()])],
        }
    }

    #[test]
    fn header_declares_every_wire_once() {
        let mut out = Vec::new();
        write_vcd(&names(), &[], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$scope module cpu $end"));
        assert!(text.contains("$scope module pipe $end"));
        assert_eq!(text.matches("$var wire 16").count(), 3, "op + 2 stages");
        assert_eq!(text.matches("$var wire 1 ").count(), 2, "stall + flush");
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("$dumpvars"));
    }

    #[test]
    fn stage_occupancy_appears_and_clears() {
        let events = [
            TraceEvent::Exec { cycle: 2, op: OpId(1), stage: Some((PipelineId(0), 1)), pc: 0 },
            TraceEvent::Stall { cycle: 2, pipe: PipelineId(0), upto: 0 },
        ];
        let mut out = Vec::new();
        write_vcd(&names(), &events, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let ex_code = code(2); // cpu.op=0, FE=1, EX=2
        let stall_code = code(3);
        assert!(text.contains("#2\n"), "timestamp for the event cycle");
        assert!(text.contains(&format!("b10 {ex_code}")), "OpId(1)+1 = 2 = b10: {text}");
        assert!(text.contains(&format!("1{stall_code}")), "stall strobe: {text}");
        assert!(text.contains("#3\n"), "wires clear on the next step");
        let after = text.split("#3\n").nth(1).unwrap();
        assert!(after.contains(&format!("b0 {ex_code}")));
        assert!(after.contains(&format!("0{stall_code}")));
    }

    #[test]
    fn codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for var in 0..200 {
            let c = code(var);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c));
        }
    }
}
