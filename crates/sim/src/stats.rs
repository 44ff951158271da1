//! Simulation statistics.

use std::fmt;

/// Number of per-stage stall buckets in [`SimStats::stall_by_stage`].
/// Deeper stages fold into the last bucket (the deepest bundled model
/// has 7 stages, so in practice nothing folds).
pub const STALL_STAGE_BUCKETS: usize = 8;

/// Counters accumulated by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Control steps executed.
    pub cycles: u64,
    /// Operation executions (behavior runs), including invocations.
    pub executed_ops: u64,
    /// Instruction-decode *requests*. Cache hits are included: every
    /// decode-root execution counts here whether the word was decoded
    /// fresh or served from the ops-mode word cache.
    pub decodes: u64,
    /// Decodes served from the ops-mode word cache (a subset of
    /// [`SimStats::decodes`]).
    pub decode_cache_hits: u64,
    /// Activations scheduled (delayed or same-step).
    pub activations: u64,
    /// Pipeline stall requests.
    pub stalls: u64,
    /// Pipeline flushes.
    pub flushes: u64,
    /// Decoded instructions fully executed (behavior and activation of a
    /// decode-root operation completed). Distinct from
    /// [`SimStats::decodes`], which counts decode requests whether or
    /// not the instruction then runs to completion.
    pub instructions_retired: u64,
    /// Stall requests bucketed by the requested hold stage: a
    /// `pipe.stage.stall()` at stage *s* counts in bucket
    /// `min(s, STALL_STAGE_BUCKETS - 1)`; a whole-pipeline
    /// `pipe.stall()` counts at its deepest stage.
    pub stall_by_stage: [u64; STALL_STAGE_BUCKETS],
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} ops={} decodes={} (hits={}) activations={} stalls={} flushes={} retired={}",
            self.cycles,
            self.executed_ops,
            self.decodes,
            self.decode_cache_hits,
            self.activations,
            self.stalls,
            self.flushes,
            self.instructions_retired,
        )?;
        if self.stalls > 0 {
            let last = self.stall_by_stage.iter().rposition(|&v| v != 0).unwrap_or(0);
            write!(f, " stall_stages=[")?;
            for (i, v) in self.stall_by_stage[..=last].iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_appends_new_fields_after_legacy_ones() {
        let mut s = SimStats { cycles: 3, instructions_retired: 2, ..SimStats::default() };
        let text = s.to_string();
        assert!(text.starts_with("cycles=3 ops=0 decodes=0 (hits=0)"), "{text}");
        assert!(text.ends_with("retired=2"), "{text}");
        assert!(!text.contains("stall_stages"), "no stall breakdown without stalls: {text}");

        s.stalls = 4;
        s.stall_by_stage[0] = 1;
        s.stall_by_stage[2] = 3;
        let text = s.to_string();
        assert!(text.contains("retired=2 stall_stages=[1,0,3]"), "{text}");
    }
}
