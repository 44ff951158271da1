//! Property tests for the `ArchProfile` merge algebra, mirroring the
//! `Snapshot` merge suite: profiling a concatenation of event streams
//! equals merging the per-stream profiles, and merge is associative and
//! commutative with the empty profile as identity — so per-run
//! architecture profiles fold into fleet aggregates in any order. Plus
//! heatmap bucket boundary properties (coarsening and merging never
//! lose accesses).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use lisa_core::model::{Model, OpId, PipelineId, ResourceId};
use lisa_probe::{ArchProfile, Heatmap, ProbeRuntime, ProbeSpec};
use lisa_trace::{NameTable, TraceEvent};
use proptest::prelude::*;

/// Memories outside the model, so their heatmaps can take any bucket
/// size and merges must coarsen across sizes.
const MEMS: [&str; 2] = ["xmem", "ymem"];

/// `(memory index, bucket-size exponent, write?, addresses)`.
type HeatSamples = Vec<(u8, u8, bool, Vec<u64>)>;

fn heats() -> impl Strategy<Value = HeatSamples> {
    proptest::collection::vec(
        (0u8..2, 0u8..5, any::<bool>(), proptest::collection::vec(0u64..512, 1..=8)),
        0..=4,
    )
}

/// Any profile: one run over an arbitrary event stream (every profile
/// dimension), plus heatmaps of arbitrary bucket sizes.
fn profile_strategy() -> impl Strategy<Value = ArchProfile> {
    (arb_job(), heats()).prop_map(|((events, cycles), heats)| {
        let mut p = profile_of(&events, cycles);
        for (mem, exp, write, addrs) in heats {
            let name = MEMS[mem as usize % MEMS.len()].to_owned();
            let side = if write { &mut p.write_heat } else { &mut p.read_heat };
            let heat = side
                .entry(name)
                .or_insert_with(|| Heatmap { bucket_size: 1 << exp, counts: Vec::new() });
            for addr in addrs {
                heat.record(addr);
            }
        }
        p
    })
}

/// A model with two pipelines, a register file and both memory
/// classes, so every profile dimension can be exercised.
const MODEL: &str = r"
    RESOURCE {
        PROGRAM_COUNTER int pc;
        REGISTER int R[4];
        DATA_MEMORY int dmem[64];
        PROGRAM_MEMORY int pmem[16];
        PIPELINE pipe = { FE; DE; EX };
        PIPELINE mac = { RD; WB };
    }
    OPERATION main { BEHAVIOR { pc = pc + 1; } }
    OPERATION add { BEHAVIOR { R[0] = R[1] + R[2]; } }
    OPERATION mul { BEHAVIOR { R[0] = R[1] * R[2]; } }
    OPERATION store { BEHAVIOR { dmem[R[0]] = R[1]; } }
";

/// Any event over the model above — including out-of-range ids,
/// stages and program counters, which the runtime must skip
/// deterministically.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof!(
        (0u64..64, -4i64..20, 0u128..256).prop_map(|(cycle, pc, word)| TraceEvent::Fetch {
            cycle,
            pc,
            word,
        }),
        (0u64..64, -4i64..20, 0u128..256, 0usize..6, any::<bool>()).prop_map(
            |(cycle, pc, word, op, cache_hit)| TraceEvent::Decode {
                cycle,
                pc,
                word,
                op: OpId(op),
                cache_hit,
            }
        ),
        (0u64..64, 0usize..6, 0usize..3, 0u16..4, -4i64..16, any::<bool>()).prop_map(
            |(cycle, op, pipe, stage, pc, staged)| TraceEvent::Exec {
                cycle,
                op: OpId(op),
                stage: staged.then_some((PipelineId(pipe), stage)),
                pc,
            }
        ),
        (0u64..64, 0usize..6, 0usize..6, 0u32..5).prop_map(|(cycle, from, to, delay)| {
            TraceEvent::Activation { cycle, from: OpId(from), to: OpId(to), delay }
        }),
        (0u64..64, 0usize..3, 0u16..4).prop_map(|(cycle, pipe, upto)| TraceEvent::Stall {
            cycle,
            pipe: PipelineId(pipe),
            upto,
        }),
        (0u64..64, 0usize..3, 0u16..4, 0u32..5, any::<bool>()).prop_map(
            |(cycle, pipe, upto, discarded, whole)| TraceEvent::Flush {
                cycle,
                pipe: PipelineId(pipe),
                upto: (!whole).then_some(upto),
                discarded,
            }
        ),
        (0u64..64, 0usize..5, 0u64..64, -99i64..99).prop_map(|(cycle, res, addr, value)| {
            TraceEvent::MemoryAccess { cycle, resource: ResourceId(res), addr, value }
        }),
        (0u64..64, 0usize..5, 0u64..4, -4i64..8).prop_map(|(cycle, res, addr, value)| {
            TraceEvent::RegisterWrite { cycle, resource: ResourceId(res), addr, value }
        }),
        (0u64..64, 0usize..6, -99i64..99).prop_map(|(cycle, op, value)| TraceEvent::Print {
            cycle,
            op: OpId(op),
            value,
        }),
    )
}

/// One job: its event stream and the control steps it covers.
fn arb_job() -> impl Strategy<Value = (Vec<TraceEvent>, u64)> {
    (prop::collection::vec(arb_event(), 0..=48), 0u64..100)
}

/// Profiles `events` as one run covering `cycles` steps, with a watch,
/// a register probe and a PC tracepoint armed.
fn profile_of(events: &[TraceEvent], cycles: u64) -> ArchProfile {
    static MODEL_NAMES: OnceLock<(Model, NameTable)> = OnceLock::new();
    let (model, names) = MODEL_NAMES.get_or_init(|| {
        let model = Model::from_source(MODEL).expect("model builds");
        let names = NameTable::of(&model);
        (model, names)
    });
    let set = ProbeSpec::parse("watch dmem[0..32]; reg R; trace 3")
        .expect("spec parses")
        .compile(model)
        .expect("spec compiles");
    let mut runtime = ProbeRuntime::new(set, names);
    runtime.enable_arch(7);
    for event in events {
        feed(&mut runtime, event);
    }
    runtime.arch_profile(names, 7 + cycles)
}

/// Reports `event` through the runtime's typed entry for its kind, as a
/// backend does. Fetch and Print feed nothing; whether a write counts
/// as a register write or as memory heat follows the resource's class.
fn feed(runtime: &mut ProbeRuntime, event: &TraceEvent) {
    match *event {
        TraceEvent::Decode { pc, .. } => runtime.observe_decode(pc),
        TraceEvent::Exec { op, stage, .. } => runtime.observe_exec(op, stage),
        TraceEvent::Activation { to, .. } => runtime.observe_activation(to),
        TraceEvent::Stall { pipe, upto, .. } => runtime.observe_stall(pipe, upto),
        TraceEvent::Flush { pipe, upto, .. } => runtime.observe_flush(pipe, upto),
        TraceEvent::MemoryAccess { cycle, resource, addr, value }
        | TraceEvent::RegisterWrite { cycle, resource, addr, value } => {
            runtime.observe_write(cycle, resource, addr, value, |_| {});
        }
        _ => {}
    }
}

fn merged(a: &ArchProfile, b: &ArchProfile) -> ArchProfile {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// Merging N per-job profiles equals profiling the concatenated run.
    #[test]
    fn merge_equals_profile_of_concatenation(jobs in prop::collection::vec(arb_job(), 0..=5)) {
        let mut merged = ArchProfile::new();
        for (events, cycles) in &jobs {
            merged.merge(&profile_of(events, *cycles));
        }
        let all: Vec<TraceEvent> = jobs.iter().flat_map(|(e, _)| e).copied().collect();
        let cycles = jobs.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(merged, profile_of(&all, cycles));
    }

    #[test]
    fn merge_is_associative(
        a in profile_strategy(),
        b in profile_strategy(),
        c in profile_strategy(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative(a in profile_strategy(), b in profile_strategy()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn empty_is_identity(a in profile_strategy()) {
        prop_assert_eq!(merged(&a, &ArchProfile::default()), a.clone());
        prop_assert_eq!(merged(&ArchProfile::default(), &a), a);
    }

    #[test]
    fn merge_conserves_every_total(a in profile_strategy(), b in profile_strategy()) {
        let m = merged(&a, &b);
        prop_assert_eq!(m.cycles, a.cycles + b.cycles);
        prop_assert_eq!(m.instructions, a.instructions + b.instructions);
        prop_assert_eq!(m.register_writes, a.register_writes + b.register_writes);
        prop_assert_eq!(m.probe_hits(), a.probe_hits() + b.probe_hits());
        let pcs = |p: &ArchProfile| p.hot_pcs.values().sum::<u64>();
        prop_assert_eq!(pcs(&m), pcs(&a) + pcs(&b));
        let sum = |side: fn(&ArchProfile) -> &BTreeMap<String, Heatmap>| {
            move |p: &ArchProfile| side(p).values().map(Heatmap::total).sum::<u64>()
        };
        let reads = sum(|p| &p.read_heat);
        prop_assert_eq!(reads(&m), reads(&a) + reads(&b));
        let writes = sum(|p| &p.write_heat);
        prop_assert_eq!(writes(&m), writes(&a) + writes(&b));
    }

    #[test]
    fn coarsening_never_loses_accesses(
        exp in 0u8..5,
        wider in 0u8..7,
        addrs in proptest::collection::vec(0u64..4096, 1..=32),
    ) {
        let mut heat = Heatmap { bucket_size: 1 << exp, counts: Vec::new() };
        for &a in &addrs {
            heat.record(a);
        }
        let total = heat.total();
        heat.coarsen_to(1 << (exp + wider));
        prop_assert_eq!(heat.total(), total);
        prop_assert_eq!(heat.bucket_size, 1u64 << (exp + wider));
        // Every address still lands in the bucket covering it.
        for &a in &addrs {
            let idx = (a / heat.bucket_size) as usize;
            prop_assert!(heat.counts[idx] > 0, "addr {} lost from bucket {}", a, idx);
        }
    }

    #[test]
    fn bucket_edges_split_adjacent_addresses(bucket_exp in 1u8..6, bucket in 0u64..16) {
        let size = 1u64 << bucket_exp;
        let mut heat = Heatmap { bucket_size: size, counts: Vec::new() };
        let last_inside = bucket * size + (size - 1);
        heat.record(bucket * size);
        heat.record(last_inside);
        heat.record(last_inside + 1); // first address of the next bucket
        prop_assert_eq!(heat.counts[bucket as usize], 2);
        prop_assert_eq!(heat.counts[bucket as usize + 1], 1);
    }
}
