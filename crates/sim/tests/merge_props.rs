//! Property tests for the `ArchProfile` merge algebra, mirroring the
//! `Snapshot` merge suite: profiling a concatenation of event streams
//! equals merging the per-stream profiles, and merge is associative and
//! commutative with the empty profile as identity — so per-run
//! architecture profiles fold into batch aggregates in any order. Plus
//! heatmap bucket boundary properties (coarsening and merging never
//! lose accesses).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use lisa_core::model::{Model, OpId, PipelineId, ResourceId};
use lisa_sim::{ArchProfile, Heatmap, NameTable, TraceEvent};
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
    OPERATION add IN pipe.EX { BEHAVIOR { R[0] = R[1] + R[2]; } }
    OPERATION mul IN mac.RD { BEHAVIOR { R[0] = R[1] * R[2]; } }
    OPERATION store { BEHAVIOR { dmem[R[0]] = R[1]; } }
";

/// Any event over the model above — including out-of-range ids,
/// stages and program counters, which must be skipped
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

/// Profiles `events` as one run covering `cycles` steps, with a watch
/// (`watch dmem[0..32]`), a register probe (`reg R`) and a PC
/// tracepoint (`trace 3`) armed. Every field is built by hand from the
/// events, as the simulator's fold builds it from its counters: a decode
/// is an instruction and, inside the program memory, a hot PC; a stall
/// or flush holds stages of a model pipeline; an execution counts its
/// operation and its static stage as busy; an activation counts its
/// target; a write to a memory is write heat (bucketed like the
/// simulator's, at most 64 buckets) and any other model resource a
/// register write. Events naming ids outside the model count nothing.
fn profile_of(events: &[TraceEvent], cycles: u64) -> ArchProfile {
    use lisa_core::ast::ResourceClass;
    static MODEL_NAMES: OnceLock<(Model, NameTable)> = OnceLock::new();
    let (model, names) = MODEL_NAMES.get_or_init(|| {
        let model = Model::from_source(MODEL).expect("model builds");
        let names = NameTable::of(&model);
        (model, names)
    });
    let id = |name: &str| model.resource_by_name(name).expect("resource").id;
    let (pc_res, r_file, dmem, pmem) = (id("pc"), id("R"), id("dmem"), id("pmem"));
    let words = model.resource(pmem).element_count() as i64;
    let known = |op: OpId| op.0 < model.operations().len();
    // Stages `0..=upto` of a model pipeline (all of them for `None`).
    let hold = |map: &mut BTreeMap<String, u64>, pipe: PipelineId, upto: Option<u16>| {
        let depth = model.pipelines().get(pipe.0).map_or(0, |p| p.depth());
        for stage in 0..upto.map_or(depth, |s| depth.min(usize::from(s) + 1)) {
            *map.entry(names.stage_key(pipe, stage)).or_default() += 1;
        }
    };
    let mut p = ArchProfile { cycles, ..ArchProfile::default() };
    for event in events {
        match *event {
            TraceEvent::Decode { pc, .. } => {
                p.instructions += 1;
                if (0..words).contains(&pc) {
                    *p.hot_pcs.entry(pc).or_default() += 1;
                }
            }
            TraceEvent::Stall { pipe, upto, .. } => hold(&mut p.stage_stalls, pipe, Some(upto)),
            TraceEvent::Flush { pipe, upto, .. } => hold(&mut p.stage_flushes, pipe, upto),
            TraceEvent::Exec { op, .. } if known(op) => {
                *p.op_execs.entry(names.op(op).to_owned()).or_default() += 1;
                if let Some((pipe, stage)) = model.operation(op).stage {
                    *p.stage_busy.entry(names.stage_key(pipe, stage)).or_default() += 1;
                }
            }
            TraceEvent::Activation { to, .. } if known(to) => {
                *p.unit_activations.entry(names.op(to).to_owned()).or_default() += 1;
            }
            TraceEvent::MemoryAccess { resource, addr, value, .. }
            | TraceEvent::RegisterWrite { resource, addr, value, .. } => {
                let Some(res) = model.resources().get(resource.0) else { continue };
                if matches!(res.class, ResourceClass::DataMemory | ResourceClass::ProgramMemory) {
                    p.write_heat
                        .entry(res.name.clone())
                        .or_insert_with(|| Heatmap::for_elements(res.element_count(), 64))
                        .record(addr);
                } else {
                    p.register_writes += 1;
                }
                let hits = [
                    ("watch dmem[0..32]", resource == dmem && addr < 32),
                    ("reg R", resource == r_file && addr < 4),
                    ("trace 3", resource == pc_res && value == 3),
                ];
                for (label, _) in hits.into_iter().filter(|&(_, hit)| hit) {
                    *p.hits.entry(label.to_owned()).or_default() += 1;
                }
            }
            _ => {}
        }
    }
    p
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
        let counts = |p: &ArchProfile| {
            [&p.op_execs, &p.unit_activations, &p.stage_busy].map(|c| c.values().sum::<u64>())
        };
        let (ca, cb) = (counts(&a), counts(&b));
        prop_assert_eq!(counts(&m), std::array::from_fn(|i| ca[i] + cb[i]));
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
