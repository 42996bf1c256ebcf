//! Standalone layer loops: trace generation, private-cache lookups and
//! the memory channel, each timed in isolation on the workload's own
//! applications and the Table 1 geometries. Core self time in the traced
//! run includes trace generation and L1/L2 work; these loops bound each
//! share from outside.

use std::hint::black_box;
use std::time::Instant;

use cachesim::cache::Cache;
use memsim::MainMemory;
use simcore::config::MachineConfig;
use simcore::rng::SimRng;
use simcore::types::{Address, CoreId, Cycle};
use tracegen::op::OpClass;
use tracegen::workload::Mix;
use tracegen::TraceGenerator;

/// Ops generated per mix slot by the trace-generation loop.
const OPS_PER_SLOT: u64 = 100_000;
/// Data references collected per mix slot for the cache loop.
const REFS_PER_SLOT: usize = 50_000;
/// Line fills issued by the memory-channel loop.
const MEM_REQUESTS: usize = 1_000_000;
/// Timed repetitions of each loop; the median is reported.
const REPEATS: usize = 5;

/// One loop's result: median host nanoseconds per operation and the
/// exact number of operations one repetition performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopRate {
    /// Median nanoseconds per operation over the repetitions.
    pub ns_per_op: f64,
    /// Operations per repetition (deterministic).
    pub ops: u64,
}

fn median_rate(ops: u64, mut run: impl FnMut()) -> LoopRate {
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    LoopRate {
        ns_per_op: ns[ns.len() / 2],
        ops,
    }
}

fn generators(mixes: &[Mix], seed: u64) -> Vec<TraceGenerator> {
    let mut root = SimRng::seed_from(seed);
    mixes
        .iter()
        .flat_map(|m| m.apps.iter().zip(&m.forwards))
        .enumerate()
        .map(|(i, (app, &forward))| {
            let mut gen = TraceGenerator::new(app.profile(), root.fork(i as u64));
            gen.fast_forward(forward);
            gen
        })
        .collect()
}

/// `TraceGenerator::next_op` over every application slot of `mixes`.
pub fn tracegen(mixes: &[Mix], seed: u64) -> LoopRate {
    let slots = mixes.iter().map(|m| m.apps.len() as u64).sum::<u64>();
    median_rate(slots * OPS_PER_SLOT, || {
        for mut gen in generators(mixes, seed) {
            for _ in 0..OPS_PER_SLOT {
                black_box(gen.next_op());
            }
        }
    })
}

/// `Cache::access` (with a fill on every miss) over each slot's data
/// reference stream, through a private L1D and, on L1D misses, an L2 of
/// the machine's geometries. One operation is one lookup.
pub fn cachesim(machine: &MachineConfig, mixes: &[Mix], seed: u64) -> LoopRate {
    let streams: Vec<Vec<(Address, bool)>> = generators(mixes, seed)
        .into_iter()
        .map(|mut gen| {
            let mut refs = Vec::with_capacity(REFS_PER_SLOT);
            while refs.len() < REFS_PER_SLOT {
                let op = gen.next_op();
                if let (Some(addr), OpClass::Load | OpClass::Store) = (op.addr, op.class) {
                    refs.push((addr, op.class == OpClass::Store));
                }
            }
            refs
        })
        .collect();
    let core = CoreId::from_index(0);
    let walk = |refs: &[(Address, bool)]| -> u64 {
        let mut l1 = Cache::new(machine.l1d);
        let mut l2 = Cache::new(machine.l2);
        let mut lookups = 0;
        for &(addr, write) in refs {
            lookups += 1;
            if !l1.access(addr, write, core).is_hit() {
                lookups += 1;
                if !l2.access(addr, false, core).is_hit() {
                    black_box(l2.fill(addr, false, core));
                }
                black_box(l1.fill(addr, write, core));
            }
        }
        lookups
    };
    let lookups = streams.iter().map(|refs| walk(refs)).sum();
    median_rate(lookups, || {
        for refs in &streams {
            black_box(walk(refs));
        }
    })
}

/// `MainMemory::request` over a seeded arrival stream whose mean spacing
/// is one line transfer, so the bus sees both queueing and idle gaps.
pub fn memsim(machine: &MachineConfig, seed: u64) -> LoopRate {
    let mut rng = SimRng::seed_from(seed ^ 0x6d65_6d73);
    let line_cycles = machine
        .memory
        .chunks_per_line(machine.l3.shared.block_bytes())
        * machine.memory.inter_chunk;
    let mut at = 0u64;
    let arrivals: Vec<Cycle> = (0..MEM_REQUESTS)
        .map(|_| {
            at += rng.below(2 * line_cycles + 1);
            Cycle::new(at)
        })
        .collect();
    median_rate(MEM_REQUESTS as u64, || {
        let mut mem = MainMemory::new(machine.memory, machine.l3.shared.block_bytes());
        for &now in &arrivals {
            black_box(mem.request(now, false));
        }
    })
}
