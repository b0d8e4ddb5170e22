//! The `kad-drain` workloads: an E6-class Kademlia overlay of 100,000
//! nodes, 2,000 lookups started up front, one long drain to the horizon.
//!
//! Set-up is `build_network`, the warm-up and starting the lookups; the
//! measured phase is the drain. A traced run splits the drain into
//! fixed sim-time slices and afterwards replays the scheduler, network
//! model and routing-table calls at the drain's own sizes.

use std::hint::black_box;
use std::time::Instant;

use decent_overlay::id::{Key, KEY_BITS};
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::prelude::*;

use crate::probe::{self, Digest};
use crate::trace::{Slice, Tracer};
use crate::{median, named, Outcome};

pub const NODES: usize = 100_000;
pub const LOOKUPS: usize = 2_000;
const EXTRA_RANDOM: usize = 8;
const LATENCY_MS: (f64, f64) = (30.0, 120.0);
const WARMUP_S: f64 = 1.0;
const HORIZON_S: f64 = 600.0;
/// Sim-time width of one slice of a traced drain.
const SLICE_S: f64 = 0.1;
/// Repetitions of each replay microbenchmark; the median is reported.
const REPLAY_REPS: usize = 5;
const WHEEL_OPS: u64 = 1_000_000;
const DELAY_CALLS: u64 = 2_000_000;
const CLOSEST_PASSES: usize = 10;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's inputs, a pure function of the seed: each lookup's
/// origin (a node index) and target key.
fn inputs(seed: u64) -> Vec<(usize, Key)> {
    let mut state = derive_seed(seed, 0x10_0C0B);
    (0..LOOKUPS)
        .map(|_| {
            let origin = (splitmix(&mut state) % NODES as u64) as usize;
            (origin, Key::from_u64(splitmix(&mut state)))
        })
        .collect()
}

struct Counters {
    events: u64,
    activations: u64,
    windows: u64,
    sent: u64,
    delivered: u64,
}

impl Counters {
    fn read(sim: &Simulation<KadNode>) -> Self {
        Counters {
            events: sim.events_processed(),
            activations: sim.activations(),
            windows: sim.windows(),
            sent: sim.stats().sent,
            delivered: sim.stats().delivered,
        }
    }
}

pub fn run(seed: u64, shards: usize, tr: &mut Tracer) -> Result<Outcome, String> {
    let lookups = inputs(seed);
    let kad = KadConfig::default();

    let setup = Instant::now();
    let net = UniformLatency::from_millis(LATENCY_MS.0, LATENCY_MS.1);
    let mut sim: Simulation<KadNode> = Simulation::new(seed, net);
    sim.set_shards(shards);
    let open = tr.begin("kademlia.build_network");
    let ids = build_network(&mut sim, NODES, &kad, 0.0, EXTRA_RANDOM, seed ^ 1);
    let build_s = tr.end(open);
    let rss_after_build_kb = if tr.is_on() { probe::peak_rss_kb()? } else { 0 };
    let open = tr.begin("engine.warmup");
    sim.run_until(SimTime::from_secs(WARMUP_S));
    let warmup_s = tr.end(open);
    let open = tr.begin("kademlia.start_lookups");
    for &(origin, target) in &lookups {
        tr.span("kademlia.start_lookup", || {
            sim.invoke(ids[origin], |n, ctx| n.start_lookup(target, false, ctx))
        });
    }
    let invoke_s = tr.end(open);
    let setup_s = setup.elapsed().as_secs_f64();

    let before = Counters::read(&sim);
    let cpu0 = probe::cpu_seconds()?;
    let t0 = Instant::now();
    let mut sliced = SlicedDrain::default();
    if tr.is_on() {
        sliced = drain_sliced(&mut sim, tr);
    } else {
        sim.run_until(SimTime::from_secs(HORIZON_S));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds()? - cpu0;
    let after = Counters::read(&sim);
    let events = after.events - before.events;

    // Everything below is outside the measured phase.
    let mut digest = Digest::new();
    let mut completed = 0u64;
    let mut rpcs = 0u64;
    let mut firsts: Vec<(Key, Option<Key>)> = Vec::new();
    for &id in &ids {
        for r in &sim.node(id).results {
            completed += 1;
            rpcs += r.rpcs as u64;
            digest.u64(id as u64);
            digest.u64(r.id);
            digest.bytes(r.target.as_bytes());
            digest.u64(r.latency.as_nanos());
            digest.u64(r.rpcs as u64);
            digest.u64(r.closest.len() as u64);
            for c in &r.closest {
                digest.u64(c.node as u64);
                digest.bytes(c.key.as_bytes());
            }
            firsts.push((r.target, r.closest.first().map(|c| c.key)));
        }
    }
    let mut out = Outcome {
        setup_s,
        wall_s,
        cpu_s,
        events,
        attempted: LOOKUPS as u64,
        failed: LOOKUPS as u64 - completed,
        digest: digest.hex(),
        ..Outcome::default()
    };
    if !tr.is_on() {
        return Ok(out);
    }

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ev = events as f64;
    let windows = after.windows - before.windows;
    out.layers = named(&[
        ("kademlia.build_network_s", build_s),
        ("engine.warmup_s", warmup_s),
        ("kademlia.start_lookup_us", invoke_s / LOOKUPS as f64 * 1e6),
        (
            "memory.rss_per_node_kb",
            rss_after_build_kb as f64 / NODES as f64,
        ),
        ("engine.drain_s", wall_s),
        ("engine.events", ev),
        (
            "engine.activations",
            (after.activations - before.activations) as f64,
        ),
        (
            "engine.events_per_activation",
            ratio(ev, (after.activations - before.activations) as f64),
        ),
        ("engine.peak_queue_depth", sliced.peak_depth as f64),
        ("engine.msgs_sent", (after.sent - before.sent) as f64),
        (
            "engine.msgs_delivered",
            (after.delivered - before.delivered) as f64,
        ),
        (
            "engine.alloc_bytes_per_event",
            ratio(sliced.alloc_bytes as f64, ev),
        ),
        (
            "engine.alloc_calls_per_event",
            ratio(sliced.alloc_calls as f64, ev),
        ),
        ("shard.windows", windows as f64),
        ("shard.events_per_window", ratio(ev, windows as f64)),
        ("shard.cpu_per_wall", ratio(cpu_s, wall_s)),
        (
            "kademlia.rpcs_per_lookup",
            ratio(rpcs as f64, completed as f64),
        ),
        (
            "kademlia.exact_closest_ratio",
            ratio(exact_closest(&sim, &ids, &firsts) as f64, completed as f64),
        ),
    ]);

    let open = tr.begin("replay");
    let depth = sliced.peak_depth as usize;
    let wheel_ns = tr.span("replay.sched", || wheel_op_ns(depth, seed));
    let delay_ns = tr.span("replay.netmodel", || uniform_delay_ns(seed));
    let closest_ns = tr.span("replay.closest_contacts", || {
        closest_contacts_ns(&sim, &ids, &lookups, kad.k)
    });
    tr.end(open);
    out.layers.extend(named(&[
        ("sched.wheel_op_ns", wheel_ns),
        ("netmodel.uniform_delay_ns", delay_ns),
        ("kademlia.closest_contacts_ns", closest_ns),
    ]));
    out.inputs = vec![
        ("sched.replay_queue_depth", depth as f64),
        ("sched.replay_ops", WHEEL_OPS as f64),
        ("sched.replay_delay_min_ms", LATENCY_MS.0),
        ("sched.replay_delay_max_ms", LATENCY_MS.1),
        ("netmodel.replay_calls", DELAY_CALLS as f64),
        ("netmodel.replay_delay_min_ms", LATENCY_MS.0),
        ("netmodel.replay_delay_max_ms", LATENCY_MS.1),
        ("kademlia.replay_targets", lookups.len() as f64),
        ("kademlia.replay_passes", CLOSEST_PASSES as f64),
        ("kademlia.replay_k", kad.k as f64),
        ("replay.repetitions", REPLAY_REPS as f64),
        ("drain.slice_s", SLICE_S),
    ];
    Ok(out)
}

/// Events still queued. Every scheduled event is either processed
/// (dispatched or discarded as stale) or pending; the drain has no hooks.
fn queue_depth(sim: &Simulation<KadNode>) -> u64 {
    let scheduled = sim.metrics_snapshot().counter("events_scheduled");
    scheduled.saturating_sub(sim.events_processed())
}

/// What a traced drain measures beyond the untraced one. Allocations
/// are counted inside `run_until` only, not in the benchmark's own
/// sampling between slices. The peak queue depth is sampled at slice
/// boundaries: the engine's own high-water mark is set by the nodes'
/// start events during set-up, so it says nothing about the drain.
#[derive(Default)]
struct SlicedDrain {
    peak_depth: u64,
    alloc_bytes: u64,
    alloc_calls: u64,
}

/// The drain as fixed sim-time slices, each its own `run_until` span,
/// recording events, activations, windows and queue depth per slice.
/// Once the queue is empty, one last `run_until` reaches the horizon,
/// as the untraced drain does.
fn drain_sliced(sim: &mut Simulation<KadNode>, tr: &mut Tracer) -> SlicedDrain {
    let open = tr.begin("engine.drain");
    let horizon = SimTime::from_secs(HORIZON_S);
    let slice_ns = SimDuration::from_secs(SLICE_S).as_nanos();
    let mut out = SlicedDrain {
        peak_depth: queue_depth(sim),
        ..SlicedDrain::default()
    };
    let mut start = sim.now();
    while start < horizon {
        let end = if queue_depth(sim) == 0 {
            horizon
        } else {
            SimTime::from_nanos(start.as_nanos() + slice_ns).min(horizon)
        };
        let before = Counters::read(sim);
        let t = Instant::now();
        let ((b0, c0), (b1, c1)) = tr.span("engine.run_until", || {
            let a0 = probe::alloc_snapshot();
            sim.run_until(end);
            (a0, probe::alloc_snapshot())
        });
        let wall_s = t.elapsed().as_secs_f64();
        out.alloc_bytes += b1 - b0;
        out.alloc_calls += c1 - c0;
        let after = Counters::read(sim);
        let depth = queue_depth(sim);
        out.peak_depth = out.peak_depth.max(depth);
        tr.slices.push(Slice {
            sim_start_s: start.as_secs(),
            sim_end_s: end.as_secs(),
            wall_s,
            events: after.events - before.events,
            activations: after.activations - before.activations,
            windows: after.windows - before.windows,
            queue_depth: depth,
        });
        start = end;
    }
    tr.end(open);
    out
}

/// The XOR-closest key to `target` among `sorted` keys: descend the
/// implicit binary trie, keeping at each bit the half of the current
/// (contiguous, prefix-sharing) range that matches the target's bit
/// whenever that half is non-empty.
fn xor_closest(sorted: &[Key], target: &Key) -> Key {
    let (mut lo, mut hi) = (0, sorted.len());
    for bit in 0..KEY_BITS {
        if hi - lo <= 1 {
            break;
        }
        let mid = lo + sorted[lo..hi].partition_point(|k| !k.bit(bit));
        if target.bit(bit) {
            if mid < hi {
                lo = mid;
            }
        } else if mid > lo {
            hi = mid;
        }
    }
    sorted[lo]
}

/// Lookups whose first returned contact is the globally XOR-closest
/// node, judged against every node's key.
fn exact_closest(sim: &Simulation<KadNode>, ids: &[NodeId], firsts: &[(Key, Option<Key>)]) -> u64 {
    let mut keys: Vec<Key> = ids.iter().map(|&id| sim.node(id).key()).collect();
    keys.sort_unstable();
    firsts
        .iter()
        .filter(|(target, first)| *first == Some(xor_closest(&keys, target)))
        .count() as u64
}

/// Delays uniform in the drain's latency range, drawn from the seed.
fn delay_table(seed: u64) -> Vec<u64> {
    let lo = SimDuration::from_millis(LATENCY_MS.0).as_nanos();
    let span = SimDuration::from_millis(LATENCY_MS.1).as_nanos() - lo + 1;
    let mut state = derive_seed(seed, 0x5CED);
    (0..1 << 16)
        .map(|_| lo + splitmix(&mut state) % span)
        .collect()
}

/// One `pop` plus one `schedule` on a `TimingWheel` held at `depth`
/// pending events, in nanoseconds.
fn wheel_op_ns(depth: usize, seed: u64) -> f64 {
    let delays = delay_table(seed);
    let mask = delays.len() - 1;
    let reps = (0..REPLAY_REPS).map(|_| {
        let mut wheel = <TimingWheel<u32> as Scheduler<u32>>::new();
        let mut seq = 0u64;
        for i in 0..depth.max(1) {
            wheel.schedule(SimTime::from_nanos(delays[i & mask]), seq, i as u32);
            seq += 1;
        }
        let t = Instant::now();
        for _ in 0..WHEEL_OPS {
            let (time, _, item) = wheel.pop().expect("the wheel is never empty");
            let at = time.as_nanos() + delays[seq as usize & mask];
            wheel.schedule(SimTime::from_nanos(at), seq, black_box(item));
            seq += 1;
        }
        t.elapsed().as_nanos() as f64 / WHEEL_OPS as f64
    });
    median(reps.collect())
}

/// One `UniformLatency::delay` call, in nanoseconds.
fn uniform_delay_ns(seed: u64) -> f64 {
    let reps = (0..REPLAY_REPS).map(|rep| {
        let mut net = UniformLatency::from_millis(LATENCY_MS.0, LATENCY_MS.1);
        let mut rng = rng_from_seed(derive_seed(seed, 0xDE1A + rep as u64));
        let mut acc = 0u64;
        let t = Instant::now();
        for i in 0..DELAY_CALLS as usize {
            let d = net.delay(i % NODES, (i * 7) % NODES, 256, SimTime::ZERO, &mut rng);
            acc = acc.wrapping_add(d.map_or(0, SimDuration::as_nanos));
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / DELAY_CALLS as f64
    });
    median(reps.collect())
}

/// One `KadNode::closest_contacts` call on the built network, for the
/// workload's own origins and targets, in nanoseconds.
fn closest_contacts_ns(
    sim: &Simulation<KadNode>,
    ids: &[NodeId],
    lookups: &[(usize, Key)],
    k: usize,
) -> f64 {
    let calls = (CLOSEST_PASSES * lookups.len()) as f64;
    let reps = (0..REPLAY_REPS).map(|_| {
        let mut found = 0usize;
        let t = Instant::now();
        for _ in 0..CLOSEST_PASSES {
            for (origin, target) in lookups {
                found += black_box(sim.node(ids[*origin]).closest_contacts(target, k)).len();
            }
        }
        black_box(found);
        t.elapsed().as_nanos() as f64 / calls
    });
    median(reps.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_closest_matches_a_linear_scan() {
        let mut state = 7u64;
        let mut keys: Vec<Key> = (0..500)
            .map(|_| Key::from_u64(splitmix(&mut state)))
            .collect();
        keys.sort_unstable();
        for _ in 0..200 {
            let target = Key::from_u64(splitmix(&mut state));
            let scan = *keys
                .iter()
                .min_by_key(|k| k.xor_distance(&target))
                .expect("keys");
            assert_eq!(xor_closest(&keys, &target), scan);
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(inputs(3), inputs(3));
        assert_ne!(inputs(3), inputs(4));
    }
}
