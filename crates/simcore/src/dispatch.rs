//! The one event-dispatch core, shared by serial and sharded execution.
//!
//! Handler-effect semantics live here and nowhere else: liveness and
//! timer-epoch checks, handler invocation, effect application in
//! handler order, seq reservation, churn, the same-node batched drain,
//! and network-model routing. The core works on one node's
//! [`SlotView`] and hands every effect to a [`Sink`], which has two
//! implementations:
//!
//! - the simulation's live state (`engine::Live`, used by the serial
//!   loop, [`Simulation::step`](crate::engine::Simulation::step),
//!   [`Simulation::invoke`](crate::engine::Simulation::invoke) and the
//!   zero-lookahead fallback) routes each send at once through
//!   [`route`], pushes into the live queues, and keeps the trace and the
//!   pending/peak queue depth;
//! - a shard worker's log (`shard::Log`) pushes the node's own timers
//!   and churn events into the shard queue, and logs each dispatch and
//!   send for the commit phase, which routes the sends through the same
//!   [`route`] in serial `(time, seq)` order.
//!
//! Because both executors run this code, a change to dispatch semantics
//! lands once and cannot make sharded runs diverge from serial ones.

use crate::arena::{Rows, SlotView};
use crate::engine::{Action, Context, EngineEvent, EventKind, NetStats, Node, NodeId};
use crate::metrics::LogHistogram;
use crate::net::NetworkModel;
use crate::rng::SimRng;
use crate::sched::Scheduler;
use crate::time::SimTime;
use crate::trace::EventTag;

/// Event-loop counters. Shard workers keep one per window and the
/// commit phase merges it into the simulation's.
#[derive(Default)]
pub(crate) struct Counters {
    /// Events dispatched (driver hooks included on the simulation).
    pub(crate) processed: u64,
    /// Handler activations: outer drain iterations, each of which may
    /// dispatch several consecutive same-node events.
    pub(crate) activations: u64,
    /// Events dequeued but discarded without reaching a handler.
    pub(crate) cancelled: u64,
    /// Message counters. Workers count sends, deliveries and offline
    /// drops; routing (loss, duplication) happens on the simulation.
    pub(crate) net: NetStats,
    /// Distribution of per-message sizes handed to the network model.
    pub(crate) msg_bytes: LogHistogram,
}

impl Counters {
    /// Adds every counter of `o` into `self`.
    pub(crate) fn merge(&mut self, o: &Counters) {
        self.processed += o.processed;
        self.activations += o.activations;
        self.cancelled += o.cancelled;
        self.net.sent += o.net.sent;
        self.net.delivered += o.net.delivered;
        self.net.dropped_offline += o.net.dropped_offline;
        self.net.dropped_net += o.net.dropped_net;
        self.net.duplicated += o.net.duplicated;
        self.net.bytes_sent += o.net.bytes_sent;
        self.msg_bytes.merge(&o.msg_bytes);
    }
}

/// Queue-depth accounting, engine-tracked so it is identical across
/// schedulers and shard counts.
#[derive(Default)]
pub(crate) struct Depth {
    /// Events ever pushed (queues and hooks).
    pub(crate) scheduled: u64,
    /// Events currently pending across all queues (hooks excluded).
    pub(crate) pending: u64,
    /// High-water mark of `pending`, in canonical event order.
    pub(crate) peak: u64,
}

impl Depth {
    /// Counts `n` newly pushed events.
    pub(crate) fn push(&mut self, n: u64) {
        self.scheduled += n;
        self.pending += n;
        self.peak = self.peak.max(self.pending);
    }
}

/// One handler send, with the seqs it reserved for its delivery and
/// its potential fault-injected duplicate.
pub(crate) struct SendRec<M> {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) msg: M,
    pub(crate) bytes: u64,
    pub(crate) time: SimTime,
    pub(crate) seq_deliver: u64,
    pub(crate) seq_dup: u64,
}

/// Where the dispatch core sends a dispatch's effects.
pub(crate) trait Sink<M> {
    /// The scheduler behind [`Sink::queue`].
    type Queue: Scheduler<EngineEvent<M>>;
    /// The queue [`drain`] pops from.
    fn queue(&mut self) -> &mut Self::Queue;
    /// The counters dispatches update.
    fn counters(&mut self) -> &mut Counters;
    /// Called once per dispatched event, before any of its effects.
    fn dispatched(&mut self, time: SimTime, seq: u64, node: NodeId, tag: EventTag);
    /// Schedules an event the dispatched node originated for itself (a
    /// timer or a churn start/stop).
    fn push(&mut self, time: SimTime, seq: u64, ev: EngineEvent<M>);
    /// Takes one handler send, its seqs already reserved.
    fn send(&mut self, send: SendRec<M>);
    /// Called at the start of each activation.
    fn activation(&mut self) {}
}

/// Drains every event before `end` from the sink's queue.
///
/// Consecutive queue-head events bound for the same node drain in one
/// *activation* (batched delivery): the node's row is looked up once
/// and stays hot across its due events. The loop only ever pops the
/// exact queue head — a handler may schedule a same-time event whose
/// seq sorts before the rest of the queue — so the dispatch order is
/// the one an unbatched loop would produce.
pub(crate) fn drain<N: Node, K: Sink<N::Msg>>(
    rows: &mut impl Rows<N>,
    sink: &mut K,
    scratch: &mut Vec<Action<N::Msg>>,
    end: SimTime,
) {
    while let Some(t) = sink.queue().next_time() {
        if t >= end {
            break;
        }
        sink.activation();
        sink.counters().activations += 1;
        let (time, seq, ev) = sink.queue().pop().expect("peeked");
        let node = ev.node;
        let mut row = rows.row(node);
        dispatch(&mut row, time, seq, ev, sink, scratch);
        while let Some((t, _, next)) = sink.queue().peek() {
            if next.node != node || t >= end {
                break;
            }
            let (time, seq, ev) = sink.queue().pop().expect("peeked");
            dispatch(&mut row, time, seq, ev, sink, scratch);
        }
    }
}

/// Dispatches one popped event to its node (`row`): drops deliveries
/// to offline nodes, stale timers and redundant starts/stops, runs the
/// handler, applies its effects and drives the churn process.
pub(crate) fn dispatch<N: Node, K: Sink<N::Msg>>(
    row: &mut SlotView<'_, N>,
    time: SimTime,
    seq: u64,
    ev: EngineEvent<N::Msg>,
    sink: &mut K,
    scratch: &mut Vec<Action<N::Msg>>,
) {
    let id = ev.node;
    sink.dispatched(time, seq, id, ev.tag());
    let c = sink.counters();
    c.processed += 1;
    match ev.kind {
        EventKind::Deliver { src, msg } => {
            if !row.meta.online {
                c.net.dropped_offline += 1;
                c.cancelled += 1;
                return;
            }
            c.net.delivered += 1;
            apply(row, id, time, sink, scratch, |n, ctx| {
                n.on_message(src, msg, ctx)
            });
        }
        EventKind::Timer { tag, epoch } => {
            if !row.meta.online || row.meta.timer_epoch != epoch {
                c.cancelled += 1;
                return; // stale timer from before an offline period
            }
            apply(row, id, time, sink, scratch, |n, ctx| n.on_timer(tag, ctx));
        }
        EventKind::Start => {
            if row.meta.online {
                c.cancelled += 1;
                return;
            }
            row.meta.online = true;
            apply(row, id, time, sink, scratch, |n, ctx| n.on_start(ctx));
            if let Some(session) = row.churn.as_ref().map(|c| c.sample_session(row.rng)) {
                let seq = row.meta.next_seq(id);
                let ev = EngineEvent {
                    node: id,
                    kind: EventKind::Stop,
                };
                sink.push(time + session, seq, ev);
            }
        }
        EventKind::Stop => {
            if !row.meta.online {
                c.cancelled += 1;
                return;
            }
            apply(row, id, time, sink, scratch, |n, ctx| n.on_stop(ctx));
            // No-op if `on_stop` already called `go_offline()`: a stop
            // takes the node offline once.
            take_offline(row, id, time, sink);
        }
    }
}

/// Runs handler `f` on node `id` at `now`, then applies its deferred
/// effects in handler order. Returns the handler's result.
pub(crate) fn apply<N: Node, K: Sink<N::Msg>, R>(
    row: &mut SlotView<'_, N>,
    id: NodeId,
    now: SimTime,
    sink: &mut K,
    scratch: &mut Vec<Action<N::Msg>>,
    f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) -> R,
) -> R {
    let out = f(
        row.node,
        &mut Context {
            now,
            id,
            rng: row.rng,
            actions: scratch,
        },
    );
    let mut offline = false;
    for action in scratch.drain(..) {
        match action {
            Action::Send { dst, msg, bytes } => {
                let c = sink.counters();
                c.net.sent += 1;
                c.net.bytes_sent += bytes;
                c.msg_bytes.record(bytes);
                let (seq_deliver, seq_dup) = row.meta.reserve_send_seqs(id);
                sink.send(SendRec {
                    src: id,
                    dst,
                    msg,
                    bytes,
                    time: now,
                    seq_deliver,
                    seq_dup,
                });
            }
            Action::Timer { delay, tag } => {
                let epoch = row.meta.timer_epoch;
                let seq = row.meta.next_seq(id);
                let ev = EngineEvent {
                    node: id,
                    kind: EventKind::Timer { tag, epoch },
                };
                sink.push(now + delay, seq, ev);
            }
            Action::GoOffline => offline = true,
        }
    }
    if offline {
        take_offline(row, id, now, sink);
    }
    out
}

/// Takes an online node offline: invalidates its pending timers and,
/// under churn, schedules its restart. Does nothing to an offline node.
fn take_offline<N: Node, K: Sink<N::Msg>>(
    row: &mut SlotView<'_, N>,
    id: NodeId,
    now: SimTime,
    sink: &mut K,
) {
    if !row.meta.online {
        return;
    }
    row.meta.online = false;
    row.meta.timer_epoch = row.meta.timer_epoch.wrapping_add(1);
    if let Some(off) = row.churn.as_ref().map(|c| c.sample_offtime(row.rng)) {
        let seq = row.meta.next_seq(id);
        let ev = EngineEvent {
            node: id,
            kind: EventKind::Start,
        };
        sink.push(now + off, seq, ev);
    }
}

/// Routes one send through the network model, drawing from the
/// sender's network stream (`rng`), and hands the resulting deliveries
/// to `put`: the live queues on the serial path, the next window's
/// feeds in the sharded commit phase.
pub(crate) fn route<M: Clone>(
    net: &mut dyn NetworkModel,
    rng: &mut SimRng,
    stats: &mut NetStats,
    depth: &mut Depth,
    s: SendRec<M>,
    mut put: impl FnMut(SimTime, u64, EngineEvent<M>),
) {
    let Some(d) = net.delay(s.src, s.dst, s.bytes, s.time, rng) else {
        stats.dropped_net += 1;
        return;
    };
    // Fault-injected duplication: a no-op (and no RNG draw) for every
    // plain network model.
    if let Some(d2) = net.duplicate(s.src, s.dst, s.bytes, s.time, rng) {
        stats.duplicated += 1;
        depth.push(1);
        let msg = s.msg.clone();
        put(s.time + d2, s.seq_dup, deliver(s.src, s.dst, msg));
    }
    depth.push(1);
    put(s.time + d, s.seq_deliver, deliver(s.src, s.dst, s.msg));
}

fn deliver<M>(src: NodeId, dst: NodeId, msg: M) -> EngineEvent<M> {
    EngineEvent {
        node: dst,
        kind: EventKind::Deliver { src, msg },
    }
}

/// Caps a raw window end at the advance bound: the exclusive end of an
/// advance to `limit` (one nanosecond past it when the bound is
/// inclusive, so limit-time events still drain).
pub(crate) fn clamp_end(raw: SimTime, limit: SimTime, inclusive: bool) -> SimTime {
    let cap = if inclusive {
        SimTime::from_nanos(limit.as_nanos().saturating_add(1))
    } else {
        limit
    };
    raw.min(cap)
}
