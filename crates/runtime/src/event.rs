//! The deterministic discrete-event queue driving the serving engine.
//!
//! Events are ordered by simulated time; ties are broken by a
//! monotonically increasing sequence number assigned at push time, so the
//! pop order is a pure function of the push sequence — two runs that push
//! the same events in the same order pop them in the same order,
//! byte-for-byte. That, plus a single seeded RNG, is what makes whole
//! serving runs reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::UserId;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A user requests a model (the model is drawn when the event fires,
    /// so the draw order is the deterministic pop order).
    Request {
        /// The requesting user.
        user: UserId,
        /// The user's request generation when the event was scheduled.
        /// Every migration to another region bumps the generation and
        /// starts a fresh chain there, so an event whose generation is
        /// no longer current is a tombstone of an abandoned chain.
        generation: u32,
    },
    /// Users move for one mobility slot and the radio snapshot's coverage
    /// and rates are re-derived (the eligibility is left to the next
    /// re-plan) — server handover happens here.
    MobilitySlot,
    /// The last missing block of a cache fill arrives at an edge server:
    /// the pending model becomes servable.
    TransferComplete {
        /// The server whose fill completed.
        server: usize,
        /// The model that became servable.
        model: ModelId,
    },
    /// One tick of the online re-placement control loop: the demand
    /// estimator rolls its epoch, the drift detector inspects the tick's
    /// hit-ratio / latency window, and — if drift or the epoch timer
    /// fired — a re-plan is solved and staged through the reconciler.
    ControlTick,
    /// A pre-scheduled reconciliation towards an externally supplied
    /// target placement (the *oracle replan* baseline of the
    /// `serve-adapt` study: the target was computed from ground-truth
    /// future demand, but the bytes still move through the ordinary
    /// staged backhaul pipeline).
    ScheduledReconcile {
        /// Index into the engine's scheduled-reconcile list.
        index: usize,
    },
    /// One entry of the fault schedule fires: a server crashes or
    /// recovers, or a backhaul link degrades or is restored. The index
    /// refers into the configured `FaultConfig` timeline, which is part
    /// of the checkpointed configuration — an `Eq`-safe handle instead
    /// of inline fault payloads.
    FaultTransition {
        /// Index into `FaultConfig::timeline`.
        index: usize,
    },
    /// A fill aborted by a server failure retries: if the server is
    /// still down the retry re-arms with exponential backoff, otherwise
    /// the fill goes back through the ordinary admission path.
    RetryFill {
        /// The server whose fill is retried.
        server: usize,
        /// The model whose fill was aborted.
        model: ModelId,
        /// 1-based attempt number (drives the backoff exponent).
        attempt: u32,
    },
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated firing time in seconds.
    pub time_s: f64,
    /// Push sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// The action to perform.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event
        // first (and the lowest sequence number among equal times).
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time_s`.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is not finite — a non-finite firing time means
    /// an arrival-rate or mobility configuration bug and would otherwise
    /// poison the ordering invariant.
    pub fn push(&mut self, time_s: f64, kind: EventKind) {
        assert!(
            time_s.is_finite(),
            "event time must be finite, got {time_s}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time_s, seq, kind });
    }

    /// Pops the earliest event (lowest time, then lowest sequence).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The earliest pending event without removing it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The pending events in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter()
    }

    /// A canonical snapshot of the queue for checkpointing: the pending
    /// events in pop order plus the next sequence number. Restoring via
    /// [`EventQueue::restore`] reproduces the exact pop order (including
    /// tie-breaks) of the original queue.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64) {
        let mut events: Vec<Event> = self.heap.iter().copied().collect();
        events.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then_with(|| a.seq.cmp(&b.seq))
        });
        (events, self.next_seq)
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot`].
    pub(crate) fn restore(events: Vec<Event>, next_seq: u64) -> Self {
        Self {
            heap: events.into_iter().collect(),
            next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::MobilitySlot);
        q.push(
            1.0,
            EventKind::Request {
                user: UserId(0),
                generation: 0,
            },
        );
        q.push(
            2.0,
            EventKind::Request {
                user: UserId(1),
                generation: 0,
            },
        );
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time_s)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for k in 0..100 {
            q.push(
                5.0,
                EventKind::Request {
                    user: UserId(k),
                    generation: 0,
                },
            );
        }
        let users: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Request { user, .. } => user.index(),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(users, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_preserve_global_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::MobilitySlot);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().time_s, 2.0);
        q.push(4.0, EventKind::MobilitySlot);
        q.push(
            3.0,
            EventKind::Request {
                user: UserId(7),
                generation: 0,
            },
        );
        let first = q.pop().unwrap();
        assert_eq!(first.time_s, 3.0);
        assert!(matches!(first.kind, EventKind::Request { user, .. } if user == UserId(7)));
        assert_eq!(q.pop().unwrap().time_s, 4.0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::MobilitySlot);
    }
}
