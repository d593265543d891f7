//! The deterministic discrete-event queue driving the serving engine.
//!
//! **The contract.** Events pop in `(time_s, seq)` order: time by
//! [`f64::total_cmp`], then the sequence number [`EventQueue::push`]
//! assigns, one per push, counting up. So the pop order is a pure
//! function of the push sequence, and two runs that push the same events
//! in the same order pop them in the same order, byte-for-byte. Times
//! must be finite and non-negative, `-0.0` excluded: on such times the
//! order is that of the raw bits, so an event's key is one integer,
//! `(time bits << 64) | seq`.
//!
//! **Two structures.** Almost every pending event is a `Request`, and a
//! user has one live request chain per region. Each user the queue has
//! seen a `Request` of owns a *slot*, and a loser tree over the slots
//! holds their requests: inner nodes keep the loser of their match, node
//! 0 the winner. [`EventQueue::pop`] takes the winner and leaves its slot
//! *vacated*. If the same user's next `Request` is the next push into
//! the tree — the serve path's pattern — it refills the slot with one
//! leaf-to-root replay; any other read first replays the slot as empty.
//! Filling any other slot (a new user, a chain restarted by a migration)
//! marks the tree for one rebuild at the next read. Every other kind,
//! and a second live `Request` of a user whose slot is occupied (a user
//! who migrated away and back before the old chain's tombstone popped),
//! waits in a small side [`BinaryHeap`]; a pop takes the lesser head.
//! A checkpoint snapshot merges both into one list in pop order.

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

/// The key of an empty slot: above every key a valid push can make.
const EMPTY: u128 = u128::MAX;

/// An event's pop-order key. For finite non-negative times other than
/// `-0.0` the bits order like [`f64::total_cmp`].
fn key_of(time_s: f64, seq: u64) -> u128 {
    (u128::from(time_s.to_bits()) << 64) | u128::from(seq)
}

/// A deterministic time-ordered event queue — see the module docs for
/// the contract and the two structures behind it.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// Every pending event that is not in a slot.
    side: BinaryHeap<Event>,
    /// Per slot: the pending request's key, or [`EMPTY`].
    keys: Vec<u128>,
    /// Per slot: its user, ascending, so finding a slot is a binary
    /// search.
    users: Vec<u32>,
    /// Per slot: the pending request's generation.
    generations: Vec<u32>,
    /// The loser tree: with `n` slots, slot `i` is leaf `n + i` of the
    /// implicit layout, `tree[p]` the loser at inner node `p` and
    /// `tree[0]` the winner.
    tree: Vec<u32>,
    /// Slots holding a pending request.
    occupied: usize,
    /// The popped winner's slot, emptied but not yet replayed.
    vacant: Option<usize>,
    /// A slot was filled off the winner's path: rebuild before reading.
    stale: bool,
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
    /// Panics unless `time_s` is finite and non-negative (`-0.0`
    /// included) — such a firing time means an arrival-rate, mobility or
    /// schedule configuration bug and would otherwise break the ordering
    /// contract.
    pub fn push(&mut self, time_s: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Event { time_s, seq, kind });
    }

    /// Files an event with its sequence number already assigned.
    fn insert(&mut self, event: Event) {
        let time_s = event.time_s;
        assert!(
            time_s.is_finite() && time_s.is_sign_positive(),
            "event time must be finite and non-negative (not -0.0), got {time_s}"
        );
        if let EventKind::Request { user, generation } = event.kind {
            if self.fill_slot(user.index(), key_of(time_s, event.seq), generation) {
                return;
            }
        }
        self.side.push(event);
    }

    /// Puts a request of user `k` into the user's slot, adding the slot
    /// if needed; `false` when the slot is occupied.
    fn fill_slot(&mut self, k: usize, key: u128, generation: u32) -> bool {
        let refill = self.vacant.filter(|&w| self.users[w] as usize == k);
        let slot = match refill {
            Some(w) => w,
            None => match self.users.binary_search(&(k as u32)) {
                Ok(slot) if self.keys[slot] != EMPTY => return false,
                Ok(slot) => slot,
                // A new slot shifts the ones after it; the rebuild
                // re-derives the tree from the keys alone.
                Err(slot) => {
                    self.keys.insert(slot, EMPTY);
                    self.users.insert(slot, k as u32);
                    self.generations.insert(slot, 0);
                    slot
                }
            },
        };
        self.keys[slot] = key;
        self.generations[slot] = generation;
        self.occupied += 1;
        self.vacant = None;
        match refill {
            Some(w) => self.replay(w),
            None => self.stale = true,
        }
        true
    }

    /// Replays slot `i` from its leaf to the root. Exact when `i` is the
    /// winner, whatever its new key.
    fn replay(&mut self, i: usize) {
        let (mut winner, mut key) = (i as u32, self.keys[i]);
        let mut node = (self.keys.len() + i) / 2;
        while node > 0 {
            let loser = self.tree[node];
            let loser_key = self.keys[loser as usize];
            let swap = loser_key < key;
            self.tree[node] = if swap { winner } else { loser };
            (winner, key) = if swap {
                (loser, loser_key)
            } else {
                (winner, key)
            };
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Rebuilds the loser tree bottom-up from the slot keys.
    fn rebuild(&mut self) {
        let n = self.keys.len();
        // `won[p]`: the winner of node `p`'s subtree; a leaf wins itself.
        let mut won = vec![0; n];
        won.extend(0..n as u32);
        self.tree.resize(n.max(1), 0);
        for p in (1..n).rev() {
            let (a, b) = (won[2 * p], won[2 * p + 1]);
            let (w, l) = if self.keys[b as usize] < self.keys[a as usize] {
                (b, a)
            } else {
                (a, b)
            };
            won[p] = w;
            self.tree[p] = l;
        }
        self.tree[0] = won.get(1).copied().unwrap_or(0);
    }

    /// Brings the tree up to date and returns the earliest event with
    /// its slot (`None` for the side heap).
    fn head(&mut self) -> Option<(Event, Option<usize>)> {
        if self.stale {
            self.rebuild();
            self.stale = false;
            self.vacant = None;
        } else if let Some(w) = self.vacant.take() {
            self.replay(w);
        }
        let slot = (self.occupied > 0).then(|| self.tree[0] as usize);
        match (slot, self.side.peek()) {
            (Some(w), Some(e)) if key_of(e.time_s, e.seq) < self.keys[w] => Some((*e, None)),
            (Some(w), _) => Some((self.slot_event(w), Some(w))),
            (None, side) => side.map(|e| (*e, None)),
        }
    }

    /// The pending request of slot `i`.
    fn slot_event(&self, i: usize) -> Event {
        let key = self.keys[i];
        Event {
            time_s: f64::from_bits((key >> 64) as u64),
            seq: key as u64,
            kind: EventKind::Request {
                user: UserId(self.users[i] as usize),
                generation: self.generations[i],
            },
        }
    }

    /// Pops the earliest event (lowest time, then lowest sequence).
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_due(f64::INFINITY)
    }

    /// Pops the earliest event if it fires at or before `stop_s`.
    pub fn pop_due(&mut self, stop_s: f64) -> Option<Event> {
        let (event, slot) = self.head()?;
        if event.time_s > stop_s {
            return None;
        }
        match slot {
            Some(w) => {
                self.keys[w] = EMPTY;
                self.occupied -= 1;
                self.vacant = Some(w);
            }
            None => {
                self.side.pop();
            }
        }
        Some(event)
    }

    /// The earliest pending event without removing it.
    pub fn peek(&mut self) -> Option<Event> {
        self.head().map(|(event, _)| event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.side.len() + self.occupied
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending events in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let slots = (0..self.keys.len()).filter(|&i| self.keys[i] != EMPTY);
        self.side
            .iter()
            .copied()
            .chain(slots.map(|i| self.slot_event(i)))
    }

    /// A canonical snapshot of the queue for checkpointing: the pending
    /// events of both structures in pop order plus the next sequence
    /// number. Restoring via [`EventQueue::restore`] reproduces the exact
    /// pop order (including tie-breaks) of the original queue.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64) {
        let mut events: Vec<Event> = self.iter().collect();
        events.sort_by_key(|e| key_of(e.time_s, e.seq));
        (events, self.next_seq)
    }

    /// Rebuilds a queue from a [`EventQueue::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics on an event time [`EventQueue::push`] rejects; a restore
    /// checks a checkpoint's events before it gets here.
    pub(crate) fn restore(mut events: Vec<Event>, next_seq: u64) -> Self {
        let mut queue = Self {
            next_seq,
            ..Self::default()
        };
        // Requests by ascending user, so every new slot is appended.
        events.sort_by_key(|e| match e.kind {
            EventKind::Request { user, .. } => user.index(),
            _ => usize::MAX,
        });
        for event in events {
            queue.insert(event);
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `-0.0 >= 0.0` holds, but its bits sort above every positive time:
    /// a push must refuse it like any negative time, into a slot or the
    /// side heap.
    #[test]
    fn negative_and_negative_zero_times_are_rejected() {
        let kinds = [
            EventKind::MobilitySlot,
            EventKind::Request {
                user: UserId(3),
                generation: 0,
            },
        ];
        for time_s in [-0.0, -1.0, -f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            for kind in kinds {
                let pushed = std::panic::catch_unwind(|| EventQueue::new().push(time_s, kind));
                assert!(pushed.is_err(), "{time_s} accepted for {kind:?}");
            }
        }
        let mut q = EventQueue::new();
        q.push(0.0, kinds[1]);
        assert_eq!(q.pop().map(|e| e.time_s.to_bits()), Some(0));
    }

    /// A random event kind: requests of `users` users (half the draws, so
    /// slots see refills, second live requests and stale generations)
    /// and every other kind.
    fn random_kind(rng: &mut StdRng, users: usize) -> EventKind {
        match rng.gen_range(0..14) {
            0..=6 => EventKind::Request {
                user: UserId(rng.gen_range(0..users)),
                generation: rng.gen_range(0..3),
            },
            7 => EventKind::MobilitySlot,
            8 => EventKind::TransferComplete {
                server: rng.gen_range(0..4),
                model: ModelId(rng.gen_range(0..5)),
            },
            9 => EventKind::ControlTick,
            10 => EventKind::ScheduledReconcile {
                index: rng.gen_range(0..3),
            },
            11 => EventKind::FaultTransition {
                index: rng.gen_range(0..3),
            },
            _ => EventKind::RetryFill {
                server: rng.gen_range(0..4),
                model: ModelId(rng.gen_range(0..5)),
                attempt: rng.gen_range(1..4),
            },
        }
    }

    /// A random event time at or after `now`: often exactly `now` or
    /// `0.0`, so equal times are common.
    fn random_time(rng: &mut StdRng, now: f64) -> f64 {
        match rng.gen_range(0..6) {
            0 => 0.0,
            1 => now,
            2 => now + f64::from(rng.gen_range(0..4u32)) * 0.5,
            _ => now + rng.gen_range(0.0..5.0),
        }
    }

    /// An [`EventQueue`] beside a plain `BinaryHeap<Event>` reference
    /// numbered the same way.
    #[derive(Default)]
    struct Oracle {
        queue: EventQueue,
        reference: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl Oracle {
        fn push(&mut self, time_s: f64, kind: EventKind) {
            self.queue.push(time_s, kind);
            let seq = self.next_seq;
            self.reference.push(Event { time_s, seq, kind });
            self.next_seq += 1;
        }

        /// The reference's pending events in pop order.
        fn expected(&self) -> Vec<Event> {
            let mut events = self.reference.clone().into_sorted_vec();
            events.reverse();
            events
        }
    }

    /// Runs `ops` random operations — push, pop, pop-until, peek, len,
    /// snapshot and restore — on an [`EventQueue`] and on a
    /// `BinaryHeap<Event>` reference, and requires every answer to agree.
    /// After popping a request the same user's next request is usually
    /// the next push, the serve path's pattern the vacated slot exists
    /// for.
    fn run_queue_oracle(seed: u64, ops: usize, users: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut o = Oracle::default();
        let mut now = 0.0;
        for op in 0..ops {
            // Pushes outweigh pops until about four events per user wait.
            let push_share = if o.reference.len() < 4 * users { 9 } else { 4 };
            match rng.gen_range(0..40) {
                0 => {
                    let (events, next_seq) = o.queue.snapshot();
                    o.queue = EventQueue::restore(events, next_seq);
                }
                1 => {
                    let (events, next_seq) = o.queue.snapshot();
                    assert_eq!(events, o.expected(), "snapshot at op {op}");
                    assert_eq!(next_seq, o.next_seq);
                }
                2..=4 => {
                    assert_eq!(
                        o.queue.peek(),
                        o.reference.peek().copied(),
                        "peek at op {op}"
                    );
                    assert_eq!(o.queue.len(), o.reference.len(), "len at op {op}");
                    assert_eq!(o.queue.is_empty(), o.reference.is_empty());
                }
                5..=7 => {
                    let stop_s = now + rng.gen_range(0.0..2.0);
                    let due = o.reference.peek().is_some_and(|e| e.time_s <= stop_s);
                    let expected = if due { o.reference.pop() } else { None };
                    assert_eq!(o.queue.pop_due(stop_s), expected, "pop_due at op {op}");
                }
                r if r < 8 + push_share * 2 => {
                    let (t, kind) = (random_time(&mut rng, now), random_kind(&mut rng, users));
                    o.push(t, kind);
                }
                _ => {
                    let popped = o.queue.pop();
                    assert_eq!(popped, o.reference.pop(), "pop at op {op}");
                    let Some(event) = popped else { continue };
                    now = event.time_s;
                    if let EventKind::Request { user, generation } = event.kind {
                        if rng.gen_bool(0.2) {
                            let kind = random_kind(&mut rng, users);
                            o.push(random_time(&mut rng, now), kind);
                        }
                        if rng.gen_bool(0.8) {
                            let t = random_time(&mut rng, now);
                            o.push(t, EventKind::Request { user, generation });
                        }
                    }
                }
            }
        }
        let expected = o.expected();
        let drained: Vec<Event> = std::iter::from_fn(|| o.queue.pop()).collect();
        assert_eq!(drained, expected);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The queue pops like a `BinaryHeap<Event>` under random
        /// operation sequences over a few users.
        #[test]
        fn queue_pops_like_a_binary_heap(seed in 0u64..1_000_000, users in 1usize..8) {
            run_queue_oracle(seed, 400, users);
        }
    }

    /// The oracle at scale: ~10⁵ random operations over 500 users.
    #[test]
    fn event_queue_oracle_smoke() {
        run_queue_oracle(2024, 100_000, 500);
    }
}
