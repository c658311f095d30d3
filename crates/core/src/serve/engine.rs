//! The event core of the serving simulator: the [`EventQueue`] trait the
//! simulator runs on, the calendar queue every production run uses (a
//! bucketed time wheel with an overflow heap) and [`HeapQueue`], the
//! `BinaryHeap` reference it is proven against.
//!
//! The simulator orders events by `(time_ns, seq)` where `seq` is a
//! unique, monotonically increasing insertion counter — so the ordering
//! is a *total* order and FIFO among same-timestamp events. Both queues
//! number events the same way: arrival `i` of the trace carries seq
//! `i + 1`, and the dynamic events the simulator pushes take `n + 1`,
//! `n + 2`, … in push order. Arrivals therefore tie among themselves by
//! trace order and win a same-instant tie with every dynamic event.
//!
//! A binary heap implements this order directly but pays `O(log n)`
//! pointer-chasing per operation with the entire event set resident; for
//! million-request traces the heap itself becomes the hot path.
//!
//! The calendar queue exploits the discrete-event structure instead:
//! every event is pushed at a time at or after the event currently being
//! processed (the simulator never schedules into the past), so the queue
//! only ever drains forward. Events land in a power-of-two ring of time
//! buckets (`bucket = (time >> shift) & mask`); pops scan the current
//! bucket for its `(time, seq)` minimum and advance the cursor through
//! empty buckets. Events beyond the wheel's one-rotation horizon wait in
//! a small overflow heap and are refilled as the horizon advances. With
//! a bucket width near the mean arrival spacing, pushes and pops are both
//! `O(1)` amortized. The arrival trace never enters the wheel: a pop
//! returns the trace's next arrival unless a dynamic event fires strictly
//! before it, so the wheel only ever holds in-flight dynamic events.
//!
//! **Determinism argument.** Within a bucket the pop selects the
//! strictly smallest `(time_ns, seq)` key — the same total order the
//! heap uses — and bucket boundaries only partition that order by time
//! ranges, so the pop sequence of [`CalendarQueue`] is *identical* to
//! [`HeapQueue`]'s for any push history the simulator can generate
//! (pushes never precede the last popped time). `swap_remove` reshuffles
//! bucket *positions* but selection is by key, never by position. The
//! oracle tests in `tests/engine_oracle.rs` assert byte-identical reports
//! and event logs between the two queues over randomized traffic and
//! fault mixes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled simulator event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Request `i` arrives at the router.
    Arrival(usize),
    /// Batch-delay timer for a replica: fire a waiting partial batch.
    Flush(usize),
    /// A replica finishes its in-flight batch.
    Complete(usize),
    /// Hedge timer for request `i`: dispatch a duplicate if still unserved.
    Hedge(usize),
    /// Backoff expired: re-dispatch lost request `i`.
    Redispatch(usize),
    /// Periodic autoscaler evaluation tick.
    Scale,
    /// A warming-up replica finishes activation and joins the fleet.
    Activate(usize),
}

/// One scheduled simulator event, totally ordered by `(time_ns, seq)`.
///
/// `seq` is unique per simulation (a monotone insertion counter), so the
/// derived ordering never reaches `kind` and same-timestamp events pop
/// in FIFO insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Scheduled firing time, integer nanoseconds.
    pub time_ns: u64,
    /// Insertion sequence number (unique, monotone).
    seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Event {
    /// Arrival `i` of the trace: seq `i + 1`, below every dynamic event's.
    fn arrival(i: usize, time_ns: u64) -> Event {
        Event {
            time_ns,
            seq: i as u64 + 1,
            kind: EventKind::Arrival(i),
        }
    }
}

/// An event queue the serving simulator runs on.
///
/// A queue is built from the run's arrival trace (nanoseconds,
/// non-decreasing) and numbers every event itself: arrival `i` carries
/// seq `i + 1`, and each push takes the next seq after the trace's. Pops
/// return the events in `(time_ns, seq)` order. The caller keeps the
/// trace and passes it to every pop, so no queue copies it. Pushes must
/// not precede the time of the last popped event.
pub trait EventQueue {
    /// The queue for a run over `trace`, holding no dynamic event yet.
    fn from_trace(trace: &[u64]) -> Self;

    /// Schedules `kind` at `time_ns`, after every arrival and every event
    /// already pushed at that instant.
    fn push(&mut self, time_ns: u64, kind: EventKind);

    /// Removes and returns the `(time_ns, seq)`-minimum event. `trace` is
    /// the one the queue was built from.
    fn pop(&mut self, trace: &[u64]) -> Option<Event>;
}

/// Number of buckets in the wheel (power of two).
const N_BUCKETS: usize = 1024;

/// Bucket-width exponent bounds: 2^8 ns = 256 ns up to 2^36 ns ≈ 69 s.
const MIN_SHIFT: u32 = 8;
const MAX_SHIFT: u32 = 36;

/// A calendar queue: a power-of-two ring of time buckets plus an
/// overflow heap for events beyond the wheel's one-rotation horizon,
/// merged with the arrival trace at pop time.
///
/// Under the monotone-insert contract of [`EventQueue`] its pop sequence
/// equals [`HeapQueue`]'s exactly (see the module docs for the
/// argument).
#[derive(Debug)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Event>>,
    /// `N_BUCKETS - 1`, for masking bucket indices.
    mask: u64,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Cursor: the bucket currently being drained.
    cur: usize,
    /// Low time edge of the cursor bucket's current rotation.
    base_ns: u64,
    /// Exclusive upper edge of the wheel's coverage (`base + rotation`).
    horizon_ns: u64,
    /// Events resident in the wheel.
    wheel_len: usize,
    /// Events at or beyond `horizon_ns`, waiting to be wheeled in.
    overflow: BinaryHeap<Reverse<Event>>,
    /// Index of the first arrival of the trace not yet popped.
    next_arrival: usize,
    /// Seq of the last event pushed (the trace holds seqs `1..=n`).
    seq: u64,
}

impl CalendarQueue {
    /// An empty queue sized for roughly `n_events` spread over `span_ns`
    /// nanoseconds: the bucket width is the power of two nearest the
    /// mean event spacing (clamped to a sane range), so steady-state
    /// occupancy stays at a few events per bucket.
    fn new(span_ns: u64, n_events: usize) -> CalendarQueue {
        let gap = (span_ns / n_events.max(1) as u64).max(1);
        // Smallest power of two >= gap, i.e. ceil(log2(gap)).
        let shift = (64 - (gap - 1).leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        let width = 1u64 << shift;
        CalendarQueue {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (N_BUCKETS - 1) as u64,
            shift,
            cur: 0,
            base_ns: 0,
            horizon_ns: width.saturating_mul(N_BUCKETS as u64),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_arrival: 0,
            seq: 0,
        }
    }

    /// Dynamic events queued (wheel plus overflow).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Width of one bucket, nanoseconds.
    fn width_ns(&self) -> u64 {
        1u64 << self.shift
    }

    /// Files an event: events inside the wheel's horizon go straight to
    /// their bucket; later events wait in the overflow heap.
    fn insert(&mut self, ev: Event) {
        if ev.time_ns >= self.horizon_ns {
            self.overflow.push(Reverse(ev));
            return;
        }
        let idx = if ev.time_ns < self.base_ns {
            // Defensive: a push at or before the cursor's window still
            // pops correctly from the cursor bucket (selection is by
            // key). The simulator's monotone contract makes this rare.
            self.cur
        } else {
            ((ev.time_ns >> self.shift) & self.mask) as usize
        };
        self.buckets[idx].push(ev);
        self.wheel_len += 1;
    }

    /// Removes and returns the `(time_ns, seq)`-minimum dynamic event —
    /// with a `limit_ns`, only if it fires strictly before the limit;
    /// otherwise the queue is untouched and `None` is returned.
    fn pop_before(&mut self, limit_ns: Option<u64>) -> Option<Event> {
        if self.wheel_len == 0 {
            // Jump the wheel straight to the overflow's earliest
            // rotation instead of stepping through empty buckets.
            let top = self.overflow.peek()?.0.time_ns;
            if limit_ns.is_some_and(|lim| top >= lim) {
                return None;
            }
            self.base_ns = (top >> self.shift) << self.shift;
            self.cur = ((top >> self.shift) & self.mask) as usize;
            self.horizon_ns = self
                .base_ns
                .saturating_add(self.width_ns().saturating_mul(N_BUCKETS as u64));
            self.refill();
        }
        loop {
            if !self.buckets[self.cur].is_empty() {
                let bucket = &self.buckets[self.cur];
                let mut best = 0;
                for i in 1..bucket.len() {
                    if (bucket[i].time_ns, bucket[i].seq) < (bucket[best].time_ns, bucket[best].seq)
                    {
                        best = i;
                    }
                }
                if limit_ns.is_some_and(|lim| bucket[best].time_ns >= lim) {
                    return None;
                }
                let ev = self.buckets[self.cur].swap_remove(best);
                self.wheel_len -= 1;
                return Some(ev);
            }
            // Every wheel event lives in [base, horizon): the cursor
            // reaches a non-empty bucket within one rotation.
            self.cur = (self.cur + 1) & self.mask as usize;
            self.base_ns = self.base_ns.saturating_add(self.width_ns());
            self.horizon_ns = self.horizon_ns.saturating_add(self.width_ns());
            self.refill();
        }
    }

    /// Moves overflow events that now fall inside the horizon onto the
    /// wheel.
    fn refill(&mut self) {
        while let Some(&Reverse(top)) = self.overflow.peek() {
            if top.time_ns >= self.horizon_ns {
                break;
            }
            self.overflow.pop();
            let idx = ((top.time_ns >> self.shift) & self.mask) as usize;
            self.buckets[idx].push(top);
            self.wheel_len += 1;
        }
    }
}

impl EventQueue for CalendarQueue {
    fn from_trace(trace: &[u64]) -> CalendarQueue {
        // A bucket per mean arrival gap: the wheel holds only the dynamic
        // events (flushes, completions, resilience timers), which track
        // the arrival rate.
        let mut q = CalendarQueue::new(trace.last().copied().unwrap_or(0), trace.len());
        q.seq = trace.len() as u64;
        q
    }

    fn push(&mut self, time_ns: u64, kind: EventKind) {
        self.seq += 1;
        self.insert(Event {
            time_ns,
            seq: self.seq,
            kind,
        });
    }

    fn pop(&mut self, trace: &[u64]) -> Option<Event> {
        // The next arrival fires unless a dynamic event fires strictly
        // before it: at the same instant the arrival's seq is the lower.
        let next = trace.get(self.next_arrival).copied();
        if let Some(ev) = self.pop_before(next) {
            return Some(ev);
        }
        let at = next?;
        let i = self.next_arrival;
        self.next_arrival += 1;
        Some(Event::arrival(i, at))
    }
}

/// The reference queue: a `BinaryHeap` that holds the whole arrival
/// trace from the start, the design the calendar queue replaced. It is
/// the oracle of the engine tests and the baseline of the event benches;
/// no production path runs it.
#[derive(Debug)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
    /// Seq of the last event pushed (the trace holds seqs `1..=n`).
    seq: u64,
}

impl EventQueue for HeapQueue {
    fn from_trace(trace: &[u64]) -> HeapQueue {
        HeapQueue {
            heap: trace
                .iter()
                .enumerate()
                .map(|(i, &time_ns)| Reverse(Event::arrival(i, time_ns)))
                .collect(),
            seq: trace.len() as u64,
        }
    }

    fn push(&mut self, time_ns: u64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time_ns,
            seq: self.seq,
            kind,
        }));
    }

    fn pop(&mut self, _trace: &[u64]) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift stream for the interleaving tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn same_timestamp_events_pop_in_fifo_order() {
        let mut q = CalendarQueue::new(1_000_000, 100);
        for r in 0..64 {
            q.push(5_000, EventKind::Flush(r));
        }
        for expect in 0..64 {
            assert_eq!(q.pop(&[]).unwrap().kind, EventKind::Flush(expect));
        }
        assert!(q.pop(&[]).is_none());
    }

    #[test]
    fn pop_order_matches_binary_heap_oracle() {
        // A deterministic pseudo-random push/pop interleaving that obeys
        // the monotone-insert contract (pushes never precede the last
        // popped time).
        let mut cal = CalendarQueue::new(10_000_000, 64);
        let mut heap = HeapQueue::from_trace(&[]);
        let mut rnd = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut now = 0u64;
        let mut popped = Vec::new();
        for round in 0..5_000 {
            // A few pushes at or after `now`, spanning bucket widths and
            // the overflow horizon.
            for _ in 0..(rnd() % 4) {
                let span = match rnd() % 4 {
                    0 => rnd() % 512,           // same bucket
                    1 => rnd() % 100_000,       // nearby buckets
                    2 => rnd() % 50_000_000,    // across the wheel
                    _ => rnd() % 5_000_000_000, // deep overflow
                };
                cal.push(now + span, EventKind::Flush(0));
                heap.push(now + span, EventKind::Flush(0));
            }
            if round % 3 != 0 {
                let a = cal.pop(&[]);
                let b = heap.pop(&[]);
                assert_eq!(a, b, "divergence at round {round}");
                if let Some(e) = a {
                    assert!(e.time_ns >= now, "time went backwards");
                    now = e.time_ns;
                    popped.push(e);
                }
            }
        }
        // Drain both completely.
        loop {
            let a = cal.pop(&[]);
            assert_eq!(a, heap.pop(&[]));
            match a {
                Some(e) => popped.push(e),
                None => break,
            }
        }
        assert!(popped
            .windows(2)
            .all(|w| (w[0].time_ns, w[0].seq) < (w[1].time_ns, w[1].seq)));
    }

    /// The arrival merge, at the queue level: a trace with runs of up to
    /// five same-instant arrivals, and dynamic events pushed at arrival
    /// instants (ties an arrival must win), a few nanoseconds later, and
    /// beyond the wheel's horizon. Driven through the trait, the calendar
    /// queue and the heap reference pop identical sequences.
    #[test]
    fn arrival_merge_matches_the_heap_queue() {
        let mut rnd = xorshift(0x2545_f491_4f6c_dd1d);
        let mut trace = Vec::new();
        let mut t = 0u64;
        while trace.len() < 4_000 {
            t += [0, 1, 300, 20_000][(rnd() % 4) as usize];
            for _ in 0..1 + rnd() % 5 {
                trace.push(t);
            }
        }
        let mut cal = CalendarQueue::from_trace(&trace);
        let mut heap = HeapQueue::from_trace(&trace);
        let mut popped = Vec::new();
        loop {
            let a = cal.pop(&trace);
            assert_eq!(a, heap.pop(&trace), "divergence after {popped:?}");
            let Some(ev) = a else { break };
            if let EventKind::Arrival(i) = ev.kind {
                for _ in 0..rnd() % 3 {
                    let later = [0, 0, 1, 7, 300, 1 << 40][(rnd() % 6) as usize];
                    cal.push(ev.time_ns + later, EventKind::Complete(i));
                    heap.push(ev.time_ns + later, EventKind::Complete(i));
                }
            }
            popped.push(ev);
        }
        let arrivals = popped
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Arrival(_)))
            .count();
        assert_eq!(arrivals, trace.len());
        assert!(popped.len() > 3 * arrivals / 2, "too few dynamic events");
        // Arrival seqs precede every dynamic one, so a strictly rising
        // `(time, seq)` means no arrival follows a dynamic event of its
        // instant.
        assert!(popped
            .windows(2)
            .all(|w| (w[0].time_ns, w[0].seq) < (w[1].time_ns, w[1].seq)));
    }

    #[test]
    fn dynamic_events_wait_for_earlier_arrivals() {
        let trace = [150, 150];
        let mut q = CalendarQueue::from_trace(&trace);
        q.push(100, EventKind::Flush(0));
        q.push(150, EventKind::Flush(1));
        q.push(200, EventKind::Flush(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop(&trace))
            .map(|e| (e.time_ns, e.seq, e.kind))
            .collect();
        assert_eq!(
            order,
            [
                (100, 3, EventKind::Flush(0)),
                (150, 1, EventKind::Arrival(0)),
                (150, 2, EventKind::Arrival(1)),
                (150, 4, EventKind::Flush(1)),
                (200, 5, EventKind::Flush(2)),
            ]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overflow_events_surface_in_order() {
        // Span tiny, so the horizon is short and far events overflow.
        let mut q = CalendarQueue::new(1_000, 1000);
        q.push(u64::MAX - 1, EventKind::Flush(1));
        q.push(1 << 40, EventKind::Flush(2));
        q.push(10, EventKind::Flush(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(&[]).unwrap().kind, EventKind::Flush(3));
        assert_eq!(q.pop(&[]).unwrap().kind, EventKind::Flush(2));
        assert_eq!(q.pop(&[]).unwrap().kind, EventKind::Flush(1));
        assert!(q.pop(&[]).is_none());
    }
}
