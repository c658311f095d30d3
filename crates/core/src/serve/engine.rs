//! The event core of the serving simulator: a calendar queue (bucketed
//! time wheel with an overflow heap) and the `BinaryHeap` oracle it is
//! proven against.
//!
//! The simulator orders events by `(time_ns, seq)` where `seq` is a
//! unique, monotonically increasing insertion counter — so the ordering
//! is a *total* order and FIFO among same-timestamp events. A binary
//! heap implements this directly but pays `O(log n)` pointer-chasing
//! per operation with the entire event set resident; for million-request
//! traces the heap itself becomes the hot path.
//!
//! The calendar queue exploits the discrete-event structure instead:
//! every event is pushed at a time at or after the event currently being
//! processed (the simulator never schedules into the past), so the queue
//! only ever drains forward. Events land in a power-of-two ring of time
//! buckets (`bucket = (time >> shift) & mask`); pops scan the current
//! bucket for its `(time, seq)` minimum and advance the cursor through
//! empty buckets. Events beyond the wheel's one-rotation horizon wait in
//! a small overflow heap and are refilled as the horizon advances. With
//! a bucket width near the mean event spacing, pushes and pops are both
//! `O(1)` amortized.
//!
//! **Determinism argument.** Within a bucket the pop selects the
//! strictly smallest `(time_ns, seq)` key — the same total order the
//! heap uses — and bucket boundaries only partition that order by time
//! ranges, so the pop sequence of [`CalendarQueue`] is *identical* to
//! the heap's for any push history the simulator can generate (pushes
//! never precede the last popped time). `swap_remove` reshuffles bucket
//! *positions* but selection is by key, never by position. The oracle
//! tests in `tests/engine_oracle.rs` assert byte-identical reports and
//! event logs between the two engines over randomized traffic and fault
//! mixes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event-queue implementation a serving run uses.
///
/// Both engines produce byte-identical reports and event logs; the
/// binary heap is retained as the from-scratch oracle the calendar
/// queue is continuously verified against (and as the baseline for the
/// events/sec benches). Only tests and benches pick the oracle, through
/// [`super::ServeConfig::with_engine`]; the CLI always runs the calendar
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bucketed time wheel with overflow heap — the default.
    Calendar,
    /// `BinaryHeap<Reverse<Event>>` oracle (the pre-calendar engine).
    BinaryHeap,
}

impl EngineKind {
    /// Stable name (`calendar` / `heap`) for test and bench messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Calendar => "calendar",
            EngineKind::BinaryHeap => "heap",
        }
    }
}

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
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

/// Number of buckets in the wheel (power of two).
const N_BUCKETS: usize = 1024;

/// Bucket-width exponent bounds: 2^8 ns = 256 ns up to 2^36 ns ≈ 69 s.
const MIN_SHIFT: u32 = 8;
const MAX_SHIFT: u32 = 36;

/// A calendar queue: a power-of-two ring of time buckets plus an
/// overflow heap for events beyond the wheel's one-rotation horizon.
///
/// Requires the simulator's monotone-insert property: every push carries
/// a `time_ns` at or after the time of the most recently popped event.
/// Under that contract the pop sequence equals a binary heap's exactly
/// (see the module docs for the argument).
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
}

impl CalendarQueue {
    /// Builds a queue sized for roughly `n_events` spread over `span_ns`
    /// nanoseconds: the bucket width is the power of two nearest the
    /// mean event spacing (clamped to a sane range), so steady-state
    /// occupancy stays at a few events per bucket.
    pub fn new(span_ns: u64, n_events: usize) -> CalendarQueue {
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
        }
    }

    /// Total events queued (wheel plus overflow).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether the queue holds no events.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of one bucket, nanoseconds.
    fn width_ns(&self) -> u64 {
        1u64 << self.shift
    }

    /// Inserts an event. Events inside the wheel's horizon go straight
    /// to their bucket; later events wait in the overflow heap.
    pub fn push(&mut self, ev: Event) {
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

    /// Removes and returns the `(time_ns, seq)`-minimum event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_impl(None)
    }

    /// Like [`CalendarQueue::pop`], but only if the minimum event fires
    /// strictly before `limit_ns`; otherwise the queue is untouched and
    /// `None` is returned. Used to merge the lazily-streamed arrival
    /// trace with the dynamic event set (arrivals win ties by
    /// construction: their sequence numbers precede every dynamic
    /// event's).
    pub fn pop_if_before(&mut self, limit_ns: u64) -> Option<Event> {
        self.pop_impl(Some(limit_ns))
    }

    fn pop_impl(&mut self, limit_ns: Option<u64>) -> Option<Event> {
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

/// The pluggable event queue: the calendar wheel or its binary-heap
/// oracle, behind one push/pop interface.
#[derive(Debug)]
pub(crate) enum EventQueue {
    /// Bucketed time-wheel engine.
    Calendar(CalendarQueue),
    /// From-scratch `BinaryHeap` oracle.
    Heap(BinaryHeap<Reverse<Event>>),
}

impl EventQueue {
    /// Builds the queue for `kind`, sized for `n_events` over `span_ns`.
    pub(crate) fn new(kind: EngineKind, span_ns: u64, n_events: usize) -> EventQueue {
        match kind {
            EngineKind::Calendar => EventQueue::Calendar(CalendarQueue::new(span_ns, n_events)),
            EngineKind::BinaryHeap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    /// Inserts an event.
    pub(crate) fn push(&mut self, ev: Event) {
        match self {
            EventQueue::Calendar(q) => q.push(ev),
            EventQueue::Heap(h) => h.push(Reverse(ev)),
        }
    }

    /// Removes and returns the `(time_ns, seq)`-minimum event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Heap(h) => h.pop().map(|Reverse(ev)| ev),
        }
    }

    /// Pops the minimum event only if it fires strictly before
    /// `limit_ns` (see [`CalendarQueue::pop_if_before`]).
    pub(crate) fn pop_if_before(&mut self, limit_ns: u64) -> Option<Event> {
        match self {
            EventQueue::Calendar(q) => q.pop_if_before(limit_ns),
            EventQueue::Heap(h) => {
                if h.peek().is_some_and(|Reverse(ev)| ev.time_ns < limit_ns) {
                    h.pop().map(|Reverse(ev)| ev)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, seq: u64) -> Event {
        Event {
            time_ns,
            seq,
            kind: EventKind::Flush(0),
        }
    }

    #[test]
    fn same_timestamp_events_pop_in_fifo_order() {
        let mut q = CalendarQueue::new(1_000_000, 100);
        for seq in 1..=64u64 {
            q.push(ev(5_000, seq));
        }
        for expect in 1..=64u64 {
            assert_eq!(q.pop().unwrap().seq, expect);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_order_matches_binary_heap_oracle() {
        // A deterministic pseudo-random push/pop interleaving that obeys
        // the monotone-insert contract (pushes never precede the last
        // popped time).
        let mut cal = CalendarQueue::new(10_000_000, 64);
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..5_000 {
            // A few pushes at or after `now`, spanning bucket widths and
            // the overflow horizon.
            for _ in 0..(rnd() % 4) {
                seq += 1;
                let span = match rnd() % 4 {
                    0 => rnd() % 512,           // same bucket
                    1 => rnd() % 100_000,       // nearby buckets
                    2 => rnd() % 50_000_000,    // across the wheel
                    _ => rnd() % 5_000_000_000, // deep overflow
                };
                let e = ev(now + span, seq);
                cal.push(e);
                heap.push(Reverse(e));
            }
            if round % 3 != 0 {
                let a = cal.pop();
                let b = heap.pop().map(|Reverse(e)| e);
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
            let a = cal.pop();
            let b = heap.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            match a {
                Some(e) => popped.push(e),
                None => break,
            }
        }
        assert!(popped
            .windows(2)
            .all(|w| (w[0].time_ns, w[0].seq) < (w[1].time_ns, w[1].seq)));
    }

    #[test]
    fn pop_if_before_leaves_later_events_queued() {
        let mut q = CalendarQueue::new(1_000_000, 10);
        q.push(ev(100, 1));
        q.push(ev(200, 2));
        assert_eq!(q.pop_if_before(100), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if_before(101).unwrap().seq, 1);
        assert_eq!(q.pop_if_before(200), None);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_events_surface_in_order() {
        // Span tiny, so the horizon is short and far events overflow.
        let mut q = CalendarQueue::new(1_000, 1000);
        q.push(ev(u64::MAX - 1, 1));
        q.push(ev(1 << 40, 2));
        q.push(ev(10, 3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
    }
}
