//! Zero-copy SPSC ring buffer over a shared memory mapping.
//!
//! A ring is a `RingHeader` (geometry and protocol words), one free-time
//! stamp per slot, then `capacity` slots, each a `SlotHeader` followed by
//! `payload_elems` `f32`s. Those `#[repr(C)]` structs are the layout:
//! `create` and `attach` check the geometry once, and every access views
//! the map through `SharedMap::view`, the one checked cast.
//!
//! Frames travel as raw header fields plus an `f32` payload — nothing is
//! serialized. Torn reads are possible only when drop-oldest eviction
//! overruns a slot mid-copy; the consumer detects that with a seqlock-style
//! re-check of the per-slot commit stamp and retries, so a torn frame is
//! never surfaced. The stamps carry the *virtual* time at which the
//! consumer freed each slot, which is what lets a blocked producer account
//! for backpressure deterministically in replay mode (see the module docs in
//! [`crate::runtime`]).

use std::cell::UnsafeCell;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::time::{Duration, Instant};

use super::shm::{futex_wait, futex_wake, mapped, Mapped, SharedMap};
use super::RuntimeError;

const MAGIC: u32 = 0x4542_5247; // "EBRG"
const VERSION: u32 = 3;

/// Bounded wait slice for futex parks; a lost wakeup costs at most this much.
pub(crate) const RETRY_SLICE: Duration = Duration::from_millis(10);

/// Frame flag: ground-truth "object present" bit from the trace.
pub(crate) const FLAG_HIT: u32 = 1;
/// Frame flag: the sentry escalated this frame to the full model.
pub(crate) const FLAG_ESCALATED: u32 = 2;
/// Frame flag: frame was served by the standby rung only.
pub(crate) const FLAG_STANDBY: u32 = 4;

/// Backpressure policy when a ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Producer parks (bounded-retry) until the consumer frees a slot.
    Block,
    /// Producer evicts the oldest undelivered frame and keeps going.
    DropOldest,
}

impl DropPolicy {
    /// Stable flag-facing name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DropPolicy::Block => "block",
            DropPolicy::DropOldest => "drop-oldest",
        }
    }
}

mapped! {
    impl AnyBits;

    /// Fixed-layout frame header written alongside the payload.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FrameMeta {
        /// Stable frame identity: the trace point index, assigned once by
        /// capture and carried unchanged through every stage. Unlike the ring
        /// `seq` (which compacts when frames are lost to a crashed stage), the
        /// frame id survives restarts — it is what the gateway ledger and the
        /// chaos schedule key on.
        pub frame_id: u64,
        /// Virtual arrival time of the frame at the capture stage (ns).
        pub t_arrival_ns: u64,
        /// Virtual time the producing stage finished with the frame (ns).
        pub t_stage_ns: u64,
        /// Tensor dims (NCHW, zero-padded).
        pub dims: [u32; 4],
        /// Element dtype tag (0 = f32).
        pub dtype: u32,
        /// Flag bits (`FLAG_*`).
        pub flags: u32,
        /// Number of valid payload elements.
        pub payload_len: u32,
        /// `tensor::integrity` checksum over the valid payload.
        pub checksum: u64,
    }
}

mapped! {
    impl Mapped;

    /// The ring's first bytes. `create` writes the geometry, then publishes
    /// the magic; the rest are the SPSC protocol words.
    struct RingHeader {
        magic: AtomicU32,
        version: AtomicU32,
        capacity: AtomicU32,
        slot_size: AtomicU32,
        payload_elems: AtomicU32,
        /// Next seq the producer will write.
        head: AtomicU64,
        /// Next seq the consumer will read.
        tail: AtomicU64,
        /// Frames evicted by drop-oldest.
        dropped: AtomicU64,
        /// 1 once the producer closed the ring.
        closed: AtomicU32,
        /// Bumped on every commit and on close; the consumer parks on it.
        data_futex: AtomicU32,
        /// Bumped on every pop; a blocked producer parks on it.
        space_futex: AtomicU32,
    }

    /// The head of every slot; the slot's payload follows it.
    struct SlotHeader {
        /// The seqlock word: 0 while empty or being written, seq + 1 once
        /// committed.
        commit: AtomicU64,
        seq: AtomicU64,
        /// Written by `commit` and read by `read_slot` with one copy each.
        meta: UnsafeCell<FrameMeta>,
    }
}

/// Consumer-side frame copy; reused across pops to avoid reallocation.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    /// Sequence number assigned by the producer.
    pub seq: u64,
    /// Frame header fields (see [`FrameMeta`]).
    pub meta: FrameMeta,
    payload: Vec<f32>,
}

impl FrameBuf {
    /// A buffer sized for `ring`'s payload.
    pub fn for_ring(ring: &RingBuffer) -> FrameBuf {
        FrameBuf {
            seq: 0,
            meta: FrameMeta::default(),
            payload: vec![0.0; ring.payload_elems],
        }
    }

    /// The valid payload slice.
    pub fn payload(&self) -> &[f32] {
        &self.payload[..self.meta.payload_len as usize]
    }

    /// Mutable view of the valid payload (chaos corruption injection).
    pub(crate) fn payload_mut(&mut self) -> &mut [f32] {
        &mut self.payload[..self.meta.payload_len as usize]
    }

    /// Recompute the integrity checksum and compare against the header.
    pub fn checksum_ok(&self) -> bool {
        edgebench_tensor::integrity::checksum_f32(self.payload()) == self.meta.checksum
    }
}

/// Outcome of a producer reserve attempt.
#[derive(Debug)]
pub enum Reserve<'a> {
    /// A slot was claimed; commit it to publish the frame.
    Slot(SlotGuard<'a>),
    /// The deadline elapsed with the ring still full (Block policy only).
    TimedOut,
}

/// Outcome of a consumer pop attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop {
    /// A frame was copied into the caller's buffer.
    Popped,
    /// The deadline elapsed with no frame available.
    TimedOut,
    /// The ring is closed and fully drained.
    Drained,
}

/// Single-producer / single-consumer ring over a [`SharedMap`].
pub struct RingBuffer {
    map: SharedMap,
    capacity: u64,
    slot_size: usize,
    payload_elems: usize,
}

impl std::fmt::Debug for RingBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuffer")
            .field("path", &self.map.path())
            .field("capacity", &self.capacity)
            .field("payload_elems", &self.payload_elems)
            .finish()
    }
}

impl RingBuffer {
    /// Bytes of shared memory needed for a ring of `capacity` slots carrying
    /// `payload_elems` f32 elements each, or `usize::MAX` (which no map can
    /// hold) when that overflows.
    pub fn required_bytes(capacity: usize, payload_elems: usize) -> usize {
        // `slots_at` cannot overflow once the larger slots fit.
        let slots = || capacity.checked_mul(Self::slot_bytes(payload_elems)?);
        let bytes = slots().and_then(|slots| slots.checked_add(Self::slots_at(capacity)));
        bytes.unwrap_or(usize::MAX)
    }

    /// Where the slots start: after the header and one stamp per slot.
    fn slots_at(capacity: usize) -> usize {
        size_of::<RingHeader>() + capacity * size_of::<AtomicU64>()
    }

    fn slot_bytes(payload_elems: usize) -> Option<usize> {
        let payload = payload_elems.checked_mul(size_of::<f32>())?;
        let bytes = payload.checked_add(size_of::<SlotHeader>())?;
        bytes.checked_next_multiple_of(align_of::<SlotHeader>())
    }

    /// Initialise a fresh ring inside `map` (which must be at least
    /// [`RingBuffer::required_bytes`] long and zero-filled).
    pub fn create(
        map: SharedMap,
        capacity: usize,
        payload_elems: usize,
    ) -> Result<RingBuffer, RuntimeError> {
        if capacity == 0 || !capacity.is_power_of_two() {
            return Err(RuntimeError::config(
                "ring capacity must be a non-zero power of two",
            ));
        }
        let need = Self::required_bytes(capacity, payload_elems);
        if map.len() < need {
            return Err(RuntimeError::shm(
                map.path(),
                &format!("map too small: {} < {need}", map.len()),
            ));
        }
        let ring = RingBuffer {
            map,
            capacity: capacity as u64,
            slot_size: Self::slot_bytes(payload_elems).expect("the map holds the slots"),
            payload_elems,
        };
        // Zero the protocol words explicitly (the file was truncated to zero,
        // but be defensive about reuse) and publish the header last: the
        // Release store of the magic pairs with `attach`'s Acquire load.
        let h = ring.header();
        for word in [&h.head, &h.tail, &h.dropped] {
            word.store(0, Relaxed);
        }
        h.closed.store(0, Relaxed);
        for seq in 0..ring.capacity {
            ring.stamp(seq).store(0, Relaxed);
            ring.slot(seq).0.commit.store(0, Relaxed);
        }
        h.capacity.store(capacity as u32, Relaxed);
        h.slot_size.store(ring.slot_size as u32, Relaxed);
        h.payload_elems.store(payload_elems as u32, Relaxed);
        h.version.store(VERSION, Relaxed);
        h.magic.store(MAGIC, Release);
        Ok(ring)
    }

    /// Attach to a ring previously initialised by [`RingBuffer::create`] in
    /// another process, validating magic, version, and geometry.
    pub fn attach(map: SharedMap) -> Result<RingBuffer, RuntimeError> {
        let Some([h]) = map.view::<RingHeader>(0, 1) else {
            return Err(RuntimeError::shm(map.path(), "map shorter than header"));
        };
        if h.magic.load(Acquire) != MAGIC {
            return Err(RuntimeError::shm(map.path(), "bad ring magic"));
        }
        if h.version.load(Relaxed) != VERSION {
            return Err(RuntimeError::shm(map.path(), "ring version mismatch"));
        }
        let capacity = h.capacity.load(Relaxed) as usize;
        let slot_size = h.slot_size.load(Relaxed) as usize;
        let payload_elems = h.payload_elems.load(Relaxed) as usize;
        if capacity == 0
            || !capacity.is_power_of_two()
            || Some(slot_size) != Self::slot_bytes(payload_elems)
            || map.len() < Self::required_bytes(capacity, payload_elems)
        {
            return Err(RuntimeError::shm(map.path(), "inconsistent ring geometry"));
        }
        Ok(RingBuffer {
            map,
            capacity: capacity as u64,
            slot_size,
            payload_elems,
        })
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Frames evicted by drop-oldest so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.header().dropped.load(Acquire)
    }

    /// The underlying mapping (for path/unlink access).
    pub fn map(&self) -> &SharedMap {
        &self.map
    }

    // ---- layout -----------------------------------------------------------

    /// `len` values of `T` at `offset`, which `create` or `attach` checked
    /// lie inside the map.
    fn view<T: Mapped>(&self, offset: usize, len: usize) -> &[T] {
        let view = self.map.view(offset, len);
        view.expect("create and attach checked the geometry")
    }

    fn header(&self) -> &RingHeader {
        &self.view(0, 1)[0]
    }

    /// The free-time stamp of the slot `seq` lands in.
    fn stamp(&self, seq: u64) -> &AtomicU64 {
        &self.view(size_of::<RingHeader>(), self.capacity())[(seq % self.capacity) as usize]
    }

    /// The header and payload of the slot `seq` lands in.
    fn slot(&self, seq: u64) -> (&SlotHeader, &[UnsafeCell<f32>]) {
        let at = Self::slots_at(self.capacity()) + (seq % self.capacity) as usize * self.slot_size;
        let payload = self.view(at + size_of::<SlotHeader>(), self.payload_elems);
        (&self.view(at, 1)[0], payload)
    }

    // ---- lifecycle --------------------------------------------------------

    /// Mark the ring closed: the consumer drains what is left, then sees
    /// [`Pop::Drained`]. Counters written by the producer before `close`
    /// are visible to a consumer that observed the closed flag.
    pub fn close(&self) {
        let h = self.header();
        h.closed.store(1, Release);
        h.data_futex.fetch_add(1, Release);
        futex_wake(&h.data_futex);
    }

    /// Whether the producer has closed the ring.
    pub(crate) fn is_closed(&self) -> bool {
        self.header().closed.load(Acquire) == 1
    }

    // ---- producer ---------------------------------------------------------

    /// Claim the next slot for writing. With [`DropPolicy::Block`] this parks
    /// (bounded-retry) until space frees or `deadline` passes; with
    /// [`DropPolicy::DropOldest`] it evicts the oldest frame instead and
    /// never times out.
    pub fn reserve(&self, policy: DropPolicy, deadline: Instant) -> Reserve<'_> {
        let h = self.header();
        loop {
            let head = h.head.load(Relaxed);
            let tail = h.tail.load(Acquire);
            if head.wrapping_sub(tail) < self.capacity {
                return Reserve::Slot(SlotGuard {
                    ring: self,
                    seq: head,
                });
            }
            match policy {
                DropPolicy::DropOldest => {
                    // Race the consumer for the oldest slot; whoever wins the
                    // CAS owns it. Losing just means space appeared.
                    if h.tail
                        .compare_exchange(tail, tail + 1, AcqRel, Relaxed)
                        .is_ok()
                    {
                        h.dropped.fetch_add(1, AcqRel);
                    }
                }
                DropPolicy::Block => {
                    let seen = h.space_futex.load(Acquire);
                    if h.tail.load(Acquire) != tail {
                        continue; // space freed between loads
                    }
                    if Instant::now() >= deadline {
                        return Reserve::TimedOut;
                    }
                    futex_wait(&h.space_futex, seen, RETRY_SLICE);
                }
            }
        }
    }

    // ---- consumer ---------------------------------------------------------

    /// Copy the next frame into `buf`. `stamp_fn` runs after a consistent
    /// copy but *before* the slot is released; the value it returns is stored
    /// as the slot's virtual free-time stamp, which a blocked producer reads
    /// to account for backpressure in virtual time. Return 0 when replay
    /// stamping is not needed.
    pub fn pop_into(
        &self,
        buf: &mut FrameBuf,
        deadline: Instant,
        mut stamp_fn: impl FnMut(&FrameBuf) -> u64,
    ) -> Pop {
        let h = self.header();
        loop {
            let tail = h.tail.load(Acquire);
            let head = h.head.load(Acquire);
            if tail == head {
                if self.is_closed() && h.head.load(Acquire) == tail {
                    return Pop::Drained;
                }
                let seen = h.data_futex.load(Acquire);
                if h.head.load(Acquire) != tail || self.is_closed() {
                    continue;
                }
                if Instant::now() >= deadline {
                    return Pop::TimedOut;
                }
                futex_wait(&h.data_futex, seen, RETRY_SLICE);
                continue;
            }

            let (slot, payload) = self.slot(tail);
            if slot.commit.load(Acquire) != tail + 1 {
                // Either the producer has not finished this slot yet (head
                // advanced but commit pending is impossible — head is stored
                // after commit) or drop-oldest already moved tail past us.
                if Instant::now() >= deadline {
                    return Pop::TimedOut;
                }
                std::hint::spin_loop();
                continue;
            }

            read_slot(slot, payload, buf);

            // Seqlock re-check: if drop-oldest lapped the ring and the
            // producer rewrote this slot mid-copy, the commit word changed.
            if slot.commit.load(Acquire) != tail + 1 {
                continue;
            }

            let stamp = stamp_fn(buf);
            self.stamp(tail).store(stamp, Release);

            if h.tail
                .compare_exchange(tail, tail + 1, AcqRel, Relaxed)
                .is_ok()
            {
                h.space_futex.fetch_add(1, Release);
                futex_wake(&h.space_futex);
                return Pop::Popped;
            }
            // Lost the slot to a drop-oldest eviction; try the next one.
        }
    }
}

/// Copy a committed slot's frame into `buf`.
fn read_slot(slot: &SlotHeader, payload: &[UnsafeCell<f32>], buf: &mut FrameBuf) {
    // `seq` and the copies below are ordered by `commit`: the producer
    // stores it with Release after them, `pop_into` loads it with Acquire
    // before.
    buf.seq = slot.seq.load(Relaxed);
    // SAFETY: the header and the payload lie in the mapping, any bytes are
    // a valid `FrameMeta` and `f32`s, and `len` is at most the payload's
    // length in the mapping and the buffer's (a buffer sized for another
    // ring gets a cut copy, not an overrun). A drop-oldest producer may
    // rewrite the slot mid-copy; `pop_into`'s commit re-check discards
    // such a copy.
    unsafe {
        buf.meta = slot.meta.get().read_volatile();
        let len = (buf.meta.payload_len as usize)
            .min(payload.len())
            .min(buf.payload.len());
        buf.meta.payload_len = len as u32;
        let src = UnsafeCell::raw_get(payload.as_ptr());
        std::ptr::copy_nonoverlapping(src, buf.payload.as_mut_ptr(), len);
    }
}

/// A reserved, not-yet-published slot. Write the payload via
/// [`SlotGuard::payload_mut`], then publish with [`SlotGuard::commit`].
/// Dropping without committing simply leaves the slot unclaimed (the next
/// reserve returns the same sequence number).
pub struct SlotGuard<'a> {
    ring: &'a RingBuffer,
    seq: u64,
}

impl std::fmt::Debug for SlotGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotGuard").field("seq", &self.seq).finish()
    }
}

impl SlotGuard<'_> {
    /// Sequence number this slot will publish as.
    #[cfg(test)]
    fn seq(&self) -> u64 {
        self.seq
    }

    /// Virtual time at which this slot was freed by the consumer, if it has
    /// been through a full lap already. A blocking producer folds this into
    /// its virtual clock: the frame cannot have been written before the slot
    /// it reuses was vacated.
    pub(crate) fn freed_stamp_ns(&self) -> Option<u64> {
        (self.seq >= self.ring.capacity).then(|| self.ring.stamp(self.seq).load(Acquire))
    }

    /// Mutable view of the slot payload for zero-copy filling.
    ///
    /// Single-producer exclusivity makes this the only writer; a consumer
    /// racing a drop-oldest eviction may observe a torn payload, which the
    /// seqlock commit re-check discards.
    pub fn payload_mut(&mut self) -> &mut [f32] {
        let (slot, payload) = self.ring.slot(self.seq);
        // Invalidate the slot before mutation so the consumer skips it.
        slot.commit.store(0, Release);
        let first = UnsafeCell::raw_get(payload.as_ptr());
        // SAFETY: the payload lies in the mapping and any bytes are valid
        // `f32`s; the single producer holds the only guard of this slot, and
        // `&mut self` lends out one slice at a time.
        unsafe { std::slice::from_raw_parts_mut(first, payload.len()) }
    }

    /// Publish the frame: write the header, stamp the commit word, advance
    /// head, and wake the consumer.
    pub fn commit(self, meta: &FrameMeta) {
        let slot = self.ring.slot(self.seq).0;
        slot.seq.store(self.seq, Relaxed);
        // SAFETY: as in `payload_mut`: this guard's producer is the slot's
        // only writer, and a torn read is discarded by the commit re-check.
        unsafe { slot.meta.get().write_volatile(*meta) };
        slot.commit.store(self.seq + 1, Release);
        let h = self.ring.header();
        h.head.store(self.seq + 1, Release);
        h.data_futex.fetch_add(1, Release);
        futex_wake(&h.data_futex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_ring(capacity: usize, elems: usize, tag: &str) -> RingBuffer {
        let path = std::env::temp_dir().join(format!(
            "ebring-test-{}-{}-{tag}",
            std::process::id(),
            capacity
        ));
        let map = SharedMap::create(&path, RingBuffer::required_bytes(capacity, elems)).unwrap();
        RingBuffer::create(map, capacity, elems).unwrap()
    }

    fn push(ring: &RingBuffer, value: f32, policy: DropPolicy) -> bool {
        match ring.reserve(policy, Instant::now() + Duration::from_secs(1)) {
            Reserve::Slot(mut slot) => {
                let seq = slot.seq();
                let payload = slot.payload_mut();
                payload[0] = value;
                let sum = edgebench_tensor::integrity::checksum_f32(&payload[..1]);
                slot.commit(&FrameMeta {
                    frame_id: seq + 100,
                    t_arrival_ns: seq * 10,
                    t_stage_ns: seq * 10 + 1,
                    dims: [1, 1, 1, 1],
                    dtype: 0,
                    flags: 0,
                    payload_len: 1,
                    checksum: sum,
                });
                true
            }
            Reserve::TimedOut => false,
        }
    }

    #[test]
    fn push_pop_roundtrip_preserves_frames() {
        let ring = temp_ring(8, 4, "roundtrip");
        ring.map().unlink();
        for i in 0..5 {
            assert!(push(&ring, i as f32, DropPolicy::Block));
        }
        let mut buf = FrameBuf::for_ring(&ring);
        for i in 0..5u64 {
            let got = ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 0);
            assert_eq!(got, Pop::Popped);
            assert_eq!(buf.seq, i);
            assert_eq!(buf.meta.frame_id, i + 100);
            assert_eq!(buf.payload(), &[i as f32]);
            assert!(buf.checksum_ok());
            assert_eq!(buf.meta.t_arrival_ns, i * 10);
        }
    }

    #[test]
    fn pop_into_a_buffer_for_a_smaller_ring_cuts_the_payload() {
        let (big, small) = (temp_ring(4, 16, "cut-big"), temp_ring(4, 4, "cut-small"));
        big.map().unlink();
        small.map().unlink();
        let Reserve::Slot(mut slot) = big.reserve(DropPolicy::Block, Instant::now()) else {
            panic!("an empty ring has space");
        };
        slot.payload_mut().fill(1.0);
        slot.commit(&FrameMeta {
            payload_len: 16,
            ..FrameMeta::default()
        });
        let mut buf = FrameBuf::for_ring(&small);
        assert_eq!(big.pop_into(&mut buf, Instant::now(), |_| 0), Pop::Popped);
        assert_eq!(buf.payload(), &[1.0; 4]);
    }

    #[test]
    fn block_policy_times_out_when_full() {
        let ring = temp_ring(2, 4, "block");
        ring.map().unlink();
        assert!(push(&ring, 0.0, DropPolicy::Block));
        assert!(push(&ring, 1.0, DropPolicy::Block));
        let t0 = Instant::now();
        match ring.reserve(DropPolicy::Block, t0 + Duration::from_millis(30)) {
            Reserve::TimedOut => {}
            Reserve::Slot(_) => panic!("expected timeout on full ring"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn drop_oldest_conserves_frames() {
        let ring = temp_ring(4, 4, "dropold");
        ring.map().unlink();
        let offered = 11u64;
        for i in 0..offered {
            assert!(push(&ring, i as f32, DropPolicy::DropOldest));
        }
        ring.close();
        let mut buf = FrameBuf::for_ring(&ring);
        let mut delivered = 0u64;
        let mut last_seq = None;
        loop {
            match ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 0) {
                Pop::Popped => {
                    if let Some(prev) = last_seq {
                        assert!(buf.seq > prev, "seq order violated: {prev} -> {}", buf.seq);
                    }
                    last_seq = Some(buf.seq);
                    assert!(buf.checksum_ok());
                    delivered += 1;
                }
                Pop::Drained => break,
                Pop::TimedOut => panic!("unexpected timeout"),
            }
        }
        assert_eq!(delivered + ring.dropped(), offered);
        assert_eq!(delivered, 4); // capacity survivors
    }

    #[test]
    fn close_then_drain_reports_drained() {
        let ring = temp_ring(4, 4, "drain");
        ring.map().unlink();
        push(&ring, 7.0, DropPolicy::Block);
        ring.close();
        let mut buf = FrameBuf::for_ring(&ring);
        assert_eq!(
            ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 0),
            Pop::Popped
        );
        assert_eq!(
            ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 0),
            Pop::Drained
        );
    }

    #[test]
    fn attach_sees_producer_frames() {
        let path = std::env::temp_dir().join(format!("ebring-attach-{}", std::process::id()));
        let map = SharedMap::create(&path, RingBuffer::required_bytes(4, 4)).unwrap();
        let ring = RingBuffer::create(map, 4, 4).unwrap();
        push(&ring, 42.0, DropPolicy::Block);

        let ring2 = RingBuffer::attach(SharedMap::open(&path).unwrap()).unwrap();
        assert_eq!(ring2.capacity(), 4);
        let mut buf = FrameBuf::for_ring(&ring2);
        assert_eq!(
            ring2.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 0),
            Pop::Popped
        );
        assert_eq!(buf.payload(), &[42.0]);
        ring.map().unlink();
        assert!(!path.exists());
    }

    #[test]
    fn a_ring_no_map_can_hold_is_an_error() {
        assert_eq!(RingBuffer::required_bytes(1 << 62, 4), usize::MAX);
        assert_eq!(RingBuffer::required_bytes(4, usize::MAX), usize::MAX);
        // The slots fit in usize; the slots and the stamps do not.
        assert_eq!(RingBuffer::required_bytes(1 << 56, 42), usize::MAX);
        let path = std::env::temp_dir().join(format!("ebring-huge-{}", std::process::id()));
        let map = SharedMap::create(&path, 4096).unwrap();
        map.unlink();
        assert!(RingBuffer::create(map, 1 << 62, 4).is_err());
    }

    /// Every header `attach` must refuse: each is a typed `Shm` error with
    /// its own reason, so the checks cannot silently go missing.
    #[test]
    fn attach_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("ebring-garbage-{}", std::process::id()));
        let expect_err =
            |what: &str, want: &str| match RingBuffer::attach(SharedMap::open(&path).unwrap()) {
                Err(RuntimeError::Shm { reason, .. }) => assert_eq!(reason, want, "{what}"),
                other => panic!("{what}: expected a Shm error, got {other:?}"),
            };
        drop(SharedMap::create(&path, 16).unwrap());
        expect_err("map shorter than the header", "map shorter than header");
        drop(SharedMap::create(&path, 4096).unwrap());
        expect_err("all-zero map", "bad ring magic");

        // What is corrupted, the reason attach must give, the corruption.
        type Case = (&'static str, &'static str, fn(&RingHeader));
        let geometry = "inconsistent ring geometry";
        let cases: [Case; 6] = [
            ("bad magic", "bad ring magic", |h| {
                h.magic.store(!MAGIC, Relaxed)
            }),
            ("wrong version", "ring version mismatch", |h| {
                h.version.store(VERSION - 1, Relaxed)
            }),
            ("capacity 0", geometry, |h| h.capacity.store(0, Relaxed)),
            ("capacity 3", geometry, |h| h.capacity.store(3, Relaxed)),
            ("slot size disagrees with payload_elems", geometry, |h| {
                h.slot_size.fetch_add(8, Relaxed);
            }),
            ("map shorter than the geometry", geometry, |h| {
                h.capacity.store(8, Relaxed)
            }),
        ];
        for (what, want, corrupt) in cases {
            let map = SharedMap::create(&path, RingBuffer::required_bytes(4, 4)).unwrap();
            let ring = RingBuffer::create(map, 4, 4).unwrap();
            assert!(RingBuffer::attach(SharedMap::open(&path).unwrap()).is_ok());
            corrupt(ring.header());
            expect_err(what, want);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freed_stamp_surfaces_consumer_virtual_time() {
        let ring = temp_ring(2, 4, "stamp");
        ring.map().unlink();
        push(&ring, 0.0, DropPolicy::Block);
        push(&ring, 1.0, DropPolicy::Block);
        let mut buf = FrameBuf::for_ring(&ring);
        ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(1), |_| 777);
        match ring.reserve(DropPolicy::Block, Instant::now() + Duration::from_secs(1)) {
            Reserve::Slot(slot) => {
                assert_eq!(slot.seq(), 2);
                assert_eq!(slot.freed_stamp_ns(), Some(777));
            }
            Reserve::TimedOut => panic!("space should be available"),
        }
    }

    #[test]
    fn threaded_spsc_delivers_in_order() {
        let ring = std::sync::Arc::new(temp_ring(8, 16, "spsc"));
        ring.map().unlink();
        let n = 2000u64;
        let producer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..n {
                    assert!(push(&ring, i as f32, DropPolicy::Block));
                }
                ring.close();
            })
        };
        let mut buf = FrameBuf::for_ring(&ring);
        let mut next = 0u64;
        loop {
            match ring.pop_into(&mut buf, Instant::now() + Duration::from_secs(10), |_| 0) {
                Pop::Popped => {
                    assert_eq!(buf.seq, next);
                    assert!(buf.checksum_ok());
                    next += 1;
                }
                Pop::Drained => break,
                Pop::TimedOut => panic!("stalled"),
            }
        }
        assert_eq!(next, n);
        producer.join().unwrap();
    }
}
