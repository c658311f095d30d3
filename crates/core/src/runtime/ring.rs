//! Zero-copy SPSC ring buffer over a shared memory mapping.
//!
//! Layout (all offsets 8-aligned, little-endian host):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header (64 B)                                                |
//! |   magic u32 | version u32 | capacity u32 | slot_size u32     |
//! |   payload_elems u32 | pad u32                                |
//! |   head  AtomicU64   (next seq the producer will write)       |
//! |   tail  AtomicU64   (next seq the consumer will read)        |
//! |   dropped AtomicU64 (frames evicted by drop-oldest)          |
//! |   closed AtomicU32 | data_futex AtomicU32 | space_futex u32  |
//! +--------------------------------------------------------------+
//! | stamps: [AtomicU64; capacity]   virtual free-times per slot  |
//! +--------------------------------------------------------------+
//! | slots:  [Slot; capacity]        each slot_size bytes         |
//! |   commit AtomicU64 (0 = empty, seq+1 = committed)            |
//! |   seq u64 | t_arrival_ns u64 | t_stage_ns u64                |
//! |   dims [u32;4] | dtype u32 | flags u32 | payload_len u32|pad |
//! |   checksum u64 | frame_id u64 | payload [f32; payload_elems] |
//! +--------------------------------------------------------------+
//! ```
//!
//! Frames travel as raw header fields plus an `f32` payload — nothing is
//! serialized. Torn reads are possible only when drop-oldest eviction
//! overruns a slot mid-copy; the consumer detects that with a seqlock-style
//! re-check of the per-slot commit stamp and retries, so a torn frame is
//! never surfaced. The `stamps` array carries the *virtual* time at which the
//! consumer freed each slot, which is what lets a blocked producer account
//! for backpressure deterministically in replay mode (see the module docs in
//! [`crate::runtime`]).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use super::shm::{futex_wait, futex_wake, SharedMap};
use super::RuntimeError;

const MAGIC: u32 = 0x4542_5247; // "EBRG"
const VERSION: u32 = 2;
const HEADER_BYTES: usize = 64;
const SLOT_HEADER_BYTES: usize = 80;

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

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

impl RingBuffer {
    /// Bytes of shared memory needed for a ring of `capacity` slots carrying
    /// `payload_elems` f32 elements each.
    pub fn required_bytes(capacity: usize, payload_elems: usize) -> usize {
        HEADER_BYTES + capacity * 8 + capacity * Self::slot_bytes(payload_elems)
    }

    fn slot_bytes(payload_elems: usize) -> usize {
        align8(SLOT_HEADER_BYTES + payload_elems * 4)
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
            slot_size: Self::slot_bytes(payload_elems),
            payload_elems,
        };
        // Zero the control words explicitly (the file was truncated to zero,
        // but be defensive about reuse) and publish the header last.
        ring.head().store(0, Ordering::Relaxed);
        ring.tail().store(0, Ordering::Relaxed);
        ring.dropped_word().store(0, Ordering::Relaxed);
        ring.closed_word().store(0, Ordering::Relaxed);
        for i in 0..capacity {
            ring.stamp_word(i as u64).store(0, Ordering::Relaxed);
            ring.slot_commit(i as u64).store(0, Ordering::Relaxed);
        }
        unsafe {
            let base = ring.map.base().cast::<u32>();
            base.add(2).write(capacity as u32);
            base.add(3).write(ring.slot_size as u32);
            base.add(4).write(payload_elems as u32);
            base.add(1).write(VERSION);
            std::sync::atomic::fence(Ordering::Release);
            base.write(MAGIC);
        }
        Ok(ring)
    }

    /// Attach to a ring previously initialised by [`RingBuffer::create`] in
    /// another process, validating magic, version, and geometry.
    pub fn attach(map: SharedMap) -> Result<RingBuffer, RuntimeError> {
        if map.len() < HEADER_BYTES {
            return Err(RuntimeError::shm(map.path(), "map shorter than header"));
        }
        let (magic, version, capacity, slot_size, payload_elems) = unsafe {
            let base = map.base().cast::<u32>();
            std::sync::atomic::fence(Ordering::Acquire);
            (
                base.read(),
                base.add(1).read(),
                base.add(2).read() as usize,
                base.add(3).read() as usize,
                base.add(4).read() as usize,
            )
        };
        if magic != MAGIC {
            return Err(RuntimeError::shm(map.path(), "bad ring magic"));
        }
        if version != VERSION {
            return Err(RuntimeError::shm(map.path(), "ring version mismatch"));
        }
        if capacity == 0
            || !capacity.is_power_of_two()
            || slot_size != Self::slot_bytes(payload_elems)
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
        self.dropped_word().load(Ordering::Acquire)
    }

    /// The underlying mapping (for path/unlink access).
    pub fn map(&self) -> &SharedMap {
        &self.map
    }

    // ---- raw field access -------------------------------------------------

    fn atomic_u64(&self, byte_off: usize) -> &AtomicU64 {
        debug_assert!(byte_off.is_multiple_of(8) && byte_off + 8 <= self.map.len());
        unsafe { &*self.map.base().add(byte_off).cast::<AtomicU64>() }
    }

    fn atomic_u32(&self, byte_off: usize) -> &AtomicU32 {
        debug_assert!(byte_off.is_multiple_of(4) && byte_off + 4 <= self.map.len());
        unsafe { &*self.map.base().add(byte_off).cast::<AtomicU32>() }
    }

    fn head(&self) -> &AtomicU64 {
        self.atomic_u64(24)
    }
    fn tail(&self) -> &AtomicU64 {
        self.atomic_u64(32)
    }
    fn dropped_word(&self) -> &AtomicU64 {
        self.atomic_u64(40)
    }
    fn closed_word(&self) -> &AtomicU32 {
        self.atomic_u32(48)
    }
    fn data_futex(&self) -> &AtomicU32 {
        self.atomic_u32(52)
    }
    fn space_futex(&self) -> &AtomicU32 {
        self.atomic_u32(56)
    }

    fn stamp_word(&self, seq: u64) -> &AtomicU64 {
        let idx = (seq % self.capacity) as usize;
        self.atomic_u64(HEADER_BYTES + idx * 8)
    }

    fn slot_off(&self, seq: u64) -> usize {
        let idx = (seq % self.capacity) as usize;
        HEADER_BYTES + self.capacity as usize * 8 + idx * self.slot_size
    }

    fn slot_commit(&self, seq: u64) -> &AtomicU64 {
        self.atomic_u64(self.slot_off(seq))
    }

    /// Raw pointer to a slot's header area past the commit word.
    fn slot_ptr(&self, seq: u64) -> *mut u8 {
        unsafe { self.map.base().add(self.slot_off(seq)) }
    }

    // ---- lifecycle --------------------------------------------------------

    /// Mark the ring closed: the consumer drains what is left, then sees
    /// [`Pop::Drained`]. Counters written by the producer before `close`
    /// are visible to a consumer that observed the closed flag.
    pub fn close(&self) {
        self.closed_word().store(1, Ordering::Release);
        self.data_futex().fetch_add(1, Ordering::Release);
        futex_wake(self.data_futex());
    }

    /// Whether the producer has closed the ring.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed_word().load(Ordering::Acquire) == 1
    }

    // ---- producer ---------------------------------------------------------

    /// Claim the next slot for writing. With [`DropPolicy::Block`] this parks
    /// (bounded-retry) until space frees or `deadline` passes; with
    /// [`DropPolicy::DropOldest`] it evicts the oldest frame instead and
    /// never times out.
    pub fn reserve(&self, policy: DropPolicy, deadline: Instant) -> Reserve<'_> {
        loop {
            let head = self.head().load(Ordering::Relaxed);
            let tail = self.tail().load(Ordering::Acquire);
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
                    if self
                        .tail()
                        .compare_exchange(tail, tail + 1, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.dropped_word().fetch_add(1, Ordering::AcqRel);
                    }
                }
                DropPolicy::Block => {
                    let seen = self.space_futex().load(Ordering::Acquire);
                    if self.tail().load(Ordering::Acquire) != tail {
                        continue; // space freed between loads
                    }
                    if Instant::now() >= deadline {
                        return Reserve::TimedOut;
                    }
                    futex_wait(self.space_futex(), seen, RETRY_SLICE);
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
        loop {
            let tail = self.tail().load(Ordering::Acquire);
            let head = self.head().load(Ordering::Acquire);
            if tail == head {
                if self.is_closed() && self.head().load(Ordering::Acquire) == tail {
                    return Pop::Drained;
                }
                let seen = self.data_futex().load(Ordering::Acquire);
                if self.head().load(Ordering::Acquire) != tail || self.is_closed() {
                    continue;
                }
                if Instant::now() >= deadline {
                    return Pop::TimedOut;
                }
                futex_wait(self.data_futex(), seen, RETRY_SLICE);
                continue;
            }

            let commit = self.slot_commit(tail).load(Ordering::Acquire);
            if commit != tail + 1 {
                // Either the producer has not finished this slot yet (head
                // advanced but commit pending is impossible — head is stored
                // after commit) or drop-oldest already moved tail past us.
                if Instant::now() >= deadline {
                    return Pop::TimedOut;
                }
                std::hint::spin_loop();
                continue;
            }

            self.read_slot(tail, buf);

            // Seqlock re-check: if drop-oldest lapped the ring and the
            // producer rewrote this slot mid-copy, the commit word changed.
            if self.slot_commit(tail).load(Ordering::Acquire) != tail + 1 {
                continue;
            }

            let stamp = stamp_fn(buf);
            self.stamp_word(tail).store(stamp, Ordering::Release);

            if self
                .tail()
                .compare_exchange(tail, tail + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.space_futex().fetch_add(1, Ordering::Release);
                futex_wake(self.space_futex());
                return Pop::Popped;
            }
            // Lost the slot to a drop-oldest eviction; try the next one.
        }
    }

    fn read_slot(&self, seq: u64, buf: &mut FrameBuf) {
        let p = self.slot_ptr(seq);
        unsafe {
            buf.seq = p.add(8).cast::<u64>().read_volatile();
            buf.meta.t_arrival_ns = p.add(16).cast::<u64>().read_volatile();
            buf.meta.t_stage_ns = p.add(24).cast::<u64>().read_volatile();
            let dims = p.add(32).cast::<u32>();
            for (i, d) in buf.meta.dims.iter_mut().enumerate() {
                *d = dims.add(i).read_volatile();
            }
            buf.meta.dtype = p.add(48).cast::<u32>().read_volatile();
            buf.meta.flags = p.add(52).cast::<u32>().read_volatile();
            buf.meta.payload_len = p.add(56).cast::<u32>().read_volatile();
            buf.meta.checksum = p.add(64).cast::<u64>().read_volatile();
            buf.meta.frame_id = p.add(72).cast::<u64>().read_volatile();
            let len = (buf.meta.payload_len as usize).min(self.payload_elems);
            buf.meta.payload_len = len as u32;
            std::ptr::copy_nonoverlapping(
                p.add(SLOT_HEADER_BYTES).cast::<f32>(),
                buf.payload.as_mut_ptr(),
                len,
            );
        }
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
        if self.seq >= self.ring.capacity {
            Some(self.ring.stamp_word(self.seq).load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// Mutable view of the slot payload for zero-copy filling.
    ///
    /// Single-producer exclusivity makes this the only writer; a consumer
    /// racing a drop-oldest eviction may observe a torn payload, which the
    /// seqlock commit re-check discards.
    pub fn payload_mut(&mut self) -> &mut [f32] {
        unsafe {
            // Invalidate the slot before mutation so the consumer skips it.
            self.ring.slot_commit(self.seq).store(0, Ordering::Release);
            std::slice::from_raw_parts_mut(
                self.ring
                    .slot_ptr(self.seq)
                    .add(SLOT_HEADER_BYTES)
                    .cast::<f32>(),
                self.ring.payload_elems,
            )
        }
    }

    /// Publish the frame: write the header, stamp the commit word, advance
    /// head, and wake the consumer.
    pub fn commit(self, meta: &FrameMeta) {
        let p = self.ring.slot_ptr(self.seq);
        unsafe {
            p.add(8).cast::<u64>().write_volatile(self.seq);
            p.add(16).cast::<u64>().write_volatile(meta.t_arrival_ns);
            p.add(24).cast::<u64>().write_volatile(meta.t_stage_ns);
            let dims = p.add(32).cast::<u32>();
            for (i, d) in meta.dims.iter().enumerate() {
                dims.add(i).write_volatile(*d);
            }
            p.add(48).cast::<u32>().write_volatile(meta.dtype);
            p.add(52).cast::<u32>().write_volatile(meta.flags);
            p.add(56).cast::<u32>().write_volatile(meta.payload_len);
            p.add(64).cast::<u64>().write_volatile(meta.checksum);
            p.add(72).cast::<u64>().write_volatile(meta.frame_id);
        }
        self.ring
            .slot_commit(self.seq)
            .store(self.seq + 1, Ordering::Release);
        self.ring.head().store(self.seq + 1, Ordering::Release);
        self.ring.data_futex().fetch_add(1, Ordering::Release);
        futex_wake(self.ring.data_futex());
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
    fn attach_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("ebring-garbage-{}", std::process::id()));
        let map = SharedMap::create(&path, 4096).unwrap();
        map.unlink();
        assert!(RingBuffer::attach(map).is_err());
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
