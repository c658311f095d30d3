//! Deterministic chaos campaigns for the serving runtime.
//!
//! A [`ChaosPlan`] is a fixed schedule of kill / hang / panic / corrupt
//! events keyed by `(stage, frame)`. Because the schedule is a pure
//! function of its seed — and because the runtime fires each event at a
//! fixed point in a stage's virtual-time loop — a campaign replays
//! byte-identically across reruns and across thread vs process layouts.
//! The plan itself is transport-agnostic: stages are plain indices
//! (0 = capture … 3 = gateway for the runtime pipeline) and the spec
//! string round-trips through a CLI flag so a supervisor can forward the
//! schedule to child processes.

use super::rng::FaultRng;
use std::collections::HashSet;

/// Stream tag for chaos schedule draws.
const TAG_CHAOS: u64 = 0x6368_616f; // "chao"

/// What a chaos event does to the stage that hits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosKind {
    /// The stage dies instantly (process exit / thread-body abort) with a
    /// frame in flight.
    Kill,
    /// The stage stops making progress — and stops heartbeating — without
    /// dying, so only stall detection can catch it.
    Hang,
    /// The stage panics (unwinding in thread mode, `abort` in process
    /// mode) with a frame in flight.
    Panic,
    /// The frame's payload is flipped before the stage's integrity check,
    /// so the checksum must catch it. Only meaningful on consumer stages
    /// (index ≥ 1).
    Corrupt,
}

impl ChaosKind {
    /// Stable spec-string name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ChaosKind::Kill => "kill",
            ChaosKind::Hang => "hang",
            ChaosKind::Panic => "panic",
            ChaosKind::Corrupt => "corrupt",
        }
    }

    fn from_name(name: &str) -> Option<ChaosKind> {
        match name {
            "kill" => Some(ChaosKind::Kill),
            "hang" => Some(ChaosKind::Hang),
            "panic" => Some(ChaosKind::Panic),
            "corrupt" => Some(ChaosKind::Corrupt),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` fires when stage `stage` reaches frame
/// `frame` (by stable frame id, not ring position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChaosEvent {
    /// Pipeline stage index (0 = capture … 3 = gateway).
    pub stage: u8,
    /// Frame id the event triggers on.
    pub frame: u64,
    /// What happens.
    pub kind: ChaosKind,
}

/// A deterministic schedule of chaos events, sorted and deduplicated by
/// `(stage, frame)` — at most one event per stage per frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Builds a plan from explicit events. Events are sorted by
    /// `(stage, frame)`; when two events collide on the same coordinate
    /// the first one listed wins.
    pub(crate) fn new(events: impl IntoIterator<Item = ChaosEvent>) -> ChaosPlan {
        let mut all: Vec<ChaosEvent> = events.into_iter().collect();
        // Stable sort on the key keeps the first-listed event ahead of a
        // colliding later one, so dedup_by_key drops the right duplicate.
        all.sort_by_key(|e| (e.stage, e.frame));
        all.dedup_by_key(|e| (e.stage, e.frame));
        ChaosPlan { events: all }
    }

    /// Generates an `n_events` campaign over `frames` frames as a pure
    /// function of `seed`. Kill / hang / corrupt are drawn ~40/30/30;
    /// corrupt events only target consumer stages (1..=3) because the
    /// producer side already has [`super::ipc::LinkFaults`]. Collisions
    /// re-draw deterministically, so the plan normally reaches exactly
    /// `n_events` events (fewer only if the space is exhausted). A request
    /// beyond the `4 × frames` distinct `(stage, frame)` slots is capped
    /// there.
    pub fn generate(seed: u64, n_events: usize, frames: u64) -> ChaosPlan {
        let n = (n_events as u64).min(frames.saturating_mul(4));
        let mut events: Vec<ChaosEvent> = Vec::with_capacity(n as usize);
        let mut taken = HashSet::new();
        for i in 0..n {
            for attempt in 0..16u64 {
                let mut rng = FaultRng::for_stream(seed, &[TAG_CHAOS, i, attempt]);
                let kind = match rng.next_f64() {
                    p if p < 0.4 => ChaosKind::Kill,
                    p if p < 0.7 => ChaosKind::Hang,
                    _ => ChaosKind::Corrupt,
                };
                let stage = match kind {
                    ChaosKind::Corrupt => 1 + (rng.next_u64() % 3) as u8,
                    _ => (rng.next_u64() % 4) as u8,
                };
                let frame = rng.next_u64() % frames;
                if taken.insert((stage, frame)) {
                    events.push(ChaosEvent { stage, frame, kind });
                    break;
                }
            }
        }
        ChaosPlan::new(events)
    }

    /// The event scheduled for `(stage, frame)`, if any.
    pub fn kind_at(&self, stage: u8, frame: u64) -> Option<ChaosKind> {
        self.events
            .binary_search_by_key(&(stage, frame), |e| (e.stage, e.frame))
            .ok()
            .map(|i| self.events[i].kind)
    }

    /// All scheduled events, sorted by `(stage, frame)`.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events that take the stage down (kill, hang, or panic —
    /// everything except corruption).
    pub fn failure_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind != ChaosKind::Corrupt)
            .count()
    }

    /// Renders the plan as a spec string: `kind@stage:frame` items joined
    /// by commas, e.g. `kill@1:37,hang@2:90`. Round-trips through
    /// [`ChaosPlan::parse`].
    pub fn to_spec(&self) -> String {
        self.events
            .iter()
            .map(|e| format!("{}@{}:{}", e.kind.name(), e.stage, e.frame))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a spec string produced by [`ChaosPlan::to_spec`] (or typed
    /// by hand): comma-separated `kind@stage:frame` items where `kind` is
    /// one of `kill`, `hang`, `panic`, `corrupt` and `stage` is a
    /// pipeline index `0..=3`.
    ///
    /// # Errors
    ///
    /// A description of the first malformed item.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut events = Vec::new();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let item = item.trim();
            let (kind_s, rest) = item
                .split_once('@')
                .ok_or_else(|| format!("chaos item `{item}`: expected kind@stage:frame"))?;
            let kind = ChaosKind::from_name(kind_s).ok_or_else(|| {
                format!("chaos item `{item}`: unknown kind `{kind_s}` (kill|hang|panic|corrupt)")
            })?;
            let (stage_s, frame_s) = rest
                .split_once(':')
                .ok_or_else(|| format!("chaos item `{item}`: expected kind@stage:frame"))?;
            let stage: u8 = stage_s
                .parse()
                .map_err(|_| format!("chaos item `{item}`: bad stage `{stage_s}`"))?;
            if stage > 3 {
                return Err(format!("chaos item `{item}`: stage must be 0..=3"));
            }
            if kind == ChaosKind::Corrupt && stage == 0 {
                return Err(format!(
                    "chaos item `{item}`: corrupt targets consumer stages (1..=3)"
                ));
            }
            let frame: u64 = frame_s
                .parse()
                .map_err(|_| format!("chaos item `{item}`: bad frame `{frame_s}`"))?;
            events.push(ChaosEvent { stage, frame, kind });
        }
        Ok(ChaosPlan::new(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_pure_in_seed_and_sized() {
        let a = ChaosPlan::generate(9, 8, 200);
        let b = ChaosPlan::generate(9, 8, 200);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8, "collision re-draws should reach the target");
        assert_ne!(a, ChaosPlan::generate(10, 8, 200));
        for e in a.events() {
            assert!(e.frame < 200);
            assert!(e.stage <= 3);
            if e.kind == ChaosKind::Corrupt {
                assert!(e.stage >= 1, "corrupt must target a consumer stage");
            }
        }
    }

    #[test]
    fn generated_chaos_plan_is_capped_at_stage_frame_slots() {
        // 4 stages × 60 frames = 240 distinct slots, however many are asked.
        let plan = ChaosPlan::generate(7, usize::MAX, 60);
        assert!(plan.len() <= 240, "{} events", plan.len());
        assert!(plan.len() > 200, "{} events", plan.len());
    }

    #[test]
    fn spec_round_trips() {
        let plan = ChaosPlan::generate(31, 6, 120);
        let back = ChaosPlan::parse(&plan.to_spec()).unwrap();
        assert_eq!(plan, back);
        let hand = ChaosPlan::parse("kill@0:5, hang@2:9,corrupt@1:3,panic@3:7").unwrap();
        assert_eq!(hand.len(), 4);
        assert_eq!(hand.kind_at(2, 9), Some(ChaosKind::Hang));
        assert_eq!(hand.kind_at(2, 10), None);
        assert_eq!(ChaosPlan::parse("").unwrap(), ChaosPlan::default());
    }

    #[test]
    fn parse_rejects_malformed_items() {
        for bad in [
            "kill@5:1",
            "corrupt@0:3",
            "explode@1:2",
            "kill@1",
            "kill:1@2",
            "kill@x:1",
            "kill@1:x",
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn duplicate_coordinates_keep_first_event() {
        let plan = ChaosPlan::new([
            ChaosEvent {
                stage: 1,
                frame: 5,
                kind: ChaosKind::Kill,
            },
            ChaosEvent {
                stage: 1,
                frame: 5,
                kind: ChaosKind::Hang,
            },
        ]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.kind_at(1, 5), Some(ChaosKind::Kill));
    }

    #[test]
    fn failure_and_hang_queries_classify_kinds() {
        let plan = ChaosPlan::parse("kill@0:1,hang@1:2,corrupt@2:3,panic@3:4").unwrap();
        assert_eq!(plan.failure_count(), 3);
        assert_eq!(ChaosPlan::parse("corrupt@1:1").unwrap().failure_count(), 0);
    }
}
