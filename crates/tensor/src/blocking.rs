//! Cache-autotuned GEMM blocking: MC/KC/NC panel sizes derived once from
//! the machine's real cache hierarchy instead of hard-coded constants.
//!
//! The classic three-level blocking argument (Goto/BLIS): the micro-kernel
//! streams one `KC×NR` B panel and one `MR×KC` A micro-panel per tile, so
//! `KC` is sized to keep that working set L1-resident; one packed `MC×KC`
//! A panel is reused across every column panel, so `MC` is sized for L2;
//! the packed `KC×NC` B block is reused across every row panel, so `NC` is
//! sized for L3.
//!
//! **Blocking never affects numerics.** Each output element's reduction
//! runs in strictly ascending `k` regardless of panel sizes: an `MR×NR`
//! accumulator tile is stored to `C` between `KC` blocks and reloaded —
//! an exact f32 round trip — so continuing the fused-multiply-add chain
//! from memory produces the same bit pattern as never leaving registers.
//! Tests assert byte-identical output across deliberately odd blockings.
//!
//! Cache sizes are detected **once per process** (a sysfs read on Linux,
//! conservative defaults elsewhere) via [`cache_info`]; choosing the
//! blocking for a concrete GEMM shape is then pure arithmetic, done at
//! [`crate::Executor::prepare`] time (and per standalone call).

use crate::simd::{MR, NR};
use std::sync::OnceLock;

/// Data-cache sizes in bytes, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// Per-core L1 data cache.
    pub l1d: usize,
    /// Per-core (or per-cluster) L2 unified cache.
    pub l2: usize,
    /// Last-level cache.
    pub l3: usize,
}

/// Conservative defaults when detection fails: the smallest caches on the
/// paper's device fleet (Raspberry Pi 3: 32 KiB L1d, 512 KiB shared L2,
/// no L3 — modelled as L3 = L2 so the NC bound degenerates gracefully).
pub(crate) const FALLBACK: CacheInfo = CacheInfo {
    l1d: 32 * 1024,
    l2: 512 * 1024,
    l3: 512 * 1024,
};

/// Parses a sysfs cache-size string (`"48K"`, `"2048K"`, `"1M"`, plain
/// bytes) into bytes. Returns `None` on anything unrecognised.
fn parse_size(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' | b'k' => (&t[..t.len() - 1], 1024usize),
        b'M' | b'm' => (&t[..t.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Reads cpu0's cache hierarchy from sysfs. Any missing level falls back
/// to [`FALLBACK`]'s value for that level.
#[cfg(target_os = "linux")]
fn detect() -> CacheInfo {
    let mut info = FALLBACK;
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..8 {
        let dir = format!("{base}/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let Some(bytes) = parse_size(&size) else {
            continue;
        };
        let ty = ty.trim();
        match (level.trim(), ty) {
            ("1", "Data") | ("1", "Unified") => info.l1d = bytes,
            ("2", "Data") | ("2", "Unified") => info.l2 = bytes,
            ("3", "Data") | ("3", "Unified") => info.l3 = bytes,
            _ => {}
        }
    }
    // A machine without L3 keeps the fallback; never let the hierarchy
    // invert (L3 < L2 would shrink NC below the L2 working set).
    info.l3 = info.l3.max(info.l2);
    info.l2 = info.l2.max(info.l1d);
    info
}

#[cfg(not(target_os = "linux"))]
fn detect() -> CacheInfo {
    FALLBACK
}

/// The machine's cache hierarchy, detected on first use and cached for the
/// process lifetime — the "one-shot" in one-shot autotuning.
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(detect)
}

/// Rounds `v` down to a positive multiple of `unit`, clamped to `[unit, hi]`.
fn round_down(v: usize, unit: usize, hi: usize) -> usize {
    (v / unit).max(1).min(hi / unit) * unit
}

/// GEMM panel sizes for one `[m×k]·[k×n]` problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Blocking {
    /// Rows of `C` per packed A panel (L2-resident; also the parallel
    /// work-distribution unit).
    pub mc: usize,
    /// Depth of one reduction block (A/B panel pair stays L1-resident).
    pub kc: usize,
    /// Columns of `C` per packed B block (L3-resident).
    pub nc: usize,
}

impl Blocking {
    /// Chooses panel sizes for an `[m×k]·[k×n]` GEMM against the given
    /// cache hierarchy. Pure arithmetic — deterministic for a fixed
    /// `CacheInfo` — and clamped to the problem so tiny GEMMs do not
    /// reserve huge buffers.
    pub(crate) fn choose((m, k, n): (usize, usize, usize), cache: &CacheInfo) -> Blocking {
        let elem = std::mem::size_of::<f32>();
        // KC: one KC×NR B panel plus one MR×KC A micro-panel in five sixths
        // of L1d (the rest holds the C tile and the next panel's first
        // rows): 256 on a 48 KiB L1d. A deeper block reloads the C tile
        // less often; see DESIGN.md for the depths measured.
        let kc_budget = 5 * cache.l1d / (6 * elem * (MR + NR));
        let kc = round_down(kc_budget, 8, 1024).min(k.max(1));
        // MC: the packed MC×KC A panel at half L2.
        let mc_budget = cache.l2 / (2 * elem * kc);
        let mc = round_down(mc_budget, MR, 4096).min(m.max(1).next_multiple_of(MR));
        // NC: the packed KC×NC B block at half L3.
        let nc_budget = cache.l3 / (2 * elem * kc);
        let nc = round_down(nc_budget, NR, 1 << 15).min(n.max(1).next_multiple_of(NR));
        Blocking { mc, kc, nc }
    }

    /// [`Blocking::choose`] against the host machine (detected once).
    pub(crate) fn auto(dims: (usize, usize, usize)) -> Blocking {
        Blocking::choose(dims, &cache_info())
    }

    /// [`Blocking::choose`] for a convolution's GEMM, whose A operand (the
    /// weights) was packed at full depth ahead of time and is streamed
    /// straight from its panels, with no L2-resident `MC×KC` copy. The
    /// operand that stays cache-resident is instead the B block each
    /// worker packs from the image: `NC` is sized so one `KC×NC` block
    /// fits half of L2, which also bounds every worker's buffer. When the
    /// whole B (`k×n`) fits there, `KC` spans the depth, so each A
    /// micro-panel is read once, front to back. Otherwise `KC` keeps the
    /// [`Blocking::choose`] split.
    pub(crate) fn choose_prepacked_a(dims: (usize, usize, usize), cache: &CacheInfo) -> Blocking {
        let (_, k, n) = dims;
        let blk = Blocking::choose(dims, cache);
        let elem = std::mem::size_of::<f32>();
        let n_pad = n.max(1).next_multiple_of(NR);
        let kc = if k.max(1) * n_pad * elem <= cache.l2 / 2 {
            k.max(1)
        } else {
            blk.kc
        };
        let nc = round_down(cache.l2 / (2 * elem * kc), NR, 1 << 15).min(n_pad);
        Blocking { kc, nc, ..blk }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_size_strings() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_size("32768"), Some(32768));
        assert_eq!(parse_size(" 64K\n"), Some(64 * 1024));
        assert_eq!(parse_size("big"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn choose_respects_tile_multiples_and_problem_bounds() {
        for cache in [
            FALLBACK,
            CacheInfo {
                l1d: 48 * 1024,
                l2: 2 * 1024 * 1024,
                l3: 105 * 1024 * 1024,
            },
        ] {
            for &dims in &[(1usize, 1usize, 1usize), (64, 576, 256), (4096, 4096, 4096)] {
                let b = Blocking::choose(dims, &cache);
                assert!(b.kc >= 1 && b.mc >= 1 && b.nc >= 1, "{b:?}");
                assert!(b.mc.is_multiple_of(MR) || b.mc <= MR, "{b:?}");
                assert!(b.nc.is_multiple_of(NR) || b.nc <= NR, "{b:?}");
                // L1 budget actually holds.
                assert!(
                    b.kc * (MR + NR) * 4 <= cache.l1d,
                    "kc {} busts L1 {}",
                    b.kc,
                    cache.l1d
                );
            }
        }
    }

    #[test]
    fn choose_is_deterministic_and_detection_is_cached() {
        let a = Blocking::auto((64, 576, 256));
        let b = Blocking::auto((64, 576, 256));
        assert_eq!(a, b);
        assert_eq!(cache_info(), cache_info());
    }

    #[test]
    fn prepacked_a_spans_the_depth_only_when_b_fits_half_of_l2() {
        let cache = CacheInfo {
            l1d: 48 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 300 * 1024 * 1024,
        };
        // VGG-S-32 conv2d_10: a 4608×4 B, one 295 KB panel.
        let small = Blocking::choose_prepacked_a((512, 4608, 4), &cache);
        assert_eq!((small.kc, small.nc), (4608, NR));
        assert_eq!(small.mc, Blocking::choose((512, 4608, 4), &cache).mc);
        // A 576×3136 B is 7 MB: KC keeps the cache-derived split, and NC
        // shrinks to the widest block of whole panels in half of L2.
        let big = (64, 576, 3136);
        let (got, split) = (
            Blocking::choose_prepacked_a(big, &cache),
            Blocking::choose(big, &cache),
        );
        assert_eq!((got.mc, got.kc), (split.mc, split.kc));
        assert!(got.nc.is_multiple_of(NR) && got.nc < 3136, "{got:?}");
        assert!(got.kc * got.nc * 4 <= cache.l2 / 2, "{got:?}");
        assert!(got.kc * (got.nc + NR) * 4 > cache.l2 / 2, "{got:?}");
    }

    #[test]
    fn degenerate_hierarchy_never_inverts() {
        // An L3 smaller than L2 (or absent) must not shrink NC below the
        // L2-derived working set — detect() clamps, choose() just divides.
        let c = CacheInfo {
            l1d: 32 * 1024,
            l2: 512 * 1024,
            l3: 512 * 1024,
        };
        let b = Blocking::choose((128, 4096, 4096), &c);
        assert!(b.nc >= NR);
        assert!(b.kc <= 4096);
    }
}
