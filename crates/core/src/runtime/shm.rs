//! Shared-memory mappings and futex wakeups for the runtime IPC layer.
//!
//! The runtime's ring buffers live in plain files under `/dev/shm` (tmpfs on
//! Linux, so mapping them is true shared memory) that every stage process
//! `mmap`s with `MAP_SHARED`. No external crates are used: the handful of
//! syscalls we need (`mmap`, `munmap`, `futex`) are declared directly against
//! libc, with a portable spin-sleep fallback where the futex syscall is not
//! available. All waits are *bounded* — a lost wakeup costs one retry slice,
//! never a hang — which is what makes the bounded-retry reads of the ring
//! safe on top of a best-effort wake protocol.
//!
//! Every shared object declares its layout once, as `mapped!` structs of
//! integers and integer atomics, and reaches its bytes through one checked
//! cast, `SharedMap::view`.

use std::cell::UnsafeCell;
use std::ffi::{c_int, c_long, c_void};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::time::Duration;

use super::RuntimeError;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
    #[cfg(target_os = "linux")]
    fn syscall(num: c_long, ...) -> c_long;
}

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;
const MAP_FAILED: usize = usize::MAX;

/// A file-backed `MAP_SHARED` memory region.
///
/// The region is writable by every process that opens the same path; dropping
/// the map unmaps it but leaves the backing file in place (the creating
/// process removes it explicitly via [`SharedMap::unlink`]).
pub struct SharedMap {
    ptr: *mut u8,
    len: usize,
    path: PathBuf,
}

// The raw pointer is to a MAP_SHARED region that is inherently concurrently
// accessed across processes; all cross-thread access goes through atomics or
// the ring's seqlock protocol.
unsafe impl Send for SharedMap {}
unsafe impl Sync for SharedMap {}

impl std::fmt::Debug for SharedMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMap")
            .field("path", &self.path)
            .field("len", &self.len)
            .finish()
    }
}

impl SharedMap {
    /// Create (or truncate) the backing file at `path`, size it to `len`
    /// bytes, and map it shared.
    pub fn create(path: &Path, len: usize) -> Result<SharedMap, RuntimeError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| RuntimeError::shm(path, &format!("create: {e}")))?;
        file.set_len(len as u64)
            .map_err(|e| RuntimeError::shm(path, &format!("set_len: {e}")))?;
        Self::map(file, path, len)
    }

    /// Map an existing shared file created by another process.
    pub fn open(path: &Path) -> Result<SharedMap, RuntimeError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| RuntimeError::shm(path, &format!("open: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| RuntimeError::shm(path, &format!("metadata: {e}")))?
            .len() as usize;
        if len == 0 {
            return Err(RuntimeError::shm(path, "zero-length shared file"));
        }
        Self::map(file, path, len)
    }

    fn map(file: std::fs::File, path: &Path, len: usize) -> Result<SharedMap, RuntimeError> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == MAP_FAILED || ptr.is_null() {
            return Err(RuntimeError::shm(path, "mmap failed"));
        }
        // The fd can be closed once mapped; the mapping keeps the file alive.
        Ok(SharedMap {
            ptr: ptr.cast(),
            len,
            path: path.to_path_buf(),
        })
    }

    /// Length of the mapping in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// `len` values of `T` starting `offset` bytes into the map, or `None`
    /// when they overrun the map or `offset` is misaligned for `T`. This is
    /// the one typed cast of a mapping.
    pub(crate) fn view<T: Mapped>(&self, offset: usize, len: usize) -> Option<&[T]> {
        let end = len.checked_mul(size_of::<T>())?.checked_add(offset)?;
        let first = self.ptr.wrapping_add(offset).cast::<T>();
        if end > self.len || !first.is_aligned() {
            return None;
        }
        // SAFETY: the values lie inside the mapping, which lives as long as
        // `self`, and are aligned (both checked above); `T: Mapped` makes any
        // bytes a valid `T`. The slice is shared: writes go through atomics
        // or `UnsafeCell`.
        Some(unsafe { std::slice::from_raw_parts(first, len) })
    }

    /// Remove the backing file. The mapping itself stays valid until drop
    /// (POSIX keeps unlinked-but-mapped pages alive), so the owner can unlink
    /// early and no segment outlives the process tree.
    pub fn unlink(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A type every bit pattern is a valid value of.
///
/// # Safety
///
/// Implement it only for integers, floats, and arrays and `#[repr(C)]`
/// structs of such types; declare those structs with [`mapped!`], which
/// checks their fields.
pub(crate) unsafe trait AnyBits {}

// SAFETY: every bit pattern is a valid integer or float.
unsafe impl AnyBits for u32 {}
unsafe impl AnyBits for u64 {}
unsafe impl AnyBits for f32 {}
// SAFETY: an array holds nothing but its elements.
unsafe impl<T: AnyBits, const N: usize> AnyBits for [T; N] {}

/// A type that [`SharedMap::view`] may cast mapped bytes to: any bit
/// pattern is a valid value, and every byte sits in an atomic or an
/// `UnsafeCell`, since other processes write the mapping while this one
/// holds the view.
///
/// # Safety
///
/// Implement it only for integer atomics, cells of [`AnyBits`] types, and
/// arrays and `#[repr(C)]` structs of `Mapped` types; declare those
/// structs with [`mapped!`], which checks their fields.
pub(crate) unsafe trait Mapped {}

// SAFETY: every bit pattern is a valid integer atomic, and a cell of an
// `AnyBits` type holds any bits behind interior mutability.
unsafe impl Mapped for AtomicU32 {}
unsafe impl Mapped for AtomicU64 {}
unsafe impl<T: AnyBits> Mapped for UnsafeCell<T> {}
// SAFETY: an array holds nothing but its elements.
unsafe impl<T: Mapped, const N: usize> Mapped for [T; N] {}

/// Declares `#[repr(C)]` structs and implements the named marker,
/// [`AnyBits`] or [`Mapped`], for each: the `where` clause stops the build
/// unless every field type implements it too.
macro_rules! mapped {
    (impl $marker:ident; $(
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$attr])*
        #[repr(C)]
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty,)*
        }

        // SAFETY: a `repr(C)` struct holds nothing but its fields, which all
        // implement the marker (the bounds).
        unsafe impl $crate::runtime::shm::$marker for $name
        where
            $($ty: $crate::runtime::shm::$marker,)*
        {}
    )*};
}
pub(crate) use mapped;

impl Drop for SharedMap {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr.cast(), self.len);
        }
    }
}

/// Process signals the runtime supervisor uses, declared against libc like
/// the rest of this module's OS plumbing.
pub(crate) const SIGTERM: c_int = 15;
/// SIGKILL: how the supervisor puts down a stage that stopped heartbeating
/// (a hung process cannot be asked to exit gracefully).
pub(crate) const SIGKILL: c_int = 9;

#[cfg(unix)]
extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// Send `sig` to process `pid` (best-effort; a vanished pid is ignored).
#[cfg(unix)]
pub(crate) fn send_signal(pid: u32, sig: c_int) {
    unsafe {
        kill(pid as c_int, sig);
    }
}

/// Non-unix stub: the process supervisor is only built for unix targets.
#[cfg(not(unix))]
pub(crate) fn send_signal(_pid: u32, _sig: c_int) {}

/// Pick the base directory for shared ring files: `/dev/shm` when it exists
/// (Linux tmpfs), the system temp dir otherwise.
pub(crate) fn shm_base_dir() -> PathBuf {
    let dev_shm = PathBuf::from("/dev/shm");
    if dev_shm.is_dir() {
        dev_shm
    } else {
        std::env::temp_dir()
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_FUTEX: c_long = 202;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_FUTEX: c_long = 98;

const FUTEX_WAIT: c_int = 0;
const FUTEX_WAKE: c_int = 1;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Block until `word` changes away from `expected`, a wakeup arrives, or
/// `timeout` elapses — whichever comes first. Spurious returns are expected;
/// callers re-check their predicate in a loop.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAIT,
            expected,
            &ts as *const Timespec,
        );
    }
}

/// Wake every waiter parked on `word` via [`futex_wait`].
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn futex_wake(word: &AtomicU32) {
    unsafe {
        syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, c_int::MAX);
    }
}

/// Fallback for platforms without a known futex syscall: bounded sleep.
/// Correctness is unchanged (all ring waits are bounded-retry); only wakeup
/// latency degrades to the sleep quantum.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    if word.load(std::sync::atomic::Ordering::Acquire) != expected {
        return;
    }
    std::thread::sleep(timeout.min(Duration::from_micros(200)));
}

/// Fallback wake: a no-op; waiters poll on a bounded sleep.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn futex_wake(_word: &AtomicU32) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn create_open_roundtrip_and_unlink() {
        let path = std::env::temp_dir().join(format!("ebshm-test-{}", std::process::id()));
        let map = SharedMap::create(&path, 4096).unwrap();
        assert_eq!(map.len(), 4096);
        let word = &map.view::<AtomicU32>(0, 1).unwrap()[0];
        word.store(0xBEEF, Ordering::Release);

        let other = SharedMap::open(&path).unwrap();
        let word2 = &other.view::<AtomicU32>(0, 1).unwrap()[0];
        assert_eq!(word2.load(Ordering::Acquire), 0xBEEF);
        word2.store(0xCAFE, Ordering::Release);
        assert_eq!(word.load(Ordering::Acquire), 0xCAFE);

        map.unlink();
        assert!(!path.exists());
    }

    #[test]
    fn view_checks_bounds_and_alignment() {
        let path = std::env::temp_dir().join(format!("ebshm-view-{}", std::process::id()));
        let map = SharedMap::create(&path, 64).unwrap();
        map.unlink();
        assert_eq!(map.view::<AtomicU64>(0, 8).map(<[_]>::len), Some(8));
        assert_eq!(map.view::<AtomicU64>(64, 0).map(<[_]>::len), Some(0));
        assert!(map.view::<AtomicU64>(8, 8).is_none(), "overruns the map");
        assert!(map.view::<AtomicU64>(4, 1).is_none(), "misaligned");
        assert!(
            map.view::<AtomicU64>(8, usize::MAX).is_none(),
            "size overflows"
        );
        assert!(
            map.view::<AtomicU64>(usize::MAX, 1).is_none(),
            "end overflows"
        );
    }

    #[test]
    fn futex_wait_times_out_and_wakes() {
        let word = Arc::new(AtomicU32::new(0));
        // Timeout path: value matches, nobody wakes us.
        let t0 = std::time::Instant::now();
        futex_wait(&word, 0, Duration::from_millis(5));
        assert!(t0.elapsed() < Duration::from_secs(2));

        // Mismatch path: returns immediately.
        futex_wait(&word, 1, Duration::from_secs(5));

        // Wake path: a second thread bumps and wakes.
        let w = Arc::clone(&word);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            w.store(7, Ordering::Release);
            futex_wake(&w);
        });
        let t0 = std::time::Instant::now();
        while word.load(Ordering::Acquire) == 0 && t0.elapsed() < Duration::from_secs(5) {
            futex_wait(&word, 0, Duration::from_millis(50));
        }
        assert_eq!(word.load(Ordering::Acquire), 7);
        h.join().unwrap();
    }
}
