//! Process and allocator counters, read from outside the program.
//!
//! Everything here is a monotone total; a traced pass samples it at the
//! edges of its measured window and reports the difference per op (or
//! per epoch). The allocator totals stay zero in the plain binary,
//! which installs no counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and bytes requested, then
/// defers to the system allocator. Only `perfbench-traced` installs it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// are plain atomics that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// One reading of every counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// User + system CPU of the whole process, seconds.
    pub cpu_s: f64,
    /// `read`-family syscalls (`/proc/self/io` `syscr`).
    pub read_syscalls: u64,
    /// `write`-family syscalls (`syscw`).
    pub write_syscalls: u64,
    /// Bytes passed to `write`-family syscalls (`wchar`).
    pub write_bytes: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
    /// Heap allocations (traced binary only).
    pub allocs: u64,
    /// Heap bytes requested (traced binary only).
    pub alloc_bytes: u64,
}

impl Sample {
    /// Read every counter now.
    pub fn now() -> Sample {
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let mut ctx = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                ctx += ctx_switches_in(&task.path().join("status"));
            }
        }
        Sample {
            cpu_s: cpu_seconds(),
            read_syscalls: field(&io, "syscr:"),
            write_syscalls: field(&io, "syscw:"),
            write_bytes: field(&io, "wchar:"),
            ctx_switches: ctx,
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Field-wise sum (windows of several repetitions).
    pub fn plus(&self, o: &Sample) -> Sample {
        Sample {
            cpu_s: self.cpu_s + o.cpu_s,
            read_syscalls: self.read_syscalls + o.read_syscalls,
            write_syscalls: self.write_syscalls + o.write_syscalls,
            write_bytes: self.write_bytes + o.write_bytes,
            ctx_switches: self.ctx_switches + o.ctx_switches,
            allocs: self.allocs + o.allocs,
            alloc_bytes: self.alloc_bytes + o.alloc_bytes,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            cpu_s: self.cpu_s - earlier.cpu_s,
            read_syscalls: self.read_syscalls - earlier.read_syscalls,
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
        }
    }
}

/// Context switches of the calling thread so far. Threads that exit
/// inside a window take their counts with them, so short-lived threads
/// (the load clients) read their own at start and end.
pub fn thread_ctx_switches() -> u64 {
    ctx_switches_in(std::path::Path::new("/proc/thread-self/status"))
}

fn ctx_switches_in(path: &std::path::Path) -> u64 {
    let status = std::fs::read_to_string(path).unwrap_or_default();
    field(&status, "voluntary_ctxt_switches:") + field(&status, "nonvoluntary_ctxt_switches:")
}

/// The whole-number value after `key` at the start of a line.
fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// User + system CPU seconds of the process (fields 14 and 15 of
/// `/proc/self/stat`, counted after the parenthesised command name).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // `after` starts at field 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}
