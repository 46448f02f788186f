//! What the operating system says about this process and its files.

use std::path::Path;

/// Process-wide I/O accounting from `/proc/self/io` (every thread,
/// including the engine's log writer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcIo {
    /// Bytes passed to write-family syscalls.
    pub wchar: u64,
    /// Write-family syscalls.
    pub syscw: u64,
}

impl ProcIo {
    pub fn read() -> ProcIo {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcIo {
            wchar: field("wchar:"),
            syscw: field("syscw:"),
        }
    }

    pub fn plus(self, other: ProcIo) -> ProcIo {
        ProcIo {
            wchar: self.wchar + other.wchar,
            syscw: self.syscw + other.syscw,
        }
    }

    pub fn since(self, earlier: ProcIo) -> ProcIo {
        ProcIo {
            wchar: self.wchar - earlier.wchar,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one malloc arena. Call before any
/// thread starts. With an arena per thread, the engine's log writer kept
/// 5–8 MB of free but unreturnable heap that varied from run to run, and
/// `rss_mb` with it; from one arena the same reading repeats within a few
/// percent.
pub fn one_malloc_arena() {
    // SAFETY: mallopt only sets an allocator parameter.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

/// Resident set size in MiB, from `/proc/self/status`, read after the
/// allocator hands its free pages back to the kernel, so the figure is
/// live memory rather than whatever free-list slack the run left behind.
pub fn rss_mb() -> f64 {
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
