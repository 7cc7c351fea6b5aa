//! Scratch-file naming, the per-process liveness lock, and the orphan
//! sweep that reclaims what a crashed process left in a spill directory.
//!
//! Spill files are `hsarun-<pid>-<seq>.bin`; the pid makes a file
//! attributable to its writing process. A process marks itself live with
//! `hsarun-<pid>.lock` for as long as it has a store open on the
//! directory; a clean shutdown retires the lock, a crash leaves it behind,
//! and the next store to open the directory pairs it with a liveness check
//! before reclaiming.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const SPILL_PREFIX: &str = "hsarun-";

/// Path of this process's `seq`-th scratch file in `dir`.
pub(crate) fn spill_path(dir: &Path, pid: u32, seq: u64) -> PathBuf {
    dir.join(format!("{SPILL_PREFIX}{pid}-{seq:08}.bin"))
}

pub(crate) fn lock_name(pid: u32) -> String {
    format!("{SPILL_PREFIX}{pid}.lock")
}

/// Mark `pid` live in `dir`, so concurrent sweeps by sibling processes
/// leave its scratch alone.
pub(crate) fn write_lock(dir: &Path, pid: u32) -> io::Result<()> {
    fs::write(dir.join(lock_name(pid)), pid.to_string())
}

/// Retire `pid`'s liveness marker so a later sweep can reclaim anything
/// the process failed to delete. Crashes skip this — that is exactly the
/// case the sweep's liveness check covers.
pub(crate) fn retire_lock(dir: &Path, pid: u32) {
    let _ = fs::remove_file(dir.join(lock_name(pid)));
}

/// Parse `hsarun-<pid>-<seq>.bin` / `hsarun-<pid>.lock` names into
/// `(pid, is_lock)`.
fn parse_spill_name(name: &str) -> Option<(u32, bool)> {
    let rest = name.strip_prefix(SPILL_PREFIX)?;
    if let Some(pid) = rest.strip_suffix(".lock") {
        return pid.parse().ok().map(|p| (p, true));
    }
    let stem = rest.strip_suffix(".bin")?;
    let (pid, _seq) = stem.split_once('-')?;
    pid.parse().ok().map(|p| (p, false))
}

/// Whether `pid` belongs to a live process. The lock file is the primary
/// signal; on Linux `/proc` breaks the tie for locks a crashed process
/// left behind. Elsewhere a present lock is trusted (conservative: a
/// crash that kept its lock leaks until a Linux sweep or manual cleanup).
fn pid_alive(dir: &Path, pid: u32) -> bool {
    if !dir.join(lock_name(pid)).exists() {
        return false;
    }
    if cfg!(target_os = "linux") {
        return Path::new(&format!("/proc/{pid}")).exists();
    }
    true
}

/// Remove spill files (and stale locks) of dead processes. Returns
/// `(files, bytes)` reclaimed; best-effort — an unreadable directory
/// reclaims nothing rather than failing the query.
pub(crate) fn sweep_orphans(dir: &Path, self_pid: u32) -> (u64, u64) {
    let Ok(entries) = fs::read_dir(dir) else { return (0, 0) };
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut stale_locks = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((pid, is_lock)) = parse_spill_name(name) else { continue };
        if pid == self_pid || pid_alive(dir, pid) {
            continue;
        }
        if is_lock {
            // Locks go last: removing one mid-sweep would flip the
            // liveness verdict for that pid's remaining files.
            stale_locks.push(entry.path());
        } else {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if fs::remove_file(entry.path()).is_ok() {
                files += 1;
                bytes += len;
            }
        }
    }
    for lock in stale_locks {
        let _ = fs::remove_file(lock);
    }
    (files, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_name_parsing() {
        assert_eq!(parse_spill_name("hsarun-123-00000007.bin"), Some((123, false)));
        assert_eq!(parse_spill_name("hsarun-123.lock"), Some((123, true)));
        assert_eq!(parse_spill_name("run-00000007.bin"), None);
        assert_eq!(parse_spill_name("hsarun-x-00000007.bin"), None);
        assert_eq!(parse_spill_name("hsarun-123-7.tmp"), None);
    }
}
