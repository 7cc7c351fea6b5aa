//! Scratch-file naming, the per-process liveness lock, and the orphan
//! sweep that reclaims what a crashed process left in a spill directory.
//!
//! Spill files are `hsarun-<pid>-<seq>.bin`; the pid makes a file
//! attributable to its writing process, and `seq` is drawn from one
//! counter per process, so stores sharing a directory never name the same
//! file. A process marks itself live with `hsarun-<pid>.lock` for as long
//! as any of its stores is open on the directory; the last store to
//! close retires the lock, a crash leaves it behind, and the next store
//! to open the directory pairs it with a liveness check before
//! reclaiming.

use crate::io::lock;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const SPILL_PREFIX: &str = "hsarun-";

/// Scratch files this process has named, in every directory.
static SEGMENTS: AtomicU64 = AtomicU64::new(0);

/// This process's stores open on each directory, by canonical path.
static OPEN_STORES: Mutex<BTreeMap<PathBuf, usize>> = Mutex::new(BTreeMap::new());

/// Path of a scratch file in `dir` that no store of this process has
/// named before.
pub(crate) fn next_spill_path(dir: &Path, pid: u32) -> PathBuf {
    // ORDERING: Relaxed — the RMW's atomicity alone makes sequence
    // numbers unique; no other memory rides on the counter.
    let seq = SEGMENTS.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{SPILL_PREFIX}{pid}-{seq:08}.bin"))
}

pub(crate) fn lock_name(pid: u32) -> String {
    format!("{SPILL_PREFIX}{pid}.lock")
}

/// One store's share of its process's liveness marker in a directory:
/// the first share writes `hsarun-<pid>.lock`, so concurrent sweeps by
/// sibling processes leave the process's scratch alone, and dropping the
/// last share retires it, so a later sweep can reclaim anything the
/// process failed to delete. Crashes skip the retirement — that is
/// exactly the case the sweep's liveness check covers.
#[derive(Debug)]
pub(crate) struct Liveness {
    /// The directory's canonical path.
    dir: PathBuf,
    pid: u32,
}

impl Liveness {
    pub(crate) fn take(dir: &Path, pid: u32) -> io::Result<Self> {
        let dir = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
        let mut open = lock(&OPEN_STORES);
        if !open.contains_key(&dir) {
            fs::write(dir.join(lock_name(pid)), pid.to_string())?;
        }
        *open.entry(dir.clone()).or_insert(0) += 1;
        Ok(Self { dir, pid })
    }
}

impl Drop for Liveness {
    fn drop(&mut self) {
        let mut open = lock(&OPEN_STORES);
        let Some(stores) = open.get_mut(&self.dir) else { return };
        *stores -= 1;
        if *stores == 0 {
            open.remove(&self.dir);
            let _ = fs::remove_file(self.dir.join(lock_name(self.pid)));
        }
    }
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
