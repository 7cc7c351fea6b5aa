//! Facts about the machine and the checkout that a result is recorded
//! with, and the process's own peak memory.

use hashing_is_sorting::kernels::{select, KernelPref};
use hashing_is_sorting::obs::json::JsonValue;
use std::path::{Path, PathBuf};

/// Environment overrides that change what the program under test runs;
/// the harness refuses to measure under any of them.
const FORBIDDEN_ENV: [&str; 3] = ["HSA_KERNEL", "HSA_RUNTIME_THREADS", "HSA_NT_STORES"];

pub fn refuse_overrides() -> Result<(), String> {
    match FORBIDDEN_ENV.iter().find(|name| std::env::var_os(name).is_some()) {
        Some(name) => Err(format!("{name} is set; results under an override are not comparable")),
        None => Ok(()),
    }
}

/// The benchmark package's directory: where cargo says it is, else
/// `benchmark` under the current directory (the checkout root).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unreadable VmHWM {field:?}"))?;
    Ok(kib / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident size, so that the
/// peak covers the warm-up and the window and not the set-up repeats.
/// Best effort: where the kernel lacks `clear_refs`, the peak stays whole.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time of all processors so far and the part of it the hypervisor
/// gave to other guests, in jiffies (`/proc/stat`, first line).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        text.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout that is not a repository reads "unknown".
fn git_commit(repo: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let head = read(repo.join(".git/HEAD"));
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(repo.join(".git").join(reference)),
        None => head,
    };
    commit.filter(|c| !c.is_empty()).unwrap_or_else(|| "unknown".to_string())
}

/// What every results file records next to its numbers.
pub fn facts(seed: u64) -> JsonValue {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    JsonValue::obj([
        ("nproc", JsonValue::U64(nproc() as u64)),
        ("cpu_model", JsonValue::str(cpu)),
        ("kernel_tier", JsonValue::str(select(KernelPref::Auto).label())),
        ("git_commit", JsonValue::str(git_commit(&bench_dir().join("..")))),
        ("seed", JsonValue::U64(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_facts_are_complete() {
        assert!(peak_rss_mib().unwrap() > 1.0);
        let f = facts(9);
        for key in ["nproc", "cpu_model", "kernel_tier", "git_commit", "seed"] {
            assert!(f.get(key).is_some(), "{key}");
        }
        assert_eq!(f.get("seed").unwrap().as_u64(), Some(9));
    }
}
