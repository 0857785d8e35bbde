//! Machine context printed with every result, and process-level readings.

use std::path::{Path, PathBuf};

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" in a plain source tree.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mounts`), or "unknown".
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set of this process (`VmHWM`), in bytes; 0 if unreadable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Writes `tel`'s spans as a Chrome trace under [`out_dir`] and reports
/// where on a report line.
pub fn write_chrome_trace(tel: &stronghold_core::Telemetry, workload: &str, seed: u64) {
    let path = out_dir().join(format!("{workload}-seed{seed}.trace.json"));
    match std::fs::write(&path, tel.to_chrome_trace()) {
        Ok(()) => println!("# chrome trace: {}", path.display()),
        Err(e) => println!("# chrome trace not written: {e}"),
    }
}

/// The benchmark package directory (this crate's manifest directory).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory for spill files and traces, inside the package so a
/// run writes nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}
