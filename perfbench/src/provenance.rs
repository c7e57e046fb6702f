//! The provenance line each run prints before its result: what was run,
//! on what, from which source.

use std::fs;
use std::path::{Path, PathBuf};

use crate::measure::{fnv1a_extend, FNV_OFFSET};
use crate::{Args, THREADS};

/// Prints one JSON line naming the run, the host and the source.
pub fn print(workload: &str, args: &Args, passes: usize, digest: u64) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        concat!(
            "{{\"provenance\":{{\"git_rev\":\"{}\",\"source_digest\":\"{:#018x}\",",
            "\"nproc\":{},\"threads\":{},\"profile\":\"{}\",\"workload\":\"{}\",",
            "\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\"digest\":\"{:#018x}\"}}}}"
        ),
        git_rev().unwrap_or_else(|| "unknown".to_owned()),
        source_digest(),
        nproc,
        THREADS,
        profile,
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        passes,
        digest,
    );
}

/// The checked-out commit, read from `.git` without running git (a
/// source export has none).
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_owned)
    })
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, so a result names its program even without git.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |hash, path| {
        let hash = fnv1a_extend(hash, path.to_string_lossy().as_bytes());
        fnv1a_extend(hash, &fs::read(path).unwrap_or_default())
    })
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        match entry.file_type() {
            Ok(kind) if kind.is_dir() && entry.file_name() != "target" => collect(&path, out),
            Ok(kind) if kind.is_file() => {
                let source = path
                    .extension()
                    .is_some_and(|ext| ext == "rs" || ext == "toml" || ext == "lock");
                if source {
                    out.push(path);
                }
            }
            _ => {}
        }
    }
}
