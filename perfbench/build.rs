//! Stamps perfbench with the identity of the sources it and `tacc`
//! were built from: a digest of every file under the repository's
//! `crates/` and `vendor/` plus the root manifest and lock file, and the
//! git revision when the build runs inside a work tree.

use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let root =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed=../{dir}");
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
        println!("cargo:rerun-if-changed=../{file}");
    }
    files.sort();
    // FNV-1a over each file's repository-relative path and contents.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let relative = file.strip_prefix(&root).unwrap_or(file).to_string_lossy().into_owned();
        let bytes = std::fs::read(file).unwrap_or_default();
        for byte in relative.bytes().chain([0]).chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST=fnv1a:{hash:016x}");
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git}");
}
