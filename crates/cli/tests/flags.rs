//! The flag contract at the binary: `<command> --help` prints the usage
//! and runs nothing, and a flag the command does not take is a usage
//! error naming it, never an option silently left at its default.

use std::process::{Command, Output};

fn tacc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tacc")).args(args).output().unwrap()
}

#[test]
fn help_prints_the_usage_without_running_the_command() {
    for command in ["solve", "run-trace", "serve", "client", "families"] {
        let out = tacc(&[command, "--help"]);
        assert!(out.status.success(), "{command} --help");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("tacc — topology aware"), "{command}: {stdout}");
        assert!(stdout.contains("USAGE:"), "{command}");
    }
    // Not a solve report: the usage is all `solve --help` prints.
    let out = tacc(&["solve", "--devices", "5", "--help"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("total delay"), "{stdout}");
}

#[test]
fn a_misspelt_flag_is_a_usage_error_that_names_it() {
    let dir = std::env::temp_dir().join(format!("tacc-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let trace = trace.to_str().unwrap();
    let out = tacc(&["gen-trace", "--devices", "12", "--servers", "3", "--events", "30"]);
    assert!(out.status.success());
    std::fs::write(trace, out.stdout).unwrap();

    let out = tacc(&["run-trace", "--trace", trace, "--stop-afer", "10"]);
    assert_eq!(out.status.code(), Some(1), "a usage error, not a panic or a replay");
    assert!(out.stdout.is_empty(), "nothing was replayed");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("`--stop-afer`"), "{stderr}");

    let out = tacc(&["solve", "--bogus", "1", "--devices", "5", "--servers", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing was solved");
    assert!(String::from_utf8(out.stderr).unwrap().contains("`--bogus`"));

    // The spelling the usage lists still works.
    let out = tacc(&["run-trace", "--trace", trace, "--stop-after", "10"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}
