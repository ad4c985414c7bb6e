//! The binaries' stdout contract: a reader that goes away early silences
//! the tables but not the run, and any other stdout error exits 1 with a
//! message instead of a panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppf-stdout-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run `cmd` with its stdout pipe closed right after spawn. The command
/// simulates before its first write, so every write meets a closed pipe.
fn run_with_closed_stdout(cmd: &mut Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("the binary exits")
}

#[test]
fn closed_stdout_still_finishes_the_sweep() {
    let dir = temp_dir("sweep");
    let out = run_with_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--insts", "5000", "--json"])
            .arg(&dir)
            .args(["fig2", "fig1"]),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        dir.join("fig1.json").is_file(),
        "the sweep goes on after stdout closes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_does_not_fail_a_timeline() {
    let out = run_with_closed_stdout(Command::new(env!("CARGO_BIN_EXE_bench")).args([
        "timeline",
        "em3d",
        "--insts",
        "20000",
        "--interval",
        "2000",
    ]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn stdout_write_error_exits_1_without_a_panic() {
    // `/dev/full` fails every write with "no space left on device".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--list")
        .stdout(full)
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("writing stdout"), "{stderr}");
}
