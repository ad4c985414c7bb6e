//! End-to-end test of the `bench timeline` binary: every filter kind the
//! simulator models is selectable by name on the command line.

use ppf_bench::timeline::TimelineReport;
use ppf_types::FromJson;
use std::process::Command;

#[test]
fn perceptron_filter_timeline_records_intervals() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["timeline", "em3d", "--filter", "perceptron"])
        .args(["--insts", "20000", "--json"])
        .output()
        .expect("bench binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).unwrap();
    let report = TimelineReport::from_json_str(&json).expect("stdout parses as TimelineReport");
    assert_eq!(report.filter, "perceptron");
    assert!(!report.records.is_empty(), "no interval records");
}
