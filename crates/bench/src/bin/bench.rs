//! `bench` — simulator performance measurement and time-series inspection.
//!
//! ```text
//! bench throughput [--quick] [--trials N] [--out PATH] [--no-write]
//!                  [--baseline PATH] [--max-regress PCT]
//! bench timeline [WORKLOAD] [--filter PA|PC|hybrid|perceptron|none]
//!                [--insts N] [--interval CYCLES] [--seed S] [--json]
//! ```
//!
//! `throughput` runs the pinned-seed workload mix through every model layer
//! (core / +mem / +prefetch / +filter), prints a per-layer MIPS table and
//! writes `BENCH_<rev>.json` (override with `--out`, suppress with
//! `--no-write`). Each layer is timed `--trials` times (default 3) and the
//! fastest pass reported, so one preempted scheduler slice cannot masquerade
//! as a simulator regression. With `--baseline` the run is also diffed against a
//! committed `BENCH_*.json`; the delta table prints either way and the
//! exit code is 3 when any layer's MIPS regressed more than
//! `--max-regress` percent (default 15).
//!
//! `timeline` runs one cold (no warm-up) cell with interval telemetry and
//! renders the filter's warm-up curve — `fraction_good` leaving its
//! weakly-good init, the transient bad-prefetch burst, and the interval at
//! which the history table stabilizes. `--json` emits the full record
//! series plus analysis as one JSON document instead of the table.
//!
//! With `--attack KIND` the stream carries an adversarial campaign
//! (poison, alias-flood, phase-shift or interleave; window set by
//! `--attack-start`/`--attack-stop` in instructions) and the report gains
//! a time-to-recover analysis: how far `fraction_good` fell under attack
//! and how many intervals after attack-off it took to climb back within
//! the recovery band of the pre-attack baseline.
//!
//! Exit codes: 0 success, 1 usage or I/O errors, 3 perf regression.

use ppf_bench::{throughput, timeline};
use ppf_types::{FilterKind, ToJson};
use ppf_workloads::{AdversarySpec, AttackKind, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bench throughput [--quick] [--trials N] [--out PATH] [--no-write]\n\
     \x20                       [--baseline PATH] [--max-regress PCT]\n\
     \x20      bench timeline [WORKLOAD] [--filter PA|PC|hybrid|perceptron|none]\n\
     \x20                     [--insts N] [--interval CYCLES] [--seed S] [--json]\n\
     \x20                     [--attack poison|alias-flood|phase-shift|interleave]\n\
     \x20                     [--attack-start N] [--attack-stop N]";

/// Exit code for "ran fine, but MIPS regressed beyond the threshold".
const EXIT_REGRESSION: u8 = 3;

fn parse_filter(name: &str) -> Option<FilterKind> {
    match name.to_ascii_lowercase().as_str() {
        "none" => Some(FilterKind::None),
        "pa" => Some(FilterKind::Pa),
        "pc" => Some(FilterKind::Pc),
        "hybrid" => Some(FilterKind::Hybrid),
        "perceptron" => Some(FilterKind::Perceptron),
        _ => None,
    }
}

fn timeline_main(args: &[String]) -> ExitCode {
    let mut settings = timeline::TimelineSettings::default();
    let mut json = false;
    let mut attack: Option<AttackKind> = None;
    let mut attack_start: Option<u64> = None;
    let mut attack_stop: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--attack" => {
                i += 1;
                match args.get(i).and_then(|s| AttackKind::from_name(s)) {
                    Some(kind) => attack = Some(kind),
                    None => {
                        eprintln!(
                            "--attack needs one of poison|alias-flood|phase-shift|interleave\n{USAGE}"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--attack-start" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => attack_start = Some(n),
                    None => {
                        eprintln!("--attack-start needs an instruction index\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--attack-stop" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => attack_stop = Some(n),
                    None => {
                        eprintln!("--attack-stop needs an instruction index\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--filter" => {
                i += 1;
                match args.get(i).and_then(|s| parse_filter(s)) {
                    Some(kind) => settings.filter = kind,
                    None => {
                        eprintln!("--filter needs one of PA|PC|hybrid|perceptron|none\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--insts" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => settings.insts = n,
                    _ => {
                        eprintln!("--insts needs a positive number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--interval" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => settings.interval_cycles = n,
                    _ => {
                        eprintln!("--interval needs a positive cycle count\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => settings.seed = n,
                    None => {
                        eprintln!("--seed needs a number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument '{flag}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            name => match Workload::from_name(name) {
                Some(w) => settings.workload = w,
                None => {
                    eprintln!("unknown workload '{name}'");
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }
    match attack {
        Some(kind) => {
            let mut spec = AdversarySpec::campaign(kind);
            if let Some(s) = attack_start {
                spec.start = s;
            }
            if let Some(s) = attack_stop {
                spec.stop = s;
            }
            if spec.start >= spec.stop {
                eprintln!("--attack-start must be below --attack-stop\n{USAGE}");
                return ExitCode::FAILURE;
            }
            settings.attack = Some(spec);
        }
        None if attack_start.is_some() || attack_stop.is_some() => {
            eprintln!("--attack-start/--attack-stop need --attack KIND\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None => {}
    }
    match timeline::run(&settings) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json_pretty());
            } else {
                print!("{}", timeline::render(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("timeline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("timeline") {
        return timeline_main(&args[1..]);
    }
    if args.first().map(String::as_str) != Some("throughput") {
        match args.first().map(String::as_str) {
            Some("--help") | Some("-h") => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            Some(other) => eprintln!("unknown subcommand '{other}'\n{USAGE}"),
            None => eprintln!("no subcommand given\n{USAGE}"),
        }
        return ExitCode::FAILURE;
    }
    let mut settings = throughput::BenchSettings::full();
    let mut out: Option<PathBuf> = None;
    let mut write = true;
    let mut baseline: Option<PathBuf> = None;
    let mut max_regress = throughput::DEFAULT_MAX_REGRESS_PCT;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                let trials = settings.trials;
                settings = throughput::BenchSettings::quick();
                settings.trials = trials;
            }
            "--no-write" => write = false,
            "--trials" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => settings.trials = n,
                    _ => {
                        eprintln!("--trials needs a positive count\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--out needs a path\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(p) => baseline = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--baseline needs a path\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-regress" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(p) if p > 0.0 => max_regress = p,
                    _ => {
                        eprintln!("--max-regress needs a positive percentage\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let report = match throughput::run(&settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", throughput::render(&report));
    if write {
        let path = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", report.rev)));
        match throughput::store_report(&path, &report) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(base_path) = baseline {
        let base = match throughput::load_report(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let cmp = throughput::compare(&base, &report);
        println!("\nvs baseline {} ({})", base.rev, base_path.display());
        print!("{}", throughput::render_comparison(&cmp));
        if cmp.regression_exceeds(max_regress) {
            eprintln!(
                "perf regression: worst layer {:.1}% below baseline (threshold -{max_regress:.0}%)",
                cmp.worst_pct
            );
            return ExitCode::from(EXIT_REGRESSION);
        }
        println!(
            "within threshold (worst {:+.1}%, limit -{max_regress:.0}%)",
            cmp.worst_pct
        );
    }
    ExitCode::SUCCESS
}
