//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! figures [--insts N] [--seeds K] [--json DIR] [--checkpoint DIR]
//!         [--telemetry DIR] <experiment>...
//! figures --shard K/N --checkpoint DIR [--insts N] [--seeds K] <experiment>...
//! figures all
//! figures --list
//! ```
//!
//! Experiments: `table1 table2 calibrate fig1 fig2 fig4 ... fig16 nsp-sdp
//! cache-vs-table`, the `ablate-*` grids, `filter-family` and
//! `attack-matrix` (`--list` enumerates them).
//! Each prints an aligned text table with the same rows/series as the
//! paper's figure, plus the mean the paper quotes in its prose. With
//! `--json DIR` the raw reports are also written as JSON. With
//! `--checkpoint DIR` every completed cell is persisted and a re-run
//! resumes, executing only missing or previously failed cells. With
//! `--telemetry DIR` every cell streams per-interval metrics to
//! `DIR/<experiment>/<cell>.jsonl`.
//!
//! With `--shard K/N` only the cells whose store key shard `K` of `N`
//! owns run, into the `--checkpoint` directory, and each experiment prints
//! one coverage line. Shards own disjoint keys, so merging a sweep is
//! copying the shards' directories into one and running `figures
//! --checkpoint UNION --json OUT all`, which serves every cell; its
//! `checkpoint:` lines count any cell no shard stored as executed.
//!
//! Exit codes: 0 on success, 1 on usage or I/O errors (nothing runs on a
//! bad invocation), 2 when the sweep completed but some cells failed.
//! Tables go to stdout; the per-cell failure appendix goes to stderr, so
//! stdout stays machine-parseable even on a partial run. A stdout closed
//! early (`figures all | head`) silences the tables, not the sweep: its
//! files are still written and the exit code is unchanged.

mod stdout;

use ppf_bench::figures::{self, ExperimentOptions};
use ppf_bench::shard::ShardSpec;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use stdout::Stdout;

const USAGE: &str = "usage: figures [--insts N] [--seeds K] [--json DIR] [--checkpoint DIR] \
     [--telemetry DIR] [--inject-fault N] <experiment>...\n\
     \x20      figures --shard K/N --checkpoint DIR [--insts N] [--seeds K] <experiment>...\n\
     \x20      figures --list";

/// Exit code for "the sweep ran, but some cells failed".
const EXIT_PARTIAL: u8 = 2;

fn print_experiments(out: &mut Stdout) -> io::Result<()> {
    let names: Vec<&str> = figures::EXPERIMENTS.iter().map(|e| e.name).collect();
    writeln!(out, "experiments: {}", names.join(" "))?;
    writeln!(out, "             all")
}

fn main() -> ExitCode {
    stdout::run("figures", figures_main)
}

fn figures_main(out: &mut Stdout) -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut insts = ppf_sim::experiments::DEFAULT_INSTRUCTIONS;
    let mut opts = ExperimentOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--insts" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => insts = n,
                    _ => {
                        eprintln!("--insts needs a positive number\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--seeds" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => opts.seeds = n,
                    _ => {
                        eprintln!("--seeds needs a positive number\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.json_dir = Some(d.clone()),
                    None => {
                        eprintln!("--json needs a directory\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--checkpoint" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.checkpoint = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("--checkpoint needs a directory\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--telemetry" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.telemetry = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("--telemetry needs a directory\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--inject-fault" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => opts.inject_fault = Some(n),
                    None => {
                        eprintln!("--inject-fault needs an instruction number\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).map(|s| ShardSpec::parse(s)) {
                    Some(Ok(s)) => opts.shard = Some(s),
                    _ => {
                        eprintln!("--shard needs K/N with 1 <= K <= N\n{USAGE}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            "--list" => {
                for experiment in figures::EXPERIMENTS {
                    writeln!(out, "{}", experiment.name)?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                writeln!(out, "{USAGE}")?;
                print_experiments(out)?;
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                return Ok(ExitCode::FAILURE);
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    // A shard's only product is its stored cells. Telemetry and
    // fault-injected cells are never stored, and a shard's document would
    // pose as a full one while holding part of its grid.
    let shard_misuse = [
        (
            opts.checkpoint.is_none(),
            "--shard requires --checkpoint DIR",
        ),
        (opts.json_dir.is_some(), "--shard rejects --json"),
        (opts.telemetry.is_some(), "--shard rejects --telemetry"),
        (
            opts.inject_fault.is_some(),
            "--shard rejects --inject-fault",
        ),
    ];
    if opts.shard.is_some() {
        if let Some((_, msg)) = shard_misuse.iter().find(|(misused, _)| *misused) {
            eprintln!("{msg}\n{USAGE}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if names.is_empty() {
        eprintln!("no experiment given; try --help");
        return Ok(ExitCode::FAILURE);
    }
    if names.iter().any(|n| n == "all") {
        names = figures::EXPERIMENTS
            .iter()
            .map(|e| e.name.to_string())
            .collect();
    }
    // Validate every name before running anything: a typo must not waste a
    // sweep on the experiments listed before it.
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| figures::experiment(n).is_none())
        .collect();
    if !unknown.is_empty() {
        for n in unknown {
            eprintln!("unknown experiment '{n}'");
        }
        print_experiments(out)?;
        return Ok(ExitCode::FAILURE);
    }
    let mut failed_cells = 0usize;
    for name in &names {
        match figures::run_experiment_full(name, insts, &opts) {
            Ok(run) => {
                writeln!(out, "{}", run.body)?;
                if !run.failures.is_empty() {
                    // Diagnostics to stderr: stdout must stay parseable.
                    eprint!("{}", figures::failure_appendix(&run.failures));
                }
                if opts.checkpoint.is_some() && run.loaded_cells + run.executed_cells > 0 {
                    eprintln!(
                        "[{name}] checkpoint: {} cell runs reloaded, {} executed",
                        run.loaded_cells, run.executed_cells
                    );
                }
                failed_cells += run.failures.len();
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if failed_cells > 0 {
        eprintln!("{failed_cells} cell(s) failed; see the failure appendix above");
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }
    Ok(ExitCode::SUCCESS)
}
