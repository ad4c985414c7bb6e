//! `bench timeline` — render a filter warm-up curve from interval telemetry.
//!
//! End-of-run tables answer "how good is the trained filter"; this module
//! answers "how fast does it get there". It runs one instrumented cell with
//! **no warm-up** (the transient is the whole point), collects the interval
//! records, and derives a [`WarmupAnalysis`]: where `fraction_good` leaves
//! its weakly-good 1.0 init, when it stabilizes, and how large the
//! bad-prefetch burst is before the history table converges — the §4
//! training dynamics the paper describes but never plots.

use ppf_sim::RunSpec;
use ppf_types::json_struct;
use ppf_types::telemetry::IntervalRecord;
use ppf_types::{FilterKind, PpfError, SystemConfig};
use ppf_workloads::{AdversarySpec, Workload};

use ppf_sim::report::{f3, TextTable};

/// Convergence band: `fraction_good` counts as stable once every later
/// sample stays within this distance of the final value.
pub const STABLE_EPSILON: f64 = 0.02;

/// Recovery band: after an attack window closes, the filter counts as
/// recovered once `fraction_good` climbs back within this distance of the
/// pre-attack baseline (one-sided — overshooting the baseline is fine).
pub const RECOVERY_EPSILON: f64 = 0.05;

/// Maximum table rows rendered (the full series is always in `--json`).
const MAX_ROWS: usize = 40;

/// One `bench timeline` invocation, fully specified.
#[derive(Debug, Clone)]
pub struct TimelineSettings {
    /// Benchmark to trace.
    pub workload: Workload,
    /// Pollution filter under observation.
    pub filter: FilterKind,
    /// Instructions to run (from a cold machine — no warm-up phase).
    pub insts: u64,
    /// Telemetry sampling interval in cycles.
    pub interval_cycles: u64,
    /// Stream seed.
    pub seed: u64,
    /// Adversarial campaign to interleave into the stream (None = the
    /// plain warm-up trace).
    pub attack: Option<AdversarySpec>,
}

impl Default for TimelineSettings {
    fn default() -> Self {
        TimelineSettings {
            workload: Workload::Em3d,
            filter: FilterKind::Pa,
            insts: 400_000,
            interval_cycles: 5_000,
            seed: 42,
            attack: None,
        }
    }
}

/// Warm-up shape derived from an interval series.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupAnalysis {
    /// `fraction_good` of the first interval (≈1.0 under weakly-good init).
    pub start_fraction_good: f64,
    /// `fraction_good` of the last interval.
    pub final_fraction_good: f64,
    /// Did the series settle into the ±[`STABLE_EPSILON`] band at all?
    pub converged: bool,
    /// First interval from which every sample stays within the band.
    pub intervals_to_stable: u64,
    /// The same boundary in cycles.
    pub cycles_to_stable: u64,
    /// Interval with the most bad-classified prefetches (the transient
    /// burst the filter exists to suppress).
    pub peak_bad_interval: u64,
    /// Bad prefetches in that peak interval.
    pub peak_bad_count: u64,
    /// Bad prefetches per interval before the stable boundary.
    pub bad_rate_before_stable: f64,
    /// Bad prefetches per interval from the boundary on.
    pub bad_rate_after_stable: f64,
}

json_struct!(WarmupAnalysis {
    start_fraction_good,
    final_fraction_good,
    converged,
    intervals_to_stable,
    cycles_to_stable,
    peak_bad_interval,
    peak_bad_count,
    bad_rate_before_stable,
    bad_rate_after_stable,
});

/// Time-to-recover shape of a run with an adversarial campaign: how far
/// `fraction_good` fell under attack, and how long after attack-off it
/// took to climb back within [`RECOVERY_EPSILON`] of the pre-attack
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAnalysis {
    /// The campaign, in `kind@start..stop` form.
    pub attack: String,
    /// First attacked instruction (stream index).
    pub attack_start: u64,
    /// First post-attack instruction (stream index).
    pub attack_stop: u64,
    /// Mean `fraction_good` over the intervals fully before the attack
    /// (falls back to the first interval when the attack starts at 0).
    pub baseline_fraction_good: f64,
    /// Mean `fraction_good` over the intervals overlapping the attack.
    pub under_attack_fraction_good: f64,
    /// Lowest `fraction_good` seen from attack-on onwards.
    pub trough_fraction_good: f64,
    /// Did `fraction_good` return within the recovery band post-attack?
    pub recovered: bool,
    /// Post-attack intervals elapsed until recovery (0 = the first
    /// interval after attack-off was already in the band).
    pub intervals_to_recover: u64,
    /// The same span in cycles, measured from the first post-attack
    /// interval's start.
    pub cycles_to_recover: u64,
}

json_struct!(RecoveryAnalysis {
    attack,
    attack_start,
    attack_stop,
    baseline_fraction_good,
    under_attack_fraction_good,
    trough_fraction_good,
    recovered,
    intervals_to_recover,
    cycles_to_recover,
});

/// The full timeline result: the interval series plus its analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Benchmark name.
    pub workload: String,
    /// Filter label ("PA", "PC", ...).
    pub filter: String,
    /// Stream seed.
    pub seed: u64,
    /// Sampling interval in cycles.
    pub interval_cycles: u64,
    /// The interval series, in order.
    pub records: Vec<IntervalRecord>,
    /// Warm-up shape derived from the series.
    pub analysis: WarmupAnalysis,
    /// Time-to-recover shape, present when the run carried an attack.
    pub recovery: Option<RecoveryAnalysis>,
}

json_struct!(TimelineReport {
    workload,
    filter,
    seed,
    interval_cycles,
    records,
    analysis,
    recovery,
});

/// Derive the warm-up shape from an interval series. An empty series — a
/// telemetry JSONL stream with no records — yields a neutral, explicitly
/// non-converged analysis rather than panicking, so downstream rendering
/// stays total.
pub fn analyze(records: &[IntervalRecord]) -> WarmupAnalysis {
    if records.is_empty() {
        return WarmupAnalysis {
            start_fraction_good: 0.0,
            final_fraction_good: 0.0,
            converged: false,
            intervals_to_stable: 0,
            cycles_to_stable: 0,
            peak_bad_interval: 0,
            peak_bad_count: 0,
            bad_rate_before_stable: 0.0,
            bad_rate_after_stable: 0.0,
        };
    }
    let final_fg = records[records.len() - 1].fraction_good;
    // First index from which *every* later sample stays in the band —
    // scanned backwards so a late excursion pushes the boundary out.
    let mut stable_from = records.len() - 1;
    for i in (0..records.len()).rev() {
        if (records[i].fraction_good - final_fg).abs() <= STABLE_EPSILON {
            stable_from = i;
        } else {
            break;
        }
    }
    let converged = (records[stable_from].fraction_good - final_fg).abs() <= STABLE_EPSILON;
    let (peak_idx, peak) = records
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.prefetch_bad)
        .expect("nonempty");
    let rate = |slice: &[IntervalRecord]| {
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().map(|r| r.prefetch_bad).sum::<u64>() as f64 / slice.len() as f64
        }
    };
    WarmupAnalysis {
        start_fraction_good: records[0].fraction_good,
        final_fraction_good: final_fg,
        converged,
        intervals_to_stable: records[stable_from].interval,
        cycles_to_stable: records[stable_from].start_cycle,
        peak_bad_interval: records[peak_idx].interval,
        peak_bad_count: peak.prefetch_bad,
        bad_rate_before_stable: rate(&records[..stable_from]),
        bad_rate_after_stable: rate(&records[stable_from..]),
    }
}

/// Derive the time-to-recover shape of an attacked run. Intervals are
/// mapped onto the attack window by cumulative retired instructions:
/// "baseline" intervals end before the attack starts, "under attack"
/// intervals overlap the window, and recovery is scanned over the
/// intervals starting at or after attack-off. An empty series or a
/// window past the end of the run yields an explicitly non-recovered
/// analysis rather than panicking.
pub fn analyze_recovery(records: &[IntervalRecord], attack: &AdversarySpec) -> RecoveryAnalysis {
    let mut neutral = RecoveryAnalysis {
        attack: attack.describe(),
        attack_start: attack.start,
        attack_stop: attack.stop,
        baseline_fraction_good: 0.0,
        under_attack_fraction_good: 0.0,
        trough_fraction_good: 0.0,
        recovered: false,
        intervals_to_recover: 0,
        cycles_to_recover: 0,
    };
    if records.is_empty() {
        return neutral;
    }
    // Cumulative retired instructions at each interval boundary: interval
    // i covers (cum[i], cum[i + 1]] in stream index terms.
    let mut cum = 0u64;
    let mut baseline = Vec::new();
    let mut under = Vec::new();
    let mut first_post: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        let (lo, hi) = (cum, cum + r.instructions);
        cum = hi;
        if hi <= attack.start {
            baseline.push(r.fraction_good);
        } else if lo < attack.stop {
            under.push(r.fraction_good);
        } else if first_post.is_none() {
            first_post = Some(i);
        }
    }
    let fg_mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    // An attack opening at instruction 0 has no clean intervals; the
    // filter's weakly-good start (the first sample) is then the fairest
    // "what it should get back to" reference.
    neutral.baseline_fraction_good = if baseline.is_empty() {
        records[0].fraction_good
    } else {
        fg_mean(&baseline)
    };
    neutral.under_attack_fraction_good = fg_mean(&under);
    neutral.trough_fraction_good = records[baseline.len()..]
        .iter()
        .map(|r| r.fraction_good)
        .fold(f64::INFINITY, f64::min)
        .min(records[records.len() - 1].fraction_good);
    let Some(post) = first_post else {
        return neutral; // attack window runs past the end of the series
    };
    let off_cycle = records[post].start_cycle;
    for (k, r) in records[post..].iter().enumerate() {
        if r.fraction_good >= neutral.baseline_fraction_good - RECOVERY_EPSILON {
            neutral.recovered = true;
            neutral.intervals_to_recover = k as u64;
            neutral.cycles_to_recover = r.end_cycle - off_cycle;
            break;
        }
    }
    neutral
}

/// Run the instrumented cell and build the report.
pub fn run(settings: &TimelineSettings) -> Result<TimelineReport, PpfError> {
    // Deliberately no warm-up: interval 0 starts at the cold machine, so
    // the filter's weakly-good transient is on the curve.
    let spec = RunSpec {
        seed: settings.seed,
        n_instructions: settings.insts,
        warmup: 0,
        adversary: settings.attack,
        ..RunSpec::new(
            format!("timeline-{}", settings.filter.label()),
            SystemConfig::paper_default().with_filter(settings.filter),
            settings.workload,
        )
    };
    let mut sim = spec
        .build_simulator()?
        .with_telemetry(settings.interval_cycles)?;
    sim.run_checked(spec.n_instructions)?;
    let records = sim.take_telemetry_records();
    if records.is_empty() {
        return Err(PpfError::config_invalid(format!(
            "run too short for interval telemetry: no interval of {} cycles \
             completed — lower --interval or raise --insts",
            settings.interval_cycles
        )));
    }
    let analysis = analyze(&records);
    let recovery = settings
        .attack
        .as_ref()
        .map(|a| analyze_recovery(&records, a));
    Ok(TimelineReport {
        workload: settings.workload.name().to_string(),
        filter: settings.filter.label().to_string(),
        seed: settings.seed,
        interval_cycles: settings.interval_cycles,
        records,
        analysis,
        recovery,
    })
}

/// Render the timeline as an aligned text table plus a warm-up summary.
/// Long series are downsampled to about `MAX_ROWS` rows; `--json` always
/// carries every record.
pub fn render(report: &TimelineReport) -> String {
    let mut out = format!(
        "== timeline: {} / {} filter, {} cycles per interval, seed {} ==\n",
        report.workload, report.filter, report.interval_cycles, report.seed
    );
    let mut t = TextTable::new(vec![
        "interval",
        "cycles",
        "IPC",
        "L1 miss",
        "issued",
        "filtered",
        "good",
        "bad",
        "frac-good",
        "bus",
    ]);
    let step = report.records.len().div_ceil(MAX_ROWS);
    for r in report.records.iter().step_by(step.max(1)) {
        t.row(vec![
            r.interval.to_string(),
            format!("{}..{}", r.start_cycle, r.end_cycle),
            f3(r.ipc),
            f3(r.l1_miss_rate),
            r.prefetch_issued.total().to_string(),
            r.prefetch_filtered.total().to_string(),
            r.prefetch_good.to_string(),
            r.prefetch_bad.to_string(),
            f3(r.fraction_good),
            f3(r.bus_occupancy),
        ]);
    }
    out.push_str(&t.render());
    if step > 1 {
        out.push_str(&format!(
            "({} of {} intervals shown; --json carries all)\n",
            report.records.len().div_ceil(step),
            report.records.len()
        ));
    }
    let a = &report.analysis;
    out.push_str(&format!(
        "warm-up: fraction_good {} -> {} ({})\n",
        f3(a.start_fraction_good),
        f3(a.final_fraction_good),
        if a.converged {
            format!(
                "stable within ±{STABLE_EPSILON} from interval {} (cycle {})",
                a.intervals_to_stable, a.cycles_to_stable
            )
        } else {
            "not yet stable — raise --insts".to_string()
        },
    ));
    out.push_str(&format!(
        "bad-prefetch burst: peak {} in interval {}; {} bad/interval before \
         stability vs {} after\n",
        a.peak_bad_count,
        a.peak_bad_interval,
        f3(a.bad_rate_before_stable),
        f3(a.bad_rate_after_stable),
    ));
    if let Some(r) = &report.recovery {
        out.push_str(&format!(
            "attack {}: fraction_good baseline {} -> under attack {} (trough {})\n",
            r.attack,
            f3(r.baseline_fraction_good),
            f3(r.under_attack_fraction_good),
            f3(r.trough_fraction_good),
        ));
        out.push_str(&if r.recovered {
            format!(
                "recovery: within ±{RECOVERY_EPSILON} of baseline {} intervals \
                 ({} cycles) after attack-off\n",
                r.intervals_to_recover, r.cycles_to_recover
            )
        } else {
            "recovery: NOT recovered by end of run — raise --insts or widen \
             the post-attack window\n"
                .to_string()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::json::{FromJson, ToJson};
    use ppf_types::stats::PerSource;

    fn rec(interval: u64, fraction_good: f64, bad: u64) -> IntervalRecord {
        IntervalRecord {
            interval,
            start_cycle: interval * 100,
            end_cycle: (interval + 1) * 100,
            instructions: 120,
            ipc: 1.2,
            l1_miss_rate: 0.1,
            prefetch_issued: PerSource::default(),
            prefetch_filtered: PerSource::default(),
            prefetch_dropped: PerSource::default(),
            prefetch_good: 5,
            prefetch_bad: bad,
            fraction_good,
            bus_occupancy: 0.3,
            mshr_live: 1,
            queue_backlog: 0,
        }
    }

    #[test]
    fn analyze_finds_convergence_boundary() {
        let records = vec![
            rec(0, 1.0, 40),
            rec(1, 0.9, 30),
            rec(2, 0.8, 10),
            rec(3, 0.79, 2),
            rec(4, 0.80, 1),
        ];
        let a = analyze(&records);
        assert_eq!(a.start_fraction_good, 1.0);
        assert_eq!(a.final_fraction_good, 0.80);
        assert!(a.converged);
        assert_eq!(a.intervals_to_stable, 2);
        assert_eq!(a.cycles_to_stable, 200);
        assert_eq!(a.peak_bad_interval, 0);
        assert_eq!(a.peak_bad_count, 40);
        assert!(a.bad_rate_before_stable > a.bad_rate_after_stable);
    }

    #[test]
    fn analyze_flat_series_is_stable_from_the_start() {
        let records = vec![rec(0, 0.9, 3), rec(1, 0.9, 3), rec(2, 0.9, 3)];
        let a = analyze(&records);
        assert!(a.converged);
        assert_eq!(a.intervals_to_stable, 0);
        assert_eq!(a.bad_rate_before_stable, 0.0);
    }

    /// A synthetic attacked series: each interval retires 100 instructions.
    fn fg_series(fgs: &[f64]) -> Vec<IntervalRecord> {
        fgs.iter()
            .enumerate()
            .map(|(i, &fg)| {
                let mut r = rec(i as u64, fg, 1);
                r.instructions = 100;
                r
            })
            .collect()
    }

    #[test]
    fn analyze_recovery_maps_intervals_onto_the_window() {
        use ppf_workloads::AttackKind;
        // Intervals 0..3 clean (fg 0.9), 3..6 attacked (fg 0.5), then the
        // post-attack climb back toward baseline.
        let records = fg_series(&[0.9, 0.9, 0.9, 0.5, 0.5, 0.5, 0.6, 0.8, 0.88, 0.9]);
        let spec = AdversarySpec::window(AttackKind::Poison, 300, 600);
        let r = analyze_recovery(&records, &spec);
        assert_eq!(r.attack_start, 300);
        assert_eq!(r.attack_stop, 600);
        assert!((r.baseline_fraction_good - 0.9).abs() < 1e-12);
        assert!((r.under_attack_fraction_good - 0.5).abs() < 1e-12);
        assert!((r.trough_fraction_good - 0.5).abs() < 1e-12);
        assert!(r.recovered);
        // 0.6 and 0.8 miss the 0.9 - 0.05 band; 0.88 is the first hit,
        // two intervals after attack-off.
        assert_eq!(r.intervals_to_recover, 2);
        assert_eq!(
            r.cycles_to_recover,
            records[8].end_cycle - records[6].start_cycle
        );
    }

    #[test]
    fn analyze_recovery_flags_an_unrecovered_series() {
        use ppf_workloads::AttackKind;
        let records = fg_series(&[0.9, 0.9, 0.5, 0.5, 0.6, 0.6]);
        let spec = AdversarySpec::window(AttackKind::AliasFlood, 200, 400);
        let r = analyze_recovery(&records, &spec);
        assert!(!r.recovered, "0.6 never reaches 0.9 - 0.05");
        assert_eq!(r.intervals_to_recover, 0);
    }

    #[test]
    fn analyze_recovery_with_window_past_the_end_is_neutral() {
        use ppf_workloads::AttackKind;
        let records = fg_series(&[0.9, 0.9]);
        let spec = AdversarySpec::window(AttackKind::PhaseShift, 100, 10_000);
        let r = analyze_recovery(&records, &spec);
        assert!(!r.recovered, "no post-attack interval to recover in");
    }

    #[test]
    fn attacked_timeline_carries_a_recovery_analysis() {
        use ppf_workloads::AttackKind;
        let settings = TimelineSettings {
            insts: 120_000,
            attack: Some(AdversarySpec::window(AttackKind::Poison, 20_000, 60_000)),
            ..TimelineSettings::default()
        };
        let a = run(&settings).expect("attacked timeline runs");
        let b = run(&settings).expect("attacked timeline runs");
        assert_eq!(a, b, "pinned seed => identical attacked series");
        let rec = a.recovery.as_ref().expect("attack => recovery analysis");
        assert_eq!(rec.attack, "poison@20000..60000");
        let text = render(&a);
        assert!(text.contains("attack poison@20000..60000"), "{text}");
        assert!(text.contains("recovery:"), "{text}");
    }

    #[test]
    fn timeline_run_is_deterministic_and_shows_warmup() {
        let settings = TimelineSettings::default();
        let a = run(&settings).expect("timeline runs");
        let b = run(&settings).expect("timeline runs");
        assert_eq!(a, b, "pinned seed => identical series");
        assert!(!a.records.is_empty());
        // The weakly-good init: the curve starts at (or near) 1.0 and
        // decays as bad prefetches train the history table.
        assert!(a.analysis.start_fraction_good > 0.99);
        assert!(a.analysis.final_fraction_good < a.analysis.start_fraction_good);
    }

    #[test]
    fn timeline_report_json_round_trips() {
        let settings = TimelineSettings {
            insts: 60_000,
            ..TimelineSettings::default()
        };
        let report = run(&settings).expect("timeline runs");
        let back = TimelineReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn too_short_run_is_a_structured_error() {
        let settings = TimelineSettings {
            insts: 10,
            interval_cycles: 1_000_000,
            ..TimelineSettings::default()
        };
        let err = run(&settings).unwrap_err();
        assert!(err.message.contains("no interval"), "{err}");
    }

    fn report_of(records: Vec<IntervalRecord>) -> TimelineReport {
        TimelineReport {
            workload: "em3d".to_string(),
            filter: "PA".to_string(),
            seed: 42,
            interval_cycles: 100,
            analysis: analyze(&records),
            records,
            recovery: None,
        }
    }

    #[test]
    fn empty_series_analyzes_neutral_and_renders() {
        // An empty telemetry JSONL stream must not panic anywhere in the
        // analyze/render pipeline.
        let a = analyze(&[]);
        assert!(!a.converged, "nothing observed is not convergence");
        assert_eq!(a.peak_bad_count, 0);
        let text = render(&report_of(Vec::new()));
        assert!(text.contains("== timeline:"), "{text}");
        assert!(text.contains("not yet stable"), "{text}");
        assert!(!text.contains("intervals shown"), "no downsampling note");
    }

    #[test]
    fn single_interval_renders_stable_table() {
        let text = render(&report_of(vec![rec(0, 0.95, 7)]));
        // The one record is its own final value: trivially converged, and
        // the row must actually appear in the table.
        assert!(text.contains("stable within"), "{text}");
        assert!(text.contains("0..100"), "{text}");
        assert!(!text.contains("intervals shown"), "no downsampling note");
    }

    #[test]
    fn series_below_downsample_width_keeps_every_row() {
        let n = MAX_ROWS - 1;
        let records: Vec<IntervalRecord> = (0..n as u64).map(|i| rec(i, 0.9, 1)).collect();
        let text = render(&report_of(records));
        for i in 0..n as u64 {
            assert!(
                text.contains(&format!("{}..{}", i * 100, (i + 1) * 100)),
                "interval {i} missing from an un-downsampled table"
            );
        }
        assert!(!text.contains("intervals shown"), "no downsampling note");
    }

    #[test]
    fn render_downsamples_long_series() {
        let records: Vec<IntervalRecord> = (0..200).map(|i| rec(i, 0.9, 1)).collect();
        let report = TimelineReport {
            workload: "em3d".to_string(),
            filter: "PA".to_string(),
            seed: 42,
            interval_cycles: 100,
            analysis: analyze(&records),
            records,
            recovery: None,
        };
        let text = render(&report);
        assert!(text.lines().count() < 60, "downsampled: {}", text.len());
        assert!(text.contains("intervals shown"));
        assert!(text.contains("warm-up: fraction_good"));
    }
}
