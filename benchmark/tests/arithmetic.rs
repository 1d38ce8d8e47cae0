//! The arithmetic every reported number rests on.

use permsearch_benchmark::compare::{verdict, Verdict};
use permsearch_benchmark::harness::summarise;
use permsearch_benchmark::report::DISTURBED_ABOVE;
use permsearch_benchmark::stats::{
    better_quartile, quartile_spread, quartiles, Better, RoundStats,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn quartiles_follow_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
        [1.25, 3.5, 5.75]
    );
    // Two points extrapolate, as Python does: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!(close(quartile_spread(&ten), (8.25 - 2.75) / 5.5));
}

#[test]
fn the_better_side_is_lower_for_times_and_upper_for_rates() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(better_quartile(&ten, Better::Lower), 2.75);
    assert_eq!(better_quartile(&ten, Better::Higher), 8.25);
}

fn rounds(scale: f64, slowdown: f64) -> Vec<RoundStats> {
    // Sixteen rounds with a little spread and two disturbed ones.
    (0..16)
        .map(|i| {
            let wobble = 1.0 + 0.01 * f64::from(i % 5) + if i % 7 == 3 { 0.2 } else { 0.0 };
            RoundStats {
                p50_us: 100.0 * wobble * scale,
                p90_us: 150.0 * wobble * scale,
                p99_us: 300.0 * wobble * scale,
                ops_per_s: 9_000.0 / (wobble * scale),
                slowdown,
            }
        })
        .collect()
}

#[test]
fn a_run_reports_the_undisturbed_quartile_of_its_rounds() {
    let quiet = rounds(1.0, 1.0);
    let setup = [(2.0, 1.0), (2.1, 1.0), (2.05, 1.0), (2.4, 1.0)];
    let run = summarise(&quiet, &setup, 0.95);
    let column = |pick: fn(&RoundStats) -> f64| quiet.iter().map(pick).collect::<Vec<_>>();
    let e = run.end_to_end;
    assert_eq!(e.query_p50_us, quartiles(&column(|r| r.p50_us))[0]);
    assert_eq!(e.query_p90_us, quartiles(&column(|r| r.p90_us))[0]);
    assert_eq!(e.ops_per_s, quartiles(&column(|r| r.ops_per_s))[2]);
    assert_eq!(e.setup_s, quartiles(&[2.0, 2.1, 2.05, 2.4])[0]);
    // The two disturbed rounds (20 % slow) are on the far side of every
    // reported quartile.
    assert!(e.query_p50_us < 100.0 * 1.02 && e.ops_per_s > 9_000.0 / 1.03);
    assert!(close(run.detail.slowdown_p50, 1.0));

    // A host that is uniformly 1.3x slower reports 1.3x the times — the
    // numbers are raw wall time — and the reference kernel says so.
    let slow_setup: Vec<(f64, f64)> = setup.iter().map(|&(s, _)| (s * 1.3, 1.3)).collect();
    let slow = summarise(&rounds(1.3, 1.3), &slow_setup, 0.95);
    assert!(close(slow.end_to_end.query_p50_us, 1.3 * e.query_p50_us));
    assert!(close(slow.end_to_end.ops_per_s, e.ops_per_s / 1.3));
    assert!(close(slow.end_to_end.setup_s, 1.3 * e.setup_s));
    assert!(close(slow.detail.slowdown_p50, 1.3));
    assert!(slow.detail.slowdown_p50 > DISTURBED_ABOVE);
}

#[test]
fn compare_verdicts() {
    let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
    let shifted = |by: f64| base.iter().map(|v| v * by).collect::<Vec<_>>();
    assert_eq!(
        verdict(&base, &shifted(1.02), Better::Lower, 0.08),
        Verdict::Same
    );
    assert_eq!(
        verdict(&base, &shifted(1.10), Better::Lower, 0.08),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&base, &shifted(0.90), Better::Lower, 0.08),
        Verdict::Better
    );
    assert_eq!(
        verdict(&base, &shifted(0.90), Better::Higher, 0.08),
        Verdict::Worse
    );
    // A set whose own quartiles are further apart than the bound resolves nothing.
    let wide: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 4.0).collect();
    assert_eq!(
        verdict(&base, &wide, Better::Lower, 0.08),
        Verdict::Unresolved
    );
}
