//! The arithmetic the reported numbers rest on: exact quantiles, the
//! time-sliced tail, chunked throughput, the A/A rule, and span self
//! time.

use tagnn_obs::{Trace, TraceSpan};
use tagnn_sysbench::serving::{chunked_rate, CLOSED_CHUNKS};
use tagnn_sysbench::spans::self_times;
use tagnn_sysbench::stats::{
    lower_quartile, median, quantile, quantile_of, relative_worsening, sliced_quantile,
    upper_quartile,
};

#[test]
fn quantile_is_nearest_rank_over_raw_samples() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(quantile(&sorted, 0.50), 50);
    assert_eq!(quantile(&sorted, 0.99), 99);
    assert_eq!(quantile(&sorted, 1.0), 100);
    assert_eq!(quantile(&sorted, 0.0), 1);
    // Always an actual sample, never an interpolation between two.
    assert_eq!(quantile(&[10, 1_000], 0.5), 10);
    assert_eq!(quantile(&[10, 1_000], 0.51), 1_000);
    assert_eq!(quantile(&[], 0.5), 0);
    let mut unsorted = vec![5, 1, 4, 2, 3];
    assert_eq!(quantile_of(&mut unsorted, 0.5), 3);
}

#[test]
fn median_handles_even_and_odd_counts() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&mut []), 0.0);
}

#[test]
fn quartiles_sit_on_the_quiet_side() {
    // Nine pass times, two of them hit by interference.
    let mut times = [10.0, 11.0, 10.5, 30.0, 10.2, 10.8, 25.0, 10.1, 10.4];
    assert_eq!(lower_quartile(&mut times), 10.2); // 3rd smallest of 9
    let mut rates = [100.0, 98.0, 40.0, 101.0, 99.0, 97.0, 50.0, 102.0, 96.0];
    assert_eq!(upper_quartile(&mut rates), 100.0); // 3rd largest of 9
    assert_eq!(lower_quartile(&mut [5.0]), 5.0);
    assert_eq!(upper_quartile(&mut [5.0, 7.0]), 7.0);
    assert_eq!(lower_quartile(&mut []), 0.0);
    assert_eq!(upper_quartile(&mut []), 0.0);
}

#[test]
fn sliced_quantile_confines_a_stall_to_its_slice() {
    // 3 000 samples over [0, 3000): latency 10 everywhere, except a
    // stall that turns the whole last tenth of the first slice into 500.
    let samples: Vec<(u64, u64)> = (0..3_000u64)
        .map(|t| (t, if (900..1_000).contains(&t) { 500 } else { 10 }))
        .collect();
    // Over all samples the p99 sits inside the stall …
    let mut all: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
    assert_eq!(quantile_of(&mut all, 0.99), 500);
    // … while the quiet quartile of the three per-slice p99s does not.
    assert_eq!(sliced_quantile(&samples, 0, 3_000, 3, 0.99), 10.0);
    // A tail present in every slice is reported.
    let everywhere: Vec<(u64, u64)> = (0..3_000u64)
        .map(|t| (t, if t % 50 == 0 { 500 } else { 10 }))
        .collect();
    assert_eq!(sliced_quantile(&everywhere, 0, 3_000, 3, 0.99), 500.0);
}

#[test]
fn sliced_quantile_skips_empty_slices_and_clamps_stragglers() {
    // Everything falls into the first slice; one sample is stamped past
    // the end and lands in the last.
    let samples = [(0, 7), (1, 7), (10_000, 9)];
    assert_eq!(sliced_quantile(&samples, 0, 3_000, 3, 0.99), 7.0);
    assert_eq!(sliced_quantile(&samples[2..], 0, 3_000, 3, 0.99), 9.0);
    assert_eq!(sliced_quantile(&[], 0, 3_000, 3, 0.99), 0.0);
}

#[test]
fn chunked_rate_ignores_the_stalled_chunk() {
    // One unit every 1 000 ns — 1e6 units/s — with one 1 ms stall in
    // the middle. The overall rate drops; the upper-quartile chunk's
    // does not.
    let n = CLOSED_CHUNKS as u64 * 100;
    let mut done: Vec<(u64, u64)> = (1..=n)
        .map(|i| (i * 1_000 + if i > n / 2 { 1_000_000 } else { 0 }, 1))
        .collect();
    let overall = n as f64 * 1e9 / done.last().unwrap().0 as f64;
    assert!(overall < 0.6e6);
    let rate = chunked_rate(&mut done, 0);
    assert!((rate - 1e6).abs() < 1.0, "rate {rate}");
    assert_eq!(chunked_rate(&mut [], 0), 0.0);
}

#[test]
fn relative_worsening_follows_the_better_direction() {
    // Lower is better: growing is worse.
    assert!((relative_worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
    assert!((relative_worsening(100.0, 90.0, true) + 0.10).abs() < 1e-12);
    // Higher is better: shrinking is worse.
    assert!((relative_worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    assert_eq!(relative_worsening(0.0, 0.0, true), 0.0);
    assert!(relative_worsening(0.0, 1.0, true).is_infinite());
}

fn span(id: usize, name: &str, parent: Option<usize>, start: u64, dur: Option<u64>) -> TraceSpan {
    TraceSpan {
        id,
        name: name.to_string(),
        parent,
        start_ns: start,
        dur_ns: dur,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let trace = Trace {
        spans: vec![
            span(0, "window:0", None, 0, Some(100)),
            span(1, "graph.plan_window", Some(0), 5, Some(30)),
            span(2, "models.process_window", Some(0), 40, Some(50)),
            // A grandchild counts against its parent only.
            span(3, "inner", Some(2), 45, Some(20)),
            span(4, "window:1", None, 100, Some(60)),
            span(5, "graph.plan_window", Some(4), 101, Some(10)),
            // Still open: ignored, and not charged to its parent.
            span(6, "models.process_window", Some(4), 120, None),
        ],
        ..Trace::default()
    };
    let t = self_times(&trace);
    assert_eq!(t["window:0"].self_ns, 100 - 30 - 50);
    assert_eq!(t["window:1"].self_ns, 60 - 10);
    let plan = t["graph.plan_window"];
    assert_eq!((plan.count, plan.total_ns, plan.self_ns), (2, 40, 40));
    assert_eq!(plan.self_mean_ns(), 20.0);
    let exec = t["models.process_window"];
    assert_eq!((exec.count, exec.total_ns, exec.self_ns), (1, 50, 30));
    assert_eq!(t["inner"].self_ns, 20);
}

#[test]
fn self_time_clamps_when_children_outlast_the_parent() {
    let trace = Trace {
        spans: vec![
            span(0, "parent", None, 0, Some(10)),
            span(1, "child", Some(0), 0, Some(25)),
        ],
        ..Trace::default()
    };
    assert_eq!(self_times(&trace)["parent"].self_ns, 0);
}
