//! Sample arithmetic: exact quantiles over raw samples, the
//! time-sliced p99, and the relative-difference rule `sysbench aa` uses.
//!
//! Latencies are kept as raw nanosecond samples and sorted once; no
//! bucketed histogram sits between a sample and the number reported
//! (`tagnn_obs::Histogram` buckets are 6.25 % wide, wider than the
//! regression bounds this benchmark enforces).

/// Exact nearest-rank quantile of an ascending-sorted sample set: the
/// smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty set.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its exact `q` quantile.
pub fn quantile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    quantile(samples, q)
}

/// Median of a float set (mean of the two middle values for an even
/// count). Returns 0 for an empty set.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Lower quartile (nearest rank) of a float set: the value a quarter of
/// the set is at or below. Returns 0 for an empty set.
///
/// On a shared host interference is one-sided — it only ever makes a
/// pass, a chunk or a time-slice slower — so the quiet quarter of a
/// run's repetitions says more about the code than its middle does.
/// Times are reported as the lower quartile of their repetitions, rates
/// as the [`upper_quartile`].
pub fn lower_quartile(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    values[(values.len().div_ceil(4)).max(1) - 1]
}

/// Upper quartile (nearest rank): the mirror of [`lower_quartile`].
pub fn upper_quartile(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| b.partial_cmp(a).expect("metric values are finite"));
    values[(values.len().div_ceil(4)).max(1) - 1]
}

/// The time-sliced quantile: splits `[start, end)` into `slices` equal
/// time-slices, takes the exact `q` quantile of the samples whose
/// timestamp falls in each, and returns the [`lower_quartile`] of those
/// per-slice quantiles. One stall then moves one slice, not the
/// reported value.
///
/// `samples` are `(timestamp_ns, value_ns)` pairs; slices that received
/// no sample are left out.
pub fn sliced_quantile(samples: &[(u64, u64)], start: u64, end: u64, slices: usize, q: f64) -> f64 {
    let slices = slices.max(1);
    let span = end.saturating_sub(start).max(1);
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(at, value) in samples {
        let offset = at.saturating_sub(start).min(span - 1);
        let idx = (offset as u128 * slices as u128 / span as u128) as usize;
        per_slice[idx].push(value);
    }
    let mut per_slice_q: Vec<f64> = per_slice
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile_of(s, q) as f64)
        .collect();
    lower_quartile(&mut per_slice_q)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (positive = worse), for a metric where `lower_is_better` says which
/// direction is worse.
pub fn relative_worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (second - first) / first.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}
