//! Aggregation helpers. Medians and geometric means come from the
//! repository's bench statistics kernel (`htsat_bench::harness`); only the
//! latency quantile, which must rank failed requests as infinitely slow,
//! lives here.

use htsat_bench::harness::{geomean as harness_geomean, summarize};

/// Median of finite, non-negative samples (the harness definition:
/// midpoint average for even counts). `None` for an empty or invalid set.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).ok().map(|s| s.median)
}

/// Geometric mean of positive values; `None` when undefined.
pub fn geomean(values: &[f64]) -> Option<f64> {
    harness_geomean(values).ok()
}

/// The `q`-quantile (0 < q < 1) by linear interpolation between closest
/// ranks. Failed operations enter as `f64::INFINITY`, so a failure counts
/// as missing every latency limit; the result is infinite when too many
/// failed.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if a.is_infinite() || b.is_infinite() {
        return Some(f64::INFINITY);
    }
    Some(a + (b - a) * (rank - lo as f64))
}

/// Geometric mean over classes of each class's `q`-quantile. Used wherever
/// one workload mixes request classes of very different cost: a pooled
/// quantile would sit on the boundary between two classes and jump between
/// them from run to run.
pub fn class_quantile(classes: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_class: Option<Vec<f64>> = classes.iter().map(|c| quantile(c, q)).collect();
    let per_class = per_class?;
    if per_class.iter().any(|v| v.is_infinite()) {
        return Some(f64::INFINITY);
    }
    geomean(&per_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_ranks_failures_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, f64::INFINITY, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.9), Some(f64::INFINITY));
    }
}
