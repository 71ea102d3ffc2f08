//! Order statistics and the metric list a run prints.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank method; 0
/// for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-percentile of latency `samples` as the mean of the order
/// statistics from `q - 0.02` to `q + 0.02`. Where the latency
/// distribution has a gap (full downloads among partial ones, say), a
/// single order statistic jumps across it when noise reorders a few
/// samples; the window's mean only moves with the samples themselves.
pub fn smoothed_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    // The epsilons keep float error in `q ± 0.02` from widening the window.
    let lo = (((q - 0.02) * n + 1e-9).floor().max(0.0) as usize).min(sorted.len() - 1);
    let hi = (((q + 0.02) * n - 1e-9).ceil() as usize).clamp(lo + 1, sorted.len());
    let window = &sorted[lo..hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Metrics in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
        self.0.push((name, value + 0.0, unit));
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a bug
                // upstream, printed as null so the consumer rejects it.
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Calls attempted and output checks failed over one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// System calls made (captures, passes, batches, reads, reopens).
    pub attempted: u64,
    /// Calls that errored or whose output failed a check.
    pub failed: u64,
    /// Checks that failed, in order, for the standard-error report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one call as attempted.
    pub fn call(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed check when `ok` is false, keeping `what` for the
    /// report.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn smoothed_quantile_averages_a_window() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // Order statistics 89..=92 (ranks 0.88n..0.92n).
        assert_eq!(smoothed_quantile(&s, 0.9), 90.5);
        assert_eq!(smoothed_quantile(&[7.0], 0.9), 7.0);
        assert_eq!(smoothed_quantile(&[], 0.5), 0.0);
    }
}
