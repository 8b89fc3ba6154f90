//! Timing summaries and solve classification shared by the workloads.

use icoil_co::{MpcSolution, MPC_QP_MAX_ITERS};

/// The nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending-sorted
/// slice; NaN when it is empty, so that a metric without samples fails
/// the run's checks instead of reading as the best value.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median (the lower one for an even count) of an unsorted sample;
/// NaN when it is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile(&sorted, 0.5)
}

/// Sorts a sample in place (total order, so NaN cannot panic the sort).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// A timing reported the way every benchmark timing is reported: its
/// median, the highest percentile that still has at least ten samples
/// beyond it, and the number of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median sample (NaN when there is none).
    pub median: f64,
    /// The tail percentile reported, out of 100 (`None` below 40
    /// samples, where not even the 75th percentile has ten samples
    /// beyond it).
    pub tail_pct: Option<f64>,
    /// The sample at `tail_pct` (NaN without one).
    pub tail: f64,
}

/// Percentiles a summary may report as its tail, highest first.
const TAIL_PCTS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

impl Summary {
    /// Summarizes an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        let n = sorted.len();
        // samples strictly beyond the nearest-rank percentile p
        let beyond = |p: f64| n - ((p / 100.0 * n as f64).ceil() as usize).min(n);
        let tail_pct = TAIL_PCTS.into_iter().find(|&p| beyond(p) >= 10);
        Summary {
            count: n,
            median: quantile(&sorted, 0.5),
            tail_pct,
            tail: tail_pct.map_or(f64::NAN, |p| quantile(&sorted, p / 100.0)),
        }
    }

    /// One human-readable line: `name: p50 X unit, p99 Y unit (n = N)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "{name}: p50 {:.4} {unit}, p{p} {:.4} {unit} (n = {})",
                self.median, self.tail, self.count
            ),
            None => format!(
                "{name}: p50 {:.4} {unit}, no tail percentile (n = {})",
                self.median, self.count
            ),
        }
    }
}

/// Whether an MPC solve used its whole ADMM budget: every SCP pass ran
/// into the per-pass iteration cap, so the iterate it returned was never
/// certified converged. Read from public solution fields only.
pub fn is_capped(solution: &MpcSolution) -> bool {
    capped(solution.qp_iterations, solution.scp_passes)
}

/// [`is_capped`] on the raw counts.
pub fn capped(qp_iterations: usize, scp_passes: u32) -> bool {
    scp_passes > 0 && qp_iterations >= scp_passes as usize * MPC_QP_MAX_ITERS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "the lower median");
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.median, 500.0);
        // p99.9 leaves one sample beyond, p99 leaves ten
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);

        let s = Summary::of(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_pct, Some(95.0));
        assert_eq!(s.tail, 190.0);
    }

    #[test]
    fn summary_of_small_samples_reports_no_unsupported_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.tail_pct, None);
        assert!(s.line("x", "ms").contains("no tail percentile"));

        // 39 samples leave nine beyond p75; 40 leave ten
        let s = Summary::of(&(1..=39).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_pct, None);
        let s = Summary::of(&(1..=40).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_pct, Some(75.0));
        assert_eq!(s.tail, 30.0);

        let s = Summary::of(&[]);
        assert_eq!((s.count, s.tail_pct), (0, None));
        assert!(s.median.is_nan());
    }

    #[test]
    fn capped_solves_are_classified_at_the_boundary() {
        let cap = MPC_QP_MAX_ITERS;
        assert!(capped(cap, 1), "one pass at exactly the cap is capped");
        assert!(!capped(cap - 1, 1));
        assert!(capped(4 * cap, 4), "every pass at the cap");
        assert!(!capped(4 * cap - 1, 4), "one pass converged early");
        assert!(!capped(cap, 2), "two passes that share one cap's work");
        assert!(!capped(0, 0), "no pass ran");
    }
}
