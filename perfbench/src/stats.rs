//! Sample summaries: median, p90 and the count behind each.

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between the two nearest ranks (the default of Python's
/// `statistics.quantiles(method="inclusive")` and of NumPy). `None`
/// for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let (&first, rest) = sorted.split_first()?;
    if rest.is_empty() {
        return Some(first);
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median, p90 and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Samples strictly above the p90 value.
    pub beyond_p90: usize,
}

/// Fewest samples beyond p90 for the tail to be reported as supported.
pub const MIN_TAIL: usize = 10;

impl Summary {
    /// Summarises `samples` (any order). `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p90 = quantile(&sorted, 0.9)?;
        Some(Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5)?,
            p90,
            beyond_p90: sorted.iter().filter(|&&x| x > p90).count(),
        })
    }

    /// Whether at least [`MIN_TAIL`] samples lie beyond p90.
    pub fn tail_supported(&self) -> bool {
        self.beyond_p90 >= MIN_TAIL
    }

    /// A one-line description for the report.
    pub fn describe(&self, unit: &str) -> String {
        let flag = if self.tail_supported() {
            String::new()
        } else {
            format!(
                " [p90 unsupported: {} < {MIN_TAIL} samples beyond it]",
                self.beyond_p90
            )
        };
        format!(
            "p50 {:.3} {unit}, p90 {:.3} {unit}, n={}, beyond p90={}{flag}",
            self.p50, self.p90, self.n, self.beyond_p90
        )
    }
}

/// The median of `samples` (any order); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}
