//! Log-spaced time series.

/// One sample point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Elapsed cycles at the sample.
    pub cycles: u64,
    /// The sampled cumulative value (instructions retired, active
    /// cycles, …).
    pub value: f64,
}

impl Sample {
    /// The cumulative rate value/cycles (aggregate IPC when `value`
    /// counts instructions).
    pub fn rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.value / self.cycles as f64
        }
    }
}

/// Samples a cumulative quantity at logarithmically spaced cycle counts,
/// exactly like the x-axes of Figs. 2, 8 and 11.
///
/// # Example
///
/// ```
/// use cdvm_stats::LogSampler;
///
/// let mut s = LogSampler::new(4);
/// for c in 1..=100_000u64 {
///     s.record(c, c as f64 * 0.8); // constant IPC 0.8
/// }
/// let last = s.samples().last().unwrap();
/// assert!((last.rate() - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LogSampler {
    next_threshold: f64,
    step: f64,
    samples: Vec<Sample>,
}

impl LogSampler {
    /// Creates a sampler taking `points_per_decade` samples per decade,
    /// starting at 1 cycle.
    ///
    /// # Panics
    ///
    /// Panics if `points_per_decade` is zero.
    pub fn new(points_per_decade: u32) -> Self {
        assert!(points_per_decade > 0);
        LogSampler {
            next_threshold: 1.0,
            step: 10f64.powf(1.0 / points_per_decade as f64),
            samples: Vec::new(),
        }
    }

    /// Offers the current `(cycles, value)` point; it is stored if the
    /// next log-spaced threshold has been crossed. Call as often as you
    /// like — storage stays logarithmic. Points that would go backwards
    /// in time (cycles at or below the last stored sample) are ignored
    /// so the series stays strictly increasing.
    pub fn record(&mut self, cycles: u64, value: f64) {
        if (cycles as f64) < self.next_threshold {
            return;
        }
        if self.samples.last().is_some_and(|s| cycles <= s.cycles) {
            return;
        }
        self.samples.push(Sample { cycles, value });
        while self.next_threshold <= cycles as f64 {
            self.next_threshold *= self.step;
        }
    }

    /// Forces a final sample (end of run). If the last stored sample is
    /// already at `cycles` its value is refreshed in place; calls that
    /// would go backwards in time are ignored. The series therefore
    /// stays strictly increasing in cycles even if `finish` lands on an
    /// already-sampled cycle or is (incorrectly) called more than once.
    pub fn finish(&mut self, cycles: u64, value: f64) {
        match self.samples.last_mut() {
            Some(last) if last.cycles == cycles => last.value = value,
            Some(last) if last.cycles > cycles => {}
            _ => self.samples.push(Sample { cycles, value }),
        }
    }

    /// The collected samples, in increasing cycle order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Linearly interpolates the cumulative value at `cycles`.
    pub fn value_at(&self, cycles: u64) -> Option<f64> {
        let s = &self.samples;
        if s.is_empty() || cycles < s[0].cycles {
            return None;
        }
        match s.binary_search_by_key(&cycles, |p| p.cycles) {
            Ok(i) => Some(s[i].value),
            Err(i) if i >= s.len() => s.last().map(|p| p.value),
            Err(i) => {
                let (a, b) = (s[i - 1], s[i]);
                let t = (cycles - a.cycles) as f64 / (b.cycles - a.cycles) as f64;
                Some(a.value + t * (b.value - a.value))
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn log_spacing_bounds_sample_count() {
        let mut s = LogSampler::new(10);
        for c in 1..=1_000_000u64 {
            s.record(c, c as f64);
        }
        // 6 decades * 10 points, within slack.
        let n = s.samples().len();
        assert!((55..=70).contains(&n), "{n} samples");
    }

    #[test]
    fn rate_is_aggregate() {
        let s = Sample {
            cycles: 200,
            value: 100.0,
        };
        assert!((s.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation() {
        let mut s = LogSampler::new(1);
        s.record(1, 10.0);
        s.record(10, 100.0);
        s.record(100, 1000.0);
        assert_eq!(s.value_at(10), Some(100.0));
        let mid = s.value_at(55).unwrap();
        assert!(mid > 100.0 && mid < 1000.0);
        assert_eq!(s.value_at(0), None);
        assert_eq!(s.value_at(1_000_000), Some(1000.0));
    }

    #[test]
    fn finish_appends_last_point() {
        let mut s = LogSampler::new(1);
        s.record(1, 1.0);
        s.finish(7, 7.0);
        assert_eq!(s.samples().last().unwrap().cycles, 7);
    }

    #[test]
    fn finish_on_sampled_cycle_refreshes_without_duplicate() {
        let mut s = LogSampler::new(1);
        s.record(1, 1.0);
        s.record(10, 10.0);
        s.finish(10, 11.0);
        assert_eq!(s.samples().len(), 2);
        assert_eq!(s.samples().last().unwrap().value, 11.0);
        // A second (redundant) finish at the same cycle is also safe.
        s.finish(10, 12.0);
        assert_eq!(s.samples().len(), 2);
        assert_eq!(s.samples().last().unwrap().value, 12.0);
    }

    #[test]
    fn finish_never_goes_backwards() {
        let mut s = LogSampler::new(1);
        s.record(1, 1.0);
        s.record(100, 100.0);
        s.finish(50, 50.0); // out-of-order: ignored
        let cycles: Vec<u64> = s.samples().iter().map(|p| p.cycles).collect();
        assert_eq!(cycles, vec![1, 100]);
        // Series stays strictly increasing for binary search.
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn record_ignores_non_increasing_cycles() {
        let mut s = LogSampler::new(1);
        s.record(10, 10.0);
        s.record(10, 99.0); // duplicate cycle: ignored
        s.record(5, 5.0); // backwards: ignored
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].value, 10.0);
    }

    #[test]
    fn value_at_before_first_sample_is_none() {
        let mut s = LogSampler::new(1);
        assert_eq!(s.value_at(0), None);
        assert_eq!(s.value_at(100), None);
        s.record(10, 10.0);
        assert_eq!(s.value_at(9), None);
        assert_eq!(s.value_at(10), Some(10.0));
    }
}
