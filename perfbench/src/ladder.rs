//! The geometric rate ladder and the bisection that finds the highest
//! sustainable rung.
//!
//! Rung `i` offers `base · step^i` tuples/s. Rungs are fixed per
//! workload (not derived from a measurement), so every run probes the
//! same rates and the answer is always one of them.

/// A fixed geometric ladder of offered rates.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    /// Rate of rung 0 (tuples/s).
    pub base: f64,
    /// Ratio between neighbouring rungs (at most 1.10).
    pub step: f64,
    /// Number of rungs.
    pub rungs: usize,
}

impl Ladder {
    /// The offered rate of rung `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.step.powi(i as i32)
    }

    /// Highest rung for which `passes` holds, assuming it holds on a
    /// prefix of the ladder (a faster offer never passes where a slower
    /// one failed). Probes O(log rungs) rungs, each at most once.
    /// `None` when even rung 0 fails.
    pub fn bisect(&self, mut passes: impl FnMut(usize) -> bool) -> Option<usize> {
        assert!(
            self.step > 1.0 && self.step <= 1.10,
            "ladder steps must be ≤ 10%"
        );
        // Invariant: every rung ≤ `good` passed (or good is None),
        // every rung ≥ `bad` failed.
        let mut good: Option<usize> = None;
        let mut bad = self.rungs;
        while good.map_or(0, |g| g + 1) < bad {
            let lo = good.map_or(0, |g| g + 1);
            let mid = lo + (bad - lo) / 2;
            if passes(mid) {
                good = Some(mid);
            } else {
                bad = mid;
            }
        }
        good
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(rungs: usize) -> Ladder {
        Ladder {
            base: 1000.0,
            step: 1.05,
            rungs,
        }
    }

    #[test]
    fn rates_are_geometric() {
        let l = ladder(10);
        assert_eq!(l.rate(0), 1000.0);
        assert!((l.rate(2) - 1102.5).abs() < 1e-9);
    }

    #[test]
    fn finds_every_threshold() {
        for rungs in 1..40 {
            let l = ladder(rungs);
            for cut in 0..=rungs {
                // Rungs below `cut` pass.
                let mut probed = Vec::new();
                let got = l.bisect(|i| {
                    probed.push(i);
                    i < cut
                });
                assert_eq!(got, cut.checked_sub(1), "rungs={rungs} cut={cut}");
                let mut uniq = probed.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), probed.len(), "a rung was probed twice");
                let bound = (usize::BITS - rungs.leading_zeros()) as usize;
                assert!(
                    probed.len() <= bound,
                    "{} probes for {rungs} rungs",
                    probed.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ladder steps")]
    fn rejects_coarse_steps() {
        Ladder {
            base: 1.0,
            step: 1.2,
            rungs: 4,
        }
        .bisect(|_| true);
    }
}
