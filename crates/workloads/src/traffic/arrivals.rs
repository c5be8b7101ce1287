//! Open-loop arrival processes.
//!
//! Every process is driven by the workspace's own [`DetRng`], so a given
//! `(kind, mean_gap, seed)` triple produces exactly one arrival timeline
//! on every machine and at every worker count — the determinism the
//! byte-identical latency tables rest on. Arrival instants are absolute
//! simulated cycles, strictly non-decreasing.

use asap_sim_core::DetRng;
use std::fmt;
use std::str::FromStr;

/// The shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Constant inter-arrival gap (deterministic rate).
    Fixed,
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// configured mean (an open-loop Poisson stream).
    Poisson,
    /// A two-state Markov-modulated Poisson process: a calm state at
    /// roughly the configured mean and a burst state arriving
    /// [`BURST_FACTOR`]× faster, with geometric dwell times. Models
    /// flash crowds and antagonist batch jobs.
    Bursty,
    /// A Poisson stream whose rate ramps up and down over a long
    /// period (piecewise-linear triangle wave between 0.25× and 1.75×
    /// the base rate) — a compressed diurnal load curve.
    Diurnal,
}

/// Burst-state speedup of [`ArrivalKind::Bursty`].
pub const BURST_FACTOR: f64 = 8.0;
/// Per-arrival probability of entering the burst state.
const P_ENTER: f64 = 1.0 / 32.0;
/// Per-arrival probability of leaving the burst state.
const P_EXIT: f64 = 1.0 / 8.0;
/// Calm-state gap stretch that compensates the burst state so the
/// long-run mean gap of `Bursty` stays close to the configured mean:
/// the stationary burst fraction is `P_ENTER / (P_ENTER + P_EXIT)` =
/// 1/5 of arrivals, so `E[gap] = base · (4/5 + 1/(5·8)) = base · 33/40`.
const BURSTY_BASE_SCALE: f64 = 40.0 / 33.0;
/// Period of the diurnal ramp, in units of `mean_gap` (about a thousand
/// requests per "day", so multi-million-request runs sweep many days).
const DIURNAL_PERIOD_GAPS: u64 = 1024;

impl ArrivalKind {
    /// All arrival kinds, in CLI order.
    pub fn all() -> [ArrivalKind; 4] {
        [
            ArrivalKind::Fixed,
            ArrivalKind::Poisson,
            ArrivalKind::Bursty,
            ArrivalKind::Diurnal,
        ]
    }

    /// CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalKind::Fixed => "fixed",
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        }
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ArrivalKind {
    type Err = String;
    fn from_str(s: &str) -> Result<ArrivalKind, String> {
        Ok(match s {
            "fixed" => ArrivalKind::Fixed,
            "poisson" => ArrivalKind::Poisson,
            "bursty" | "mmpp" => ArrivalKind::Bursty,
            "diurnal" => ArrivalKind::Diurnal,
            other => return Err(format!("unknown arrival process: {other}")),
        })
    }
}

/// A deterministic generator of absolute arrival instants.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    mean_gap: f64,
    rng: DetRng,
    at: u64,
    in_burst: bool,
}

impl ArrivalProcess {
    /// An arrival process with the given mean inter-arrival gap in
    /// cycles (the open-loop offered rate is `1 / mean_gap` requests
    /// per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is zero.
    pub fn new(kind: ArrivalKind, mean_gap: u64, rng: DetRng) -> ArrivalProcess {
        assert!(mean_gap > 0, "mean_gap must be at least one cycle");
        ArrivalProcess {
            kind,
            mean_gap: mean_gap as f64,
            rng,
            at: 0,
            in_burst: false,
        }
    }

    /// An exponential gap with the given mean. The uniform draw is
    /// taken from the top 53 bits and offset so it is never zero
    /// (`-ln(u)` stays finite; the largest possible gap is ~37× mean).
    fn exp_gap(&mut self, mean: f64) -> u64 {
        let u = ((self.rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * mean).round() as u64
    }

    /// The next absolute arrival instant (non-decreasing).
    pub fn next_at(&mut self) -> u64 {
        let gap = match self.kind {
            ArrivalKind::Fixed => self.mean_gap.round() as u64,
            ArrivalKind::Poisson => self.exp_gap(self.mean_gap),
            ArrivalKind::Bursty => {
                // State transition decided per arrival (geometric dwell).
                if self.in_burst {
                    if self.rng.chance(P_EXIT) {
                        self.in_burst = false;
                    }
                } else if self.rng.chance(P_ENTER) {
                    self.in_burst = true;
                }
                let mean = if self.in_burst {
                    self.mean_gap * BURSTY_BASE_SCALE / BURST_FACTOR
                } else {
                    self.mean_gap * BURSTY_BASE_SCALE
                };
                self.exp_gap(mean)
            }
            ArrivalKind::Diurnal => {
                // Rate factor follows a triangle wave over the period,
                // evaluated at the previous arrival instant: 0.25× at
                // the trough, 1.75× at the peak, mean 1×.
                let period = (DIURNAL_PERIOD_GAPS as f64 * self.mean_gap).max(1.0);
                let phase = (self.at as f64 % period) / period;
                let tri = 1.0 - (2.0 * phase - 1.0).abs();
                let factor = 0.25 + 1.5 * tri;
                self.exp_gap(self.mean_gap / factor)
            }
        };
        self.at = self.at.saturating_add(gap);
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(kind: ArrivalKind, mean_gap: u64, n: usize, seed: u64) -> Vec<u64> {
        let mut p = ArrivalProcess::new(kind, mean_gap, DetRng::seed(seed));
        (0..n).map(|_| p.next_at()).collect()
    }

    #[test]
    fn arrivals_are_non_decreasing_and_deterministic() {
        for kind in ArrivalKind::all() {
            let a = timeline(kind, 500, 2000, 7);
            let b = timeline(kind, 500, 2000, 7);
            assert_eq!(a, b, "{kind}: same seed must replay identically");
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{kind}: arrivals must be non-decreasing"
            );
        }
    }

    #[test]
    fn fixed_is_exact() {
        let a = timeline(ArrivalKind::Fixed, 250, 10, 1);
        assert_eq!(a, (1..=10).map(|i| i * 250).collect::<Vec<_>>());
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let n = 20_000;
        let a = timeline(ArrivalKind::Poisson, 400, n, 99);
        let mean = a.last().unwrap() / n as u64;
        assert!((300..500).contains(&mean), "poisson mean gap {mean}");
    }

    #[test]
    fn bursty_produces_short_and_long_stretches() {
        let a = timeline(ArrivalKind::Bursty, 400, 50_000, 3);
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        // Burst-state gaps concentrate near mean/8; calm gaps near the
        // mean. Both regimes must be visible.
        let short = gaps.iter().filter(|&&g| g < 100).count();
        let long = gaps.iter().filter(|&&g| g > 400).count();
        assert!(short > 1000, "no burst regime: {short}");
        assert!(long > 1000, "no calm regime: {long}");
        // Long-run mean stays near the configured mean gap.
        let mean = a.last().unwrap() / (a.len() as u64);
        assert!((300..500).contains(&mean), "bursty mean gap {mean}");
    }

    #[test]
    fn diurnal_rate_varies_over_the_period() {
        let mean_gap = 100u64;
        let a = timeline(ArrivalKind::Diurnal, mean_gap, 40_000, 5);
        // Count arrivals per quarter-period: the peak quarter must see
        // substantially more than the trough quarter.
        let period = DIURNAL_PERIOD_GAPS * mean_gap;
        let mut quarters = [0u64; 4];
        for &t in &a {
            quarters[((t % period) * 4 / period) as usize] += 1;
        }
        let peak = *quarters.iter().max().unwrap();
        let trough = *quarters.iter().min().unwrap();
        assert!(
            peak > trough * 2,
            "diurnal ramp too flat: {quarters:?} (peak {peak}, trough {trough})"
        );
    }

    #[test]
    #[should_panic(expected = "mean_gap")]
    fn zero_gap_rejected() {
        ArrivalProcess::new(ArrivalKind::Poisson, 0, DetRng::seed(1));
    }

    #[test]
    fn kind_round_trips_through_str() {
        for k in ArrivalKind::all() {
            assert_eq!(k.label().parse::<ArrivalKind>().unwrap(), k);
        }
        assert!("nope".parse::<ArrivalKind>().is_err());
    }
}
