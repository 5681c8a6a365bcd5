//! Round-trip-time estimation and retransmission-timeout computation
//! (RFC 6298 style: SRTT / RTTVAR with a configurable minimum and exponential
//! backoff).

use netsim::SimDuration;

/// RTT estimator for one subflow.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    min_rtt: Option<SimDuration>,
    latest_rtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    initial_rto: SimDuration,
    max_rto: SimDuration,
    backoff: u32,
}

impl RttEstimator {
    /// Create an estimator.
    pub fn new(min_rto: SimDuration, initial_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            min_rtt: None,
            latest_rtt: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            initial_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Incorporate a new RTT sample (RFC 6298 §2).
    pub fn on_sample(&mut self, sample: SimDuration) {
        self.latest_rtt = Some(sample);
        self.min_rtt = Some(match self.min_rtt {
            None => sample,
            Some(m) => m.min(sample),
        });
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let delta = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - sample|
                self.rttvar = self.rttvar.mul_f64(0.75) + delta.mul_f64(0.25);
                // SRTT = 7/8 SRTT + 1/8 sample
                self.srtt = Some(srtt.mul_f64(0.875) + sample.mul_f64(0.125));
            }
        }
        // A successful sample ends any backoff (Karn).
        self.backoff = 0;
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The minimum RTT ever sampled — the propagation-delay estimate, free
    /// of the queueing delay that inflates [`Self::srtt`] under load.
    pub(crate) fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// The most recent raw RTT sample, unsmoothed. BBR-style controllers use
    /// this as the denominator of per-ACK delivery-rate samples.
    pub(crate) fn latest_rtt(&self) -> Option<SimDuration> {
        self.latest_rtt
    }

    /// The current retransmission timeout, including backoff.
    pub(crate) fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.initial_rto,
            Some(srtt) => {
                let candidate = srtt + self.rttvar.mul_f64(4.0);
                candidate.max(self.min_rto)
            }
        };
        let backed_off = base.saturating_mul(1u64 << self.backoff.min(16));
        backed_off.min(self.max_rto)
    }

    /// Double the RTO (called when a retransmission timeout fires).
    pub(crate) fn backoff(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert!(e.srtt().is_none());
    }

    #[test]
    fn first_sample_initialises_srtt() {
        let mut e = est();
        e.on_sample(SimDuration::from_micros(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_micros(100)));
        // RTO = SRTT + 4*RTTVAR = 100 + 4*50 = 300 us, clamped to min 200 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn smooths_towards_persistent_change() {
        let mut e = est();
        e.on_sample(SimDuration::from_millis(1));
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(10));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt > SimDuration::from_millis(9));
        assert!(srtt <= SimDuration::from_millis(10));
    }

    #[test]
    fn rto_exceeds_min_for_large_rtts() {
        let mut e = est();
        for _ in 0..10 {
            e.on_sample(SimDuration::from_millis(300));
        }
        assert!(e.rto() >= SimDuration::from_millis(300));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_secs(2));
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_secs(4));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60), "capped at max");
        // A fresh sample resets backoff.
        e.on_sample(SimDuration::from_millis(1));
        assert_eq!(e.backoff, 0);
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }
}
