//! Transport configuration shared by all protocol variants.

use crate::cc::CongestionControl;
use netsim::{SimDuration, DEFAULT_MSS};
use serde::{Deserialize, Serialize};

/// Configuration applied to every subflow of a connection (and to plain TCP,
/// which is a single subflow).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransportConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial slow-start threshold, in bytes (effectively "infinite" by
    /// default so connections start in slow start).
    pub initial_ssthresh: u64,
    /// Lower bound on the retransmission timeout. 200 ms is the classic
    /// data-centre-unfriendly default that produces the paper's RTO tail.
    pub min_rto: SimDuration,
    /// RTO used before any RTT sample exists (RFC 6298 suggests 1 s); lost
    /// SYNs and first-window losses therefore cost ~1 s, which is where the
    /// 1 s / 3 s / 7 s bands in Figure 1(b) come from.
    pub initial_rto: SimDuration,
    /// Upper bound on the (backed-off) retransmission timeout.
    pub max_rto: SimDuration,
    /// Whether this connection negotiates ECN and reacts DCTCP-style.
    pub ecn: bool,
    /// Which congestion controller every subflow runs (the CC axis of an
    /// experiment). Defaults to Reno, the paper's baseline.
    pub cc: CongestionControl,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mss: DEFAULT_MSS,
            initial_ssthresh: u64::MAX / 2,
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            ecn: false,
            cc: CongestionControl::Reno,
        }
    }
}

/// Initial congestion window, in segments (RFC 6928).
const INITIAL_CWND_SEGMENTS: u32 = 10;

impl TransportConfig {
    /// Initial congestion window in bytes.
    pub(crate) fn initial_cwnd_bytes(&self) -> f64 {
        (INITIAL_CWND_SEGMENTS * self.mss) as f64
    }

    /// A configuration suitable for DCTCP experiments: ECN on, shallow
    /// marking is configured at the switches (not here).
    pub fn dctcp() -> Self {
        TransportConfig {
            ecn: true,
            ..TransportConfig::default()
        }
    }

    /// A low-latency variant with a 10 ms minimum RTO, used by ablation
    /// experiments exploring how much of the tail is due to the 200 ms floor.
    pub fn low_min_rto() -> Self {
        TransportConfig {
            min_rto: SimDuration::from_millis(10),
            initial_rto: SimDuration::from_millis(50),
            ..TransportConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TransportConfig::default();
        assert_eq!(c.mss, DEFAULT_MSS);
        assert!(c.initial_cwnd_bytes() > 0.0);
        assert!(c.min_rto < c.initial_rto);
        assert!(c.initial_rto < c.max_rto);
        assert!(!c.ecn);
        assert_eq!(c.cc, CongestionControl::Reno);
    }

    #[test]
    fn presets() {
        assert!(TransportConfig::dctcp().ecn);
        assert!(TransportConfig::low_min_rto().min_rto < TransportConfig::default().min_rto);
    }
}
