//! Traffic matrices: who talks to whom.
//!
//! The paper schedules all flows "based on a permutation traffic matrix":
//! every sending host is paired with exactly one receiving host and no host
//! receives from more than one sender. The hotspot scenario concentrates
//! senders on a few hosts, and the benchmark's stride matrix fixes every
//! pair by position (incast is a workload of its own,
//! [`crate::flows::incast_workload`]).

use netsim::{Addr, SimRng};
use serde::{Deserialize, Serialize};

/// The kind of traffic matrix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficMatrix {
    /// A random derangement: every host sends to exactly one other host and
    /// receives from exactly one other host (never itself).
    Permutation,
    /// Host `i` sends to host `(i + stride) mod n`.
    Stride(usize),
    /// A fraction of senders all target the same small set of "hot" hosts.
    Hotspot {
        /// Number of hot destination hosts.
        hot_hosts: usize,
        /// Fraction (0..=1 scaled by 1000, i.e. 250 = 25 %) of senders whose
        /// destination is a hot host; the rest follow a permutation.
        hot_fraction_millis: u32,
    },
}

/// Assign a destination to every sender in `senders`, drawing destinations
/// from `candidates` (usually the same set, or all hosts).
///
/// Returns pairs `(src, dst)` with `src != dst` guaranteed.
pub fn assign_destinations(
    matrix: TrafficMatrix,
    senders: &[Addr],
    candidates: &[Addr],
    rng: &mut SimRng,
) -> Vec<(Addr, Addr)> {
    assert!(!senders.is_empty(), "no senders");
    assert!(candidates.len() >= 2, "need at least two candidate hosts");
    match matrix {
        TrafficMatrix::Permutation => permutation(senders, candidates, rng),
        TrafficMatrix::Stride(k) => {
            let n = candidates.len();
            senders
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let mut dst = candidates[(i + k) % n];
                    if dst == s {
                        dst = candidates[(i + k + 1) % n];
                    }
                    (s, dst)
                })
                .collect()
        }
        TrafficMatrix::Hotspot {
            hot_hosts,
            hot_fraction_millis,
        } => {
            let hot_hosts = hot_hosts.clamp(1, candidates.len());
            let hot: Vec<Addr> = candidates[..hot_hosts].to_vec();
            let base = permutation(senders, candidates, rng);
            base.into_iter()
                .map(|(s, d)| {
                    if rng.range(0..1000u32) < hot_fraction_millis {
                        let mut h = hot[rng.range(0..hot.len())];
                        if h == s {
                            h = hot[(hot.iter().position(|&x| x == h).unwrap() + 1) % hot.len()];
                        }
                        if h == s {
                            (s, d)
                        } else {
                            (s, h)
                        }
                    } else {
                        (s, d)
                    }
                })
                .collect()
        }
    }
}

/// Random permutation (derangement) of senders onto candidates.
fn permutation(senders: &[Addr], candidates: &[Addr], rng: &mut SimRng) -> Vec<(Addr, Addr)> {
    // Shuffle candidate destinations until no sender maps to itself; for the
    // rare residual fixed points, swap with a neighbour.
    let mut dsts: Vec<Addr> = candidates.to_vec();
    rng.shuffle(&mut dsts);
    // Truncate/cycle the destination list to the sender count.
    let mut result: Vec<(Addr, Addr)> = senders
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, dsts[i % dsts.len()]))
        .collect();
    let n = result.len();
    for i in 0..n {
        if result[i].0 == result[i].1 {
            let j = (i + 1) % n;
            let (di, dj) = (result[i].1, result[j].1);
            result[i].1 = dj;
            result[j].1 = di;
            // If still a fixed point (only possible when n == 1), give up and
            // panic — a one-host permutation is meaningless.
            assert!(
                result[i].0 != result[i].1,
                "cannot build a permutation over a single host"
            );
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<Addr> {
        (0..n as u32).map(Addr).collect()
    }

    #[test]
    fn permutation_has_no_self_pairs_and_unique_destinations() {
        let mut rng = SimRng::new(7);
        let h = hosts(64);
        let pairs = assign_destinations(TrafficMatrix::Permutation, &h, &h, &mut rng);
        assert_eq!(pairs.len(), 64);
        let mut dsts = std::collections::HashSet::new();
        for (s, d) in &pairs {
            assert_ne!(s, d, "self pair");
            dsts.insert(*d);
        }
        assert_eq!(dsts.len(), 64, "destinations must be distinct");
    }

    #[test]
    fn permutation_is_deterministic_per_seed() {
        let h = hosts(32);
        let a = assign_destinations(TrafficMatrix::Permutation, &h, &h, &mut SimRng::new(1));
        let b = assign_destinations(TrafficMatrix::Permutation, &h, &h, &mut SimRng::new(1));
        let c = assign_destinations(TrafficMatrix::Permutation, &h, &h, &mut SimRng::new(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stride_matrix() {
        let mut rng = SimRng::new(3);
        let h = hosts(8);
        let pairs = assign_destinations(TrafficMatrix::Stride(4), &h, &h, &mut rng);
        assert_eq!(pairs[0], (Addr(0), Addr(4)));
        assert_eq!(pairs[5], (Addr(5), Addr(1)));
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = SimRng::new(5);
        let h = hosts(100);
        let pairs = assign_destinations(
            TrafficMatrix::Hotspot {
                hot_hosts: 2,
                hot_fraction_millis: 800,
            },
            &h,
            &h,
            &mut rng,
        );
        let hot_count = pairs.iter().filter(|(_, d)| d.0 < 2).count();
        assert!(
            hot_count > 50,
            "expected most flows to hit the hot hosts, got {hot_count}"
        );
        for (s, d) in pairs {
            assert_ne!(s, d);
        }
    }
}
