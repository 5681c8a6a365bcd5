//! Unit tests of D²TCP, the deadline policy of [`crate::tcp::D2tcpSender`].
//! `lib.rs` mounts this file as `d2tcp`, the module path these tests have
//! always been listed under.

mod tests {
    use crate::config::TransportConfig;
    use crate::tcp::D2tcpSender;
    use crate::testing::Loopback;
    use netsim::{Addr, FlowId, PacketKind, SimDuration};

    fn new_loop(total: u64, deadline: Option<SimDuration>) -> Loopback<D2tcpSender> {
        let flow = FlowId(1);
        let tx = D2tcpSender::new(
            TransportConfig::dctcp(),
            flow,
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(total),
            deadline,
        );
        Loopback::new(flow, tx)
    }

    /// Mark every data packet Congestion Experienced.
    fn mark_data(l: &mut Loopback<D2tcpSender>, max_rounds: usize) {
        l.run_with(max_rounds, |_| false, |p| p.kind == PacketKind::Data);
    }

    #[test]
    fn completes_without_marking_like_tcp() {
        let mut l = new_loop(70_000, Some(SimDuration::from_millis(100)));
        l.run(5_000, |_| false);
        assert!(l.tx.is_completed());
        assert_eq!(l.tx.conn.data_acked, 70_000);
    }

    #[test]
    fn without_deadline_behaves_as_dctcp() {
        let mut l = new_loop(140_000, None);
        mark_data(&mut l, 5_000);
        assert!(l.tx.is_completed());
        assert!((l.tx.subflow().dctcp_penalty_exponent() - 1.0).abs() < f64::EPSILON);
        assert!(l.tx.subflow().dctcp_alpha() > 0.0, "marks must raise alpha");
    }

    #[test]
    fn near_deadline_flow_becomes_more_aggressive() {
        // A tight deadline with persistent marking: imminence should exceed 1,
        // so the penalty exponent rises above DCTCP's 1.0.
        let mut l = new_loop(500_000, Some(SimDuration::from_micros(800)));
        mark_data(&mut l, 400);
        assert!(
            l.tx.subflow().dctcp_penalty_exponent() > 1.0,
            "exponent {} should exceed 1 for an imminent deadline",
            l.tx.subflow().dctcp_penalty_exponent()
        );
    }

    #[test]
    fn far_deadline_flow_yields() {
        // A huge deadline: imminence clamps low, exponent below 1.
        let mut l = new_loop(140_000, Some(SimDuration::from_secs(30)));
        mark_data(&mut l, 50);
        assert!(
            l.tx.subflow().dctcp_penalty_exponent() < 1.0,
            "exponent {} should be below 1 for a distant deadline",
            l.tx.subflow().dctcp_penalty_exponent()
        );
    }

    #[test]
    fn ecn_is_forced_on() {
        let cfg = TransportConfig::default(); // ecn = false
        let tx = D2tcpSender::new(
            cfg,
            FlowId(1),
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(1_000),
            None,
        );
        assert!(tx.subflow().config().ecn, "D2TCP always negotiates ECN");
    }
}
