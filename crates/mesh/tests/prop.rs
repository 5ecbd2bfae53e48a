//! Property tests: the network neither loses nor duplicates packets,
//! delivery times respect the analytic minimum, and link arbitration
//! carries one packet per link without ever idling a link that has a
//! waiter.

use commsense_des::{EventQueue, Time};
use commsense_mesh::{
    Endpoint, HopRecord, NetConfig, NetEvent, Network, Packet, PacketClass, Priority,
};
use proptest::prelude::*;

/// Drives a network to quiescence, returning `(arrival, tag)` pairs.
fn drain(net: &mut Network, mut q: EventQueue<NetEvent>) -> Vec<(Time, u64)> {
    let mut out = Vec::new();
    while let Some((t, ev)) = q.pop() {
        let mut sched = Vec::new();
        if let Some(d) = net.handle(t, ev, &mut |t2, e2| sched.push((t2, e2))) {
            out.push((t, d.packet.tag));
        }
        for (t2, e2) in sched {
            q.schedule(t2, e2);
        }
    }
    out
}

/// Events of a schedule that injects packets at chosen instants.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Inject(usize),
    Net(NetEvent),
}

/// Link timing on round numbers: every serialization, router delay and
/// injection time is a multiple of 8 ns, so grants, hops and injections
/// keep landing on the same instants.
fn tie_heavy_config() -> NetConfig {
    NetConfig {
        ps_per_byte: 1_000,
        router_delay_ps: 8_000,
        eject_delay_ps: 8_000,
        ..NetConfig::alewife()
    }
}

/// Runs `schedule` (injection tick in 8 ns units, packet) to quiescence
/// with recording on; returns the hop records and the number of
/// [`NetEvent::LinkFree`] events dispatched.
fn run_schedule(net: &mut Network, schedule: &[(u64, Packet)]) -> (Vec<HopRecord>, usize) {
    net.enable_recording(schedule.len());
    let mut q = EventQueue::new();
    for (i, &(tick, _)) in schedule.iter().enumerate() {
        q.schedule(Time::from_ns(8 * tick), Ev::Inject(i));
    }
    let mut link_frees = 0;
    while let Some((t, ev)) = q.pop() {
        let mut sched = Vec::new();
        let mut push = |t2, e2| sched.push((t2, Ev::Net(e2)));
        match ev {
            Ev::Inject(i) => net.inject(t, schedule[i].1.clone(), &mut push),
            Ev::Net(e) => {
                link_frees += usize::from(matches!(e, NetEvent::LinkFree { .. }));
                net.handle(t, e, &mut push);
            }
        }
        for (t2, e2) in sched {
            q.schedule(t2, e2);
        }
    }
    let recording = net.take_recording().expect("recording enabled");
    assert_eq!(recording.dropped_packets, 0, "every packet recorded");
    (recording.hops, link_frees)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tie-heavy random traffic in both priority classes: no two hops on
    /// one link overlap; a link never idles while a packet that asked for
    /// it earlier waits (work conservation); and every `LinkFree` grants a
    /// packet (one per hop that had to wait).
    #[test]
    fn links_carry_one_packet_and_never_idle_with_a_waiter(
        traffic in proptest::collection::vec(
            ((0u64..6, 0usize..32, 0usize..32), (1u32..4, any::<bool>(), 0u8..8)),
            1..80,
        )
    ) {
        let mut net = Network::new(tie_heavy_config());
        let schedule: Vec<(u64, Packet)> = traffic
            .iter()
            .enumerate()
            .filter(|&(_, &((_, src, dst), _))| src != dst)
            .map(|(tag, &((tick, src, dst), (size, high, kind)))| {
                // One packet in eight is a west-to-east cross-traffic
                // stream on the source's row, which skips the injection
                // port and so adds more same-instant requests.
                let pkt = if kind == 0 {
                    let row = (src / 8) as u16;
                    Packet::cross_traffic(Endpoint::IoWest(row), Endpoint::IoEast(row), 8 * size)
                } else {
                    Packet::protocol(
                        Endpoint::node(src),
                        Endpoint::node(dst),
                        8 * size,
                        PacketClass::Data,
                        tag as u64,
                    )
                };
                let priority = if high { Priority::High } else { Priority::Low };
                (tick, pkt.with_priority(priority))
            })
            .collect();
        let (hops, link_frees) = run_schedule(&mut net, &schedule);
        prop_assert_eq!(net.in_flight(), 0);
        prop_assert!(net.link_overlap().is_none(), "recorder saw {:?}", net.link_overlap());

        let mut by_link: Vec<Vec<HopRecord>> = vec![Vec::new(); net.num_links()];
        for h in &hops {
            by_link[h.link as usize].push(*h);
        }
        for (link, hops) in by_link.iter_mut().enumerate() {
            hops.sort_by_key(|h| h.start);
            for w in hops.windows(2) {
                prop_assert!(
                    w[1].start >= w[0].end,
                    "link {link}: hop at {} overlaps one busy until {}", w[1].start, w[0].end
                );
            }
            // A link idles before its first hop and between consecutive
            // hops; no packet may have been waiting for it then.
            let mut gaps = Vec::new();
            let mut idle_from = Time::ZERO;
            for h in hops.iter() {
                if idle_from < h.start {
                    gaps.push(idle_from..h.start);
                }
                idle_from = idle_from.max(h.end);
            }
            for w in hops.iter() {
                for gap in &gaps {
                    prop_assert!(
                        !(w.enqueued < gap.end && gap.start < w.start),
                        "link {link} idle over {gap:?} while a packet that asked at {} \
                         waited until {}", w.enqueued, w.start
                    );
                }
            }
        }
        let waited = hops.iter().filter(|h| h.start > h.enqueued).count();
        prop_assert_eq!(link_frees, waited, "one LinkFree per granted waiter");
    }

    /// Every compute-node packet is delivered exactly once, no earlier
    /// than its uncongested minimum (head latency + serialization).
    #[test]
    fn no_loss_no_duplication_no_time_travel(
        pairs in proptest::collection::vec((0usize..32, 0usize..32, 8u32..256), 1..60)
    ) {
        let cfg = NetConfig::alewife();
        let mut net = Network::new(cfg.clone());
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for (tag, &(src, dst, bytes)) in pairs.iter().enumerate() {
            if src == dst {
                continue;
            }
            let pkt = Packet::protocol(
                Endpoint::node(src),
                Endpoint::node(dst),
                bytes.max(8),
                PacketClass::Data,
                tag as u64,
            );
            let mut sched = Vec::new();
            net.inject(Time::ZERO, pkt, &mut |t, e| sched.push((t, e)));
            for (t, e) in sched {
                q.schedule(t, e);
            }
            let hops = net.topo().hops(src, dst) as u64;
            let min = hops * cfg.router_delay_ps
                + bytes.max(8) as u64 * cfg.ps_per_byte;
            expected.push((tag as u64, Time::from_ps(min)));
        }
        let delivered = drain(&mut net, q);
        prop_assert_eq!(delivered.len(), expected.len(), "every packet arrives once");
        let mut tags: Vec<u64> = delivered.iter().map(|&(_, tag)| tag).collect();
        tags.sort_unstable();
        let mut want: Vec<u64> = expected.iter().map(|&(tag, _)| tag).collect();
        want.sort_unstable();
        prop_assert_eq!(tags, want);
        for &(t, tag) in &delivered {
            let (_, min) = expected.iter().find(|&&(w, _)| w == tag).expect("expected tag");
            prop_assert!(t >= *min, "tag {tag} arrived {t} before minimum {min}");
        }
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Cross-traffic floods never deadlock the network or leak flights.
    #[test]
    fn cross_traffic_flood_terminates(rows in 1u16..4, waves in 1usize..12) {
        let mut net = Network::new(NetConfig::alewife());
        let mut q = EventQueue::new();
        for w in 0..waves {
            for row in 0..rows {
                let pkt =
                    Packet::cross_traffic(Endpoint::IoWest(row), Endpoint::IoEast(row), 64);
                let mut sched = Vec::new();
                net.inject(Time::from_ns(w as u64 * 10), pkt, &mut |t, e| sched.push((t, e)));
                for (t, e) in sched {
                    q.schedule(t, e);
                }
            }
        }
        let delivered = drain(&mut net, q);
        prop_assert!(delivered.is_empty(), "cross traffic exits off-edge");
        prop_assert_eq!(net.in_flight(), 0);
        prop_assert_eq!(net.stats().packets_delivered, (rows as u64) * waves as u64);
    }
}
