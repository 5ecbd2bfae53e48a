//! The contention-aware network simulator.

use std::collections::VecDeque;

use commsense_des::Time;

use crate::packet::{Endpoint, Packet, Priority};
use crate::recorder::{LinkOverlap, NetRecorder, NetRecording, NO_RECORD};
use crate::stats::NetStats;
use crate::topology::Topo;

/// Physical parameters of the interconnect.
///
/// Alewife calibration: Table 1 gives the 32-node machine a bisection of
/// 360 Mbytes/s = 18 bytes per 20 MHz processor cycle. The 8×4 mesh's
/// bisection cut is crossed by 8 unidirectional channels, so each channel
/// carries 45 Mbytes/s ⇒ ~22.2 ns/byte. With a 40 ns router delay, a
/// 24-byte packet over an average ~4-hop path takes ≈0.7 µs ≈ 15 processor
/// cycles — the paper's Table 1 entry. Other topologies reuse the same
/// per-channel timing, so bisection bandwidth scales with the topology's
/// channel count.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Interconnect shape.
    pub topo: Topo,
    /// Serialization time per byte on each link, in picoseconds.
    pub ps_per_byte: u64,
    /// Head latency through one router, in picoseconds.
    pub router_delay_ps: u64,
    /// Time the ejection port is busy per delivered packet, in picoseconds
    /// (beyond what the receiving controller adds via
    /// [`Network::stall_ejection`]).
    pub eject_delay_ps: u64,
}

impl NetConfig {
    /// The Alewife 8×4 mesh calibrated to Table 1 (18 bytes/cycle bisection,
    /// 15-cycle one-way latency for 24 bytes at 20 MHz).
    pub fn alewife() -> Self {
        NetConfig {
            topo: Topo::alewife(),
            ps_per_byte: 22_222,
            router_delay_ps: 40_000,
            eject_delay_ps: 25_000,
        }
    }

    /// Bisection bandwidth in bytes per nanosecond (all channels crossing
    /// the cut, both directions).
    pub fn bisection_bytes_per_ns(&self) -> f64 {
        let channels = self.topo.bisection_channels();
        channels as f64 * (1_000.0 / self.ps_per_byte as f64)
    }

    /// Bisection bandwidth in bytes per processor cycle for a given clock.
    pub fn bisection_bytes_per_cycle(&self, clock: commsense_des::Clock) -> f64 {
        self.bisection_bytes_per_ns() * clock.cycle_ps() as f64 / 1_000.0
    }

    /// Canonical field encoding for content-addressed result caching (see
    /// `commsense_des::stable`). Every field that can affect simulated
    /// cycles must appear here, under the caller's scope.
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.scope("topo", |enc| self.topo.stable_encode(enc));
        enc.put("ps_per_byte", self.ps_per_byte);
        enc.put("router_delay_ps", self.router_delay_ps);
        enc.put("eject_delay_ps", self.eject_delay_ps);
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::alewife()
    }
}

/// Events the network schedules for itself. The embedding event loop must
/// hand them back to [`Network::handle`] at their due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A packet's head is at a router and wants its next link.
    TryHop {
        /// In-flight packet index.
        pkt: u32,
    },
    /// Grant link `link` to its next waiter. Scheduled only at the
    /// `busy_until` of a link with packets queued, so every dispatch starts
    /// one waiter.
    LinkFree {
        /// Link id.
        link: u32,
    },
    /// A packet's tail reached its destination's ejection port.
    Deliver {
        /// In-flight packet index.
        pkt: u32,
    },
}

/// A packet handed to the embedding machine on arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The packet.
    pub packet: Packet,
    /// When it was injected.
    pub injected_at: Time,
    /// The packet's lifecycle-record id ([`crate::NO_RECORD`] when
    /// recording is off or the record table was full).
    pub record: u32,
}

#[derive(Debug)]
struct InFlight {
    packet: Packet,
    /// Link ids of the full route, materialized once at injection
    /// (`Topo::route_into`) into a buffer recycled through
    /// `Network::route_pool`, so the per-hop hot path is an array read.
    /// Memory is O(in-flight packets x path length), not O(N^2).
    route: Vec<u32>,
    hop: u32,
    injected_at: Time,
    head_ready_at: Time,
    /// Lifecycle-record id ([`crate::NO_RECORD`] when not recorded).
    rec: u32,
}

/// Per-link state with a 2-class priority virtual channel.
///
/// A link carries one packet at a time. A packet that finds the link busy,
/// or finds packets already queued for it, joins the FIFO of its
/// [`Priority`] class. A grant at instant `t` goes to the oldest waiter
/// whose request (its `head_ready_at`) is earlier than `t`, high class
/// first (non-preemptively: a packet already serializing always finishes).
/// A request made at exactly `t` waits for the next grant, so the outcome
/// does not depend on the order in which same-instant events run.
///
/// Grants are lazy: `busy_until` is plain data, and a
/// [`NetEvent::LinkFree`] is scheduled at `busy_until` only while the link
/// has waiters (armed when the first one queues, re-armed after a grant
/// that leaves some behind). An idle link costs no events.
#[derive(Debug, Default)]
struct LinkState {
    busy_until: Time,
    /// Low-priority waiters (every packet under the baseline variant), in
    /// request order.
    waiters: VecDeque<u32>,
    /// High-priority waiters, served before `waiters`.
    hi_waiters: VecDeque<u32>,
}

impl LinkState {
    fn has_waiters(&self) -> bool {
        !self.waiters.is_empty() || !self.hi_waiters.is_empty()
    }
}

/// The interconnect network simulator.
///
/// The network is driven by an external event loop: [`Network::inject`] and
/// [`Network::handle`] take a `sched` callback through which the network
/// requests future [`NetEvent`]s; `handle` returns a [`Delivery`] when a
/// packet arrives at its destination. See the crate-level example.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    links: Vec<LinkState>,
    flights: Vec<Option<InFlight>>,
    free_slots: Vec<u32>,
    /// Retired route buffers, recycled to keep injection allocation-free in
    /// steady state.
    route_pool: Vec<Vec<u32>>,
    /// Per-link bisection membership, precomputed so the per-hop bandwidth
    /// accounting is a mask read instead of topology arithmetic.
    crosses: Box<[bool]>,
    inject_free: Vec<Time>,
    eject_free: Vec<Time>,
    /// Per-link starvation counters: how many queued low-priority packets
    /// were bypassed by a high-priority packet on each link.
    starved: Vec<u64>,
    stats: NetStats,
    /// Optional packet-lifecycle recorder (boxed: the common case is off,
    /// and the network struct stays small). Pure bookkeeping — never
    /// consulted for any time computation.
    recorder: Option<Box<NetRecorder>>,
}

impl Network {
    /// Creates a network.
    pub fn new(cfg: NetConfig) -> Self {
        let topo = cfg.topo;
        let links = (0..topo.num_links())
            .map(|_| LinkState::default())
            .collect();
        let n = topo.num_nodes();
        let num_links = topo.num_links();
        let crosses = (0..num_links).map(|l| topo.crosses_bisection(l)).collect();
        Network {
            cfg,
            links,
            flights: Vec::new(),
            free_slots: Vec::new(),
            route_pool: Vec::new(),
            crosses,
            inject_free: vec![Time::ZERO; n],
            eject_free: vec![Time::ZERO; n],
            starved: vec![0; num_links],
            stats: NetStats::new(),
            recorder: None,
        }
    }

    /// Turns on packet-lifecycle recording, keeping at most `max_packets`
    /// individual packet records (link busy totals always cover all
    /// traffic). Call before any packet is injected.
    pub fn enable_recording(&mut self, max_packets: usize) {
        self.recorder = Some(Box::new(NetRecorder::new(
            max_packets,
            self.cfg.topo.num_links(),
        )));
    }

    /// Detaches and returns the recording, if recording was enabled.
    pub fn take_recording(&mut self) -> Option<NetRecording> {
        self.recorder.take().map(|r| r.into_recording())
    }

    /// The record id assigned to the most recently injected packet
    /// ([`crate::NO_RECORD`] when recording is off or the table was full).
    pub fn last_record_id(&self) -> u32 {
        self.recorder.as_ref().map_or(NO_RECORD, |r| r.last_id())
    }

    /// The packet records accumulated so far, without detaching the
    /// recorder (`None` if recording is off). Record ids index this slice.
    /// Used by the machine's invariant checker to cross-check message
    /// conservation against the recorder's delivery log.
    pub fn peek_recording(&self) -> Option<&[crate::recorder::PacketRecord]> {
        self.recorder.as_ref().map(|r| r.packets())
    }

    /// The first time two hops shared one link at once, if the recorder
    /// saw one (`None` too when recording is off). The machine's invariant
    /// checker reports it as a link-capacity violation.
    pub fn link_overlap(&self) -> Option<LinkOverlap> {
        self.recorder.as_ref().and_then(|r| r.overlap())
    }

    /// Number of unidirectional links in the topology.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Packets currently queued waiting for link `id` (both priority
    /// classes).
    pub fn link_queue_len(&self, id: usize) -> usize {
        self.links[id].waiters.len() + self.links[id].hi_waiters.len()
    }

    /// How many queued low-priority packets have been bypassed by
    /// high-priority packets on link `id` so far (the per-link starvation
    /// counter of the priority virtual channel).
    pub fn link_starvation(&self, id: usize) -> u64 {
        self.starved[id]
    }

    /// Cumulative serialization time on link `id` so far (requires
    /// recording; [`Time::ZERO`] otherwise).
    pub fn link_busy(&self, id: usize) -> Time {
        self.recorder
            .as_ref()
            .map_or(Time::ZERO, |r| r.link_busy()[id])
    }

    /// The topology.
    pub fn topo(&self) -> &Topo {
        &self.cfg.topo
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Serialization time for `bytes` on one link.
    pub fn serialize_time(&self, bytes: u32) -> Time {
        Time::from_ps(bytes as u64 * self.cfg.ps_per_byte)
    }

    /// Earliest time node `id`'s network-output port can accept a new
    /// packet. The embedding machine uses this to model processors stalling
    /// on a full network interface ("Memory + NI Wait" in Figure 4).
    pub fn inject_ready_at(&self, node: usize) -> Time {
        self.inject_free[node]
    }

    /// Number of packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.iter().filter(|f| f.is_some()).count()
    }

    /// Marks node `id`'s ejection port busy until `until`; arriving packets
    /// queue behind it. The machine layer uses this to model receive-side
    /// occupancy: message-passing handlers drain the network much more
    /// slowly than the shared-memory CMMU (§5.1).
    pub fn stall_ejection(&mut self, node: usize, until: Time) {
        self.eject_free[node] = self.eject_free[node].max(until);
    }

    /// Injects a packet at `now`, scheduling its progress via `sched`.
    ///
    /// Compute-node sources serialize through the node's injection port; the
    /// packet's first hop begins once the port is free. I/O sources inject
    /// directly (the paper's I/O nodes have their own network ports).
    ///
    /// # Panics
    ///
    /// Panics if source and destination are the same compute node.
    pub fn inject(&mut self, now: Time, packet: Packet, sched: &mut impl FnMut(Time, NetEvent)) {
        let mut route = self.route_pool.pop().unwrap_or_default();
        route.clear();
        self.cfg.topo.route_into(packet.src, packet.dst, &mut route);
        self.stats.packets_injected += 1;
        self.stats
            .injected
            .record(packet.class, packet.header_bytes, packet.payload_bytes);

        let ser = self.serialize_time(packet.wire_bytes());
        let head_ready_at = match packet.src {
            Endpoint::Node(n) => {
                let n = n as usize;
                let start = now.max(self.inject_free[n]);
                self.inject_free[n] = start + ser;
                start + Time::from_ps(self.cfg.router_delay_ps)
            }
            _ => now,
        };

        let rec = match &mut self.recorder {
            Some(r) => r.on_inject(&packet, now),
            None => NO_RECORD,
        };
        let flight = InFlight {
            packet,
            route,
            hop: 0,
            injected_at: now,
            head_ready_at,
            rec,
        };
        let id = match self.free_slots.pop() {
            Some(slot) => {
                self.flights[slot as usize] = Some(flight);
                slot
            }
            None => {
                self.flights.push(Some(flight));
                (self.flights.len() - 1) as u32
            }
        };
        sched(head_ready_at, NetEvent::TryHop { pkt: id });
    }

    /// Advances the network state machine for one event.
    ///
    /// Returns a [`Delivery`] when a packet's tail arrives at a compute
    /// node. Cross-traffic packets leaving the far mesh edge are absorbed
    /// silently.
    pub fn handle(
        &mut self,
        now: Time,
        ev: NetEvent,
        sched: &mut impl FnMut(Time, NetEvent),
    ) -> Option<Delivery> {
        match ev {
            NetEvent::TryHop { pkt } => {
                self.try_hop(now, pkt, sched);
                None
            }
            NetEvent::LinkFree { link } => {
                self.grant(now, link as usize, sched);
                None
            }
            NetEvent::Deliver { pkt } => self.deliver(now, pkt),
        }
    }

    fn try_hop(&mut self, now: Time, pkt: u32, sched: &mut impl FnMut(Time, NetEvent)) {
        let flight = self.flights[pkt as usize].as_ref().expect("flight exists");
        assert!(
            (flight.hop as usize) < flight.route.len(),
            "try_hop past end of route (zero-hop routes cannot occur: \
             local traffic never injects)"
        );
        let link = flight.route[flight.hop as usize] as usize;
        let state = &mut self.links[link];
        if !state.has_waiters() {
            if state.busy_until <= now {
                self.start_hop(now, pkt, sched);
                return;
            }
            // The first waiter arms the link's wake.
            sched(state.busy_until, NetEvent::LinkFree { link: link as u32 });
        }
        match flight.packet.priority {
            Priority::High => state.hi_waiters.push_back(pkt),
            Priority::Low => state.waiters.push_back(pkt),
        }
    }

    /// Starts the oldest waiter that requested `link` before `now`, high
    /// class first, and re-arms the link's wake if waiters remain. A wake
    /// is armed only while waiters exist, at a `busy_until` later than
    /// some waiter's request, so there is always one to start.
    fn grant(&mut self, now: Time, link: usize, sched: &mut impl FnMut(Time, NetEvent)) {
        let flights = &self.flights;
        let requested_before_now = |p: &u32| {
            flights[*p as usize]
                .as_ref()
                .expect("waiter exists")
                .head_ready_at
                < now
        };
        let state = &mut self.links[link];
        debug_assert!(state.busy_until <= now, "link {link} woken while busy");
        let pkt = if state.hi_waiters.front().is_some_and(requested_before_now) {
            // A high-priority packet jumps every low-priority packet queued
            // before this instant: count the bypasses.
            let bypassed = state.waiters.partition_point(requested_before_now) as u64;
            if bypassed > 0 {
                self.starved[link] += bypassed;
                self.stats.priority_bypasses += 1;
                self.stats.low_bypassed += bypassed;
            }
            state.hi_waiters.pop_front()
        } else if state.waiters.front().is_some_and(requested_before_now) {
            state.waiters.pop_front()
        } else {
            None
        };
        let pkt =
            pkt.unwrap_or_else(|| panic!("link {link} woken at {now} with no waiter to grant"));
        self.start_hop(now, pkt, sched);
        let state = &self.links[link];
        if state.has_waiters() {
            sched(state.busy_until, NetEvent::LinkFree { link: link as u32 });
        }
    }

    fn start_hop(&mut self, now: Time, pkt: u32, sched: &mut impl FnMut(Time, NetEvent)) {
        let cfg_router = Time::from_ps(self.cfg.router_delay_ps);
        let (link, ser, last, class, hdr, pay, rec, enqueued) = {
            let flight = self.flights[pkt as usize].as_ref().expect("flight exists");
            let link = flight.route[flight.hop as usize] as usize;
            let ser = self.serialize_time(flight.packet.wire_bytes());
            let last = flight.hop as usize + 1 == flight.route.len();
            (
                link,
                ser,
                last,
                flight.packet.class,
                flight.packet.header_bytes,
                flight.packet.payload_bytes,
                flight.rec,
                // At this point `head_ready_at` still holds the time the
                // head reached this router and requested the link: the gap
                // to `now` is time spent queued behind other traffic.
                flight.head_ready_at,
            )
        };

        self.stats.link_wait_sum += now.saturating_sub(enqueued);
        if let Some(r) = &mut self.recorder {
            r.on_hop(rec, link, enqueued, now, now + ser);
        }
        self.links[link].busy_until = now + ser;
        if self.crosses[link] {
            self.stats.bisection.record(class, hdr, pay);
        }

        let flight = self.flights[pkt as usize].as_mut().expect("flight exists");
        flight.hop += 1;
        flight.head_ready_at = now + cfg_router;
        if last {
            // Tail arrives after head latency + serialization of the body.
            let tail = now + cfg_router + ser;
            match flight.packet.dst {
                Endpoint::Node(n) => {
                    let n = n as usize;
                    let at = tail.max(self.eject_free[n]);
                    self.eject_free[n] = at + Time::from_ps(self.cfg.eject_delay_ps);
                    sched(at, NetEvent::Deliver { pkt });
                }
                // Cross-traffic exits off the mesh edge: absorb.
                _ => sched(tail, NetEvent::Deliver { pkt }),
            }
        } else {
            sched(flight.head_ready_at, NetEvent::TryHop { pkt });
        }
    }

    fn deliver(&mut self, now: Time, pkt: u32) -> Option<Delivery> {
        let mut flight = self.flights[pkt as usize].take().expect("flight exists");
        self.free_slots.push(pkt);
        self.route_pool.push(std::mem::take(&mut flight.route));
        self.stats
            .record_delivery(now.saturating_sub(flight.injected_at));
        if let Some(r) = &mut self.recorder {
            r.on_deliver(flight.rec, now);
        }
        match flight.packet.dst {
            Endpoint::Node(_) => Some(Delivery {
                packet: flight.packet,
                injected_at: flight.injected_at,
                record: flight.rec,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketClass;
    use commsense_des::{Clock, EventQueue};

    /// Drives the network to quiescence, returning deliveries with times.
    fn drain(net: &mut Network, mut q: EventQueue<NetEvent>) -> Vec<(Time, Delivery)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = q.pop() {
            let mut sched = Vec::new();
            if let Some(d) = net.handle(t, ev, &mut |t2, e2| sched.push((t2, e2))) {
                out.push((t, d));
            }
            for (t2, e2) in sched {
                q.schedule(t2, e2);
            }
        }
        out
    }

    fn inject(net: &mut Network, q: &mut EventQueue<NetEvent>, now: Time, pkt: Packet) {
        let mut sched = Vec::new();
        net.inject(now, pkt, &mut |t, e| sched.push((t, e)));
        for (t, e) in sched {
            q.schedule(t, e);
        }
    }

    #[test]
    fn alewife_24_byte_packet_is_about_15_cycles() {
        let mut net = Network::new(NetConfig::alewife());
        let mut q = EventQueue::new();
        // Average-distance pair: 4 hops.
        let src = 0;
        let dst = 4; // (4,0): 4 hops
        inject(
            &mut net,
            &mut q,
            Time::ZERO,
            Packet::protocol(
                Endpoint::node(src),
                Endpoint::node(dst),
                24,
                PacketClass::Data,
                0,
            ),
        );
        let out = drain(&mut net, q);
        assert_eq!(out.len(), 1);
        let cycles = Clock::from_mhz(20.0).cycles_at_f64(out[0].0);
        assert!(
            (12.0..20.0).contains(&cycles),
            "one-way 24B = {cycles} cycles"
        );
    }

    #[test]
    fn bisection_bandwidth_calibration() {
        let cfg = NetConfig::alewife();
        let bpc = cfg.bisection_bytes_per_cycle(Clock::from_mhz(20.0));
        assert!((bpc - 18.0).abs() < 0.1, "bisection {bpc} bytes/cycle");
    }

    #[test]
    fn latency_grows_with_distance() {
        let cfg = NetConfig::alewife();
        let mut t_near = Time::ZERO;
        let mut t_far = Time::ZERO;
        for (dst, out_t) in [(1usize, &mut t_near), (31usize, &mut t_far)] {
            let mut net = Network::new(cfg.clone());
            let mut q = EventQueue::new();
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(dst),
                    24,
                    PacketClass::Data,
                    0,
                ),
            );
            let out = drain(&mut net, q);
            *out_t = out[0].0;
        }
        assert!(t_far > t_near);
    }

    #[test]
    fn contention_serializes_same_link() {
        // Two packets from node 0 to node 1 share the injection port and the
        // single east link: the second must arrive at least one
        // serialization time after the first.
        let mut net = Network::new(NetConfig::alewife());
        let mut q = EventQueue::new();
        for tag in 0..2 {
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(1),
                    104,
                    PacketClass::Data,
                    tag,
                ),
            );
        }
        let out = drain(&mut net, q);
        assert_eq!(out.len(), 2);
        let ser = net.serialize_time(104);
        assert!(
            out[1].0.saturating_sub(out[0].0) >= ser,
            "second packet {} should trail first {} by >= {}",
            out[1].0,
            out[0].0,
            ser
        );
    }

    #[test]
    fn cross_traffic_loads_bisection_but_is_not_app_volume() {
        let mut net = Network::new(NetConfig::alewife());
        let mut q = EventQueue::new();
        inject(
            &mut net,
            &mut q,
            Time::ZERO,
            Packet::cross_traffic(Endpoint::IoWest(0), Endpoint::IoEast(0), 64),
        );
        let out = drain(&mut net, q);
        assert!(out.is_empty(), "cross traffic exits off-edge, no delivery");
        assert_eq!(net.stats().bisection.cross_traffic, 64);
        assert_eq!(net.stats().bisection.app_total(), 0);
        assert_eq!(net.stats().packets_delivered, 1);
    }

    #[test]
    fn cross_traffic_slows_app_traffic_on_shared_row() {
        // App packet 0 -> 7 shares row 0 with west->east cross traffic.
        let run = |n_cross: usize| {
            let mut net = Network::new(NetConfig::alewife());
            let mut q = EventQueue::new();
            for _ in 0..n_cross {
                inject(
                    &mut net,
                    &mut q,
                    Time::ZERO,
                    Packet::cross_traffic(Endpoint::IoWest(0), Endpoint::IoEast(0), 512),
                );
            }
            inject(
                &mut net,
                &mut q,
                Time::from_ns(1),
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(7),
                    24,
                    PacketClass::Data,
                    9,
                ),
            );
            let out = drain(&mut net, q);
            out.iter()
                .find(|(_, d)| d.packet.tag == 9)
                .expect("app packet arrives")
                .0
        };
        assert!(run(8) > run(0), "cross traffic must delay the app packet");
    }

    #[test]
    fn injection_port_backpressure_visible() {
        let mut net = Network::new(NetConfig::alewife());
        let mut sink = |_t: Time, _e: NetEvent| {};
        assert_eq!(net.inject_ready_at(0), Time::ZERO);
        net.inject(
            Time::ZERO,
            Packet::protocol(
                Endpoint::node(0),
                Endpoint::node(1),
                104,
                PacketClass::Data,
                0,
            ),
            &mut sink,
        );
        assert!(net.inject_ready_at(0) > Time::ZERO);
    }

    #[test]
    fn ejection_stall_delays_delivery() {
        let run = |stall: Option<Time>| {
            let mut net = Network::new(NetConfig::alewife());
            if let Some(until) = stall {
                net.stall_ejection(1, until);
            }
            let mut q = EventQueue::new();
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(1),
                    24,
                    PacketClass::Data,
                    0,
                ),
            );
            drain(&mut net, q)[0].0
        };
        let base = run(None);
        let stalled = run(Some(Time::from_us(100)));
        assert_eq!(stalled, Time::from_us(100));
        assert!(base < stalled);
    }

    #[test]
    fn volume_accounting_per_injection() {
        let mut net = Network::new(NetConfig::alewife());
        let mut q = EventQueue::new();
        inject(
            &mut net,
            &mut q,
            Time::ZERO,
            Packet::protocol(
                Endpoint::node(0),
                Endpoint::node(31),
                24,
                PacketClass::Data,
                0,
            ),
        );
        inject(
            &mut net,
            &mut q,
            Time::ZERO,
            Packet::protocol(
                Endpoint::node(5),
                Endpoint::node(6),
                8,
                PacketClass::Request,
                1,
            ),
        );
        let _ = drain(&mut net, q);
        let v = net.stats().injected;
        assert_eq!(v.headers, 8);
        assert_eq!(v.data, 16);
        assert_eq!(v.requests, 8);
        assert_eq!(v.app_total(), 32);
    }

    #[test]
    fn flight_slots_are_recycled() {
        let mut net = Network::new(NetConfig::alewife());
        for round in 0..3 {
            let mut q = EventQueue::new();
            // EventQueue forbids scheduling into the past, so use fresh
            // queues with monotonically increasing injection times.
            let t0 = Time::from_us(round * 10);
            inject(
                &mut net,
                &mut q,
                t0,
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(3),
                    24,
                    PacketClass::Data,
                    round,
                ),
            );
            let out = drain(&mut net, q);
            assert_eq!(out.len(), 1);
        }
        assert_eq!(net.flights.iter().filter(|f| f.is_some()).count(), 0);
        assert!(net.flights.len() <= 2, "slots must be reused");
    }

    #[test]
    fn all_topologies_deliver_and_load_bisection() {
        for topo in [
            Topo::torus(8, 4),
            Topo::fat_tree(2, 5),
            Topo::dragonfly(8, 4),
        ] {
            let cfg = NetConfig {
                topo,
                ..NetConfig::alewife()
            };
            let mut net = Network::new(cfg);
            let mut q = EventQueue::new();
            let n = net.topo().num_nodes();
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::protocol(
                    Endpoint::node(0),
                    Endpoint::node(n - 1),
                    24,
                    PacketClass::Data,
                    0,
                ),
            );
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::cross_traffic(Endpoint::IoWest(0), Endpoint::IoEast(0), 64),
            );
            let out = drain(&mut net, q);
            assert_eq!(out.len(), 1, "{}: app packet delivered", net.topo().kind());
            assert_eq!(net.stats().packets_delivered, 2);
            assert_eq!(
                net.stats().bisection.cross_traffic,
                64,
                "{}: cross traffic crosses the cut exactly once",
                net.topo().kind()
            );
            assert!(net.stats().bisection.app_total() > 0);
        }
    }

    #[test]
    fn thousand_node_torus_delivers() {
        // Satellite index-audit regression: 1024 nodes, 4096 links, routes
        // well outside the 32-node id space.
        let cfg = NetConfig {
            topo: Topo::torus(32, 32),
            ..NetConfig::alewife()
        };
        let mut net = Network::new(cfg);
        assert_eq!(net.num_links(), 4096);
        let mut q = EventQueue::new();
        for (tag, (src, dst)) in [(0usize, 1023usize), (1023, 0), (500, 777)]
            .into_iter()
            .enumerate()
        {
            inject(
                &mut net,
                &mut q,
                Time::ZERO,
                Packet::protocol(
                    Endpoint::node(src),
                    Endpoint::node(dst),
                    24,
                    PacketClass::Data,
                    tag as u64,
                ),
            );
        }
        let out = drain(&mut net, q);
        assert_eq!(out.len(), 3);
        assert_eq!(net.in_flight(), 0);
    }
}
