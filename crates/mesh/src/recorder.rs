//! Optional packet-lifecycle recording for the network simulator.
//!
//! When enabled (see `Network::enable_recording`), the network logs one
//! [`PacketRecord`] per injected packet, one [`HopRecord`] per link
//! traversal, and a cumulative per-link busy time. The records feed the
//! machine layer's Perfetto exporter (link tracks, flow arrows) and epoch
//! sampler (per-link utilization). Recording is bookkeeping only: it never
//! schedules events or changes any time computation, so enabling it cannot
//! perturb simulated behavior.

use commsense_des::Time;

use crate::packet::{Endpoint, Packet, PacketClass};

/// Sentinel record id meaning "this packet was not recorded" — either
/// recording was off, or the packet table had reached its capacity.
pub const NO_RECORD: u32 = u32::MAX;

/// The lifecycle of one recorded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Traffic class.
    pub class: PacketClass,
    /// Total wire bytes (header + payload).
    pub bytes: u32,
    /// When the packet entered the network.
    pub injected_at: Time,
    /// When its tail reached the destination (or left the mesh edge, for
    /// cross-traffic); `None` if still in flight when recording stopped.
    pub delivered_at: Option<Time>,
}

/// One link traversal of a recorded packet.
///
/// `enqueued..start` is time spent waiting for the link (contention),
/// `start..end` is time on the wire (serialization). Earlier recordings
/// collapsed the two into `start..end`, which made queueing invisible
/// whenever a link was busy at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Index into [`NetRecording::packets`].
    pub packet: u32,
    /// Dense link id (see `Mesh::link_id`).
    pub link: u32,
    /// When the packet's head arrived at the router and requested the link
    /// (equal to `start` when the link was idle).
    pub enqueued: Time,
    /// When the link started serializing the packet (departure from the
    /// router's queue).
    pub start: Time,
    /// When the link finished (start + serialization time).
    pub end: Time,
}

impl HopRecord {
    /// Time this hop spent queued behind other traffic.
    pub fn queue_time(&self) -> Time {
        self.start.saturating_sub(self.enqueued)
    }

    /// Time this hop spent serializing on the wire.
    pub fn wire_time(&self) -> Time {
        self.end.saturating_sub(self.start)
    }
}

/// Two hops serializing on one link at once: the first link-capacity
/// violation a recording saw (a link carries one packet at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOverlap {
    /// Dense link id.
    pub link: u32,
    /// When the link's previous hop finishes serializing.
    pub busy_until: Time,
    /// When the overlapping hop started, before `busy_until`.
    pub start: Time,
}

impl std::fmt::Display for LinkOverlap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {} started a hop at {} while busy until {}",
            self.link, self.start, self.busy_until
        )
    }
}

/// The live recorder owned by the network while a run executes.
#[derive(Debug)]
pub(crate) struct NetRecorder {
    max_packets: usize,
    packets: Vec<PacketRecord>,
    hops: Vec<HopRecord>,
    dropped_packets: u64,
    link_busy: Vec<Time>,
    /// End of the latest hop on each link, for the capacity check.
    link_end: Vec<Time>,
    overlap: Option<LinkOverlap>,
    last_id: u32,
}

impl NetRecorder {
    pub(crate) fn new(max_packets: usize, links: usize) -> Self {
        NetRecorder {
            // Record ids are u32 with NO_RECORD reserved; clamp the table
            // capacity so ids can never collide with the sentinel.
            max_packets: max_packets.min(NO_RECORD as usize - 1),
            packets: Vec::new(),
            hops: Vec::new(),
            dropped_packets: 0,
            link_busy: vec![Time::ZERO; links],
            link_end: vec![Time::ZERO; links],
            overlap: None,
            last_id: NO_RECORD,
        }
    }

    /// Records an injection; returns the packet's record id (or
    /// [`NO_RECORD`] once the table is full).
    pub(crate) fn on_inject(&mut self, pkt: &Packet, now: Time) -> u32 {
        if self.packets.len() >= self.max_packets {
            self.dropped_packets += 1;
            self.last_id = NO_RECORD;
            return NO_RECORD;
        }
        let id = self.packets.len() as u32;
        self.packets.push(PacketRecord {
            src: pkt.src,
            dst: pkt.dst,
            class: pkt.class,
            bytes: pkt.wire_bytes(),
            injected_at: now,
            delivered_at: None,
        });
        self.last_id = id;
        id
    }

    /// Records a link traversal. Link busy time and the link-capacity check
    /// cover every packet (utilization counts all traffic), while the
    /// per-hop record is kept only for packets that made it into the table.
    /// `enqueued` is when the head requested the link; `start` is when the
    /// link actually began serializing (later when the link was busy).
    pub(crate) fn on_hop(&mut self, rec: u32, link: usize, enqueued: Time, start: Time, end: Time) {
        self.link_busy[link] += end.saturating_sub(start);
        let busy_until = std::mem::replace(&mut self.link_end[link], end);
        if start < busy_until && self.overlap.is_none() {
            self.overlap = Some(LinkOverlap {
                link: link as u32,
                busy_until,
                start,
            });
        }
        if rec != NO_RECORD {
            self.hops.push(HopRecord {
                packet: rec,
                link: link as u32,
                enqueued: enqueued.min(start),
                start,
                end,
            });
        }
    }

    pub(crate) fn on_deliver(&mut self, rec: u32, now: Time) {
        if rec != NO_RECORD {
            self.packets[rec as usize].delivered_at = Some(now);
        }
    }

    pub(crate) fn overlap(&self) -> Option<LinkOverlap> {
        self.overlap
    }

    pub(crate) fn last_id(&self) -> u32 {
        self.last_id
    }

    pub(crate) fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    pub(crate) fn link_busy(&self) -> &[Time] {
        &self.link_busy
    }

    pub(crate) fn into_recording(self) -> NetRecording {
        NetRecording {
            packets: self.packets,
            hops: self.hops,
            dropped_packets: self.dropped_packets,
            link_busy: self.link_busy,
        }
    }
}

/// The finished recording of one run, detached from the network.
#[derive(Debug, Clone, Default)]
pub struct NetRecording {
    /// One record per injected packet, in injection order (the record id
    /// used by [`HopRecord::packet`] is the index into this vector).
    pub packets: Vec<PacketRecord>,
    /// Every link traversal of every recorded packet, in simulation order.
    pub hops: Vec<HopRecord>,
    /// Packets injected after the table reached its capacity (their hops
    /// and delivery are not individually recorded, but their link busy
    /// time still counts toward utilization).
    pub dropped_packets: u64,
    /// Total serialization time accumulated on each link over the run.
    pub link_busy: Vec<Time>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::protocol(
            Endpoint::node(0),
            Endpoint::node(1),
            24,
            PacketClass::Data,
            0,
        )
    }

    #[test]
    fn records_lifecycle_and_caps_packets() {
        let mut r = NetRecorder::new(2, 4);
        let a = r.on_inject(&pkt(), Time::ZERO);
        let b = r.on_inject(&pkt(), Time::from_ns(10));
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.last_id(), 1);
        let c = r.on_inject(&pkt(), Time::from_ns(20));
        assert_eq!(c, NO_RECORD);
        assert_eq!(r.last_id(), NO_RECORD);
        r.on_hop(a, 2, Time::ZERO, Time::ZERO, Time::from_ns(5));
        r.on_hop(c, 2, Time::from_ns(5), Time::from_ns(5), Time::from_ns(9));
        r.on_deliver(a, Time::from_ns(7));
        r.on_deliver(c, Time::from_ns(9));
        let rec = r.into_recording();
        assert_eq!(rec.packets.len(), 2);
        assert_eq!(rec.dropped_packets, 1);
        // The dropped packet got no hop record but still loaded the link.
        assert_eq!(rec.hops.len(), 1);
        assert_eq!(rec.link_busy[2], Time::from_ns(9));
        assert_eq!(rec.packets[0].delivered_at, Some(Time::from_ns(7)));
        assert_eq!(rec.packets[1].delivered_at, None);
    }

    #[test]
    fn hop_splits_queue_from_wire() {
        let mut r = NetRecorder::new(2, 4);
        let a = r.on_inject(&pkt(), Time::ZERO);
        // Head arrived at 2ns, link free only at 6ns, done at 11ns.
        r.on_hop(a, 1, Time::from_ns(2), Time::from_ns(6), Time::from_ns(11));
        let rec = r.into_recording();
        let hop = rec.hops[0];
        assert_eq!(hop.queue_time(), Time::from_ns(4));
        assert_eq!(hop.wire_time(), Time::from_ns(5));
        // Busy time counts wire occupancy only, never queueing.
        assert_eq!(rec.link_busy[1], Time::from_ns(5));
    }

    #[test]
    fn overlapping_hops_on_one_link_are_caught_even_unrecorded() {
        let mut r = NetRecorder::new(1, 4);
        let a = r.on_inject(&pkt(), Time::ZERO);
        let untracked = r.on_inject(&pkt(), Time::ZERO);
        assert_eq!(untracked, NO_RECORD);
        r.on_hop(a, 3, Time::ZERO, Time::ZERO, Time::from_ns(5));
        // Back to back on the same link, and overlap on another: fine.
        r.on_hop(untracked, 3, Time::ZERO, Time::from_ns(5), Time::from_ns(8));
        r.on_hop(a, 1, Time::ZERO, Time::from_ns(2), Time::from_ns(9));
        assert_eq!(r.overlap(), None);
        r.on_hop(
            untracked,
            3,
            Time::from_ns(6),
            Time::from_ns(7),
            Time::from_ns(9),
        );
        r.on_hop(a, 3, Time::from_ns(6), Time::from_ns(8), Time::from_ns(9));
        assert_eq!(
            r.overlap(),
            Some(LinkOverlap {
                link: 3,
                busy_until: Time::from_ns(8),
                start: Time::from_ns(7),
            }),
            "the first overlap is kept"
        );
    }
}
