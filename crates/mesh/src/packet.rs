//! Packets and the volume taxonomy of Figure 5.

/// A network endpoint: a compute node or an I/O cross-traffic port.
///
/// The Alewife machine attaches I/O nodes in columns at either side of the
/// mesh; the paper's bisection-emulation experiment (§5.2) uses them to send
/// traffic across the bisection in both directions. Other topologies map the
/// stream index `.0` onto their own bisection-loading paths — see
/// `Topo::io_streams`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Compute node by id.
    Node(u16),
    /// I/O port on the "west" side of the bisection cut, stream `.0`.
    IoWest(u16),
    /// I/O port on the "east" side of the bisection cut, stream `.0`.
    IoEast(u16),
}

impl Endpoint {
    /// The largest machine an `Endpoint` can address: node ids are `u16`.
    pub const MAX_NODES: usize = 1 << 16;

    /// Convenience constructor for a compute-node endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit the `u16` node-id space (at or above
    /// [`Endpoint::MAX_NODES`]).
    pub fn node(id: usize) -> Self {
        assert!(
            id < Self::MAX_NODES,
            "node id {id} does not fit the u16 endpoint space (max {})",
            Self::MAX_NODES - 1
        );
        Endpoint::Node(id as u16)
    }
}

/// Classification of packet bytes for the communication-volume breakdown
/// (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Coherence-protocol invalidations and their acknowledgements.
    Invalidate,
    /// Read / write / modify requests (no data payload).
    Request,
    /// Message headers accompanying data transfers. Packets carrying data
    /// account their header bytes here and their payload under
    /// [`PacketClass::Data`].
    Header,
    /// Data payload: message-passing payload or shared-memory cache lines.
    Data,
    /// Background cross-traffic from I/O nodes (not part of the application
    /// volume breakdown).
    CrossTraffic,
}

impl PacketClass {
    /// All application-volume classes, in Figure 5's stacking order.
    pub const APP_CLASSES: [PacketClass; 4] = [
        PacketClass::Invalidate,
        PacketClass::Request,
        PacketClass::Header,
        PacketClass::Data,
    ];
}

/// Virtual-channel priority class of a packet.
///
/// The criticality-aware protocol variant tags demand-path traffic
/// [`Priority::High`]; everything else (prefetches, posted writes,
/// cross-traffic) rides [`Priority::Low`]. At each link the network serves
/// queued high-priority packets before queued low-priority ones
/// (non-preemptively: a packet already on the wire always finishes), so a
/// high-priority packet waits behind at most the single packet in service —
/// the `vc_depth = 1` bound the property tests pin. Under the baseline
/// variant every packet is `Low` and the discipline degenerates to the
/// original single FIFO, byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background / latency-tolerant traffic (the default).
    #[default]
    Low,
    /// Demand-critical traffic: bypasses queued low-priority packets.
    High,
}

/// A packet in flight through the mesh.
///
/// `header_bytes` + `payload_bytes` is the wire size used for link
/// serialization. For volume accounting, `class` says where the non-header
/// bytes go; header bytes of data-carrying packets are always accounted as
/// [`PacketClass::Header`] per the paper's taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Bytes of header on the wire.
    pub header_bytes: u32,
    /// Bytes of payload on the wire.
    pub payload_bytes: u32,
    /// Volume class of the payload (or of the whole packet if it has no
    /// payload).
    pub class: PacketClass,
    /// Opaque correlation tag for the machine layer (e.g. a protocol
    /// transaction id or message id).
    pub tag: u64,
    /// Virtual-channel priority class (defaults to [`Priority::Low`]).
    pub priority: Priority,
}

impl Packet {
    /// Creates a protocol/application packet of `total_bytes`, of which 8
    /// bytes are header (the Alewife packet header: routing + opcode word).
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes < 8`.
    pub fn protocol(
        src: Endpoint,
        dst: Endpoint,
        total_bytes: u32,
        class: PacketClass,
        tag: u64,
    ) -> Self {
        assert!(total_bytes >= 8, "packet smaller than its header");
        Packet {
            src,
            dst,
            header_bytes: 8,
            payload_bytes: total_bytes - 8,
            class,
            tag,
            priority: Priority::Low,
        }
    }

    /// Creates a cross-traffic packet of `total_bytes`.
    pub fn cross_traffic(src: Endpoint, dst: Endpoint, total_bytes: u32) -> Self {
        Packet {
            src,
            dst,
            header_bytes: 8,
            payload_bytes: total_bytes.saturating_sub(8),
            class: PacketClass::CrossTraffic,
            tag: 0,
            priority: Priority::Low,
        }
    }

    /// Returns the packet re-tagged with the given virtual-channel priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> u32 {
        self.header_bytes + self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_packet_splits_header() {
        let p = Packet::protocol(
            Endpoint::node(0),
            Endpoint::node(1),
            24,
            PacketClass::Data,
            1,
        );
        assert_eq!(p.header_bytes, 8);
        assert_eq!(p.payload_bytes, 16);
        assert_eq!(p.wire_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "smaller than its header")]
    fn undersized_packet_panics() {
        let _ = Packet::protocol(
            Endpoint::node(0),
            Endpoint::node(1),
            4,
            PacketClass::Request,
            0,
        );
    }

    #[test]
    fn cross_traffic_class() {
        let p = Packet::cross_traffic(Endpoint::IoWest(0), Endpoint::IoEast(0), 64);
        assert_eq!(p.class, PacketClass::CrossTraffic);
        assert_eq!(p.wire_bytes(), 64);
    }

    #[test]
    fn app_classes_order_matches_figure5() {
        assert_eq!(
            PacketClass::APP_CLASSES,
            [
                PacketClass::Invalidate,
                PacketClass::Request,
                PacketClass::Header,
                PacketClass::Data
            ]
        );
    }
}
