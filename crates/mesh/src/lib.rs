//! Interconnect model for the `commsense` machine emulator.
//!
//! The MIT Alewife network is an asynchronous 2-D mesh of Elko-series EMRC
//! routers (8×4 for the 32-node machine used in the paper) with
//! dimension-order wormhole routing. This crate models that network — and,
//! as the other shapes of one [`Topo`] type, a 2-D torus, a fat tree, and a
//! dragonfly for scaling studies — at the level that matters for the paper's
//! experiments:
//!
//! * **Per-link serialization** — every packet occupies each link on its
//!   route for `bytes / link_bandwidth`; queued waiters experience the
//!   nonlinear congestion that defines the paper's *Congestion Dominated*
//!   region (Figure 1).
//! * **Pipelined (cut-through) head latency** — the packet head advances one
//!   router delay per hop while the body streams behind it, reproducing the
//!   "15 cycles one-way for a 24-byte packet" Alewife figure from Table 1.
//! * **Endpoint occupancy** — ejection ports serialize deliveries and can be
//!   slowed by the receiving processor (slow message-passing handler drain
//!   vs. fast CMMU shared-memory drain, §5.1 of the paper).
//! * **Cross-traffic injection** — I/O nodes on both mesh edges stream
//!   fixed-size packets across the bisection in both directions, emulating a
//!   machine with lower bisection bandwidth (Figure 6, §5.2).
//! * **Volume accounting** — every byte is classified as Invalidate /
//!   Request / Header / Data so Figure 5's communication-volume breakdowns
//!   can be regenerated, and bytes crossing the bisection cut are counted
//!   separately.
//!
//! # Examples
//!
//! ```
//! use commsense_des::Time;
//! use commsense_mesh::{Endpoint, NetConfig, Network, Packet, PacketClass};
//!
//! let mut net = Network::new(NetConfig::alewife());
//! let mut pending = Vec::new();
//! let pkt = Packet::protocol(Endpoint::node(0), Endpoint::node(31), 24, PacketClass::Data, 7);
//! net.inject(Time::ZERO, pkt, &mut |t, ev| pending.push((t, ev)));
//! // Drive the network until the packet arrives.
//! let mut delivered = None;
//! while let Some((t, ev)) = pending.pop() {
//!     let mut next = Vec::new();
//!     if let Some(d) = net.handle(t, ev, &mut |t2, e2| next.push((t2, e2))) {
//!         delivered = Some((t, d));
//!     }
//!     pending.extend(next);
//!     pending.sort_by_key(|(t, _)| std::cmp::Reverse(*t));
//! }
//! let (arrival, d) = delivered.expect("packet must arrive");
//! assert_eq!(d.packet.tag, 7);
//! assert!(arrival > Time::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crosstraffic;
mod network;
mod packet;
mod recorder;
mod stats;
mod topology;

pub use crosstraffic::{CrossTraffic, CrossTrafficConfig, TrafficPattern};
pub use network::{Delivery, NetConfig, NetEvent, Network};
pub use packet::{Endpoint, Packet, PacketClass, Priority};
pub use recorder::{HopRecord, LinkOverlap, NetRecording, PacketRecord, NO_RECORD};
pub use stats::{NetStats, VolumeBreakdown};
pub use topology::{Dragonfly, FatTree, Mesh, RouteDir, RouteTable, RouterCoord, Topo, Torus};
