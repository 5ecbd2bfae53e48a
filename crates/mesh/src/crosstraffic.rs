//! Cross-traffic generation for the bisection-bandwidth emulation (§5.2)
//! and the adversarial traffic patterns layered on top of it.

use commsense_des::{Rng, Time};

use crate::packet::{Endpoint, Packet};

/// Spatial/temporal shape of the background cross-traffic.
///
/// [`TrafficPattern::Uniform`] is the paper's §5.2 bisection emulation:
/// fixed-rate streams crossing the cut in both directions. The hostile
/// patterns reuse the same aggregate injection rate (the generators conserve
/// the configured rate to within one message over any long window) but
/// reshape where and when it lands:
///
/// * `Hotspot` redirects a fraction of the stream slots at one victim
///   compute node, loading its ejection port and the links around it.
/// * `Bursty` gates the uniform streams through a deterministic on/off duty
///   cycle; the off-phase backlog drains at burst start, so the average
///   rate is conserved exactly and the duty cycle tiles time with no drift.
/// * `Incast` aims every message at a small set of victim nodes from
///   pseudo-random sources — the many-to-few collapse pattern.
///
/// All generators are deterministic functions of the config (including
/// `seed`), so replay is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficPattern {
    /// The §5.2 bisection streams (the default; byte-identical to the
    /// pre-pattern generator).
    #[default]
    Uniform,
    /// Redirect `fraction` of the traffic at compute node `node`.
    Hotspot {
        /// Victim compute node.
        node: u16,
        /// Fraction of message slots redirected (0.0..=1.0), honored
        /// exactly via an error-diffusion accumulator.
        fraction: f64,
    },
    /// Deterministic on/off duty cycle over the uniform streams.
    Bursty {
        /// Ticks per period spent bursting.
        on: u32,
        /// Ticks per period spent silent.
        off: u32,
    },
    /// Every message targets one of the first `targets` compute nodes.
    Incast {
        /// Number of victim nodes (node ids `0..targets`).
        targets: u16,
    },
}

impl TrafficPattern {
    /// Short label used in sweep tables and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Hotspot { .. } => "hotspot",
            TrafficPattern::Bursty { .. } => "bursty",
            TrafficPattern::Incast { .. } => "incast",
        }
    }
}

/// Configuration of the background cross-traffic streams.
///
/// The paper attaches 4 I/O nodes to each vertical edge of the 8×4 mesh;
/// each sends fixed-size messages across the mesh and off the opposite edge,
/// consuming bisection bandwidth in both directions. The *emulated* bisection
/// of the machine is the real bisection minus the cross-traffic rate. Other
/// topologies define their own bisection-loading stream paths; the stream
/// count comes from `Topo::io_streams`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossTrafficConfig {
    /// Cross-traffic message size in bytes (the paper settles on 64 after
    /// the Figure 7 sensitivity study).
    pub message_bytes: u32,
    /// Aggregate cross-traffic rate across the bisection, in bytes per
    /// nanosecond (summed over both directions and all streams).
    pub bytes_per_ns: f64,
    /// Number of stream pairs (each contributes one stream per direction);
    /// the topology's `io_streams` — mesh rows on the Alewife machine.
    pub streams: u16,
    /// Spatial/temporal traffic shape (defaults to the uniform §5.2
    /// streams).
    pub pattern: TrafficPattern,
    /// Compute-node count, needed by the hostile patterns to pick sources
    /// and victims (ignored — and canonically not encoded — under
    /// [`TrafficPattern::Uniform`]).
    pub nodes: u16,
    /// Seed for the deterministic source-picking RNG of the hostile
    /// patterns (ignored under [`TrafficPattern::Uniform`]).
    pub seed: u64,
}

impl CrossTrafficConfig {
    /// Creates a config that reduces an emulated machine's bisection by
    /// `consumed_bytes_per_cycle` at the given processor clock.
    pub fn consuming(
        consumed_bytes_per_cycle: f64,
        clock: commsense_des::Clock,
        message_bytes: u32,
        streams: u16,
    ) -> Self {
        let bytes_per_ns = consumed_bytes_per_cycle * 1_000.0 / clock.cycle_ps() as f64;
        CrossTrafficConfig {
            message_bytes,
            bytes_per_ns,
            streams,
            pattern: TrafficPattern::Uniform,
            nodes: 0,
            seed: 0,
        }
    }

    /// Reshapes the config into a hostile traffic pattern at the same
    /// aggregate rate. `nodes` is the machine's compute-node count and
    /// `seed` drives the deterministic source-picking RNG.
    pub fn with_pattern(mut self, pattern: TrafficPattern, nodes: u16, seed: u64) -> Self {
        self.pattern = pattern;
        self.nodes = nodes;
        self.seed = seed;
        self
    }

    /// Per-stream injection interval. There are `2 * streams` streams.
    ///
    /// Returns `None` when the rate is zero (cross-traffic disabled).
    pub fn interval(&self) -> Option<Time> {
        if self.bytes_per_ns <= 0.0 {
            return None;
        }
        let streams = (2 * self.streams) as f64;
        let per_stream_bytes_per_ns = self.bytes_per_ns / streams;
        let interval_ps = self.message_bytes as f64 / per_stream_bytes_per_ns * 1_000.0;
        Some(Time::from_ps(interval_ps.round() as u64))
    }

    /// Canonical field encoding for content-addressed result caching (see
    /// `commsense_des::stable`). The pattern fields are encoded only when a
    /// non-uniform pattern is configured, so every pre-existing uniform
    /// config keeps its store key.
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("message_bytes", self.message_bytes);
        enc.put_f64("bytes_per_ns", self.bytes_per_ns);
        enc.put("streams", self.streams);
        match self.pattern {
            TrafficPattern::Uniform => {}
            TrafficPattern::Hotspot { node, fraction } => {
                enc.put("pattern", "hotspot");
                enc.put("hotspot_node", node);
                enc.put_f64("hotspot_fraction", fraction);
                self.encode_pattern_common(enc);
            }
            TrafficPattern::Bursty { on, off } => {
                enc.put("pattern", "bursty");
                enc.put("bursty_on", on);
                enc.put("bursty_off", off);
                self.encode_pattern_common(enc);
            }
            TrafficPattern::Incast { targets } => {
                enc.put("pattern", "incast");
                enc.put("incast_targets", targets);
                self.encode_pattern_common(enc);
            }
        }
    }

    fn encode_pattern_common(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("nodes", self.nodes);
        enc.put("seed", self.seed);
    }
}

/// Periodic cross-traffic injector.
///
/// Each tick emits one message per stream (west→east and east→west for each
/// stream pair). The embedding machine schedules ticks at
/// [`CrossTraffic::interval`].
///
/// # Examples
///
/// ```
/// use commsense_des::Clock;
/// use commsense_mesh::{CrossTraffic, CrossTrafficConfig};
///
/// // Consume 8 of Alewife's 18 bytes/cycle of bisection.
/// let cfg = CrossTrafficConfig::consuming(8.0, Clock::from_mhz(20.0), 64, 4);
/// let ct = CrossTraffic::new(cfg);
/// let pkts: Vec<_> = ct.tick_packets().collect();
/// assert_eq!(pkts.len(), 8); // 4 stream pairs x 2 directions
/// ```
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    cfg: CrossTrafficConfig,
    /// Tick counter (drives the bursty phase).
    tick: u64,
    /// Bursty backlog, in whole messages owed but not yet emitted.
    owed: u64,
    /// Hotspot error-diffusion accumulator: `fraction` accrues per slot and
    /// a slot is redirected exactly when it reaches 1.0.
    hot_acc: f64,
    /// Round-robin cursor over the `2 * streams` uniform slots (bursty
    /// drain order) and over incast victims.
    cursor: u64,
    /// Deterministic source picker for the hostile patterns.
    rng: Rng,
}

impl CrossTraffic {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if a hostile pattern is configured with an inconsistent node
    /// count (hotspot victim out of range, or incast with no non-victim
    /// source nodes).
    pub fn new(cfg: CrossTrafficConfig) -> Self {
        match cfg.pattern {
            TrafficPattern::Uniform => {}
            TrafficPattern::Hotspot { node, fraction } => {
                assert!(
                    node < cfg.nodes,
                    "hotspot node {node} out of range (nodes {})",
                    cfg.nodes
                );
                assert!(cfg.nodes >= 2, "hotspot needs at least 2 nodes");
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "hotspot fraction {fraction} outside 0..=1"
                );
            }
            TrafficPattern::Bursty { on, off } => {
                assert!(on > 0, "bursty duty cycle needs on > 0");
                let _ = off;
            }
            TrafficPattern::Incast { targets } => {
                assert!(targets > 0, "incast needs at least one target");
                assert!(
                    targets < cfg.nodes,
                    "incast targets {targets} leave no source nodes (nodes {})",
                    cfg.nodes
                );
            }
        }
        let rng = Rng::new(cfg.seed ^ 0xC805_5E77_7261_FF1C);
        CrossTraffic {
            cfg,
            tick: 0,
            owed: 0,
            hot_acc: 0.0,
            cursor: 0,
            rng,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CrossTrafficConfig {
        &self.cfg
    }

    /// Injection interval between ticks, or `None` if disabled.
    pub fn interval(&self) -> Option<Time> {
        self.cfg.interval()
    }

    /// The uniform packets injected at each tick: one per stream, west→east
    /// then east→west per stream pair. This is the pattern-free §5.2
    /// generator; the pattern-aware entry point is
    /// [`CrossTraffic::tick_packets_into`].
    pub fn tick_packets(&self) -> impl Iterator<Item = Packet> + '_ {
        let bytes = self.cfg.message_bytes;
        (0..self.cfg.streams).flat_map(move |s| {
            [
                Packet::cross_traffic(Endpoint::IoWest(s), Endpoint::IoEast(s), bytes),
                Packet::cross_traffic(Endpoint::IoEast(s), Endpoint::IoWest(s), bytes),
            ]
        })
    }

    /// The uniform packet of slot index `slot` (of `2 * streams` per tick):
    /// stream `slot / 2`, west→east for even slots.
    fn uniform_slot(&self, slot: u64) -> Packet {
        let bytes = self.cfg.message_bytes;
        let s = (slot / 2) as u16;
        if slot.is_multiple_of(2) {
            Packet::cross_traffic(Endpoint::IoWest(s), Endpoint::IoEast(s), bytes)
        } else {
            Packet::cross_traffic(Endpoint::IoEast(s), Endpoint::IoWest(s), bytes)
        }
    }

    /// A deterministic pseudo-random source node, excluding `not` when
    /// `not < nodes` (so a victim never sends to itself).
    fn pick_source(&mut self, lo: u16, not: u16) -> u16 {
        let nodes = self.cfg.nodes;
        debug_assert!(lo < nodes);
        if not >= lo && not < nodes {
            let span = (nodes - lo - 1) as usize;
            let mut src = lo + self.rng.index(span.max(1)) as u16;
            if src >= not {
                src += 1;
            }
            src
        } else {
            lo + self.rng.index((nodes - lo) as usize) as u16
        }
    }

    /// Appends this tick's packets to `out` and advances the generator
    /// state. Under [`TrafficPattern::Uniform`] the emitted sequence is
    /// byte-identical to [`CrossTraffic::tick_packets`]; the hostile
    /// patterns conserve the same aggregate rate (exactly per tick for
    /// hotspot/incast, exactly per duty period for bursty).
    pub fn tick_packets_into(&mut self, out: &mut Vec<Packet>) {
        let slots = 2 * self.cfg.streams as u64;
        match self.cfg.pattern {
            TrafficPattern::Uniform => {
                for slot in 0..slots {
                    out.push(self.uniform_slot(slot));
                }
            }
            TrafficPattern::Hotspot { node, fraction } => {
                let bytes = self.cfg.message_bytes;
                for slot in 0..slots {
                    self.hot_acc += fraction;
                    if self.hot_acc >= 1.0 {
                        self.hot_acc -= 1.0;
                        let src = self.pick_source(0, node);
                        out.push(Packet::cross_traffic(
                            Endpoint::Node(src),
                            Endpoint::Node(node),
                            bytes,
                        ));
                    } else {
                        out.push(self.uniform_slot(slot));
                    }
                }
            }
            TrafficPattern::Bursty { on, off } => {
                let period = on as u64 + off as u64;
                let phase = self.tick % period;
                self.owed += slots;
                if phase < on as u64 {
                    while self.owed > 0 {
                        let pkt = self.uniform_slot(self.cursor % slots);
                        self.cursor += 1;
                        self.owed -= 1;
                        out.push(pkt);
                    }
                }
            }
            TrafficPattern::Incast { targets } => {
                let bytes = self.cfg.message_bytes;
                for _ in 0..slots {
                    let dst = (self.cursor % targets as u64) as u16;
                    self.cursor += 1;
                    let src = self.pick_source(targets, dst);
                    out.push(Packet::cross_traffic(
                        Endpoint::Node(src),
                        Endpoint::Node(dst),
                        bytes,
                    ));
                }
            }
        }
        self.tick += 1;
    }

    /// Bytes injected per tick across all streams (the long-run average for
    /// bursty traffic).
    pub fn bytes_per_tick(&self) -> u64 {
        2 * self.cfg.streams as u64 * self.cfg.message_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_des::Clock;

    #[test]
    fn interval_matches_requested_rate() {
        let clock = Clock::from_mhz(20.0);
        let cfg = CrossTrafficConfig::consuming(8.0, clock, 64, 4);
        // 8 bytes/cycle = 0.16 bytes/ns aggregate; per stream 0.02 bytes/ns;
        // 64-byte messages -> 3200ns interval.
        let iv = cfg.interval().expect("enabled");
        assert_eq!(iv, Time::from_ns(3_200));
        // Rate check: bytes_per_tick / interval == aggregate rate.
        let ct = CrossTraffic::new(cfg);
        let rate = ct.bytes_per_tick() as f64 / iv.as_ns() as f64;
        assert!((rate - 0.16).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_disables() {
        let cfg = CrossTrafficConfig::consuming(0.0, Clock::from_mhz(20.0), 64, 4);
        assert_eq!(cfg.interval(), None);
    }

    #[test]
    fn smaller_messages_make_finer_streams() {
        let clock = Clock::from_mhz(20.0);
        let small = CrossTrafficConfig::consuming(8.0, clock, 16, 4)
            .interval()
            .unwrap();
        let large = CrossTrafficConfig::consuming(8.0, clock, 512, 4)
            .interval()
            .unwrap();
        assert!(small < large);
    }

    #[test]
    fn tick_covers_every_stream_both_directions() {
        let cfg = CrossTrafficConfig::consuming(4.0, Clock::from_mhz(20.0), 64, 4);
        let ct = CrossTraffic::new(cfg);
        let pkts: Vec<_> = ct.tick_packets().collect();
        assert_eq!(pkts.len(), 8);
        for s in 0..4 {
            assert!(pkts.iter().any(|p| p.src == Endpoint::IoWest(s)));
            assert!(pkts.iter().any(|p| p.src == Endpoint::IoEast(s)));
        }
    }
}
