//! Runtime protocol-correctness checking (see [`crate::CheckConfig`]).
//!
//! When a machine is configured with `check: Some(..)`, a [`Checker`] rides
//! along with the event loop and asserts, after every coherence transition,
//! that the protocol state is consistent:
//!
//! * **Single writer / multiple readers** — at most one `Modified` copy
//!   exists machine-wide, and it excludes every `Shared` copy.
//! * **Directory/cache consistency** — a `Modified` copy is the directory's
//!   tracked owner; every `Shared` copy is in the directory's sharer set
//!   (the one-sided LimitLESS invariant: stale *directory* sharers are
//!   legal, stale *cache* copies are not).
//! * **No lost invalidations** — a dropped invalidation leaves a stale
//!   cached copy behind, which the directory check above catches the moment
//!   the write transaction completes.
//! * **Message-channel conservation** — every packet the machine injects
//!   for a compute node is consumed exactly once, cross-checked against the
//!   `mesh::recorder` packet ids: no duplicated deliveries, no packets the
//!   network delivered that the machine never consumed, and at the end of
//!   the run `injected = consumed + in-flight envelopes`.
//! * **Link capacity** — a link serializes one packet at a time: no hop on
//!   any link starts before the link's previous hop ends. The network
//!   recorder checks every hop of all traffic, recorded packet or not, and
//!   the checker reports the first overlap at the end of the run.
//!
//! Checking is bookkeeping plus assertions only — it never schedules
//! events or feeds any time computation, so simulated cycle counts are
//! bit-identical with and without it (pinned by the `check_identity`
//! tests). Each check returns its violation as a [`SimError::Invariant`];
//! the machine records the first one, stops at the end of that event's
//! dispatch, and returns it from [`crate::Machine::run`].

use commsense_cache::{LineId, Protocol};
use commsense_mesh::{Endpoint, LinkOverlap, PacketClass, PacketRecord, NO_RECORD};

use crate::config::CheckConfig;
use crate::error::SimError;

/// The live checker owned by the machine while a checked run executes.
#[derive(Debug)]
pub(crate) struct Checker {
    /// Node-destined packets injected.
    injected: u64,
    /// Node-destined packets consumed (delivered to the machine layer).
    consumed: u64,
    /// Consumed packets without a record id (recorder table full).
    untracked_consumed: u64,
    /// Per-record-id delivery flags (double-consumption detection).
    delivered: Vec<bool>,
    /// Coherence transitions checked.
    transitions: u64,
}

#[cold]
#[inline(never)]
fn violation(detail: String) -> SimError {
    SimError::Invariant(format!("violated: {detail}"))
}

impl Checker {
    pub(crate) fn new(_cfg: CheckConfig) -> Self {
        Checker {
            injected: 0,
            consumed: 0,
            untracked_consumed: 0,
            delivered: Vec::new(),
            transitions: 0,
        }
    }

    /// Records the injection of a node-destined packet (`rec` is its
    /// recorder id, [`NO_RECORD`] if the record table was full).
    pub(crate) fn on_inject(&mut self, rec: u32) {
        self.injected += 1;
        if rec != NO_RECORD {
            let i = rec as usize;
            if i >= self.delivered.len() {
                self.delivered.resize(i + 1, false);
            }
        }
    }

    /// Records the consumption of a delivered packet, failing if the same
    /// record id is consumed twice (a duplicated delivery).
    pub(crate) fn on_deliver(&mut self, rec: u32) -> Result<(), SimError> {
        self.consumed += 1;
        if rec == NO_RECORD {
            self.untracked_consumed += 1;
            return Ok(());
        }
        let i = rec as usize;
        if i >= self.delivered.len() {
            self.delivered.resize(i + 1, false);
        }
        if self.delivered[i] {
            return Err(violation(format!("packet record {rec} consumed twice")));
        }
        self.delivered[i] = true;
        Ok(())
    }

    /// Verifies the coherence invariants on `line` after a transition.
    pub(crate) fn check_line(&mut self, proto: &Protocol, line: LineId) -> Result<(), SimError> {
        self.transitions += 1;
        proto
            .verify_line(line)
            .map_err(|e| violation(format!("after transition: {e}")))
    }

    /// Number of coherence transitions checked so far.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// End-of-run link-capacity and conservation checks. `overlap` is the
    /// recorder's first link-capacity violation; `live_envelopes` is the
    /// number of message envelopes still in flight when the last program
    /// retired (runs may legitimately end with writebacks or stale acks
    /// still traversing the mesh); `records` is the recorder's packet
    /// table.
    pub(crate) fn final_check(
        &self,
        overlap: Option<LinkOverlap>,
        live_envelopes: usize,
        records: Option<&[PacketRecord]>,
    ) -> Result<(), SimError> {
        if let Some(o) = overlap {
            return Err(violation(format!("link capacity: {o}")));
        }
        if self.consumed + live_envelopes as u64 != self.injected {
            return Err(violation(format!(
                "message conservation: injected {} != consumed {} + in-flight {}",
                self.injected, self.consumed, live_envelopes
            )));
        }
        let Some(records) = records else {
            return Ok(());
        };
        // Cross-check against the recorder: the set of record ids the
        // machine consumed must equal the set the network delivered to a
        // compute node.
        let tracked_consumed = self.consumed - self.untracked_consumed;
        let mut recorded_delivered = 0u64;
        for (id, r) in records.iter().enumerate() {
            // Cross-traffic is outside conservation even when a hostile
            // pattern aims it at a compute node: the machine absorbs it at
            // the ejection port without consuming it.
            if !matches!(r.dst, Endpoint::Node(_)) || r.class == PacketClass::CrossTraffic {
                continue;
            }
            let machine_saw = self.delivered.get(id).copied().unwrap_or(false);
            if r.delivered_at.is_some() {
                recorded_delivered += 1;
                if !machine_saw {
                    return Err(violation(format!(
                        "packet record {id} delivered by the network but never consumed"
                    )));
                }
            } else if machine_saw {
                return Err(violation(format!(
                    "packet record {id} consumed but the network never delivered it"
                )));
            }
        }
        if recorded_delivered != tracked_consumed {
            return Err(violation(format!(
                "recorder cross-check: {recorded_delivered} recorded deliveries \
                 != {tracked_consumed} tracked consumptions"
            )));
        }
        Ok(())
    }
}
