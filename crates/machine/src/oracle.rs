//! Sequential-consistency oracle (see [`crate::CheckConfig::oracle`]).
//!
//! While a checked run executes, the machine appends one [`MemEvent`] per
//! *applied* user-level memory access — loads, stores, and RMWs of every
//! mechanism, including accesses merged behind prefetches and posted
//! (release-consistent) stores; barrier-internal system accesses are
//! excluded. The order of the log is the global apply order the simulation
//! actually produced, which serves as the witness interleaving; after the
//! run, [`verify`] checks that this witness is a legal explanation of every
//! observed value:
//!
//! 1. **Value consistency** — replaying the log against a flat memory
//!    image reproduces every load's observed value and every RMW's
//!    observed result (per-location coherence: each read returns the most
//!    recent write to that word in the witness order).
//! 2. **Program order** — each node's events apply in its issue order
//!    (per-node `seq` strictly increases). Under a non-zero write buffer,
//!    posted stores may apply late (the release-consistency relaxation the
//!    paper's §2 contrasts with SC) — but reads and RMWs never reorder,
//!    and per-`(node, word)` order stays strict even for stores.
//! 3. **Barrier ordering** — barrier epochs are non-decreasing along the
//!    witness: every access of epoch `e` (on any node) applies before any
//!    access of epoch `e + 1`, i.e. barriers are full fences.
//!
//! Together these say the observed execution is explainable by an SC-legal
//! interleaving of per-node program order (modulo the explicit store
//! relaxation when one is configured). A rejected run returns
//! [`crate::SimError::Oracle`] from [`crate::Machine::run`].

use crate::program::RmwOp;

/// One applied user-level memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEvent {
    /// The issuing node.
    pub node: u32,
    /// The node's barrier epoch when the access applied.
    pub epoch: u32,
    /// Per-node issue sequence number (1-based, strictly increasing in
    /// program order; gaps are legal).
    pub seq: u64,
    /// What was accessed and what was observed.
    pub op: OracleOp,
}

/// The access payload of a [`MemEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleOp {
    /// A load of one word and the value it observed.
    Read {
        /// Flat word index into the heap.
        word: u64,
        /// The observed value.
        value: f64,
    },
    /// A store of one word.
    Write {
        /// Flat word index into the heap.
        word: u64,
        /// The stored value.
        value: f64,
    },
    /// An atomic read-modify-write of one line (both words).
    Rmw {
        /// The line.
        line: u64,
        /// The operation applied.
        op: RmwOp,
        /// The observed post-operation values of the line's two words.
        result: (f64, f64),
    },
}

/// The memory-access log of one checked run.
#[derive(Debug)]
pub struct OracleLog {
    initial: Vec<f64>,
    next_seq: Vec<u64>,
    events: Vec<MemEvent>,
}

impl OracleLog {
    /// Creates an empty log for `nodes` nodes over a heap whose initial
    /// word values are `initial`.
    pub fn new(nodes: usize, initial: Vec<f64>) -> Self {
        OracleLog {
            initial,
            next_seq: vec![0; nodes],
            events: Vec::new(),
        }
    }

    /// Mints the next program-order sequence number for `node` (1-based).
    pub fn next_seq(&mut self, node: usize) -> u64 {
        self.next_seq[node] += 1;
        self.next_seq[node]
    }

    /// Appends an applied access.
    pub fn record(&mut self, node: usize, epoch: u64, seq: u64, op: OracleOp) {
        debug_assert!(seq > 0, "events must carry a minted seq");
        self.events.push(MemEvent {
            node: node as u32,
            epoch: epoch.min(u32::MAX as u64) as u32,
            seq,
            op,
        });
    }

    /// The recorded events, in global apply order.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }
}

/// Summary counters of a successful verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleSummary {
    /// Total events verified.
    pub events: u64,
    /// Loads verified.
    pub reads: u64,
    /// Stores verified.
    pub writes: u64,
    /// RMWs verified.
    pub rmws: u64,
}

/// Verifies the log against the SC oracle (see the module docs for the
/// three checks). `relaxed_stores` is true when the machine ran with a
/// non-zero write buffer, permitting posted stores to apply late.
pub fn verify(log: &OracleLog, relaxed_stores: bool) -> Result<OracleSummary, String> {
    let mut mem = log.initial.clone();
    let nodes = log.next_seq.len();
    let mut max_seq = vec![0u64; nodes];
    // Last applied seq per (node, word), for the strict per-location check.
    let mut last_at: commsense_des::FxHashMap<(u32, u64), u64> = Default::default();
    let mut max_epoch = 0u32;
    let mut sum = OracleSummary::default();

    let word = |mem: &[f64], w: u64, i: usize| -> Result<f64, String> {
        mem.get(w as usize)
            .copied()
            .ok_or_else(|| format!("event {i}: word {w} outside the heap"))
    };

    for (i, ev) in log.events.iter().enumerate() {
        sum.events += 1;
        let node = ev.node as usize;
        if node >= nodes {
            return Err(format!("event {i}: unknown node {node}"));
        }

        // 3. Barrier ordering: epochs never decrease along the witness.
        if ev.epoch < max_epoch {
            return Err(format!(
                "event {i}: node {node} access of barrier epoch {} applied after \
                 an access of epoch {max_epoch}",
                ev.epoch
            ));
        }
        max_epoch = ev.epoch;

        // 2. Program order.
        if ev.seq <= max_seq[node] {
            let late_store = relaxed_stores && matches!(ev.op, OracleOp::Write { .. });
            if !late_store {
                return Err(format!(
                    "event {i}: node {node} applied seq {} after seq {} ({:?} cannot \
                     reorder{})",
                    ev.seq,
                    max_seq[node],
                    ev.op,
                    if relaxed_stores {
                        ""
                    } else {
                        " under sequential consistency"
                    }
                ));
            }
        } else {
            max_seq[node] = ev.seq;
        }

        // Per-(node, word) order is strict even for relaxed stores.
        let touched: [Option<u64>; 2] = match ev.op {
            OracleOp::Read { word, .. } | OracleOp::Write { word, .. } => [Some(word), None],
            OracleOp::Rmw { line, .. } => [Some(line * 2), Some(line * 2 + 1)],
        };
        for w in touched.into_iter().flatten() {
            let last = last_at.entry((ev.node, w)).or_insert(0);
            if ev.seq <= *last {
                return Err(format!(
                    "event {i}: node {node} reordered accesses to word {w} \
                     (seq {} after {})",
                    ev.seq, *last
                ));
            }
            *last = ev.seq;
        }

        // 1. Value consistency against the flat replay memory.
        match ev.op {
            OracleOp::Read { word: w, value } => {
                sum.reads += 1;
                let have = word(&mem, w, i)?;
                if have.to_bits() != value.to_bits() {
                    return Err(format!(
                        "event {i}: node {node} load of word {w} observed {value} but \
                         the witness interleaving yields {have}"
                    ));
                }
            }
            OracleOp::Write { word: w, value } => {
                sum.writes += 1;
                word(&mem, w, i)?;
                mem[w as usize] = value;
            }
            OracleOp::Rmw { line, op, result } => {
                sum.rmws += 1;
                let (w0, w1) = (line * 2, line * 2 + 1);
                let (a, b) = op.apply(word(&mem, w0, i)?, word(&mem, w1, i)?);
                if a.to_bits() != result.0.to_bits() || b.to_bits() != result.1.to_bits() {
                    return Err(format!(
                        "event {i}: node {node} RMW of line {line} observed \
                         {result:?} but the witness interleaving yields {:?}",
                        (a, b)
                    ));
                }
                mem[w0 as usize] = a;
                mem[w1 as usize] = b;
            }
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(events: Vec<MemEvent>) -> OracleLog {
        OracleLog {
            initial: vec![0.0; 8],
            next_seq: vec![0; 2],
            events,
        }
    }

    fn rd(node: u32, seq: u64, word: u64, value: f64) -> MemEvent {
        MemEvent {
            node,
            epoch: 0,
            seq,
            op: OracleOp::Read { word, value },
        }
    }

    fn wr(node: u32, seq: u64, word: u64, value: f64) -> MemEvent {
        MemEvent {
            node,
            epoch: 0,
            seq,
            op: OracleOp::Write { word, value },
        }
    }

    #[test]
    fn legal_interleaving_passes() {
        let log = log_with(vec![
            wr(0, 1, 0, 2.5),
            rd(1, 1, 0, 2.5),
            wr(1, 2, 1, 7.0),
            rd(0, 2, 1, 7.0),
        ]);
        let sum = verify(&log, false).expect("legal");
        assert_eq!((sum.reads, sum.writes, sum.rmws), (2, 2, 0));
    }

    #[test]
    fn stale_read_is_rejected() {
        let log = log_with(vec![wr(0, 1, 0, 2.5), rd(1, 1, 0, 0.0)]);
        let err = verify(&log, false).expect_err("stale value");
        assert!(err.contains("load of word 0"), "{err}");
    }

    #[test]
    fn program_order_violation_is_rejected() {
        let log = log_with(vec![rd(0, 2, 0, 0.0), rd(0, 1, 1, 0.0)]);
        let err = verify(&log, false).expect_err("reordered");
        assert!(err.contains("seq 1 after seq 2"), "{err}");
    }

    #[test]
    fn relaxed_store_may_apply_late_but_reads_may_not() {
        let late_store = log_with(vec![rd(0, 2, 1, 0.0), wr(0, 1, 0, 1.0)]);
        assert!(verify(&late_store, true).is_ok());
        assert!(verify(&late_store, false).is_err());
        let late_read = log_with(vec![wr(0, 2, 0, 1.0), rd(0, 1, 1, 0.0)]);
        assert!(verify(&late_read, true).is_err());
    }

    #[test]
    fn per_word_order_is_strict_even_for_relaxed_stores() {
        let log = log_with(vec![wr(0, 2, 0, 2.0), wr(0, 1, 0, 1.0)]);
        let err = verify(&log, true).expect_err("same-word reorder");
        assert!(err.contains("reordered accesses to word 0"), "{err}");
    }

    #[test]
    fn rmw_observes_atomic_result() {
        let ok = log_with(vec![MemEvent {
            node: 0,
            epoch: 0,
            seq: 1,
            op: OracleOp::Rmw {
                line: 1,
                op: RmwOp::IncW0,
                result: (1.0, 0.0),
            },
        }]);
        assert!(verify(&ok, false).is_ok());
        let bad = log_with(vec![MemEvent {
            node: 0,
            epoch: 0,
            seq: 1,
            op: OracleOp::Rmw {
                line: 1,
                op: RmwOp::IncW0,
                result: (2.0, 0.0),
            },
        }]);
        assert!(verify(&bad, false).is_err());
    }

    #[test]
    fn barrier_epochs_must_not_decrease() {
        let log = log_with(vec![
            MemEvent {
                node: 0,
                epoch: 1,
                seq: 1,
                op: OracleOp::Read {
                    word: 0,
                    value: 0.0,
                },
            },
            MemEvent {
                node: 1,
                epoch: 0,
                seq: 1,
                op: OracleOp::Read {
                    word: 0,
                    value: 0.0,
                },
            },
        ]);
        let err = verify(&log, false).expect_err("epoch regression");
        assert!(err.contains("epoch"), "{err}");
    }

    #[test]
    fn seq_minting_is_per_node_and_one_based() {
        let mut log = OracleLog::new(2, vec![0.0; 2]);
        assert_eq!(log.next_seq(0), 1);
        assert_eq!(log.next_seq(0), 2);
        assert_eq!(log.next_seq(1), 1);
        log.record(
            0,
            0,
            1,
            OracleOp::Read {
                word: 0,
                value: 0.0,
            },
        );
        assert_eq!(log.events().len(), 1);
    }
}
