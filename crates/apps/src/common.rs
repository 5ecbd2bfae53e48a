//! Shared plumbing for the application implementations: ghost-value
//! exchange plans, message construction, verification helpers, and the run
//! tail every builder shares.

use std::sync::Arc;

use commsense_cache::{Heap, LineHandle, LineId, Word};
use commsense_machine::program::{bits_f64, f64_bits};
use commsense_machine::{Machine, MachineConfig, MachineSpec, Mechanism, SimError};
use commsense_msgpass::{ActiveMessage, HandlerId};

use crate::RunResult;

/// Cycles a handler charges per ghost value it writes (indexed store into
/// the ghost buffer).
pub const GHOST_WRITE_CYCLES: u64 = 6;

/// A shared `f64` array packed two values per 16-byte line, the Alewife
/// layout. Consecutive elements share a line, so line `k` holds elements
/// `2k` and `2k+1`; the caller's `owner_of` must assign both elements of a
/// line to the same home (true for blocked partitions of element ranges).
#[derive(Debug, Clone, Copy)]
pub struct PackedArray {
    handle: LineHandle,
    len: usize,
}

impl PackedArray {
    /// Allocates a packed array of `len` values; element `i` is homed at
    /// `owner_of(i)` (evaluated on even elements).
    pub fn alloc(heap: &mut Heap, len: usize, owner_of: impl Fn(usize) -> usize) -> Self {
        let lines = len.div_ceil(2);
        let handle = heap.alloc(lines, |k| owner_of(2 * k));
        PackedArray { handle, len }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared word holding element `i`.
    pub fn word(&self, i: usize) -> Word {
        self.handle.word(i / 2, (i % 2) as u8)
    }

    /// The line holding element `i` (prefetch target).
    pub fn line(&self, i: usize) -> LineId {
        self.handle.line(i / 2)
    }
}

/// Values per fine-grained ghost message: the paper's EM3D communicates
/// "five double-words at a time" plus an index word, filling the active
/// message's argument capacity.
pub const CHUNK: usize = 5;

/// One fine-grained ghost message: destination, offset into the
/// destination's ghost list, and the node ids whose values it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Destination processor.
    pub dst: usize,
    /// Offset into the destination's ghost id list.
    pub offset: u32,
    /// Global node ids carried (in ghost-list order).
    pub ids: Vec<u32>,
}

/// A producer-push exchange plan: which values each processor must send to
/// which consumers, and each consumer's ghost-slot layout.
///
/// Built once from the workload's edge structure; per-iteration messages
/// carry only an offset plus values, exactly like the preprocessed
/// communication schedules of the paper's message-passing codes.
#[derive(Debug, Clone, Default)]
pub struct GhostPlan {
    /// Per producer: the fine-grained chunks it sends each round.
    pub sends: Vec<Vec<Chunk>>,
    /// Per producer: one aggregated chunk per consumer (bulk transfer).
    pub bulk_sends: Vec<Vec<Chunk>>,
    /// Per consumer: concatenated ghost id list (defines slot offsets).
    pub ghost_ids: Vec<Vec<u32>>,
}

impl GhostPlan {
    /// Builds a plan for `nprocs` processors from `(consumer, producer,
    /// node_id)` demands. Duplicate demands are merged; local demands
    /// (consumer == producer) are ignored.
    pub fn build(nprocs: usize, demands: impl Iterator<Item = (usize, usize, u32)>) -> Self {
        // needs[q][p] -> sorted unique ids q needs from p.
        let mut needs: Vec<Vec<std::collections::BTreeSet<u32>>> =
            vec![vec![std::collections::BTreeSet::new(); nprocs]; nprocs];
        for (q, p, id) in demands {
            if q != p {
                needs[q][p].insert(id);
            }
        }
        let mut sends: Vec<Vec<Chunk>> = vec![Vec::new(); nprocs];
        let mut bulk_sends: Vec<Vec<Chunk>> = vec![Vec::new(); nprocs];
        let mut ghost_ids: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        for q in 0..nprocs {
            for p in 0..nprocs {
                if needs[q][p].is_empty() {
                    continue;
                }
                let ids: Vec<u32> = needs[q][p].iter().copied().collect();
                let base = ghost_ids[q].len() as u32;
                ghost_ids[q].extend(&ids);
                bulk_sends[p].push(Chunk {
                    dst: q,
                    offset: base,
                    ids: ids.clone(),
                });
                for (c, piece) in ids.chunks(CHUNK).enumerate() {
                    sends[p].push(Chunk {
                        dst: q,
                        offset: base + (c * CHUNK) as u32,
                        ids: piece.to_vec(),
                    });
                }
            }
        }
        GhostPlan {
            sends,
            bulk_sends,
            ghost_ids,
        }
    }

    /// Values processor `q` expects to receive each round.
    pub fn expected_values(&self, q: usize) -> usize {
        self.ghost_ids[q].len()
    }

    /// Bulk messages processor `q` expects to receive each round.
    pub fn expected_bulk_msgs(&self, q: usize) -> usize {
        self.bulk_sends
            .iter()
            .map(|s| s.iter().filter(|c| c.dst == q).count())
            .sum()
    }
}

/// Builds the fine-grained active message for a chunk: `args[0]` is the
/// ghost-list offset, followed by the value bits.
pub fn ghost_message(handler: u16, chunk: &Chunk, value_of: impl Fn(u32) -> f64) -> ActiveMessage {
    let mut args = Vec::with_capacity(1 + chunk.ids.len());
    args.push(chunk.offset as u64);
    args.extend(chunk.ids.iter().map(|&id| f64_bits(value_of(id))));
    ActiveMessage::new(chunk.dst, HandlerId(handler), args)
}

/// Builds the bulk-transfer active message for an aggregated chunk, with
/// gather copy cost at the sender and optional scatter cost at the
/// receiver.
pub fn bulk_message(
    handler: u16,
    chunk: &Chunk,
    value_of: impl Fn(u32) -> f64,
    scatter: bool,
) -> ActiveMessage {
    let words: Vec<u64> = chunk.ids.iter().map(|&id| f64_bits(value_of(id))).collect();
    let bytes = 8 * words.len() as u32;
    let lines = bytes.div_ceil(16);
    let mut am = ActiveMessage::with_bulk(
        chunk.dst,
        HandlerId(handler),
        vec![chunk.offset as u64],
        bytes,
    )
    .data(words)
    .gather(lines);
    if scatter {
        am = am.scatter(lines);
    }
    am
}

/// Applies a received ghost message: writes values into `vals` at the slots
/// named by the consumer's ghost id list, returning how many values
/// arrived.
pub fn apply_ghost(
    ghost_ids: &[u32],
    offset: usize,
    value_bits: &[u64],
    vals: &mut [f64],
) -> usize {
    for (k, &bits) in value_bits.iter().enumerate() {
        let id = ghost_ids[offset + k];
        vals[id as usize] = bits_f64(bits);
    }
    value_bits.len()
}

/// Builds the machine for `spec`, runs it, and wraps the outcome as `app`'s
/// [`RunResult`]. `check` gets the finished machine by value (the
/// message-passing builders gather their values with `into_programs`) and
/// returns `(verified, max_abs_err)`.
pub(crate) fn run_machine(
    app: &'static str,
    mechanism: Mechanism,
    cfg: &MachineConfig,
    spec: MachineSpec,
    check: impl FnOnce(Machine) -> (bool, f64),
) -> Result<RunResult, SimError> {
    let mut machine = Machine::new(cfg.clone(), spec)?;
    let stats = machine.run()?;
    let observation = machine.take_observation().map(Arc::new);
    let profile = machine.take_dispatch_profile();
    let (verified, max_abs_err) = check(machine);
    Ok(RunResult {
        app,
        mechanism,
        runtime_cycles: stats.runtime_cycles,
        verified,
        max_abs_err,
        stats,
        wall: std::time::Duration::ZERO,
        observation,
        profile,
    })
}

/// Compares computed values to a reference; returns `(ok, max_abs_err)`.
/// `tol` of zero demands exact equality.
pub fn verify(got: &[f64], want: &[f64], tol: f64) -> (bool, f64) {
    assert_eq!(got.len(), want.len(), "verification length mismatch");
    let mut max_err = 0.0f64;
    for (g, w) in got.iter().zip(want) {
        let e = (g - w).abs();
        if e > max_err {
            max_err = e;
        }
    }
    (max_err <= tol, max_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> GhostPlan {
        // Consumer 0 needs ids 10,11,12,13,14,15,16 from producer 1 and 20
        // from producer 2; consumer 2 needs 30 from producer 0.
        let demands = vec![
            (0usize, 1usize, 13u32),
            (0, 1, 10),
            (0, 1, 11),
            (0, 1, 12),
            (0, 1, 10), // duplicate
            (0, 1, 14),
            (0, 1, 15),
            (0, 1, 16),
            (0, 2, 20),
            (2, 0, 30),
            (1, 1, 5), // local: ignored
        ];
        GhostPlan::build(3, demands.into_iter())
    }

    #[test]
    fn plan_chunks_respect_chunk_size() {
        let plan = demo_plan();
        // Producer 1 sends 7 unique ids to consumer 0: chunks of 5 + 2.
        let s = &plan.sends[1];
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].ids, vec![10, 11, 12, 13, 14]);
        assert_eq!(s[0].offset, 0);
        assert_eq!(s[1].ids, vec![15, 16]);
        assert_eq!(s[1].offset, 5);
        // Bulk: a single aggregated chunk.
        assert_eq!(plan.bulk_sends[1].len(), 1);
        assert_eq!(plan.bulk_sends[1][0].ids.len(), 7);
    }

    #[test]
    fn plan_expected_counts() {
        let plan = demo_plan();
        assert_eq!(plan.expected_values(0), 8); // 7 from p1 + 1 from p2
        assert_eq!(plan.expected_values(2), 1);
        assert_eq!(plan.expected_values(1), 0);
        assert_eq!(plan.expected_bulk_msgs(0), 2);
    }

    #[test]
    fn ghost_message_roundtrip() {
        let plan = demo_plan();
        let chunk = &plan.sends[1][0];
        let am = ghost_message(7, chunk, |id| id as f64 * 0.5);
        assert_eq!(am.args.len(), 6);
        let mut vals = vec![0.0; 32];
        let n = apply_ghost(
            &plan.ghost_ids[0],
            am.args[0] as usize,
            &am.args[1..],
            &mut vals,
        );
        assert_eq!(n, 5);
        assert_eq!(vals[10], 5.0);
        assert_eq!(vals[14], 7.0);
    }

    #[test]
    fn bulk_message_roundtrip() {
        let plan = demo_plan();
        let chunk = &plan.bulk_sends[1][0];
        let am = bulk_message(8, chunk, |id| id as f64, true);
        assert_eq!(am.bulk_data.len(), 7);
        assert_eq!(am.bulk_bytes, 56);
        assert!(am.gather_lines > 0 && am.scatter_lines > 0);
        let mut vals = vec![0.0; 32];
        apply_ghost(
            &plan.ghost_ids[0],
            am.args[0] as usize,
            &am.bulk_data,
            &mut vals,
        );
        assert_eq!(vals[16], 16.0);
    }

    #[test]
    fn verify_tolerances() {
        let (ok, err) = verify(&[1.0, 2.0], &[1.0, 2.0], 0.0);
        assert!(ok && err == 0.0);
        let (ok, err) = verify(&[1.0, 2.0 + 1e-12], &[1.0, 2.0], 1e-9);
        assert!(ok && err > 0.0);
        let (ok, _) = verify(&[1.5], &[1.0], 1e-9);
        assert!(!ok);
    }
}
