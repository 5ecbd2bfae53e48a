//! The directory-based MSI coherence protocol with LimitLESS overflow.
//!
//! The [`Protocol`] owns every node's cache and prefetch buffer plus the
//! distributed directory, and is driven by the machine layer: the machine
//! delivers protocol messages (after simulating their network transit) via
//! [`Protocol::handle`], and schedules whatever the protocol returns.
//!
//! ## Simplifications relative to real hardware (documented in DESIGN.md)
//!
//! * **Oracle evictions** — when a `Modified` line is evicted, the directory
//!   transitions immediately while the writeback packet still traverses the
//!   network as pure bandwidth. This removes the writeback/forward races of
//!   physical protocols without affecting timing materially (dirty evictions
//!   are rare in the studied applications).
//! * **Deferred intruders** — an `Inv`/`Fetch`/`Recall` that overtakes the
//!   `Grant` of the same line is buffered at the requester and replayed as
//!   soon as the fill completes, in place of hardware NAK/retry. The home
//!   directory serializes transactions per line, so the grant is always
//!   already in flight and the deferral always terminates.
//! * **Stale sharers are tolerated** — `Shared` lines are dropped silently
//!   on eviction, so the directory's sharer set may over-approximate the
//!   true holders; stale sharers simply acknowledge invalidations for lines
//!   they no longer hold. The protocol invariant is therefore one-sided:
//!   every cached copy is tracked by the directory.

use std::collections::VecDeque;

use commsense_des::{FxHashMap, FxHashSet};

use crate::addr::{Heap, LineId};
use crate::cachearray::{Cache, LineState};
use crate::prefetch::{PrefetchBuffer, PrefetchKind};

/// Kind of processor access driving a coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load: needs a Shared (or better) copy.
    Read,
    /// Store: needs a Modified copy.
    Write,
    /// Atomic read-modify-write (locked): needs a Modified copy. On Alewife
    /// the lock acquire is piggy-backed on the write-ownership request
    /// (§4.3.2 of the paper), so `Rmw` costs the same as `Write`.
    Rmw,
}

impl AccessKind {
    /// Whether this access requires exclusive ownership.
    pub fn needs_exclusive(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// Opaque transaction token minted by the machine layer so completions can
/// be matched to blocked processors or outstanding prefetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnToken(pub u64);

/// Volume class of a protocol message, mapped by the machine layer onto the
/// network's packet classes (Figure 5 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Read/write/ownership requests and data recalls.
    Request,
    /// Invalidations and their acknowledgements.
    Invalidate,
    /// Cache-line data transfers (16-byte line + 8-byte header).
    Data,
}

/// Messages of the coherence protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMsg {
    /// Requester → home: read miss.
    ReadReq {
        /// Missing line.
        line: LineId,
        /// Matching token for the eventual completion.
        token: TxnToken,
    },
    /// Requester → home: write miss or upgrade.
    WriteReq {
        /// Missing line.
        line: LineId,
        /// Matching token for the eventual completion.
        token: TxnToken,
    },
    /// Home → owner: supply data for a reader; downgrade to Shared.
    Fetch {
        /// Contested line.
        line: LineId,
    },
    /// Home → owner: supply data for a writer; invalidate.
    Recall {
        /// Contested line.
        line: LineId,
    },
    /// Home → sharer: invalidate for a writer.
    Inv {
        /// Contested line.
        line: LineId,
    },
    /// Sharer → home: invalidation acknowledged.
    InvAck {
        /// Contested line.
        line: LineId,
    },
    /// Owner → home: dirty line returned for a waiting transaction.
    WbData {
        /// Contested line.
        line: LineId,
    },
    /// Home → requester: data + permission.
    Grant {
        /// Granted line.
        line: LineId,
        /// Whether ownership (Modified) is granted.
        exclusive: bool,
        /// Token from the originating request.
        token: TxnToken,
    },
    /// Evicting cache → home: dirty eviction. Pure bandwidth: the directory
    /// already transitioned at eviction time (oracle eviction).
    Writeback {
        /// Evicted line.
        line: LineId,
    },
}

impl ProtoMsg {
    /// Wire size in bytes (8-byte header; data messages carry a 16-byte line).
    pub fn bytes(self) -> u32 {
        match self {
            ProtoMsg::WbData { .. } | ProtoMsg::Grant { .. } | ProtoMsg::Writeback { .. } => 24,
            _ => 8,
        }
    }

    /// Volume class for Figure 5 accounting.
    pub fn class(self) -> MsgClass {
        match self {
            ProtoMsg::ReadReq { .. }
            | ProtoMsg::WriteReq { .. }
            | ProtoMsg::Fetch { .. }
            | ProtoMsg::Recall { .. } => MsgClass::Request,
            ProtoMsg::Inv { .. } | ProtoMsg::InvAck { .. } => MsgClass::Invalidate,
            ProtoMsg::WbData { .. } | ProtoMsg::Grant { .. } | ProtoMsg::Writeback { .. } => {
                MsgClass::Data
            }
        }
    }

    /// Whether this is a sharer's invalidation acknowledgement (`InvAck`).
    /// The criticality-aware machine variant's fault-injection hooks key on
    /// this: the ack closes a writer's invalidation round, so losing or
    /// smuggling one breaks message conservation in a detectable way.
    pub fn is_invalidation_ack(self) -> bool {
        matches!(self, ProtoMsg::InvAck { .. })
    }

    /// The line this message concerns.
    pub fn line(self) -> LineId {
        match self {
            ProtoMsg::ReadReq { line, .. }
            | ProtoMsg::WriteReq { line, .. }
            | ProtoMsg::Fetch { line }
            | ProtoMsg::Recall { line }
            | ProtoMsg::Inv { line }
            | ProtoMsg::InvAck { line }
            | ProtoMsg::WbData { line }
            | ProtoMsg::Grant { line, .. }
            | ProtoMsg::Writeback { line } => line,
        }
    }
}

/// Actions the machine layer must carry out on behalf of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoOut {
    /// Transmit `msg` from node `from` to node `to` (local if equal).
    Send {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// The protocol message.
        msg: ProtoMsg,
    },
    /// Data + permission have arrived at `node`; the machine must call
    /// [`Protocol::fill_cache_into`] or [`Protocol::fill_prefetch_into`] and then
    /// unblock whatever waited on `token`.
    Granted {
        /// Receiving node.
        node: usize,
        /// Granted line.
        line: LineId,
        /// Whether ownership was granted.
        exclusive: bool,
        /// Token from the originating request.
        token: TxnToken,
    },
    /// The home node's coherence controller was occupied for `cycles`
    /// processor cycles beyond its hardware cost (LimitLESS software
    /// handling of widely shared lines).
    HomeOccupancy {
        /// The home node.
        node: usize,
        /// Extra occupancy in processor cycles.
        cycles: u32,
    },
}

/// Result of an access that missed the cache
/// ([`Protocol::start_miss_into`]). Follow-up actions go to the caller's
/// scratch buffer, not a freshly allocated `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was promoted from the prefetch buffer (a local, fast
    /// transfer); the buffer may have gained an oracle writeback of the
    /// evicted victim and replays of deferred intruders.
    PrefetchHit,
    /// A coherence transaction was started; the processor must block until
    /// the matching [`ProtoOut::Granted`] completes.
    Miss,
}

/// Protocol configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoConfig {
    /// Directory hardware pointers before trapping to software (LimitLESS).
    pub hw_ptrs: usize,
    /// Software-handler occupancy for an overflowed read, in cycles.
    pub sw_read_cycles: u32,
    /// Software-handler occupancy for an overflowed invalidation sweep.
    pub sw_write_cycles: u32,
    /// Cache lines per node (power of two).
    pub cache_lines: usize,
    /// Cache associativity (1 = direct-mapped, the Alewife configuration).
    pub cache_ways: usize,
    /// Prefetch buffer entries per node.
    pub prefetch_entries: usize,
}

impl ProtoConfig {
    /// Canonical field encoding for content-addressed result caching (see
    /// `commsense_des::stable`).
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        enc.put("hw_ptrs", self.hw_ptrs);
        enc.put("sw_read_cycles", self.sw_read_cycles);
        enc.put("sw_write_cycles", self.sw_write_cycles);
        enc.put("cache_lines", self.cache_lines);
        enc.put("cache_ways", self.cache_ways);
        enc.put("prefetch_entries", self.prefetch_entries);
    }
}

impl Default for ProtoConfig {
    /// Alewife: 5 hardware pointers, 64 KB direct-mapped cache, 16-entry
    /// prefetch (transaction) buffer. Software-handling occupancies are
    /// calibrated so overflowed misses land near the 425/707-cycle penalties
    /// of the Figure 3 cost table.
    fn default() -> Self {
        ProtoConfig {
            hw_ptrs: 5,
            sw_read_cycles: 370,
            sw_write_cycles: 620,
            cache_lines: 4096,
            cache_ways: 1,
            prefetch_entries: 16,
        }
    }
}

/// Counters describing protocol activity over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// Read transactions started.
    pub read_misses: u64,
    /// Write/RMW transactions started.
    pub write_misses: u64,
    /// Invalidations sent to sharers.
    pub invalidations: u64,
    /// Dirty-owner interventions (Fetch or Recall).
    pub interventions: u64,
    /// LimitLESS software traps at directories.
    pub limitless_traps: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
    /// Intruder messages deferred behind an in-flight grant.
    pub deferred: u64,
}

/// Inline capacity of a [`Sharers`] list, sized above the Alewife
/// hardware pointer count so LimitLESS-overflowed lines usually still
/// fit.
const SHARERS_INLINE: usize = 8;

/// A directory sharer list: insertion-ordered and duplicate-free, like
/// the `Vec<u16>` it replaces, but with inline storage for the common
/// case so read/write transitions on narrowly-shared lines never touch
/// the allocator. Widely read-shared lines (a barrier flag, for
/// instance) spill to the heap once and stay there.
#[derive(Debug, Clone, PartialEq)]
enum Sharers {
    Inline { len: u8, buf: [u16; SHARERS_INLINE] },
    Spill(Vec<u16>),
}

impl Sharers {
    const EMPTY: Sharers = Sharers::Inline {
        len: 0,
        buf: [0; SHARERS_INLINE],
    };

    fn one(r: u16) -> Self {
        let mut buf = [0; SHARERS_INLINE];
        buf[0] = r;
        Sharers::Inline { len: 1, buf }
    }

    fn two(a: u16, b: u16) -> Self {
        let mut buf = [0; SHARERS_INLINE];
        buf[0] = a;
        buf[1] = b;
        Sharers::Inline { len: 2, buf }
    }

    fn as_slice(&self) -> &[u16] {
        match self {
            Sharers::Inline { len, buf } => &buf[..*len as usize],
            Sharers::Spill(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn contains(&self, r: u16) -> bool {
        self.as_slice().contains(&r)
    }

    /// Appends `r`, which the caller has checked is not already present.
    fn push(&mut self, r: u16) {
        match self {
            Sharers::Inline { len, buf } => {
                if (*len as usize) < SHARERS_INLINE {
                    buf[*len as usize] = r;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(SHARERS_INLINE * 2);
                    v.extend_from_slice(buf);
                    v.push(r);
                    *self = Sharers::Spill(v);
                }
            }
            Sharers::Spill(v) => v.push(r),
        }
    }
}

#[derive(Debug, Clone)]
enum DirState {
    Uncached,
    Shared(Sharers),
    Modified(u16),
}

#[derive(Debug)]
struct Txn {
    kind: AccessKind,
    requester: u16,
    token: TxnToken,
    pending_invacks: u32,
    waiting_wb_from: Option<u16>,
}

#[derive(Debug)]
struct DirEntry {
    state: DirState,
    busy: Option<Txn>,
    queue: VecDeque<(usize, ProtoMsg)>,
}

impl DirEntry {
    fn new() -> Self {
        DirEntry {
            state: DirState::Uncached,
            busy: None,
            queue: VecDeque::new(),
        }
    }
}

/// Field-precise [`Protocol::dir_mut`], for callers that hold borrows of
/// other `Protocol` fields (e.g. `stats`) across the entry access.
fn dir_entry(dirs: &mut FxHashMap<u64, DirEntry>, line: LineId) -> &mut DirEntry {
    dirs.entry(line.0).or_insert_with(DirEntry::new)
}

/// The coherence protocol engine: all caches, prefetch buffers, and
/// directory entries of the machine, plus the transient transaction state.
///
/// See the crate-level documentation for the modeling contract, and the
/// module tests for end-to-end message walkthroughs.
#[derive(Debug)]
pub struct Protocol {
    heap: Heap,
    caches: Vec<Cache>,
    prefetch: Vec<PrefetchBuffer>,
    /// Directory entries, keyed by line id. Kept sparse: only a fraction
    /// of the heap's lines ever miss, and `DirEntry` is wide, so a compact
    /// hash table (with the cheap deterministic hasher) stays
    /// cache-resident where a dense per-line array would not.
    dirs: FxHashMap<u64, DirEntry>,
    granted: FxHashSet<(u16, u64)>,
    deferred: FxHashMap<(u16, u64), Vec<(usize, ProtoMsg)>>,
    cfg: ProtoConfig,
    stats: ProtoStats,
    /// Verification-harness fault injection: number of upcoming `Inv`
    /// messages whose cache invalidation will be skipped (the ack is still
    /// sent). Always 0 outside mutation tests.
    fault_skip_invs: u32,
}

impl Protocol {
    /// Creates the protocol state for a machine whose shared data lives in
    /// `heap`.
    pub fn new(heap: Heap, cfg: ProtoConfig) -> Self {
        let n = heap.nodes();
        Protocol {
            heap,
            caches: (0..n)
                .map(|_| Cache::set_associative(cfg.cache_lines, cfg.cache_ways))
                .collect(),
            prefetch: (0..n)
                .map(|_| PrefetchBuffer::new(cfg.prefetch_entries))
                .collect(),
            dirs: FxHashMap::default(),
            granted: FxHashSet::default(),
            deferred: FxHashMap::default(),
            cfg,
            stats: ProtoStats::default(),
            fault_skip_invs: 0,
        }
    }

    /// The directory entry of `line`, if one has materialized (an absent
    /// entry is equivalent to `Uncached` and not busy).
    fn dir(&self, line: LineId) -> Option<&DirEntry> {
        self.dirs.get(&line.0)
    }

    /// The directory entry of `line`, materializing it on first touch.
    fn dir_mut(&mut self, line: LineId) -> &mut DirEntry {
        dir_entry(&mut self.dirs, line)
    }

    /// The home node of a line.
    pub fn home(&self, line: LineId) -> usize {
        self.heap.home(line)
    }

    /// Protocol activity counters.
    pub fn stats(&self) -> ProtoStats {
        self.stats
    }

    /// Per-node cache hit/miss counters.
    pub fn cache_hit_miss(&self, node: usize) -> (u64, u64) {
        self.caches[node].hit_miss()
    }

    /// Per-node prefetch-buffer (hits, discards).
    pub fn prefetch_stats(&self, node: usize) -> (u64, u64) {
        self.prefetch[node].stats()
    }

    /// Whether `line` is present locally at `node` (cache or prefetch
    /// buffer) — used to recognize useless prefetches.
    pub fn is_local(&self, node: usize, line: LineId) -> bool {
        self.caches[node].lookup(line).is_some() || self.prefetch[node].lookup(line).is_some()
    }

    /// The first half of a processor access: one cache lookup, which
    /// records a hit or a miss and refreshes LRU on a hit. Returns whether
    /// the line is resident with enough permission for `kind`; if not, the
    /// caller continues with [`Protocol::start_miss_into`].
    pub fn try_hit(&mut self, node: usize, line: LineId, kind: AccessKind) -> bool {
        match self.caches[node].access(line) {
            Some(LineState::Modified) => true,
            Some(LineState::Shared) => !kind.needs_exclusive(),
            None => false,
        }
    }

    /// Records `n` further read hits on a resident line, exactly as `n`
    /// [`Protocol::try_hit`] calls that hit would (see
    /// [`Cache::touch_hits`]).
    ///
    /// # Panics
    ///
    /// Panics if the line is not in `node`'s cache.
    pub fn touch_hits(&mut self, node: usize, line: LineId, n: u64) {
        self.caches[node].touch_hits(line, n);
    }

    /// The second half of an access that [`Protocol::try_hit`] did not
    /// satisfy: promotes the line from the prefetch buffer or starts a
    /// coherence transaction; follow-up actions are appended to `outs`.
    ///
    /// The caller must ensure at most one outstanding transaction per
    /// `(node, line)` (the machine layer merges demand misses into
    /// outstanding prefetches of the same line).
    pub fn start_miss_into(
        &mut self,
        node: usize,
        line: LineId,
        kind: AccessKind,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) -> AccessOutcome {
        // Try the prefetch buffer.
        if let Some(pk) = self.prefetch[node].lookup(line) {
            let enough = !kind.needs_exclusive() || pk == PrefetchKind::Exclusive;
            if enough {
                self.prefetch[node].take(line);
                let st = match pk {
                    PrefetchKind::Read => LineState::Shared,
                    PrefetchKind::Exclusive => LineState::Modified,
                };
                self.install(node, line, st, outs);
                self.replay_deferred(node, line, outs);
                return AccessOutcome::PrefetchHit;
            }
            // A read-prefetched line cannot satisfy a write: promote the
            // Shared copy and fall through to an upgrade miss.
            self.prefetch[node].take(line);
            self.install(node, line, LineState::Shared, outs);
            self.replay_deferred(node, line, outs);
            self.request(node, line, kind, token, outs);
            return AccessOutcome::Miss;
        }

        self.request(node, line, kind, token, outs);
        AccessOutcome::Miss
    }

    fn request(
        &mut self,
        node: usize,
        line: LineId,
        kind: AccessKind,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) {
        let home = self.home(line);
        let msg = if kind.needs_exclusive() {
            self.stats.write_misses += 1;
            ProtoMsg::WriteReq { line, token }
        } else {
            self.stats.read_misses += 1;
            ProtoMsg::ReadReq { line, token }
        };
        outs.push(ProtoOut::Send {
            from: node,
            to: home,
            msg,
        });
    }

    /// Installs a granted line into `node`'s cache (demand miss completion).
    ///
    /// Appends follow-up actions to `outs`: an oracle writeback if a dirty
    /// victim was evicted, plus replays of any intruder messages deferred
    /// behind the grant.
    pub fn fill_cache_into(
        &mut self,
        node: usize,
        line: LineId,
        exclusive: bool,
        outs: &mut Vec<ProtoOut>,
    ) {
        self.granted.remove(&(node as u16, line.0));
        let st = if exclusive {
            LineState::Modified
        } else {
            LineState::Shared
        };
        self.install(node, line, st, outs);
        self.replay_deferred(node, line, outs);
    }

    /// Installs a granted line into `node`'s prefetch buffer (prefetch
    /// completion); follow-up actions are appended to `outs`.
    pub fn fill_prefetch_into(
        &mut self,
        node: usize,
        line: LineId,
        exclusive: bool,
        outs: &mut Vec<ProtoOut>,
    ) {
        self.granted.remove(&(node as u16, line.0));
        let kind = if exclusive {
            PrefetchKind::Exclusive
        } else {
            PrefetchKind::Read
        };
        if let Some((victim, vkind)) = self.prefetch[node].insert(line, kind) {
            // Dropping a buffered line loses its permission; dirty-capable
            // (exclusive) victims write back like cache victims.
            if vkind == PrefetchKind::Exclusive {
                self.oracle_evict(node, victim, outs);
            }
        }
        self.replay_deferred(node, line, outs);
    }

    fn install(&mut self, node: usize, line: LineId, st: LineState, outs: &mut Vec<ProtoOut>) {
        if let Some((victim, LineState::Modified)) = self.caches[node].fill(line, st) {
            self.oracle_evict(node, victim, outs);
        }
    }

    /// Oracle eviction of a dirty line: the directory transitions now; a
    /// writeback packet is emitted for bandwidth accounting only.
    fn oracle_evict(&mut self, node: usize, line: LineId, outs: &mut Vec<ProtoOut>) {
        self.stats.writebacks += 1;
        let home = self.home(line);
        outs.push(ProtoOut::Send {
            from: node,
            to: home,
            msg: ProtoMsg::Writeback { line },
        });
        let entry = self.dir_mut(line);
        let waiting = entry
            .busy
            .as_ref()
            .is_some_and(|t| t.waiting_wb_from == Some(node as u16));
        if waiting {
            self.finish_wb(line, outs);
        } else if let DirState::Modified(o) = entry.state {
            if o == node as u16 {
                entry.state = DirState::Uncached;
            }
        }
    }

    fn replay_deferred(&mut self, node: usize, line: LineId, outs: &mut Vec<ProtoOut>) {
        let Some(msgs) = self.deferred.remove(&(node as u16, line.0)) else {
            return;
        };
        for (from, msg) in msgs {
            self.handle_into(node, from, msg, outs);
        }
    }

    /// Processes a delivered protocol message at node `at` (sent by `from`);
    /// outputs are appended to `outs`.
    pub fn handle_into(&mut self, at: usize, from: usize, msg: ProtoMsg, outs: &mut Vec<ProtoOut>) {
        match msg {
            ProtoMsg::ReadReq { line, token } => {
                self.dir_request(at, from, line, AccessKind::Read, token, outs);
            }
            ProtoMsg::WriteReq { line, token } => {
                self.dir_request(at, from, line, AccessKind::Write, token, outs);
            }
            ProtoMsg::Fetch { line } | ProtoMsg::Recall { line } | ProtoMsg::Inv { line } => {
                self.intruder(at, from, line, msg, outs);
            }
            ProtoMsg::InvAck { line } => {
                let entry = self.dir_mut(line);
                if let Some(txn) = &mut entry.busy {
                    // Anything else is a stale ack.
                    if txn.pending_invacks > 0 {
                        txn.pending_invacks -= 1;
                        if txn.pending_invacks == 0 {
                            self.finish_txn(line, outs);
                        }
                    }
                }
            }
            ProtoMsg::WbData { line } => {
                let waiting = self
                    .dir(line)
                    .and_then(|e| e.busy.as_ref())
                    .is_some_and(|t| t.waiting_wb_from == Some(from as u16));
                if waiting {
                    self.finish_wb(line, outs);
                }
                // Otherwise stale: oracle eviction already resolved it.
            }
            ProtoMsg::Grant {
                line,
                exclusive,
                token,
            } => {
                outs.push(ProtoOut::Granted {
                    node: at,
                    line,
                    exclusive,
                    token,
                });
            }
            ProtoMsg::Writeback { .. } => {} // bandwidth only
        }
    }

    /// Home-side handling of a read/write request (queueing if busy).
    fn dir_request(
        &mut self,
        at: usize,
        from: usize,
        line: LineId,
        kind: AccessKind,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) {
        debug_assert_eq!(at, self.home(line), "request must arrive at home");
        let entry = self.dir_mut(line);
        if entry.busy.is_some() {
            let msg = if kind.needs_exclusive() {
                ProtoMsg::WriteReq { line, token }
            } else {
                ProtoMsg::ReadReq { line, token }
            };
            entry.queue.push_back((from, msg));
            return;
        }
        self.process_request(line, from, kind, token, outs);
    }

    fn process_request(
        &mut self,
        line: LineId,
        from: usize,
        kind: AccessKind,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) {
        let home = self.home(line);
        let r = from as u16;
        let hw_ptrs = self.cfg.hw_ptrs;
        let sw_read = self.cfg.sw_read_cycles;
        let sw_write = self.cfg.sw_write_cycles;
        let entry = dir_entry(&mut self.dirs, line);
        if !kind.needs_exclusive() {
            match &mut entry.state {
                DirState::Uncached => {
                    entry.state = DirState::Shared(Sharers::one(r));
                }
                DirState::Shared(s) => {
                    if !s.contains(r) {
                        s.push(r);
                    }
                    if s.len() > hw_ptrs {
                        self.stats.limitless_traps += 1;
                        outs.push(ProtoOut::HomeOccupancy {
                            node: home,
                            cycles: sw_read,
                        });
                    }
                }
                DirState::Modified(o) => {
                    let o = *o;
                    debug_assert_ne!(o, r, "owner cannot read-miss (oracle evictions)");
                    self.stats.interventions += 1;
                    entry.busy = Some(Txn {
                        kind,
                        requester: r,
                        token,
                        pending_invacks: 0,
                        waiting_wb_from: Some(o),
                    });
                    outs.push(ProtoOut::Send {
                        from: home,
                        to: o as usize,
                        msg: ProtoMsg::Fetch { line },
                    });
                    return;
                }
            }
            self.grant(line, r, false, token, outs);
            return;
        }
        // Exclusive request.
        match &mut entry.state {
            DirState::Uncached => {
                entry.state = DirState::Modified(r);
                self.grant(line, r, true, token, outs);
            }
            DirState::Shared(s) => {
                let overflow = s.len() > hw_ptrs;
                // Detach the list so the transaction slot can be written
                // while the sharers are walked; restored below for the
                // busy case (sharers keep the line until their Inv
                // arrives, which the verification harness observes).
                let s = std::mem::replace(s, Sharers::EMPTY);
                let others = s.len() - s.contains(r) as usize;
                if others == 0 {
                    entry.state = DirState::Modified(r);
                    self.grant(line, r, true, token, outs);
                } else {
                    entry.busy = Some(Txn {
                        kind,
                        requester: r,
                        token,
                        pending_invacks: others as u32,
                        waiting_wb_from: None,
                    });
                    if overflow {
                        self.stats.limitless_traps += 1;
                        outs.push(ProtoOut::HomeOccupancy {
                            node: home,
                            cycles: sw_write,
                        });
                    }
                    self.stats.invalidations += others as u64;
                    for &o in s.as_slice() {
                        if o != r {
                            outs.push(ProtoOut::Send {
                                from: home,
                                to: o as usize,
                                msg: ProtoMsg::Inv { line },
                            });
                        }
                    }
                    entry.state = DirState::Shared(s);
                }
            }
            DirState::Modified(o) => {
                let o = *o;
                debug_assert_ne!(o, r, "owner cannot write-miss (oracle evictions)");
                self.stats.interventions += 1;
                entry.busy = Some(Txn {
                    kind,
                    requester: r,
                    token,
                    pending_invacks: 0,
                    waiting_wb_from: Some(o),
                });
                outs.push(ProtoOut::Send {
                    from: home,
                    to: o as usize,
                    msg: ProtoMsg::Recall { line },
                });
            }
        }
    }

    fn grant(
        &mut self,
        line: LineId,
        to: u16,
        exclusive: bool,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) {
        let home = self.home(line);
        self.granted.insert((to, line.0));
        outs.push(ProtoOut::Send {
            from: home,
            to: to as usize,
            msg: ProtoMsg::Grant {
                line,
                exclusive,
                token,
            },
        });
    }

    /// The owner's data came back (WbData or oracle eviction): finish the
    /// waiting transaction.
    fn finish_wb(&mut self, line: LineId, outs: &mut Vec<ProtoOut>) {
        let entry = self.dir_mut(line);
        let txn = entry.busy.as_mut().expect("busy txn");
        let old_owner = txn.waiting_wb_from.take().expect("was waiting");
        let requester = txn.requester;
        match txn.kind {
            AccessKind::Read => {
                // Owner downgraded to Shared; requester joins.
                entry.state = DirState::Shared(Sharers::two(old_owner, requester));
            }
            AccessKind::Write | AccessKind::Rmw => {
                entry.state = DirState::Modified(requester);
            }
        }
        self.complete_txn(line, outs);
    }

    fn finish_txn(&mut self, line: LineId, outs: &mut Vec<ProtoOut>) {
        let entry = self.dir_mut(line);
        let txn = entry.busy.as_ref().expect("busy txn");
        debug_assert_eq!(txn.pending_invacks, 0);
        entry.state = DirState::Modified(txn.requester);
        self.complete_txn(line, outs);
    }

    /// Grants to the waiting requester, clears busy, and drains the queue.
    fn complete_txn(&mut self, line: LineId, outs: &mut Vec<ProtoOut>) {
        let entry = self.dir_mut(line);
        let txn = entry.busy.take().expect("busy txn");
        let exclusive = txn.kind.needs_exclusive();
        self.grant(line, txn.requester, exclusive, txn.token, outs);
        // Drain queued requests until the line goes busy again (or empty).
        loop {
            let entry = self.dir_mut(line);
            if entry.busy.is_some() {
                break;
            }
            let Some((from, msg)) = entry.queue.pop_front() else {
                break;
            };
            let (kind, token) = match msg {
                ProtoMsg::ReadReq { token, .. } => (AccessKind::Read, token),
                ProtoMsg::WriteReq { token, .. } => (AccessKind::Write, token),
                other => unreachable!("only requests are queued, got {other:?}"),
            };
            self.process_request(line, from, kind, token, outs);
        }
    }

    /// Handles Inv/Fetch/Recall at a (possibly ex-) holder.
    fn intruder(
        &mut self,
        at: usize,
        from: usize,
        line: LineId,
        msg: ProtoMsg,
        outs: &mut Vec<ProtoOut>,
    ) {
        if self.granted.contains(&(at as u16, line.0)) {
            // The grant for this line is still in flight to us: the home
            // serialized this intruder *after* our transaction, so replay it
            // once our fill completes.
            self.stats.deferred += 1;
            self.deferred
                .entry((at as u16, line.0))
                .or_default()
                .push((from, msg));
            return;
        }
        let home = self.home(line);
        match msg {
            ProtoMsg::Inv { .. } => {
                if self.fault_skip_invs > 0 {
                    // Injected fault: pretend the invalidation was applied
                    // (ack it) while actually keeping the stale copy.
                    self.fault_skip_invs -= 1;
                } else {
                    self.caches[at].invalidate(line);
                    self.prefetch[at].invalidate(line);
                }
                outs.push(ProtoOut::Send {
                    from: at,
                    to: home,
                    msg: ProtoMsg::InvAck { line },
                });
            }
            ProtoMsg::Fetch { .. } => {
                self.caches[at].downgrade(line);
                self.prefetch[at].downgrade(line);
                outs.push(ProtoOut::Send {
                    from: at,
                    to: home,
                    msg: ProtoMsg::WbData { line },
                });
            }
            ProtoMsg::Recall { .. } => {
                self.caches[at].invalidate(line);
                self.prefetch[at].invalidate(line);
                outs.push(ProtoOut::Send {
                    from: at,
                    to: home,
                    msg: ProtoMsg::WbData { line },
                });
            }
            other => unreachable!("not an intruder: {other:?}"),
        }
    }

    /// Testing/verification hook: the set of nodes caching `line` according
    /// to the directory (over-approximation), or the owner.
    pub fn directory_view(&self, line: LineId) -> (bool, Vec<usize>) {
        match self.dir(line).map(|e| &e.state) {
            None | Some(DirState::Uncached) => (false, Vec::new()),
            Some(DirState::Shared(s)) => {
                (false, s.as_slice().iter().map(|&x| x as usize).collect())
            }
            Some(DirState::Modified(o)) => (true, vec![*o as usize]),
        }
    }

    /// Verification-harness fault injection: makes the next `Inv` message
    /// processed anywhere in the machine acknowledge without invalidating,
    /// leaving a stale copy behind. Used by mutation tests to prove the
    /// invariant checker can actually fail; never call this in real runs.
    #[doc(hidden)]
    pub fn fault_ignore_next_invalidation(&mut self) {
        self.fault_skip_invs += 1;
    }

    /// Total number of heap lines (every line the directory can govern).
    pub fn num_lines(&self) -> u64 {
        self.heap.total_lines()
    }

    /// Checks the coherence invariants on one line, returning a description
    /// of the first violation found.
    ///
    /// The invariants (one-sided because stale sharers are tolerated, see
    /// the module docs):
    /// * at most one `Modified` copy exists machine-wide (single writer);
    /// * a `Modified` copy excludes every `Shared` copy (no stale readers);
    /// * a `Modified` copy is the directory's tracked owner;
    /// * every `Shared` copy is in the directory's sharer set.
    ///
    /// Lines with a grant still in flight, or whose directory entry has a
    /// busy transaction, are transient and skipped: a run may legitimately
    /// end with dangling (e.g. prefetch) transactions whose fills never
    /// happened.
    pub fn verify_line(&self, line: LineId) -> Result<(), String> {
        if self.granted.iter().any(|&(_, l)| l == line.0) {
            return Ok(());
        }
        if self.dir(line).is_some_and(|e| e.busy.is_some()) {
            return Ok(());
        }
        let (dir_modified, holders) = self.directory_view(line);
        let mut cached_m = Vec::new();
        let mut cached_s = Vec::new();
        for node in 0..self.caches.len() {
            match self.caches[node].lookup(line) {
                Some(LineState::Modified) => cached_m.push(node),
                Some(LineState::Shared) => cached_s.push(node),
                None => {}
            }
            match self.prefetch[node].lookup(line) {
                Some(PrefetchKind::Exclusive) => cached_m.push(node),
                Some(PrefetchKind::Read) => cached_s.push(node),
                None => {}
            }
        }
        if cached_m.len() > 1 {
            return Err(format!(
                "line {line:?}: multiple Modified copies {cached_m:?}"
            ));
        }
        if let Some(&m) = cached_m.first() {
            if !cached_s.is_empty() {
                return Err(format!(
                    "line {line:?}: Modified at {m} with Shared copies {cached_s:?}"
                ));
            }
            if !(dir_modified && holders == vec![m]) {
                return Err(format!(
                    "line {line:?}: untracked owner {m} (dir: {holders:?})"
                ));
            }
        }
        for s in cached_s {
            if dir_modified || !holders.contains(&s) {
                return Err(format!(
                    "line {line:?}: untracked sharer {s} (dir: {holders:?})"
                ));
            }
        }
        Ok(())
    }

    /// Checks the coherence invariants (see [`Protocol::verify_line`]) on
    /// every line of `lines`, returning the first violation.
    pub fn verify_invariants(&self, lines: impl Iterator<Item = LineId>) -> Result<(), String> {
        for line in lines {
            self.verify_line(line)?;
        }
        Ok(())
    }

    /// Testing/verification hook: panicking form of
    /// [`Protocol::verify_invariants`].
    ///
    /// # Panics
    ///
    /// Panics (with a description) if the invariant is violated.
    pub fn check_invariants(&self, lines: impl Iterator<Item = LineId>) {
        if let Err(e) = self.verify_invariants(lines) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts an access the way the machine does (the cache lookup, then
    /// the miss path), appending its follow-up actions to `outs`. `None`
    /// is a cache hit.
    fn start_into(
        p: &mut Protocol,
        node: usize,
        line: LineId,
        kind: AccessKind,
        token: TxnToken,
        outs: &mut Vec<ProtoOut>,
    ) -> Option<AccessOutcome> {
        (!p.try_hit(node, line, kind)).then(|| p.start_miss_into(node, line, kind, token, outs))
    }

    /// Starts an access, returning its outcome and its follow-up actions.
    fn start(
        p: &mut Protocol,
        node: usize,
        line: LineId,
        kind: AccessKind,
        token: TxnToken,
    ) -> (Option<AccessOutcome>, Vec<ProtoOut>) {
        let mut outs = Vec::new();
        let outcome = start_into(p, node, line, kind, token, &mut outs);
        (outcome, outs)
    }

    /// Delivers all Send outputs immediately (zero-latency network),
    /// returning Granted events in order. Fills caches on demand grants
    /// (or prefetch buffers, with `prefetch`).
    fn settle(
        p: &mut Protocol,
        mut outs: Vec<ProtoOut>,
        prefetch: bool,
    ) -> Vec<(usize, LineId, bool)> {
        let mut grants = Vec::new();
        while let Some(out) = outs.pop() {
            match out {
                ProtoOut::Send { from, to, msg } => p.handle_into(to, from, msg, &mut outs),
                ProtoOut::Granted {
                    node,
                    line,
                    exclusive,
                    ..
                } => {
                    grants.push((node, line, exclusive));
                    if prefetch {
                        p.fill_prefetch_into(node, line, exclusive, &mut outs);
                    } else {
                        p.fill_cache_into(node, line, exclusive, &mut outs);
                    }
                }
                ProtoOut::HomeOccupancy { .. } => {}
            }
        }
        grants
    }

    fn proto(nodes: usize, lines: usize) -> (Protocol, crate::addr::LineHandle) {
        let mut heap = Heap::new(nodes);
        let h = heap.alloc(lines, |i| i % nodes);
        (Protocol::new(heap, ProtoConfig::default()), h)
    }

    fn access(p: &mut Protocol, node: usize, line: LineId, kind: AccessKind) {
        if let (Some(AccessOutcome::Miss), outs) = start(p, node, line, kind, TxnToken(0)) {
            let g = settle(p, outs, false);
            assert_eq!(g.len(), 1, "one grant per miss");
        }
    }

    fn read(p: &mut Protocol, node: usize, line: LineId) {
        access(p, node, line, AccessKind::Read);
    }

    fn write(p: &mut Protocol, node: usize, line: LineId) {
        access(p, node, line, AccessKind::Write);
    }

    #[test]
    fn read_miss_then_hit() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(1); // home = node 1
        read(&mut p, 0, line);
        assert_eq!(
            start(&mut p, 0, line, AccessKind::Read, TxnToken(1)),
            (None, vec![])
        );
        let (m, holders) = p.directory_view(line);
        assert!(!m);
        assert_eq!(holders, vec![0]);
    }

    #[test]
    fn write_invalidates_sharers() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        read(&mut p, 1, line);
        read(&mut p, 2, line);
        write(&mut p, 3, line);
        let (m, holders) = p.directory_view(line);
        assert!(m);
        assert_eq!(holders, vec![3]);
        // Old sharers are gone.
        assert_eq!(
            start(&mut p, 1, line, AccessKind::Read, TxnToken(9)),
            (
                Some(AccessOutcome::Miss),
                vec![ProtoOut::Send {
                    from: 1,
                    to: 0,
                    msg: ProtoMsg::ReadReq {
                        line,
                        token: TxnToken(9)
                    }
                }]
            )
        );
        assert!(p.stats().invalidations >= 2);
        p.check_invariants([line].into_iter());
    }

    #[test]
    fn read_of_dirty_line_fetches_from_owner() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        write(&mut p, 2, line);
        read(&mut p, 3, line);
        assert_eq!(p.stats().interventions, 1);
        let (m, holders) = p.directory_view(line);
        assert!(!m);
        assert_eq!(holders, vec![2, 3]); // old owner downgraded, reader added
        p.check_invariants([line].into_iter());
    }

    #[test]
    fn write_upgrade_keeps_self() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        read(&mut p, 1, line);
        write(&mut p, 1, line); // upgrade: no other sharers
        let (m, holders) = p.directory_view(line);
        assert!(m && holders == vec![1]);
        assert_eq!(
            start(&mut p, 1, line, AccessKind::Write, TxnToken(5)),
            (None, vec![])
        );
    }

    #[test]
    fn rmw_behaves_like_write() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(2);
        let (outcome, outs) = start(&mut p, 0, line, AccessKind::Rmw, TxnToken(0));
        assert_eq!(outcome, Some(AccessOutcome::Miss));
        assert!(matches!(
            outs[0],
            ProtoOut::Send {
                msg: ProtoMsg::WriteReq { .. },
                ..
            }
        ));
        settle(&mut p, outs, false);
        let (m, _) = p.directory_view(line);
        assert!(m);
    }

    #[test]
    fn write_to_dirty_line_recalls_owner() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        write(&mut p, 1, line);
        write(&mut p, 2, line);
        let (m, holders) = p.directory_view(line);
        assert!(m && holders == vec![2]);
        // Old owner lost its copy.
        assert_eq!(
            start(&mut p, 1, line, AccessKind::Read, TxnToken(1)).0,
            Some(AccessOutcome::Miss)
        );
    }

    #[test]
    fn limitless_trap_beyond_hw_pointers() {
        let (mut p, h) = proto(8, 8);
        let line = h.line(0);
        for node in 0..6 {
            read(&mut p, node, line);
        }
        // Sixth sharer overflows the 5 hardware pointers.
        assert_eq!(p.stats().limitless_traps, 1);
        // A write now sweeps 6 sharers through the software handler too
        // (requester is node 7, so 6 invalidations).
        let (outcome, outs) = start(&mut p, 7, line, AccessKind::Write, TxnToken(0));
        assert_eq!(outcome, Some(AccessOutcome::Miss), "write should miss");
        assert!(outs.iter().all(|o| matches!(o, ProtoOut::Send { .. })));
        let mut saw_occupancy = false;
        let mut queue = outs;
        while let Some(out) = queue.pop() {
            match out {
                ProtoOut::Send { from, to, msg } => p.handle_into(to, from, msg, &mut queue),
                ProtoOut::Granted {
                    node,
                    line,
                    exclusive,
                    ..
                } => {
                    p.fill_cache_into(node, line, exclusive, &mut queue);
                }
                ProtoOut::HomeOccupancy { cycles, .. } => {
                    saw_occupancy = true;
                    assert!(cycles > 0);
                }
            }
        }
        assert!(
            saw_occupancy,
            "LimitLESS write sweep must cost software occupancy"
        );
        assert_eq!(p.stats().limitless_traps, 2);
    }

    #[test]
    fn dirty_eviction_emits_oracle_writeback() {
        let (p, h) = proto(2, 2);
        // Two lines mapping to the same cache set: craft via a tiny cache.
        let cfg = ProtoConfig {
            cache_lines: 2,
            ..ProtoConfig::default()
        };
        let mut heap = Heap::new(2);
        let h2 = heap.alloc(4, |_| 1);
        let mut p2 = Protocol::new(heap, cfg);
        let a = h2.line(0);
        let b = h2.line(2); // same set in a 2-line cache
        write(&mut p2, 0, a);
        // Filling b evicts dirty a.
        let (outcome, outs) = start(&mut p2, 0, b, AccessKind::Write, TxnToken(0));
        assert_eq!(outcome, Some(AccessOutcome::Miss));
        let mut saw_wb = false;
        let mut queue = outs;
        while let Some(out) = queue.pop() {
            match out {
                ProtoOut::Send { from, to, msg } => {
                    if matches!(msg, ProtoMsg::Writeback { .. }) {
                        saw_wb = true;
                        assert_eq!(msg.line(), a);
                    }
                    p2.handle_into(to, from, msg, &mut queue);
                }
                ProtoOut::Granted {
                    node,
                    line,
                    exclusive,
                    ..
                } => {
                    p2.fill_cache_into(node, line, exclusive, &mut queue);
                }
                ProtoOut::HomeOccupancy { .. } => {}
            }
        }
        assert!(saw_wb, "dirty eviction must emit a writeback packet");
        // Directory no longer believes node 0 owns a.
        let (m, holders) = p2.directory_view(a);
        assert!(
            !m && holders.is_empty(),
            "oracle eviction cleared ownership"
        );
        assert_eq!(p2.stats().writebacks, 1);
        let _ = (p, h);
    }

    #[test]
    fn deferred_intruder_replays_after_fill() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        // One scratch buffer, drained after each step.
        let mut outs = Vec::new();
        // Node 1 requests exclusive; home grants (in flight).
        let outcome = start_into(&mut p, 1, line, AccessKind::Write, TxnToken(1), &mut outs);
        assert_eq!(outcome, Some(AccessOutcome::Miss));
        let Some(ProtoOut::Send { from, to, msg }) = outs.pop() else {
            panic!()
        };
        p.handle_into(to, from, msg, &mut outs); // home processes; emits Grant
        let grant = outs
            .drain(..)
            .find_map(|o| match o {
                ProtoOut::Send {
                    msg: m @ ProtoMsg::Grant { .. },
                    from,
                    to,
                } => Some((from, to, m)),
                _ => None,
            })
            .expect("grant sent");
        // Before the grant is delivered, node 2's write is processed at home
        // and its Recall overtakes the grant.
        let outcome = start_into(&mut p, 2, line, AccessKind::Write, TxnToken(2), &mut outs);
        assert_eq!(outcome, Some(AccessOutcome::Miss));
        let Some(ProtoOut::Send {
            from: f2,
            to: t2,
            msg: m2,
        }) = outs.pop()
        else {
            panic!()
        };
        p.handle_into(t2, f2, m2, &mut outs);
        let recall = outs
            .drain(..)
            .find_map(|o| match o {
                ProtoOut::Send {
                    msg: m @ ProtoMsg::Recall { .. },
                    from,
                    to,
                } => Some((from, to, m)),
                _ => None,
            })
            .expect("recall sent to node 1");
        assert_eq!(recall.1, 1);
        // Recall arrives first: deferred.
        p.handle_into(recall.1, recall.0, recall.2, &mut outs);
        assert!(
            outs.is_empty(),
            "recall must be deferred behind the in-flight grant"
        );
        assert_eq!(p.stats().deferred, 1);
        // Grant arrives: fill, then the deferred recall replays, giving the
        // line to node 2.
        p.handle_into(grant.1, grant.0, grant.2, &mut outs);
        let ProtoOut::Granted {
            node,
            line: l,
            exclusive,
            ..
        } = outs[0]
        else {
            panic!()
        };
        outs.clear();
        p.fill_cache_into(node, l, exclusive, &mut outs);
        // Drive everything to quiescence.
        let grants = settle(&mut p, outs, false);
        assert!(
            grants.iter().any(|&(n, _, ex)| n == 2 && ex),
            "node 2 eventually owns the line"
        );
        let (m, holders) = p.directory_view(line);
        assert!(m && holders == vec![2]);
        p.check_invariants([line].into_iter());
    }

    #[test]
    fn queued_requests_drain_in_order() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        write(&mut p, 1, line); // node 1 owns
                                // Two readers race; first triggers a Fetch (busy), second queues.
        let mut all = Vec::new();
        for (node, token) in [(2, TxnToken(2)), (3, TxnToken(3))] {
            let outcome = start_into(&mut p, node, line, AccessKind::Read, token, &mut all);
            assert_eq!(outcome, Some(AccessOutcome::Miss));
        }
        let grants = settle(&mut p, all, false);
        let readers: Vec<usize> = grants.iter().filter(|g| !g.2).map(|g| g.0).collect();
        assert!(
            readers.contains(&2) && readers.contains(&3),
            "both readers served: {grants:?}"
        );
        let (m, holders) = p.directory_view(line);
        assert!(!m);
        assert!(holders.contains(&2) && holders.contains(&3));
        p.check_invariants([line].into_iter());
    }

    /// Starts a read miss at `node` and delivers it into the prefetch
    /// buffer instead of the cache.
    fn prefetch_read(p: &mut Protocol, node: usize, line: LineId, token: TxnToken) {
        let (outcome, outs) = start(p, node, line, AccessKind::Read, token);
        assert_eq!(outcome, Some(AccessOutcome::Miss));
        settle(p, outs, true);
    }

    #[test]
    fn prefetch_then_demand_hit() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(1);
        prefetch_read(&mut p, 0, line, TxnToken(7));
        assert!(p.is_local(0, line));
        // Demand read promotes from the buffer without a transaction.
        assert_eq!(
            start(&mut p, 0, line, AccessKind::Read, TxnToken(8)).0,
            Some(AccessOutcome::PrefetchHit)
        );
        assert_eq!(p.prefetch_stats(0).0, 1);
        p.check_invariants([line].into_iter());
    }

    #[test]
    fn read_prefetch_cannot_satisfy_write() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(1);
        prefetch_read(&mut p, 0, line, TxnToken(7));
        // A write must still upgrade.
        let (outcome, outs) = start(&mut p, 0, line, AccessKind::Write, TxnToken(9));
        assert_eq!(outcome, Some(AccessOutcome::Miss), "expected upgrade miss");
        assert!(matches!(
            outs.last(),
            Some(ProtoOut::Send {
                msg: ProtoMsg::WriteReq { .. },
                ..
            })
        ));
        settle(&mut p, outs, false);
        let (m, holders) = p.directory_view(line);
        assert!(m && holders == vec![0]);
    }

    #[test]
    fn invalidation_clears_prefetch_buffer() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        prefetch_read(&mut p, 1, line, TxnToken(1));
        assert!(p.is_local(1, line));
        write(&mut p, 2, line);
        assert!(
            !p.is_local(1, line),
            "invalidation must clear the prefetch buffer"
        );
        p.check_invariants([line].into_iter());
    }

    #[test]
    fn message_sizes_match_alewife_packets() {
        let l = LineId(0);
        assert_eq!(
            ProtoMsg::ReadReq {
                line: l,
                token: TxnToken(0)
            }
            .bytes(),
            8
        );
        assert_eq!(
            ProtoMsg::Grant {
                line: l,
                exclusive: false,
                token: TxnToken(0)
            }
            .bytes(),
            24
        );
        assert_eq!(ProtoMsg::WbData { line: l }.bytes(), 24);
        assert_eq!(ProtoMsg::Inv { line: l }.class(), MsgClass::Invalidate);
        assert_eq!(ProtoMsg::Fetch { line: l }.class(), MsgClass::Request);
        assert_eq!(ProtoMsg::Writeback { line: l }.class(), MsgClass::Data);
    }

    #[test]
    fn fault_injection_leaves_stale_sharer_the_checker_detects() {
        let (mut p, h) = proto(4, 4);
        let line = h.line(0);
        read(&mut p, 1, line);
        read(&mut p, 2, line);
        assert!(p.verify_line(line).is_ok());
        // Drop exactly one invalidation: the victim acks but keeps its copy.
        p.fault_ignore_next_invalidation();
        write(&mut p, 3, line);
        let err = p
            .verify_line(line)
            .expect_err("stale sharer must be caught");
        assert!(err.contains("Shared copies") || err.contains("untracked sharer"));
    }

    #[test]
    fn stress_random_accesses_keep_invariants() {
        use commsense_des::Rng;
        let mut heap = Heap::new(8);
        let h = heap.alloc(16, |i| i % 8);
        let mut p = Protocol::new(
            heap,
            ProtoConfig {
                cache_lines: 8,
                ..ProtoConfig::default()
            },
        );
        let mut rng = Rng::new(1234);
        for step in 0..2000 {
            let node = rng.index(8);
            let line = h.line(rng.index(16));
            let kind = match rng.index(3) {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Rmw,
            };
            let (outcome, outs) = start(&mut p, node, line, kind, TxnToken(step));
            if outcome.is_some() {
                settle(&mut p, outs, false);
            }
            if step % 100 == 0 {
                p.check_invariants((0..16).map(|i| h.line(i)));
            }
        }
        p.check_invariants((0..16).map(|i| h.line(i)));
    }
}
