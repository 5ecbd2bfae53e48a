//! The per-node cache: direct-mapped by default (Alewife), optionally
//! set-associative for ablation studies.

use crate::addr::LineId;

/// Coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Valid, read-only, possibly one of several copies.
    Shared,
    /// Valid, writable, the only copy; memory is stale.
    Modified,
}

#[derive(Debug, Clone, Copy)]
struct WayEntry {
    line: LineId,
    state: LineState,
    /// LRU timestamp (monotonic access counter).
    used: u64,
}

/// An n-way set-associative cache of 16-byte lines with LRU replacement.
///
/// Alewife nodes have 64 KB direct-mapped caches with 16-byte lines, i.e.
/// 4096 lines and one way. A fill that conflicts with a full set evicts
/// the least recently used resident; the caller is responsible for writing
/// back `Modified` victims.
///
/// # Examples
///
/// ```
/// use commsense_cache::{Cache, LineId, LineState};
///
/// let mut c = Cache::new(4096); // direct-mapped
/// assert_eq!(c.lookup(LineId(7)), None);
/// let evicted = c.fill(LineId(7), LineState::Shared);
/// assert_eq!(evicted, None);
/// assert_eq!(c.lookup(LineId(7)), Some(LineState::Shared));
/// // A conflicting line (same set) evicts the old one.
/// let evicted = c.fill(LineId(7 + 4096), LineState::Modified);
/// assert_eq!(evicted, Some((LineId(7), LineState::Shared)));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Set-major flattened slot array (`nsets * ways` entries). One flat
    /// allocation instead of a `Vec` per set: a direct-mapped access
    /// touches exactly one cache line of this array, with no pointer
    /// chase through per-set heap buffers.
    slots: Vec<Option<WayEntry>>,
    nsets: usize,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a direct-mapped cache with `lines` sets (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or not a power of two.
    pub fn new(lines: usize) -> Self {
        Cache::set_associative(lines, 1)
    }

    /// Creates an n-way set-associative cache holding `lines` lines total.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a power of two, `ways` is zero, or `ways`
    /// does not divide `lines` into a power-of-two set count.
    pub fn set_associative(lines: usize, ways: usize) -> Self {
        assert!(lines.is_power_of_two(), "cache size must be a power of two");
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "ways must divide capacity"
        );
        let nsets = lines / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Cache {
            slots: vec![None; nsets * ways],
            nsets,
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The Alewife configuration: 64 KB / 16 B = 4096 lines, direct-mapped.
    pub fn alewife() -> Self {
        Cache::new(4096)
    }

    /// Number of ways (1 = direct-mapped).
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_of(&self, line: LineId) -> usize {
        (line.0 as usize) & (self.nsets - 1)
    }

    fn set_slice(&self, line: LineId) -> &[Option<WayEntry>] {
        let set = self.set_of(line);
        &self.slots[set * self.ways..(set + 1) * self.ways]
    }

    fn set_slice_mut(&mut self, line: LineId) -> &mut [Option<WayEntry>] {
        let set = self.set_of(line);
        let ways = self.ways;
        &mut self.slots[set * ways..(set + 1) * ways]
    }

    /// Returns the line's state if resident, recording a hit or miss (and
    /// refreshing LRU on hit).
    pub fn access(&mut self, line: LineId) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let mut state = None;
        for e in self.set_slice_mut(line).iter_mut().flatten() {
            if e.line == line {
                e.used = tick;
                state = Some(e.state);
                break;
            }
        }
        match state {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        state
    }

    /// Records `n` further hits on a resident line in one step: the cache
    /// is left exactly as `n` calls to [`Cache::access`] would leave it
    /// (`n` more hits, the access counter `n` ticks on, and the line the
    /// most recently used of its set).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn touch_hits(&mut self, line: LineId, n: u64) {
        self.tick += n;
        let tick = self.tick;
        match self
            .set_slice_mut(line)
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            Some(e) => e.used = tick,
            None => panic!("touch_hits on non-resident line {line:?}"),
        }
        self.hits += n;
    }

    /// Returns the line's state if resident, without touching statistics
    /// or LRU.
    pub fn lookup(&self, line: LineId) -> Option<LineState> {
        self.set_slice(line)
            .iter()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| e.state)
    }

    /// Installs a line, returning the evicted victim if the set was full
    /// of other lines (LRU victim).
    pub fn fill(&mut self, line: LineId, state: LineState) -> Option<(LineId, LineState)> {
        self.tick += 1;
        let tick = self.tick;
        let entries = self.set_slice_mut(line);
        if let Some(e) = entries.iter_mut().flatten().find(|e| e.line == line) {
            e.state = state;
            e.used = tick;
            return None;
        }
        if let Some(slot) = entries.iter_mut().find(|s| s.is_none()) {
            *slot = Some(WayEntry {
                line,
                state,
                used: tick,
            });
            return None;
        }
        // Evict the LRU way (`used` values are unique, so the victim does
        // not depend on slot order).
        let victim_slot = entries
            .iter_mut()
            .min_by_key(|e| e.as_ref().expect("set is full").used)
            .expect("set is full");
        let victim = victim_slot.expect("set is full");
        *victim_slot = Some(WayEntry {
            line,
            state,
            used: tick,
        });
        Some((victim.line, victim.state))
    }

    /// Upgrades a resident line to `Modified`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn upgrade(&mut self, line: LineId) {
        match self
            .set_slice_mut(line)
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            Some(e) => e.state = LineState::Modified,
            None => panic!("upgrade of non-resident line {line:?}"),
        }
    }

    /// Drops a line if resident (invalidation), returning its previous
    /// state.
    pub fn invalidate(&mut self, line: LineId) -> Option<LineState> {
        self.set_slice_mut(line)
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|e| e.line == line))?
            .take()
            .map(|e| e.state)
    }

    /// Downgrades a resident `Modified` line to `Shared`, returning whether
    /// it was resident and modified.
    pub fn downgrade(&mut self, line: LineId) -> bool {
        match self
            .set_slice_mut(line)
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            Some(e) if e.state == LineState::Modified => {
                e.state = LineState::Shared;
                true
            }
            _ => false,
        }
    }

    /// (hits, misses) recorded by [`Cache::access`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = Cache::new(16);
        assert_eq!(c.access(LineId(1)), None);
        c.fill(LineId(1), LineState::Shared);
        assert_eq!(c.access(LineId(1)), Some(LineState::Shared));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(16);
        c.fill(LineId(3), LineState::Modified);
        // Same set: 3 + 16.
        let victim = c.fill(LineId(19), LineState::Shared);
        assert_eq!(victim, Some((LineId(3), LineState::Modified)));
        assert_eq!(c.lookup(LineId(3)), None);
        assert_eq!(c.lookup(LineId(19)), Some(LineState::Shared));
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut c = Cache::new(16);
        c.fill(LineId(5), LineState::Shared);
        assert_eq!(c.fill(LineId(5), LineState::Modified), None);
        assert_eq!(c.lookup(LineId(5)), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::new(16);
        c.fill(LineId(2), LineState::Shared);
        assert_eq!(c.invalidate(LineId(2)), Some(LineState::Shared));
        assert_eq!(c.invalidate(LineId(2)), None);
    }

    #[test]
    fn downgrade_only_affects_modified() {
        let mut c = Cache::new(16);
        c.fill(LineId(2), LineState::Modified);
        assert!(c.downgrade(LineId(2)));
        assert_eq!(c.lookup(LineId(2)), Some(LineState::Shared));
        assert!(!c.downgrade(LineId(2)));
    }

    #[test]
    fn upgrade_in_place() {
        let mut c = Cache::new(16);
        c.fill(LineId(9), LineState::Shared);
        c.upgrade(LineId(9));
        assert_eq!(c.lookup(LineId(9)), Some(LineState::Modified));
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn upgrade_missing_panics() {
        let mut c = Cache::new(16);
        c.upgrade(LineId(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Cache::new(10);
    }

    #[test]
    fn two_way_avoids_direct_conflict() {
        let mut c = Cache::set_associative(16, 2); // 8 sets x 2 ways
        c.fill(LineId(3), LineState::Shared);
        // 3 + 8 maps to the same set but fits in the second way.
        assert_eq!(c.fill(LineId(11), LineState::Shared), None);
        assert_eq!(c.lookup(LineId(3)), Some(LineState::Shared));
        assert_eq!(c.lookup(LineId(11)), Some(LineState::Shared));
        // A third conflicting line evicts the LRU (LineId(3)).
        let victim = c.fill(LineId(19), LineState::Shared);
        assert_eq!(victim, Some((LineId(3), LineState::Shared)));
    }

    #[test]
    fn lru_respects_access_recency() {
        let mut c = Cache::set_associative(16, 2);
        c.fill(LineId(3), LineState::Shared);
        c.fill(LineId(11), LineState::Shared);
        // Touch 3 so 11 becomes LRU.
        assert!(c.access(LineId(3)).is_some());
        let victim = c.fill(LineId(19), LineState::Shared);
        assert_eq!(victim, Some((LineId(11), LineState::Shared)));
    }

    #[test]
    fn touch_hits_equals_repeated_access() {
        // Four ways: the touched line is one of four residents, and a
        // later fill must evict the same LRU victim either way.
        let setup = || {
            let mut c = Cache::set_associative(16, 4); // 4 sets x 4 ways
            for l in [1, 5, 9, 13] {
                c.fill(LineId(l), LineState::Shared);
            }
            c.access(LineId(9));
            c
        };
        let (mut bulk, mut stepped) = (setup(), setup());
        bulk.touch_hits(LineId(1), 7);
        for _ in 0..7 {
            assert!(stepped.access(LineId(1)).is_some());
        }
        assert_eq!(bulk.hit_miss(), stepped.hit_miss());
        assert_eq!(bulk.hit_miss(), (8, 0));
        for l in [17, 21, 25] {
            assert_eq!(
                bulk.fill(LineId(l), LineState::Shared),
                stepped.fill(LineId(l), LineState::Shared)
            );
        }
        // Lines 5, 13 and 9 went first; the touched line is still resident.
        assert_eq!(bulk.lookup(LineId(1)), Some(LineState::Shared));
        assert_eq!(
            bulk.fill(LineId(29), LineState::Shared),
            stepped.fill(LineId(29), LineState::Shared)
        );
        assert_eq!(bulk.lookup(LineId(1)), None);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn touch_hits_missing_panics() {
        Cache::new(16).touch_hits(LineId(1), 2);
    }

    #[test]
    fn ways_accessor() {
        assert_eq!(Cache::new(16).ways(), 1);
        assert_eq!(Cache::set_associative(16, 4).ways(), 4);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_ways_rejected() {
        let _ = Cache::set_associative(16, 3);
    }
}
