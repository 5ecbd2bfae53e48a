//! The MOLDYN molecular-dynamics workload and the RCB partitioner.
//!
//! Molecules are uniformly distributed over a cuboidal region with a
//! Maxwellian velocity distribution. A pair list of potentially interacting
//! molecules (within twice the cutoff radius) is rebuilt periodically; the
//! partition comes from recursive coordinate bisection (RCB), following
//! Berger & Bokhari. The high computation-to-communication ratio of the
//! force loop is what masks mechanism differences for this application
//! (§4.4.3).

use commsense_des::Rng;

/// MOLDYN parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MoldynParams {
    /// Number of molecules.
    pub molecules: usize,
    /// Cuboid edge length.
    pub box_size: f64,
    /// Interaction cutoff radius.
    pub cutoff: f64,
    /// Simulation iterations.
    pub iterations: usize,
    /// Pair list rebuild period (paper: every 20 iterations).
    pub rebuild_every: usize,
    /// Generator seed.
    pub seed: u64,
}

impl MoldynParams {
    /// A paper-flavoured configuration scaled to simulator size. The
    /// cutoff is well below the RCB partition size, so most interactions
    /// stay within a partition — the locality that lets MOLDYN's
    /// shared-memory locks see little contention (§4.4.3).
    pub fn paper() -> Self {
        MoldynParams {
            molecules: 2048,
            box_size: 20.0,
            cutoff: 1.2,
            iterations: 10,
            rebuild_every: 20,
            seed: 0x01d,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn small() -> Self {
        MoldynParams {
            molecules: 256,
            box_size: 10.0,
            cutoff: 1.0,
            iterations: 2,
            rebuild_every: 20,
            seed: 0x01d,
        }
    }
}

/// Recursive coordinate bisection: partitions `points` into `parts`
/// spatially compact groups of near-equal size.
///
/// # Panics
///
/// Panics if `parts == 0` or `points` is empty.
///
/// # Examples
///
/// ```
/// use commsense_workloads::moldyn::rcb_partition;
///
/// let pts: Vec<[f64; 3]> = (0..64).map(|i| [i as f64, 0.0, 0.0]).collect();
/// let owners = rcb_partition(&pts, 4);
/// // Contiguous quarters of the line.
/// assert_eq!(owners[0], owners[15]);
/// assert_ne!(owners[0], owners[16]);
/// ```
pub fn rcb_partition(points: &[[f64; 3]], parts: usize) -> Vec<u16> {
    assert!(
        parts > 0 && !points.is_empty(),
        "rcb needs points and parts"
    );
    let mut owner = vec![0u16; points.len()];
    let idx: Vec<usize> = (0..points.len()).collect();
    rcb_rec(points, idx, 0, parts, &mut owner);
    owner
}

fn rcb_rec(points: &[[f64; 3]], mut idx: Vec<usize>, base: usize, parts: usize, owner: &mut [u16]) {
    if parts == 1 {
        for i in idx {
            owner[i] = base as u16;
        }
        return;
    }
    // Split along the widest dimension.
    let mut spans = [(0usize, 0.0f64); 3];
    for (d, span) in spans.iter_mut().enumerate() {
        let lo = idx
            .iter()
            .map(|&i| points[i][d])
            .fold(f64::INFINITY, f64::min);
        let hi = idx
            .iter()
            .map(|&i| points[i][d])
            .fold(f64::NEG_INFINITY, f64::max);
        *span = (d, hi - lo);
    }
    let dim = spans
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("3 dims")
        .0;
    idx.sort_by(|&a, &b| points[a][dim].total_cmp(&points[b][dim]).then(a.cmp(&b)));
    let left_parts = parts / 2;
    let split = idx.len() * left_parts / parts;
    let right = idx.split_off(split);
    rcb_rec(points, idx, base, left_parts, owner);
    rcb_rec(points, right, base + left_parts, parts - left_parts, owner);
}

/// A generated MOLDYN system.
#[derive(Debug, Clone)]
pub struct MoldynSystem {
    /// Parameters used.
    pub params: MoldynParams,
    /// Processor count it was partitioned for.
    pub nprocs: usize,
    /// Molecule positions.
    pub pos: Vec<[f64; 3]>,
    /// Molecule velocities (Maxwellian).
    pub vel: Vec<[f64; 3]>,
    /// Owning processor per molecule (RCB).
    pub owner: Vec<u16>,
    /// Interaction pair list (i < j, within twice the cutoff).
    pub pairs: Vec<(u32, u32)>,
}

impl MoldynSystem {
    /// Generates a system partitioned over `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer molecules than processors.
    pub fn generate(params: &MoldynParams, nprocs: usize) -> Self {
        assert!(
            params.molecules >= nprocs,
            "need at least one molecule per processor"
        );
        let mut rng = Rng::new(params.seed);
        let n = params.molecules;
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.f64() * params.box_size,
                    rng.f64() * params.box_size,
                    rng.f64() * params.box_size,
                ]
            })
            .collect();
        let vel: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.normal() * 0.1, rng.normal() * 0.1, rng.normal() * 0.1])
            .collect();
        let owner = rcb_partition(&pos, nprocs);
        let pairs = build_pairs(&pos, 2.0 * params.cutoff);
        MoldynSystem {
            params: params.clone(),
            nprocs,
            pos,
            vel,
            owner,
            pairs,
        }
    }

    /// Molecule count.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Molecules owned by processor `p`.
    pub fn molecules_of(&self, p: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.owner[i] as usize == p)
            .collect()
    }

    /// Fraction of pairs crossing processors.
    pub fn cut_fraction(&self) -> f64 {
        let cut = self
            .pairs
            .iter()
            .filter(|&&(i, j)| self.owner[i as usize] != self.owner[j as usize])
            .count();
        cut as f64 / self.pairs.len().max(1) as f64
    }

    /// The pairwise force kernel: a short-range soft-sphere interaction on
    /// the x-displacement surrogate (stands in for the Lennard-Jones
    /// computation; ~dozens of FLOPs on the real code).
    pub fn pair_force(&self, k: usize, coords: &[f64]) -> f64 {
        let (i, j) = self.pairs[k];
        let d = coords[i as usize] - coords[j as usize];
        let r2 = self.params.cutoff * self.params.cutoff;
        d * (r2 - (d * d).min(r2)) * 1e-3
    }

    /// One sequential iteration over the surrogate 1-D coordinates:
    /// accumulate pair forces, then integrate.
    pub fn iterate(&self, coords: &mut [f64]) {
        let old = coords.to_vec();
        let mut force = vec![0.0; self.len()];
        for k in 0..self.pairs.len() {
            let f = self.pair_force(k, &old);
            let (i, j) = self.pairs[k];
            force[i as usize] += f;
            force[j as usize] -= f;
        }
        for i in 0..self.len() {
            coords[i] = old[i] + force[i];
        }
    }

    /// Initial surrogate coordinates (the x coordinate of each molecule).
    pub fn init_coords(&self) -> Vec<f64> {
        self.pos.iter().map(|p| p[0]).collect()
    }

    /// The sequential reference: surrogate coordinates after all
    /// iterations (the pair list is fixed between rebuilds; with
    /// `iterations <= rebuild_every` a single list is exact).
    pub fn reference(&self) -> Vec<f64> {
        let mut coords = self.init_coords();
        for _ in 0..self.params.iterations {
            self.iterate(&mut coords);
        }
        coords
    }
}

/// Builds the pair list: all `(i, j)` with `i < j` within `radius`.
pub fn build_pairs(pos: &[[f64; 3]], radius: f64) -> Vec<(u32, u32)> {
    // Cell-list construction: O(n) for uniform densities.
    let r2 = radius * radius;
    let cell = radius.max(1e-9);
    let key = |p: &[f64; 3]| {
        (
            (p[0] / cell).floor() as i64,
            (p[1] / cell).floor() as i64,
            (p[2] / cell).floor() as i64,
        )
    };
    let mut cells: std::collections::BTreeMap<(i64, i64, i64), Vec<u32>> =
        std::collections::BTreeMap::new();
    for (i, p) in pos.iter().enumerate() {
        cells.entry(key(p)).or_default().push(i as u32);
    }
    let mut pairs = Vec::new();
    for (&(cx, cy, cz), members) in &cells {
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    let Some(other) = cells.get(&(cx + dx, cy + dy, cz + dz)) else {
                        continue;
                    };
                    for &i in members {
                        for &j in other {
                            if i < j {
                                let (a, b) = (&pos[i as usize], &pos[j as usize]);
                                let d2 = (a[0] - b[0]).powi(2)
                                    + (a[1] - b[1]).powi(2)
                                    + (a[2] - b[2]).powi(2);
                                if d2 <= r2 {
                                    pairs.push((i, j));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let p = MoldynParams::small();
        let a = MoldynSystem::generate(&p, 8);
        let b = MoldynSystem::generate(&p, 8);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.owner, b.owner);
    }

    #[test]
    fn rcb_is_balanced() {
        let s = MoldynSystem::generate(&MoldynParams::paper(), 32);
        let counts: Vec<usize> = (0..32).map(|p| s.molecules_of(p).len()).collect();
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max - min <= 1 + s.len() / 32, "imbalanced {counts:?}");
    }

    #[test]
    fn rcb_handles_non_power_of_two() {
        let pts: Vec<[f64; 3]> = (0..90)
            .map(|i| [i as f64, (i * 7 % 13) as f64, 0.0])
            .collect();
        let owners = rcb_partition(&pts, 6);
        let mut counts = vec![0; 6];
        for &o in &owners {
            counts[o as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 15), "{counts:?}");
    }

    #[test]
    fn rcb_partitions_are_spatially_compact() {
        let s = MoldynSystem::generate(&MoldynParams::paper(), 32);
        // RCB keeps a clear majority of pair volume near the diagonal
        // compared to a random partition (which would cut ~31/32 = 97%).
        let f = s.cut_fraction();
        assert!(f < 0.7, "cut fraction {f}");
        assert!(f > 0.0, "some pairs must cross");
    }

    #[test]
    fn pairs_respect_radius() {
        let s = MoldynSystem::generate(&MoldynParams::small(), 4);
        let r = 2.0 * s.params.cutoff;
        for &(i, j) in &s.pairs {
            assert!(i < j);
            let (a, b) = (&s.pos[i as usize], &s.pos[j as usize]);
            let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
            assert!(d2 <= r * r + 1e-12);
        }
    }

    #[test]
    fn pair_list_matches_brute_force() {
        let p = MoldynParams::small();
        let s = MoldynSystem::generate(&p, 4);
        let r = 2.0 * p.cutoff;
        let mut brute = Vec::new();
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                let (a, b) = (&s.pos[i], &s.pos[j]);
                let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
                if d2 <= r * r {
                    brute.push((i as u32, j as u32));
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(s.pairs, brute);
    }

    #[test]
    fn iterate_conserves_total_coordinate() {
        let s = MoldynSystem::generate(&MoldynParams::small(), 4);
        let before: f64 = s.init_coords().iter().sum();
        let after: f64 = s.reference().iter().sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn velocities_are_roughly_maxwellian() {
        let s = MoldynSystem::generate(&MoldynParams::paper(), 4);
        let mean: f64 = s.vel.iter().map(|v| v[0]).sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < 0.02, "velocity mean {mean}");
    }
}
