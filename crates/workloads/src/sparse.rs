//! The ICCG sparse lower-triangular system and its dataflow schedule.
//!
//! The paper measures the sparse triangular solve kernel of an incomplete-
//! Cholesky-preconditioned conjugate gradient solver on BCSSTK32, a
//! 2-million-element structural matrix from the Harwell–Boeing suite. We
//! do not have that dataset, so this module generates a synthetic
//! banded-plus-fill unit lower-triangular system with a controllable DAG
//! level structure: what drives ICCG's communication behavior is the level
//! schedule (how much parallelism each wavefront has) and the cross-
//! processor edge fraction, both of which the generator exposes.
//!
//! Each graph node performs a 2-FLOP computation per incoming edge
//! (multiply and subtract), then communicates along its outgoing edges —
//! a dataflow computation in the paper's terms.

use commsense_des::Rng;

/// ICCG system parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IccgParams {
    /// Matrix rows (DAG nodes).
    pub rows: usize,
    /// Average strict-lower-triangle nonzeros per row (incoming edges).
    pub avg_band: usize,
    /// Fraction of off-diagonal entries drawn far from the diagonal
    /// (creates irregular long-range dependencies).
    pub far_fraction: f64,
    /// Rows per partition chunk: chunks are dealt round-robin to
    /// processors, so most in-band dependencies stay within a chunk or its
    /// predecessor (the paper notes ICCG's ratio of *remote* data is low
    /// even though the message count is large).
    pub chunk_rows: usize,
    /// Generator seed.
    pub seed: u64,
}

impl IccgParams {
    /// A BCSSTK32-flavoured configuration scaled to simulator size.
    pub fn paper() -> Self {
        IccgParams {
            rows: 6000,
            avg_band: 8,
            far_fraction: 0.08,
            chunk_rows: 64,
            seed: 0x1cc6,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn small() -> Self {
        IccgParams {
            rows: 400,
            avg_band: 4,
            far_fraction: 0.08,
            chunk_rows: 16,
            seed: 0x1cc6,
        }
    }
}

/// A unit lower-triangular system `L y = b` with its dataflow structure.
#[derive(Debug, Clone)]
pub struct IccgSystem {
    /// Parameters used.
    pub params: IccgParams,
    /// Processor count it was partitioned for.
    pub nprocs: usize,
    /// CSR row pointers into `cols`/`vals` (strict lower triangle).
    pub rowptr: Vec<u32>,
    /// Column indices of incoming edges (j < i for row i).
    pub cols: Vec<u32>,
    /// Values `L[i][j]` parallel to `cols`.
    pub vals: Vec<f64>,
    /// Outgoing edges per row: the rows that consume this row's solution.
    pub out_edges: Vec<Vec<u32>>,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Owning processor per row.
    pub owner: Vec<u16>,
    /// Dataflow level of each row (0 = no dependencies).
    pub level: Vec<u32>,
}

impl IccgSystem {
    /// Generates a system partitioned over `nprocs` processors.
    ///
    /// Rows are dealt to processors in contiguous chunks, keeping most
    /// banded dependencies local while the wavefront pipelines across
    /// processors — still "one of the most challenging applications in
    /// the literature" (§4.3): the message count stays high even though
    /// the remote-data ratio is low.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2`.
    pub fn generate(params: &IccgParams, nprocs: usize) -> Self {
        assert!(params.rows >= 2, "need at least two rows");
        let n = params.rows;
        let mut rng = Rng::new(params.seed);

        let mut rowptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        rowptr.push(0u32);
        for i in 0..n {
            let max_in = i.min(params.avg_band * 2);
            let nnz = if max_in == 0 {
                0
            } else {
                1 + rng.index(max_in.min(params.avg_band * 2 - 1).max(1))
            };
            let mut row = std::collections::BTreeSet::new();
            for _ in 0..nnz {
                let j = if rng.chance(params.far_fraction) {
                    rng.index(i)
                } else {
                    // Near the diagonal: within 2*band below i (structural
                    // finite-element matrices are strongly banded).
                    let w = (params.avg_band * 2).min(i);
                    i - 1 - rng.index(w.max(1)).min(i - 1)
                };
                row.insert(j as u32);
            }
            let nnz_row = row.len().max(1) as f64;
            for j in row {
                cols.push(j);
                // Scaled so |y| stays bounded through deep DAGs.
                vals.push((0.1 + 0.4 * rng.f64()) / nnz_row);
            }
            rowptr.push(cols.len() as u32);
        }

        // Levelization: level(i) = 1 + max level of predecessors.
        let mut level = vec![0u32; n];
        for i in 0..n {
            let (lo, hi) = (rowptr[i] as usize, rowptr[i + 1] as usize);
            let lvl = cols[lo..hi]
                .iter()
                .map(|&j| level[j as usize] + 1)
                .max()
                .unwrap_or(0);
            level[i] = lvl;
        }

        // Chunked round-robin partition: contiguous chunks of rows dealt
        // to processors in order, keeping in-band dependencies mostly
        // local while pipelining the wavefront across processors.
        let chunk = params.chunk_rows.max(1);
        let owner: Vec<u16> = (0..n).map(|i| ((i / chunk) % nprocs) as u16).collect();

        // Outgoing edge lists (CSC of the strict lower triangle).
        let mut out_edges = vec![Vec::new(); n];
        for i in 0..n {
            let (lo, hi) = (rowptr[i] as usize, rowptr[i + 1] as usize);
            for &j in &cols[lo..hi] {
                out_edges[j as usize].push(i as u32);
            }
        }

        let b: Vec<f64> = (0..n).map(|_| rng.f64() * 2.0 - 1.0).collect();
        IccgSystem {
            params: params.clone(),
            nprocs,
            rowptr,
            cols,
            vals,
            out_edges,
            b,
            owner,
            level,
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Nonzero count of the strict lower triangle.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Rows owned by processor `p`, in row order.
    pub fn rows_of(&self, p: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.owner[i] as usize == p)
            .collect()
    }

    /// Incoming edge count of row `i`.
    pub fn in_degree(&self, i: usize) -> usize {
        (self.rowptr[i + 1] - self.rowptr[i]) as usize
    }

    /// Incoming `(col, val)` pairs of row `i`.
    pub fn in_edges(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (self.rowptr[i] as usize, self.rowptr[i + 1] as usize);
        self.cols[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Fraction of edges whose endpoints live on different processors.
    pub fn cut_fraction(&self) -> f64 {
        let mut cut = 0usize;
        for i in 0..self.len() {
            for (j, _) in self.in_edges(i) {
                if self.owner[i] != self.owner[j as usize] {
                    cut += 1;
                }
            }
        }
        cut as f64 / self.nnz().max(1) as f64
    }

    /// The sequential reference: solves `L y = b` by forward substitution
    /// (unit diagonal): `y[i] = b[i] - sum_j L[i][j] * y[j]`.
    pub fn reference(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        for i in 0..self.len() {
            let mut acc = self.b[i];
            for (j, v) in self.in_edges(i) {
                acc -= v * y[j as usize];
            }
            y[i] = acc;
        }
        y
    }
}

/// Error parsing a MatrixMarket file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseMatrixError {
    /// The header line is missing or not a coordinate real matrix.
    BadHeader,
    /// The size line is missing or malformed.
    BadSize,
    /// An entry line is malformed or out of bounds (1-based line number).
    BadEntry(usize),
}

impl std::fmt::Display for ParseMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseMatrixError::BadHeader => {
                write!(f, "expected a MatrixMarket coordinate real matrix header")
            }
            ParseMatrixError::BadSize => write!(f, "missing or malformed size line"),
            ParseMatrixError::BadEntry(line) => {
                write!(f, "malformed or out-of-bounds entry at line {line}")
            }
        }
    }
}

impl std::error::Error for ParseMatrixError {}

/// A parsed coordinate matrix: `(rows, cols, entries)` with 0-based
/// `(row, col, value)` entries.
pub type ParsedMatrix = (usize, usize, Vec<(u32, u32, f64)>);

/// Parses a MatrixMarket *coordinate real* matrix (`general` or
/// `symmetric`), returning `(rows, cols, entries)` with 0-based indices.
///
/// This is the format the Harwell–Boeing suite (the source of the paper's
/// BCSSTK32 input) is commonly distributed in today.
///
/// # Errors
///
/// Returns [`ParseMatrixError`] for non-coordinate/non-real headers,
/// malformed size or entry lines, or out-of-bounds indices.
///
/// # Examples
///
/// ```
/// use commsense_workloads::sparse::parse_matrix_market;
///
/// let text = "%%MatrixMarket matrix coordinate real symmetric\n\
///             % a 3x3 stiffness-like matrix\n\
///             3 3 4\n\
///             1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n";
/// let (rows, cols, entries) = parse_matrix_market(text)?;
/// assert_eq!((rows, cols), (3, 3));
/// assert_eq!(entries.len(), 4);
/// assert_eq!(entries[1], (1, 0, -1.0));
/// # Ok::<(), commsense_workloads::sparse::ParseMatrixError>(())
/// ```
pub fn parse_matrix_market(text: &str) -> Result<ParsedMatrix, ParseMatrixError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseMatrixError::BadHeader)?;
    let h = header.to_ascii_lowercase();
    if !h.starts_with("%%matrixmarket")
        || !h.contains("coordinate")
        || !(h.contains("real") || h.contains("integer"))
    {
        return Err(ParseMatrixError::BadHeader);
    }
    // Skip comments.
    let mut size_line = None;
    for (i, l) in lines.by_ref() {
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some((i, t));
        break;
    }
    let (_, size) = size_line.ok_or(ParseMatrixError::BadSize)?;
    let mut it = size.split_whitespace();
    let rows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ParseMatrixError::BadSize)?;
    let cols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ParseMatrixError::BadSize)?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ParseMatrixError::BadSize)?;
    let mut entries = Vec::with_capacity(nnz);
    for (i, l) in lines {
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseMatrixError::BadEntry(i + 1))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseMatrixError::BadEntry(i + 1))?;
        let v: f64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseMatrixError::BadEntry(i + 1))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(ParseMatrixError::BadEntry(i + 1));
        }
        entries.push(((r - 1) as u32, (c - 1) as u32, v));
    }
    if entries.len() != nnz {
        return Err(ParseMatrixError::BadSize);
    }
    Ok((rows, cols, entries))
}

impl IccgSystem {
    /// Builds the triangular-solve kernel from a real matrix's entries
    /// (e.g. a parsed Harwell–Boeing matrix): the strict lower triangle
    /// becomes the dependency DAG, entries are magnitude-normalized per
    /// row so the substitution stays bounded (this kernel is a performance
    /// benchmark; see DESIGN.md), and rows are partitioned in chunks as in
    /// [`IccgSystem::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2` or `nprocs == 0`.
    pub fn from_entries(
        rows: usize,
        entries: &[(u32, u32, f64)],
        nprocs: usize,
        chunk_rows: usize,
    ) -> Self {
        assert!(rows >= 2 && nprocs > 0, "degenerate system");
        let mut rng = Rng::new(0x1cc6);
        // Collect the strict lower triangle per row.
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in entries {
            let (hi, lo) = if r > c { (r, c) } else { (c, r) };
            if hi != lo {
                per_row[hi as usize].push((lo, v));
            }
        }
        let mut rowptr = Vec::with_capacity(rows + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        rowptr.push(0u32);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            let norm: f64 = row
                .iter()
                .map(|&(_, v)| v.abs())
                .fold(0.0, f64::max)
                .max(1e-12)
                * 2.0
                * row.len().max(1) as f64;
            for &(c, v) in row.iter() {
                cols.push(c);
                vals.push(v / norm);
            }
            rowptr.push(cols.len() as u32);
        }
        let mut level = vec![0u32; rows];
        for i in 0..rows {
            let (lo, hi) = (rowptr[i] as usize, rowptr[i + 1] as usize);
            level[i] = cols[lo..hi]
                .iter()
                .map(|&j| level[j as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        let chunk = chunk_rows.max(1);
        let owner: Vec<u16> = (0..rows).map(|i| ((i / chunk) % nprocs) as u16).collect();
        let mut out_edges = vec![Vec::new(); rows];
        for i in 0..rows {
            let (lo, hi) = (rowptr[i] as usize, rowptr[i + 1] as usize);
            for &j in &cols[lo..hi] {
                out_edges[j as usize].push(i as u32);
            }
        }
        let b: Vec<f64> = (0..rows).map(|_| rng.f64() * 2.0 - 1.0).collect();
        IccgSystem {
            params: IccgParams {
                rows,
                avg_band: (cols.len() / rows.max(1)).max(1),
                far_fraction: 0.0,
                chunk_rows: chunk,
                seed: 0x1cc6,
            },
            nprocs,
            rowptr,
            cols,
            vals,
            out_edges,
            b,
            owner,
            level,
        }
    }
}

#[cfg(test)]
mod matrix_market_tests {
    use super::*;

    const SAMPLE: &str = "%%MatrixMarket matrix coordinate real symmetric\n\
        % small structural-style matrix\n\
        6 6 11\n\
        1 1 4.0\n2 2 4.0\n3 3 4.0\n4 4 4.0\n5 5 4.0\n6 6 4.0\n\
        2 1 -1.5\n3 2 -1.0\n4 3 -2.0\n5 4 -1.0\n6 4 -0.5\n";

    #[test]
    fn parses_sample() {
        let (r, c, e) = parse_matrix_market(SAMPLE).expect("valid");
        assert_eq!((r, c), (6, 6));
        assert_eq!(e.len(), 11);
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(
            parse_matrix_market("%%MatrixMarket matrix array real general\n1 1\n1.0\n"),
            Err(ParseMatrixError::BadHeader)
        );
        assert_eq!(parse_matrix_market(""), Err(ParseMatrixError::BadHeader));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let bad = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(
            parse_matrix_market(bad),
            Err(ParseMatrixError::BadEntry(_))
        ));
    }

    #[test]
    fn rejects_wrong_count() {
        let bad = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert_eq!(parse_matrix_market(bad), Err(ParseMatrixError::BadSize));
    }

    #[test]
    fn error_messages_are_meaningful() {
        assert!(ParseMatrixError::BadEntry(7).to_string().contains("line 7"));
        assert!(!ParseMatrixError::BadHeader.to_string().is_empty());
    }

    #[test]
    fn builds_a_solvable_system() {
        let (rows, _, entries) = parse_matrix_market(SAMPLE).expect("valid");
        let sys = IccgSystem::from_entries(rows, &entries, 4, 2);
        assert_eq!(sys.len(), 6);
        // Strictly lower, leveled, mirrored.
        for i in 0..sys.len() {
            for (j, _) in sys.in_edges(i) {
                assert!((j as usize) < i);
                assert!(sys.level[j as usize] < sys.level[i]);
            }
        }
        // Diagonal entries were dropped; 5 off-diagonals remain.
        assert_eq!(sys.nnz(), 5);
        // Forward substitution is exact.
        let y = sys.reference();
        for i in 0..sys.len() {
            let mut lhs = y[i];
            for (j, v) in sys.in_edges(i) {
                lhs += v * y[j as usize];
            }
            assert!((lhs - sys.b[i]).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let p = IccgParams::small();
        let a = IccgSystem::generate(&p, 8);
        let b = IccgSystem::generate(&p, 8);
        assert_eq!(a.cols, b.cols);
        assert_eq!(a.b, b.b);
    }

    #[test]
    fn strictly_lower_triangular() {
        let s = IccgSystem::generate(&IccgParams::small(), 8);
        for i in 0..s.len() {
            for (j, _) in s.in_edges(i) {
                assert!((j as usize) < i, "entry ({i},{j}) not strictly lower");
            }
        }
    }

    #[test]
    fn levels_form_topological_order() {
        let s = IccgSystem::generate(&IccgParams::small(), 8);
        for i in 0..s.len() {
            for (j, _) in s.in_edges(i) {
                assert!(s.level[j as usize] < s.level[i], "level order violated");
            }
        }
    }

    #[test]
    fn out_edges_mirror_in_edges() {
        let s = IccgSystem::generate(&IccgParams::small(), 8);
        let mut count = 0;
        for j in 0..s.len() {
            for &i in &s.out_edges[j] {
                count += 1;
                assert!(s.in_edges(i as usize).any(|(c, _)| c == j as u32));
            }
        }
        assert_eq!(count, s.nnz());
    }

    #[test]
    fn partition_is_balanced() {
        let s = IccgSystem::generate(&IccgParams::paper(), 32);
        let counts: Vec<usize> = (0..32).map(|p| s.rows_of(p).len()).collect();
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max - min <= s.len() / 32, "imbalanced {counts:?}");
    }

    #[test]
    fn cut_fraction_is_moderate_for_chunked_partition() {
        // The paper notes ICCG's ratio of remote data is low even though
        // it sends many messages: the banded structure keeps most
        // dependencies within a chunk, while far fill still crosses.
        let s = IccgSystem::generate(&IccgParams::paper(), 32);
        let f = s.cut_fraction();
        assert!(f > 0.05 && f < 0.5, "cut {f}");
    }

    #[test]
    fn reference_solves_the_system() {
        let s = IccgSystem::generate(&IccgParams::small(), 4);
        let y = s.reference();
        // Verify L y == b.
        for i in 0..s.len() {
            let mut lhs = y[i];
            for (j, v) in s.in_edges(i) {
                lhs += v * y[j as usize];
            }
            assert!((lhs - s.b[i]).abs() < 1e-9, "row {i}: {lhs} != {}", s.b[i]);
        }
    }

    #[test]
    fn first_row_has_no_dependencies() {
        let s = IccgSystem::generate(&IccgParams::small(), 4);
        assert_eq!(s.in_degree(0), 0);
        assert_eq!(s.level[0], 0);
    }
}
