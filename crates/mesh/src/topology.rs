//! Interconnect topologies and computed per-hop routing.
//!
//! [`Topo`] is the machine's interconnect: the Alewife 2-D mesh, or for
//! scaling studies a 2-D torus, a fat tree (CM-5 style), or a dragonfly.
//! Every shape provides *computed* routing — `route_hop(src, dst, hop)`
//! derives the hop'th link id arithmetically in O(1)-ish time — so no
//! per-pair state is needed and the machine scales to 1024 nodes without an
//! O(N²) route table. The precomputed [`RouteTable`] is retained purely as a
//! reference oracle for equivalence tests.

use crate::packet::Endpoint;

/// A router coordinate in the mesh: column `x`, row `y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouterCoord {
    /// Column (0 at the west edge).
    pub x: u16,
    /// Row (0 at the north edge).
    pub y: u16,
}

impl RouterCoord {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        RouterCoord { x, y }
    }
}

/// Direction of a unidirectional mesh channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDir {
    /// Increasing x.
    East,
    /// Decreasing x.
    West,
    /// Increasing y.
    South,
    /// Decreasing y.
    North,
}

/// A `width × height` 2-D mesh with dimension-order (X then Y) routing.
///
/// Compute node `i` sits at router `(i % width, i / width)` — the Alewife
/// arrangement for the 32-node machine is an 8×4 mesh. Unidirectional links
/// are identified by dense indices so the network simulator can keep per-link
/// state in a flat vector.
///
/// # Examples
///
/// ```
/// use commsense_mesh::Mesh;
///
/// let mesh = Mesh::new(8, 4);
/// assert_eq!(mesh.num_links(), 2 * (7 * 4 + 3 * 8));
/// assert_eq!(mesh.hops(0, 31), 7 + 3); // opposite corners
/// assert_eq!(mesh.bisection_channels(), 8); // 4 rows x 2 directions
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if `width < 2` (a bisection cut
    /// needs at least two columns), or if the node count exceeds
    /// [`Endpoint::MAX_NODES`].
    pub fn new(width: u16, height: u16) -> Self {
        assert!(
            width >= 2 && height >= 1,
            "mesh {width}x{height} is invalid: need width >= 2 and height >= 1 \
             (a bisection cut needs at least two columns)"
        );
        assert!(
            width as usize * height as usize <= Endpoint::MAX_NODES,
            "mesh {width}x{height} has {} nodes, more than the {} an Endpoint can address",
            width as usize * height as usize,
            Endpoint::MAX_NODES
        );
        Mesh { width, height }
    }

    /// Whether the true bisection is the vertical cut (between columns).
    ///
    /// The bisection of a mesh is its *minimum* equal-halves cut: the
    /// vertical cut crosses `2 * height` channels and the horizontal cut
    /// `2 * width`, so the vertical cut is the bisection exactly when
    /// `width >= height` (tall-narrow meshes are cut between rows).
    fn vertical_cut(&self) -> bool {
        self.width >= self.height
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of compute nodes (routers).
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total number of unidirectional links.
    pub fn num_links(&self) -> usize {
        let h_links = (self.width as usize - 1) * self.height as usize;
        let v_links = (self.height as usize).saturating_sub(1) * self.width as usize;
        2 * (h_links + v_links)
    }

    /// Coordinate of compute node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn coord(&self, id: usize) -> RouterCoord {
        assert!(id < self.num_nodes(), "node {id} out of range");
        RouterCoord::new(
            (id % self.width as usize) as u16,
            (id / self.width as usize) as u16,
        )
    }

    /// Node id at a coordinate.
    pub fn node_at(&self, c: RouterCoord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Dense id of the unidirectional link leaving `from` in direction `dir`.
    ///
    /// Layout: eastward links first (`(width-1) * height`), then westward,
    /// then southward (`width * (height-1)`), then northward.
    ///
    /// # Panics
    ///
    /// Panics if the link would leave the mesh.
    pub fn link_id(&self, from: RouterCoord, dir: RouteDir) -> usize {
        let w = self.width as usize;
        let h = self.height as usize;
        let x = from.x as usize;
        let y = from.y as usize;
        let h_count = (w - 1) * h;
        let v_count = w * h.saturating_sub(1);
        match dir {
            RouteDir::East => {
                assert!(x + 1 < w, "east link off mesh at {from:?}");
                y * (w - 1) + x
            }
            RouteDir::West => {
                assert!(x >= 1, "west link off mesh at {from:?}");
                h_count + y * (w - 1) + (x - 1)
            }
            RouteDir::South => {
                assert!(y + 1 < h, "south link off mesh at {from:?}");
                2 * h_count + y * w + x
            }
            RouteDir::North => {
                assert!(y >= 1, "north link off mesh at {from:?}");
                2 * h_count + v_count + (y - 1) * w + x
            }
        }
    }

    /// Inverts [`Mesh::link_id`]: the source coordinate and direction of a
    /// dense link id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link_endpoints(&self, id: usize) -> (RouterCoord, RouteDir) {
        assert!(id < self.num_links(), "link {id} out of range");
        let w = self.width as usize;
        let h = self.height as usize;
        let h_count = (w - 1) * h;
        let v_count = w * h.saturating_sub(1);
        if id < h_count {
            let (y, x) = (id / (w - 1), id % (w - 1));
            (RouterCoord::new(x as u16, y as u16), RouteDir::East)
        } else if id < 2 * h_count {
            let i = id - h_count;
            let (y, x) = (i / (w - 1), i % (w - 1));
            (RouterCoord::new((x + 1) as u16, y as u16), RouteDir::West)
        } else if id < 2 * h_count + v_count {
            let i = id - 2 * h_count;
            let (y, x) = (i / w, i % w);
            (RouterCoord::new(x as u16, y as u16), RouteDir::South)
        } else {
            let i = id - 2 * h_count - v_count;
            let (y, x) = (i / w, i % w);
            (RouterCoord::new(x as u16, (y + 1) as u16), RouteDir::North)
        }
    }

    /// A human-readable label for link `id`, e.g. `"E(2,1)"` for the
    /// eastward link leaving router `(2,1)`. Used for per-link tracks in
    /// trace exports and utilization tables.
    pub fn link_label(&self, id: usize) -> String {
        let (from, dir) = self.link_endpoints(id);
        let d = match dir {
            RouteDir::East => 'E',
            RouteDir::West => 'W',
            RouteDir::South => 'S',
            RouteDir::North => 'N',
        };
        format!("{d}({},{})", from.x, from.y)
    }

    /// Whether link `id` crosses the bisection cut.
    ///
    /// For wide meshes (`width >= height`, including Alewife's 8×4) the cut
    /// runs between columns `width/2 - 1` and `width/2`; for tall-narrow
    /// meshes the horizontal cut between rows `height/2 - 1` and `height/2`
    /// is the true (minimum) bisection, so that cut is used instead.
    pub fn crosses_bisection(&self, id: usize) -> bool {
        let w = self.width as usize;
        let h = self.height as usize;
        let h_count = (w - 1) * h;
        let v_count = w * h.saturating_sub(1);
        if self.vertical_cut() {
            let cut_x = w / 2 - 1; // east links at column cut_x cross the cut
            if id < h_count {
                // Eastward link from (x, y) where id = y*(w-1)+x.
                id % (w - 1) == cut_x
            } else if id < 2 * h_count {
                // Westward link from (x+1, y) to (x, y) where (id-h) = y*(w-1)+x.
                (id - h_count) % (w - 1) == cut_x
            } else {
                false
            }
        } else {
            let cut_y = h / 2 - 1; // south links from row cut_y cross the cut
            if id < 2 * h_count {
                false
            } else if id < 2 * h_count + v_count {
                // Southward link from (x, y) where (id - 2h) = y*w+x.
                (id - 2 * h_count) / w == cut_y
            } else {
                // Northward link from (x, y+1) to (x, y) where the index
                // encodes y; it crosses when it lands on row cut_y.
                (id - 2 * h_count - v_count) / w == cut_y
            }
        }
    }

    /// Number of unidirectional channels crossing the bisection cut.
    pub fn bisection_channels(&self) -> usize {
        2 * self.width.min(self.height) as usize
    }

    pub(crate) fn link_ends(&self, id: usize) -> (u64, u64) {
        let (from, dir) = self.link_endpoints(id);
        let to = match dir {
            RouteDir::East => RouterCoord::new(from.x + 1, from.y),
            RouteDir::West => RouterCoord::new(from.x - 1, from.y),
            RouteDir::South => RouterCoord::new(from.x, from.y + 1),
            RouteDir::North => RouterCoord::new(from.x, from.y - 1),
        };
        (self.node_at(from) as u64, self.node_at(to) as u64)
    }

    pub(crate) fn node_vertex(&self, node: usize) -> u64 {
        assert!(node < self.num_nodes(), "node {node} out of range");
        node as u64
    }

    /// Manhattan hop count between two compute nodes.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as usize
    }

    /// Average hop count over all ordered pairs of distinct nodes.
    pub fn mean_hops(&self) -> f64 {
        let n = self.num_nodes();
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += self.hops(a, b);
                }
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }

    /// Number of cross-traffic stream pairs the mesh supports: one per row
    /// crossing the vertical cut (wide meshes), one per column crossing the
    /// horizontal cut (tall-narrow meshes).
    pub fn io_streams(&self) -> u16 {
        if self.vertical_cut() {
            self.height
        } else {
            self.width
        }
    }

    /// Dimension-order route between two endpoints, as a list of link ids.
    ///
    /// Compute-node traffic routes X-first then Y. Cross-traffic endpoints
    /// ([`Endpoint::IoWest`]/[`Endpoint::IoEast`]) enter at the edge router
    /// of their stream's row (or column, for tall-narrow meshes whose
    /// bisection is the horizontal cut) and traverse it end to end, leaving
    /// the mesh off the far edge (the final off-edge hop consumes no modeled
    /// link, matching the paper's description that cross-traffic "travels
    /// off the edge of the network without disturbing the compute nodes").
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are identical compute nodes (local traffic
    /// never enters the network) or if an I/O endpoint stream is out of
    /// range.
    pub fn route(&self, src: Endpoint, dst: Endpoint) -> Vec<usize> {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.route_nodes(a as usize, b as usize)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) if self.vertical_cut() => {
                self.row_route(s, RouteDir::East)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) if self.vertical_cut() => {
                self.row_route(s, RouteDir::West)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => self.col_route(s, RouteDir::South),
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => self.col_route(s, RouteDir::North),
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }

    /// Computed route length between two endpoints, without materializing
    /// the route. Agrees with `self.route(src, dst).len()`.
    ///
    /// # Panics
    ///
    /// As [`Mesh::route`].
    pub fn route_len(&self, src: Endpoint, dst: Endpoint) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.hops(a as usize, b as usize)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_))
            | (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                assert!(s < self.io_streams(), "I/O stream {s} out of range");
                if self.vertical_cut() {
                    self.width as usize - 1
                } else {
                    self.height as usize - 1
                }
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }

    /// The `hop`'th link id on the route from `src` to `dst`, computed in
    /// O(1). Hop-for-hop identical to [`Mesh::route`] (and therefore to the
    /// legacy [`RouteTable`]).
    ///
    /// # Panics
    ///
    /// As [`Mesh::route`]; also panics if `hop >= route_len(src, dst)`.
    pub fn route_hop(&self, src: Endpoint, dst: Endpoint, hop: usize) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.dor_hop(a as usize, b as usize, hop)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) if self.vertical_cut() => {
                self.link_id(RouterCoord::new(hop as u16, s), RouteDir::East)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) if self.vertical_cut() => self.link_id(
                RouterCoord::new(self.width - 1 - hop as u16, s),
                RouteDir::West,
            ),
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => {
                self.link_id(RouterCoord::new(s, hop as u16), RouteDir::South)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => self.link_id(
                RouterCoord::new(s, self.height - 1 - hop as u16),
                RouteDir::North,
            ),
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }

    /// The `hop`'th link of the X-first dimension-order route `a -> b`.
    fn dor_hop(&self, a: usize, b: usize, hop: usize) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let dx = ca.x.abs_diff(cb.x) as usize;
        if hop < dx {
            let hop = hop as u16;
            if ca.x < cb.x {
                self.link_id(RouterCoord::new(ca.x + hop, ca.y), RouteDir::East)
            } else {
                self.link_id(RouterCoord::new(ca.x - hop, ca.y), RouteDir::West)
            }
        } else {
            let v = (hop - dx) as u16;
            assert!(
                (hop - dx) < ca.y.abs_diff(cb.y) as usize,
                "hop {hop} past end of route {a}->{b}"
            );
            if ca.y < cb.y {
                self.link_id(RouterCoord::new(cb.x, ca.y + v), RouteDir::South)
            } else {
                self.link_id(RouterCoord::new(cb.x, ca.y - v), RouteDir::North)
            }
        }
    }

    fn route_nodes(&self, a: usize, b: usize) -> Vec<usize> {
        let mut cur = self.coord(a);
        let target = self.coord(b);
        let mut links = Vec::with_capacity(self.hops(a, b));
        while cur.x != target.x {
            let dir = if cur.x < target.x {
                RouteDir::East
            } else {
                RouteDir::West
            };
            links.push(self.link_id(cur, dir));
            cur.x = if cur.x < target.x {
                cur.x + 1
            } else {
                cur.x - 1
            };
        }
        while cur.y != target.y {
            let dir = if cur.y < target.y {
                RouteDir::South
            } else {
                RouteDir::North
            };
            links.push(self.link_id(cur, dir));
            cur.y = if cur.y < target.y {
                cur.y + 1
            } else {
                cur.y - 1
            };
        }
        links
    }

    fn row_route(&self, row: u16, dir: RouteDir) -> Vec<usize> {
        assert!(row < self.height, "I/O row {row} out of range");
        let w = self.width;
        (0..w - 1)
            .map(|i| {
                let x = match dir {
                    RouteDir::East => i,
                    RouteDir::West => w - 1 - i,
                    _ => unreachable!(),
                };
                self.link_id(RouterCoord::new(x, row), dir)
            })
            .collect()
    }

    fn col_route(&self, col: u16, dir: RouteDir) -> Vec<usize> {
        assert!(col < self.width, "I/O column {col} out of range");
        let h = self.height;
        (0..h - 1)
            .map(|i| {
                let y = match dir {
                    RouteDir::South => i,
                    RouteDir::North => h - 1 - i,
                    _ => unreachable!(),
                };
                self.link_id(RouterCoord::new(col, y), dir)
            })
            .collect()
    }
}

/// Every dimension-order route of a mesh, precomputed.
///
/// **Legacy reference oracle.** The network simulator no longer consults
/// this table — routing is computed per hop via [`Mesh::route_hop`], which
/// is O(1) and needs no O(N²) storage — but the table is retained so
/// property tests can verify the computed routing is hop-for-hop identical
/// to the precomputed routes it replaced. Covers all ordered compute-node
/// pairs plus the cross-traffic routes of each I/O stream
/// ([`Endpoint::IoWest`]/[`Endpoint::IoEast`]).
///
/// # Examples
///
/// ```
/// use commsense_mesh::{Endpoint, Mesh, RouteTable};
///
/// let mesh = Mesh::new(8, 4);
/// let table = RouteTable::new(&mesh);
/// let key = table.key(Endpoint::node(0), Endpoint::node(31));
/// assert_eq!(table.route(key).len(), mesh.hops(0, 31));
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    io_streams: usize,
    /// All routes back to back, as link ids.
    arena: Vec<u32>,
    /// `(offset, len)` into `arena` per route key.
    spans: Vec<(u32, u32)>,
}

impl RouteTable {
    /// Precomputes every route of `mesh`.
    pub fn new(mesh: &Mesh) -> Self {
        let n = mesh.num_nodes();
        let h = mesh.io_streams() as usize;
        let mut arena = Vec::new();
        let mut spans = Vec::with_capacity(n * n + 2 * h);
        let push = |arena: &mut Vec<u32>, links: Vec<usize>| {
            let span = (arena.len() as u32, links.len() as u32);
            arena.extend(links.into_iter().map(|l| l as u32));
            span
        };
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    // Local traffic never enters the network; keep the
                    // keys dense with an empty span.
                    spans.push((arena.len() as u32, 0));
                } else {
                    let links = mesh.route(Endpoint::node(a), Endpoint::node(b));
                    spans.push(push(&mut arena, links));
                }
            }
        }
        for row in 0..h as u16 {
            let links = mesh.route(Endpoint::IoWest(row), Endpoint::IoEast(row));
            spans.push(push(&mut arena, links));
        }
        for row in 0..h as u16 {
            let links = mesh.route(Endpoint::IoEast(row), Endpoint::IoWest(row));
            spans.push(push(&mut arena, links));
        }
        RouteTable {
            nodes: n,
            io_streams: h,
            arena,
            spans,
        }
    }

    /// The table key of the `src -> dst` route.
    ///
    /// # Panics
    ///
    /// Panics on the route kinds [`Mesh::route`] rejects: identical
    /// compute nodes, out-of-range I/O rows, and unsupported endpoint
    /// combinations.
    pub fn key(&self, src: Endpoint, dst: Endpoint) -> u32 {
        let k = match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                a as usize * self.nodes + b as usize
            }
            (Endpoint::IoWest(row), Endpoint::IoEast(_)) => {
                assert!(
                    (row as usize) < self.io_streams,
                    "I/O row {row} out of range"
                );
                self.nodes * self.nodes + row as usize
            }
            (Endpoint::IoEast(row), Endpoint::IoWest(_)) => {
                assert!(
                    (row as usize) < self.io_streams,
                    "I/O row {row} out of range"
                );
                self.nodes * self.nodes + self.io_streams + row as usize
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        };
        k as u32
    }

    /// The route behind a key, as link ids.
    pub fn route(&self, key: u32) -> &[u32] {
        let (off, len) = self.spans[key as usize];
        &self.arena[off as usize..(off + len) as usize]
    }
}

/// A `width × height` 2-D torus: the mesh plus wraparound channels, routed
/// dimension-order with shortest-direction selection per ring (ties break
/// toward East/South, deterministically).
///
/// Link layout: four blocks of `width * height` ids — East (`y*w + x` from
/// router `(x, y)`), then West, South, North at offsets `n`, `2n`, `3n`.
/// Every router has all four outgoing channels (wraparound closes the
/// rings), unlike the mesh where edge routers lack off-edge links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    width: u16,
    height: u16,
}

impl Torus {
    /// Creates a torus.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive shape message if either dimension is below
    /// 2 (a ring needs two routers) or the node count exceeds
    /// [`Endpoint::MAX_NODES`].
    pub fn new(width: u16, height: u16) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "torus {width}x{height} is invalid: both dimensions must be >= 2 to close the rings"
        );
        assert!(
            width as usize * height as usize <= Endpoint::MAX_NODES,
            "torus {width}x{height} has {} nodes, more than the {} an Endpoint can address",
            width as usize * height as usize,
            Endpoint::MAX_NODES
        );
        Torus { width, height }
    }

    /// Torus width (columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Torus height (rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    fn vertical_cut(&self) -> bool {
        self.width >= self.height
    }

    /// Minimum ring steps from `from` to `to` on a ring of `len`, and
    /// whether the positive (East/South) direction is taken. Ties break
    /// positive.
    fn ring_steps(from: usize, to: usize, len: usize) -> (usize, bool) {
        let fwd = (to + len - from) % len;
        if fwd == 0 {
            (0, true)
        } else if fwd <= len - fwd {
            (fwd, true)
        } else {
            (len - fwd, false)
        }
    }

    /// Sum of min ring distances over all ordered pairs on a ring of `len`.
    fn ring_sum(len: usize) -> usize {
        (1..len).map(|d| len * d.min(len - d)).sum()
    }

    fn coords(&self, id: usize) -> (usize, usize) {
        assert!(id < self.num_nodes(), "node {id} out of range");
        (id % self.width as usize, id / self.width as usize)
    }

    /// Hops of one half-ring I/O route. Direct streams (`s` below the ring
    /// count) take the half covering the central cut; wrap streams take the
    /// complementary half covering the wraparound boundary. The halves are
    /// link-disjoint, so the streams together can saturate every channel of
    /// the ring — routing both streams the full way round would stack them
    /// on the same channels and halve the consumable bisection.
    fn io_route_hop(&self, s: u16, westbound: bool, hop: usize) -> usize {
        assert!(s < self.io_streams(), "I/O stream {s} out of range");
        let w = self.width as usize;
        let h = self.height as usize;
        let n = w * h;
        let s = s as usize;
        if self.vertical_cut() {
            assert!(
                hop < self.io_route_len(s),
                "hop {hop} past end of I/O route"
            );
            if !westbound {
                // Eastbound: direct rows cover columns [0, w/2), crossing
                // the central cut; wrap rows cover [w/2, w), crossing the
                // wraparound boundary.
                if s < h {
                    s * w + hop
                } else {
                    (s - h) * w + (w / 2 + hop)
                }
            } else if s < h {
                // Westbound direct: columns w/2 down to 1 (central cut).
                n + s * w + (w / 2 - hop)
            } else {
                // Westbound wrap: column 0, then w-1 down to w/2+1.
                n + (s - h) * w + (w - hop) % w
            }
        } else {
            assert!(
                hop < self.io_route_len(s),
                "hop {hop} past end of I/O route"
            );
            if !westbound {
                if s < w {
                    2 * n + hop * w + s
                } else {
                    2 * n + (h / 2 + hop) * w + (s - w)
                }
            } else if s < w {
                3 * n + (h / 2 - hop) * w + s
            } else {
                3 * n + ((h - hop) % h) * w + (s - w)
            }
        }
    }

    /// Length of stream `s`'s half-ring I/O route: `cut/2` hops for direct
    /// streams, the remaining `cut - cut/2` for wrap streams (they differ
    /// only on odd rings).
    fn io_route_len(&self, s: usize) -> usize {
        let cut = if self.vertical_cut() {
            self.width as usize
        } else {
            self.height as usize
        };
        if s < self.width.min(self.height) as usize {
            cut / 2
        } else {
            cut - cut / 2
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }
    pub(crate) fn num_links(&self) -> usize {
        4 * self.num_nodes()
    }
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let (sx, _) = Self::ring_steps(ax, bx, self.width as usize);
        let (sy, _) = Self::ring_steps(ay, by, self.height as usize);
        sx + sy
    }
    pub(crate) fn mean_hops(&self) -> f64 {
        let w = self.width as usize;
        let h = self.height as usize;
        let n = w * h;
        let total = h * h * Self::ring_sum(w) + w * w * Self::ring_sum(h);
        total as f64 / (n * (n - 1)) as f64
    }
    pub(crate) fn route_len(&self, src: Endpoint, dst: Endpoint) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.hops(a as usize, b as usize)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_))
            | (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                assert!(s < self.io_streams(), "I/O stream {s} out of range");
                self.io_route_len(s as usize)
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }
    pub(crate) fn route_hop(&self, src: Endpoint, dst: Endpoint, hop: usize) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                let w = self.width as usize;
                let h = self.height as usize;
                let n = w * h;
                let (ax, ay) = self.coords(a as usize);
                let (bx, by) = self.coords(b as usize);
                let (sx, east) = Self::ring_steps(ax, bx, w);
                if hop < sx {
                    if east {
                        ay * w + (ax + hop) % w
                    } else {
                        n + ay * w + (ax + w - hop) % w
                    }
                } else {
                    let v = hop - sx;
                    let (sy, south) = Self::ring_steps(ay, by, h);
                    assert!(v < sy, "hop {hop} past end of route {a}->{b}");
                    if south {
                        2 * n + ((ay + v) % h) * w + bx
                    } else {
                        3 * n + ((ay + h - v) % h) * w + bx
                    }
                }
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => self.io_route_hop(s, false, hop),
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => self.io_route_hop(s, true, hop),
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }
    pub(crate) fn link_label(&self, id: usize) -> String {
        let (from, _) = self.link_ends(id);
        let n = self.num_nodes();
        let w = self.width as usize;
        let d = match id / n {
            0 => 'E',
            1 => 'W',
            2 => 'S',
            _ => 'N',
        };
        format!("{d}({},{})", from as usize % w, from as usize / w)
    }
    pub(crate) fn link_ends(&self, id: usize) -> (u64, u64) {
        let n = self.num_nodes();
        assert!(id < 4 * n, "link {id} out of range");
        let w = self.width as usize;
        let h = self.height as usize;
        let (x, y) = ((id % n) % w, (id % n) / w);
        let (tx, ty) = match id / n {
            0 => ((x + 1) % w, y),
            1 => ((x + w - 1) % w, y),
            2 => (x, (y + 1) % h),
            _ => (x, (y + h - 1) % h),
        };
        ((y * w + x) as u64, (ty * w + tx) as u64)
    }
    pub(crate) fn node_vertex(&self, node: usize) -> u64 {
        assert!(node < self.num_nodes(), "node {node} out of range");
        node as u64
    }
    pub(crate) fn crosses_bisection(&self, id: usize) -> bool {
        let n = self.num_nodes();
        let w = self.width as usize;
        let h = self.height as usize;
        if self.vertical_cut() {
            // Both the central cut (w/2-1 <-> w/2) and the wrap boundary
            // (w-1 <-> 0) separate the two halves of the ring.
            match id / n {
                0 => {
                    let x = (id % n) % w;
                    x == w / 2 - 1 || x == w - 1
                }
                1 => {
                    let x = (id % n) % w;
                    x == w / 2 || x == 0
                }
                _ => false,
            }
        } else {
            match id / n {
                2 => {
                    let y = (id % n) / w;
                    y == h / 2 - 1 || y == h - 1
                }
                3 => {
                    let y = (id % n) / w;
                    y == h / 2 || y == 0
                }
                _ => false,
            }
        }
    }
    pub(crate) fn bisection_channels(&self) -> usize {
        // Two boundaries x two directions per row (or column) of the cut
        // dimension: twice the equivalent mesh.
        4 * self.width.min(self.height) as usize
    }
    pub(crate) fn io_streams(&self) -> u16 {
        // One direct pair per row loading the central cut plus one wrap
        // pair loading the wraparound boundary (columns for tall shapes).
        2 * self.width.min(self.height)
    }
}

/// A full-bandwidth fat tree with `arity^levels` leaf compute nodes
/// (CM-5 style), routed up to the lowest common ancestor and back down.
///
/// The bandwidth between adjacent levels never thins: each level boundary
/// carries one up channel and one down channel *per leaf*. Up channels are
/// owned by the source leaf and down channels by the destination leaf, so
/// two packets share a channel only when they share that endpoint — the
/// idealized Clos behavior. Link layout: up links first (`level * leaves +
/// channel` for `level < levels`), then down links at offset
/// `levels * leaves`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    arity: u16,
    levels: u16,
    leaves: usize,
}

impl FatTree {
    /// Creates a fat tree with `arity^levels` leaves.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive shape message if `arity < 2`, `levels < 1`,
    /// or the leaf count exceeds [`Endpoint::MAX_NODES`].
    pub fn new(arity: u16, levels: u16) -> Self {
        assert!(
            arity >= 2,
            "fat-tree arity {arity} is invalid: internal switches need at least 2 children"
        );
        assert!(
            levels >= 1,
            "fat-tree with {levels} levels is invalid: need at least one switch level"
        );
        let leaves = (arity as usize)
            .checked_pow(levels as u32)
            .filter(|&n| n <= Endpoint::MAX_NODES)
            .unwrap_or_else(|| {
                panic!(
                    "fat-tree arity {arity} depth {levels} has more than the {} nodes an \
                     Endpoint can address",
                    Endpoint::MAX_NODES
                )
            });
        FatTree {
            arity,
            levels,
            leaves,
        }
    }

    /// Tree arity (children per switch).
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Number of switch levels above the leaves.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// The level of the lowest common ancestor of two leaves (0 when equal).
    fn lca(&self, a: usize, b: usize) -> usize {
        let ar = self.arity as usize;
        let (mut a, mut b, mut m) = (a, b, 0);
        while a != b {
            a /= ar;
            b /= ar;
            m += 1;
        }
        m
    }

    /// The leaf pair behind a cross-traffic stream: leaf `s` and its mirror
    /// in the opposite top-level subtree.
    fn io_pair(&self, s: u16) -> (usize, usize) {
        assert!(s < self.io_streams(), "I/O stream {s} out of range");
        (s as usize, self.leaves - 1 - s as usize)
    }

    fn node_route_len(&self, a: usize, b: usize) -> usize {
        2 * self.lca(a, b)
    }

    fn node_route_hop(&self, a: usize, b: usize, hop: usize) -> usize {
        let m = self.lca(a, b);
        if hop < m {
            // Climbing: the up channel owned by the source leaf.
            hop * self.leaves + a
        } else {
            let j = hop - m;
            assert!(j < m, "hop {hop} past end of route {a}->{b}");
            // Descending: the down channel owned by the destination leaf.
            self.levels as usize * self.leaves + (m - 1 - j) * self.leaves + b
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.leaves
    }
    pub(crate) fn num_links(&self) -> usize {
        2 * self.levels as usize * self.leaves
    }
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        assert!(a < self.leaves && b < self.leaves, "node out of range");
        self.node_route_len(a, b)
    }
    pub(crate) fn mean_hops(&self) -> f64 {
        let ar = self.leaves as f64;
        let mut per_node = 0.0;
        let mut pow = 1usize;
        for m in 1..=self.levels as usize {
            let prev = pow;
            pow *= self.arity as usize;
            per_node += (2 * m) as f64 * (pow - prev) as f64;
        }
        per_node / (ar - 1.0)
    }
    pub(crate) fn route_len(&self, src: Endpoint, dst: Endpoint) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.node_route_len(a as usize, b as usize)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route_len(a, b)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route_len(b, a)
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }
    pub(crate) fn route_hop(&self, src: Endpoint, dst: Endpoint, hop: usize) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.node_route_hop(a as usize, b as usize, hop)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route_hop(a, b, hop)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route_hop(b, a, hop)
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }
    pub(crate) fn link_label(&self, id: usize) -> String {
        assert!(id < self.num_links(), "link {id} out of range");
        let up_total = self.levels as usize * self.leaves;
        if id < up_total {
            format!("U{}:{}", id / self.leaves, id % self.leaves)
        } else {
            let id = id - up_total;
            format!("D{}:{}", id / self.leaves, id % self.leaves)
        }
    }
    pub(crate) fn link_ends(&self, id: usize) -> (u64, u64) {
        assert!(id < self.num_links(), "link {id} out of range");
        let ar = self.arity as usize;
        let up_total = self.levels as usize * self.leaves;
        let switch = |level: usize, channel: usize| -> u64 {
            let mut s = channel;
            for _ in 0..level {
                s /= ar;
            }
            ((level as u64) << 32) | s as u64
        };
        if id < up_total {
            let (l, c) = (id / self.leaves, id % self.leaves);
            (switch(l, c), switch(l + 1, c))
        } else {
            let id = id - up_total;
            let (l, c) = (id / self.leaves, id % self.leaves);
            (switch(l + 1, c), switch(l, c))
        }
    }
    pub(crate) fn node_vertex(&self, node: usize) -> u64 {
        assert!(node < self.leaves, "node {node} out of range");
        node as u64
    }
    pub(crate) fn crosses_bisection(&self, id: usize) -> bool {
        // Every packet between different top-level subtrees climbs exactly
        // one root-boundary up channel; counting only the up side avoids
        // double-counting the matching down channel.
        let root_up = (self.levels as usize - 1) * self.leaves;
        (root_up..self.levels as usize * self.leaves).contains(&id)
    }
    pub(crate) fn bisection_channels(&self) -> usize {
        // Full bandwidth at the root: one channel per leaf each way, so the
        // halves exchange leaves/2 channels per direction.
        self.leaves
    }
    pub(crate) fn io_streams(&self) -> u16 {
        (self.leaves / 2) as u16
    }
}

/// A flattened dragonfly: `groups` fully connected groups of `group_size`
/// routers (one compute node each), with one global channel between every
/// ordered group pair, routed minimally (intra hop, global hop, intra hop).
///
/// The global channel from group `i` to group `j` attaches at router
/// `dense(j) % group_size` of group `i` (where `dense` skips `i` itself),
/// spreading global traffic across routers. Link layout: intra-group links
/// first (`group * a*(a-1)` of them), then the `g*(g-1)` global links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dragonfly {
    groups: u16,
    group_size: u16,
}

impl Dragonfly {
    /// Creates a dragonfly.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive shape message if `groups < 2`,
    /// `group_size < 1`, or the node count exceeds [`Endpoint::MAX_NODES`].
    pub fn new(groups: u16, group_size: u16) -> Self {
        assert!(
            groups >= 2,
            "dragonfly with {groups} groups is invalid: global links need at least 2 groups"
        );
        assert!(
            group_size >= 1,
            "dragonfly group size {group_size} is invalid: groups must hold at least 1 router"
        );
        assert!(
            groups as usize * group_size as usize <= Endpoint::MAX_NODES,
            "dragonfly {groups} groups x {group_size} has {} nodes, more than the {} an \
             Endpoint can address",
            groups as usize * group_size as usize,
            Endpoint::MAX_NODES
        );
        let streams = (groups as usize / 2) * (groups as usize - groups as usize / 2);
        assert!(
            streams <= u16::MAX as usize,
            "dragonfly with {groups} groups needs {streams} cross-traffic streams, more \
             than a u16 stream id can address"
        );
        Dragonfly { groups, group_size }
    }

    /// Number of groups.
    pub fn groups(&self) -> u16 {
        self.groups
    }

    /// Routers (= compute nodes) per group.
    pub fn group_size(&self) -> u16 {
        self.group_size
    }

    fn intra_per_group(&self) -> usize {
        let a = self.group_size as usize;
        a * (a - 1)
    }

    fn intra_total(&self) -> usize {
        self.groups as usize * self.intra_per_group()
    }

    /// Dense index of group `gj` among group `gi`'s peers (skips `gi`).
    fn dense(gi: usize, gj: usize) -> usize {
        if gj < gi {
            gj
        } else {
            gj - 1
        }
    }

    /// The router of group `gi` where the global channel to `gj` attaches.
    fn attach(&self, gi: usize, gj: usize) -> usize {
        Self::dense(gi, gj) % self.group_size as usize
    }

    fn intra_link(&self, group: usize, i: usize, j: usize) -> usize {
        debug_assert_ne!(i, j);
        let a = self.group_size as usize;
        group * self.intra_per_group() + i * (a - 1) + if j < i { j } else { j - 1 }
    }

    fn global_link(&self, gi: usize, gj: usize) -> usize {
        self.intra_total() + gi * (self.groups as usize - 1) + Self::dense(gi, gj)
    }

    /// The (up to 3) links of the minimal route `a -> b`, as
    /// `(len, [l0, l1, l2])`.
    fn node_route(&self, a: usize, b: usize) -> (usize, [usize; 3]) {
        let sz = self.group_size as usize;
        let (gs, ls) = (a / sz, a % sz);
        let (gd, ld) = (b / sz, b % sz);
        if gs == gd {
            return (1, [self.intra_link(gs, ls, ld), 0, 0]);
        }
        let p1 = self.attach(gs, gd);
        let p2 = self.attach(gd, gs);
        let mut links = [0usize; 3];
        let mut len = 0;
        if ls != p1 {
            links[len] = self.intra_link(gs, ls, p1);
            len += 1;
        }
        links[len] = self.global_link(gs, gd);
        len += 1;
        if p2 != ld {
            links[len] = self.intra_link(gd, p2, ld);
            len += 1;
        }
        (len, links)
    }

    /// The node pair behind a cross-traffic stream: one stream per ordered
    /// cross-cut group pair `(gi, gj)` with `gi` in the lower half and `gj`
    /// in the upper, anchored at the two attach routers of their global
    /// channel. Each stream is then a single global hop on a channel no
    /// other stream touches, so together the streams can saturate the full
    /// bisection.
    fn io_pair(&self, s: u16) -> (usize, usize) {
        assert!(s < self.io_streams(), "I/O stream {s} out of range");
        let g = self.groups as usize;
        let sz = self.group_size as usize;
        let upper = g - g / 2;
        let gi = s as usize / upper;
        let gj = g / 2 + s as usize % upper;
        (gi * sz + self.attach(gi, gj), gj * sz + self.attach(gj, gi))
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.groups as usize * self.group_size as usize
    }
    pub(crate) fn num_links(&self) -> usize {
        self.intra_total() + self.groups as usize * (self.groups as usize - 1)
    }
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        assert!(
            a < self.num_nodes() && b < self.num_nodes(),
            "node out of range"
        );
        if a == b {
            0
        } else {
            self.node_route(a, b).0
        }
    }
    pub(crate) fn mean_hops(&self) -> f64 {
        let g = self.groups as f64;
        let a = self.group_size as f64;
        let n = g * a;
        // Same-group pairs are 1 hop; cross-group pairs are 1 global hop
        // plus an intra hop at each end unless the endpoint is the attach
        // router ((a-1)/a of the time each).
        let same = g * a * (a - 1.0);
        let cross = g * (g - 1.0) * (a * a + 2.0 * a * (a - 1.0));
        (same + cross) / (n * (n - 1.0))
    }
    pub(crate) fn route_len(&self, src: Endpoint, dst: Endpoint) -> usize {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.node_route(a as usize, b as usize).0
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route(a, b).0
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route(b, a).0
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        }
    }
    pub(crate) fn route_hop(&self, src: Endpoint, dst: Endpoint, hop: usize) -> usize {
        let (len, links) = match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert_ne!(a, b, "local traffic must not enter the network");
                self.node_route(a as usize, b as usize)
            }
            (Endpoint::IoWest(s), Endpoint::IoEast(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route(a, b)
            }
            (Endpoint::IoEast(s), Endpoint::IoWest(_)) => {
                let (a, b) = self.io_pair(s);
                self.node_route(b, a)
            }
            (s, d) => panic!("unsupported route {s:?} -> {d:?}"),
        };
        assert!(hop < len, "hop {hop} past end of route");
        links[hop]
    }
    pub(crate) fn link_label(&self, id: usize) -> String {
        let (from, to) = self.link_ends(id);
        let sz = self.group_size as u64;
        if id < self.intra_total() {
            format!("G{}:{}>{}", from / sz, from % sz, to % sz)
        } else {
            format!("X{}>{}", from / sz, to / sz)
        }
    }
    pub(crate) fn link_ends(&self, id: usize) -> (u64, u64) {
        assert!(id < self.num_links(), "link {id} out of range");
        let a = self.group_size as usize;
        let g = self.groups as usize;
        if id < self.intra_total() {
            let group = id / self.intra_per_group();
            let rest = id % self.intra_per_group();
            let i = rest / (a - 1);
            let dj = rest % (a - 1);
            let j = if dj < i { dj } else { dj + 1 };
            ((group * a + i) as u64, (group * a + j) as u64)
        } else {
            let rest = id - self.intra_total();
            let gi = rest / (g - 1);
            let gj = {
                let d = rest % (g - 1);
                if d < gi {
                    d
                } else {
                    d + 1
                }
            };
            (
                (gi * a + self.attach(gi, gj)) as u64,
                (gj * a + self.attach(gj, gi)) as u64,
            )
        }
    }
    pub(crate) fn node_vertex(&self, node: usize) -> u64 {
        assert!(node < self.num_nodes(), "node {node} out of range");
        node as u64
    }
    pub(crate) fn crosses_bisection(&self, id: usize) -> bool {
        if id < self.intra_total() {
            return false;
        }
        let g = self.groups as usize;
        let rest = id - self.intra_total();
        let gi = rest / (g - 1);
        let d = rest % (g - 1);
        let gj = if d < gi { d } else { d + 1 };
        (gi < g / 2) != (gj < g / 2)
    }
    pub(crate) fn bisection_channels(&self) -> usize {
        let g = self.groups as usize;
        2 * (g / 2) * (g - g / 2)
    }
    pub(crate) fn io_streams(&self) -> u16 {
        // One stream per cross-cut group pair; see `io_pair`.
        let g = self.groups as usize;
        ((g / 2) * (g - g / 2)) as u16
    }
}

/// The machine's interconnect: the one topology type, which configures,
/// routes and hashes every shape.
///
/// A `Topo` describes a fabric of `num_nodes` compute endpoints joined by
/// `num_links` unidirectional channels with dense ids, and provides
/// *computed* deterministic routing: [`Topo::route_hop`] derives the
/// `hop`'th link of a route arithmetically, so no per-(src,dst) state exists
/// and route storage stays O(1) regardless of machine size.
///
/// Contract, relied on by the simulator and the property suite:
///
/// * Routes are deterministic and minimal for the shape's routing algorithm
///   (dimension-order, up-down, or minimal-group).
/// * `route_len(src, dst)` equals the number of valid hops; `route_hop`
///   panics past the end.
/// * Consecutive hops are link-continuous: the `to` vertex of hop `h`
///   (see [`Topo::link_ends`]) is the `from` vertex of hop `h + 1`,
///   starting at `node_vertex(src)` and ending at `node_vertex(dst)` for
///   compute-node routes.
/// * Cross-traffic streams (`Endpoint::IoWest(s)` → `Endpoint::IoEast(s)`
///   and the reverse, `s < io_streams()`) cross the bisection cut exactly
///   once and are absorbed off-fabric, never occupying a compute node's
///   ejection port.
///
/// # Examples
///
/// ```
/// use commsense_mesh::{Endpoint, Topo};
///
/// let topo = Topo::alewife();
/// assert_eq!(topo.shape(), "mesh 8x4");
/// assert_eq!(topo.describe(), "mesh 8x4 (32 nodes)");
/// assert_eq!(topo.route_len(Endpoint::node(0), Endpoint::node(31)), 10);
/// assert_eq!(Topo::with_nodes("torus", 32), Topo::torus(8, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// 2-D mesh (the paper's Alewife machine).
    Mesh(Mesh),
    /// 2-D torus (wraparound mesh).
    Torus(Torus),
    /// Full-bandwidth fat tree.
    FatTree(FatTree),
    /// Flattened dragonfly.
    Dragonfly(Dragonfly),
}

/// Matches on the shape once and evaluates `$e` with `$t` bound to it.
macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            Topo::Mesh($t) => $e,
            Topo::Torus($t) => $e,
            Topo::FatTree($t) => $e,
            Topo::Dragonfly($t) => $e,
        }
    };
}

impl Topo {
    /// The recognized kind labels, in the order used by sweeps.
    pub const KINDS: [&'static str; 4] = ["mesh", "torus", "fat-tree", "dragonfly"];

    /// A `width × height` 2-D mesh; panics as [`Mesh::new`].
    pub fn mesh(width: u16, height: u16) -> Self {
        Topo::Mesh(Mesh::new(width, height))
    }

    /// A `width × height` 2-D torus; panics as [`Torus::new`].
    pub fn torus(width: u16, height: u16) -> Self {
        Topo::Torus(Torus::new(width, height))
    }

    /// A fat tree with `arity^levels` leaves; panics as [`FatTree::new`].
    pub fn fat_tree(arity: u16, levels: u16) -> Self {
        Topo::FatTree(FatTree::new(arity, levels))
    }

    /// A dragonfly; panics as [`Dragonfly::new`].
    pub fn dragonfly(groups: u16, group_size: u16) -> Self {
        Topo::Dragonfly(Dragonfly::new(groups, group_size))
    }

    /// The paper's machine: the 8×4 Alewife mesh.
    pub fn alewife() -> Self {
        Topo::mesh(8, 4)
    }

    /// A topology of the given `kind` with (as close as the kind allows)
    /// `nodes` compute nodes, for node-count sweeps.
    ///
    /// Meshes and tori factor `nodes` into the most nearly square
    /// `width x height` with `width >= height`; dragonflies do the same with
    /// `groups >= group_size`; fat trees require a power of 4 (arity-4,
    /// CM-5 style) or a power of 2 (arity-2 fallback).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `kind` is unknown or `nodes`
    /// cannot form a valid shape of that kind (e.g. a prime node count for
    /// a torus, or a non-power-of-two fat tree).
    pub fn with_nodes(kind: &str, nodes: usize) -> Self {
        assert!(
            (4..=Endpoint::MAX_NODES).contains(&nodes),
            "{nodes} nodes is out of range: need between 4 and {}",
            Endpoint::MAX_NODES
        );
        let (big, small) = near_square(nodes);
        match kind {
            "mesh" => Topo::mesh(big, small),
            "torus" => {
                assert!(
                    small >= 2,
                    "cannot build a torus with {nodes} nodes: it factors as {big}x{small}, \
                     but both torus dimensions must be >= 2"
                );
                Topo::torus(big, small)
            }
            "fat-tree" => {
                if let Some(levels) = log_exact(nodes, 4) {
                    Topo::fat_tree(4, levels)
                } else if let Some(levels) = log_exact(nodes, 2) {
                    Topo::fat_tree(2, levels)
                } else {
                    panic!(
                        "cannot build a fat-tree with {nodes} nodes: \
                         the leaf count must be a power of 4 or of 2"
                    )
                }
            }
            "dragonfly" => {
                assert!(
                    big >= 2,
                    "cannot build a dragonfly with {nodes} nodes: it factors as \
                     {big} groups x {small}, but at least 2 groups are needed"
                );
                Topo::dragonfly(big, small)
            }
            other => panic!(
                "unknown topology kind {other:?} (expected one of {:?})",
                Topo::KINDS
            ),
        }
    }

    /// Short kind label: `"mesh"`, `"torus"`, `"fat-tree"`, `"dragonfly"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Topo::Mesh(_) => "mesh",
            Topo::Torus(_) => "torus",
            Topo::FatTree(_) => "fat-tree",
            Topo::Dragonfly(_) => "dragonfly",
        }
    }

    /// The two shape parameters: width and height, arity and levels, or
    /// groups and group size.
    fn dims(&self) -> (u16, u16) {
        match *self {
            Topo::Mesh(Mesh { width, height }) | Topo::Torus(Torus { width, height }) => {
                (width, height)
            }
            Topo::FatTree(t) => (t.arity, t.levels),
            Topo::Dragonfly(d) => (d.groups, d.group_size),
        }
    }

    /// Short shape, e.g. `"mesh 8x4"` or `"fat-tree 4^3"` (config errors
    /// and summary tables).
    pub fn shape(&self) -> String {
        let (a, b) = self.dims();
        match self {
            Topo::FatTree(_) => format!("fat-tree {a}^{b}"),
            _ => format!("{} {a}x{b}", self.kind()),
        }
    }

    /// Long shape with the node count, e.g. `"mesh 8x4 (32 nodes)"` (run
    /// manifests).
    pub fn describe(&self) -> String {
        let (a, b) = self.dims();
        let shape = match self {
            Topo::Mesh(_) | Topo::Torus(_) => format!("{} {a}x{b}", self.kind()),
            Topo::FatTree(_) => format!("fat-tree arity {a} depth {b}"),
            Topo::Dragonfly(_) => format!("dragonfly {a} groups x {b}"),
        };
        format!("{shape} ({} nodes)", self.num_nodes())
    }

    /// Feeds the topology into a stable-hash encoder in the caller's scope,
    /// for result-store keys. The two shape parameters use the uniform names
    /// `dim_a`/`dim_b`; the `kind` key disambiguates their meaning.
    pub fn stable_encode(&self, enc: &mut commsense_des::StableEncoder) {
        let (a, b) = self.dims();
        enc.put("kind", self.kind());
        enc.put("dim_a", a);
        enc.put("dim_b", b);
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        dispatch!(self, t => t.num_nodes())
    }

    /// Number of unidirectional links, densely numbered from 0.
    pub fn num_links(&self) -> usize {
        dispatch!(self, t => t.num_links())
    }

    /// Hop count of the route between compute nodes `a` and `b` (0 for
    /// `a == b`).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        dispatch!(self, t => t.hops(a, b))
    }

    /// Average hop count over all ordered pairs of distinct nodes.
    pub fn mean_hops(&self) -> f64 {
        dispatch!(self, t => t.mean_hops())
    }

    /// Route length between two endpoints; see [`Mesh::route_len`] for the
    /// panic contract.
    pub fn route_len(&self, src: Endpoint, dst: Endpoint) -> usize {
        dispatch!(self, t => t.route_len(src, dst))
    }

    /// The `hop`'th link id on the `src -> dst` route, computed on the fly.
    pub fn route_hop(&self, src: Endpoint, dst: Endpoint, hop: usize) -> usize {
        dispatch!(self, t => t.route_hop(src, dst, hop))
    }

    /// Appends the full `src -> dst` route to `out` as dense link ids,
    /// hop-for-hop identical to calling [`Topo::route_hop`] for each hop.
    /// The network materializes each packet's route once at injection (into
    /// a pooled buffer) so the per-hop hot path is an array read. This
    /// matches on the shape once per route, not once per hop.
    pub fn route_into(&self, src: Endpoint, dst: Endpoint, out: &mut Vec<u32>) {
        dispatch!(self, t => {
            let len = t.route_len(src, dst);
            out.reserve(len);
            for hop in 0..len {
                out.push(t.route_hop(src, dst, hop) as u32);
            }
        })
    }

    /// Human-readable label for link `id` (trace exports, heatmaps).
    pub fn link_label(&self, id: usize) -> String {
        dispatch!(self, t => t.link_label(id))
    }

    /// Abstract `(from, to)` vertex ids of link `id`, for route-continuity
    /// verification. Vertices are opaque: compute nodes map to
    /// [`Topo::node_vertex`]; internal switches (fat-tree) get their own ids.
    pub fn link_ends(&self, id: usize) -> (u64, u64) {
        dispatch!(self, t => t.link_ends(id))
    }

    /// The vertex id at which compute node `node` attaches.
    pub fn node_vertex(&self, node: usize) -> u64 {
        dispatch!(self, t => t.node_vertex(node))
    }

    /// Whether link `id` crosses the bisection cut.
    pub fn crosses_bisection(&self, id: usize) -> bool {
        dispatch!(self, t => t.crosses_bisection(id))
    }

    /// Number of unidirectional channels crossing the bisection cut (both
    /// directions), used for bandwidth calibration.
    pub fn bisection_channels(&self) -> usize {
        dispatch!(self, t => t.bisection_channels())
    }

    /// Number of cross-traffic stream pairs the topology supports.
    pub fn io_streams(&self) -> u16 {
        dispatch!(self, t => t.io_streams())
    }
}

/// Factors `n` into `(big, small)` with `big * small == n`, `big >= small`,
/// and the pair as nearly square as the divisors of `n` allow.
fn near_square(n: usize) -> (u16, u16) {
    let mut small = 1usize;
    while (small + 1) * (small + 1) <= n {
        small += 1;
    }
    while small > 1 && !n.is_multiple_of(small) {
        small -= 1;
    }
    ((n / small) as u16, small as u16)
}

/// `Some(k)` when `n == base^k` exactly (with `k >= 1`).
fn log_exact(n: usize, base: usize) -> Option<u16> {
    let mut pow = base;
    let mut k = 1u16;
    while pow < n {
        pow = pow.checked_mul(base)?;
        k += 1;
    }
    (pow == n).then_some(k)
}

#[cfg(test)]
mod topo_tests {
    use super::*;

    /// Walks every hop of the `a -> b` route checking link continuity from
    /// `a`'s vertex to `b`'s, and that the length matches `hops`.
    fn check_node_route(t: &Topo, a: usize, b: usize) {
        let (src, dst) = (Endpoint::node(a), Endpoint::node(b));
        let len = t.route_len(src, dst);
        assert_eq!(
            len,
            t.hops(a, b),
            "route_len disagrees with hops for {a}->{b}"
        );
        let mut at = t.node_vertex(a);
        for h in 0..len {
            let link = t.route_hop(src, dst, h);
            assert!(link < t.num_links(), "hop {h} of {a}->{b} out of range");
            let (from, to) = t.link_ends(link);
            assert_eq!(from, at, "hop {h} of {a}->{b} breaks continuity");
            at = to;
        }
        assert_eq!(at, t.node_vertex(b), "route {a}->{b} ends elsewhere");
    }

    /// Every cross-traffic stream must cross the bisection cut exactly once
    /// in each direction.
    fn check_io_streams(t: &Topo) {
        assert!(t.io_streams() > 0, "{} has no I/O streams", t.describe());
        for s in 0..t.io_streams() {
            for (src, dst) in [
                (Endpoint::IoWest(s), Endpoint::IoEast(s)),
                (Endpoint::IoEast(s), Endpoint::IoWest(s)),
            ] {
                let len = t.route_len(src, dst);
                assert!(len >= 1);
                let crossings = (0..len)
                    .filter(|&h| t.crosses_bisection(t.route_hop(src, dst, h)))
                    .count();
                assert_eq!(
                    crossings, 1,
                    "stream {s} {src:?}->{dst:?} crosses the cut {crossings} times"
                );
                // Hops are link-continuous here too.
                let mut at = None;
                for h in 0..len {
                    let (from, to) = t.link_ends(t.route_hop(src, dst, h));
                    if let Some(prev) = at {
                        assert_eq!(from, prev, "I/O stream {s} hop {h} breaks continuity");
                    }
                    at = Some(to);
                }
            }
        }
    }

    /// Links must join distinct vertices, and the links crossing the cut
    /// must agree with the channel count. Parallel links between the same vertex
    /// pair are legitimate (fat-tree channels, length-2 torus rings), so
    /// uniqueness of vertex pairs is deliberately not required.
    fn check_links_distinct(t: &Topo) {
        for id in 0..t.num_links() {
            let ends = t.link_ends(id);
            assert_ne!(ends.0, ends.1, "link {id} is a self-loop");
        }
        assert_eq!(
            (0..t.num_links())
                .filter(|&l| t.crosses_bisection(l))
                .count(),
            t.bisection_channels(),
            "bisection links disagree with the channel count for {}",
            t.describe()
        );
    }

    fn sample_pairs(n: usize) -> Vec<(usize, usize)> {
        // Deterministic scatter covering corners, wrap boundaries, and a
        // pseudo-random interior spread.
        let mut pairs = vec![(0, n - 1), (n - 1, 0), (0, n / 2), (n / 2 - 1, n / 2)];
        let mut x = 1usize;
        for _ in 0..64 {
            x = (x * 48271) % 0x7fff_ffff;
            let a = x % n;
            let b = (x / n) % n;
            if a != b {
                pairs.push((a, b));
            }
        }
        pairs
    }

    fn check_topology(t: &Topo) {
        check_links_distinct(t);
        check_io_streams(t);
        for (a, b) in sample_pairs(t.num_nodes()) {
            check_node_route(t, a, b);
        }
    }

    #[test]
    fn mesh_topology_contract() {
        check_topology(&Topo::mesh(8, 4));
        check_topology(&Topo::mesh(2, 8)); // tall-narrow
        check_topology(&Topo::mesh(32, 32));
    }

    #[test]
    fn torus_topology_contract() {
        check_topology(&Topo::torus(8, 4));
        check_topology(&Topo::torus(2, 8)); // tall-narrow
        check_topology(&Topo::torus(32, 32));
        check_topology(&Topo::torus(3, 5)); // odd rings
    }

    #[test]
    fn fat_tree_topology_contract() {
        check_topology(&Topo::fat_tree(2, 1));
        check_topology(&Topo::fat_tree(4, 3));
        check_topology(&Topo::fat_tree(2, 10)); // 1024 leaves
    }

    #[test]
    fn dragonfly_topology_contract() {
        check_topology(&Topo::dragonfly(2, 1));
        check_topology(&Topo::dragonfly(8, 4));
        check_topology(&Topo::dragonfly(32, 32)); // 1024 nodes
    }

    #[test]
    fn torus_wraparound_shortens_routes() {
        let t = Topo::torus(8, 4);
        // Opposite ends of a row: 1 wrap hop instead of the mesh's 7.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(7, 0), 1);
        // Half-way round an even ring ties; the tie breaks East.
        let (steps, east) = Torus::ring_steps(0, 4, 8);
        assert_eq!((steps, east), (4, true));
        // Torus mean hops beat the mesh's.
        assert!(t.mean_hops() < Mesh::new(8, 4).mean_hops());
        // Exhaustive mean check.
        let n = t.num_nodes();
        let total: usize = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| t.hops(a, b))
            .sum();
        let want = total as f64 / (n * (n - 1)) as f64;
        assert!((t.mean_hops() - want).abs() < 1e-9);
    }

    #[test]
    fn fat_tree_routes_via_lowest_common_ancestor() {
        let t = Topo::fat_tree(4, 3); // 64 leaves
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.hops(0, 1), 2); // siblings: up 1, down 1
        assert_eq!(t.hops(0, 5), 4); // cousins
        assert_eq!(t.hops(0, 63), 6); // cross-root
        assert_eq!(t.hops(9, 9), 0);
        // Bisection: only root-level up links cross, one per leaf.
        assert_eq!(t.bisection_channels(), 64);
        // Exhaustive mean check.
        let n = 64;
        let total: usize = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| t.hops(a, b))
            .sum();
        let want = total as f64 / (n * (n - 1)) as f64;
        assert!((t.mean_hops() - want).abs() < 1e-9);
    }

    #[test]
    fn dragonfly_diameter_is_three() {
        let t = Topo::dragonfly(8, 4);
        let n = t.num_nodes();
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let h = t.hops(a, b);
                assert!((1..=3).contains(&h), "{a}->{b} took {h} hops");
                total += h;
            }
        }
        let want = total as f64 / (n * (n - 1)) as f64;
        assert!((t.mean_hops() - want).abs() < 1e-9);
    }

    #[test]
    fn hop_symmetry_where_applicable() {
        // Mesh, torus, and fat tree have symmetric hop counts; the
        // dragonfly does not (attach routers are direction-dependent), which
        // is why it is excluded here.
        for t in [Topo::mesh(8, 4), Topo::torus(8, 4), Topo::fat_tree(4, 3)] {
            for (a, b) in sample_pairs(t.num_nodes()) {
                assert_eq!(t.hops(a, b), t.hops(b, a), "{}: {a}<->{b}", t.describe());
            }
        }
    }

    #[test]
    fn tall_narrow_mesh_cuts_between_rows() {
        let m = Mesh::new(2, 8);
        // The true bisection of a 2x8 mesh is the horizontal cut: 2 * width
        // = 4 channels, not the vertical cut's 16.
        let links: Vec<usize> = (0..m.num_links())
            .filter(|&l| m.crosses_bisection(l))
            .collect();
        assert_eq!(links.len(), 4);
        assert_eq!(m.bisection_channels(), 4);
        for &l in &links {
            let (from, dir) = m.link_endpoints(l);
            assert!(
                matches!((dir, from.y), (RouteDir::South, 3) | (RouteDir::North, 4)),
                "unexpected bisection link {l}: {from:?} {dir:?}"
            );
        }
        assert_eq!(m.io_streams(), 2); // one stream pair per column
    }

    #[test]
    fn topo_constructors_describe_their_shape() {
        for (topo, nodes, kind, shape, long) in [
            (
                Topo::alewife(),
                32,
                "mesh",
                "mesh 8x4",
                "mesh 8x4 (32 nodes)",
            ),
            (
                Topo::torus(16, 16),
                256,
                "torus",
                "torus 16x16",
                "torus 16x16 (256 nodes)",
            ),
            (
                Topo::fat_tree(4, 5),
                1024,
                "fat-tree",
                "fat-tree 4^5",
                "fat-tree arity 4 depth 5 (1024 nodes)",
            ),
            (
                Topo::dragonfly(32, 32),
                1024,
                "dragonfly",
                "dragonfly 32x32",
                "dragonfly 32 groups x 32 (1024 nodes)",
            ),
        ] {
            assert_eq!(topo.num_nodes(), nodes);
            assert_eq!(topo.kind(), kind);
            assert_eq!(topo.shape(), shape);
            assert_eq!(topo.describe(), long);
        }
    }

    #[test]
    fn with_nodes_finds_valid_shapes() {
        assert_eq!(Topo::with_nodes("mesh", 32), Topo::mesh(8, 4));
        assert_eq!(Topo::with_nodes("mesh", 1024), Topo::mesh(32, 32));
        assert_eq!(Topo::with_nodes("torus", 256), Topo::torus(16, 16));
        assert_eq!(Topo::with_nodes("fat-tree", 1024), Topo::fat_tree(4, 5));
        assert_eq!(Topo::with_nodes("fat-tree", 32), Topo::fat_tree(2, 5));
        assert_eq!(Topo::with_nodes("dragonfly", 1024), Topo::dragonfly(32, 32));
        for kind in Topo::KINDS {
            let topo = Topo::with_nodes(kind, 1024);
            assert_eq!(topo.num_nodes(), 1024, "{kind}");
            assert_eq!(topo.kind(), kind);
        }
    }

    #[test]
    #[should_panic(expected = "power of 4 or of 2")]
    fn with_nodes_rejects_non_power_fat_tree() {
        Topo::with_nodes("fat-tree", 48);
    }

    #[test]
    #[should_panic(expected = "unknown topology kind")]
    fn with_nodes_rejects_unknown_kind() {
        Topo::with_nodes("hypercube", 64);
    }

    #[test]
    #[should_panic(expected = "torus 1x8 is invalid")]
    fn torus_rejects_degenerate_ring() {
        Torus::new(1, 8);
    }

    #[test]
    fn stable_encode_distinguishes_topologies() {
        use commsense_des::StableEncoder;
        let hash = |topo: &Topo| {
            let mut enc = StableEncoder::new();
            enc.scope("net.topo", |enc| topo.stable_encode(enc));
            enc.finish_hash()
        };
        let topos = [
            Topo::mesh(8, 4),
            Topo::mesh(4, 8),
            Topo::torus(8, 4),
            Topo::fat_tree(8, 4),
            Topo::dragonfly(8, 4),
        ];
        let hashes: Vec<_> = topos.iter().map(hash).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{:?} vs {:?}", topos[i], topos[j]);
            }
        }
        assert_eq!(hash(&Topo::alewife()), hash(&Topo::mesh(8, 4)));
    }

    #[test]
    fn scale_1024_routing_regression() {
        // The satellite audit target: all four topologies at (or near) 1024
        // nodes with full contract checks, exercising index arithmetic well
        // past the 32-node seed.
        check_topology(&Topo::mesh(32, 32));
        check_topology(&Topo::torus(32, 32));
        check_topology(&Topo::fat_tree(4, 5));
        check_topology(&Topo::dragonfly(32, 32));
        // And the largest addressable meshes don't overflow link ids.
        let big = Mesh::new(256, 256);
        assert_eq!(big.num_nodes(), 65536);
        check_node_route(&Topo::Mesh(big), 0, 65535);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alewife() -> Mesh {
        Mesh::new(8, 4)
    }

    #[test]
    fn link_count_matches_formula() {
        let m = alewife();
        assert_eq!(m.num_links(), 2 * (7 * 4) + 2 * (3 * 8));
    }

    #[test]
    fn link_ids_are_dense_and_unique() {
        let m = alewife();
        let mut seen = vec![false; m.num_links()];
        for y in 0..4 {
            for x in 0..8 {
                let c = RouterCoord::new(x, y);
                for dir in [
                    RouteDir::East,
                    RouteDir::West,
                    RouteDir::South,
                    RouteDir::North,
                ] {
                    let ok = match dir {
                        RouteDir::East => x + 1 < 8,
                        RouteDir::West => x >= 1,
                        RouteDir::South => y + 1 < 4,
                        RouteDir::North => y >= 1,
                    };
                    if ok {
                        let id = m.link_id(c, dir);
                        assert!(!seen[id], "duplicate link id {id}");
                        seen[id] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all link ids covered");
    }

    #[test]
    fn coord_roundtrip() {
        let m = alewife();
        for id in 0..m.num_nodes() {
            assert_eq!(m.node_at(m.coord(id)), id);
        }
    }

    #[test]
    fn hops_corner_to_corner() {
        let m = alewife();
        assert_eq!(m.hops(0, 31), 10);
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 1);
    }

    #[test]
    fn route_length_equals_hops() {
        let m = alewife();
        for a in 0..m.num_nodes() {
            for b in 0..m.num_nodes() {
                if a != b {
                    let r = m.route(Endpoint::node(a), Endpoint::node(b));
                    assert_eq!(r.len(), m.hops(a, b), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn route_is_x_first() {
        let m = alewife();
        // 0 (0,0) -> 25 (1,3): one east link then three south links.
        let r = m.route(Endpoint::node(0), Endpoint::node(25));
        assert_eq!(r[0], m.link_id(RouterCoord::new(0, 0), RouteDir::East));
        assert_eq!(r[1], m.link_id(RouterCoord::new(1, 0), RouteDir::South));
    }

    #[test]
    fn bisection_links_count() {
        let m = alewife();
        let cut = (0..m.num_links())
            .filter(|&l| m.crosses_bisection(l))
            .count();
        assert_eq!(cut, 8, "4 rows x 2 directions");
        assert_eq!(cut, m.bisection_channels());
    }

    #[test]
    fn cross_traffic_route_crosses_bisection() {
        let m = alewife();
        let east = m.route(Endpoint::IoWest(2), Endpoint::IoEast(2));
        assert_eq!(east.len(), 7);
        assert_eq!(east.iter().filter(|&&l| m.crosses_bisection(l)).count(), 1);
        let west = m.route(Endpoint::IoEast(1), Endpoint::IoWest(1));
        assert_eq!(west.len(), 7);
        assert_eq!(west.iter().filter(|&&l| m.crosses_bisection(l)).count(), 1);
    }

    #[test]
    fn mean_hops_is_sane() {
        let m = alewife();
        let mh = m.mean_hops();
        assert!(mh > 3.0 && mh < 5.0, "mean hops {mh}");
    }

    #[test]
    #[should_panic(expected = "local traffic")]
    fn local_route_panics() {
        let m = alewife();
        let _ = m.route(Endpoint::node(3), Endpoint::node(3));
    }

    #[test]
    fn route_table_matches_fresh_routes() {
        let m = alewife();
        let table = RouteTable::new(&m);
        for a in 0..m.num_nodes() {
            for b in 0..m.num_nodes() {
                if a == b {
                    continue;
                }
                let fresh: Vec<u32> = m
                    .route(Endpoint::node(a), Endpoint::node(b))
                    .into_iter()
                    .map(|l| l as u32)
                    .collect();
                let key = table.key(Endpoint::node(a), Endpoint::node(b));
                assert_eq!(table.route(key), &fresh[..], "{a}->{b}");
            }
        }
        for row in 0..m.height() {
            for (src, dst) in [
                (Endpoint::IoWest(row), Endpoint::IoEast(row)),
                (Endpoint::IoEast(row), Endpoint::IoWest(row)),
            ] {
                let fresh: Vec<u32> = m.route(src, dst).into_iter().map(|l| l as u32).collect();
                assert_eq!(table.route(table.key(src, dst)), &fresh[..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "local traffic")]
    fn route_table_local_key_panics() {
        let table = RouteTable::new(&alewife());
        let _ = table.key(Endpoint::node(3), Endpoint::node(3));
    }
}
