//! Coverage and association between users and edge servers.
//!
//! A user `k` is covered by edge server `m` when their distance is at most
//! the coverage radius (275 m in the paper). `M_k` denotes the set of edge
//! servers covering user `k` and `K_m` the set of users associated with
//! server `m`; both are precomputed by [`CoverageMap`].

use crate::error::WirelessError;
use crate::geometry::Point;

/// Precomputed coverage relation between users and edge servers.
///
/// Indices are positional: user `k` refers to `users[k]` and server `m` to
/// `servers[m]` as passed to [`CoverageMap::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    /// The paper's `M_k`, row-compressed: the servers covering user `k`
    /// are `user_servers[user_offsets[k]..user_offsets[k + 1]]`,
    /// ascending. One flat array keeps the row writer a sequential pass
    /// instead of one heap row per user.
    user_offsets: Vec<usize>,
    /// Concatenated covering-server rows (see `user_offsets`).
    user_servers: Vec<usize>,
    /// `users_of_server[m]` = sorted indices of users covered by server `m`
    /// (the paper's `K_m`).
    users_of_server: Vec<Vec<usize>>,
    /// User positions, kept so pairwise distances can be computed on
    /// demand instead of storing a dense `M × K` matrix (prohibitive at
    /// city scale: 1000 servers × 50k users would be 400 MB of `f64`s).
    user_points: Vec<Point>,
    /// Server positions (see `user_points`).
    server_points: Vec<Point>,
    coverage_radius_m: f64,
    /// Spatial bucketing of `server_points`, present above
    /// `GRID_MIN_SERVERS` servers. Derived from the server points and
    /// the radius alone, both fixed at construction.
    grid: Option<ServerGrid>,
}

impl CoverageMap {
    /// Builds the coverage relation from user and server positions.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidParameter`] if the coverage radius is
    /// not strictly positive and finite.
    pub fn build(
        users: &[Point],
        servers: &[Point],
        coverage_radius_m: f64,
    ) -> Result<Self, WirelessError> {
        if !(coverage_radius_m.is_finite() && coverage_radius_m > 0.0) {
            return Err(WirelessError::InvalidParameter {
                name: "coverage_radius_m",
                value: coverage_radius_m,
            });
        }
        let mut map = Self {
            user_offsets: Vec::with_capacity(users.len() + 1),
            user_servers: Vec::new(),
            users_of_server: vec![Vec::new(); servers.len()],
            user_points: users.to_vec(),
            server_points: servers.to_vec(),
            coverage_radius_m,
            grid: (servers.len() > GRID_MIN_SERVERS)
                .then(|| ServerGrid::build(servers, coverage_radius_m)),
        };
        map.write_rows();
        Ok(map)
    }

    /// Moves every user to `positions` and recomputes the whole relation
    /// in place, through the same row writer as [`CoverageMap::build`]:
    /// the result equals a build at `positions`, and the existing row and
    /// member-list allocations are reused.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::LengthMismatch`] unless there is exactly
    /// one position per user; the map is left unchanged in that case.
    pub fn set_user_positions(&mut self, positions: &[Point]) -> Result<(), WirelessError> {
        if positions.len() != self.user_points.len() {
            return Err(WirelessError::LengthMismatch {
                entity: "user",
                got: positions.len(),
                expected: self.user_points.len(),
            });
        }
        self.user_points.copy_from_slice(positions);
        self.write_rows();
        Ok(())
    }

    /// Writes every user's covering row from `user_points` in one pass in
    /// user order, refilling the per-server member lists — the transpose
    /// of the rows — in the same pass, each in ascending user order.
    fn write_rows(&mut self) {
        let (servers, radius_m) = (&self.server_points, self.coverage_radius_m);
        self.user_offsets.clear();
        self.user_offsets.push(0);
        self.user_servers.clear();
        for members in &mut self.users_of_server {
            members.clear();
        }
        for (k, &point) in self.user_points.iter().enumerate() {
            let start = self.user_servers.len();
            match &self.grid {
                Some(grid) => grid.covering_servers(point, radius_m, &mut self.user_servers),
                None => append_covering(point, servers, radius_m, &mut self.user_servers),
            }
            for &m in &self.user_servers[start..] {
                self.users_of_server[m].push(k);
            }
            self.user_offsets.push(self.user_servers.len());
        }
    }

    /// Number of users in the topology.
    pub fn num_users(&self) -> usize {
        self.user_points.len()
    }

    /// Number of edge servers in the topology.
    pub fn num_servers(&self) -> usize {
        self.users_of_server.len()
    }

    /// The coverage radius used to build the map, in metres.
    pub fn coverage_radius_m(&self) -> f64 {
        self.coverage_radius_m
    }

    /// The servers covering user `k` (the paper's `M_k`), sorted ascending.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::IndexOutOfRange`] if `k` is out of range.
    pub fn servers_of_user(&self, k: usize) -> Result<&[usize], WirelessError> {
        match (self.user_offsets.get(k), self.user_offsets.get(k + 1)) {
            (Some(&start), Some(&end)) => Ok(&self.user_servers[start..end]),
            _ => Err(WirelessError::IndexOutOfRange {
                entity: "user",
                index: k,
                len: self.num_users(),
            }),
        }
    }

    /// The users associated with server `m` (the paper's `K_m`), sorted
    /// ascending.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::IndexOutOfRange`] if `m` is out of range.
    pub fn users_of_server(&self, m: usize) -> Result<&[usize], WirelessError> {
        self.users_of_server
            .get(m)
            .map(Vec::as_slice)
            .ok_or(WirelessError::IndexOutOfRange {
                entity: "server",
                index: m,
                len: self.users_of_server.len(),
            })
    }

    /// Distance between server `m` and user `k` in metres, computed on
    /// demand from the stored positions.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::IndexOutOfRange`] if either index is out of
    /// range.
    pub fn distance_m(&self, m: usize, k: usize) -> Result<f64, WirelessError> {
        let sp = self
            .server_points
            .get(m)
            .ok_or(WirelessError::IndexOutOfRange {
                entity: "server",
                index: m,
                len: self.server_points.len(),
            })?;
        let up = self
            .user_points
            .get(k)
            .ok_or(WirelessError::IndexOutOfRange {
                entity: "user",
                index: k,
                len: self.user_points.len(),
            })?;
        Ok(sp.distance(*up))
    }

    /// Fraction of covered `(server, user)` pairs among all `M · K`
    /// pairs — the coverage density driving the eligibility
    /// representation choice. Empty topologies report `0.0`.
    pub fn coverage_density(&self) -> f64 {
        let pairs = self.num_servers() * self.num_users();
        if pairs == 0 {
            return 0.0;
        }
        self.user_servers.len() as f64 / pairs as f64
    }

    /// Whether server `m` covers user `k`.
    pub fn covers(&self, m: usize, k: usize) -> bool {
        self.distance_m(m, k)
            .map(|d| d <= self.coverage_radius_m)
            .unwrap_or(false)
    }

    /// Users without any covering server. The paper's formulation counts
    /// their requests as misses; surfacing them helps topology diagnostics.
    pub fn uncovered_users(&self) -> Vec<usize> {
        (0..self.num_users())
            .filter(|&k| self.user_offsets[k] == self.user_offsets[k + 1])
            .collect()
    }

    /// Expected number of *active* users per server given an activity
    /// probability `p_A`, never less than 1 so that an idle cell still
    /// allocates resources to its single requester (the paper allocates
    /// `B / (p_A |K_m|)` to each associated user).
    pub fn expected_active_users(&self, m: usize, activity_probability: f64) -> f64 {
        let count = self
            .users_of_server
            .get(m)
            .map(Vec::len)
            .unwrap_or_default() as f64;
        (activity_probability * count).max(1.0)
    }
}

/// Appends to `found` the ascending indices of the servers within
/// `radius_m` of `point`, by a linear scan of every server.
fn append_covering(point: Point, servers: &[Point], radius_m: f64, found: &mut Vec<usize>) {
    // Branch-free: every index is written, and the length advances only
    // past a covering server.
    let mut len = found.len();
    found.resize(len + servers.len(), 0);
    for (m, sp) in servers.iter().enumerate() {
        found[len] = m;
        len += usize::from(sp.distance(point) <= radius_m);
    }
    found.truncate(len);
}

/// Server count above which [`CoverageMap::build`] buckets the servers
/// into a [`ServerGrid`], so that the row writer finds each user's
/// servers through the grid instead of a linear scan. The choice follows
/// the input alone (the server count), never the users. The grid costs
/// two offset reads per grid row it visits (usually three rows) and one
/// distance test per server in the visited cells; the scan costs one
/// distance test and one write per server. Timed per user (all 2 000
/// users rewritten by `set_user_positions`, median of 41, three rounds)
/// on a 2-core host at ~10 servers per km² and a 275 m radius, the scan
/// wins below ~50 servers (46–48 vs 99–102 ns at 10, 89–108 vs
/// 127–136 ns at 25), the two tie at 50 (160–188 vs 156–162 ns) and the
/// grid wins above (239–282 vs 162–175 ns at 75, 358–376 vs 161–171 ns
/// at 128, 0.72–0.75 µs vs 172–183 ns at 250, 2.8–2.9 µs vs 179–234 ns
/// at 1 000). Rows are identical on either path.
const GRID_MIN_SERVERS: usize = 64;

/// Dense uniform grid over the bounding box of the finite server
/// points, row-major and row-compressed: cell `c = row · cols + col`
/// holds `ids[starts[c]..starts[c + 1]]`, ascending, with each server's
/// point copied alongside in `points`. A grid row's run of neighbouring
/// cells is one contiguous range, so a query reads two offsets per row.
///
/// The cell side starts at the query reach (the radius plus rounding
/// slack) and doubles until there are at most `4 · M` cells, so memory
/// stays O(M) however far apart the servers lie. A server with a
/// non-finite coordinate is left out: its distance to any point is
/// infinite or NaN, so it covers no one.
#[derive(Debug, Clone, PartialEq)]
struct ServerGrid {
    /// Lower-left corner of the bounding box.
    origin: Point,
    cell_m: f64,
    /// How far from a query a covering server can lie: the radius plus
    /// slack for the rounding of the distance predicate.
    reach_m: f64,
    cols: usize,
    rows: usize,
    starts: Vec<u32>,
    ids: Vec<u32>,
    points: Vec<Point>,
}

impl ServerGrid {
    fn build(servers: &[Point], radius_m: f64) -> Self {
        // A computed `distance ≤ r` bounds each coordinate difference by
        // `r · (1 + 4ε)`, and by `1.5e-154` where a square underflows, so
        // every covering server lies within `reach_m` on both axes.
        let reach_m = radius_m * (1.0 + 1e-9) + 1e-150;
        let finite: Vec<(u32, Point)> = (0..)
            .zip(servers.iter().copied())
            .filter(|(_, p)| p.x.is_finite() && p.y.is_finite())
            .collect();
        let corner = finite.first().map_or(Point::default(), |&(_, p)| p);
        let (lo, hi) = finite.iter().fold((corner, corner), |(lo, hi), &(_, p)| {
            (
                Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                Point::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        });
        let (width, height) = (hi.x - lo.x, hi.y - lo.y);
        let max_cells = (4 * servers.len()).max(1) as f64;
        let mut cell_m = reach_m;
        let (cols, rows) = loop {
            let count = |side: f64| (side / cell_m).floor() + 1.0;
            if count(width) * count(height) <= max_cells {
                break (count(width) as usize, count(height) as usize);
            }
            // An extent that overflowed to infinity ends in one cell.
            if !cell_m.is_finite() {
                break (1, 1);
            }
            cell_m *= 2.0;
        };
        let mut grid = Self {
            origin: lo,
            cell_m,
            reach_m,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            ids: Vec::with_capacity(finite.len()),
            points: Vec::with_capacity(finite.len()),
        };
        // A stable sort by cell keeps each cell's ids ascending.
        let mut by_cell: Vec<(usize, u32, Point)> = finite
            .into_iter()
            .map(|(m, p)| (grid.cell_of(p), m, p))
            .collect();
        by_cell.sort_by_key(|&(c, _, _)| c);
        for (c, m, p) in by_cell {
            grid.starts[c + 1] += 1;
            grid.ids.push(m);
            grid.points.push(p);
        }
        for c in 1..grid.starts.len() {
            grid.starts[c] += grid.starts[c - 1];
        }
        grid
    }

    /// The cell holding server point `p` (finite), clamped into the grid.
    fn cell_of(&self, p: Point) -> usize {
        let axis = |v: f64, origin: f64, count: usize| {
            ((((v - origin) / self.cell_m).floor().max(0.0)) as usize).min(count - 1)
        };
        axis(p.y, self.origin.y, self.rows) * self.cols + axis(p.x, self.origin.x, self.cols)
    }

    /// The cells `first..=last` along one axis (`count` cells from
    /// `origin`) that can hold a server within `reach_m` of coordinate
    /// `v`; `None` when there are none. The bounds are the server cell
    /// formula at `v ∓ reach_m`: rounding is monotone, so a server whose
    /// coordinate lies between the two lies between the two cells.
    fn span(&self, v: f64, origin: f64, count: usize) -> Option<(usize, usize)> {
        if count == 1 {
            return Some((0, 0));
        }
        let first = ((v - self.reach_m - origin) / self.cell_m).floor();
        let last = ((v + self.reach_m - origin) / self.cell_m).floor();
        let end = (count - 1) as f64;
        // NaN compares false: a NaN query reaches no cell.
        (last >= 0.0 && first <= end).then(|| (first.max(0.0) as usize, last.min(end) as usize))
    }

    /// Appends to `found` the ascending indices of the servers within
    /// `radius_m` of `point`, using the exact distance predicate of the
    /// linear scan.
    fn covering_servers(&self, point: Point, radius_m: f64, found: &mut Vec<usize>) {
        let start = found.len();
        let (Some((col0, col1)), Some((row0, row1))) = (
            self.span(point.x, self.origin.x, self.cols),
            self.span(point.y, self.origin.y, self.rows),
        ) else {
            return;
        };
        for row in row0..=row1 {
            let first = row * self.cols;
            let run = self.starts[first + col0] as usize..self.starts[first + col1 + 1] as usize;
            for (&m, sp) in self.ids[run.clone()].iter().zip(&self.points[run]) {
                if sp.distance(point) <= radius_m {
                    found.push(m as usize);
                }
            }
        }
        found[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn square_layout() -> (Vec<Point>, Vec<Point>) {
        // Two servers on a line, three users around them.
        let servers = vec![Point::new(0.0, 0.0), Point::new(500.0, 0.0)];
        let users = vec![
            Point::new(100.0, 0.0), // covered by server 0 only
            Point::new(250.0, 0.0), // covered by both (radius 275)
            Point::new(900.0, 0.0), // covered by none
        ];
        (users, servers)
    }

    #[test]
    fn coverage_respects_radius() {
        let (users, servers) = square_layout();
        let map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        assert_eq!(map.num_users(), 3);
        assert_eq!(map.num_servers(), 2);
        assert_eq!(map.servers_of_user(0).unwrap(), &[0]);
        assert_eq!(map.servers_of_user(1).unwrap(), &[0, 1]);
        assert!(map.servers_of_user(2).unwrap().is_empty());
        assert_eq!(map.users_of_server(0).unwrap(), &[0, 1]);
        assert_eq!(map.users_of_server(1).unwrap(), &[1]);
        assert_eq!(map.uncovered_users(), vec![2]);
        assert!(map.covers(0, 0));
        assert!(!map.covers(1, 0));
        assert!(!map.covers(0, 2));
        assert_eq!(map.coverage_radius_m(), 275.0);
        // Three covered pairs out of 2 x 3.
        assert!((map.coverage_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distances_are_exact() {
        let (users, servers) = square_layout();
        let map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        assert_eq!(map.distance_m(0, 0).unwrap(), 100.0);
        assert_eq!(map.distance_m(1, 1).unwrap(), 250.0);
        assert_eq!(map.distance_m(1, 2).unwrap(), 400.0);
    }

    #[test]
    fn out_of_range_queries_error() {
        let (users, servers) = square_layout();
        let map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        assert!(map.servers_of_user(3).is_err());
        assert!(map.users_of_server(2).is_err());
        assert!(map.distance_m(2, 0).is_err());
        assert!(map.distance_m(0, 5).is_err());
        assert!(!map.covers(9, 9));
    }

    #[test]
    fn invalid_radius_is_rejected() {
        let (users, servers) = square_layout();
        assert!(CoverageMap::build(&users, &servers, 0.0).is_err());
        assert!(CoverageMap::build(&users, &servers, f64::NAN).is_err());
    }

    #[test]
    fn expected_active_users_has_floor_of_one() {
        let (users, servers) = square_layout();
        let map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        // Server 0 covers 2 users, activity 0.5 -> exactly 1.0 expected.
        assert_eq!(map.expected_active_users(0, 0.5), 1.0);
        // Server 1 covers 1 user -> floor keeps it at 1.
        assert_eq!(map.expected_active_users(1, 0.5), 1.0);
        // Higher load: 2 users fully active -> 2.
        assert_eq!(map.expected_active_users(0, 1.0), 2.0);
        // Unknown server index degrades gracefully to the floor.
        assert_eq!(map.expected_active_users(99, 0.5), 1.0);
    }

    #[test]
    fn set_user_positions_matches_full_rebuild() {
        let (users, servers) = square_layout();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        // User 0 leaves all coverage, user 2 enters server 1's cell and
        // user 1 moves within its current cells (distance-only change).
        let moved = vec![
            Point::new(950.0, 950.0),
            Point::new(260.0, 0.0),
            Point::new(520.0, 0.0),
        ];
        map.set_user_positions(&moved).unwrap();
        assert_eq!(map, CoverageMap::build(&moved, &servers, 275.0).unwrap());
        assert_eq!(map.users_of_server(0).unwrap(), &[1]);
        assert_eq!(map.users_of_server(1).unwrap(), &[1, 2]);
        assert_eq!(map.uncovered_users(), vec![0]);
    }

    #[test]
    fn set_user_positions_rejects_wrong_lengths() {
        let (users, servers) = square_layout();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        let original = map.clone();
        for positions in [&users[..2], &[users.as_slice(), &users[..1]].concat()[..]] {
            assert_eq!(
                map.set_user_positions(positions),
                Err(WirelessError::LengthMismatch {
                    entity: "user",
                    got: positions.len(),
                    expected: 3,
                })
            );
            assert_eq!(map, original);
        }
        // The current positions rebuild the same relation.
        map.set_user_positions(&users).unwrap();
        assert_eq!(map, original);
    }

    /// Requires every row of `map`, both directions, to equal the
    /// all-pairs definition `distance ≤ radius` over the given points.
    fn assert_rows_match_definition(map: &CoverageMap, users: &[Point], servers: &[Point]) {
        let radius_m = map.coverage_radius_m();
        let covers = |m: usize, k: usize| servers[m].distance(users[k]) <= radius_m;
        for k in 0..users.len() {
            let expected: Vec<usize> = (0..servers.len()).filter(|&m| covers(m, k)).collect();
            assert_eq!(map.servers_of_user(k).unwrap(), expected, "row of user {k}");
        }
        for m in 0..servers.len() {
            let expected: Vec<usize> = (0..users.len()).filter(|&k| covers(m, k)).collect();
            assert_eq!(map.users_of_server(m).unwrap(), expected, "members of {m}");
        }
    }

    #[test]
    fn grid_accelerated_rescan_matches_full_rebuild() {
        // A deployment above the spatial-grid threshold
        // (`GRID_MIN_SERVERS`): 300 servers.
        let servers: Vec<Point> = (0..300)
            .map(|i| Point::new((i * 137 % 2000) as f64, (i * 353 % 2000) as f64))
            .collect();
        // Scattered users plus users exactly one radius from a server,
        // on the covered side of the predicate.
        let mut users: Vec<Point> = (0..150)
            .map(|k| Point::new((k * 211 % 2000) as f64, (k * 97 % 2000) as f64))
            .chain(servers[..20].iter().map(|s| s.translated(275.0, 0.0)))
            .chain(servers[20..40].iter().map(|s| s.translated(0.0, -275.0)))
            .collect();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        assert!(map.grid.is_some(), "many servers build the grid");
        assert_rows_match_definition(&map, &users, &servers);
        assert!(map.coverage_density() > 0.0);

        // An in-place update of 120 users runs the same grid pass.
        for (j, user) in users.iter_mut().enumerate().take(120) {
            *user = Point::new(
                ((j * 449 + 31) % 2000) as f64,
                ((j * 283 + 7) % 2000) as f64,
            );
        }
        map.set_user_positions(&users).unwrap();
        assert_rows_match_definition(&map, &users, &servers);
    }

    /// A random layout of `kind` with its coverage radius:
    ///
    /// 0. servers uniform over a square anywhere in `±1e5` m;
    /// 1. the same plus servers at `(±1e12, ±1e12)`, so the bounding
    ///    box is huge and the cell side has to grow;
    /// 2. a lattice whose spacing is the grid's cell side, so servers
    ///    sit exactly on cell edges;
    /// 3. every server inside one cell;
    /// 4. every server on one horizontal line (a single grid row).
    ///
    /// Users mix uniform points over the box grown by two radii,
    /// points exactly one radius from a server along an axis (on the
    /// covered side of the predicate), far points at `±1e12` m and one
    /// NaN and one infinite point.
    fn random_layout(kind: u8, rng: &mut StdRng) -> (Vec<Point>, Vec<Point>, f64) {
        let radius_m = [275.0, rng.gen_range(10.0..2_000.0)][rng.gen_range(0..2)];
        let num_servers = rng.gen_range(GRID_MIN_SERVERS + 1..400);
        let origin = Point::new(rng.gen_range(-1e5..1e5), rng.gen_range(-1e5..1e5));
        let side_m = match kind {
            3 => radius_m * rng.gen_range(0.01..0.9),
            _ => rng.gen_range(1_000.0..20_000.0),
        };
        let uniform = |rng: &mut StdRng, pad: f64| {
            origin.translated(
                rng.gen_range(-pad..side_m + pad),
                rng.gen_range(-pad..side_m + pad),
            )
        };
        let mut servers: Vec<Point> = match kind {
            2 => {
                let cell_m = ServerGrid::build(&[origin], radius_m).reach_m;
                (0..num_servers)
                    .map(|m| origin.translated((m % 20) as f64 * cell_m, (m / 20) as f64 * cell_m))
                    .collect()
            }
            4 => (0..num_servers)
                .map(|_| origin.translated(rng.gen_range(0.0..side_m), 0.0))
                .collect(),
            _ => (0..num_servers).map(|_| uniform(rng, 0.0)).collect(),
        };
        if kind == 1 {
            for (m, &(x, y)) in [(1e12, 1e12), (-1e12, 1e12), (1e12, -1e12), (-1e12, -1e12)]
                .iter()
                .enumerate()
            {
                servers[m * 7] = Point::new(x, y);
            }
        }
        let mut users: Vec<Point> = (0..150).map(|_| uniform(rng, 2.0 * radius_m)).collect();
        for _ in 0..40 {
            let s = servers[rng.gen_range(0..servers.len())];
            let (dx, dy) = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)][rng.gen_range(0..4)];
            users.push(s.translated(dx * radius_m, dy * radius_m));
        }
        for &(x, y) in &[(1e12, 1e12), (-1e12, 3.0), (7.0, -1e12), (-1e12, -1e12)] {
            users.push(Point::new(x, y));
            users.push(Point::new(x, y).translated(radius_m * 0.5, -radius_m * 0.5));
        }
        users.push(Point::new(f64::NAN, origin.y));
        users.push(Point::new(origin.x, f64::INFINITY));
        (users, servers, radius_m)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn dense_grid_rows_match_the_definition(seed in proptest::any::<u64>(), kind in 0u8..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut users, servers, radius_m) = random_layout(kind, &mut rng);
            let mut map = CoverageMap::build(&users, &servers, radius_m).unwrap();
            let grid = map.grid.as_ref().expect("above the threshold the grid is built");
            proptest::prop_assert!(grid.starts.len() - 1 <= 4 * servers.len());
            if kind == 3 {
                proptest::prop_assert_eq!(grid.starts.len() - 1, 1);
            }
            assert_rows_match_definition(&map, &users, &servers);
            // The in-place update goes through the same grid.
            users.reverse();
            map.set_user_positions(&users).unwrap();
            assert_rows_match_definition(&map, &users, &servers);
        }
    }

    #[test]
    fn a_one_server_grid_matches_the_scan() {
        let server = [Point::new(-40.0, 12.5)];
        let grid = ServerGrid::build(&server, 275.0);
        assert_eq!((grid.cols, grid.rows), (1, 1));
        let queries = [
            Point::new(-40.0, 12.5),
            server[0].translated(275.0, 0.0),
            server[0].translated(0.0, -275.0),
            server[0].translated(275.0, 1e-9),
            Point::new(1e12, -1e12),
            Point::new(f64::NAN, 0.0),
        ];
        for q in queries {
            let (mut scan, mut found) = (Vec::new(), Vec::new());
            append_covering(q, &server, 275.0, &mut scan);
            grid.covering_servers(q, 275.0, &mut found);
            assert_eq!(found, scan, "query {q:?}");
        }
    }

    #[test]
    fn non_finite_and_overflowing_servers_keep_the_grid_small() {
        // The finite extent overflows to infinity: one cell, and the
        // servers that are not finite are left out of it.
        let servers = [
            Point::new(-1.5e308, 0.0),
            Point::new(1.5e308, 0.0),
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 0.0),
            Point::new(3.0, f64::NAN),
        ];
        let grid = ServerGrid::build(&servers, 275.0);
        assert_eq!((grid.cols, grid.rows, grid.ids.len()), (1, 1, 3));
        for q in [
            Point::new(1.5e308, 100.0),
            Point::new(10.0, 0.0),
            Point::new(f64::INFINITY, 0.0),
        ] {
            let (mut scan, mut found) = (Vec::new(), Vec::new());
            append_covering(q, &servers, 275.0, &mut scan);
            grid.covering_servers(q, 275.0, &mut found);
            assert_eq!(found, scan, "query {q:?}");
        }
    }

    #[test]
    fn empty_topologies_are_allowed() {
        let map = CoverageMap::build(&[], &[], 275.0).unwrap();
        assert_eq!(map.num_users(), 0);
        assert_eq!(map.num_servers(), 0);
        assert!(map.uncovered_users().is_empty());
    }
}
