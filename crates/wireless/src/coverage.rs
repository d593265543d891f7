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
                Some(grid) => {
                    grid.covering_servers(point, servers, radius_m, &mut self.user_servers)
                }
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
/// nine bucket lookups per user; a linear scan costs one distance test
/// and one write per server. Timed per user (all 2 000 users rewritten,
/// so the pass over the rows is included) on a 2-core host at ~10
/// servers per km² and a 275 m radius, the scan wins up to ~150 servers
/// (80 vs 215 ns at 10 servers, 350 vs 450 ns at 100, about 500 ns each
/// at 150) and the grid above (750 vs 630 ns at 250, 1.3 vs 0.66–0.88 µs
/// at 500, 2.7 vs 0.80–1.06 µs at 1 000).
const GRID_MIN_SERVERS: usize = 128;

/// Uniform hash grid over server points with cell side equal to the
/// coverage radius: every server within one radius of a query point lies
/// in the 3 × 3 cell neighbourhood of the query's cell.
#[derive(Debug, Clone, PartialEq)]
struct ServerGrid {
    cell_m: f64,
    /// Ordered by cell coordinate so bucket iteration (if ever added)
    /// is deterministic; lookups stay `O(log cells)`.
    buckets: std::collections::BTreeMap<(i64, i64), Vec<u32>>,
}

impl ServerGrid {
    fn cell_of(point: Point, cell_m: f64) -> (i64, i64) {
        (
            (point.x / cell_m).floor() as i64,
            (point.y / cell_m).floor() as i64,
        )
    }

    fn build(servers: &[Point], cell_m: f64) -> Self {
        let mut buckets: std::collections::BTreeMap<(i64, i64), Vec<u32>> =
            std::collections::BTreeMap::new();
        for (m, sp) in servers.iter().enumerate() {
            buckets
                .entry(Self::cell_of(*sp, cell_m))
                .or_default()
                .push(m as u32);
        }
        Self { cell_m, buckets }
    }

    /// Appends to `found` the ascending indices of the servers within
    /// `radius_m` of `point`, using the exact distance predicate of the
    /// linear scan.
    fn covering_servers(
        &self,
        point: Point,
        servers: &[Point],
        radius_m: f64,
        found: &mut Vec<usize>,
    ) {
        let (cx, cy) = Self::cell_of(point, self.cell_m);
        let start = found.len();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) {
                    for &m in bucket {
                        if servers[m as usize].distance(point) <= radius_m {
                            found.push(m as usize);
                        }
                    }
                }
            }
        }
        found[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let covers = |m: usize, k: usize| servers[m].distance(users[k]) <= 275.0;
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

    #[test]
    fn empty_topologies_are_allowed() {
        let map = CoverageMap::build(&[], &[], 275.0).unwrap();
        assert_eq!(map.num_users(), 0);
        assert_eq!(map.num_servers(), 0);
        assert!(map.uncovered_users().is_empty());
    }
}
