//! Coverage and association between users and edge servers.
//!
//! A user `k` is covered by edge server `m` when their distance is at most
//! the coverage radius (275 m in the paper). `M_k` denotes the set of edge
//! servers covering user `k` and `K_m` the set of users associated with
//! server `m`; both are precomputed by [`CoverageMap`].

use crate::error::WirelessError;
use crate::geometry::Point;

/// Summary of one incremental [`CoverageMap::apply_user_moves`] update.
///
/// The delta names the users whose position changed and the servers whose
/// coverage relation was *touched* — every server that covered a moved
/// user before or after the move (its member set, its members' distances,
/// or both may have changed). Downstream layers use it to re-derive only
/// the affected rows of the allocation, rate and eligibility state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageDelta {
    /// Users whose position changed, ascending and deduplicated.
    moved_users: Vec<usize>,
    /// Touched server indices, ascending and deduplicated.
    touched_servers: Vec<usize>,
}

impl CoverageDelta {
    /// Users whose position changed, ascending.
    pub fn moved_users(&self) -> &[usize] {
        &self.moved_users
    }

    /// Touched server indices, ascending.
    pub fn touched_servers(&self) -> &[usize] {
        &self.touched_servers
    }

    /// Whether the update changed nothing.
    pub fn is_empty(&self) -> bool {
        self.moved_users.is_empty()
    }
}

/// Precomputed coverage relation between users and edge servers.
///
/// Indices are positional: user `k` refers to `users[k]` and server `m` to
/// `servers[m]` as passed to [`CoverageMap::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    /// The paper's `M_k`, row-compressed: the servers covering user `k`
    /// are `user_servers[user_offsets[k]..user_offsets[k + 1]]`,
    /// ascending. One flat array keeps a batch update a sequential pass
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
    /// Lazily built spatial bucketing of `server_points`, reused across
    /// [`CoverageMap::apply_user_moves`] batches. Purely derived state:
    /// ignored by equality and rebuilt on demand. Any future API that
    /// mutates `server_points` must reset this with
    /// `GridCache::default()`.
    grid: GridCache,
}

/// Cached [`ServerGrid`] wrapper that is invisible to comparisons —
/// two maps with identical coverage state are equal whether or not
/// either has materialised its grid yet.
#[derive(Debug, Clone, Default)]
struct GridCache(Option<ServerGrid>);

impl PartialEq for GridCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
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
        let mut user_offsets = Vec::with_capacity(users.len() + 1);
        user_offsets.push(0);
        let mut user_servers = Vec::new();
        let mut users_of_server = vec![Vec::new(); servers.len()];
        for (k, up) in users.iter().enumerate() {
            for (m, sp) in servers.iter().enumerate() {
                let d = sp.distance(*up);
                if d <= coverage_radius_m {
                    user_servers.push(m);
                    users_of_server[m].push(k);
                }
            }
            user_offsets.push(user_servers.len());
        }
        Ok(Self {
            user_offsets,
            user_servers,
            users_of_server,
            user_points: users.to_vec(),
            server_points: servers.to_vec(),
            coverage_radius_m,
            grid: GridCache::default(),
        })
    }

    /// Applies a batch of user moves in place, recomputing the coverage
    /// rows of exactly the moved users and refilling the per-server
    /// member lists (which stay sorted ascending, as
    /// [`CoverageMap::build`] produces them). The result is
    /// indistinguishable from rebuilding the map from scratch with the
    /// updated positions, at a cost of `O(moves × M)` distance checks
    /// instead of `O(K × M)`, plus one sequential pass over the `K`
    /// covering rows that rewrites them and refills the member lists.
    ///
    /// Moves to the current position are ignored (they touch nothing).
    /// When `moves` lists the same user more than once the last entry
    /// wins, matching sequential application: coverage depends on the
    /// final positions only, so the delta names exactly the users whose
    /// final position differs and the servers covering them before or
    /// after the batch.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::IndexOutOfRange`] if a move names an
    /// unknown user; the map is left unchanged in that case.
    pub fn apply_user_moves(
        &mut self,
        moves: &[(usize, Point)],
    ) -> Result<CoverageDelta, WirelessError> {
        let num_users = self.user_points.len();
        for &(k, _) in moves {
            if k >= num_users {
                return Err(WirelessError::IndexOutOfRange {
                    entity: "user",
                    index: k,
                    len: num_users,
                });
            }
        }
        if moves.is_empty() {
            return Ok(CoverageDelta {
                moved_users: Vec::new(),
                touched_servers: Vec::new(),
            });
        }
        // A batch in strictly ascending user order — what
        // `Scenario::update_user_positions` builds — is applied as it
        // stands. Any other batch is first reduced to each user's last
        // move in user order; that is the only sort the update pays.
        let reduced: Vec<(usize, Point)>;
        let moves = if moves.windows(2).all(|w| w[0].0 < w[1].0) {
            moves
        } else {
            reduced = last_move_per_user(moves);
            &reduced
        };
        // Above `GRID_MIN_SERVERS` servers a spatial bucketing of the
        // server points pays: each mover then probes only the servers of
        // its 3 × 3 cell neighbourhood instead of all M (the distance
        // predicate itself is unchanged, so the resulting rows are
        // identical to a linear rescan). The grid is built once and
        // cached in the map — server positions never change after
        // construction, so every later batch reuses it.
        if self.server_points.len() > GRID_MIN_SERVERS && self.grid.0.is_none() {
            self.grid.0 = Some(ServerGrid::build(
                &self.server_points,
                self.coverage_radius_m,
            ));
        }
        let grid = self.grid.0.as_ref();
        let (servers, radius_m) = (&self.server_points, self.coverage_radius_m);
        let (old_offsets, old_servers) = (&self.user_offsets, &self.user_servers);
        let mut moved: Vec<usize> = Vec::new();
        // Every server covering a mover before or after its move is
        // touched (member set or member distance changed).
        let mut touched = vec![false; servers.len()];
        // The rows are rewritten in one pass in user order: a mover's
        // covering set is written straight into the new flat array,
        // every other row is copied. The member lists are the transpose
        // of the rows, so the same pass refills them (keeping their
        // allocations), each in ascending user order.
        for members in &mut self.users_of_server {
            members.clear();
        }
        let mut user_offsets = Vec::with_capacity(num_users + 1);
        user_offsets.push(0);
        let mut user_servers = Vec::with_capacity(old_servers.len() + servers.len());
        let mut pending = moves.iter().peekable();
        for k in 0..num_users {
            let old = &old_servers[old_offsets[k]..old_offsets[k + 1]];
            let start = user_servers.len();
            match pending.next_if(|&&(u, _)| u == k) {
                Some(&(_, position)) if self.user_points[k] != position => {
                    self.user_points[k] = position;
                    moved.push(k);
                    match grid {
                        Some(grid) => {
                            grid.covering_servers(position, servers, radius_m, &mut user_servers);
                        }
                        None => append_covering(position, servers, radius_m, &mut user_servers),
                    }
                    for &m in old.iter().chain(&user_servers[start..]) {
                        touched[m] = true;
                    }
                }
                _ => user_servers.extend_from_slice(old),
            }
            for &m in &user_servers[start..] {
                self.users_of_server[m].push(k);
            }
            user_offsets.push(user_servers.len());
        }
        self.user_offsets = user_offsets;
        self.user_servers = user_servers;
        Ok(CoverageDelta {
            moved_users: moved,
            touched_servers: (0..touched.len()).filter(|&m| touched[m]).collect(),
        })
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

/// Each user's last move in `moves`, in ascending user order.
fn last_move_per_user(moves: &[(usize, Point)]) -> Vec<(usize, Point)> {
    let mut reduced = moves.to_vec();
    // Stable: a user's moves keep their batch order, so the last of
    // each run is the user's last move.
    reduced.sort_by_key(|&(k, _)| k);
    let mut last: Vec<(usize, Point)> = Vec::with_capacity(reduced.len());
    for (k, position) in reduced {
        match last.last_mut() {
            Some(prev) if prev.0 == k => prev.1 = position,
            _ => last.push((k, position)),
        }
    }
    last
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

/// Server count above which [`CoverageMap::apply_user_moves`] finds a
/// mover's servers through a [`ServerGrid`] instead of a linear scan.
/// The grid costs nine bucket lookups per mover; a linear scan costs one
/// distance test and one write per server. Timed per mover (batches in
/// which all 2 000 users move, so the pass over the rows is included)
/// on a 2-core host at ~10 servers per km² and a 275 m radius, the scan
/// wins up to ~150 servers (80 vs 215 ns at 10 servers, 350 vs 450 ns
/// at 100, about 500 ns each at 150) and the grid above (750 vs 630 ns
/// at 250, 1.3 vs 0.66–0.88 µs at 500, 2.7 vs 0.80–1.06 µs at 1 000).
const GRID_MIN_SERVERS: usize = 128;

/// Uniform hash grid over server points with cell side equal to the
/// coverage radius: every server within one radius of a query point lies
/// in the 3 × 3 cell neighbourhood of the query's cell.
#[derive(Debug, Clone)]
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
    fn apply_user_moves_matches_full_rebuild() {
        let (mut users, servers) = square_layout();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        // Move user 0 out of all coverage, user 2 into server 1's cell,
        // and user 1 within its current cells (distance-only change).
        let moves = vec![
            (0usize, Point::new(950.0, 950.0)),
            (2usize, Point::new(520.0, 0.0)),
            (1usize, Point::new(260.0, 0.0)),
        ];
        let delta = map.apply_user_moves(&moves).unwrap();
        for &(k, p) in &moves {
            users[k] = p;
        }
        let rebuilt = CoverageMap::build(&users, &servers, 275.0).unwrap();
        assert_eq!(map, rebuilt);
        assert_eq!(delta.moved_users(), &[0, 1, 2]);
        // Server 0 lost user 0 (and user 1 moved within it); server 1
        // gained user 2.
        assert_eq!(delta.touched_servers(), &[0, 1]);
        assert!(!delta.is_empty());
    }

    #[test]
    fn apply_user_moves_ignores_no_ops_and_rejects_bad_indices() {
        let (users, servers) = square_layout();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        let original = map.clone();
        // Moving a user to its current position changes nothing.
        let delta = map.apply_user_moves(&[(1, users[1])]).unwrap();
        assert!(delta.is_empty());
        assert!(delta.touched_servers().is_empty());
        assert_eq!(map, original);
        // Unknown users are rejected and leave the map untouched.
        assert!(map.apply_user_moves(&[(9, Point::new(0.0, 0.0))]).is_err());
        assert_eq!(map, original);
        // Duplicate entries: the last move wins.
        let mut a = map.clone();
        a.apply_user_moves(&[(0, Point::new(900.0, 900.0)), (0, Point::new(120.0, 0.0))])
            .unwrap();
        let mut b = map.clone();
        b.apply_user_moves(&[(0, Point::new(120.0, 0.0))]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn grid_accelerated_rescan_matches_full_rebuild() {
        // A deployment above the spatial-grid threshold
        // (`GRID_MIN_SERVERS`): 300 servers, 120 movers.
        let servers: Vec<Point> = (0..300)
            .map(|i| Point::new((i * 137 % 2000) as f64, (i * 353 % 2000) as f64))
            .collect();
        let mut users: Vec<Point> = (0..150)
            .map(|k| Point::new((k * 211 % 2000) as f64, (k * 97 % 2000) as f64))
            .collect();
        let mut map = CoverageMap::build(&users, &servers, 275.0).unwrap();
        let moves: Vec<(usize, Point)> = (0..120)
            .map(|j| {
                (
                    j,
                    Point::new(
                        ((j * 449 + 31) % 2000) as f64,
                        ((j * 283 + 7) % 2000) as f64,
                    ),
                )
            })
            .collect();
        map.apply_user_moves(&moves).unwrap();
        for &(k, p) in &moves {
            users[k] = p;
        }
        // The freshly rebuilt map has no materialised grid; equality
        // ignores the cache and compares coverage state only.
        assert_eq!(map, CoverageMap::build(&users, &servers, 275.0).unwrap());
        assert!(map.grid.0.is_some(), "many servers materialise the grid");

        // A second batch reuses the cached grid (instead of
        // re-bucketing all servers) and still matches a full rebuild.
        let moves2: Vec<(usize, Point)> = (0..120)
            .map(|j| {
                (
                    j + 30,
                    Point::new(
                        ((j * 631 + 59) % 2000) as f64,
                        ((j * 173 + 11) % 2000) as f64,
                    ),
                )
            })
            .collect();
        map.apply_user_moves(&moves2).unwrap();
        for &(k, p) in &moves2 {
            users[k] = p;
        }
        assert_eq!(map, CoverageMap::build(&users, &servers, 275.0).unwrap());
    }

    #[test]
    fn empty_topologies_are_allowed() {
        let map = CoverageMap::build(&[], &[], 275.0).unwrap();
        assert_eq!(map.num_users(), 0);
        assert_eq!(map.num_servers(), 0);
        assert!(map.uncovered_users().is_empty());
    }
}
