//! Representations of the service-eligibility indicator `I1(m, k, i)`
//! (Eq. 3) behind one common [`EligibilityView`] trait.
//!
//! Every placement algorithm and the online serving engine consume the
//! indicator through [`EligibilityView`] rather than through a concrete
//! array, so the storage layout can be chosen per scenario:
//!
//! * [`EligibilityTensor`] — the original **dense** `M × K × I` cube,
//!   stored as one bitset of users per `(server, model)` cell.
//!   Constant-time point queries, `M · I · ⌈K/64⌉` words of memory, and
//!   marginal gains scored 64 users per word. The right choice for
//!   paper-scale snapshots (tens of servers, up to thousands of users).
//! * [`SparseEligibility`] — a **coverage-pruned CSR** representation:
//!   for every request class `(k, i)` a sorted list of candidate servers,
//!   plus a per-server reverse index grouping eligible users by model.
//!   Memory is proportional to the number of eligible triples, which in
//!   city-scale deployments (1000+ servers, each user covered by a
//!   handful of them) is orders of magnitude below `M · K · I`.
//!
//! [`Eligibility`] wraps the two behind one enum so [`crate::Scenario`]
//! can hold either without generics, and [`EligibilityRepr`] is the
//! builder-level knob selecting a representation (`Auto` by default; see
//! [`EligibilityRepr::resolved`] for the policy).
//!
//! The iterator-returning methods ([`EligibilityView::servers_for`],
//! [`EligibilityView::users_for`], [`EligibilityView::server_models`],
//! [`EligibilityView::pairs_for_server`]) are the primitives that make
//! marginal-gain loops scale: a greedy step touches only eligible
//! triples instead of scanning the full `K × I` plane per server. All
//! iterators yield indices in ascending order for every representation,
//! so floating-point accumulation orders — and therefore hit ratios —
//! are bit-identical between the dense and sparse paths.

use trimcaching_modellib::ModelId;

use crate::entities::UserId;

/// Read-only view of the eligibility indicator `I1(m, k, i)`.
///
/// Implementations must report dimensions consistently and yield all
/// iterator items in ascending index order (servers ascending, users
/// ascending, models ascending, pairs in `(user, model)` lexicographic
/// order), so downstream float accumulations are representation
/// independent.
pub trait EligibilityView: std::fmt::Debug {
    /// Number of edge servers `M`.
    fn num_servers(&self) -> usize;

    /// Number of users `K`.
    fn num_users(&self) -> usize;

    /// Number of models `I`.
    fn num_models(&self) -> usize;

    /// Whether server `m` can serve user `k`'s request for model `i`
    /// within the deadline. Out-of-range indices return `false`.
    fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool;

    /// The candidate servers able to serve `(user, model)`, ascending.
    fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_>;

    /// The users server `m` can serve for `model`, ascending.
    fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_>;

    /// The models server `m` can serve for at least one user, ascending.
    ///
    /// Greedy placement loops iterate this instead of `0..I`: a model no
    /// user can receive from `m` within deadline has zero marginal gain
    /// forever and never needs a gain evaluation.
    fn server_models(&self, m: usize) -> ServerModels<'_>;

    /// All `(user, model)` request classes server `m` can serve, in
    /// `(user, model)` lexicographic order.
    fn pairs_for_server(&self, m: usize) -> PairsForServer<'_>;

    /// Number of eligible `(m, k, i)` triples.
    fn num_eligible(&self) -> usize;

    /// Fraction of eligible triples among all `M · K · I` cells.
    fn density(&self) -> f64 {
        let cells = self.num_servers() * self.num_users() * self.num_models();
        if cells == 0 {
            0.0
        } else {
            self.num_eligible() as f64 / cells as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Per-user candidate rows
// ---------------------------------------------------------------------------

/// Candidate-server lists of a batch of users, in the form the per-user
/// eligibility kernel ([`crate::latency::LatencyEvaluator`]) emits them:
/// row `u · I + i` holds, ascending, the servers able to serve the
/// batch's `u`-th user for model `i`. Both representations are built
/// from these rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CandidateRows {
    num_models: usize,
    /// CSR offsets, length `rows + 1`.
    offsets: Vec<usize>,
    /// Candidate server indices, ascending within each row.
    servers: Vec<u32>,
}

impl CandidateRows {
    /// An empty batch over `num_models` models, with room for the rows
    /// of `users` users.
    pub(crate) fn with_capacity(num_models: usize, users: usize) -> Self {
        let mut offsets = Vec::with_capacity(users * num_models + 1);
        offsets.push(0);
        Self {
            num_models,
            offsets,
            servers: Vec::new(),
        }
    }

    /// Number of complete rows.
    fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends one candidate server to the row being filled.
    pub(crate) fn push_server(&mut self, m: usize) {
        self.servers.push(m as u32);
    }

    /// Closes the row being filled (servers pushed since the last close,
    /// ascending).
    pub(crate) fn end_row(&mut self) {
        self.offsets.push(self.servers.len());
    }

    /// The candidate servers of the batch's `u`-th user for model `i`.
    pub(crate) fn row(&self, u: usize, i: usize) -> &[u32] {
        let row = u * self.num_models + i;
        &self.servers[self.offsets[row]..self.offsets[row + 1]]
    }

    /// Drops every row, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.offsets.truncate(1);
        self.servers.clear();
    }
}

// ---------------------------------------------------------------------------
// Dense representation
// ---------------------------------------------------------------------------

/// Precomputed dense `I1(m, k, i)` indicator for all (server, user, model)
/// triples, stored as one bitset of users per `(server, model)` cell.
///
/// Cell `(m, i)` is the `W = ⌈K/64⌉` words
/// `bits[(m · I + i) · W..][..W]`; user `k` is bit `k % 64` of word
/// `k / 64`, and the bits past `K` in the last word stay zero. The cube
/// takes `M · I · ⌈K/64⌉` words: a point query is one bit test, a
/// cell's users are its set bits, and the greedy solvers score a pair
/// 64 users per word (see [`crate::Coverage`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EligibilityTensor {
    num_servers: usize,
    num_users: usize,
    num_models: usize,
    /// Words per cell, `⌈K/64⌉`.
    words: usize,
    /// `M · I` user bitsets of `words` words each, cell `m · I + i`.
    bits: Vec<u64>,
    /// `cell_users[m * I + i]` — how many users are eligible at
    /// `(m, i)`; lets [`EligibilityView::server_models`] answer in `O(1)`
    /// per model.
    cell_users: Vec<u32>,
}

impl EligibilityTensor {
    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// Whether server `m` can serve user `k`'s request for model `i` within
    /// the deadline. Out-of-range indices return `false`.
    pub fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        let (k, i) = (user.index(), model.index());
        if m >= self.num_servers || k >= self.num_users || i >= self.num_models {
            return false;
        }
        bit_is_set(self.cell(m, i), k)
    }

    /// Number of eligible `(m, k, i)` triples — a coarse measure of how
    /// permissive the latency constraints are.
    pub fn num_eligible(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// An all-ineligible tensor.
    fn empty(num_servers: usize, num_users: usize, num_models: usize) -> Self {
        let words = num_users.div_ceil(64);
        Self {
            num_servers,
            num_users,
            num_models,
            words,
            bits: vec![0; num_servers * num_models * words],
            cell_users: vec![0; num_servers * num_models],
        }
    }

    /// The user bitset of cell `(m, i)`; both indices must be in range.
    fn cell(&self, m: usize, i: usize) -> &[u64] {
        let start = (m * self.num_models + i) * self.words;
        &self.bits[start..start + self.words]
    }

    /// Sets the `(m, k, i)` bit, keeping `cell_users` exact.
    fn insert(&mut self, m: usize, k: usize, i: usize) {
        let cell = m * self.num_models + i;
        let word = &mut self.bits[cell * self.words + k / 64];
        let mask = 1u64 << (k % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.cell_users[cell] += 1;
        }
    }

    /// Builds a tensor directly from a closure; exposed for tests and for
    /// synthetic experiments that bypass the radio model.
    pub fn from_fn<F>(num_servers: usize, num_users: usize, num_models: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize) -> bool,
    {
        let mut tensor = Self::empty(num_servers, num_users, num_models);
        for m in 0..num_servers {
            for k in 0..num_users {
                for i in 0..num_models {
                    if f(m, k, i) {
                        tensor.insert(m, k, i);
                    }
                }
            }
        }
        tensor
    }

    /// Builds a tensor one user at a time: `fill(k, rows)` appends user
    /// `k`'s `I` candidate rows to an empty one-user batch, and their
    /// servers' bits are set. Only one user's rows are ever staged.
    pub(crate) fn from_user_rows<F, E>(
        num_servers: usize,
        num_users: usize,
        num_models: usize,
        mut fill: F,
    ) -> Result<Self, E>
    where
        F: FnMut(usize, &mut CandidateRows) -> Result<(), E>,
    {
        let mut tensor = Self::empty(num_servers, num_users, num_models);
        let mut rows = CandidateRows::with_capacity(num_models, 1);
        for k in 0..num_users {
            rows.clear();
            fill(k, &mut rows)?;
            debug_assert_eq!(rows.num_rows(), num_models, "one user's rows per call");
            for i in 0..num_models {
                for &m in rows.row(0, i) {
                    tensor.insert(m as usize, k, i);
                }
            }
        }
        Ok(tensor)
    }
}

impl EligibilityView for EligibilityTensor {
    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_models(&self) -> usize {
        self.num_models
    }

    fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        EligibilityTensor::eligible(self, m, user, model)
    }

    fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_> {
        if user.index() >= self.num_users || model.index() >= self.num_models {
            return ServersFor(ServersForInner::Empty);
        }
        ServersFor(ServersForInner::Dense {
            tensor: self,
            user,
            model,
            next: 0,
        })
    }

    fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_> {
        if m >= self.num_servers || model.index() >= self.num_models {
            return UsersFor(UsersForInner::Empty);
        }
        let cell = self.cell(m, model.index());
        UsersFor(UsersForInner::Dense {
            cell,
            word: 0,
            bits: cell.first().copied().unwrap_or(0),
        })
    }

    fn server_models(&self, m: usize) -> ServerModels<'_> {
        if m >= self.num_servers {
            return ServerModels(ServerModelsInner::Empty);
        }
        ServerModels(ServerModelsInner::Dense {
            cell_users: &self.cell_users[m * self.num_models..(m + 1) * self.num_models],
            next: 0,
        })
    }

    fn pairs_for_server(&self, m: usize) -> PairsForServer<'_> {
        if m >= self.num_servers {
            return PairsForServer(PairsForServerInner::Empty);
        }
        let plane = self.num_models * self.words;
        PairsForServer(PairsForServerInner::Dense {
            cells: &self.bits[m * plane..(m + 1) * plane],
            num_users: self.num_users,
            num_models: self.num_models,
            next: 0,
        })
    }

    fn num_eligible(&self) -> usize {
        EligibilityTensor::num_eligible(self)
    }
}

// ---------------------------------------------------------------------------
// Sparse representation
// ---------------------------------------------------------------------------

/// Coverage-pruned CSR representation of the eligibility indicator.
///
/// Two index structures are kept, both proportional to the number of
/// eligible triples rather than to `M · K · I`:
///
/// * **forward**: for every request class `(k, i)` (row `k · I + i`) a
///   sorted list of candidate server indices — the set a request needs to
///   probe when looking for a cache hit;
/// * **reverse**: for every server `m` a model-major CSR (row `m · I + i`)
///   of the users `m` can serve for model `i` — the set a marginal-gain
///   evaluation needs to walk.
///
/// Construction never materialises the dense cube; see
/// [`crate::latency::LatencyEvaluator::sparse_eligibility`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseEligibility {
    num_servers: usize,
    num_users: usize,
    num_models: usize,
    /// Forward CSR offsets, length `K · I + 1`; row `k · I + i`.
    pair_offsets: Vec<usize>,
    /// Candidate server indices, ascending within each forward row.
    pair_servers: Vec<u32>,
    /// Reverse CSR offsets, length `M · I + 1`; row `m · I + i`.
    server_model_offsets: Vec<usize>,
    /// Eligible user indices, ascending within each reverse row.
    server_users: Vec<u32>,
}

impl SparseEligibility {
    /// Builds the sparse representation from the candidate rows of every
    /// user (`rows` holds user `k` as its `k`-th user), which become the
    /// forward CSR; the per-server reverse index is derived by a counting
    /// sort.
    pub(crate) fn from_candidate_rows(
        num_servers: usize,
        num_users: usize,
        rows: CandidateRows,
    ) -> Self {
        let num_models = rows.num_models;
        debug_assert_eq!(rows.num_rows(), num_users * num_models);
        let CandidateRows {
            offsets: pair_offsets,
            servers: pair_servers,
            ..
        } = rows;
        // Count entries per (m, i) reverse row.
        let mut server_model_offsets = vec![0usize; num_servers * num_models + 1];
        for k in 0..num_users {
            for i in 0..num_models {
                let row = k * num_models + i;
                for &m in &pair_servers[pair_offsets[row]..pair_offsets[row + 1]] {
                    server_model_offsets[m as usize * num_models + i + 1] += 1;
                }
            }
        }
        for idx in 1..server_model_offsets.len() {
            server_model_offsets[idx] += server_model_offsets[idx - 1];
        }
        // Scatter users; iterating k ascending keeps every reverse row
        // sorted.
        let mut cursor = server_model_offsets.clone();
        let mut server_users = vec![0u32; pair_servers.len()];
        for k in 0..num_users {
            for i in 0..num_models {
                let row = k * num_models + i;
                for &m in &pair_servers[pair_offsets[row]..pair_offsets[row + 1]] {
                    let slot = &mut cursor[m as usize * num_models + i];
                    server_users[*slot] = k as u32;
                    *slot += 1;
                }
            }
        }
        Self {
            num_servers,
            num_users,
            num_models,
            pair_offsets,
            pair_servers,
            server_model_offsets,
            server_users,
        }
    }

    /// Builds the sparse representation one user at a time:
    /// `fill(k, rows)` appends user `k`'s `I` candidate rows, and the
    /// collected rows become the forward CSR.
    pub(crate) fn from_user_rows<F, E>(
        num_servers: usize,
        num_users: usize,
        num_models: usize,
        mut fill: F,
    ) -> Result<Self, E>
    where
        F: FnMut(usize, &mut CandidateRows) -> Result<(), E>,
    {
        let mut rows = CandidateRows::with_capacity(num_models, num_users);
        for k in 0..num_users {
            fill(k, &mut rows)?;
        }
        Ok(Self::from_candidate_rows(num_servers, num_users, rows))
    }

    /// Builds a sparse eligibility directly from a closure; the dense cube
    /// is enumerated (so this is meant for tests and synthetic
    /// experiments) but never allocated.
    pub fn from_fn<F>(num_servers: usize, num_users: usize, num_models: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize) -> bool,
    {
        let mut rows = CandidateRows::with_capacity(num_models, num_users);
        for k in 0..num_users {
            for i in 0..num_models {
                for m in 0..num_servers {
                    if f(m, k, i) {
                        rows.push_server(m);
                    }
                }
                rows.end_row();
            }
        }
        Self::from_candidate_rows(num_servers, num_users, rows)
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// Number of eligible `(m, k, i)` triples.
    pub fn num_eligible(&self) -> usize {
        self.pair_servers.len()
    }

    /// The sorted candidate-server row for `(user, model)`; empty for
    /// out-of-range indices.
    fn pair_row(&self, user: UserId, model: ModelId) -> &[u32] {
        let (k, i) = (user.index(), model.index());
        if k >= self.num_users || i >= self.num_models {
            return &[];
        }
        let row = k * self.num_models + i;
        &self.pair_servers[self.pair_offsets[row]..self.pair_offsets[row + 1]]
    }

    /// The sorted eligible-user row for `(m, model)`; empty for
    /// out-of-range indices.
    fn reverse_row(&self, m: usize, model: ModelId) -> &[u32] {
        let i = model.index();
        if m >= self.num_servers || i >= self.num_models {
            return &[];
        }
        let row = m * self.num_models + i;
        &self.server_users[self.server_model_offsets[row]..self.server_model_offsets[row + 1]]
    }

    /// Whether server `m` can serve user `k`'s request for model `i`
    /// within the deadline. Out-of-range indices return `false`.
    pub fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        self.pair_row(user, model)
            .binary_search(&(m as u32))
            .is_ok()
    }
}

impl EligibilityView for SparseEligibility {
    fn num_servers(&self) -> usize {
        self.num_servers
    }

    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_models(&self) -> usize {
        self.num_models
    }

    fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        SparseEligibility::eligible(self, m, user, model)
    }

    fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_> {
        ServersFor(ServersForInner::Sparse(self.pair_row(user, model).iter()))
    }

    fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_> {
        UsersFor(UsersForInner::Sparse(self.reverse_row(m, model).iter()))
    }

    fn server_models(&self, m: usize) -> ServerModels<'_> {
        if m >= self.num_servers {
            return ServerModels(ServerModelsInner::Empty);
        }
        ServerModels(ServerModelsInner::Sparse {
            offsets: &self.server_model_offsets[m * self.num_models..=(m + 1) * self.num_models],
            next: 0,
        })
    }

    fn pairs_for_server(&self, m: usize) -> PairsForServer<'_> {
        if m >= self.num_servers {
            return PairsForServer(PairsForServerInner::Empty);
        }
        // The reverse index is model-major; yielding pairs in
        // (user, model) order requires a K-way merge, but callers only
        // need *some* deterministic order covering each pair once. We
        // document and yield (user, model) lexicographic order by merging
        // lazily over the model rows.
        let base = m * self.num_models;
        let rows: Vec<std::iter::Peekable<std::slice::Iter<'_, u32>>> = (0..self.num_models)
            .map(|i| {
                self.server_users
                    [self.server_model_offsets[base + i]..self.server_model_offsets[base + i + 1]]
                    .iter()
                    .peekable()
            })
            .collect();
        PairsForServer(PairsForServerInner::Sparse { rows })
    }

    fn num_eligible(&self) -> usize {
        SparseEligibility::num_eligible(self)
    }
}

// ---------------------------------------------------------------------------
// Failure masking
// ---------------------------------------------------------------------------

/// An [`EligibilityView`] adaptor hiding a set of down servers.
///
/// A failure-aware planner re-plans over the same eligibility the
/// scenario derived, minus the servers currently down: a masked server
/// serves no user, offers no model and contributes no eligible triple,
/// exactly as if its coverage had vanished — while the underlying
/// representation (and every up server's iteration order) stays
/// untouched, so a plan over an all-up mask is bit-identical to one
/// over the unmasked view.
///
/// `down[m]` marks server `m` as down; servers beyond the mask's length
/// are treated as up.
#[derive(Debug, Clone, Copy)]
pub struct MaskedEligibility<'a> {
    inner: &'a dyn EligibilityView,
    down: &'a [bool],
}

impl<'a> MaskedEligibility<'a> {
    /// Wraps `inner`, hiding every server whose `down` flag is set.
    pub fn new(inner: &'a dyn EligibilityView, down: &'a [bool]) -> Self {
        Self { inner, down }
    }

    fn is_down(&self, m: usize) -> bool {
        self.down.get(m).copied().unwrap_or(false)
    }
}

impl EligibilityView for MaskedEligibility<'_> {
    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_models(&self) -> usize {
        self.inner.num_models()
    }

    fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        !self.is_down(m) && self.inner.eligible(m, user, model)
    }

    fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_> {
        ServersFor(ServersForInner::Masked {
            inner: Box::new(self.inner.servers_for(user, model)),
            down: self.down,
        })
    }

    fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_> {
        if self.is_down(m) {
            return UsersFor(UsersForInner::Empty);
        }
        self.inner.users_for(m, model)
    }

    fn server_models(&self, m: usize) -> ServerModels<'_> {
        if self.is_down(m) {
            return ServerModels(ServerModelsInner::Empty);
        }
        self.inner.server_models(m)
    }

    fn pairs_for_server(&self, m: usize) -> PairsForServer<'_> {
        if self.is_down(m) {
            return PairsForServer(PairsForServerInner::Empty);
        }
        self.inner.pairs_for_server(m)
    }

    fn num_eligible(&self) -> usize {
        let masked: usize = (0..self.inner.num_servers())
            .filter(|&m| self.is_down(m))
            .map(|m| self.inner.pairs_for_server(m).count())
            .sum();
        self.inner.num_eligible() - masked
    }
}

// ---------------------------------------------------------------------------
// Iterators
// ---------------------------------------------------------------------------

/// Iterator over candidate server indices for one request class.
#[derive(Debug, Clone)]
pub struct ServersFor<'a>(ServersForInner<'a>);

#[derive(Debug, Clone)]
enum ServersForInner<'a> {
    Dense {
        tensor: &'a EligibilityTensor,
        user: UserId,
        model: ModelId,
        next: usize,
    },
    Sparse(std::slice::Iter<'a, u32>),
    Masked {
        inner: Box<ServersFor<'a>>,
        down: &'a [bool],
    },
    Empty,
}

impl Iterator for ServersFor<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.0 {
            ServersForInner::Dense {
                tensor,
                user,
                model,
                next,
            } => {
                while *next < tensor.num_servers {
                    let m = *next;
                    *next += 1;
                    if tensor.eligible(m, *user, *model) {
                        return Some(m);
                    }
                }
                None
            }
            ServersForInner::Sparse(iter) => iter.next().map(|m| *m as usize),
            ServersForInner::Masked { inner, down } => {
                for m in &mut **inner {
                    if !down.get(m).copied().unwrap_or(false) {
                        return Some(m);
                    }
                }
                None
            }
            ServersForInner::Empty => None,
        }
    }
}

/// Iterator over users one server can serve for one model.
#[derive(Debug, Clone)]
pub struct UsersFor<'a>(UsersForInner<'a>);

#[derive(Debug, Clone)]
enum UsersForInner<'a> {
    Dense {
        /// The user bitset of one `(server, model)` cell.
        cell: &'a [u64],
        /// Index of the word being walked.
        word: usize,
        /// The not yet yielded bits of `cell[word]`.
        bits: u64,
    },
    Sparse(std::slice::Iter<'a, u32>),
    Empty,
}

impl Iterator for UsersFor<'_> {
    type Item = UserId;

    fn next(&mut self) -> Option<UserId> {
        match &mut self.0 {
            UsersForInner::Dense { cell, word, bits } => loop {
                if *bits != 0 {
                    let k = *word * 64 + bits.trailing_zeros() as usize;
                    *bits &= *bits - 1;
                    return Some(UserId(k));
                }
                *word += 1;
                *bits = *cell.get(*word)?;
            },
            UsersForInner::Sparse(iter) => iter.next().map(|k| UserId(*k as usize)),
            UsersForInner::Empty => None,
        }
    }
}

impl UsersFor<'_> {
    /// `Σ weights[k]` over the remaining users `k` whose bit in
    /// `covered` is clear, added in ascending `k` — the order the
    /// iterator yields them. `covered` is a user bitset over the view's
    /// `K` users, `weights` has one entry per user.
    ///
    /// The dense cell is scored word by word (`cell & !covered`), the
    /// sparse reverse row with one bit test per user; a down server's
    /// empty row scores `0`.
    pub(crate) fn uncovered_weight(self, covered: &[u64], weights: &[f64]) -> f64 {
        let mut total = 0.0;
        match self.0 {
            UsersForInner::Dense { cell, word, bits } => {
                for (w, (&c, &cov)) in cell.iter().zip(covered).enumerate().skip(word) {
                    let mut free = if w == word { bits } else { c } & !cov;
                    while free != 0 {
                        total += weights[w * 64 + free.trailing_zeros() as usize];
                        free &= free - 1;
                    }
                }
            }
            UsersForInner::Sparse(iter) => {
                for &k in iter.as_slice() {
                    if !bit_is_set(covered, k as usize) {
                        total += weights[k as usize];
                    }
                }
            }
            UsersForInner::Empty => {}
        }
        total
    }

    /// Sets the bit of every remaining user in `covered`, a user bitset
    /// over the view's `K` users.
    pub(crate) fn cover(self, covered: &mut [u64]) {
        match self.0 {
            UsersForInner::Dense { cell, word, bits } => {
                for (w, (&c, cov)) in cell.iter().zip(covered).enumerate().skip(word) {
                    *cov |= if w == word { bits } else { c };
                }
            }
            UsersForInner::Sparse(iter) => {
                for &k in iter.as_slice() {
                    covered[k as usize / 64] |= 1 << (k % 64);
                }
            }
            UsersForInner::Empty => {}
        }
    }
}

/// Whether bit `k` (bit `k % 64` of word `k / 64`) of a user bitset is
/// set.
pub(crate) fn bit_is_set(words: &[u64], k: usize) -> bool {
    words[k / 64] >> (k % 64) & 1 == 1
}

/// Iterator over the models one server can serve for at least one user.
#[derive(Debug, Clone)]
pub struct ServerModels<'a>(ServerModelsInner<'a>);

#[derive(Debug, Clone)]
enum ServerModelsInner<'a> {
    Dense {
        /// The `cell_users` slice of one server (length `I`).
        cell_users: &'a [u32],
        next: usize,
    },
    Sparse {
        /// The reverse-CSR offset slice of one server (length `I + 1`).
        offsets: &'a [usize],
        next: usize,
    },
    Empty,
}

impl Iterator for ServerModels<'_> {
    type Item = ModelId;

    fn next(&mut self) -> Option<ModelId> {
        match &mut self.0 {
            ServerModelsInner::Dense { cell_users, next } => {
                while *next < cell_users.len() {
                    let i = *next;
                    *next += 1;
                    if cell_users[i] > 0 {
                        return Some(ModelId(i));
                    }
                }
                None
            }
            ServerModelsInner::Sparse { offsets, next } => {
                while *next + 1 < offsets.len() {
                    let i = *next;
                    *next += 1;
                    if offsets[i + 1] > offsets[i] {
                        return Some(ModelId(i));
                    }
                }
                None
            }
            ServerModelsInner::Empty => None,
        }
    }
}

/// Iterator over all `(user, model)` request classes one server can serve,
/// in `(user, model)` lexicographic order.
#[derive(Debug, Clone)]
pub struct PairsForServer<'a>(PairsForServerInner<'a>);

#[derive(Debug, Clone)]
enum PairsForServerInner<'a> {
    Dense {
        /// The `I` user bitsets of one server, model-major.
        cells: &'a [u64],
        num_users: usize,
        num_models: usize,
        /// Next `(user, model)` pair to test, flattened as `k · I + i`.
        next: usize,
    },
    Sparse {
        /// One peekable, user-sorted row per model; merged lazily.
        rows: Vec<std::iter::Peekable<std::slice::Iter<'a, u32>>>,
    },
    Empty,
}

impl Iterator for PairsForServer<'_> {
    type Item = (UserId, ModelId);

    fn next(&mut self) -> Option<(UserId, ModelId)> {
        match &mut self.0 {
            PairsForServerInner::Dense {
                cells,
                num_users,
                num_models,
                next,
            } => {
                let words = num_users.div_ceil(64);
                while *next < *num_users * *num_models {
                    let (k, i) = (*next / *num_models, *next % *num_models);
                    *next += 1;
                    if bit_is_set(&cells[i * words..], k) {
                        return Some((UserId(k), ModelId(i)));
                    }
                }
                None
            }
            PairsForServerInner::Sparse { rows } => {
                // K-way merge on (user, model): pick the smallest peeked
                // user; ties resolve to the smallest model index because
                // rows are visited in model order.
                let mut best: Option<(u32, usize)> = None;
                for (i, row) in rows.iter_mut().enumerate() {
                    if let Some(&&k) = row.peek() {
                        if best.is_none_or(|(bk, _)| k < bk) {
                            best = Some((k, i));
                        }
                    }
                }
                let (k, i) = best?;
                rows[i].next();
                Some((UserId(k as usize), ModelId(i)))
            }
            PairsForServerInner::Empty => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Enum wrapper and representation selection
// ---------------------------------------------------------------------------

/// The eligibility indicator of one scenario, in whichever representation
/// the builder selected. Implements (and mirrors, as inherent methods)
/// [`EligibilityView`].
#[derive(Debug, Clone, PartialEq)]
pub enum Eligibility {
    /// Dense `M × K × I` cube.
    Dense(EligibilityTensor),
    /// Coverage-pruned CSR.
    Sparse(SparseEligibility),
}

macro_rules! delegate {
    ($self:ident, $view:ident => $body:expr) => {
        match $self {
            Eligibility::Dense($view) => $body,
            Eligibility::Sparse($view) => $body,
        }
    };
}

impl Eligibility {
    /// The representation actually held (never [`EligibilityRepr::Auto`]).
    pub fn repr(&self) -> EligibilityRepr {
        match self {
            Eligibility::Dense(_) => EligibilityRepr::Dense,
            Eligibility::Sparse(_) => EligibilityRepr::Sparse,
        }
    }

    /// Whether the sparse representation is held.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Eligibility::Sparse(_))
    }

    /// Number of servers `M`.
    pub fn num_servers(&self) -> usize {
        delegate!(self, v => v.num_servers())
    }

    /// Number of users `K`.
    pub fn num_users(&self) -> usize {
        delegate!(self, v => v.num_users())
    }

    /// Number of models `I`.
    pub fn num_models(&self) -> usize {
        delegate!(self, v => v.num_models())
    }

    /// Whether server `m` can serve user `k`'s request for model `i`
    /// within the deadline. Out-of-range indices return `false`.
    pub fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        delegate!(self, v => v.eligible(m, user, model))
    }

    /// The candidate servers able to serve `(user, model)`, ascending.
    pub fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_> {
        delegate!(self, v => EligibilityView::servers_for(v, user, model))
    }

    /// The users server `m` can serve for `model`, ascending.
    pub fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_> {
        delegate!(self, v => EligibilityView::users_for(v, m, model))
    }

    /// The models server `m` can serve for at least one user, ascending.
    pub fn server_models(&self, m: usize) -> ServerModels<'_> {
        delegate!(self, v => EligibilityView::server_models(v, m))
    }

    /// All `(user, model)` request classes server `m` can serve.
    pub fn pairs_for_server(&self, m: usize) -> PairsForServer<'_> {
        delegate!(self, v => EligibilityView::pairs_for_server(v, m))
    }

    /// Number of eligible `(m, k, i)` triples.
    pub fn num_eligible(&self) -> usize {
        delegate!(self, v => v.num_eligible())
    }

    /// Fraction of eligible triples among all `M · K · I` cells.
    pub fn density(&self) -> f64 {
        delegate!(self, v => EligibilityView::density(v))
    }
}

impl EligibilityView for Eligibility {
    fn num_servers(&self) -> usize {
        Eligibility::num_servers(self)
    }

    fn num_users(&self) -> usize {
        Eligibility::num_users(self)
    }

    fn num_models(&self) -> usize {
        Eligibility::num_models(self)
    }

    fn eligible(&self, m: usize, user: UserId, model: ModelId) -> bool {
        Eligibility::eligible(self, m, user, model)
    }

    fn servers_for(&self, user: UserId, model: ModelId) -> ServersFor<'_> {
        Eligibility::servers_for(self, user, model)
    }

    fn users_for(&self, m: usize, model: ModelId) -> UsersFor<'_> {
        Eligibility::users_for(self, m, model)
    }

    fn server_models(&self, m: usize) -> ServerModels<'_> {
        Eligibility::server_models(self, m)
    }

    fn pairs_for_server(&self, m: usize) -> PairsForServer<'_> {
        Eligibility::pairs_for_server(self, m)
    }

    fn num_eligible(&self) -> usize {
        Eligibility::num_eligible(self)
    }
}

/// Which eligibility representation a [`crate::ScenarioBuilder`] derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EligibilityRepr {
    /// Pick automatically from the problem dimensions and the coverage
    /// density; see [`EligibilityRepr::resolved`].
    #[default]
    Auto,
    /// Always materialise the dense `M × K × I` tensor.
    Dense,
    /// Always build the coverage-pruned CSR representation.
    Sparse,
}

impl EligibilityRepr {
    /// `Auto` switches to the sparse representation when the dense cube
    /// would exceed this many cells (4 Mi cells ≈ 512 KiB of bits) and
    /// the coverage is not mostly dense.
    pub const AUTO_CELL_LIMIT: usize = 1 << 22;

    /// `Auto` switches to sparse when at most this fraction of
    /// `(server, user)` pairs is covered — the city-scale regime where a
    /// user sees a handful of the deployed servers.
    pub const AUTO_COVERAGE_THRESHOLD: f64 = 0.10;

    /// Above this coverage density `Auto` never picks sparse: the CSR
    /// spends ~8 bytes per eligible triple against the cube's 1 bit per
    /// cell, so a mostly covered topology would make the "compact"
    /// representation the bigger one.
    pub const AUTO_COVERAGE_CEILING: f64 = 0.5;

    /// Resolves `Auto` against the scenario dimensions: the result is
    /// `Sparse` when `coverage_density` (the fraction of covered
    /// `(server, user)` pairs) is at most
    /// [`Self::AUTO_COVERAGE_THRESHOLD`], or when
    /// `num_servers · num_users · num_models` exceeds
    /// [`Self::AUTO_CELL_LIMIT`] while the coverage stays below
    /// [`Self::AUTO_COVERAGE_CEILING`]; `Dense` otherwise. Explicit
    /// choices pass through unchanged.
    ///
    /// The heuristic sees only *coverage*: when a permissive backhaul
    /// makes relayed delivery meet deadlines, eligibility can greatly
    /// exceed coverage and inflate the CSR regardless of this choice —
    /// force [`EligibilityRepr::Dense`] in that regime.
    pub fn resolved(
        self,
        num_servers: usize,
        num_users: usize,
        num_models: usize,
        coverage_density: f64,
    ) -> EligibilityRepr {
        match self {
            EligibilityRepr::Dense => EligibilityRepr::Dense,
            EligibilityRepr::Sparse => EligibilityRepr::Sparse,
            EligibilityRepr::Auto => {
                let cells = num_servers
                    .saturating_mul(num_users)
                    .saturating_mul(num_models);
                if coverage_density <= Self::AUTO_COVERAGE_THRESHOLD
                    || (cells > Self::AUTO_CELL_LIMIT
                        && coverage_density < Self::AUTO_COVERAGE_CEILING)
                {
                    EligibilityRepr::Sparse
                } else {
                    EligibilityRepr::Dense
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small asymmetric pattern exercising every iterator.
    fn pattern(m: usize, k: usize, i: usize) -> bool {
        matches!((m, k, i), (0, 0, _) | (1, 1, 1) | (2, _, 0)) && !(m == 2 && k == 2)
    }

    fn both() -> (EligibilityTensor, SparseEligibility) {
        (
            EligibilityTensor::from_fn(3, 3, 2, pattern),
            SparseEligibility::from_fn(3, 3, 2, pattern),
        )
    }

    #[test]
    fn dense_and_sparse_agree_pointwise() {
        let (dense, sparse) = both();
        assert_eq!(dense.num_eligible(), sparse.num_eligible());
        for m in 0..3 {
            for k in 0..3 {
                for i in 0..2 {
                    assert_eq!(
                        dense.eligible(m, UserId(k), ModelId(i)),
                        sparse.eligible(m, UserId(k), ModelId(i)),
                        "disagreement at ({m},{k},{i})"
                    );
                }
            }
        }
        assert_eq!(
            EligibilityView::density(&dense),
            EligibilityView::density(&sparse)
        );
    }

    #[test]
    fn iterators_agree_and_are_sorted() {
        let (dense, sparse) = both();
        for k in 0..3 {
            for i in 0..2 {
                let d: Vec<usize> = dense.servers_for(UserId(k), ModelId(i)).collect();
                let s: Vec<usize> = sparse.servers_for(UserId(k), ModelId(i)).collect();
                assert_eq!(d, s, "servers_for({k},{i})");
                assert!(d.windows(2).all(|w| w[0] < w[1]));
            }
        }
        for m in 0..3 {
            for i in 0..2 {
                let d: Vec<UserId> = dense.users_for(m, ModelId(i)).collect();
                let s: Vec<UserId> = sparse.users_for(m, ModelId(i)).collect();
                assert_eq!(d, s, "users_for({m},{i})");
            }
            let d: Vec<ModelId> = dense.server_models(m).collect();
            let s: Vec<ModelId> = sparse.server_models(m).collect();
            assert_eq!(d, s, "server_models({m})");
            let d: Vec<_> = dense.pairs_for_server(m).collect();
            let s: Vec<_> = sparse.pairs_for_server(m).collect();
            assert_eq!(d, s, "pairs_for_server({m})");
            assert!(d.windows(2).all(|w| w[0] < w[1]), "pairs must be sorted");
        }
    }

    #[test]
    fn out_of_range_queries_are_empty_or_false() {
        let (dense, sparse) = both();
        for view in [&dense as &dyn EligibilityView, &sparse] {
            assert!(!view.eligible(9, UserId(0), ModelId(0)));
            assert!(!view.eligible(0, UserId(9), ModelId(0)));
            assert!(!view.eligible(0, UserId(0), ModelId(9)));
            assert_eq!(view.servers_for(UserId(9), ModelId(0)).count(), 0);
            assert_eq!(view.users_for(9, ModelId(0)).count(), 0);
            assert_eq!(view.server_models(9).count(), 0);
            assert_eq!(view.pairs_for_server(9).count(), 0);
        }
    }

    #[test]
    fn enum_wrapper_delegates() {
        let (dense, sparse) = both();
        let d = Eligibility::Dense(dense);
        let s = Eligibility::Sparse(sparse);
        assert_eq!(d.repr(), EligibilityRepr::Dense);
        assert_eq!(s.repr(), EligibilityRepr::Sparse);
        assert!(!d.is_sparse());
        assert!(s.is_sparse());
        assert_eq!(d.num_eligible(), s.num_eligible());
        assert_eq!(d.num_servers(), 3);
        assert_eq!(s.num_users(), 3);
        assert_eq!(d.num_models(), 2);
        assert_eq!(d.density(), s.density());
        for m in 0..3 {
            assert_eq!(
                d.pairs_for_server(m).collect::<Vec<_>>(),
                s.pairs_for_server(m).collect::<Vec<_>>()
            );
            assert_eq!(
                d.server_models(m).collect::<Vec<_>>(),
                s.server_models(m).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            d.servers_for(UserId(0), ModelId(0)).collect::<Vec<_>>(),
            s.servers_for(UserId(0), ModelId(0)).collect::<Vec<_>>()
        );
        assert_eq!(
            d.users_for(2, ModelId(0)).collect::<Vec<_>>(),
            s.users_for(2, ModelId(0)).collect::<Vec<_>>()
        );
        assert!(d.eligible(0, UserId(0), ModelId(1)));
        assert!(s.eligible(0, UserId(0), ModelId(1)));
    }

    #[test]
    fn auto_resolution_policy() {
        // Small and well-covered: dense.
        assert_eq!(
            EligibilityRepr::Auto.resolved(10, 30, 30, 0.24),
            EligibilityRepr::Dense
        );
        // Huge cube with thin coverage: sparse.
        assert_eq!(
            EligibilityRepr::Auto.resolved(1000, 50_000, 24, 0.3),
            EligibilityRepr::Sparse
        );
        // Huge cube but mostly covered: the CSR would outgrow the cube
        // (~8 bytes/triple vs 1 bit/cell), so dense wins.
        assert_eq!(
            EligibilityRepr::Auto.resolved(1000, 50_000, 24, 0.6),
            EligibilityRepr::Dense
        );
        // Thin coverage: sparse even when the cube is small.
        assert_eq!(
            EligibilityRepr::Auto.resolved(10, 30, 30, 0.05),
            EligibilityRepr::Sparse
        );
        // Explicit choices pass through.
        assert_eq!(
            EligibilityRepr::Dense.resolved(1000, 50_000, 24, 0.0),
            EligibilityRepr::Dense
        );
        assert_eq!(
            EligibilityRepr::Sparse.resolved(2, 2, 2, 1.0),
            EligibilityRepr::Sparse
        );
        assert_eq!(EligibilityRepr::default(), EligibilityRepr::Auto);
    }

    /// A `fill` closure answering from `f` over 3 servers and 2 models.
    fn fill_from(
        f: fn(usize, usize, usize) -> bool,
    ) -> impl FnMut(usize, &mut CandidateRows) -> Result<(), &'static str> {
        move |k, rows| {
            for i in 0..2 {
                for m in (0..3).filter(|&m| f(m, k, i)) {
                    rows.push_server(m);
                }
                rows.end_row();
            }
            Ok(())
        }
    }

    /// A `fill` closure that fails on its second call.
    fn fails_second() -> impl FnMut(usize, &mut CandidateRows) -> Result<(), &'static str> {
        let mut calls = 0;
        move |k, rows| {
            calls += 1;
            if calls == 2 {
                return Err("boom");
            }
            fill_from(pattern)(k, rows)
        }
    }

    #[test]
    fn from_user_rows_matches_from_fn() {
        let dense = EligibilityTensor::from_user_rows(3, 3, 2, fill_from(pattern)).unwrap();
        assert_eq!(dense, EligibilityTensor::from_fn(3, 3, 2, pattern));
        let sparse = SparseEligibility::from_user_rows(3, 3, 2, fill_from(pattern)).unwrap();
        assert_eq!(sparse, SparseEligibility::from_fn(3, 3, 2, pattern));
        // A failing fill aborts the build.
        assert!(EligibilityTensor::from_user_rows(3, 3, 2, fails_second()).is_err());
        assert!(SparseEligibility::from_user_rows(3, 3, 2, fails_second()).is_err());
    }

    #[test]
    fn masked_view_hides_exactly_the_down_servers() {
        let (dense, sparse) = both();
        let down = [false, true, false];
        for view in [&dense as &dyn EligibilityView, &sparse] {
            let masked = MaskedEligibility::new(view, &down);
            assert_eq!(masked.num_servers(), view.num_servers());
            assert_eq!(masked.num_users(), view.num_users());
            assert_eq!(masked.num_models(), view.num_models());
            for (m, &is_down) in down.iter().enumerate() {
                for k in 0..3 {
                    for i in 0..2 {
                        let expected = !is_down && view.eligible(m, UserId(k), ModelId(i));
                        assert_eq!(masked.eligible(m, UserId(k), ModelId(i)), expected);
                    }
                }
                if is_down {
                    assert_eq!(masked.users_for(m, ModelId(0)).count(), 0);
                    assert_eq!(masked.server_models(m).count(), 0);
                    assert_eq!(masked.pairs_for_server(m).count(), 0);
                } else {
                    assert_eq!(
                        masked.pairs_for_server(m).collect::<Vec<_>>(),
                        view.pairs_for_server(m).collect::<Vec<_>>()
                    );
                }
            }
            // servers_for skips down servers but keeps ascending order.
            for k in 0..3 {
                for i in 0..2 {
                    let filtered: Vec<usize> = view
                        .servers_for(UserId(k), ModelId(i))
                        .filter(|&m| !down[m])
                        .collect();
                    let got: Vec<usize> = masked.servers_for(UserId(k), ModelId(i)).collect();
                    assert_eq!(got, filtered, "servers_for({k},{i})");
                }
            }
            // The triple count drops by exactly the down servers' pairs.
            let lost: usize = view.pairs_for_server(1).count();
            assert_eq!(masked.num_eligible(), view.num_eligible() - lost);
            // An all-up mask is transparent.
            let all_up = [false; 3];
            let transparent = MaskedEligibility::new(view, &all_up);
            assert_eq!(transparent.num_eligible(), view.num_eligible());
            // A short mask treats the unnamed servers as up.
            let short = MaskedEligibility::new(view, &down[..1]);
            assert_eq!(short.num_eligible(), view.num_eligible());
        }
    }

    /// User counts on either side of the 64-bit word boundaries.
    pub(crate) const WORD_EDGES: [usize; 7] = [1, 63, 64, 65, 127, 128, 129];

    /// A random `M × K × I` eligibility table, triple `(m, k, i)` at
    /// `(m · K + k) · I + i`, each triple eligible with probability
    /// `DENSITIES[density]` (empty, thin, half, thick or full).
    pub(crate) fn random_table(
        seed: u64,
        dims: (usize, usize, usize),
        density: usize,
    ) -> Vec<bool> {
        use rand::{Rng, SeedableRng};
        const DENSITIES: [f64; 5] = [0.0, 0.03, 0.5, 0.9, 1.0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..dims.0 * dims.1 * dims.2)
            .map(|_| rng.gen_bool(DENSITIES[density % DENSITIES.len()]))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Dense bitsets and the sparse CSR agree on every query and
        /// iterator when `K` sits on a word boundary, and bits past `K`
        /// never count.
        #[test]
        fn dense_and_sparse_agree_across_word_boundaries(
            seed in 0u64..1_000_000,
            edge in 0usize..7,
            density in 0usize..5,
            num_servers in 1usize..4,
            num_models in 1usize..4,
        ) {
            let (m_count, k_count, i_count) = (num_servers, WORD_EDGES[edge], num_models);
            let table = random_table(seed, (m_count, k_count, i_count), density);
            let at = |m: usize, k: usize, i: usize| table[(m * k_count + k) * i_count + i];
            let dense = EligibilityTensor::from_fn(m_count, k_count, i_count, at);
            let sparse = SparseEligibility::from_fn(m_count, k_count, i_count, at);
            let truth = table.iter().filter(|b| **b).count();
            assert_eq!(dense.num_eligible(), truth);
            assert_eq!(sparse.num_eligible(), truth);
            assert_views_agree(&dense, &sparse, at);
        }
    }

    /// Requires `dense` and `sparse` to answer every point query like
    /// `truth` and to agree on every iterator, out-of-range indices
    /// included.
    fn assert_views_agree(
        dense: &EligibilityTensor,
        sparse: &SparseEligibility,
        truth: impl Fn(usize, usize, usize) -> bool,
    ) {
        let (m_count, k_count, i_count) = (dense.num_servers, dense.num_users, dense.num_models);
        assert_eq!(dense.num_eligible(), sparse.num_eligible());
        for m in 0..=m_count {
            for k in 0..=k_count {
                for i in 0..=i_count {
                    let expected = m < m_count && k < k_count && i < i_count && truth(m, k, i);
                    let (user, model) = (UserId(k), ModelId(i));
                    assert_eq!(
                        dense.eligible(m, user, model),
                        expected,
                        "dense ({m},{k},{i})"
                    );
                    assert_eq!(
                        sparse.eligible(m, user, model),
                        expected,
                        "sparse ({m},{k},{i})"
                    );
                }
            }
            for i in 0..=i_count {
                let d: Vec<UserId> = dense.users_for(m, ModelId(i)).collect();
                let s: Vec<UserId> = sparse.users_for(m, ModelId(i)).collect();
                assert_eq!(d, s, "users_for({m},{i})");
            }
            let d: Vec<ModelId> = dense.server_models(m).collect();
            assert_eq!(
                d,
                sparse.server_models(m).collect::<Vec<_>>(),
                "server_models({m})"
            );
            let d: Vec<_> = dense.pairs_for_server(m).collect();
            assert_eq!(
                d,
                sparse.pairs_for_server(m).collect::<Vec<_>>(),
                "pairs({m})"
            );
        }
        for k in 0..=k_count {
            for i in 0..=i_count {
                let d: Vec<usize> = dense.servers_for(UserId(k), ModelId(i)).collect();
                let s: Vec<usize> = sparse.servers_for(UserId(k), ModelId(i)).collect();
                assert_eq!(d, s, "servers_for({k},{i})");
            }
        }
    }

    #[test]
    fn empty_dimensions_are_harmless() {
        let t = EligibilityTensor::from_fn(0, 0, 0, |_, _, _| true);
        assert_eq!(t.num_eligible(), 0);
        assert_eq!(EligibilityView::density(&t), 0.0);
        let s = SparseEligibility::from_fn(0, 0, 0, |_, _, _| true);
        assert_eq!(s.num_eligible(), 0);
    }
}
