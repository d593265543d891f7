//! End-to-end latency (Eqs. 4–5) and construction of the
//! service-eligibility indicator `I1(m, k, i)` (Eq. 3).
//!
//! A request by user `k` for model `i` can be served by edge server `m`
//! (a *cache hit* if `m` stores the model) when the end-to-end latency
//! meets the QoS budget `T̄_{k,i}`:
//!
//! * if `m` covers `k` (Eq. 4): download at the expected rate `C̄_{m,k}`
//!   plus on-device inference;
//! * otherwise (Eq. 5): relay the model over the backhaul to the covering
//!   server `m'` that minimises the total transfer time, then download,
//!   then infer.
//!
//! Crucially the indicator does **not** depend on the placement, so it can
//! be precomputed once per scenario (or once per fading realisation) and
//! reused by every placement algorithm. [`LatencyEvaluator::eligibility`]
//! materialises the dense [`EligibilityTensor`];
//! [`LatencyEvaluator::sparse_eligibility`] builds the coverage-pruned
//! [`SparseEligibility`] without ever allocating the `M × K × I` cube.
//! Both builds and the serve path's one-class scoring
//! [`LatencyEvaluator::scored_candidates`] derive the indicator through
//! one candidate kernel (see [`LatencyEvaluator`]).

use std::ops::Range;

use trimcaching_modellib::{ModelId, ModelLibrary};
use trimcaching_wireless::allocation::PerUserAllocation;
use trimcaching_wireless::channel::RateContext;
use trimcaching_wireless::coverage::CoverageMap;
use trimcaching_wireless::geometry::Point;
use trimcaching_wireless::params::RadioParams;
use trimcaching_wireless::Backhaul;

use crate::demand::Demand;
use crate::eligibility::{CandidateRows, EligibilityTensor, SparseEligibility};
use crate::entities::UserId;
use crate::error::ScenarioError;

/// The downlink rates `C_{m,k}` in bits per second, stored user-major:
/// user `k`'s row holds one rate per covering server, aligned with
/// [`CoverageMap::servers_of_user`]`(k)` (ascending server index). The
/// paper never downloads directly from a non-covering server — relayed
/// delivery uses the covering servers' rates instead — so memory scales
/// with the number of covered `(server, user)` pairs: megabytes instead
/// of gigabytes at city scale (1000+ servers, 50k+ users).
///
/// A request by user `k` is priced only through `k`'s own row (Eqs.
/// 4–5), so [`RateMatrix::user_rates`] hands the candidate kernel one
/// contiguous slice with no search and no copy. Point lookups through
/// [`RateMatrix::rate_bps`] return `0.0` for uncovered in-range pairs,
/// the semantics of the earlier dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RateMatrix {
    num_servers: usize,
    /// CSR row offsets, length `K + 1`.
    user_offsets: Vec<usize>,
    /// Covering server indices, ascending within each user row.
    servers: Vec<u32>,
    /// Rates aligned with `servers`.
    rates_bps: Vec<f64>,
}

impl RateMatrix {
    /// Computes the *expected* rate matrix (unit fading gain) used for the
    /// placement decision.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors for invalid parameters.
    pub fn expected(
        coverage: &CoverageMap,
        allocation: &PerUserAllocation,
        params: &RadioParams,
    ) -> Result<Self, ScenarioError> {
        Self::with_fading(coverage, allocation, params, |_m, _k| 1.0)
    }

    /// Computes a rate matrix with an arbitrary per-link fading power gain
    /// supplied by `fading_gain(m, k)` for every covered pair; used by the
    /// Monte-Carlo evaluation over Rayleigh realisations. The closure is
    /// called server by server, each server's users ascending — the draw
    /// order of every seeded fading result.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors for invalid parameters.
    pub fn with_fading<F>(
        coverage: &CoverageMap,
        allocation: &PerUserAllocation,
        params: &RadioParams,
        fading_gain: F,
    ) -> Result<Self, ScenarioError>
    where
        F: FnMut(usize, usize) -> f64,
    {
        let mut rates = Self {
            num_servers: 0,
            user_offsets: Vec::new(),
            servers: Vec::new(),
            rates_bps: Vec::new(),
        };
        rates.write_rows(coverage, allocation, params, fading_gain)?;
        Ok(rates)
    }

    /// Recomputes the *expected* rates in place against an updated
    /// coverage/allocation state: the result equals
    /// [`RateMatrix::expected`] on the same inputs, and this matrix's
    /// buffers are reused.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when `allocation` and
    /// `coverage` disagree on the server count; the matrix is left
    /// unchanged in that case.
    pub fn recompute_expected(
        &mut self,
        coverage: &CoverageMap,
        allocation: &PerUserAllocation,
        params: &RadioParams,
    ) -> Result<(), ScenarioError> {
        self.write_rows(coverage, allocation, params, |_m, _k| 1.0)
    }

    /// Writes every user's row from scratch in one pass in server order
    /// (the fading draw order), scattering each rate into its user's
    /// row. While the pass runs, `user_offsets[k + 1]` is user `k`'s
    /// write cursor: it starts at the row's first entry and ends one past
    /// its last, which is the next row's start.
    fn write_rows<F>(
        &mut self,
        coverage: &CoverageMap,
        allocation: &PerUserAllocation,
        params: &RadioParams,
        mut fading_gain: F,
    ) -> Result<(), ScenarioError>
    where
        F: FnMut(usize, usize) -> f64,
    {
        if allocation.num_servers() != coverage.num_servers() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "allocation covers {} servers but coverage has {}",
                    allocation.num_servers(),
                    coverage.num_servers()
                ),
            });
        }
        self.num_servers = coverage.num_servers();
        self.user_offsets.clear();
        self.user_offsets.push(0);
        let mut pairs = 0;
        for k in 0..coverage.num_users() {
            self.user_offsets.push(pairs);
            pairs += coverage.servers_of_user(k)?.len();
        }
        self.servers.clear();
        self.servers.resize(pairs, 0);
        self.rates_bps.clear();
        self.rates_bps.resize(pairs, 0.0);
        for m in 0..coverage.num_servers() {
            let share = allocation.share(m)?;
            let ctx = RateContext::new(share.bandwidth_hz, share.power_w, params);
            for &k in coverage.users_of_server(m)? {
                let d = coverage.distance_m(m, k)?;
                let cursor = &mut self.user_offsets[k + 1];
                self.servers[*cursor] = m as u32;
                self.rates_bps[*cursor] = ctx.rate_bps(d, fading_gain(m, k));
                *cursor += 1;
            }
        }
        Ok(())
    }

    /// Installs the rows a prepared `pass` wrote, given as chunks in user
    /// order that together cover every user once: the pass's coverage
    /// rows become this matrix's row layout (the buffers are swapped, so
    /// the pass keeps this matrix's old ones for reuse) and the chunks'
    /// rates are copied in. The pass is spent afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] unless the chunks
    /// cover the pass's users in order with one rate per covered pair;
    /// the matrix is left unchanged in that case.
    pub(crate) fn install<'r>(
        &mut self,
        pass: &mut RatePass,
        chunks: impl IntoIterator<Item = &'r RateRows> + Clone,
    ) -> Result<(), ScenarioError> {
        let mut next_user = 0;
        for chunk in chunks.clone() {
            let pairs = pass.pairs(chunk.users.clone());
            if chunk.users.start != next_user
                || pairs.map(|p| p.len()) != Some(chunk.rates_bps.len())
            {
                return Err(ScenarioError::DimensionMismatch {
                    reason: format!(
                        "rate rows of users {:?} do not continue the pass at user {next_user}",
                        chunk.users
                    ),
                });
            }
            next_user = chunk.users.end;
        }
        if next_user != pass.num_users() || pass.offsets.is_empty() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "rate rows end at user {next_user} but the pass has {} users",
                    pass.num_users()
                ),
            });
        }
        self.rates_bps.clear();
        for chunk in chunks {
            self.rates_bps.extend_from_slice(&chunk.rates_bps);
        }
        self.num_servers = pass.contexts.len();
        std::mem::swap(&mut self.user_offsets, &mut pass.offsets);
        std::mem::swap(&mut self.servers, &mut pass.servers);
        pass.offsets.clear();
        Ok(())
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of users (rows).
    pub fn num_users(&self) -> usize {
        self.user_offsets.len() - 1
    }

    /// Number of stored (covered) `(server, user)` entries.
    pub fn num_covered_pairs(&self) -> usize {
        self.servers.len()
    }

    /// User `k`'s row bounds in `servers` / `rates_bps`.
    fn row(&self, k: usize) -> Result<std::ops::Range<usize>, ScenarioError> {
        match (self.user_offsets.get(k), self.user_offsets.get(k + 1)) {
            (Some(&start), Some(&end)) => Ok(start..end),
            _ => Err(ScenarioError::IndexOutOfRange {
                entity: "user",
                index: k,
                len: self.num_users(),
            }),
        }
    }

    /// User `k`'s rates, one per covering server, aligned with
    /// [`CoverageMap::servers_of_user`]`(k)` of the coverage they were
    /// written from. Empty for an uncovered user.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown user.
    pub fn user_rates(&self, k: usize) -> Result<&[f64], ScenarioError> {
        Ok(&self.rates_bps[self.row(k)?])
    }

    /// User `k`'s strongest covering server: the highest rate in its
    /// row, the lowest server index on ties; `None` when uncovered.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for an unknown user.
    pub fn best_server(&self, k: usize) -> Result<Option<usize>, ScenarioError> {
        let row = self.row(k)?;
        Ok(best_of(&self.servers[row.clone()], &self.rates_bps[row]))
    }

    /// The rate from server `m` to user `k` in bits per second (zero when
    /// `m` does not cover `k`).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for unknown indices.
    pub fn rate_bps(&self, m: usize, k: usize) -> Result<f64, ScenarioError> {
        if m >= self.num_servers {
            return Err(ScenarioError::IndexOutOfRange {
                entity: "server",
                index: m,
                len: self.num_servers,
            });
        }
        let row = self.row(k)?;
        Ok(match self.servers[row.clone()].binary_search(&(m as u32)) {
            Ok(pos) => self.rates_bps[row.start + pos],
            Err(_) => 0.0,
        })
    }
}

/// The strongest server of one row: the highest rate, the lowest server
/// (the first in the ascending row) on ties.
fn best_of(servers: &[u32], rates_bps: &[f64]) -> Option<usize> {
    let mut best: Option<(f64, u32)> = None;
    for (&m, &rate) in servers.iter().zip(rates_bps) {
        if best.is_none_or(|(r, _)| rate > r) {
            best = Some((rate, m));
        }
    }
    best.map(|(_, m)| m as usize)
}

/// One pass over the expected rate rows, split so that any range of
/// users can be written anywhere: everything a row reads — the coverage
/// rows, the user and server positions and each server's
/// [`RateContext`] — is copied out of the snapshot into the pass's own
/// buffers, which later passes reuse.
///
/// [`RatePass::write_rows`] writes a range of users' rows into a
/// [`RateRows`] buffer; [`Scenario::install_rates`] puts the rows of
/// ranges that cover every user, in user order, into the snapshot. A row
/// depends on its own user alone, so the split never changes a bit:
/// every rate is the one [`RateMatrix::expected`] writes, server by
/// server, for the build.
///
/// [`Scenario::install_rates`]: crate::Scenario::install_rates
#[derive(Debug, Clone, Default)]
pub struct RatePass {
    user_points: Vec<Point>,
    server_points: Vec<Point>,
    /// The coverage rows, row-compressed: user `k`'s covering servers
    /// are `servers[offsets[k]..offsets[k + 1]]`, ascending. Empty while
    /// the pass is spent.
    offsets: Vec<usize>,
    servers: Vec<u32>,
    contexts: Vec<RateContext>,
}

impl RatePass {
    /// Copies the coverage rows, the positions and each server's rate
    /// constants out of `coverage` and `allocation` (expected rates).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] when `allocation` and
    /// `coverage` disagree on the server count.
    pub(crate) fn prepare(
        &mut self,
        coverage: &CoverageMap,
        allocation: &PerUserAllocation,
        params: &RadioParams,
    ) -> Result<(), ScenarioError> {
        if allocation.num_servers() != coverage.num_servers() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "allocation covers {} servers but coverage has {}",
                    allocation.num_servers(),
                    coverage.num_servers()
                ),
            });
        }
        self.user_points.clear();
        self.user_points.extend_from_slice(coverage.user_points());
        self.server_points.clear();
        self.server_points
            .extend_from_slice(coverage.server_points());
        let (offsets, servers) = coverage.rows();
        self.offsets.clear();
        self.offsets.extend_from_slice(offsets);
        self.servers.clear();
        self.servers.extend(servers.iter().map(|&m| m as u32));
        self.contexts.clear();
        for (_, share) in allocation.iter() {
            let ctx = RateContext::new(share.bandwidth_hz, share.power_w, params);
            self.contexts.push(ctx);
        }
        Ok(())
    }

    /// Number of users the pass covers (`0` once spent).
    pub fn num_users(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The covered pairs of `users` in row order, `None` outside the
    /// pass.
    fn pairs(&self, users: Range<usize>) -> Option<Range<usize>> {
        let (start, end) = (self.offsets.get(users.start)?, self.offsets.get(users.end)?);
        (users.start <= users.end).then_some(*start..*end)
    }

    /// Writes the rate rows of `users` into `out`, reusing its buffers:
    /// each user's rates in the order of its covering servers, and its
    /// strongest server (see [`RateMatrix::best_server`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::IndexOutOfRange`] for a range outside
    /// the pass (or a spent pass).
    pub fn write_rows(&self, users: Range<usize>, out: &mut RateRows) -> Result<(), ScenarioError> {
        let pairs = self
            .pairs(users.clone())
            .ok_or(ScenarioError::IndexOutOfRange {
                entity: "user",
                index: users.end,
                len: self.num_users(),
            })?;
        out.rates_bps.clear();
        out.rates_bps.reserve(pairs.len());
        out.best.clear();
        for k in users.clone() {
            let row = self.offsets[k]..self.offsets[k + 1];
            let user = self.user_points[k];
            let first = out.rates_bps.len();
            for pair in row.clone() {
                let m = self.servers[pair] as usize;
                let d = self.server_points[m].distance(user);
                out.rates_bps.push(self.contexts[m].rate_bps(d, 1.0));
            }
            let rates = &out.rates_bps[first..];
            out.best.push(best_of(&self.servers[row], rates));
        }
        out.users = users;
        Ok(())
    }
}

/// The rate rows of one range of users, written by
/// [`RatePass::write_rows`]: a chunk's output buffer, reused across
/// passes.
#[derive(Debug, Clone, Default)]
pub struct RateRows {
    users: Range<usize>,
    rates_bps: Vec<f64>,
    best: Vec<Option<usize>>,
}

impl RateRows {
    /// The users whose rows these are.
    pub fn users(&self) -> Range<usize> {
        self.users.clone()
    }

    /// Each user's strongest covering server, in user order (see
    /// [`RateMatrix::best_server`]).
    pub fn best_servers(&self) -> &[Option<usize>] {
        &self.best
    }
}

/// Computes end-to-end latencies and the eligibility indicator for one
/// scenario snapshot.
///
/// [`LatencyEvaluator::latency_s`] and [`LatencyEvaluator::eligible`]
/// answer one `(m, k, i)` triple and are the pointwise definition.
/// Both bulk derivations — the dense build
/// ([`LatencyEvaluator::eligibility`]) and the sparse build
/// ([`LatencyEvaluator::sparse_eligibility`]) — and the serve path's
/// [`LatencyEvaluator::scored_candidates`]
/// instead run one **candidate kernel**: for a request class `(k, i)` it
/// yields, in ascending server order, every server able to serve the
/// class together with its latency, bit-identical to probing `eligible`
/// and `latency_s` for every server. The row builders drop the latency.
///
/// * An uncovered user has no candidates.
/// * Otherwise the covering servers' direct rates are the user's own
///   row of the [`RateMatrix`], read in place. A covering server is
///   decided by Eq. (4) on its own rate; on the uniform backhaul mesh
///   all non-covering servers share one Eq. (5) latency (constant
///   backhaul transfer plus the best direct leg), so a single compare
///   decides them together.
///
/// A user therefore costs `I × |covering|` compares plus `M` pushes per
/// relayed class, instead of `M × I` latency evaluations.
/// [`LatencyEvaluator::scored_candidates`] runs the kernel for one class
/// only: what a request needs to pick its server, with no stored row
/// read, so it is exact whether or not the snapshot's row is up to date.
#[derive(Debug, Clone)]
pub struct LatencyEvaluator<'a> {
    library: &'a ModelLibrary,
    demand: &'a Demand,
    coverage: &'a CoverageMap,
    backhaul: &'a Backhaul,
    rates: &'a RateMatrix,
}

impl<'a> LatencyEvaluator<'a> {
    /// Creates an evaluator over borrowed scenario components.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::DimensionMismatch`] if the components
    /// disagree on the number of users, servers or models.
    pub fn new(
        library: &'a ModelLibrary,
        demand: &'a Demand,
        coverage: &'a CoverageMap,
        backhaul: &'a Backhaul,
        rates: &'a RateMatrix,
    ) -> Result<Self, ScenarioError> {
        if demand.num_models() != library.num_models() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!(
                    "demand covers {} models but the library has {}",
                    demand.num_models(),
                    library.num_models()
                ),
            });
        }
        if demand.num_users() != coverage.num_users() || rates.num_users() != coverage.num_users() {
            return Err(ScenarioError::DimensionMismatch {
                reason: "user counts of demand, coverage and rate matrix differ".into(),
            });
        }
        if coverage.num_servers() != backhaul.num_servers()
            || rates.num_servers() != coverage.num_servers()
        {
            return Err(ScenarioError::DimensionMismatch {
                reason: "server counts of coverage, backhaul and rate matrix differ".into(),
            });
        }
        Ok(Self {
            library,
            demand,
            coverage,
            backhaul,
            rates,
        })
    }

    /// Number of models `I` in the underlying library.
    pub fn num_models(&self) -> usize {
        self.library.num_models()
    }

    /// End-to-end latency `T_{m,k,i}` in seconds when edge server `m`
    /// supplies model `i` to user `k` (Eq. 4 if `m` covers `k`, Eq. 5
    /// otherwise). Returns `f64::INFINITY` when no covering server exists
    /// for the user or no positive-rate path exists.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown indices.
    pub fn latency_s(&self, m: usize, user: UserId, model: ModelId) -> Result<f64, ScenarioError> {
        let k = user.index();
        let size_bytes = self.library.model_size_bytes(model)?;
        let size_bits = size_bytes as f64 * 8.0;
        let inference = self.demand.inference_s(user, model)?;
        let covering = self.coverage.servers_of_user(k)?;
        if covering.is_empty() {
            return Ok(f64::INFINITY);
        }
        if covering.contains(&m) {
            let rate = self.rates.rate_bps(m, k)?;
            if rate <= 0.0 {
                return Ok(f64::INFINITY);
            }
            return Ok(size_bits / rate + inference);
        }
        // Relay through the covering server minimising total transfer time.
        let mut best = f64::INFINITY;
        for &mp in covering {
            let edge_rate = self.rates.rate_bps(mp, k)?;
            if edge_rate <= 0.0 {
                continue;
            }
            let backhaul_rate = self.backhaul.rate_bps(m, mp)?;
            let transfer = if backhaul_rate.is_infinite() {
                0.0
            } else {
                size_bits / backhaul_rate
            };
            let total = transfer + size_bits / edge_rate;
            if total < best {
                best = total;
            }
        }
        if best.is_infinite() {
            return Ok(f64::INFINITY);
        }
        Ok(best + inference)
    }

    /// The indicator `I1(m, k, i)`: can server `m` deliver model `i` to
    /// user `k` within the QoS budget?
    ///
    /// # Errors
    ///
    /// Returns an error for unknown indices.
    pub fn eligible(&self, m: usize, user: UserId, model: ModelId) -> Result<bool, ScenarioError> {
        let latency = self.latency_s(m, user, model)?;
        Ok(latency <= self.demand.deadline_s(user, model)?)
    }

    /// Precomputes the full dense `M × K × I` eligibility tensor, one
    /// user at a time through the per-user candidate kernel (see
    /// [`LatencyEvaluator`]); only one user's candidate rows are staged.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent components.
    pub fn eligibility(&self) -> Result<EligibilityTensor, ScenarioError> {
        let size_bits = self.model_sizes_bits()?;
        EligibilityTensor::from_user_rows(
            self.coverage.num_servers(),
            self.coverage.num_users(),
            self.library.num_models(),
            |k, rows| self.append_user_candidates(k, &size_bits, rows),
        )
    }

    /// Builds the coverage-pruned [`SparseEligibility`] without ever
    /// allocating the dense cube: the per-user candidate kernel's rows
    /// of every user (see [`LatencyEvaluator`]) become the forward CSR
    /// directly.
    ///
    /// The result is indistinguishable from the dense tensor, but memory
    /// follows the number of eligible triples. When relaying fits the
    /// deadline the candidate lists do grow towards `M`; the
    /// representation shines in the city-scale regime where deadlines
    /// preclude backhaul relays for most request classes.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent components.
    pub fn sparse_eligibility(&self) -> Result<SparseEligibility, ScenarioError> {
        let size_bits = self.model_sizes_bits()?;
        SparseEligibility::from_user_rows(
            self.coverage.num_servers(),
            self.coverage.num_users(),
            self.library.num_models(),
            |k, rows| self.append_user_candidates(k, &size_bits, rows),
        )
    }

    /// Every model's download size in bits, exactly as
    /// [`LatencyEvaluator::latency_s`] derives them.
    fn model_sizes_bits(&self) -> Result<Vec<f64>, ScenarioError> {
        (0..self.library.num_models())
            .map(|i| self.size_bits(ModelId(i)))
            .collect()
    }

    /// Model `i`'s download size in bits, as [`LatencyEvaluator::latency_s`]
    /// derives it.
    fn size_bits(&self, model: ModelId) -> Result<f64, ScenarioError> {
        Ok(self.library.model_size_bytes(model)? as f64 * 8.0)
    }

    /// The per-user candidate kernel: appends user `k`'s `I` candidate
    /// rows to `rows`, row `i` listing ascending every server `m` with
    /// `I1(m, k, i)`, from the models' download sizes `size_bits`. An
    /// uncovered user gets `I` empty rows. The user's rate row is read
    /// once and each model is decided by `class_pass`; the latencies it
    /// yields are dropped.
    fn append_user_candidates(
        &self,
        k: usize,
        size_bits: &[f64],
        rows: &mut CandidateRows,
    ) -> Result<(), ScenarioError> {
        let row = self.covering_row(k)?;
        for (i, &size_bits) in size_bits.iter().enumerate() {
            let push = |m, _latency| rows.push_server(m);
            self.class_pass(UserId(k), ModelId(i), size_bits, row, push)?;
            rows.end_row();
        }
        Ok(())
    }

    /// User `k`'s covering servers, its aligned rate row and the row's
    /// best rate, which realises the minimum relayed latency of Eq. (5)
    /// on the uniform mesh.
    fn covering_row(&self, k: usize) -> Result<CoveringRow<'a>, ScenarioError> {
        let (covering, rates) = (self.coverage.servers_of_user(k)?, self.rates.user_rates(k)?);
        if rates.len() != covering.len() {
            return Err(ScenarioError::DimensionMismatch {
                reason: format!("user {k}'s rate row does not match its covering servers"),
            });
        }
        let best = rates
            .iter()
            .fold(0.0, |best, &r| if r > best { r } else { best });
        Ok((covering, rates, best))
    }

    /// Scores the one request class `(user, model)`: calls `visit(m,
    /// latency)` for every server `m` with `I1(m, k, i)`, in ascending
    /// server order, where `latency` is bit-identical to
    /// [`LatencyEvaluator::latency_s`]. This is the candidate kernel's
    /// pass (see [`LatencyEvaluator`]) for one class, read from the radio
    /// state and never from a stored eligibility row; it allocates
    /// nothing.
    ///
    /// Cost: one walk over the user's rate row plus one relay decision,
    /// and one visit per candidate.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown indices.
    pub fn scored_candidates(
        &self,
        user: UserId,
        model: ModelId,
        visit: impl FnMut(usize, f64),
    ) -> Result<(), ScenarioError> {
        let row = self.covering_row(user.index())?;
        self.class_pass(user, model, self.size_bits(model)?, row, visit)
    }

    /// Yields, in ascending server order, every candidate server of one
    /// request class with its latency, from the user's covering `row`
    /// and the model's download size `size_bits`; none for an uncovered
    /// user.
    ///
    /// Bit-identical to probing every server through
    /// [`LatencyEvaluator::latency_s`] and [`LatencyEvaluator::eligible`]:
    /// a covering server's latency is the same `size_bits / rate +
    /// inference` expression as Eq. (4), and because the relay transfer
    /// term of Eq. (5) is constant on a uniform mesh while float rounding
    /// is monotone, the minimum relayed latency is exactly the one
    /// through the best-rate covering server, evaluated with the same
    /// operation order as `latency_s` — one value shared by every
    /// non-covering server.
    fn class_pass(
        &self,
        user: UserId,
        model: ModelId,
        size_bits: f64,
        (covering, rates, best_rate): CoveringRow<'_>,
        mut visit: impl FnMut(usize, f64),
    ) -> Result<(), ScenarioError> {
        if covering.is_empty() {
            return Ok(());
        }
        let m_count = self.coverage.num_servers();
        let [deadline, inference] = self.demand.budget_s(user, model)?;
        // Eq. (4) for a covering server; `None` when it misses the
        // deadline or has no positive rate.
        let direct = |rate: f64| {
            let latency = size_bits / rate + inference;
            (rate > 0.0 && latency <= deadline).then_some(latency)
        };
        // Non-covering servers all share Eq. (5)'s latency: constant
        // backhaul transfer plus the best direct leg.
        let relay = if covering.len() < m_count && best_rate > 0.0 {
            let backhaul_rate = self.backhaul.default_rate_bps();
            let transfer = if backhaul_rate.is_infinite() {
                0.0
            } else {
                size_bits / backhaul_rate
            };
            let latency = (transfer + size_bits / best_rate) + inference;
            (latency <= deadline).then_some(latency)
        } else {
            None
        };
        let mut cover = covering.iter().zip(rates);
        match relay {
            // Every non-covering server qualifies; covering servers
            // qualify when direct-eligible.
            Some(relayed) => {
                let mut next = cover.next();
                for m in 0..m_count {
                    match next {
                        Some((&cm, &rate)) if cm == m => {
                            next = cover.next();
                            if let Some(latency) = direct(rate) {
                                visit(m, latency);
                            }
                        }
                        _ => visit(m, relayed),
                    }
                }
            }
            None => {
                for (&m, &rate) in cover {
                    if let Some(latency) = direct(rate) {
                        visit(m, latency);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A user's covering servers, aligned rate row and best rate (see
/// `LatencyEvaluator::covering_row`).
type CoveringRow<'r> = (&'r [usize], &'r [f64], f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandConfig;
    use crate::eligibility::EligibilityView;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trimcaching_modellib::builders::SpecialCaseBuilder;
    use trimcaching_wireless::geometry::Point;

    struct Fixture {
        library: ModelLibrary,
        demand: Demand,
        coverage: CoverageMap,
        backhaul: Backhaul,
        rates: RateMatrix,
        params: RadioParams,
    }

    fn fixture() -> Fixture {
        let params = RadioParams::paper_defaults();
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(1);
        let servers = vec![Point::new(0.0, 0.0), Point::new(600.0, 0.0)];
        let users = vec![
            Point::new(50.0, 0.0),    // near server 0
            Point::new(620.0, 0.0),   // near server 1
            Point::new(900.0, 900.0), // uncovered
        ];
        let coverage = CoverageMap::build(&users, &servers, params.coverage_radius_m).unwrap();
        let allocation = PerUserAllocation::compute(&coverage, &params).unwrap();
        let rates = RateMatrix::expected(&coverage, &allocation, &params).unwrap();
        let backhaul = Backhaul::paper_default(2);
        let mut rng = StdRng::seed_from_u64(2);
        let demand = DemandConfig::paper_defaults()
            .generate(3, library.num_models(), &mut rng)
            .unwrap();
        Fixture {
            library,
            demand,
            coverage,
            backhaul,
            rates,
            params,
        }
    }

    #[test]
    fn rate_matrix_is_zero_outside_coverage() {
        let f = fixture();
        assert_eq!(f.rates.num_servers(), 2);
        assert_eq!(f.rates.num_users(), 3);
        assert!(f.rates.rate_bps(0, 0).unwrap() > 0.0);
        assert_eq!(f.rates.rate_bps(0, 1).unwrap(), 0.0);
        assert_eq!(f.rates.rate_bps(1, 2).unwrap(), 0.0);
        assert!(f.rates.rate_bps(2, 0).is_err());
        assert!(f.rates.rate_bps(0, 9).is_err());
    }

    #[test]
    fn rate_matrix_stores_only_covered_pairs() {
        let f = fixture();
        // Server 0 covers user 0, server 1 covers user 1; user 2 is
        // uncovered: two stored entries instead of a dense 2 x 3 = 6.
        assert_eq!(f.rates.num_covered_pairs(), 2);
        assert_eq!(
            f.rates.user_rates(0).unwrap(),
            [f.rates.rate_bps(0, 0).unwrap()]
        );
        assert_eq!(
            f.rates.user_rates(1).unwrap(),
            [f.rates.rate_bps(1, 1).unwrap()]
        );
        assert!(f.rates.user_rates(2).unwrap().is_empty());
        assert!(f.rates.user_rates(3).is_err());
    }

    #[test]
    fn fading_reduces_or_keeps_rates() {
        let f = fixture();
        let alloc = PerUserAllocation::compute(&f.coverage, &f.params).unwrap();
        let faded = RateMatrix::with_fading(&f.coverage, &alloc, &f.params, |_m, _k| 0.25).unwrap();
        assert!(faded.rate_bps(0, 0).unwrap() < f.rates.rate_bps(0, 0).unwrap());
    }

    #[test]
    fn recomputed_rates_equal_a_fresh_matrix() {
        let f = fixture();
        let mut coverage = f.coverage.clone();
        // User 2 enters server 1's cell and user 0 moves within server 0's.
        let moved = [
            Point::new(80.0, 10.0),
            Point::new(620.0, 0.0),
            Point::new(640.0, 30.0),
        ];
        coverage.set_user_positions(&moved).unwrap();
        let allocation = PerUserAllocation::compute(&coverage, &f.params).unwrap();
        let mut rates = f.rates.clone();
        rates
            .recompute_expected(&coverage, &allocation, &f.params)
            .unwrap();
        let fresh = RateMatrix::expected(&coverage, &allocation, &f.params).unwrap();
        assert_eq!(rates, fresh);
        assert_eq!(rates.num_covered_pairs(), 3);
        // An allocation over another server count is rejected and leaves
        // the matrix as it was.
        let other = CoverageMap::build(&moved, &[Point::new(0.0, 0.0)], 275.0).unwrap();
        let narrow = PerUserAllocation::compute(&other, &f.params).unwrap();
        assert!(rates
            .recompute_expected(&coverage, &narrow, &f.params)
            .is_err());
        assert_eq!(rates, fresh);
    }

    /// A layout of 40 users around three servers, some uncovered.
    fn busy_layout() -> (CoverageMap, PerUserAllocation, RadioParams) {
        let params = RadioParams::paper_defaults();
        let servers = [
            Point::new(0.0, 0.0),
            Point::new(300.0, 0.0),
            Point::new(150.0, 200.0),
        ];
        let users: Vec<Point> = (0..40)
            .map(|k| {
                Point::new(
                    (k * 97 % 1000) as f64 - 300.0,
                    (k * 53 % 700) as f64 - 250.0,
                )
            })
            .collect();
        let coverage = CoverageMap::build(&users, &servers, params.coverage_radius_m).unwrap();
        let allocation = PerUserAllocation::compute(&coverage, &params).unwrap();
        (coverage, allocation, params)
    }

    #[test]
    fn rows_written_in_chunks_equal_one_pass() {
        let (coverage, allocation, params) = busy_layout();
        let whole = RateMatrix::expected(&coverage, &allocation, &params).unwrap();
        // Uncovered users and users under two or three servers.
        assert!(coverage.uncovered_users().len() > 1 && whole.num_covered_pairs() > 30);
        for cuts in [
            vec![0, 40],
            vec![0, 1, 17, 17, 39, 40],
            vec![0, 5, 10, 20, 30, 40],
        ] {
            let mut pass = RatePass::default();
            pass.prepare(&coverage, &allocation, &params).unwrap();
            let chunks: Vec<RateRows> = cuts
                .windows(2)
                .map(|w| {
                    let mut rows = RateRows::default();
                    pass.write_rows(w[0]..w[1], &mut rows).unwrap();
                    rows
                })
                .collect();
            let best: Vec<Option<usize>> = chunks
                .iter()
                .flat_map(|rows| rows.best_servers().iter().copied())
                .collect();
            // Out of order, the chunks are refused and nothing changes.
            let nobody = CoverageMap::build(&[], &[], params.coverage_radius_m).unwrap();
            let none = PerUserAllocation::compute(&nobody, &params).unwrap();
            let empty = RateMatrix::expected(&nobody, &none, &params).unwrap();
            let mut rates = empty.clone();
            if chunks.len() > 1 {
                let backwards: Vec<&RateRows> = chunks.iter().rev().collect();
                assert!(rates.install(&mut pass, backwards).is_err());
                assert!(rates.install(&mut pass, &chunks[1..]).is_err());
                assert_eq!(rates, empty);
            }
            rates.install(&mut pass, &chunks).unwrap();
            assert_eq!(rates, whole, "cuts {cuts:?}");
            let eager: Vec<Option<usize>> =
                (0..40).map(|k| whole.best_server(k).unwrap()).collect();
            assert_eq!(best, eager, "cuts {cuts:?}");
            // A spent pass writes nothing.
            assert_eq!(pass.num_users(), 0);
            assert!(pass.write_rows(0..1, &mut RateRows::default()).is_err());
        }
    }

    #[test]
    fn associated_latency_uses_direct_rate() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        let model = ModelId(0);
        let latency = eval.latency_s(0, UserId(0), model).unwrap();
        let expected = f.library.model_size_bytes(model).unwrap() as f64 * 8.0
            / f.rates.rate_bps(0, 0).unwrap()
            + f.demand.inference_s(UserId(0), model).unwrap();
        assert!((latency - expected).abs() < 1e-9);
    }

    #[test]
    fn relayed_latency_adds_backhaul_transfer() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        let model = ModelId(0);
        // Server 1 does not cover user 0, so delivery relays through server 0.
        let relayed = eval.latency_s(1, UserId(0), model).unwrap();
        let direct = eval.latency_s(0, UserId(0), model).unwrap();
        assert!(relayed > direct);
        let size_bits = f.library.model_size_bytes(model).unwrap() as f64 * 8.0;
        let expected = size_bits / f.backhaul.rate_bps(1, 0).unwrap()
            + size_bits / f.rates.rate_bps(0, 0).unwrap()
            + f.demand.inference_s(UserId(0), model).unwrap();
        assert!((relayed - expected).abs() < 1e-9);
    }

    #[test]
    fn uncovered_users_are_never_eligible() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        for m in 0..2 {
            assert!(eval
                .latency_s(m, UserId(2), ModelId(0))
                .unwrap()
                .is_infinite());
            assert!(!eval.eligible(m, UserId(2), ModelId(0)).unwrap());
        }
    }

    /// Asserts that `view` answers every triple exactly like the
    /// pointwise definition [`LatencyEvaluator::eligible`].
    fn assert_matches_oracle(eval: &LatencyEvaluator<'_>, view: &dyn EligibilityView) {
        let (m_count, k_count, i_count) = (view.num_servers(), view.num_users(), view.num_models());
        let mut eligible = 0;
        for m in 0..m_count {
            for k in 0..k_count {
                for i in 0..i_count {
                    let oracle = eval.eligible(m, UserId(k), ModelId(i)).unwrap();
                    eligible += usize::from(oracle);
                    assert_eq!(
                        view.eligible(m, UserId(k), ModelId(i)),
                        oracle,
                        "disagreement with the oracle at ({m},{k},{i})"
                    );
                }
            }
        }
        assert_eq!(view.num_eligible(), eligible);
    }

    #[test]
    fn eligibility_tensor_matches_pointwise_queries() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        let tensor = eval.eligibility().unwrap();
        assert_eq!(tensor.num_servers(), 2);
        assert_eq!(tensor.num_users(), 3);
        assert_eq!(tensor.num_models(), f.library.num_models());
        assert_matches_oracle(&eval, &tensor);
        // Near users must be served by their own server within 1 s budgets
        // for at least one (small) model under the paper's rates.
        assert!(tensor.num_eligible() > 0);
        // Out-of-range lookups are simply false.
        assert!(!tensor.eligible(9, UserId(0), ModelId(0)));
        assert!(!tensor.eligible(0, UserId(9), ModelId(0)));
        assert!(!tensor.eligible(0, UserId(0), ModelId(999)));
    }

    #[test]
    fn sparse_eligibility_matches_pointwise_queries() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        let sparse = eval.sparse_eligibility().unwrap();
        assert_eq!(sparse.num_servers(), 2);
        assert_eq!(sparse.num_users(), 3);
        assert_eq!(sparse.num_models(), f.library.num_models());
        assert_matches_oracle(&eval, &sparse);
    }

    /// Requires [`LatencyEvaluator::scored_candidates`] to yield, for
    /// every `(k, i)`, exactly `{(m, latency_s(m, k, i)) : eligible(m, k,
    /// i)}` in ascending server order, latencies compared bit for bit.
    /// Returns how many covering and non-covering candidates it saw.
    fn assert_scores_match_oracle(
        eval: &LatencyEvaluator<'_>,
        coverage: &CoverageMap,
    ) -> (usize, usize) {
        let (mut direct, mut relayed) = (0, 0);
        for k in 0..coverage.num_users() {
            let covering = coverage.servers_of_user(k).unwrap();
            for i in 0..eval.num_models() {
                let (user, model) = (UserId(k), ModelId(i));
                let mut scored = Vec::new();
                eval.scored_candidates(user, model, |m, latency| {
                    scored.push((m, latency.to_bits()));
                })
                .unwrap();
                let oracle: Vec<(usize, u64)> = (0..coverage.num_servers())
                    .filter(|&m| eval.eligible(m, user, model).unwrap())
                    .map(|m| (m, eval.latency_s(m, user, model).unwrap().to_bits()))
                    .collect();
                assert_eq!(scored, oracle, "scored candidates of ({k}, {i})");
                for &(m, _) in &scored {
                    if covering.contains(&m) {
                        direct += 1;
                    } else {
                        relayed += 1;
                    }
                }
            }
        }
        (direct, relayed)
    }

    #[test]
    fn scored_candidates_equal_the_pointwise_latencies() {
        let f = fixture();
        let eval = LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &f.backhaul, &f.rates)
            .unwrap();
        let (direct, relayed) = assert_scores_match_oracle(&eval, &f.coverage);
        // Both Eq. (4) and Eq. (5) candidates are exercised.
        assert!(
            direct > 0 && relayed > 0,
            "{direct} direct, {relayed} relayed"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The scoring pass equals the pointwise latency definition on
        /// random deployments, random mesh rates and deadlines, with
        /// always one uncovered user.
        #[test]
        fn scored_candidates_match_the_pointwise_oracle(
            seed in 0u64..1_000_000,
            num_servers in 1usize..6,
            num_users in 1usize..24,
            backhaul_gbps in 0.02f64..20.0,
            max_deadline_s in 0.1f64..3.0,
        ) {
            use rand::Rng;
            let params = RadioParams::paper_defaults();
            let mut rng = StdRng::seed_from_u64(seed);
            let library = SpecialCaseBuilder::paper_setup()
                .models_per_backbone(2)
                .build(seed);
            let mut point = |side: f64| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let servers: Vec<Point> = (0..num_servers).map(|_| point(800.0)).collect();
            let mut users: Vec<Point> = (0..num_users).map(|_| point(800.0)).collect();
            users.push(Point::new(5_000.0, 5_000.0));
            let coverage = CoverageMap::build(&users, &servers, params.coverage_radius_m).unwrap();
            let allocation = PerUserAllocation::compute(&coverage, &params).unwrap();
            let rates = RateMatrix::expected(&coverage, &allocation, &params).unwrap();
            let demand = DemandConfig {
                deadline_range_s: (0.05, max_deadline_s),
                ..DemandConfig::paper_defaults()
            }
            .generate(users.len(), library.num_models(), &mut rng)
            .unwrap();
            let backhaul = Backhaul::uniform(num_servers, backhaul_gbps * 1e9).unwrap();
            let eval = LatencyEvaluator::new(&library, &demand, &coverage, &backhaul, &rates).unwrap();
            assert_scores_match_oracle(&eval, &coverage);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// On random deployments — a linear scan or, above 128 servers,
        /// the spatial grid, with always one uncovered user — every
        /// user's row entry `j` equals the pointwise Eq. (1) rate of its
        /// `j`-th covering server bit for bit, and `rate_bps` answers
        /// that rate for covered pairs, `0.0` for uncovered ones and an
        /// error out of range.
        #[test]
        fn user_rate_rows_match_the_pointwise_rates(
            seed in 0u64..1_000_000,
            num_servers in 1usize..300,
            num_users in 1usize..40,
        ) {
            use rand::Rng;
            let params = RadioParams::paper_defaults();
            let mut rng = StdRng::seed_from_u64(seed);
            let side = 250.0 * (num_servers as f64).sqrt();
            let mut point = || Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let servers: Vec<Point> = (0..num_servers).map(|_| point()).collect();
            let mut users: Vec<Point> = (0..num_users).map(|_| point()).collect();
            users.push(Point::new(-5_000.0, -5_000.0));
            let coverage = CoverageMap::build(&users, &servers, params.coverage_radius_m).unwrap();
            let allocation = PerUserAllocation::compute(&coverage, &params).unwrap();
            let rates = RateMatrix::expected(&coverage, &allocation, &params).unwrap();
            proptest::prop_assert_eq!(rates.num_users(), users.len());
            proptest::prop_assert_eq!(rates.num_servers(), num_servers);
            let mut pairs = 0;
            for k in 0..users.len() {
                let covering = coverage.servers_of_user(k).unwrap();
                let row = rates.user_rates(k).unwrap();
                proptest::prop_assert_eq!(row.len(), covering.len());
                pairs += row.len();
                for (&m, &rate) in covering.iter().zip(row) {
                    let share = allocation.share(m).unwrap();
                    let ctx = RateContext::new(share.bandwidth_hz, share.power_w, &params);
                    let pointwise = ctx.rate_bps(coverage.distance_m(m, k).unwrap(), 1.0);
                    proptest::prop_assert_eq!(rate.to_bits(), pointwise.to_bits());
                }
                for m in 0..num_servers {
                    let expected = covering
                        .iter()
                        .position(|&c| c == m)
                        .map_or(0.0, |j| row[j]);
                    proptest::prop_assert_eq!(rates.rate_bps(m, k).unwrap().to_bits(), expected.to_bits());
                }
                proptest::prop_assert!(rates.rate_bps(num_servers, k).is_err());
            }
            proptest::prop_assert!(rates.user_rates(num_users).unwrap().is_empty());
            proptest::prop_assert!(rates.user_rates(users.len()).is_err());
            proptest::prop_assert!(rates.rate_bps(0, users.len()).is_err());
            proptest::prop_assert_eq!(rates.num_covered_pairs(), pairs);
        }
    }

    #[test]
    fn from_fn_builds_custom_tensors() {
        let t = EligibilityTensor::from_fn(2, 2, 2, |m, k, i| m == 0 && k == i);
        assert!(t.eligible(0, UserId(0), ModelId(0)));
        assert!(t.eligible(0, UserId(1), ModelId(1)));
        assert!(!t.eligible(1, UserId(0), ModelId(0)));
        assert_eq!(t.num_eligible(), 2);
    }

    #[test]
    fn evaluator_rejects_inconsistent_components() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(5);
        // Demand over the wrong number of models.
        let bad_demand = DemandConfig::paper_defaults()
            .generate(3, 2, &mut rng)
            .unwrap();
        assert!(
            LatencyEvaluator::new(&f.library, &bad_demand, &f.coverage, &f.backhaul, &f.rates)
                .is_err()
        );
        // Backhaul with the wrong number of servers.
        let bad_backhaul = Backhaul::paper_default(5);
        assert!(
            LatencyEvaluator::new(&f.library, &f.demand, &f.coverage, &bad_backhaul, &f.rates)
                .is_err()
        );
        // Demand over the wrong number of users.
        let bad_users = DemandConfig::paper_defaults()
            .generate(2, f.library.num_models(), &mut rng)
            .unwrap();
        assert!(
            LatencyEvaluator::new(&f.library, &bad_users, &f.coverage, &f.backhaul, &f.rates)
                .is_err()
        );
    }
}
