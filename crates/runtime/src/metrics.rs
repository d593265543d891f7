//! Streaming metrics of one serving run.
//!
//! The engine records every request as it is served; the metrics layer
//! keeps O(1) running state per request: global counters, a windowed
//! hit-ratio trace (the time series the operator would alert on) and a
//! logarithmically bucketed latency histogram from which p50/p95/p99 are
//! read. Everything is a pure function of the recorded event stream, so
//! two identically seeded runs produce identical metric values — the
//! property the determinism tests pin down.

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served from an edge cache within the deadline — a cache hit.
    Hit,
    /// No eligible server cached the model; it was fetched from the cloud
    /// (and possibly admitted into a cache). Counts against the hit ratio.
    MissServed,
    /// No edge server could deliver the model within its deadline at all.
    Rejected,
}

/// Hit/request counts of one completed metrics window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// End of the window in simulated seconds.
    pub end_s: f64,
    /// Requests that fired during the window.
    pub requests: u64,
    /// Cache hits during the window.
    pub hits: u64,
}

impl WindowPoint {
    /// Hit ratio of the window (zero for an empty window).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Fixed log-spaced latency histogram over `[100 µs, 1000 s]`.
///
/// 120 buckets give ~14% relative resolution — coarse, but quantiles of
/// a serving run are reported, not asserted to sub-percent precision,
/// and a fixed layout keeps recording allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    pub(crate) buckets: Vec<u64>,
    pub(crate) count: u64,
}

/// Bucket count of every [`LatencyHistogram`].
pub(crate) const HIST_BUCKETS: usize = 120;
const HIST_MIN_S: f64 = 1e-4;
const HIST_MAX_S: f64 = 1e3;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
        }
    }

    fn bucket_of(latency_s: f64) -> usize {
        let clamped = latency_s.clamp(HIST_MIN_S, HIST_MAX_S);
        let position = (clamped / HIST_MIN_S).ln() / (HIST_MAX_S / HIST_MIN_S).ln();
        ((position * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1)
    }

    /// Upper latency bound of bucket `b` in seconds.
    fn bucket_upper_s(b: usize) -> f64 {
        HIST_MIN_S * (HIST_MAX_S / HIST_MIN_S).powf((b + 1) as f64 / HIST_BUCKETS as f64)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_s: f64) {
        self.buckets[Self::bucket_of(latency_s)] += 1;
        self.count += 1;
    }

    /// The histogram of samples recorded since `earlier` was snapshot
    /// from this same (cumulative, append-only) histogram — how the
    /// controller derives per-tick latency quantiles without a second
    /// per-request recording path.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot
    /// (some bucket would go negative).
    pub fn delta_since(&self, earlier: &Self) -> Self {
        debug_assert!(self.count >= earlier.count, "snapshots must be ordered");
        Self {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now - then)
                .collect(),
            count: self.count - earlier.count,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds `other`'s samples bucket-wise (histograms share the fixed
    /// layout, so merging is exact).
    pub(crate) fn merge_from(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper edge of the bucket
    /// containing it, or `None` if the histogram is empty.
    pub fn quantile_s(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::bucket_upper_s(b));
            }
        }
        Some(Self::bucket_upper_s(HIST_BUCKETS - 1))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// All metrics of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Total requests fired.
    pub requests: u64,
    /// Requests served from an edge cache (hits).
    pub hits: u64,
    /// Requests served by fetching from the cloud (misses).
    pub misses_served: u64,
    /// Requests no eligible server could serve within the deadline.
    pub rejected: u64,
    /// Deduplicated bytes provisioned into edge caches (storage-side
    /// accounting: what the caches grew by, after block sharing).
    pub bytes_downloaded: u64,
    /// Bytes that actually crossed the cloud→edge backhaul links
    /// (wire-side accounting). Block-granular fills move only missing
    /// blocks, so on shared-block libraries this is strictly less than
    /// the whole-model figure; transient fetches for non-admitted
    /// misses count too.
    pub backhaul_bytes_moved: u64,
    /// Backhaul transfers started (fills and transient fetches).
    pub transfers_started: u64,
    /// Cache fills whose transfer-complete event fired within the run.
    pub fills_completed: u64,
    /// Total seconds of backhaul transfer time scheduled (sum of
    /// per-transfer durations under the congestion-degraded rates);
    /// mean transfer time = this over [`ServeMetrics::transfers_started`].
    pub transfer_seconds: f64,
    /// Highest number of simultaneous in-flight transfers observed on
    /// any single server's backhaul link.
    pub peak_transfer_queue_depth: u64,
    /// Sum over started transfers of the queue depth found at start;
    /// mean contention = this over [`ServeMetrics::transfers_started`].
    pub transfer_queue_depth_sum: u64,
    /// Parameter blocks needed across all served requests (each request
    /// counts every block of its model at the serving server).
    pub block_requests: u64,
    /// Needed blocks that were already resident at the serving server —
    /// the numerator of the block hit ratio, which credits partial
    /// residency (shared blocks) that the model-level hit ratio cannot.
    pub block_hits: u64,
    /// Cache insertions performed.
    pub insertions: u64,
    /// Cache evictions performed.
    pub evictions: u64,
    /// Radio-snapshot updates triggered by mobility slots (each slot
    /// moves the snapshot's users in place and recomputes its radio
    /// state whole).
    pub snapshot_rebuilds: u64,
    /// Users whose rates could have changed, summed over all mobility
    /// slots: each slot's moved users plus the users of every server
    /// whose per-user share changed
    /// ([`SnapshotDelta::refreshed_users`](trimcaching_scenario::SnapshotDelta::refreshed_users)).
    /// Handovers are recounted over these users only; at most
    /// `snapshot_rebuilds × K`.
    pub users_refreshed: u64,
    /// Users whose primary (highest-rate covering) server changed across
    /// a mobility slot — the handovers the engine carried out.
    pub handovers: u64,
    /// Ticks of the online re-placement control loop that fired.
    pub control_ticks: u64,
    /// Re-plans triggered (drift-triggered, epoch-timer and scheduled
    /// oracle reconciliations all count).
    pub replans_triggered: u64,
    /// Re-plans triggered specifically by the drift detector.
    pub replans_drift: u64,
    /// Cache fills started by reconciliation towards a re-planned
    /// target (a subset of the insertions; their bytes also appear in
    /// [`ServeMetrics::backhaul_bytes_moved`]).
    pub reconcile_fills_started: u64,
    /// Wire bytes moved by reconciliation fills — the reconfiguration
    /// traffic, accounted on the same backhaul links as miss fills.
    pub reconcile_bytes_moved: u64,
    /// Evictions performed by the reconciler to make room for target
    /// models (a subset of the evictions).
    pub reconcile_evictions: u64,
    /// Re-plans whose hit ratio recovered to the pre-drift reference
    /// before the run ended.
    pub recoveries: u64,
    /// Total seconds from a re-plan to hit-ratio recovery, summed over
    /// [`ServeMetrics::recoveries`]; mean recovery time =
    /// [`ServeMetrics::mean_recovery_s`].
    pub recovery_seconds: f64,
    /// Fault transitions applied that *degraded* the system (server
    /// crashes, link degradations).
    pub faults_injected: u64,
    /// Fault transitions applied that *restored* the system (server and
    /// link recoveries).
    pub faults_recovered: u64,
    /// Requests that failed because their serving target was down and
    /// no failover saved them — the numerator of unavailability. Failed
    /// requests also count as rejected (they were not served), so this
    /// is the fault-specific slice of the rejections.
    pub requests_failed: u64,
    /// Requests served by a failover candidate after their
    /// fault-oblivious target turned out to be down.
    pub requests_failed_over: u64,
    /// In-flight fills aborted by a server failure.
    pub fills_aborted: u64,
    /// Retry events fired for aborted fills (attempts that found the
    /// server still down and re-armed count too).
    pub fill_retries: u64,
    /// Resident models lost to cold or partial cache recovery.
    pub models_lost: u64,
    /// Latency histogram over all *served* requests (hits and misses).
    pub latency: LatencyHistogram,
    /// Latency histogram over requests served while at least one server
    /// was down — the degraded-mode tail the failover path is judged on.
    pub latency_degraded: LatencyHistogram,
    /// Completed hit-ratio windows in time order.
    pub(crate) windows: Vec<WindowPoint>,
    pub(crate) window_s: f64,
    pub(crate) window_end_s: f64,
    pub(crate) window_requests: u64,
    pub(crate) window_hits: u64,
    pub(crate) last_event_s: f64,
}

impl ServeMetrics {
    /// Creates empty metrics with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not strictly positive and finite (the
    /// engine validates its configuration before constructing metrics).
    pub fn new(window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "metrics window must be positive"
        );
        Self {
            requests: 0,
            hits: 0,
            misses_served: 0,
            rejected: 0,
            bytes_downloaded: 0,
            backhaul_bytes_moved: 0,
            transfers_started: 0,
            fills_completed: 0,
            transfer_seconds: 0.0,
            peak_transfer_queue_depth: 0,
            transfer_queue_depth_sum: 0,
            block_requests: 0,
            block_hits: 0,
            insertions: 0,
            evictions: 0,
            snapshot_rebuilds: 0,
            users_refreshed: 0,
            handovers: 0,
            control_ticks: 0,
            replans_triggered: 0,
            replans_drift: 0,
            reconcile_fills_started: 0,
            reconcile_bytes_moved: 0,
            reconcile_evictions: 0,
            recoveries: 0,
            recovery_seconds: 0.0,
            faults_injected: 0,
            faults_recovered: 0,
            requests_failed: 0,
            requests_failed_over: 0,
            fills_aborted: 0,
            fill_retries: 0,
            models_lost: 0,
            latency: LatencyHistogram::new(),
            latency_degraded: LatencyHistogram::new(),
            windows: Vec::new(),
            window_s,
            window_end_s: window_s,
            window_requests: 0,
            window_hits: 0,
            last_event_s: 0.0,
        }
    }

    /// Advances the window clock to `time_s`, flushing completed windows
    /// (empty windows are recorded too — a silent outage must show up in
    /// the trace).
    fn roll_to(&mut self, time_s: f64) {
        while time_s >= self.window_end_s {
            self.windows.push(WindowPoint {
                end_s: self.window_end_s,
                requests: self.window_requests,
                hits: self.window_hits,
            });
            self.window_requests = 0;
            self.window_hits = 0;
            self.window_end_s += self.window_s;
        }
        self.last_event_s = time_s;
    }

    /// Records one request outcome at simulated time `time_s`.
    /// `latency_s` must be given for served requests (hit or miss).
    pub fn record(&mut self, time_s: f64, outcome: RequestOutcome, latency_s: Option<f64>) {
        self.roll_to(time_s);
        self.requests += 1;
        self.window_requests += 1;
        match outcome {
            RequestOutcome::Hit => {
                self.hits += 1;
                self.window_hits += 1;
            }
            RequestOutcome::MissServed => self.misses_served += 1,
            RequestOutcome::Rejected => self.rejected += 1,
        }
        if let Some(l) = latency_s {
            self.latency.record(l);
        }
    }

    /// Flushes the trailing partial window at the end of the run.
    pub fn finish(&mut self, duration_s: f64) {
        self.roll_to(duration_s);
        if self.window_requests > 0 {
            self.windows.push(WindowPoint {
                end_s: duration_s,
                requests: self.window_requests,
                hits: self.window_hits,
            });
            self.window_requests = 0;
            self.window_hits = 0;
        }
    }

    /// Overall cache hit ratio (hits over all requests, as in Eq. (2):
    /// rejected requests count against it).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Block-granular hit ratio: the fraction of needed parameter
    /// blocks already resident at the serving server, over all served
    /// requests. Always at least the model-level hit ratio on the same
    /// stream — a missed model with a resident shared backbone still
    /// scores its resident blocks.
    pub fn block_hit_ratio(&self) -> f64 {
        if self.block_requests == 0 {
            0.0
        } else {
            self.block_hits as f64 / self.block_requests as f64
        }
    }

    /// Mean backhaul transfer duration in seconds (zero when no
    /// transfer started).
    pub fn mean_transfer_s(&self) -> f64 {
        if self.transfers_started == 0 {
            0.0
        } else {
            self.transfer_seconds / self.transfers_started as f64
        }
    }

    /// Mean backhaul queue depth found by starting transfers (zero when
    /// no transfer started).
    pub fn mean_transfer_queue_depth(&self) -> f64 {
        if self.transfers_started == 0 {
            0.0
        } else {
            self.transfer_queue_depth_sum as f64 / self.transfers_started as f64
        }
    }

    /// Mean seconds from a re-plan to hit-ratio recovery over the
    /// re-plans that recovered within the run (zero when none did).
    pub fn mean_recovery_s(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_seconds / self.recoveries as f64
        }
    }

    /// Availability: the fraction of requests that did *not* fail
    /// because of an injected fault (`1.0` for an empty or fault-free
    /// run). Capacity rejections are a modelling outcome, not an
    /// outage, so they do not count against availability.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            1.0 - self.requests_failed as f64 / self.requests as f64
        }
    }

    /// 95th-percentile service latency over requests served while at
    /// least one server was down (`None` when the run never degraded or
    /// served nothing while degraded).
    pub fn degraded_p95_latency_s(&self) -> Option<f64> {
        self.latency_degraded.quantile_s(0.95)
    }

    /// Fraction of requests that were served at all (hit or cloud fetch).
    pub fn served_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.hits + self.misses_served) as f64 / self.requests as f64
        }
    }

    /// The completed windowed hit-ratio trace.
    pub fn windows(&self) -> &[WindowPoint] {
        &self.windows
    }

    /// Simulated time of the last recorded event.
    pub fn last_event_s(&self) -> f64 {
        self.last_event_s
    }

    /// Folds another run's *finished* metrics into this one — how the
    /// sharded engine assembles its merged report. Counters sum, peaks
    /// take the max, histograms add bucket-wise and the windowed
    /// hit-ratio traces merge point-wise by window end (both shards roll
    /// the same window grid, so equal ends describe the same interval).
    /// Merging a run into a default-identical copy of itself is the
    /// identity on the first operand, which is what keeps a one-shard
    /// merged report equal to the classic report. Public so offline
    /// consumers (per-shard journal replay) can reassemble the same
    /// merged metrics the live sharded run reported.
    pub fn merge_from(&mut self, other: &Self) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses_served += other.misses_served;
        self.rejected += other.rejected;
        self.bytes_downloaded += other.bytes_downloaded;
        self.backhaul_bytes_moved += other.backhaul_bytes_moved;
        self.transfers_started += other.transfers_started;
        self.fills_completed += other.fills_completed;
        self.transfer_seconds += other.transfer_seconds;
        self.peak_transfer_queue_depth = self
            .peak_transfer_queue_depth
            .max(other.peak_transfer_queue_depth);
        self.transfer_queue_depth_sum += other.transfer_queue_depth_sum;
        self.block_requests += other.block_requests;
        self.block_hits += other.block_hits;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.snapshot_rebuilds += other.snapshot_rebuilds;
        self.users_refreshed += other.users_refreshed;
        self.handovers += other.handovers;
        self.control_ticks += other.control_ticks;
        self.replans_triggered += other.replans_triggered;
        self.replans_drift += other.replans_drift;
        self.reconcile_fills_started += other.reconcile_fills_started;
        self.reconcile_bytes_moved += other.reconcile_bytes_moved;
        self.reconcile_evictions += other.reconcile_evictions;
        self.recoveries += other.recoveries;
        self.recovery_seconds += other.recovery_seconds;
        self.faults_injected += other.faults_injected;
        self.faults_recovered += other.faults_recovered;
        self.requests_failed += other.requests_failed;
        self.requests_failed_over += other.requests_failed_over;
        self.fills_aborted += other.fills_aborted;
        self.fill_retries += other.fill_retries;
        self.models_lost += other.models_lost;
        self.latency.merge_from(&other.latency);
        self.latency_degraded.merge_from(&other.latency_degraded);
        // Two-pointer merge of the window traces: equal window ends sum
        // their counts, otherwise the earlier window passes through (a
        // trailing partial window may exist in one trace only).
        let mut merged = Vec::with_capacity(self.windows.len().max(other.windows.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.windows.len() || j < other.windows.len() {
            match (self.windows.get(i), other.windows.get(j)) {
                (Some(a), Some(b)) if a.end_s == b.end_s => {
                    merged.push(WindowPoint {
                        end_s: a.end_s,
                        requests: a.requests + b.requests,
                        hits: a.hits + b.hits,
                    });
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a.end_s < b.end_s => {
                    merged.push(*a);
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    merged.push(*b);
                    j += 1;
                }
                (Some(a), None) => {
                    merged.push(*a);
                    i += 1;
                }
                (None, Some(b)) => {
                    merged.push(*b);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        self.windows = merged;
        self.window_end_s = self.window_end_s.max(other.window_end_s);
        self.window_requests += other.window_requests;
        self.window_hits += other.window_hits;
        self.last_event_s = self.last_event_s.max(other.last_event_s);
    }

    /// Median service latency, if any request was served.
    pub fn p50_latency_s(&self) -> Option<f64> {
        self.latency.quantile_s(0.50)
    }

    /// 95th-percentile service latency.
    pub fn p95_latency_s(&self) -> Option<f64> {
        self.latency.quantile_s(0.95)
    }

    /// 99th-percentile service latency.
    pub fn p99_latency_s(&self) -> Option<f64> {
        self.latency.quantile_s(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_ratios_add_up() {
        let mut m = ServeMetrics::new(10.0);
        m.record(1.0, RequestOutcome::Hit, Some(0.2));
        m.record(2.0, RequestOutcome::MissServed, Some(0.8));
        m.record(3.0, RequestOutcome::Rejected, None);
        m.record(4.0, RequestOutcome::Hit, Some(0.3));
        m.finish(10.0);
        assert_eq!(m.requests, 4);
        assert_eq!(m.hits, 2);
        assert_eq!(m.misses_served, 1);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.hit_ratio(), 0.5);
        assert_eq!(m.served_ratio(), 0.75);
        assert_eq!(m.latency.count(), 3);
    }

    #[test]
    fn transfer_and_block_ratios_handle_empty_and_loaded_runs() {
        let mut m = ServeMetrics::new(10.0);
        assert_eq!(m.block_hit_ratio(), 0.0);
        assert_eq!(m.mean_transfer_s(), 0.0);
        assert_eq!(m.mean_transfer_queue_depth(), 0.0);
        m.block_requests = 8;
        m.block_hits = 6;
        m.transfers_started = 4;
        m.transfer_seconds = 2.0;
        m.transfer_queue_depth_sum = 6;
        assert_eq!(m.block_hit_ratio(), 0.75);
        assert_eq!(m.mean_transfer_s(), 0.5);
        assert_eq!(m.mean_transfer_queue_depth(), 1.5);
        assert_eq!(m.mean_recovery_s(), 0.0);
        m.recoveries = 2;
        m.recovery_seconds = 30.0;
        assert_eq!(m.mean_recovery_s(), 15.0);
    }

    #[test]
    fn availability_and_degraded_tail_read_from_fault_counters() {
        let mut m = ServeMetrics::new(10.0);
        assert_eq!(m.availability(), 1.0, "empty run is fully available");
        assert_eq!(m.degraded_p95_latency_s(), None);
        for _ in 0..8 {
            m.record(1.0, RequestOutcome::Hit, Some(0.1));
        }
        // Two fault-failed requests: recorded as rejections, plus the
        // fault-specific counter.
        m.record(2.0, RequestOutcome::Rejected, None);
        m.record(2.5, RequestOutcome::Rejected, None);
        m.requests_failed = 2;
        assert!((m.availability() - 0.8).abs() < 1e-12);
        m.latency_degraded.record(0.5);
        assert!(m.degraded_p95_latency_s().unwrap() > 0.4);
    }

    #[test]
    fn windows_flush_in_time_order_including_empty_ones() {
        let mut m = ServeMetrics::new(5.0);
        m.record(1.0, RequestOutcome::Hit, Some(0.1));
        m.record(2.0, RequestOutcome::MissServed, Some(0.4));
        // Nothing between 5 s and 15 s.
        m.record(16.0, RequestOutcome::Hit, Some(0.1));
        m.finish(20.0);
        let w = m.windows();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].end_s, 5.0);
        assert_eq!(w[0].requests, 2);
        assert_eq!(w[0].hits, 1);
        assert_eq!(w[1].requests, 0);
        assert_eq!(w[1].hit_ratio(), 0.0);
        assert_eq!(w[2].requests, 0);
        assert_eq!(w[3].requests, 1);
        assert_eq!(w[3].hit_ratio(), 1.0);
        // Window ends are strictly increasing.
        assert!(w.windows(2).all(|p| p[0].end_s < p[1].end_s));
    }

    #[test]
    fn trailing_partial_window_is_flushed_once() {
        let mut m = ServeMetrics::new(10.0);
        m.record(12.0, RequestOutcome::Hit, Some(0.1));
        m.finish(15.0);
        let w = m.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].end_s, 15.0);
        assert_eq!(w[1].requests, 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_s(0.5), None);
        for i in 1..=100 {
            h.record(i as f64 * 0.01); // 10 ms .. 1 s
        }
        let p50 = h.quantile_s(0.50).unwrap();
        let p95 = h.quantile_s(0.95).unwrap();
        let p99 = h.quantile_s(0.99).unwrap();
        assert!(p50 > 0.4 && p50 < 0.65, "p50 {p50}");
        assert!(p95 > 0.85 && p95 < 1.15, "p95 {p95}");
        assert!(p99 >= p95 && p99 < 1.25, "p99 {p99}");
        // Out-of-range samples are clamped, not lost.
        h.record(0.0);
        h.record(1e9);
        assert_eq!(h.count(), 102);
    }

    #[test]
    fn delta_histograms_isolate_the_window_between_snapshots() {
        let mut h = LatencyHistogram::new();
        h.record(0.01);
        h.record(0.01);
        let snapshot = h.clone();
        h.record(10.0);
        h.record(10.0);
        h.record(10.0);
        let delta = h.delta_since(&snapshot);
        assert_eq!(delta.count(), 3);
        // The delta only holds the slow samples recorded after the
        // snapshot: its median sits at the 10 s bucket, not 10 ms.
        assert!(delta.quantile_s(0.5).unwrap() > 1.0);
        assert!(snapshot.quantile_s(0.5).unwrap() < 0.1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = ServeMetrics::new(0.0);
    }
}
