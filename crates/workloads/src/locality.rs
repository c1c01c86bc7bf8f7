//! Locality measurement and Jacob-model fitting.
//!
//! The analytic cache model (Eq. 3 of the paper) needs the workload
//! locality pair `(α, β)`. The paper obtains them by fitting profiled hit
//! rates; here we do the same against traces: run `k` warps' interleaved
//! address streams through a shared fully-associative LRU cache, measure
//! the per-thread hit rate at several `k`, and least-squares fit
//! `h(k) = 1 − (S$/(β·k) + 1)^−(α−1)`.

use crate::trace::{AddressStream, TraceSpec};
use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A shared fully-associative LRU cache over line addresses (measurement
/// tool — the cycle-level simulator has its own set-associative cache).
#[derive(Debug)]
pub struct LruSet {
    capacity: usize,
    stamp: u64,
    by_addr: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
}

impl LruSet {
    /// Create with a capacity in lines.
    pub fn new(capacity_lines: usize) -> Self {
        Self {
            capacity: capacity_lines.max(1),
            stamp: 0,
            by_addr: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Access a line address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        self.stamp += 1;
        let hit = if let Some(old) = self.by_addr.insert(line, self.stamp) {
            self.by_stamp.remove(&old);
            true
        } else {
            false
        };
        self.by_stamp.insert(self.stamp, line);
        if self.by_addr.len() > self.capacity {
            if let Some((_, victim)) = self.by_stamp.pop_first() {
                self.by_addr.remove(&victim);
            }
        }
        hit
    }

    /// Lines currently resident.
    pub fn len(&self) -> usize {
        self.by_addr.len()
    }

    /// `true` when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }
}

/// Stamps [`StackDepths`] hands out before it compacts, per line of its
/// depth limit. Sized by measurement (EXPERIMENTS.md, "One-pass locality
/// profiling"): a wider window compacts less often but holds more lines.
const WINDOW_PER_LINE: usize = 2;

/// Marks a stamp whose line has been accessed again since. No line
/// number reaches it: lines are byte addresses divided by `LINE_BYTES`.
const VACANT: u64 = u64::MAX;

/// Hashes a line address with the splitmix64 finaliser, which mixes
/// both the low bits and the top bits a `HashMap` reads. It takes about
/// a quarter off a fit against the default SipHash (EXPERIMENTS.md,
/// "One-pass locality profiling"). Keys are addresses from the
/// program's own generators, so flooding resistance buys nothing here.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Mattson stack distances of a line stream, tracked down to a depth
/// limit. The depth of an access is the number of distinct lines touched
/// since the previous access to the same line: an LRU cache of `C` lines
/// hits it exactly when the depth is below `C` (the inclusion property),
/// so one pass answers every capacity up to the limit.
///
/// Each access takes a fresh stamp; a Fenwick tree over stamps marks the
/// one a line last took, so the depth is the count of marks after it.
/// A line deeper than the limit misses at every capacity and is dropped
/// when the window fills, which keeps memory proportional to the limit
/// rather than to the stream.
struct StackDepths {
    limit: usize,
    stamp_of: HashMap<u64, usize, BuildHasherDefault<LineHasher>>,
    line_at: Vec<u64>,
    tree: Vec<usize>,
    next: usize,
    live: usize,
}

impl StackDepths {
    fn new(limit: usize) -> Self {
        let window = limit * WINDOW_PER_LINE;
        Self {
            limit,
            stamp_of: HashMap::with_capacity_and_hasher(window, Default::default()),
            line_at: vec![VACANT; window],
            tree: vec![0; window],
            next: 0,
            live: 0,
        }
    }

    /// Access `line`; its stack depth, or `None` when it was never seen
    /// or is at least `limit` deep (a miss at every tracked capacity).
    fn access(&mut self, line: u64) -> Option<usize> {
        if self.next == self.line_at.len() {
            self.compact();
        }
        let stamp = self.next;
        self.next += 1;
        let depth = self.stamp_of.insert(line, stamp).and_then(|old| {
            let depth = self.live - self.marked_through(old);
            self.line_at[old] = VACANT;
            self.unmark(old);
            self.live -= 1;
            (depth < self.limit).then_some(depth)
        });
        self.line_at[stamp] = line;
        self.mark(stamp);
        self.live += 1;
        depth
    }

    /// Marked stamps in `0..=stamp`.
    fn marked_through(&self, stamp: usize) -> usize {
        let mut i = stamp + 1;
        let mut n = 0;
        while i > 0 {
            n += self.tree[i - 1];
            i &= i - 1;
        }
        n
    }

    fn mark(&mut self, stamp: usize) {
        let mut i = stamp + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn unmark(&mut self, stamp: usize) {
        let mut i = stamp + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Renumber the `limit` most recent lines to stamps `0..live`, oldest
    /// first, and forget the rest: they are too deep to hit.
    fn compact(&mut self) {
        let mut forget = self.live.saturating_sub(self.limit);
        let mut next = 0;
        for stamp in 0..self.line_at.len() {
            let line = std::mem::replace(&mut self.line_at[stamp], VACANT);
            if line == VACANT {
                continue;
            }
            if forget > 0 {
                forget -= 1;
                self.stamp_of.remove(&line);
                continue;
            }
            self.line_at[next] = line;
            self.stamp_of.insert(line, next);
            next += 1;
        }
        self.next = next;
        self.live = next;
        // Node `i` of the tree sums stamps `i + 1 - lowbit(i + 1) ..= i`;
        // the marked ones are exactly those below `live`.
        for (i, node) in self.tree.iter_mut().enumerate() {
            let end = i + 1;
            let start = end - (end & end.wrapping_neg());
            *node = end.min(next).saturating_sub(start);
        }
    }
}

/// Hits at each of `capacities` (bytes) when `gens` interleave
/// round-robin through one shared fully-associative LRU cache: the
/// `accesses` after an `accesses / 4` warm-up are counted. One pass over
/// the stream serves every capacity.
fn lru_hits(
    gens: &mut [Box<dyn AddressStream>],
    capacities: &[u64],
    accesses: usize,
) -> Vec<usize> {
    assert!(!gens.is_empty());
    let warm = accesses / 4;
    let total = accesses + warm;
    // Capacities in lines, rounded as `LruSet::new` rounds them. No depth
    // reaches the stream's length, so a deeper limit buys nothing.
    let caps: Vec<usize> = capacities
        .iter()
        .map(|&c| ((c / LINE_BYTES) as usize).clamp(1, total.max(1)))
        .collect();
    let limit = caps.iter().copied().max().unwrap_or(1);
    let mut depths = StackDepths::new(limit);
    let mut at_depth = vec![0usize; limit];
    let k = gens.len();
    for i in 0..total {
        let addr = gens[i % k].next_addr();
        if let Some(d) = depths.access(addr / LINE_BYTES) {
            if i >= warm {
                at_depth[d] += 1;
            }
        }
    }
    caps.iter().map(|&c| at_depth[..c].iter().sum()).collect()
}

/// The `k` warps' address streams of `spec`.
fn warp_streams(spec: &TraceSpec, k: u32) -> Vec<Box<dyn AddressStream>> {
    (0..k).map(|w| spec.instantiate(w, 7)).collect()
}

/// Measured hit rate with `k` warps sharing a cache of `cache_bytes`.
pub fn measure_hit_rate(spec: &TraceSpec, k: u32, cache_bytes: u64, accesses: usize) -> f64 {
    assert!(k >= 1);
    measure_hit_rate_streams(warp_streams(spec, k), cache_bytes, accesses)
}

/// Measured hit rate for arbitrary pre-instantiated streams interleaved
/// round-robin through one shared LRU cache (used to profile recorded
/// algorithm traces as well as synthetic generators).
pub fn measure_hit_rate_streams(
    mut gens: Vec<Box<dyn AddressStream>>,
    cache_bytes: u64,
    accesses: usize,
) -> f64 {
    // One capacity, so one count.
    let hits: usize = lru_hits(&mut gens, &[cache_bytes], accesses).iter().sum();
    hits as f64 / accesses as f64
}

/// Measure the full hit-rate-vs-k curve.
pub fn measure_hit_curve(
    spec: &TraceSpec,
    ks: &[u32],
    cache_bytes: u64,
    accesses: usize,
) -> Vec<(f64, f64)> {
    ks.iter()
        .map(|&k| (k as f64, measure_hit_rate(spec, k, cache_bytes, accesses)))
        .collect()
}

/// Result of fitting the Jacob model to measured hit rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JacobFit {
    /// Fitted locality exponent `α`.
    pub alpha: f64,
    /// Fitted per-thread working-set scale `β` (bytes).
    pub beta: f64,
    /// Root-mean-square error of the fit.
    pub rmse: f64,
}

/// Predicted hit rate of the Jacob model.
pub fn jacob_hit_rate(s_cache: f64, k: f64, alpha: f64, beta: f64) -> f64 {
    if k <= 0.0 {
        return 1.0;
    }
    1.0 - (s_cache / (beta * k) + 1.0).powf(-(alpha - 1.0))
}

/// Grid search over α ∈ (1, 8.1] and a log-spaced β range, followed by a
/// coordinate-refinement pass — the minimiser shared by [`fit_jacob`] and
/// [`fit_jacob_multi`]. The grid is generated rather than indexed, so the
/// routine is panic-free; when every grid point scores NaN/∞ the seed point
/// is returned with an infinite error instead of refining garbage.
fn minimise_jacob_sse(sse: impl Fn(f64, f64) -> f64) -> (f64, f64, f64) {
    let alpha_at = |i: i32| 1.02 + i as f64 * 0.12;
    let beta_at = |i: i32| LINE_BYTES as f64 * 0.25 * 1.25f64.powi(i);
    let mut best = (alpha_at(0), beta_at(0), f64::INFINITY);
    for i in 0..60 {
        for j in 0..60 {
            let (a, b) = (alpha_at(i), beta_at(j));
            let e = sse(a, b);
            if e < best.2 {
                best = (a, b, e);
            }
        }
    }

    // Coordinate refinement around the grid optimum.
    let (mut a, mut b, mut e) = best;
    if !e.is_finite() {
        return (a, b, e);
    }
    for _ in 0..40 {
        let mut improved = false;
        for (da, db) in [
            (1.03, 1.0),
            (1.0 / 1.03, 1.0),
            (1.0, 1.05),
            (1.0, 1.0 / 1.05),
        ] {
            let (na, nb) = ((a * da).max(1.001), b * db);
            let ne = sse(na, nb);
            if ne < e {
                a = na;
                b = nb;
                e = ne;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (a, b, e)
}

/// Least-squares fit of `(α, β)` to `(k, hit-rate)` samples for a cache of
/// `s_cache` bytes. Grid search over a log-spaced β range and α ∈ (1, 8],
/// followed by one coordinate-refinement pass.
pub fn fit_jacob(samples: &[(f64, f64)], s_cache: f64) -> JacobFit {
    assert!(!samples.is_empty(), "need at least one sample");
    let (alpha, beta, e) = minimise_jacob_sse(|alpha, beta| {
        samples
            .iter()
            .map(|&(k, h)| {
                let p = jacob_hit_rate(s_cache, k, alpha, beta);
                (p - h) * (p - h)
            })
            .sum::<f64>()
    });
    JacobFit {
        alpha,
        beta,
        rmse: (e / samples.len() as f64).sqrt(),
    }
}

/// Sharer counts a trace fit samples.
const FIT_KS: [u32; 10] = [1, 2, 4, 6, 8, 12, 16, 24, 32, 48];
/// Accesses counted per sample of a trace fit.
const FIT_ACCESSES: usize = 20_000;

/// Convenience: measure a trace's hit curve on a cache and fit `(α, β)`.
pub fn fit_trace(spec: &TraceSpec, cache_bytes: u64) -> JacobFit {
    let curve = measure_hit_curve(spec, &FIT_KS, cache_bytes, FIT_ACCESSES);
    fit_jacob(&curve, cache_bytes as f64)
}

/// Least-squares fit of one `(α, β)` pair against samples taken at
/// *several* cache capacities — `(S$, k, h)` triples. Locality is a
/// workload property, so a single pair must explain every capacity.
pub fn fit_jacob_multi(samples: &[(f64, f64, f64)]) -> JacobFit {
    assert!(!samples.is_empty(), "need at least one sample");
    let (alpha, beta, e) = minimise_jacob_sse(|alpha, beta| {
        samples
            .iter()
            .map(|&(s, k, h)| {
                let p = jacob_hit_rate(s, k, alpha, beta);
                (p - h) * (p - h)
            })
            .sum::<f64>()
    });
    JacobFit {
        alpha,
        beta,
        rmse: (e / samples.len() as f64).sqrt(),
    }
}

/// Measure a trace at several reference capacities and fit one `(α, β)`
/// pair — the workload's locality signature, independent of any specific
/// cache it later runs against.
pub fn fit_trace_capacities(spec: &TraceSpec, capacities: &[u64]) -> JacobFit {
    assert!(!capacities.is_empty());
    // One pass per sharer count measures every capacity at once.
    let hits: Vec<Vec<usize>> = FIT_KS
        .iter()
        .map(|&k| lru_hits(&mut warp_streams(spec, k), capacities, FIT_ACCESSES))
        .collect();
    // Samples in capacity-major order: one hit curve per capacity.
    let mut samples = Vec::with_capacity(capacities.len() * FIT_KS.len());
    for (c, &cap) in capacities.iter().enumerate() {
        for (&k, row) in FIT_KS.iter().zip(&hits) {
            samples.push((cap as f64, k as f64, row[c] as f64 / FIT_ACCESSES as f64));
        }
    }
    fit_jacob_multi(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadId};
    use proptest::prelude::*;

    /// Hits counted by the per-capacity replay the one-pass count
    /// replaced: fresh streams through a fresh [`LruSet`].
    fn replay_hits(spec: &TraceSpec, k: u32, cache_bytes: u64, accesses: usize) -> usize {
        let mut gens = warp_streams(spec, k);
        let mut cache = LruSet::new((cache_bytes / LINE_BYTES) as usize);
        let warm = accesses / 4;
        (0..accesses + warm)
            .filter(|&i| cache.access(gens[i % k as usize].next_addr()) && i >= warm)
            .count()
    }

    /// `fit_trace_capacities` as it was before the one-pass count: one
    /// replay per capacity and sharer count.
    fn replay_fit(spec: &TraceSpec, capacities: &[u64]) -> JacobFit {
        let mut samples = Vec::new();
        for &cap in capacities {
            for &k in &FIT_KS {
                let hits = replay_hits(spec, k, cap, FIT_ACCESSES);
                samples.push((cap as f64, k as f64, hits as f64 / FIT_ACCESSES as f64));
            }
        }
        fit_jacob_multi(&samples)
    }

    fn any_trace() -> impl Strategy<Value = TraceSpec> {
        prop_oneof![
            (1u64..512).prop_map(|region_lines| TraceSpec::Stream { region_lines }),
            (1u64..64, 1u64..1024).prop_map(|(stride_lines, region_lines)| {
                TraceSpec::Strided {
                    stride_lines,
                    region_lines,
                }
            }),
            (1u64..256, 0.0..1.0, 0.0..3.0).prop_map(|(ws_lines, stream_prob, reuse_skew)| {
                TraceSpec::PrivateWorkingSet {
                    ws_lines,
                    stream_prob,
                    reuse_skew,
                }
            }),
            (1u64..256, 1u64..1024, 0.0..1.0).prop_map(
                |(vector_lines, region_lines, vector_prob)| TraceSpec::SharedVector {
                    vector_lines,
                    region_lines,
                    vector_prob,
                }
            ),
            (1u64..4096, 0.0..2.0).prop_map(|(footprint_lines, skew)| TraceSpec::Gather {
                footprint_lines,
                skew,
            }),
        ]
    }

    /// Cache sizes in bytes: zero (one line), sizes off the line grid,
    /// the reference capacities, one larger than any stream here, and
    /// anything up to 64 KiB.
    fn any_capacity() -> impl Strategy<Value = u64> {
        prop_oneof![
            prop::sample::select(vec![
                0,
                1,
                LINE_BYTES - 1,
                LINE_BYTES,
                LINE_BYTES + 72,
                1000,
                8 * 1024,
                16 * 1024,
                48 * 1024,
                1 << 30,
            ]),
            0u64..64 * 1024,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-pass count equals a per-capacity `LruSet` replay at
        /// every capacity, whatever the order or repetition of the list.
        #[test]
        fn one_pass_hits_match_per_capacity_replay(
            spec in any_trace(),
            k in 1u32..=48,
            capacities in prop::collection::vec(any_capacity(), 1..5),
            accesses in prop_oneof![0usize..8, 8usize..3000],
        ) {
            let hits = lru_hits(&mut warp_streams(&spec, k), &capacities, accesses);
            for (&cap, &h) in capacities.iter().zip(&hits) {
                prop_assert_eq!(h, replay_hits(&spec, k, cap, accesses));
            }
            let rate = measure_hit_rate(&spec, k, capacities[0], accesses);
            if accesses == 0 {
                prop_assert!(rate.is_nan());
            } else {
                prop_assert_eq!(rate, hits[0] as f64 / accesses as f64);
            }
        }
    }

    #[test]
    fn one_pass_hits_handle_degenerate_capacity_lists() {
        let spec = TraceSpec::PrivateWorkingSet {
            ws_lines: 24,
            stream_prob: 0.2,
            reuse_skew: 1.0,
        };
        let lists: [&[u64]; 4] = [
            &[0],
            &[16 * 1024, 8 * 1024, 16 * 1024, 0],
            &[LINE_BYTES * 3 + 5, LINE_BYTES * 3],
            &[1 << 30, 48 * 1024],
        ];
        for caps in lists {
            for accesses in [0, 1, 3, 5, 2_000] {
                let hits = lru_hits(&mut warp_streams(&spec, 6), caps, accesses);
                let want: Vec<usize> = caps
                    .iter()
                    .map(|&c| replay_hits(&spec, 6, c, accesses))
                    .collect();
                assert_eq!(hits, want, "capacities {caps:?}, {accesses} accesses");
            }
        }
    }

    /// The fitted locality of one suite trace per `TraceSpec` variant is
    /// bit for bit what the per-capacity replays produced.
    #[test]
    fn fit_trace_capacities_is_bit_identical_to_replay() {
        let capacities = [8 * 1024, 16 * 1024, 48 * 1024];
        for id in [
            WorkloadId::Gesummv,
            WorkloadId::Atax,
            WorkloadId::Spmv,
            WorkloadId::Nw,
            WorkloadId::Nn,
        ] {
            let trace = Workload::get(id).trace;
            let (got, want) = (
                fit_trace_capacities(&trace, &capacities),
                replay_fit(&trace, &capacities),
            );
            assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "{id:?} alpha");
            assert_eq!(got.beta.to_bits(), want.beta.to_bits(), "{id:?} beta");
            assert_eq!(got.rmse.to_bits(), want.rmse.to_bits(), "{id:?} rmse");
        }
    }

    #[test]
    fn lru_basic_hit_miss() {
        let mut c = LruSet::new(2);
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0));
        assert!(!c.access(256)); // evicts line 128 (LRU)
        assert!(c.access(0));
        assert!(!c.access(128));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_capacity_never_exceeded() {
        let mut c = LruSet::new(8);
        for i in 0..100u64 {
            c.access(i * 128);
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let spec = TraceSpec::PrivateWorkingSet {
            ws_lines: 8,
            stream_prob: 0.0,
            reuse_skew: 0.0,
        };
        // One warp, cache easily holds 8 lines.
        let h = measure_hit_rate(&spec, 1, 64 * LINE_BYTES, 4000);
        assert!(h > 0.95, "h = {h}");
    }

    #[test]
    fn hit_rate_decreases_with_sharers() {
        let spec = TraceSpec::PrivateWorkingSet {
            ws_lines: 64,
            stream_prob: 0.0,
            reuse_skew: 0.0,
        };
        let cache = 128 * LINE_BYTES; // holds 2 warps' sets
        let h2 = measure_hit_rate(&spec, 2, cache, 30_000);
        let h16 = measure_hit_rate(&spec, 16, cache, 30_000);
        assert!(h2 > h16 + 0.2, "h2 = {h2}, h16 = {h16}");
    }

    #[test]
    fn streaming_has_negligible_hit_rate() {
        let spec = TraceSpec::Stream {
            region_lines: 1 << 20,
        };
        let h = measure_hit_rate(&spec, 4, 256 * LINE_BYTES, 10_000);
        assert!(h < 0.05, "h = {h}");
    }

    #[test]
    fn jacob_form_recovers_itself() {
        // Generate synthetic samples from known (alpha, beta) and verify
        // the fitter recovers hit rates (parameters may trade off, so
        // compare curves, not raw parameters).
        let (alpha, beta, s) = (3.0, 2048.0, 16384.0);
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
            .iter()
            .map(|&k| (k, jacob_hit_rate(s, k, alpha, beta)))
            .collect();
        let fit = fit_jacob(&samples, s);
        assert!(fit.rmse < 0.01, "rmse = {}", fit.rmse);
        for &(k, h) in &samples {
            let p = jacob_hit_rate(s, k, fit.alpha, fit.beta);
            assert!((p - h).abs() < 0.03, "k={k}: {p} vs {h}");
        }
    }

    #[test]
    fn fit_trace_on_private_ws_is_cache_sensitive() {
        let spec = TraceSpec::PrivateWorkingSet {
            ws_lines: 16,
            stream_prob: 0.1,
            reuse_skew: 0.0,
        };
        let fit = fit_trace(&spec, 16 * 1024);
        // Strong locality: alpha well above the cache-insensitive regime.
        assert!(fit.alpha > 1.3, "alpha = {}", fit.alpha);
        assert!(fit.rmse < 0.15, "rmse = {}", fit.rmse);
    }

    #[test]
    fn multi_capacity_fit_recovers_synthetic_parameters() {
        let (alpha, beta) = (3.0, 2048.0);
        let mut samples = Vec::new();
        for s in [8192.0, 16384.0, 49152.0] {
            for k in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
                samples.push((s, k, jacob_hit_rate(s, k, alpha, beta)));
            }
        }
        let fit = fit_jacob_multi(&samples);
        assert!(fit.rmse < 0.01, "rmse = {}", fit.rmse);
        for &(s, k, h) in &samples {
            let p = jacob_hit_rate(s, k, fit.alpha, fit.beta);
            assert!((p - h).abs() < 0.03);
        }
    }

    #[test]
    fn fit_trace_capacities_is_single_signature() {
        let spec = TraceSpec::PrivateWorkingSet {
            ws_lines: 16,
            stream_prob: 0.1,
            reuse_skew: 0.0,
        };
        let fit = fit_trace_capacities(&spec, &[16 * 1024, 48 * 1024]);
        assert!(fit.alpha > 1.0 && fit.beta > 0.0);
        assert!(fit.rmse < 0.2, "rmse = {}", fit.rmse);
    }

    #[test]
    fn jacob_hit_rate_bounds() {
        assert_eq!(jacob_hit_rate(1024.0, 0.0, 2.0, 128.0), 1.0);
        for k in 1..100 {
            let h = jacob_hit_rate(1024.0, k as f64, 2.0, 128.0);
            assert!((0.0..=1.0).contains(&h));
        }
    }
}
