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
/// depth limit. Sized by measurement (EXPERIMENTS.md, "A flat line table,
/// a mark set and a bounded error sum"): a wider window compacts less
/// often but holds more lines, and 3×, 4× and 8× won no whole fit.
const WINDOW_PER_LINE: usize = 2;

/// The line of a [`StackDepths`] stamp that no line holds: not handed
/// out yet, or its line has been accessed again since. No line number
/// reaches it: lines are byte addresses divided by `LINE_BYTES`.
const VACANT: u64 = u64::MAX;

/// An empty slot of [`StackDepths`]' line table. No stamp reaches it: a
/// stamp indexes the window's own allocation.
const NO_STAMP: usize = usize::MAX;

/// Stamps per word of [`StackDepths`]' mark set.
const MARK_BITS: usize = 64;

/// Mattson stack distances of a line stream, tracked down to a depth
/// limit. The depth of an access is the number of distinct lines touched
/// since the previous access to the same line: an LRU cache of `C` lines
/// hits it exactly when the depth is below `C` (the inclusion property),
/// so one pass answers every capacity up to the limit.
///
/// Each access takes a fresh stamp, and a mark set holds one bit per
/// stamp: set at the stamp each line last took, so the depth is the
/// count of marks after the line's old stamp. A line deeper than the
/// limit misses at every capacity and is dropped when the window fills,
/// which keeps memory proportional to the limit rather than to the
/// stream.
struct StackDepths {
    limit: usize,
    /// Line → stamp, open-addressed: a slot holds the stamp of a live
    /// line, whose key is `line_at[stamp]`, or `NO_STAMP`. Probing is
    /// linear from a Fibonacci hash, and the slot count is a power of two
    /// at least twice the window. Nothing is deleted: a line keeps its
    /// slot while it lives, so the table holds at most one entry per
    /// stamp, and `compact` clears it.
    slots: Vec<usize>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    line_at: Vec<u64>,
    marks: Vec<u64>,
    next: usize,
    live: usize,
}

impl StackDepths {
    fn new(limit: usize) -> Self {
        let window = limit * WINDOW_PER_LINE;
        let slots = (2 * window).next_power_of_two();
        Self {
            limit,
            slots: vec![NO_STAMP; slots],
            shift: u64::BITS - slots.trailing_zeros(),
            line_at: vec![VACANT; window],
            marks: vec![0; window.div_ceil(MARK_BITS)],
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
        let depth = self.restamp(line, stamp).and_then(|old| {
            let depth = self.marked_after(old);
            self.line_at[old] = VACANT;
            self.marks[old / MARK_BITS] &= !(1 << (old % MARK_BITS));
            self.live -= 1;
            (depth < self.limit).then_some(depth)
        });
        self.line_at[stamp] = line;
        self.marks[stamp / MARK_BITS] |= 1 << (stamp % MARK_BITS);
        self.live += 1;
        depth
    }

    /// Give `line` the stamp `stamp` in the line table; the stamp it held
    /// before, if it was there. The table always has a vacant slot: it
    /// holds at most one line per stamp of the window.
    fn restamp(&mut self, line: u64, stamp: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        // The shift keeps `log2(slots.len())` bits, so the cast loses none.
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if *slot == NO_STAMP {
                *slot = stamp;
                return None;
            }
            if self.line_at[*slot] == line {
                return Some(std::mem::replace(slot, stamp));
            }
            i = (i + 1) & mask;
        }
    }

    /// Marked stamps after `stamp`, which is below the newest one: no
    /// mark sits at or past `next`.
    fn marked_after(&self, stamp: usize) -> usize {
        let (word, last) = (stamp / MARK_BITS, (self.next - 1) / MARK_BITS);
        let tail = self.marks[word] & (u64::MAX << (stamp % MARK_BITS) << 1);
        let marks = self.marks[word + 1..=last].iter().map(|w| w.count_ones());
        (tail.count_ones() + marks.sum::<u32>()) as usize
    }

    /// Renumber the `limit` most recent lines to stamps `0..live`, oldest
    /// first, and forget the rest: they are too deep to hit.
    fn compact(&mut self) {
        let mut forget = self.live.saturating_sub(self.limit);
        let mut next = 0;
        self.slots.fill(NO_STAMP);
        for stamp in 0..self.line_at.len() {
            let line = std::mem::replace(&mut self.line_at[stamp], VACANT);
            if line == VACANT {
                continue;
            }
            if forget > 0 {
                forget -= 1;
                continue;
            }
            self.line_at[next] = line;
            self.restamp(line, next);
            next += 1;
        }
        self.next = next;
        self.live = next;
        // The marked stamps are exactly those below `live`.
        self.marks.fill(0);
        self.marks[..next / MARK_BITS].fill(u64::MAX);
        if next % MARK_BITS > 0 {
            self.marks[next / MARK_BITS] = (1 << (next % MARK_BITS)) - 1;
        }
    }
}

/// Rounds of addresses [`lockstep_hits`] draws before it feeds them to its
/// passes, so each pass runs a stretch of its stream with its own line
/// table hot. Sized by measurement (EXPERIMENTS.md, "Draw each warp's
/// stream once per fit").
const BUFFER_ROUNDS: usize = 64;

/// One sharer count's stack-distance pass in [`lockstep_hits`].
struct Pass {
    /// Streams the pass interleaves: the first `k` of the loop's.
    k: usize,
    /// Index of the pass's next access, `t·k` at the start of round `t`.
    next: usize,
    depths: StackDepths,
    at_depth: Vec<usize>,
}

/// Hits at each of `capacities` (bytes), one row per sharer count of
/// `ks`: row `j` counts what the first `ks[j]` of `gens` hit when they
/// interleave round-robin through one shared fully-associative LRU
/// cache, over the `accesses` after an `accesses / 4` warm-up.
///
/// Each count has a pass of its own, and one pass serves every capacity.
/// The passes run in lockstep: in round `t` stream `w` draws its `t`-th
/// address once, and every pass with `k > w` that is still short of its
/// total takes it as its access `t·k + w`. A stream's addresses do not
/// depend on how many streams share the cache, so each pass sees the
/// same accesses in the same order as a pass drawing alone would.
fn lockstep_hits(
    gens: &mut [Box<dyn AddressStream>],
    ks: &[usize],
    capacities: &[u64],
    accesses: usize,
) -> Vec<Vec<usize>> {
    assert!(ks.iter().all(|&k| (1..=gens.len()).contains(&k)));
    let warm = accesses / 4;
    let total = accesses + warm;
    // Capacities in lines, rounded as `LruSet::new` rounds them. No depth
    // reaches the stream's length, so a deeper limit buys nothing.
    let caps: Vec<usize> = capacities
        .iter()
        .map(|&c| ((c / LINE_BYTES) as usize).clamp(1, total.max(1)))
        .collect();
    let limit = caps.iter().copied().max().unwrap_or(1);
    let mut passes: Vec<Pass> = ks
        .iter()
        .map(|&k| Pass {
            k,
            next: 0,
            depths: StackDepths::new(limit),
            at_depth: vec![0; limit],
        })
        .collect();
    let width = ks.iter().copied().max().unwrap_or(1);
    let mut lines = vec![0; BUFFER_ROUNDS * width];
    loop {
        // Round `r` of the buffer draws the longest prefix of the streams
        // that a pass still needs.
        let mut rounds = 0;
        for row in lines.chunks_exact_mut(width) {
            let n = passes
                .iter()
                .map(|p| p.k.min(total.saturating_sub(p.next + rounds * p.k)))
                .max()
                .unwrap_or(0);
            if n == 0 {
                break;
            }
            for (line, gen) in row.iter_mut().zip(&mut gens[..n]) {
                *line = gen.next_addr() / LINE_BYTES;
            }
            rounds += 1;
        }
        if rounds == 0 {
            break;
        }
        for p in &mut passes {
            for row in lines.chunks_exact(width).take(rounds) {
                let n = p.k.min(total - p.next);
                for (w, &line) in row[..n].iter().enumerate() {
                    if let Some(d) = p.depths.access(line) {
                        if p.next + w >= warm {
                            p.at_depth[d] += 1;
                        }
                    }
                }
                p.next += n;
            }
        }
    }
    passes
        .iter()
        .map(|p| caps.iter().map(|&c| p.at_depth[..c].iter().sum()).collect())
        .collect()
}

/// Hits at each of `capacities` (bytes) when all of `gens` interleave
/// round-robin through one shared fully-associative LRU cache: the
/// lockstep loop with its single sharer count.
fn lru_hits(
    gens: &mut [Box<dyn AddressStream>],
    capacities: &[u64],
    accesses: usize,
) -> Vec<usize> {
    let k = gens.len();
    lockstep_hits(gens, &[k], capacities, accesses)
        .pop()
        .unwrap_or_default()
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
/// [`fit_jacob_multi`]. `sse(α, β, bound)` is the error at `(α, β)`, and
/// it may stop at any partial sum that reaches `bound`, the error to
/// beat: such a point loses either way (see [`sum_below`]). The grid is
/// generated rather than indexed, so the routine is panic-free; when
/// every grid point scores NaN/∞ the seed point is returned with an
/// infinite error instead of refining garbage.
fn minimise_jacob_sse(sse: impl Fn(f64, f64, f64) -> f64) -> (f64, f64, f64) {
    let alpha_at = |i: i32| 1.02 + i as f64 * 0.12;
    let beta_at = |i: i32| LINE_BYTES as f64 * 0.25 * 1.25f64.powi(i);
    let mut best = (alpha_at(0), beta_at(0), f64::INFINITY);
    for i in 0..60 {
        for j in 0..60 {
            let (a, b) = (alpha_at(i), beta_at(j));
            let e = sse(a, b, best.2);
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
            let ne = sse(na, nb, e);
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

/// The squared errors `terms` summed in order from −0.0, as
/// `Iterator::sum` adds them, except that the sum stops once it reaches
/// `bound`. So `sum_below(terms, bound) < bound` exactly when the full
/// sum is below `bound`, and then the two are the same bits. Each term is
/// a square, so ≥ +0 or NaN; a float sum of such terms never decreases,
/// so a partial sum at or above `bound` cannot end below it, and a NaN
/// sum never compares less.
fn sum_below(terms: impl Iterator<Item = f64>, bound: f64) -> f64 {
    let mut sum = -0.0;
    for t in terms {
        sum += t;
        if sum >= bound {
            break;
        }
    }
    sum
}

/// Least-squares fit of `(α, β)` to `(k, hit-rate)` samples for a cache of
/// `s_cache` bytes. Grid search over a log-spaced β range and α ∈ (1, 8],
/// followed by one coordinate-refinement pass.
pub fn fit_jacob(samples: &[(f64, f64)], s_cache: f64) -> JacobFit {
    assert!(!samples.is_empty(), "need at least one sample");
    let (alpha, beta, e) = minimise_jacob_sse(|alpha, beta, bound| {
        let errors = samples.iter().map(|&(k, h)| {
            let p = jacob_hit_rate(s_cache, k, alpha, beta);
            (p - h) * (p - h)
        });
        sum_below(errors, bound)
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
/// Sharer counts of [`FIT_KS`] that one [`lockstep_hits`] loop runs at
/// once. Each live pass holds tables of its own (~25 KB at the 48 KiB
/// reference capacity), so a larger group saves draws at a cost in
/// memory. Sized by measurement (EXPERIMENTS.md, "Draw each warp's
/// stream once per fit").
const FIT_GROUP: usize = 4;

/// Hits at each of `capacities`, one row per count of [`FIT_KS`], with
/// `streams(k)` the first `k` warps' streams. Each group of
/// [`FIT_GROUP`] counts draws its streams once, in lockstep.
fn fit_hits(
    streams: impl Fn(u32) -> Vec<Box<dyn AddressStream>>,
    capacities: &[u64],
) -> Vec<Vec<usize>> {
    let mut hits = Vec::with_capacity(FIT_KS.len());
    for group in FIT_KS.chunks(FIT_GROUP) {
        let ks: Vec<usize> = group.iter().map(|&k| k as usize).collect();
        let widest = group.iter().copied().max().unwrap_or(1);
        hits.extend(lockstep_hits(
            &mut streams(widest),
            &ks,
            capacities,
            FIT_ACCESSES,
        ));
    }
    hits
}

/// Least-squares fit of one `(α, β)` pair against samples taken at
/// *several* cache capacities — `(S$, k, h)` triples. Locality is a
/// workload property, so a single pair must explain every capacity.
pub fn fit_jacob_multi(samples: &[(f64, f64, f64)]) -> JacobFit {
    assert!(!samples.is_empty(), "need at least one sample");
    let (alpha, beta, e) = minimise_jacob_sse(|alpha, beta, bound| {
        let errors = samples.iter().map(|&(s, k, h)| {
            let p = jacob_hit_rate(s, k, alpha, beta);
            (p - h) * (p - h)
        });
        sum_below(errors, bound)
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
    let hits = fit_hits(|k| warp_streams(spec, k), capacities);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

        /// The lockstep count equals a per-capacity `LruSet` replay for
        /// every sharer count at every capacity, whatever the order or
        /// repetition of either list.
        #[test]
        fn one_pass_hits_match_per_capacity_replay(
            spec in any_trace(),
            ks in prop::collection::vec(1usize..=48, 1..5),
            capacities in prop::collection::vec(any_capacity(), 1..5),
            accesses in prop_oneof![0usize..8, 8usize..3000],
        ) {
            let widest = ks.iter().copied().max().unwrap_or(1);
            let mut gens = warp_streams(&spec, widest as u32);
            let hits = lockstep_hits(&mut gens, &ks, &capacities, accesses);
            prop_assert_eq!(hits.len(), ks.len());
            for (&k, row) in ks.iter().zip(&hits) {
                for (&cap, &h) in capacities.iter().zip(row) {
                    prop_assert_eq!(h, replay_hits(&spec, k as u32, cap, accesses));
                }
            }
            let rate = measure_hit_rate(&spec, ks[0] as u32, capacities[0], accesses);
            if accesses == 0 {
                prop_assert!(rate.is_nan());
            } else {
                prop_assert_eq!(rate, hits[0][0] as f64 / accesses as f64);
            }
        }
    }

    /// A warp's stream that counts its draws.
    struct Counted {
        stream: Box<dyn AddressStream>,
        draws: Arc<AtomicUsize>,
    }

    impl AddressStream for Counted {
        fn next_addr(&mut self) -> u64 {
            self.draws.fetch_add(1, Ordering::Relaxed);
            self.stream.next_addr()
        }
    }

    /// The `k` warps' streams of `spec`, each counting its draws into
    /// its own counter of `draws`.
    fn counted_streams(
        spec: &TraceSpec,
        draws: &[Arc<AtomicUsize>],
        k: u32,
    ) -> Vec<Box<dyn AddressStream>> {
        warp_streams(spec, k)
            .into_iter()
            .zip(draws)
            .map(|(stream, draws)| {
                let draws = Arc::clone(draws);
                Box::new(Counted { stream, draws }) as Box<dyn AddressStream>
            })
            .collect()
    }

    /// Draws of warp `w` that the passes of `ks` need over `total`
    /// accesses each: the most turns any pass with `k > w` gives it.
    fn draws_needed(ks: &[usize], w: usize, total: usize) -> usize {
        ks.iter()
            .filter(|&&k| k > w)
            .map(|&k| total.saturating_sub(w).div_ceil(k))
            .max()
            .unwrap_or(0)
    }

    /// The lockstep loop draws each warp's address once per round, not
    /// once per pass, and the fit's grouping of `FIT_KS` draws the total
    /// EXPERIMENTS.md names.
    #[test]
    fn lockstep_draws_each_address_once() {
        let spec = TraceSpec::Gather {
            footprint_lines: 512,
            skew: 0.8,
        };
        let lists: [&[usize]; 5] = [&[1, 2, 4, 6], &[48, 3, 3, 17], &[5], &[7, 1], &[32, 48]];
        for ks in lists {
            for accesses in [0, 1, 9, 2_000] {
                let widest = ks.iter().copied().max().unwrap_or(1);
                let draws: Vec<_> = (0..widest).map(|_| Arc::default()).collect();
                let mut gens = counted_streams(&spec, &draws, widest as u32);
                lockstep_hits(&mut gens, ks, &[16 * 1024], accesses);
                for (w, drawn) in draws.iter().enumerate() {
                    let want = draws_needed(ks, w, accesses + accesses / 4);
                    let got = drawn.load(Ordering::Relaxed);
                    assert_eq!(got, want, "{ks:?}, {accesses} accesses, warp {w}");
                }
            }
        }

        let widest = FIT_KS.iter().copied().max().unwrap_or(1);
        let draws: Vec<_> = (0..widest).map(|_| Arc::default()).collect();
        fit_hits(|k| counted_streams(&spec, &draws, k), &[16 * 1024]);
        let drawn: usize = draws.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        let total = FIT_ACCESSES + FIT_ACCESSES / 4;
        let needed: usize = FIT_KS
            .chunks(FIT_GROUP)
            .map(|group| {
                let ks: Vec<usize> = group.iter().map(|&k| k as usize).collect();
                (0..widest as usize)
                    .map(|w| draws_needed(&ks, w, total))
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(drawn, needed);
        // A pass per sharer count drew `FIT_KS.len() * total`, 250,000.
        assert_eq!(drawn, 139_568);
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

    /// `(α, β, rmse)` bits of every suite trace's fit at the 8/16/48 KiB
    /// reference capacities, in `WorkloadId::all()` order, as the
    /// Fenwick-tree pass and the unbounded error sum computed them.
    /// `replay_fit` shares `fit_jacob_multi` with the code under test, so
    /// only these literals see a change to the grid search.
    const SUITE_FIT_BITS: [[u64; 3]; 12] = [
        [0x3ff051eb851eb852, 0x4109eb6e3600ca09, 0x3f511afb36b6fe21], // bfs
        [0x3ff23d70a3d70a3e, 0x4071bd4e679e79e7, 0x3fbf89c1bc9c80ae], // backprop
        [0x3ff6147ae147ae14, 0x40b0224b42f4cb66, 0x3f921b9cbc951838], // stencil
        [0x401aa3d70a3d70a4, 0x40c9d971e4fe8402, 0x3f94e5c41032bc22], // gesummv
        [0x3ff051eb851eb852, 0x40eed09bead87c04, 0x3f688fc17faf7bd7], // hpccg
        [0x4000cccccccccccd, 0x40ba784379d99db4, 0x3f98078411b8e421], // heartwall
        [0x4013eb851eb851ec, 0x40c4adf4b7320335, 0x3fa148c10ab1ad52], // leukocyte
        [0x3ff004189374bc6a, 0x419c09d2cabaf88a, 0x3e7994d28759decc], // nw
        [0x3ff004189374bc6a, 0x419c09d2cabaf88a, 0x3e7994d28759decc], // nn
        [0x3ff051eb851eb852, 0x410096acef5caa44, 0x3f5e14a7f661673e], // spmv
        [0x3ff23d70a3d70a3e, 0x408152de9130c30c, 0x3fbb3a1703d2b1e8], // atax
        [0x3ff8000000000000, 0x40ac75d6ae6e4814, 0x3f9a0e141ea52dee], // lud
    ];

    /// The fitted locality of one suite trace per `TraceSpec` variant is
    /// bit for bit what the per-capacity replays produced, and every
    /// suite trace's is the pinned one.
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
        for (id, want) in WorkloadId::all().into_iter().zip(SUITE_FIT_BITS) {
            let got = fit_trace_capacities(&Workload::get(id).trace, &capacities);
            let got = [got.alpha, got.beta, got.rmse].map(f64::to_bits);
            assert_eq!(got, want, "{id:?} (alpha, beta, rmse)");
        }
    }

    /// `minimise_jacob_sse` as it was before the bounded sum: every point
    /// sums all of its squared errors.
    fn minimise_unbounded(sse: impl Fn(f64, f64) -> f64) -> (f64, f64, f64) {
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

    /// `(α, β, rmse)` bits of a fit by [`minimise_unbounded`] over
    /// `(S$, k, h)` samples.
    fn reference_fit(samples: &[(f64, f64, f64)]) -> (u64, u64, u64) {
        let (alpha, beta, e) = minimise_unbounded(|alpha, beta| {
            samples
                .iter()
                .map(|&(s, k, h)| {
                    let p = jacob_hit_rate(s, k, alpha, beta);
                    (p - h) * (p - h)
                })
                .sum::<f64>()
        });
        let rmse = (e / samples.len() as f64).sqrt();
        (alpha.to_bits(), beta.to_bits(), rmse.to_bits())
    }

    fn fit_bits(fit: JacobFit) -> (u64, u64, u64) {
        (fit.alpha.to_bits(), fit.beta.to_bits(), fit.rmse.to_bits())
    }

    /// Cache sizes in bytes for a fit: zero, the reference capacities, a
    /// huge one, and anything up to 64 KiB.
    fn any_fit_capacity() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![0.0, 1.0, 8192.0, 16384.0, 49152.0, 1e12]),
            0.0..65536.0,
        ]
    }

    /// Sharer counts, zero included.
    fn any_sharers() -> impl Strategy<Value = f64> {
        prop_oneof![prop::sample::select(vec![0.0, 1.0, 2.0, 48.0]), 0.0..64.0]
    }

    /// Hit rates in `[0, 1]`, its ends, and finite values outside it.
    fn any_hit_rate() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0..1.0,
            0.0..1.0,
            prop::sample::select(vec![0.0, -0.0, 1.0, 0.5]),
            prop::sample::select(vec![-0.25, 1.5, -1e300, 1e300]),
        ]
    }

    /// 1–40 `(S$, k, h)` samples.
    fn finite_fit_samples() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        prop::collection::vec((any_fit_capacity(), any_sharers(), any_hit_rate()), 1..41)
    }

    /// Sample sets for a fit: finite ones; ones with a NaN or ±∞ hit
    /// rate; and ones the Jacob form gives exactly at a grid point, so
    /// the best error is 0 and every later point ties the bound.
    fn any_fit_samples() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        prop_oneof![
            finite_fit_samples(),
            finite_fit_samples(),
            (
                finite_fit_samples(),
                0usize..40,
                prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            )
                .prop_map(|(mut samples, i, h)| {
                    let n = samples.len();
                    samples[i % n].2 = h;
                    samples
                }),
            (
                0i32..60,
                0i32..60,
                prop::collection::vec((any_fit_capacity(), any_sharers()), 1..41),
            )
                .prop_map(|(i, j, points)| {
                    let (alpha, beta) = (1.02 + i as f64 * 0.12, 32.0 * 1.25f64.powi(j));
                    points
                        .into_iter()
                        .map(|(s, k)| (s, k, jacob_hit_rate(s, k, alpha, beta)))
                        .collect()
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bounded error sum changes no fit: `fit_jacob` and
        /// `fit_jacob_multi` return the unbounded minimiser's bits.
        #[test]
        fn bounded_error_sum_matches_the_unbounded_fit(samples in any_fit_samples()) {
            prop_assert_eq!(fit_bits(fit_jacob_multi(&samples)), reference_fit(&samples));
            let s_cache = samples[0].0;
            let at_one_capacity: Vec<(f64, f64, f64)> =
                samples.iter().map(|&(_, k, h)| (s_cache, k, h)).collect();
            let pairs: Vec<(f64, f64)> = samples.iter().map(|&(_, k, h)| (k, h)).collect();
            prop_assert_eq!(
                fit_bits(fit_jacob(&pairs, s_cache)),
                reference_fit(&at_one_capacity)
            );
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
        let fit = fit_trace_capacities(&spec, &[16 * 1024]);
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
