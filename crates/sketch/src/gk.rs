//! Greenwald–Khanna ε-approximate quantile sketch.
//!
//! The sketch maintains a summary of tuples `(v, g, Δ)` such that for any rank
//! query the returned value's true rank differs from the requested rank by at
//! most `ε·n`. The paper uses GK quantiles (via [Wang et al., SIGMOD'13]) to
//! derive the right borders of equi-height histogram buckets.
//!
//! # Absorbing a buffer is one merge pass
//!
//! Observations collect in a 256-value buffer (`BUFFER`). A full buffer is sorted
//! and merged with the (sorted) summary in a single pass into a fresh entry
//! vector — O(entries + buffer) — and the result is compressed. The pass
//! writes exactly the summary that inserting the sorted values one at a time
//! would leave, which is the definition the registered statistics are pinned
//! to (`tests::Oracle`, `tests/sink_stats_pin.rs`). Inserting the `i`-th
//! sorted value `v` one at a time means:
//!
//! * it lands in front of the first entry `>= v`, so after the old entries
//!   below `v` and in front of the old entries equal to it — and in front of
//!   the buffered values equal to it that went in before: a run of equal
//!   values comes out in reverse arrival order;
//! * its `Δ` is `⌊2ε·n⌋ − 1` for the `n` observations counted *at that
//!   insertion* (the count before the flush plus `i + 1`), or 0 when it lands
//!   at either end of the summary as it stands then: nothing below it at all,
//!   or nothing at or above it — neither an old entry nor an earlier value of
//!   its own run.
//!
//! **The buffer size is part of the state, not a tuning knob.** `compress`
//! runs once per flush with the threshold of the count reached then, so where
//! the flushes fall decides which entries are folded together. Every path
//! that feeds the sketch — [`GkSketch::insert`], [`GkSketch::extend`],
//! [`GkSketch::merge`] — therefore fills the buffer to the same 256-value
//! boundaries the value-at-a-time path crossed.
//!
//! # NaN has no rank
//!
//! A NaN compares false to every entry, so no position in a sorted summary is
//! right for it. The sketch does not count it: [`GkSketch::insert`] and
//! [`GkSketch::extend`] drop NaNs, and [`crate::ColumnStatsBuilder`] tallies a
//! `Float64` NaN with the NULLs. Every other value, `±0.0` (equal to each
//! other, as `>=` has it) and `±∞` included, is summarized.

use std::borrow::Cow;

/// Observations buffered between flushes (see the module docs: it decides
/// when `compress` runs, and so the summary).
const BUFFER: usize = 256;

/// One entry of the GK summary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkEntry {
    /// The sampled value.
    value: f64,
    /// Number of observations represented by this entry (gap to previous entry's
    /// minimum rank).
    g: u64,
    /// Uncertainty in the rank of this entry.
    delta: u64,
}

/// Greenwald–Khanna quantile sketch over `f64` observations.
#[derive(Debug, Clone)]
pub struct GkSketch {
    epsilon: f64,
    /// The summary, sorted by value.
    entries: Vec<GkEntry>,
    /// Observations the summary covers (the buffered ones come on top).
    count: u64,
    /// Observations since the last flush, fewer than [`BUFFER`], never NaN.
    buffer: Vec<f64>,
}

/// `⌊2εn⌋`: the GK band width after `count` observations.
fn band(epsilon: f64, count: u64) -> u64 {
    (2.0 * epsilon * count as f64).floor() as u64
}

/// The summary `entries` (covering `count` observations) after absorbing the
/// NaN-free `buffer`: sorted (in place), merged in in one pass, compressed.
/// See the module docs for why this is what value-at-a-time insertion leaves.
fn absorb(epsilon: f64, entries: &[GkEntry], count: u64, buffer: &mut [f64]) -> Vec<GkEntry> {
    // Values equal under `total_cmp` are the same bits: no order to keep.
    buffer.sort_unstable_by(f64::total_cmp);
    let sorted = &*buffer;
    let mut merged = Vec::with_capacity(entries.len() + sorted.len());
    let mut old = 0;
    let mut run_start = 0;
    while run_start < sorted.len() {
        let value = sorted[run_start];
        while old < entries.len() && entries[old].value < value {
            merged.push(entries[old]);
            old += 1;
        }
        let run_len = sorted[run_start..]
            .iter()
            .take_while(|v| **v == value)
            .count();
        // Nothing below the run: every member lands at the front. Nothing at
        // or above it among the old entries: its first member (and only that
        // one — the later ones find it there) lands at the back.
        let at_front = old == 0 && run_start == 0;
        let first_at_back = old == entries.len();
        for i in (run_start..run_start + run_len).rev() {
            let at_edge = at_front || (first_at_back && i == run_start);
            let delta = if at_edge {
                0
            } else {
                band(epsilon, count + i as u64 + 1).saturating_sub(1)
            };
            merged.push(GkEntry {
                value: sorted[i],
                g: 1,
                delta,
            });
        }
        run_start += run_len;
    }
    merged.extend_from_slice(&entries[old..]);
    compress(epsilon, &mut merged, count + sorted.len() as u64);
    merged
}

/// Folds each entry into its successor where the GK invariant allows it
/// (`g + g' + Δ' <= ⌊2εn⌋`); the first entry is never folded.
fn compress(epsilon: f64, entries: &mut Vec<GkEntry>, count: u64) {
    if entries.len() < 3 {
        return;
    }
    let threshold = band(epsilon, count);
    // In place: `kept` entries are final, the next one is read at `next`.
    let mut kept = 2;
    for next in 2..entries.len() {
        let entry = entries[next];
        let last = &mut entries[kept - 1];
        if last.g + entry.g + entry.delta <= threshold {
            *last = GkEntry {
                value: entry.value,
                g: last.g + entry.g,
                delta: entry.delta,
            };
        } else {
            entries[kept] = entry;
            kept += 1;
        }
    }
    entries.truncate(kept);
}

impl GkSketch {
    /// Creates a sketch with the given rank-error bound `epsilon` (e.g. 0.01 for
    /// 1% of n).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        Self {
            epsilon,
            entries: Vec::new(),
            count: 0,
            buffer: Vec::with_capacity(BUFFER),
        }
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of observations inserted so far (NaNs are not observations).
    pub fn count(&self) -> u64 {
        self.count + self.buffer.len() as u64
    }

    /// Inserts one observation. A NaN has no rank and is dropped.
    pub fn insert(&mut self, value: f64) {
        self.extend([value]);
    }

    /// Inserts many observations, a buffer's worth at a time. NaNs have no
    /// rank and are dropped.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        let mut values = values.into_iter().filter(|v| !v.is_nan());
        loop {
            let room = BUFFER - self.buffer.len();
            self.buffer.extend(values.by_ref().take(room));
            if self.buffer.len() < BUFFER {
                return;
            }
            self.seal();
        }
    }

    /// Absorbs the buffered observations into the summary (the buffer keeps
    /// its allocation). A full buffer does this by itself; a finished partial
    /// does it where it was built, and [`GkSketch::merge`] then reads its
    /// entries as they are.
    pub fn seal(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.entries = absorb(self.epsilon, &self.entries, self.count, &mut self.buffer);
        self.count += self.buffer.len() as u64;
        self.buffer.clear();
    }

    /// The summary with the buffer absorbed: the entries themselves once
    /// sealed.
    fn sealed_entries(&self) -> Cow<'_, [GkEntry]> {
        if self.buffer.is_empty() {
            return Cow::Borrowed(&self.entries);
        }
        let buffer = &mut self.buffer.clone();
        Cow::Owned(absorb(self.epsilon, &self.entries, self.count, buffer))
    }

    /// Returns the ε-approximate `phi`-quantile (`phi` in `[0, 1]`).
    ///
    /// Returns `None` if the sketch is empty.
    pub fn quantile(&mut self, phi: f64) -> Option<f64> {
        self.seal();
        if self.entries.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let rank = (phi * self.count as f64).ceil() as u64;
        let target = rank + (self.epsilon * self.count as f64) as u64;
        let mut rmin = 0u64;
        for entry in &self.entries {
            rmin += entry.g;
            if rmin + entry.delta >= target || rmin >= rank.max(1) {
                return Some(entry.value);
            }
        }
        self.entries.last().map(|e| e.value)
    }

    /// Returns `n + 1` quantile boundaries splitting the data into `n`
    /// (approximately) equal-height buckets: `[q(0), q(1/n), ..., q(1)]`.
    pub fn boundaries(&mut self, buckets: usize) -> Vec<f64> {
        assert!(buckets >= 1);
        self.seal();
        if self.entries.is_empty() {
            return Vec::new();
        }
        (0..=buckets)
            .map(|i| self.quantile(i as f64 / buckets as f64).expect("non-empty"))
            .collect()
    }

    /// Number of summary entries currently retained (after sealing).
    pub fn summary_size(&mut self) -> usize {
        self.seal();
        self.entries.len()
    }

    /// Merges another sketch into this one. GK sketches are not natively
    /// mergeable without inflating ε, so — matching what a per-partition
    /// collection followed by a coordinator merge does in practice — the
    /// other summary's values are re-fed weighted by their `g` counts: each
    /// entry is a run of `g` equal values, appended to the buffer run-wise
    /// and absorbed at every buffer boundary. `other` is only read; a
    /// [sealed](GkSketch::seal) one is read without any work on it.
    pub fn merge(&mut self, other: &GkSketch) {
        for entry in other.sealed_entries().iter() {
            self.extend(std::iter::repeat_n(entry.value, entry.g as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sketch as it was before the merge pass, kept word for word as the
    /// definition of the state: a flush inserts the sorted values one at a
    /// time, each scanning the summary from the front, and a merge re-feeds
    /// every entry `g` times through `insert`.
    #[derive(Clone)]
    struct Oracle {
        epsilon: f64,
        entries: Vec<GkEntry>,
        count: u64,
        buffer: Vec<f64>,
    }

    impl Oracle {
        fn new(epsilon: f64) -> Self {
            Self {
                epsilon,
                entries: Vec::new(),
                count: 0,
                buffer: Vec::with_capacity(256),
            }
        }

        fn insert(&mut self, value: f64) {
            self.buffer.push(value);
            if self.buffer.len() >= 256 {
                self.flush();
            }
        }

        fn flush(&mut self) {
            if self.buffer.is_empty() {
                return;
            }
            let mut buf = std::mem::take(&mut self.buffer);
            buf.sort_by(|a, b| a.total_cmp(b));
            for v in buf {
                self.insert_sorted(v);
            }
            self.compress();
        }

        fn insert_sorted(&mut self, value: f64) {
            self.count += 1;
            let delta = if self.entries.is_empty() {
                0
            } else {
                (2.0 * self.epsilon * self.count as f64).floor() as u64
            };
            // Find insertion point: first entry with value >= new value.
            let pos = self
                .entries
                .iter()
                .position(|e| e.value >= value)
                .unwrap_or(self.entries.len());
            let delta = if pos == 0 || pos == self.entries.len() {
                0
            } else {
                delta.saturating_sub(1)
            };
            self.entries.insert(pos, GkEntry { value, g: 1, delta });
        }

        fn compress(&mut self) {
            if self.entries.len() < 3 {
                return;
            }
            let threshold = (2.0 * self.epsilon * self.count as f64).floor() as u64;
            let mut compressed: Vec<GkEntry> = Vec::with_capacity(self.entries.len());
            // Keep the first entry always; try to merge each entry into its successor.
            for entry in self.entries.drain(..) {
                let can_merge = match compressed.last() {
                    Some(last) if compressed.len() > 1 => {
                        last.g + entry.g + entry.delta <= threshold
                    }
                    _ => false,
                };
                if can_merge {
                    let last = compressed.last_mut().expect("checked non-empty");
                    *last = GkEntry {
                        value: entry.value,
                        g: last.g + entry.g,
                        delta: entry.delta,
                    };
                } else {
                    compressed.push(entry);
                }
            }
            self.entries = compressed;
        }

        fn merge(&mut self, other: &Oracle) {
            let mut other = other.clone();
            other.flush();
            for entry in &other.entries {
                for _ in 0..entry.g {
                    self.insert(entry.value);
                }
            }
        }
    }

    /// Everything the state consists of, values by their bits.
    type State = (u64, Vec<(u64, u64, u64)>, Vec<u64>);

    fn state(entries: &[GkEntry], count: u64, buffer: &[f64]) -> State {
        (
            count,
            entries
                .iter()
                .map(|e| (e.value.to_bits(), e.g, e.delta))
                .collect(),
            buffer.iter().map(|v| v.to_bits()).collect(),
        )
    }

    fn sketch_state(sketch: &GkSketch) -> State {
        state(&sketch.entries, sketch.count, &sketch.buffer)
    }

    fn oracle_state(oracle: &Oracle) -> State {
        state(&oracle.entries, oracle.count, &oracle.buffer)
    }

    /// Feeds `values` to both implementations — the sketch through `insert`,
    /// `extend` in uneven pieces, or both — and compares the whole state after
    /// every piece and after the final flush.
    fn assert_matches_oracle(values: &[f64], epsilon: f64, piece: usize) {
        let mut sketch = GkSketch::new(epsilon);
        let mut oracle = Oracle::new(epsilon);
        for chunk in values.chunks(piece.max(1)) {
            if piece == 0 {
                sketch.insert(chunk[0]);
            } else {
                sketch.extend(chunk.iter().copied());
            }
            for v in chunk {
                oracle.insert(*v);
            }
            assert_eq!(sketch_state(&sketch), oracle_state(&oracle));
        }
        sketch.seal();
        oracle.flush();
        assert_eq!(sketch_state(&sketch), oracle_state(&oracle));
        assert_eq!(sketch.count(), values.len() as u64);
    }

    /// Values that collide, tie across the zero signs and reach both
    /// infinities, next to ordinary ones.
    fn value_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => (0i64..40).prop_map(|v| v as f64),
            3 => -1.0e6f64..1.0e6,
            1 => prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MAX),
                Just(f64::MIN_POSITIVE),
            ],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The merge pass leaves the entries `(value bits, g, Δ)`, the count
        /// and the buffer of value-by-value insertion, however the values
        /// arrive.
        fn flush_matches_value_by_value_insertion(
            values in prop::collection::vec(value_strategy(), 0..1500),
            epsilon in prop_oneof![Just(0.01), Just(0.005), Just(0.1)],
            piece in prop_oneof![Just(0usize), Just(1), Just(7), Just(255), Just(256), Just(257), Just(1000)],
        ) {
            assert_matches_oracle(&values, epsilon, piece);
        }

        /// Merging 1, 2, 4 or 8 partials — sealed where they were built or
        /// not — equals re-feeding them value by value, in any mix with
        /// direct inserts.
        fn merge_matches_the_refeed(
            values in prop::collection::vec(value_strategy(), 0..4000),
            partials in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            sealed in any::<bool>(),
            own in prop::collection::vec(value_strategy(), 0..300),
        ) {
            let mut merged = GkSketch::new(0.01);
            let mut expected = Oracle::new(0.01);
            merged.extend(own.iter().copied());
            own.iter().for_each(|v| expected.insert(*v));
            // Round-robin, so the partials' ranges overlap like hash
            // partitions do.
            for p in 0..partials {
                let mut partial = GkSketch::new(0.01);
                let mut oracle = Oracle::new(0.01);
                for v in values.iter().skip(p).step_by(partials) {
                    partial.insert(*v);
                    oracle.insert(*v);
                }
                if sealed {
                    partial.seal();
                }
                let before = sketch_state(&partial);
                merged.merge(&partial);
                expected.merge(&oracle);
                prop_assert_eq!(sketch_state(&partial), before, "merge only reads its argument");
                prop_assert_eq!(sketch_state(&merged), oracle_state(&expected));
            }
            prop_assert_eq!(merged.count(), (values.len() + own.len()) as u64);
        }
    }

    #[test]
    fn shaped_inputs_match_the_oracle_around_the_buffer_boundary() {
        for n in [0usize, 1, 2, 255, 256, 257, 511, 512, 513, 1023, 3000] {
            let ascending: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let descending: Vec<f64> = ascending.iter().rev().copied().collect();
            let constant = vec![7.5; n];
            // Runs of one value longer than a buffer, between other values.
            let long_runs: Vec<f64> = (0..n).map(|i| (i / 600) as f64).collect();
            let zeros: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            let infinities: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    _ => (i % 17) as f64,
                })
                .collect();
            for values in [
                ascending, descending, constant, long_runs, zeros, infinities,
            ] {
                for piece in [0, 256, 10_000] {
                    assert_matches_oracle(&values, 0.01, piece);
                }
            }
        }
    }

    #[test]
    fn nan_has_no_rank_and_is_not_counted() {
        let mut with_nans = GkSketch::new(0.01);
        let mut without = GkSketch::new(0.01);
        for i in 0..2_000 {
            with_nans.insert(if i % 2 == 0 { f64::NAN } else { -f64::NAN });
            with_nans.insert((i % 97) as f64);
            without.insert((i % 97) as f64);
        }
        with_nans.extend([f64::NAN, 3.0, f64::NAN]);
        without.extend([3.0]);
        assert_eq!(with_nans.count(), 2_001);
        assert_eq!(sketch_state(&with_nans), sketch_state(&without));
        // The summary stays sorted, so quantiles stay monotone.
        let bounds = with_nans.boundaries(8);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
        assert!(with_nans.entries.iter().all(|e| !e.value.is_nan()));
    }

    #[test]
    fn flushing_keeps_the_buffer_allocation() {
        let mut s = GkSketch::new(0.01);
        s.extend((0..10 * BUFFER).map(|i| i as f64));
        assert!(s.buffer.is_empty());
        assert_eq!(s.buffer.capacity(), BUFFER);
    }
    fn sketch_of(values: impl IntoIterator<Item = f64>, eps: f64) -> GkSketch {
        let mut s = GkSketch::new(eps);
        s.extend(values);
        s
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let mut s = GkSketch::new(0.01);
        assert_eq!(s.quantile(0.5), None);
        assert!(s.boundaries(4).is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut s = sketch_of([42.0], 0.01);
        assert_eq!(s.quantile(0.0), Some(42.0));
        assert_eq!(s.quantile(0.5), Some(42.0));
        assert_eq!(s.quantile(1.0), Some(42.0));
    }

    #[test]
    fn median_of_uniform_sequence() {
        let n = 10_000;
        let mut s = sketch_of((0..n).map(|i| i as f64), 0.01);
        let med = s.quantile(0.5).unwrap();
        let err = (med - (n as f64) / 2.0).abs() / n as f64;
        assert!(err <= 0.02, "median rank error {err} too large");
    }

    #[test]
    fn extreme_quantiles() {
        let n = 5_000;
        let mut s = sketch_of((0..n).map(|i| i as f64), 0.01);
        assert!(s.quantile(0.0).unwrap() <= 100.0);
        assert!(s.quantile(1.0).unwrap() >= (n - 100) as f64);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut s = sketch_of((0..20_000).map(|i| ((i * 37) % 1000) as f64), 0.01);
        let qs: Vec<f64> = (0..=10)
            .map(|i| s.quantile(i as f64 / 10.0).unwrap())
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be non-decreasing: {qs:?}");
        }
    }

    #[test]
    fn summary_is_sublinear() {
        let mut s = sketch_of((0..50_000).map(|i| (i % 999) as f64), 0.01);
        assert!(
            s.summary_size() < 5_000,
            "summary size {} should be far below n",
            s.summary_size()
        );
    }

    #[test]
    fn boundaries_cover_range() {
        let mut s = sketch_of((0..1_000).map(|i| i as f64), 0.01);
        let b = s.boundaries(10);
        assert_eq!(b.len(), 11);
        assert!(b[0] <= 20.0);
        assert!(b[10] >= 980.0);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = sketch_of((0..1000).map(|i| i as f64), 0.02);
        let b = sketch_of((1000..2000).map(|i| i as f64), 0.02);
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        let med = a.quantile(0.5).unwrap();
        assert!((med - 1000.0).abs() <= 100.0, "merged median {med}");
    }

    #[test]
    fn skewed_data_quantiles() {
        // 90% of values are 0, 10% are 100.
        let mut s = GkSketch::new(0.01);
        for i in 0..10_000 {
            s.insert(if i % 10 == 0 { 100.0 } else { 0.0 });
        }
        assert_eq!(s.quantile(0.5).unwrap(), 0.0);
        assert_eq!(s.quantile(0.85).unwrap(), 0.0);
        assert_eq!(s.quantile(0.99).unwrap(), 100.0);
    }
}
