//! The incremental σ-evaluation engine.
//!
//! Every scheduler in this workspace spends its time evaluating the
//! Rakhmatov–Vrudhula cost σ of candidate schedules. The naive path builds
//! a [`LoadProfile`](crate::profile::LoadProfile) and calls
//! [`RvModel::sigma`](crate::rv::RvModel::sigma), which computes
//! `K · M` exponentials per evaluation (K intervals, M series terms).
//! [`SigmaEvaluator`] removes *all* exponentials from the hot loop:
//!
//! 1. **Suffix form.** For a contiguous schedule evaluated at its end `T`,
//!    each interval's series term depends only on the *time remaining after
//!    it*, `R_k = T − e_k`, never on absolute time:
//!
//!    ```text
//!    σ(T) = Σ_k I_k · [Δ_k + 2 Σ_m e^{−β²m²·R_k} · (1 − e^{−β²m²·Δ_k}) / (β²m²)]
//!    ```
//!
//! 2. **Entry tables.** A schedule draws its intervals from a finite
//!    catalogue of (duration, current) *entries* — one per (task, design
//!    point) pair. The factors `e^{−β²m²·Δ}` (decay) and
//!    `(1 − e^{−β²m²·Δ})/(β²m²)` (fill) are precomputed per entry per
//!    term at construction.
//!
//! 3. **Backward recurrence.** Walking the sequence last-to-first while
//!    maintaining the per-term weights `w_m = e^{−β²m²·R}` turns each
//!    interval's contribution into `M` fused multiply-adds:
//!    `w` starts at 1 and is multiplied by the entry's decay factors after
//!    each position. No `exp()` is ever called during evaluation.
//!
//! 4. **Suffix cache.** Because contributions depend only on the suffix
//!    after each position, a [`SigmaScratch`] memoizes per-suffix partial
//!    sums: re-evaluating a sequence that shares a suffix with the previous
//!    call (a single design-point swap, an adjacent transposition, a prefix
//!    permutation) only recomputes the changed prefix.
//!
//! Results match the naive [`RvModel::sigma`](crate::rv::RvModel::sigma)
//! to ≤ 1e-9 relative error (they differ only in floating-point
//! association); the property suites in `crates/battery/tests` and
//! `crates/core/tests` enforce this.
//!
//! ```
//! use batsched_battery::eval::{SigmaEvaluator, SigmaScratch};
//! use batsched_battery::profile::LoadProfile;
//! use batsched_battery::rv::RvModel;
//! use batsched_battery::units::{MilliAmps, Minutes};
//!
//! let model = RvModel::date05();
//! // Two entries: a hungry fast option and a lean slow one.
//! let eval = SigmaEvaluator::new(&model, [
//!     (Minutes::new(2.0), MilliAmps::new(500.0)),
//!     (Minutes::new(6.0), MilliAmps::new(120.0)),
//! ]);
//! let mut scratch = SigmaScratch::new();
//! let (sigma, makespan) = eval.sigma_seq(&[0, 1], &mut scratch);
//!
//! // Same answer as the naive profile path.
//! let p = LoadProfile::from_steps([
//!     (Minutes::new(2.0), MilliAmps::new(500.0)),
//!     (Minutes::new(6.0), MilliAmps::new(120.0)),
//! ]).unwrap();
//! let naive = model.sigma(&p, p.end());
//! assert!((sigma.value() - naive.value()).abs() <= 1e-9 * naive.value());
//! assert_eq!(makespan, Minutes::new(8.0));
//! ```

use crate::rv::RvModel;
use crate::units::{MilliAmpMinutes, MilliAmps, Minutes};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone id source so a [`SigmaScratch`] can detect being reused with a
/// different evaluator and reset its cache instead of serving stale sums.
static NEXT_EVALUATOR_ID: AtomicU64 = AtomicU64::new(1);

/// Precomputed σ-evaluation tables for a fixed catalogue of
/// (duration, current) entries under one [`RvModel`].
///
/// Build once per scheduling run; evaluate sequences of entry indices with
/// [`Self::sigma_seq`]. Construction costs `distinct durations × terms`
/// exponentials; every evaluation afterwards is exponential-free.
#[derive(Debug, Clone)]
pub struct SigmaEvaluator {
    id: u64,
    terms: usize,
    /// Entry durations (minutes).
    dur: Vec<f64>,
    /// Entry currents (mA).
    cur: Vec<f64>,
    /// Interleaved per-entry, per-term factors — one linear stream for the
    /// hot loop: `table[2·(e·terms + m)] = (1 − e^{−β²m²·Δ_e}) / (β²m²)`
    /// (fill) and `table[2·(e·terms + m) + 1] = e^{−β²m²·Δ_e}` (decay).
    table: Vec<f64>,
}

impl SigmaEvaluator {
    /// Precomputes evaluation tables for `entries` under `model`.
    ///
    /// A row depends on the entry's duration alone, and catalogues repeat
    /// durations heavily (a task graph's durations are 0.1-minute
    /// quantities), so each distinct duration's row is computed once and
    /// copied to the other entries with that duration — the same `exp()`
    /// of the same argument, so the same bits. Entries are grouped by
    /// sorting their ids on the duration's bits: deterministic, and no
    /// hashing.
    pub fn new<I>(model: &RvModel, entries: I) -> Self
    where
        I: IntoIterator<Item = (Minutes, MilliAmps)>,
    {
        let coeff = model.coefficients();
        let terms = coeff.len();
        let (dur, cur): (Vec<f64>, Vec<f64>) = entries
            .into_iter()
            .map(|(d, i)| (d.value(), i.value()))
            .unzip();
        let mut by_duration: Vec<(u64, usize)> = dur
            .iter()
            .enumerate()
            .map(|(e, d)| (d.to_bits(), e))
            .collect();
        by_duration.sort_unstable();
        let mut table = vec![0.0; 2 * terms * dur.len()];
        let mut computed: Option<(u64, usize)> = None;
        for (bits, e) in by_duration {
            let row = 2 * terms * e;
            match computed {
                Some((b, src)) if b == bits => table.copy_within(src..src + 2 * terms, row),
                _ => {
                    let d = f64::from_bits(bits);
                    for (fd, &k) in table[row..row + 2 * terms].chunks_exact_mut(2).zip(coeff) {
                        let e = (-k * d).exp();
                        fd[0] = (1.0 - e) / k;
                        fd[1] = e;
                    }
                    computed = Some((bits, row));
                }
            }
        }
        Self {
            id: NEXT_EVALUATOR_ID.fetch_add(1, Ordering::Relaxed),
            terms,
            dur,
            cur,
            table,
        }
    }

    /// Number of catalogued entries.
    pub fn entry_count(&self) -> usize {
        self.dur.len()
    }

    /// Whether this evaluator was built over exactly the given entry
    /// catalogue (same order, bit-equal durations and currents). Lets a
    /// cache decide to reuse an evaluator for a repeated workload without
    /// paying for a rebuild (its exponentials and grouping sort); the model
    /// must be compared separately (the tables also depend on it).
    pub fn catalogue_matches<I>(&self, entries: I) -> bool
    where
        I: IntoIterator<Item = (Minutes, MilliAmps)>,
    {
        let mut k = 0usize;
        for (d, c) in entries {
            if k >= self.dur.len()
                || self.dur[k].to_bits() != d.value().to_bits()
                || self.cur[k].to_bits() != c.value().to_bits()
            {
                return false;
            }
            k += 1;
        }
        k == self.dur.len()
    }

    /// Number of series terms (matches the model's truncation).
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// Duration of entry `e`.
    pub fn duration(&self, e: u32) -> Minutes {
        Minutes::new(self.dur[e as usize])
    }

    /// Current of entry `e`.
    pub fn current(&self, e: u32) -> MilliAmps {
        MilliAmps::new(self.cur[e as usize])
    }

    /// σ and makespan of running the catalogued entries `seq` back-to-back
    /// from `t = 0`, evaluated at the completion instant — the exact
    /// quantity [`RvModel::sigma`] computes on the equivalent
    /// [`LoadProfile`](crate::profile::LoadProfile), with no allocation and
    /// no `exp()` calls.
    ///
    /// `scratch` carries the suffix cache between calls: consecutive
    /// evaluations that share a trailing subsequence (single design-point
    /// swaps, adjacent transpositions) only pay for the changed prefix.
    ///
    /// # Panics
    ///
    /// Panics when `seq` references an entry out of range.
    pub fn sigma_seq(&self, seq: &[u32], scratch: &mut SigmaScratch) -> (MilliAmpMinutes, Minutes) {
        let n = seq.len();
        let terms = self.terms;
        scratch.bind(self.id, terms);

        // Longest suffix shared with the previously evaluated sequence.
        let old = &scratch.seq;
        let mut shared = 0usize;
        let max_shared = n.min(old.len()).min(scratch.valid);
        while shared < max_shared && seq[n - 1 - shared] == old[old.len() - 1 - shared] {
            shared += 1;
        }
        scratch.evals += 1;
        scratch.reused += shared as u64;
        scratch.fresh += (n - shared) as u64;

        // Suffix states are indexed by suffix length i (last i positions):
        //   sigma[i]  = Σ contributions of the last i positions
        //   dursum[i] = Σ durations of the last i positions
        //   w[i*terms + m] = Π decay over the last i positions
        scratch.ensure_len(n);
        // Anything beyond the shared suffix is about to be overwritten; cap
        // validity first so a panic mid-loop cannot leave a lying cache.
        scratch.valid = shared;
        for i in shared..n {
            let e = seq[n - 1 - i] as usize;
            assert!(e < self.dur.len(), "entry {e} out of range");
            let factors = &self.table[2 * e * terms..2 * (e + 1) * terms];
            // `w_in` (suffix length i) and `w_out` (i + 1) are adjacent rows.
            let (w_in, w_out) = scratch.w[i * terms..(i + 2) * terms].split_at_mut(terms);
            let mut series = 0.0;
            for ((wi, wo), fd) in w_in
                .iter()
                .zip(w_out.iter_mut())
                .zip(factors.chunks_exact(2))
            {
                series += wi * fd[0];
                *wo = wi * fd[1];
            }
            scratch.sigma[i + 1] = scratch.sigma[i] + self.cur[e] * (self.dur[e] + 2.0 * series);
            scratch.dursum[i + 1] = scratch.dursum[i] + self.dur[e];
        }

        scratch.seq.clear();
        scratch.seq.extend_from_slice(seq);
        scratch.valid = n;
        (
            MilliAmpMinutes::new(scratch.sigma[n]),
            Minutes::new(scratch.dursum[n]),
        )
    }

    /// One-shot convenience around [`Self::sigma_seq`] that allocates its
    /// own scratch. Prefer holding a [`SigmaScratch`] in hot loops.
    pub fn sigma_seq_once(&self, seq: &[u32]) -> (MilliAmpMinutes, Minutes) {
        let mut scratch = SigmaScratch::new();
        self.sigma_seq(seq, &mut scratch)
    }
}

/// Reusable evaluation state for [`SigmaEvaluator::sigma_seq`]: the
/// per-term weight ladder plus the suffix-keyed partial-sum cache.
///
/// One allocation per scheduling run instead of one profile allocation per
/// candidate. A scratch may be moved between evaluators; it detects the
/// switch and resets itself.
#[derive(Debug, Clone, Default)]
pub struct SigmaScratch {
    /// Id of the evaluator the cached state belongs to (0 = unbound).
    evaluator_id: u64,
    terms: usize,
    /// Sequence the cache describes (entry ids, schedule order).
    seq: Vec<u32>,
    /// Number of trailing positions of `seq` with valid cached state.
    valid: usize,
    /// `sigma[i]`: σ contribution of the last `i` positions.
    sigma: Vec<f64>,
    /// `dursum[i]`: total duration of the last `i` positions.
    dursum: Vec<f64>,
    /// `w[i*terms + m]`: per-term decay product over the last `i` positions.
    w: Vec<f64>,
    /// Profiling: `sigma_seq` calls through this scratch (cumulative,
    /// never reset by rebinding — a plain add per evaluation).
    evals: u64,
    /// Profiling: sequence positions served from the suffix cache.
    reused: u64,
    /// Profiling: sequence positions recomputed.
    fresh: u64,
}

impl SigmaScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative suffix-cache profile of this scratch:
    /// `(evaluations, positions reused, positions recomputed)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.evals, self.reused, self.fresh)
    }

    /// Drops the cached suffix sums (keeps the buffers). Call when the
    /// entry catalogue changes underneath a reused scratch.
    pub fn invalidate(&mut self) {
        self.valid = 0;
        self.seq.clear();
    }

    fn bind(&mut self, evaluator_id: u64, terms: usize) {
        if self.evaluator_id != evaluator_id || self.terms != terms {
            self.evaluator_id = evaluator_id;
            self.terms = terms;
            self.invalidate();
        }
    }

    fn ensure_len(&mut self, n: usize) {
        if self.sigma.len() < n + 1 {
            self.sigma.resize(n + 1, 0.0);
            self.dursum.resize(n + 1, 0.0);
        }
        // Checked independently of `sigma`: rebinding to an evaluator with
        // more series terms must grow `w` even when `sigma` is long enough.
        if self.w.len() < (n + 1) * self.terms {
            self.w.resize((n + 1) * self.terms, 0.0);
        }
        self.sigma[0] = 0.0;
        self.dursum[0] = 0.0;
        for m in 0..self.terms {
            self.w[m] = 1.0;
        }
    }
}

/// Prefix-keyed partial-σ state: the complement of [`SigmaScratch`]'s
/// suffix cache for searches that grow and shrink a schedule from the
/// *front* (depth-first assignment enumeration, branch-and-bound).
///
/// The suffix cache exploits that a contiguous schedule's σ depends on each
/// interval only through the time *remaining after it*. A prefix ending at
/// time `P` can nevertheless be summarised exactly: writing `T = P + S` for
/// a yet-unknown suffix of duration `S`,
///
/// ```text
/// e^{−β²m²·(T − e_k)} = e^{−β²m²·(P − e_k)} · e^{−β²m²·S}
/// ```
///
/// so the prefix contributes `charge = Σ_k I_k·Δ_k` plus, per series term,
/// the **prefix moment** `A_m = Σ_k I_k · fill_{k,m} · e^{−β²m²·(P − e_k)}`
/// measured from the prefix's own end. Appending one catalogued entry `e`
/// updates the moments in `O(terms)`:
///
/// ```text
/// A'_m = A_m · decay_{e,m} + I_e · fill_{e,m}
/// ```
///
/// and a *complete* schedule (empty suffix, `S = 0`) evaluates to
/// `σ = charge + 2·Σ_m A_m`. The per-depth rows form a stack, so a DFS
/// pays `O(terms)` per push/pop and `O(terms)` per leaf — instead of an
/// `O(n·terms)` full re-evaluation per leaf through [`SigmaEvaluator::sigma_seq`],
/// whose suffix cache cannot help when only the deepest positions vary.
///
/// Results match `sigma_seq` to floating-point association (≤ 1e-9
/// relative); the battery property suite enforces this.
#[derive(Debug, Clone, Default)]
pub struct PrefixSigma {
    /// Id of the evaluator the rows belong to (0 = unbound).
    evaluator_id: u64,
    terms: usize,
    depth: usize,
    /// `charge[k]`: delivered charge `Σ I·Δ` of the first `k` entries.
    charge: Vec<f64>,
    /// `elapsed[k]`: total duration of the first `k` entries.
    elapsed: Vec<f64>,
    /// `a[k·terms + m]`: term-`m` prefix moment after `k` entries.
    a: Vec<f64>,
}

impl PrefixSigma {
    /// Creates an empty prefix stack (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current prefix length (number of pushed entries).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Clears the prefix back to empty (keeps the buffers).
    pub fn reset(&mut self) {
        self.depth = 0;
    }

    /// End time of the current prefix.
    pub fn elapsed(&self) -> Minutes {
        Minutes::new(if self.depth == 0 {
            0.0
        } else {
            self.elapsed[self.depth]
        })
    }

    /// Appends catalogued entry `entry` to the prefix.
    ///
    /// # Panics
    ///
    /// Panics when `entry` is out of range for `eval`.
    pub fn push(&mut self, eval: &SigmaEvaluator, entry: u32) {
        if self.evaluator_id != eval.id || self.terms != eval.terms {
            self.evaluator_id = eval.id;
            self.terms = eval.terms;
            self.depth = 0;
        }
        let e = entry as usize;
        assert!(e < eval.dur.len(), "entry {e} out of range");
        let terms = self.terms;
        let k = self.depth;
        if self.charge.len() < k + 2 {
            self.charge.resize(k + 2, 0.0);
            self.elapsed.resize(k + 2, 0.0);
        }
        if self.a.len() < (k + 2) * terms {
            self.a.resize((k + 2) * terms, 0.0);
        }
        if k == 0 {
            self.charge[0] = 0.0;
            self.elapsed[0] = 0.0;
            self.a[..terms].fill(0.0);
        }
        let cur = eval.cur[e];
        let dur = eval.dur[e];
        self.charge[k + 1] = self.charge[k] + cur * dur;
        self.elapsed[k + 1] = self.elapsed[k] + dur;
        let factors = &eval.table[2 * e * terms..2 * (e + 1) * terms];
        let (row_in, row_out) = self.a[k * terms..(k + 2) * terms].split_at_mut(terms);
        for ((ai, ao), fd) in row_in
            .iter()
            .zip(row_out.iter_mut())
            .zip(factors.chunks_exact(2))
        {
            // fd[0] = fill, fd[1] = decay (same layout as the suffix path).
            *ao = ai * fd[1] + cur * fd[0];
        }
        self.depth = k + 1;
    }

    /// Removes the most recently pushed entry.
    ///
    /// # Panics
    ///
    /// Panics when the prefix is empty.
    pub fn pop(&mut self) {
        assert!(self.depth > 0, "pop on empty prefix");
        self.depth -= 1;
    }

    /// σ and makespan of the current prefix *as a complete schedule*
    /// (evaluated at its own completion instant, like
    /// [`SigmaEvaluator::sigma_seq`]).
    pub fn sigma(&self) -> (MilliAmpMinutes, Minutes) {
        if self.depth == 0 {
            return (MilliAmpMinutes::new(0.0), Minutes::new(0.0));
        }
        let k = self.depth;
        let mut series = 0.0;
        for &am in &self.a[k * self.terms..(k + 1) * self.terms] {
            series += am;
        }
        (
            MilliAmpMinutes::new(self.charge[k] + 2.0 * series),
            Minutes::new(self.elapsed[k]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BatteryModel;
    use crate::profile::LoadProfile;

    fn entries() -> Vec<(Minutes, MilliAmps)> {
        vec![
            (Minutes::new(2.0), MilliAmps::new(500.0)),
            (Minutes::new(4.0), MilliAmps::new(250.0)),
            (Minutes::new(6.0), MilliAmps::new(125.0)),
            (Minutes::new(8.0), MilliAmps::new(60.0)),
            (Minutes::new(1.5), MilliAmps::new(333.0)),
        ]
    }

    fn naive(model: &RvModel, seq: &[u32]) -> (f64, f64) {
        let ents = entries();
        let p = LoadProfile::from_steps(seq.iter().map(|&e| {
            let (d, i) = ents[e as usize];
            (d, i)
        }))
        .unwrap();
        (model.sigma(&p, p.end()).value(), p.end().value())
    }

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "engine {a} vs naive {b}"
        );
    }

    #[test]
    fn matches_naive_on_fixed_sequences() {
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let mut scratch = SigmaScratch::new();
        for seq in [
            vec![0u32],
            vec![3, 2, 1, 0],
            vec![0, 1, 2, 3, 4],
            vec![4, 4, 4],
            vec![2, 0, 3, 1, 4, 0, 2],
        ] {
            let (sigma, mk) = eval.sigma_seq(&seq, &mut scratch);
            let (ns, nmk) = naive(&model, &seq);
            assert_close(sigma.value(), ns);
            assert!((mk.value() - nmk).abs() < 1e-12);
        }
    }

    #[test]
    fn shared_durations_get_bit_identical_rows() {
        // Entries 0, 2 and 4 share a duration but not a current; 1 and 3
        // share another. Each row must hold exactly the bits a per-entry
        // `exp` gives, whichever entry of its group was computed first.
        let ents = [
            (3.7, 500.0),
            (1.2, 90.0),
            (3.7, 120.0),
            (1.2, 91.0),
            (3.7, 7.5),
            (0.3, 500.0),
        ];
        let model = RvModel::new(0.41, 12).unwrap();
        let eval = SigmaEvaluator::new(
            &model,
            ents.iter()
                .map(|&(d, i)| (Minutes::new(d), MilliAmps::new(i))),
        );
        let terms = eval.terms();
        for (e, &(d, i)) in ents.iter().enumerate() {
            assert_eq!(eval.current(e as u32).value().to_bits(), i.to_bits());
            let row = &eval.table[2 * e * terms..2 * (e + 1) * terms];
            for (fd, &k) in row.chunks_exact(2).zip(model.coefficients()) {
                let x = (-k * d).exp();
                assert_eq!(fd[0].to_bits(), ((1.0 - x) / k).to_bits(), "fill e={e}");
                assert_eq!(fd[1].to_bits(), x.to_bits(), "decay e={e}");
            }
        }
    }

    #[test]
    fn suffix_cache_survives_single_swaps() {
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let mut scratch = SigmaScratch::new();
        let mut seq = vec![0u32, 1, 2, 3, 4, 0, 1, 2];
        eval.sigma_seq(&seq, &mut scratch);
        for pos in 0..seq.len() {
            for replacement in 0..5u32 {
                let prev = seq[pos];
                seq[pos] = replacement;
                let (sigma, _) = eval.sigma_seq(&seq, &mut scratch);
                let (ns, _) = naive(&model, &seq);
                assert_close(sigma.value(), ns);
                seq[pos] = prev;
                // Restore-evaluation exercises the cache in reverse too.
                let (restored, _) = eval.sigma_seq(&seq, &mut scratch);
                let (nr, _) = naive(&model, &seq);
                assert_close(restored.value(), nr);
            }
        }
    }

    #[test]
    fn cache_handles_length_changes() {
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let mut scratch = SigmaScratch::new();
        for seq in [
            vec![0u32, 1, 2],
            vec![3u32, 0, 1, 2], // same suffix, longer
            vec![1u32, 2],       // shorter
            vec![0u32, 1, 2, 3, 4],
        ] {
            let (sigma, _) = eval.sigma_seq(&seq, &mut scratch);
            let (ns, _) = naive(&model, &seq);
            assert_close(sigma.value(), ns);
        }
    }

    #[test]
    fn scratch_resets_across_evaluators() {
        let model = RvModel::date05();
        let a = SigmaEvaluator::new(&model, entries());
        let mut shuffled = entries();
        shuffled.reverse();
        let b = SigmaEvaluator::new(&model, shuffled);
        let mut scratch = SigmaScratch::new();
        let seq = [0u32, 1, 2];
        let (sa, _) = a.sigma_seq(&seq, &mut scratch);
        let (sb, _) = b.sigma_seq(&seq, &mut scratch);
        // Entry 0 differs between the catalogues, so the results must too —
        // a stale cache would return `sa` again.
        assert!((sa.value() - sb.value()).abs() > 1.0);
    }

    #[test]
    fn scratch_grows_when_rebound_to_more_terms() {
        // Regression: a scratch sized by a short-series evaluator on a long
        // sequence must grow its weight buffer when reused with a
        // longer-series evaluator on a shorter sequence.
        let few_terms = SigmaEvaluator::new(&RvModel::new(0.273, 2).unwrap(), entries());
        let many_terms = SigmaEvaluator::new(&RvModel::new(0.273, 10).unwrap(), entries());
        let mut scratch = SigmaScratch::new();
        let long_seq: Vec<u32> = (0..12).map(|i| i % 5).collect();
        few_terms.sigma_seq(&long_seq, &mut scratch);
        let short_seq = [0u32, 1, 2];
        let (sigma, _) = many_terms.sigma_seq(&short_seq, &mut scratch);
        let model = RvModel::new(0.273, 10).unwrap();
        let (naive, _) = naive(&model, &short_seq);
        assert_close(sigma.value(), naive);
    }

    #[test]
    fn prefix_sigma_matches_suffix_engine() {
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let mut pfx = PrefixSigma::new();
        for seq in [
            vec![0u32],
            vec![3, 2, 1, 0],
            vec![0, 1, 2, 3, 4],
            vec![4, 4, 4],
            vec![2, 0, 3, 1, 4, 0, 2],
        ] {
            pfx.reset();
            for &e in &seq {
                pfx.push(&eval, e);
            }
            let (sigma, mk) = pfx.sigma();
            let (es, emk) = eval.sigma_seq_once(&seq);
            assert_close(sigma.value(), es.value());
            assert!((mk.value() - emk.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_sigma_push_pop_walks_a_dfs() {
        // Simulate an assignment DFS: extend, evaluate, retract, branch —
        // every complete prefix must match a from-scratch evaluation.
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let mut pfx = PrefixSigma::new();
        let mut seq: Vec<u32> = Vec::new();
        fn walk(eval: &SigmaEvaluator, pfx: &mut PrefixSigma, seq: &mut Vec<u32>, depth: usize) {
            if depth == 3 {
                let (sigma, mk) = pfx.sigma();
                let (es, emk) = eval.sigma_seq_once(seq);
                assert!(
                    (sigma.value() - es.value()).abs() <= 1e-9 * es.value().max(1.0),
                    "prefix {sigma} vs engine {es} on {seq:?}"
                );
                assert!((mk.value() - emk.value()).abs() < 1e-12);
                return;
            }
            for e in 0..5u32 {
                pfx.push(eval, e);
                seq.push(e);
                walk(eval, pfx, seq, depth + 1);
                seq.pop();
                pfx.pop();
            }
        }
        walk(&eval, &mut pfx, &mut seq, 0);
        assert_eq!(pfx.depth(), 0);
    }

    #[test]
    fn prefix_sigma_resets_across_evaluators() {
        let model = RvModel::date05();
        let a = SigmaEvaluator::new(&model, entries());
        let mut shuffled = entries();
        shuffled.reverse();
        let b = SigmaEvaluator::new(&model, shuffled);
        let mut pfx = PrefixSigma::new();
        pfx.push(&a, 0);
        // Rebinding to another evaluator drops the stale prefix.
        pfx.push(&b, 0);
        assert_eq!(pfx.depth(), 1);
        let (sigma, _) = pfx.sigma();
        let (sb, _) = b.sigma_seq_once(&[0]);
        assert_close(sigma.value(), sb.value());
    }

    #[test]
    fn empty_prefix_is_zero() {
        let pfx = PrefixSigma::new();
        let (sigma, mk) = pfx.sigma();
        assert_eq!(sigma.value(), 0.0);
        assert_eq!(mk.value(), 0.0);
    }

    #[test]
    fn empty_sequence_is_zero() {
        let model = RvModel::date05();
        let eval = SigmaEvaluator::new(&model, entries());
        let (sigma, mk) = eval.sigma_seq_once(&[]);
        assert_eq!(sigma.value(), 0.0);
        assert_eq!(mk.value(), 0.0);
    }

    #[test]
    fn agrees_with_apparent_charge_trait_path() {
        let model = RvModel::new(0.41, 14).unwrap();
        let eval = SigmaEvaluator::new(&model, entries());
        let seq = [2u32, 0, 3];
        let (sigma, _) = eval.sigma_seq_once(&seq);
        let ents = entries();
        let p = LoadProfile::from_steps(seq.iter().map(|&e| ents[e as usize])).unwrap();
        let trait_sigma = model.apparent_charge(&p, p.end()).value();
        assert_close(sigma.value(), trait_sigma);
    }
}
