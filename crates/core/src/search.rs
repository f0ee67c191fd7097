//! The windowed design-point search (Figures 1 and 2 of the paper).
//!
//! Terminology (all mirrored from the paper, indices 0-based here):
//!
//! * a **window** `[ws ..= m−1]` restricts which design-point columns may be
//!   assigned; `ws = 0` is the full matrix;
//! * while `ChooseDesignPoints` walks the sequence from the last position to
//!   the first, each task is **free** (still at the initial column `m−1`),
//!   **tagged** (its candidate column is being evaluated) or **fixed**;
//! * the **energy vector** `E` lists tasks by ascending average design-point
//!   energy; `CalculateDPF` repairs deadline violations by promoting the
//!   first free task in `E` one column at a time;
//! * the **suitability** of a candidate column is
//!   `B = SR + CR + ENR + CIF + DPF` (smaller is better), with `DPF = ∞`
//!   acting as the deadline-feasibility veto.

use crate::config::{FactorMask, SchedulerConfig};
use crate::error::SchedulerError;
use batsched_battery::eval::{SigmaEvaluator, SigmaScratch};
use batsched_battery::rv::RvModel;
use batsched_battery::units::{Energy, MilliAmpMinutes, Minutes};
use batsched_taskgraph::analysis::GraphStats;
use batsched_taskgraph::{PointId, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

/// Slop for floating-point deadline comparisons (durations are 0.1-minute
/// quantities; sums accumulate ~1e-13 of error).
pub(crate) const TIME_EPS: f64 = 1e-9;

/// Immutable context shared by every step of one scheduling run.
pub(crate) struct SearchContext<'g> {
    pub g: &'g TaskGraph,
    pub stats: GraphStats,
    pub mask: FactorMask,
    /// Tasks sorted by ascending average design-point energy — the paper's
    /// energy vector `E`.
    pub energy_order: Vec<TaskId>,
    pub deadline: f64,
    pub m: usize,
    /// Cached `D[task][column]` in minutes, row-major with stride `m`.
    pub dur: Vec<f64>,
    /// Cached `I[task][column]` in mA, row-major with stride `m`.
    pub cur: Vec<f64>,
    /// Cached per-point energy under `metric`, row-major with stride `m`.
    pub energy: Vec<f64>,
    /// Cached current ratio `CR` of every `(task, column)`, row-major with
    /// stride `m` — the same expression the reference evaluates per
    /// candidate, so the same bits.
    pub cr: Vec<f64>,
    /// Per-task in-run cumulative deltas, row-major with stride `m`:
    /// `cum_te[t·m + s]` is the makespan delta after the task's first `s`
    /// promotions from column `m−1` (a sequential chain), and `cum_e` the
    /// energy counterpart. The chain only depends on the task's columns,
    /// so window `ws` uses its prefix `s ≤ m−1−ws`.
    pub cum_te: Vec<f64>,
    pub cum_e: Vec<f64>,
    /// σ-evaluation engine over the `(task, column)` entry catalogue,
    /// entry id = `task * m + column`. Built from the run's battery model.
    pub eval: SigmaEvaluator,
}

impl<'g> SearchContext<'g> {
    pub fn new(
        g: &'g TaskGraph,
        config: &SchedulerConfig,
        deadline: Minutes,
        model: RvModel,
    ) -> Self {
        let stats = GraphStats::compute(g, config.metric);
        let m = g.point_count();
        let n = g.task_count();
        let mut dur = Vec::with_capacity(n * m);
        let mut cur = Vec::with_capacity(n * m);
        let mut energy: Vec<f64> = Vec::with_capacity(n * m);
        for t in g.task_ids() {
            let pts = &g.task(t).points;
            dur.extend(pts.iter().map(|p| p.duration.value()));
            cur.extend(pts.iter().map(|p| p.current.value()));
            energy.extend(pts.iter().map(|p| p.energy(config.metric).value()));
        }
        let mut energy_order: Vec<TaskId> = g.task_ids().collect();
        let avg: Vec<f64> = (0..n)
            .map(|t| energy[t * m..(t + 1) * m].iter().sum::<f64>() / m as f64)
            .collect();
        energy_order.sort_by(|a, b| {
            batsched_battery::units::total_cmp(avg[a.index()], avg[b.index()])
                .then(a.index().cmp(&b.index()))
        });
        let cr = cur
            .iter()
            .map(|&i| stats.current_ratio(batsched_battery::units::MilliAmps::new(i)))
            .collect();
        let mut cum_te = vec![0.0; n * m];
        let mut cum_e = vec![0.0; n * m];
        for t in 0..n {
            let row = t * m;
            for s in 0..m - 1 {
                let c = row + m - 1 - s;
                cum_te[row + s + 1] = cum_te[row + s] + (dur[c - 1] - dur[c]);
                cum_e[row + s + 1] = cum_e[row + s] + (energy[c - 1] - energy[c]);
            }
        }
        let eval = crate::schedule::graph_evaluator(g, &model);
        Self {
            g,
            stats,
            mask: config.factor_mask,
            energy_order,
            deadline: deadline.value(),
            m,
            dur,
            cur,
            energy,
            cr,
            cum_te,
            cum_e,
            eval,
        }
    }

    /// Catalogue entry id of `(task, column)` in [`Self::eval`].
    #[inline]
    pub fn entry(&self, t: TaskId, col: usize) -> u32 {
        crate::schedule::entry_id(t, self.m, PointId(col))
    }

    /// σ and makespan of running `seq` with the task-indexed `assignment`,
    /// through the evaluation engine.
    pub fn cost_of(
        &self,
        seq: &[TaskId],
        assignment: &[PointId],
        scratch: &mut EvalBuffers,
    ) -> (MilliAmpMinutes, Minutes) {
        crate::schedule::eval_assignment_cost(
            &self.eval,
            self.m,
            seq,
            assignment,
            &mut scratch.entries,
            &mut scratch.sigma,
        )
    }

    #[inline]
    fn d(&self, t: TaskId, col: usize) -> f64 {
        self.dur[t.index() * self.m + col]
    }

    #[inline]
    fn i(&self, t: TaskId, col: usize) -> f64 {
        self.cur[t.index() * self.m + col]
    }

    #[inline]
    fn e(&self, t: TaskId, col: usize) -> f64 {
        self.energy[t.index() * self.m + col]
    }

    /// `CT(k)`: makespan if every task runs in column `k` (0-based).
    pub fn column_time(&self, col: usize) -> f64 {
        (0..self.dur.len() / self.m)
            .map(|t| self.dur[t * self.m + col])
            .sum()
    }
}

/// The five suitability terms for one candidate design point, plus the
/// masked total. Exposed publicly so the Figure 4 reproduction and
/// downstream debugging tools can show the same numbers the paper tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FactorBreakdown {
    /// Slack ratio `(d − t)/d` over fixed+tagged execution time.
    pub sr: f64,
    /// Current ratio `(I − I_min)/(I_max − I_min)`.
    pub cr: f64,
    /// Energy ratio of the repaired assignment.
    pub enr: f64,
    /// Current-increase fraction of the repaired assignment.
    pub cif: f64,
    /// Design-point fraction (∞ when the deadline cannot be repaired).
    pub dpf: f64,
}

impl FactorBreakdown {
    /// The suitability `B` under `mask` — disabled factors contribute zero,
    /// except that an infinite DPF (deadline veto) always propagates.
    pub fn total(&self, mask: FactorMask) -> f64 {
        if self.dpf.is_infinite() {
            return f64::INFINITY;
        }
        let mut b = 0.0;
        if mask.sr {
            b += self.sr;
        }
        if mask.cr {
            b += self.cr;
        }
        if mask.enr {
            b += self.enr;
        }
        if mask.cif {
            b += self.cif;
        }
        if mask.dpf {
            b += self.dpf;
        }
        b
    }
}

/// `CalculateFactors` (Fig. 2): CIF and ENR of a complete positional
/// assignment `stemp` for sequence `seq`.
pub(crate) fn calculate_factors(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    stemp: &[usize],
) -> (f64, f64) {
    let n = seq.len();
    let mut rising = 0usize;
    let mut energy = 0.0;
    let mut prev_i = f64::NAN;
    for (pos, &t) in seq.iter().enumerate() {
        let col = stemp[pos];
        let i = ctx.i(t, col);
        if pos > 0 && prev_i < i {
            rising += 1;
        }
        prev_i = i;
        energy += ctx.e(t, col);
    }
    let cif = if n > 1 {
        rising as f64 / (n - 1) as f64
    } else {
        0.0
    };
    let enr = ctx.stats.energy_ratio(Energy::new(energy));
    (cif, enr)
}

/// The per-row base sums of `CalculateDPF`: makespan and energy of every
/// position *except* the tagged one. One definition of the accumulation
/// order, shared by the sweep kernel and the retained naive reference, so
/// the bit-identity equivalence story is by construction:
///
/// * [`RowBases::fresh`] is the position-order summation pass that starts
///   every sweep (and the diagnostic single-state entry point);
/// * [`RowBases::carry_down`] is the O(1) delta that advances a sweep from
///   row `i` to row `i − 1` — the kernel's carried chain and the reference
///   sweep call the *same* method, so their floating-point op sequences are
///   identical and any divergence is a bookkeeping bug, never float noise.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowBases {
    /// Σ durations of all positions except the tagged one.
    pub rest_te: f64,
    /// Σ energies of all positions except the tagged one.
    pub rest_energy: f64,
}

impl RowBases {
    /// Fresh position-order summation skipping position `i` — the one
    /// accumulation order every cold start uses.
    pub(crate) fn fresh(
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        assign: &[usize],
        i: usize,
    ) -> Self {
        let mut rest_te = 0.0;
        let mut rest_energy = 0.0;
        for (pos, &t) in seq.iter().enumerate() {
            if pos != i {
                rest_te += ctx.d(t, assign[pos]);
                rest_energy += ctx.e(t, assign[pos]);
            }
        }
        Self {
            rest_te,
            rest_energy,
        }
    }

    /// Advances the bases from row `i` to row `i − 1` of a sweep: position
    /// `i` (just committed to column `col`) enters the rest set, position
    /// `i − 1` (currently at column `col_im1`, about to be tagged) leaves.
    pub(crate) fn carry_down(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        i: usize,
        col: usize,
        col_im1: usize,
    ) {
        self.rest_te += ctx.d(seq[i], col);
        self.rest_te -= ctx.d(seq[i - 1], col_im1);
        self.rest_energy += ctx.e(seq[i], col);
        self.rest_energy -= ctx.e(seq[i - 1], col_im1);
    }
}

/// One whole repair run of a carried sweep's persistent journal: the
/// consumed task, the currents of the task's left/right sequence
/// neighbours at the run's state (NaN = no pair, or a pair adjacent to the
/// tagged position, handled separately: every comparison with NaN is
/// false, so such a pair contributes nothing), the run's rising-pair delta
/// over those pairs, and its full-run makespan and energy deltas
/// (`cum_te`/`cum_e` at `run_len`). Records are immutable once discovered
/// except for the tagged-adjacency patch.
#[derive(Debug, Clone, Copy)]
struct RunRec {
    task: u32,
    d_rising: i32,
    left_i: f64,
    right_i: f64,
    te: f64,
    e: f64,
}

/// Reusable state of the `CalculateDPF` sweep kernel.
///
/// One row evaluates the candidate columns of one tagged position. The
/// paper's repair loop promotes the first free task in the energy vector
/// one column at a time until the deadline holds — and that promotion
/// sequence is *independent of the candidate column*: the candidate only
/// decides how deep into the sequence the repair must go. The kernel
/// therefore generates the sequence once, lazily, into a **journal** shared
/// by all candidates (promotions are resumed, never recomputed), and each
/// candidate searches its repair depth (promotion steps never lengthen the
/// makespan, so the journalled makespans are nonincreasing).
///
/// A `ChooseDesignPoints` sweep carries the base sums, rising pairs and
/// fixed flags from row to row in O(1) ([`DpfScratch::begin_row_carried`])
/// and keeps the journal across rows ([`DpfScratch::advance_row`]) — see
/// [`RowBases`] for how the carried chain stays bit-identical to the
/// retained reference.
///
/// Cost per row: O(1) preparation, one in-place re-fold of the run chain
/// behind the newly tagged task's run, plus O(1) amortised per candidate
/// (a galloping stop-state cursor) and the repair runs no earlier row
/// discovered — no clones, no full scans, zero allocations after warm-up.
/// A row stops at its first column the exhausted journal cannot make
/// feasible: durations ascend with the column, so every later column is
/// infeasible too. The retained naive reference
/// ([`calculate_dpf_reference`]) shares the same floating-point
/// accumulation and is bit-identical; the equivalence proptests in
/// `crates/core/tests` hold the two together.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpfScratch {
    /// Task-indexed "fixed in E" flags, owned across the sweep's rows: the
    /// pinned last task, every tagged or committed task, and every task a
    /// repair run has promoted to the window floor.
    etemp: Vec<bool>,
    /// Cursor into `ctx.energy_order`: every earlier task is fixed. Tasks
    /// never re-enter the free set, so the cursor is monotone across a
    /// whole window.
    cursor: usize,
    /// No free task remains; the journal cannot be extended.
    exhausted: bool,
    /// Row constants (set by `begin_row_carried`).
    i: usize,
    ws: usize,
    rest_te: f64,
    rest_energy: f64,
    /// Rising pairs excluding the two pairs adjacent to the tagged position,
    /// before any repair.
    rising0: i32,
    /// Journal position of the run of the tagged task's left neighbour
    /// (`None` while undiscovered, and at the first position); kept
    /// current by [`Self::extend_chain`].
    left_run: Option<usize>,
    /// Current of the tagged position's right neighbour at its committed
    /// column.
    right_i: f64,
    /// Stop-state cursor: the run boundary the previous feasible candidate
    /// stopped at. Candidates of a row ascend, so their stop boundaries do
    /// too; the next search gallops from here (in either direction, since
    /// the hint also carries across rows).
    rb_hint: usize,

    // --- run-level journal ----------------------------------------------
    //
    // In a `ChooseDesignPoints` sweep every free position sits at column
    // m−1, so the repair journal has *run structure*: the first free task
    // in `E` is promoted column by column until it fixes at the window
    // floor, then the next task starts. The sweep journal therefore
    // records whole runs — O(1) per run instead of O(m) per step — with
    // the per-step state recovered from the per-solve cumulative tables
    // (`SearchContext::cum_te`/`cum_e`) and the run-boundary chains below.
    // A repair state is `(r, s)`: `r` completed runs, the current task `s`
    // steps into its run (column `m−1−s`); its makespan is
    // `base + (r_sum[r] + cum_te[task][s])` — two rounded additions,
    // mirrored verbatim by the retained reference, and monotone
    // nonincreasing across the whole (r, s) order because the boundary
    // value `r_sum[r+1]` is *defined* as `r_sum[r] + cum_te[task][full]`
    // (the same bits the in-run chain ends on). Candidates search their
    // stop state instead of replaying promotions.
    /// Steps per full run in the current sweep window: `m − 1 − ws`.
    run_len: usize,
    /// The repair runs of the current row, in run (= discovery = energy)
    /// order. The journal is *persistent across the sweep's rows*:
    /// advancing from row `i` to `i−1` removes exactly one task (the newly
    /// tagged `seq[i−1]`) from the free set — its record is removed and the
    /// boundary chains below are re-folded in place behind it; every other
    /// record (with its neighbour snapshots, rising-pair delta and full-run
    /// deltas, computed once at discovery) survives verbatim
    /// ([`Self::advance_row`]). A task never re-enters the free set
    /// (removed tasks become tagged, then committed), so the discovery
    /// cursor is monotone across the whole window.
    runs: Vec<RunRec>,
    /// Run-boundary makespan chain, indexed by completed-run count
    /// `0..=runs.len()`: `r_sum[k+1] = r_sum[k] + runs[k].te`, the same
    /// sequential sum the reference repair loop accumulates — kept as its
    /// own array so candidates can search it directly.
    r_sum: Vec<f64>,
    /// Run-boundary energy chain and rising-pair count at the full-run
    /// state relative to the row's journalled base (excluding
    /// tagged-adjacent pairs; index 0 holds zeros), indexed like `r_sum`.
    re_h: Vec<(f64, i32)>,
    /// Task-indexed position in `runs`, validated against `runs` before
    /// use (stale entries simply fail the cross-check; never reset
    /// wholesale) and refreshed by every re-fold.
    run_of: Vec<u32>,
    /// Profiling: repair promotions recorded (`run_len` per discovered
    /// run). Cumulative; read through [`EvalBuffers::prof`].
    prof_promotions: u64,
    /// Profiling: runs re-folded in place behind a removed run.
    prof_rollbacks: u64,
    /// Profiling: candidate columns scored.
    prof_candidates: u64,
    /// Profiling: `r_sum` entries the stop-state searches compared.
    prof_stop_probes: u64,
}

impl DpfScratch {
    /// The position of task `t`'s run in the journal, if the task has
    /// been discovered (and not tagged since).
    fn run_pos_of(&self, t: TaskId) -> Option<usize> {
        let r = *self.run_of.get(t.index())? as usize;
        (r < self.runs.len() && self.runs[r].task == t.index() as u32).then_some(r)
    }

    /// Prepares a carried sweep: fixed flags owned by the scratch (only the
    /// pinned last task set), an empty persistent run journal, and the
    /// window's run length. The per-row state then advances through
    /// [`Self::begin_row_carried`] / [`Self::advance_row`].
    fn begin_sweep(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], ws: usize) {
        self.ws = ws;
        self.etemp.clear();
        self.etemp.resize(ctx.g.task_count(), false);
        self.etemp[seq[seq.len() - 1].index()] = true; // the pinned last task
        self.cursor = 0;
        self.rb_hint = 0;
        self.runs.clear();
        self.r_sum.clear();
        self.r_sum.push(0.0);
        self.re_h.clear();
        self.re_h.push((0.0, 0));
        self.run_of.resize(ctx.g.task_count(), u32::MAX);
        self.run_len = ctx.m - 1 - ws;
    }

    /// O(1) row preparation from sweep-carried state: base sums, rising
    /// pairs and the right neighbour's current come from the caller's
    /// carried chain, the fixed flags and the journal are already in place
    /// from the previous row's [`Self::advance_row`].
    fn begin_row_carried(
        &mut self,
        seq: &[TaskId],
        i: usize,
        bases: RowBases,
        rising0: i32,
        right_i: f64,
    ) {
        self.i = i;
        self.etemp[seq[i].index()] = true; // the tagged task is fixed in E
        self.rest_te = bases.rest_te;
        self.rest_energy = bases.rest_energy;
        self.rising0 = rising0;
        self.right_i = right_i;
        self.left_run = i.checked_sub(1).and_then(|l| self.run_pos_of(seq[l]));
        self.exhausted = false;
    }

    /// Advances the persistent journal from row `i` to row `i−1`: the
    /// newly tagged `seq[i−1]` leaves the free set, so its run is removed
    /// and the boundary chains are re-folded in place from its position —
    /// the same sequential sums over the same surviving runs, so the bits
    /// match the reference. The one run whose rising-pair delta referenced
    /// the pair `(i−2, i−1)` — tagged-adjacent from now on — is patched
    /// (using its snapshot of `seq[i−1]`'s current at the time), and the
    /// integer `h` entries after it shift by the same amount.
    fn advance_row(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], i: usize) {
        if let Some(p) = self.run_pos_of(seq[i - 1]) {
            self.runs.remove(p);
            self.r_sum.pop();
            self.re_h.pop();
            self.prof_rollbacks += (self.runs.len() - p) as u64;
            // The running sums live in registers; each boundary entry is
            // still `previous entry + run delta`, in run order.
            let mut r = self.r_sum[p];
            let (mut re, mut h) = self.re_h[p];
            let chains = self.r_sum[p + 1..].iter_mut().zip(&mut self.re_h[p + 1..]);
            for (k, (rec, (r_out, reh_out))) in self.runs[p..].iter().zip(chains).enumerate() {
                self.run_of[rec.task as usize] = (p + k) as u32;
                r += rec.te;
                re += rec.e;
                h += rec.d_rising;
                *r_out = r;
                *reh_out = (re, h);
            }
        }
        if i >= 2 {
            if let Some(p) = self.run_pos_of(seq[i - 2]) {
                let rec = &mut self.runs[p];
                // `right_i` is the current seq[i−1] held at this run's
                // state (at m−1, or at the floor if it was consumed first).
                let ri = rec.right_i;
                if !ri.is_nan() {
                    let q = seq[i - 2];
                    let delta = (ctx.i(q, self.ws) < ri) as i32 - (ctx.i(q, ctx.m - 1) < ri) as i32;
                    rec.d_rising -= delta;
                    rec.right_i = f64::NAN;
                    for (_, h) in &mut self.re_h[p + 1..] {
                        *h -= delta;
                    }
                }
            }
        }
    }

    /// Appends the next repair run of the row: the first free task in `E`
    /// promoted from column `m−1` down to the window floor (discovered
    /// once per window: its neighbour snapshots, rising-pair delta and
    /// full-run deltas are recorded for every later row to reuse).
    /// Returns `false` when no free task remains (or the window has a
    /// single column, so no promotion is possible).
    fn extend_chain(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], pos_of: &[usize]) -> bool {
        if self.exhausted {
            return false;
        }
        if self.run_len == 0 {
            self.exhausted = true;
            return false;
        }
        // The cursor is monotone for the whole window (tasks never
        // re-enter the free set), so every task is snapshotted once.
        while self.cursor < ctx.energy_order.len()
            && self.etemp[ctx.energy_order[self.cursor].index()]
        {
            self.cursor += 1;
        }
        let Some(&q) = ctx.energy_order.get(self.cursor) else {
            self.exhausted = true;
            return false;
        };
        self.cursor += 1;
        let p = pos_of[q.index()];
        debug_assert!(p < self.i, "free tasks precede the tagged position");
        let ws = self.ws;
        let m1 = ctx.m - 1;
        let i_old = ctx.i(q, m1);
        let i_new = ctx.i(q, ws);
        let r = self.runs.len();
        // Snapshot the neighbour currents at this run's state (free
        // neighbours sit at the floor once consumed, at m−1 otherwise;
        // pairs touching the tagged position are excluded — they are
        // re-derived per repair state) and the full move's rising-pair
        // delta over those pairs.
        let at_state = |t: TaskId| ctx.i(t, if self.etemp[t.index()] { ws } else { m1 });
        let left_i = if p > 0 {
            at_state(seq[p - 1])
        } else {
            f64::NAN
        };
        let right_i = if p + 1 != self.i {
            debug_assert!(p + 1 < self.i, "free positions precede the tagged one");
            at_state(seq[p + 1])
        } else {
            self.left_run = Some(r); // q is the tagged task's left neighbour
            f64::NAN
        };
        let d_rising = (left_i < i_new) as i32 - (left_i < i_old) as i32 + (i_new < right_i) as i32
            - (i_old < right_i) as i32;
        let full = q.index() * ctx.m + self.run_len;
        let rec = RunRec {
            task: q.index() as u32,
            d_rising,
            left_i,
            right_i,
            te: ctx.cum_te[full],
            e: ctx.cum_e[full],
        };
        self.etemp[q.index()] = true; // fixed at the window floor, for good
        self.run_of[q.index()] = r as u32;
        self.runs.push(rec);
        self.r_sum.push(self.r_sum[r] + rec.te);
        let (re, h) = self.re_h[r];
        self.re_h.push((re + rec.e, h + rec.d_rising));
        self.prof_promotions += self.run_len as u64;
        true
    }

    /// The stop boundary of a feasible candidate: the first run-boundary
    /// index `k` with `base_te + r_sum[k] <= lim` — exactly
    /// `r_sum.partition_point`, since the predicate is monotone
    /// (`r_sum` is nonincreasing). Gallops from the previous candidate's
    /// boundary (clamped to the journal), so a row's ascending candidates
    /// cost O(1) probes each instead of a fresh O(log depth) search.
    fn stop_boundary(&mut self, base_te: f64, lim: f64) -> usize {
        let len = self.runs.len();
        let r_sum = &self.r_sum[..=len];
        let mut probes = 0u64;
        let mut over = |k: usize| {
            probes += 1;
            base_te + r_sum[k] > lim
        };
        // Bracket the answer in [lo, hi]: every k < lo is over, hi is not
        // (`len` is not: the caller extended the journal until it held).
        let h = self.rb_hint.min(len);
        let (mut lo, mut hi) = (0, h);
        let mut step = 1;
        if over(h) {
            (lo, hi) = (h + 1, len);
            while h + step < hi {
                if !over(h + step) {
                    hi = h + step;
                    break;
                }
                lo = h + step + 1;
                step *= 2;
            }
        } else {
            while step <= h {
                if over(h - step) {
                    lo = h - step + 1;
                    break;
                }
                hi = h - step;
                step *= 2;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if over(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert_eq!(lo, r_sum.partition_point(|&v| base_te + v > lim));
        self.prof_stop_probes += probes;
        self.rb_hint = lo;
        lo
    }

    /// `CalculateDPF` for a feasible candidate column `j` of the current
    /// row, whose journal already holds its stop state: finds the exact
    /// repair state the one-promotion-at-a-time loop stops at (the
    /// galloping boundary cursor, then the stop run's in-run chain) and
    /// scores it in O(1): the DPF occupancy is closed-form (`r` tasks at
    /// the floor, at most one mid-run), the rising count comes from the
    /// `h` chain plus two pair corrections.
    #[inline(always)]
    fn feasible_factors(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        j: usize,
        base_te: f64,
        lim: f64,
    ) -> (f64, f64, f64) {
        let n = seq.len();
        let i = self.i;
        let d = ctx.deadline;
        let m1 = ctx.m - 1;
        let row = seq[i].index() * ctx.m;
        let base_energy = self.rest_energy + ctx.energy[row + j];
        // Stop state (r, s): r completed runs, current task s steps into
        // its run. `r_sum` and each in-run chain are exactly monotone
        // nonincreasing, and a run's final in-run value *is* the next
        // boundary value, so the two-level search lands on the same state
        // the sequential repair loop reaches.
        let rb = self.stop_boundary(base_te, lim);
        let (r, s) = if rb == 0 {
            (0, 0)
        } else {
            let q = self.runs[rb - 1].task as usize * ctx.m;
            let cum = &ctx.cum_te[q..q + self.run_len + 1];
            let rs = self.r_sum[rb - 1];
            let s = cum.partition_point(|&cs| base_te + (rs + cs) > lim);
            debug_assert!(s >= 1, "the boundary before rb did not satisfy");
            if s == self.run_len {
                (rb, 0)
            } else {
                (rb - 1, s)
            }
        };
        // s > 0 exactly when the stop state is mid-run in run r.
        let (re_r, h_r) = self.re_h[r];
        let mut rising = self.rising0 + h_r;
        let c = m1 - s;
        let (te, energy) = if s > 0 {
            let rec = self.runs[r];
            let q = rec.task as usize;
            let qi = q * ctx.m;
            // The mid-run task sits at column c, not the m−1 its chain
            // state assumes: correct its two (non-tagged-adjacent) pairs.
            let i_old = ctx.cur[qi + m1];
            let i_new = ctx.cur[qi + c];
            rising += (rec.left_i < i_new) as i32 - (rec.left_i < i_old) as i32
                + (i_new < rec.right_i) as i32
                - (i_old < rec.right_i) as i32;
            (
                base_te + (self.r_sum[r] + ctx.cum_te[qi + s]),
                base_energy + (re_r + ctx.cum_e[qi + s]),
            )
        } else {
            (base_te + self.r_sum[r], base_energy + re_r)
        };
        let i_tag = ctx.cur[row + j];
        if i > 0 {
            // The tagged-left neighbour's column at the stop state:
            // "consumed before run r" is one position compare.
            let col_im1 = match self.left_run {
                Some(p) if s > 0 && p == r => c,
                Some(p) if p < r => self.ws,
                _ => m1,
            };
            rising += (ctx.i(seq[i - 1], col_im1) < i_tag) as i32;
        }
        rising += (i_tag < self.right_i) as i32;
        let cif = if n > 1 {
            rising as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let enr = ctx.stats.energy_ratio(Energy::new(energy));
        let dpf = if i == 0 {
            (d - te) / d
        } else {
            let width_minus1 = ctx.m - 1 - self.ws;
            if width_minus1 == 0 {
                0.0
            } else {
                let factor = 1.0 / width_minus1 as f64;
                // Window-relative weights, as in the reference loop: the
                // window floor `ws` weighs most, decaying linearly to zero
                // at the leanest column `m−1` — eq. 2's (m−k)·f for the
                // full window, and for narrow windows the only reading
                // consistent with the published Table 3 assignments.
                // Closed-form occupancy: `r` repaired tasks at the floor,
                // at most one mid-run at column c, everything else at the
                // weightless column m−1. Terms added in ascending column
                // order with the reference loop's exact expressions (its
                // zero-occupancy terms add +0.0, which preserves bits).
                let mut dpf = 0.0;
                if r > 0 {
                    dpf += width_minus1 as f64 * factor * r as f64 / i as f64;
                }
                if s > 0 {
                    let coeff = (width_minus1 - (c - self.ws)) as f64;
                    dpf += coeff * factor * 1.0 / i as f64;
                }
                dpf
            }
        };
        (enr, cif, dpf)
    }

    /// Scores the candidate columns of the current row and returns the
    /// chosen one with its suitability `B`. Candidates ascend, so the
    /// repair journal extends monotonically; `<=` keeps the leanest
    /// (largest) column on ties, matching the paper's descending scan.
    ///
    /// The row stops at its first column the exhausted journal cannot make
    /// feasible: `TaskGraph` sorts each task's points by duration, so the
    /// row's base makespan never decreases with the column, and every later
    /// column is infeasible too. Their `B` is ∞ under every mask (the DPF
    /// veto), which the `<=` scan never prefers to a finite best; a row
    /// whose first column is infeasible returns that ∞.
    ///
    /// Kept out of line, so the sweep's hot loop is one symbol in a
    /// profile.
    #[inline(never)]
    fn score_row(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        pos_of: &[usize],
        tsum: f64,
    ) -> (usize, f64) {
        let d = ctx.deadline;
        let lim = d + TIME_EPS;
        let row = seq[self.i].index() * ctx.m;
        let mut best: Option<(usize, f64)> = None;
        for j in self.ws..ctx.m {
            self.prof_candidates += 1;
            let dur = ctx.dur[row + j];
            let base_te = self.rest_te + dur;
            let mut feasible = true;
            while base_te + self.r_sum[self.runs.len()] > lim {
                if !self.extend_chain(ctx, seq, pos_of) {
                    feasible = false;
                    break;
                }
            }
            let b = if feasible {
                let (enr, cif, dpf) = self.feasible_factors(ctx, seq, j, base_te, lim);
                FactorBreakdown {
                    sr: (d - (tsum + dur)) / d,
                    cr: ctx.cr[row + j],
                    enr,
                    cif,
                    dpf,
                }
                .total(ctx.mask)
            } else {
                f64::INFINITY
            };
            if best.is_none_or(|(_, bb)| b <= bb) {
                best = Some((j, b));
            }
            if !feasible {
                break;
            }
        }
        best.expect("window contains at least one column")
    }
}

/// Working buffers of one `ChooseDesignPoints` sweep, owned by
/// [`EvalBuffers`] so the whole window search is allocation-free after
/// warm-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChooseBuffers {
    /// Positional assignment being built (the result lives here).
    pub(crate) assign: Vec<usize>,
    /// Task-indexed position lookup for the current sequence.
    pos_of: Vec<usize>,
}

/// `ChooseDesignPoints` (Fig. 1): positional assignment for `seq` within the
/// window `[ws ..= m−1]`, left in `buffers.choose.assign`.
///
/// The sweep carries its row state incrementally from row to row (see
/// [`DpfScratch`] and [`RowBases`]) and scores each row's candidate
/// columns up to the first infeasible one; results are bit-identical to
/// the retained naive reference.
///
/// # Errors
///
/// [`SchedulerError::WindowSearchFailed`] if some position has no finite-`B`
/// column — unreachable when `CT(ws) <= d` (invariant argued in the module
/// tests), kept as a typed error for defence in depth.
pub(crate) fn choose_design_points_into(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    ws: usize,
    buffers: &mut EvalBuffers,
) -> Result<(), SchedulerError> {
    let n = seq.len();
    let m = ctx.m;
    let tasks = ctx.g.task_count();
    let d = ctx.deadline;
    let EvalBuffers {
        dpf: scratch,
        choose: ChooseBuffers { assign, pos_of },
        sweep_prof,
        ..
    } = buffers;
    assign.clear();
    assign.resize(n, m - 1);
    pos_of.clear();
    pos_of.resize(tasks, usize::MAX);
    for (pos, &t) in seq.iter().enumerate() {
        pos_of[t.index()] = pos;
    }

    // The paper fixes the last task to the lowest-power design point
    // outright. Taken literally that makes deadlines between CT(ws) and
    // CT(ws) + D(n, m−1) − D(n, ws) spuriously infeasible: the window
    // passed its CT(ws) ≤ d check, yet no choice for the other tasks meets
    // d. So we pin the last task to the *leanest column that keeps the
    // all-`ws` fallback feasible* — exactly the paper's rule whenever the
    // deadline has that much slack.
    let others_at_ws: f64 = seq[..n - 1].iter().map(|&t| ctx.d(t, ws)).sum();
    let mut last_col = m - 1;
    while last_col > ws && others_at_ws + ctx.d(seq[n - 1], last_col) > d + TIME_EPS {
        last_col -= 1;
    }
    assign[n - 1] = last_col;
    let mut tsum = ctx.d(seq[n - 1], last_col);

    if n < 2 {
        return Ok(());
    }

    let first = n - 2;
    scratch.begin_sweep(ctx, seq, ws);
    let mut bases = RowBases::fresh(ctx, seq, assign, first);
    let mut rising0 = 0i32;
    for pos in 1..n {
        if pos != first && pos != first + 1 {
            rising0 += (ctx.i(seq[pos - 1], assign[pos - 1]) < ctx.i(seq[pos], assign[pos])) as i32;
        }
    }

    for i in (0..=first).rev() {
        let right_i = ctx.i(seq[i + 1], assign[i + 1]);
        scratch.begin_row_carried(seq, i, bases, rising0, right_i);
        sweep_prof.rows_full += 1;
        let (j, b) = scratch.score_row(ctx, seq, pos_of, tsum);
        if !b.is_finite() {
            return Err(SchedulerError::WindowSearchFailed { window_start: ws });
        }
        assign[i] = j;
        tsum += ctx.d(seq[i], j);
        if i > 0 {
            // Advance the carried chain to row i−1: the committed pair
            // (i, i+1) enters the journalled rising count, the free pair
            // (i−2, i−1) leaves (it becomes tagged-adjacent), the new
            // tagged task's run leaves the journal, and the base sums move
            // through the shared RowBases chain.
            rising0 += (ctx.i(seq[i], assign[i]) < ctx.i(seq[i + 1], assign[i + 1])) as i32;
            if i >= 2 {
                rising0 -=
                    (ctx.i(seq[i - 2], assign[i - 2]) < ctx.i(seq[i - 1], assign[i - 1])) as i32;
            }
            bases.carry_down(ctx, seq, i, j, assign[i - 1]);
            scratch.advance_row(ctx, seq, i);
        }
    }
    Ok(())
}

/// Allocating convenience over [`choose_design_points_into`] for tests and
/// diagnostics.
#[cfg(test)]
pub(crate) fn choose_design_points(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    ws: usize,
) -> Result<Vec<usize>, SchedulerError> {
    let mut buffers = EvalBuffers::new();
    choose_design_points_into(ctx, seq, ws, &mut buffers)?;
    Ok(buffers.choose.assign)
}

/// `CalculateDPF` (Fig. 2), the retained naive form: repairs the tentative
/// assignment until the deadline is met by promoting the first free task in
/// the energy vector one column at a time, then scores the design-point
/// distribution. Clones the state per call and rescans `E` per promotion;
/// it is the equivalence reference for the [`DpfScratch`] sweep kernel.
///
/// * `stemp_in` — positional assignment snapshot: positions `> i` fixed,
///   position `i` tagged at its candidate column, free positions `< i`
///   (at `m−1` in a sweep). The caller's state is untouched.
/// * `fixed_in_e` — task-indexed "fixed in E" flags covering positions `>= i`.
/// * `bases` — the row's [`RowBases`], fresh or carried down a sweep.
///
/// Returns `(enr, cif, dpf)` on the repaired assignment; `dpf` is `∞` when
/// no repair meets the deadline.
///
/// The makespan and energy accumulate in the kernel's run arithmetic — a
/// run-boundary sum plus the current task's in-run cumulative sum,
/// `te = base + (r_sum + cum)` re-evaluated after every single promotion.
/// In a sweep every free task starts at column `m−1`, so the repair loop
/// has run structure (the first free task is promoted until it fixes at
/// the floor, then the next starts) and this arithmetic is exactly the
/// per-step walk of the kernel's binary-searched chains: bit-identical by
/// construction.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateDPF state
fn calculate_dpf_reference(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    pos_of: &[usize],
    stemp_in: &[usize],
    fixed_in_e: &[bool],
    i: usize,
    ws: usize,
    bases: RowBases,
) -> (f64, f64, f64) {
    let m = ctx.m;
    let d = ctx.deadline;
    let mut stemp = stemp_in.to_vec();
    let mut etemp = fixed_in_e.to_vec();
    etemp[seq[i].index()] = true; // the tagged task is fixed in E

    let base_te = bases.rest_te + ctx.d(seq[i], stemp[i]);
    let base_energy = bases.rest_energy + ctx.e(seq[i], stemp[i]);
    let mut r_sum = 0.0; // completed-run boundary chain
    let mut re_sum = 0.0;
    let mut cum = 0.0; // current task's in-run chain
    let mut cum_e = 0.0;
    let mut te = base_te + (r_sum + cum);

    let mut feasible = true;
    while te > d + TIME_EPS {
        // First free task in ascending-energy order.
        let q = ctx.energy_order.iter().copied().find(|t| !etemp[t.index()]);
        let Some(q) = q else {
            feasible = false;
            break;
        };
        let r = pos_of[q.index()];
        let c = stemp[r];
        if c <= ws {
            // Already at the window floor (every free task, on the
            // single-column window ws = m−1): it cannot be promoted.
            etemp[q.index()] = true;
            continue;
        }
        cum += ctx.d(seq[r], c - 1) - ctx.d(seq[r], c);
        cum_e += ctx.e(seq[r], c - 1) - ctx.e(seq[r], c);
        stemp[r] = c - 1;
        if c - 1 == ws {
            // Run complete: fold it into the boundary chain, exactly the
            // bits the kernel's `r_sum[r+1] = r_sum[r] + cum[full]` stores.
            etemp[q.index()] = true;
            r_sum += cum;
            re_sum += cum_e;
            cum = 0.0;
            cum_e = 0.0;
        }
        te = base_te + (r_sum + cum);
    }
    let energy = base_energy + (re_sum + cum_e);

    let (cif, _scan_enr) = calculate_factors(ctx, seq, &stemp);
    let enr = ctx.stats.energy_ratio(Energy::new(energy));
    if !feasible {
        return (enr, cif, f64::INFINITY);
    }
    let dpf = if i == 0 {
        // "If we are considering the last task, set DPF to the slack
        // ratio" — also where the published formula would divide by zero.
        (d - te) / d
    } else {
        let width_minus1 = m - 1 - ws;
        if width_minus1 == 0 {
            0.0
        } else {
            let factor = 1.0 / width_minus1 as f64;
            let mut dpf = 0.0;
            // Window-relative columns: the window's fastest column `ws`
            // carries the largest weight, decaying linearly to zero at the
            // leanest column `m−1`. For the full window (ws = 0) this is
            // exactly eq. 2's (m−k)·f weights and the Figure 4 example; for
            // narrow windows it is the only reading consistent with the
            // published Table 3 assignments.
            for w in 0..width_minus1 {
                let col = ws + w;
                let coeff = (width_minus1 - w) as f64;
                let count = (0..i).filter(|&y| stemp[y] == col).count();
                dpf += coeff * factor * count as f64 / i as f64;
            }
            dpf
        }
    };
    (enr, cif, dpf)
}

/// The retained naive `ChooseDesignPoints` — the pre-incremental sweep
/// (per-candidate clones and scans via [`calculate_dpf_reference`]),
/// kept as the bit-identical equivalence reference and the bench baseline
/// for `cdp_speedup`. The row base sums follow the kernel's carried chain
/// (fresh summation at the first row, then the shared
/// [`RowBases::carry_down`] delta per committed row) so the two sweeps
/// share every floating-point accumulation.
pub(crate) fn choose_design_points_reference(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    ws: usize,
) -> Result<Vec<usize>, SchedulerError> {
    let n = seq.len();
    let m = ctx.m;
    let mut assign = vec![m - 1; n];
    let mut pos_of = vec![usize::MAX; ctx.g.task_count()];
    for (pos, &t) in seq.iter().enumerate() {
        pos_of[t.index()] = pos;
    }
    let mut fixed_in_e = vec![false; ctx.g.task_count()];

    let others_at_ws: f64 = seq[..n - 1].iter().map(|&t| ctx.d(t, ws)).sum();
    let mut last_col = m - 1;
    while last_col > ws && others_at_ws + ctx.d(seq[n - 1], last_col) > ctx.deadline + TIME_EPS {
        last_col -= 1;
    }
    fixed_in_e[seq[n - 1].index()] = true;
    assign[n - 1] = last_col;
    let mut tsum = ctx.d(seq[n - 1], last_col);

    let mut bases = if n >= 2 {
        RowBases::fresh(ctx, seq, &assign, n - 2)
    } else {
        RowBases::default()
    };
    for i in (0..n.saturating_sub(1)).rev() {
        let mut best: Option<(usize, f64)> = None;
        for j in (ws..m).rev() {
            let prev = assign[i];
            assign[i] = j;
            let ttemp = tsum + ctx.d(seq[i], j);
            let sr = (ctx.deadline - ttemp) / ctx.deadline;
            let cr = ctx
                .stats
                .current_ratio(batsched_battery::units::MilliAmps::new(ctx.i(seq[i], j)));
            let (enr, cif, dpf) =
                calculate_dpf_reference(ctx, seq, &pos_of, &assign, &fixed_in_e, i, ws, bases);
            assign[i] = prev;
            let fb = FactorBreakdown {
                sr,
                cr,
                enr,
                cif,
                dpf,
            };
            let b = fb.total(ctx.mask);
            if best.is_none_or(|(_, bb)| b < bb) {
                best = Some((j, b));
            }
        }
        let (j, b) = best.expect("window contains at least one column");
        if !b.is_finite() {
            return Err(SchedulerError::WindowSearchFailed { window_start: ws });
        }
        assign[i] = j;
        fixed_in_e[seq[i].index()] = true;
        tsum += ctx.d(seq[i], j);
        if i > 0 {
            bases.carry_down(ctx, seq, i, j, assign[i - 1]);
        }
    }
    Ok(assign)
}

/// Outcome of one window evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRecord {
    /// 0-based fastest column of the window (`PointId` of the window start);
    /// the paper labels this window `ws+1 : m`.
    pub window_start: PointId,
    /// Battery cost σ of the window's assignment under the run's sequence.
    pub cost: MilliAmpMinutes,
    /// Makespan of that assignment.
    pub makespan: Minutes,
    /// Task-indexed assignment chosen within this window.
    pub assignment: Vec<PointId>,
}

impl WindowRecord {
    /// The paper's "Win k:m" label.
    pub fn label(&self, m: usize) -> String {
        format!("{}:{}", self.window_start.index() + 1, m)
    }
}

/// Reusable per-run evaluation buffers: the entry-id sequence buffer, the
/// σ-engine scratch, and the window-search working state (the DPF sweep
/// kernel's run journal and chains, and the `ChooseDesignPoints`
/// assignment buffers). One allocation set per scheduling run — and zero
/// steady-state allocations when reused across runs via
/// [`SolverWorkspace`](crate::algorithm::SolverWorkspace).
#[derive(Debug, Clone, Default)]
pub struct EvalBuffers {
    pub(crate) entries: Vec<u32>,
    pub(crate) sigma: SigmaScratch,
    pub(crate) dpf: DpfScratch,
    pub(crate) choose: ChooseBuffers,
    /// The window-sweep counters; the journal/σ-cache counters live in
    /// their own scratch structures and are composed by
    /// [`EvalBuffers::prof`].
    pub(crate) sweep_prof: crate::prof::Prof,
}

impl EvalBuffers {
    /// Creates empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the cumulative solver-phase counters accumulated by
    /// every search that ran through these buffers (see
    /// [`crate::prof::Prof`] for what each counter means).
    pub fn prof(&self) -> crate::prof::Prof {
        let (sigma_evals, sigma_reused, sigma_fresh) = self.sigma.cache_stats();
        crate::prof::Prof {
            journal_promotions: self.dpf.prof_promotions,
            journal_rollbacks: self.dpf.prof_rollbacks,
            candidates: self.dpf.prof_candidates,
            stop_probes: self.dpf.prof_stop_probes,
            sigma_evals,
            sigma_reused,
            sigma_fresh,
            ..self.sweep_prof
        }
    }
}

/// Evaluates one window: `ChooseDesignPoints` then the σ of the chosen
/// positional assignment.
fn evaluate_one_window(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    ws: usize,
    scratch: &mut EvalBuffers,
) -> Result<WindowRecord, SchedulerError> {
    scratch.sweep_prof.windows += 1;
    choose_design_points_into(ctx, seq, ws, scratch)?;
    let (cost, makespan) = positional_cost_split(
        ctx,
        seq,
        &scratch.choose.assign,
        &mut scratch.entries,
        &mut scratch.sigma,
    );
    let mut assignment = vec![PointId(0); ctx.g.task_count()];
    for (pos, &t) in seq.iter().enumerate() {
        assignment[t.index()] = PointId(scratch.choose.assign[pos]);
    }
    Ok(WindowRecord {
        window_start: PointId(ws),
        cost,
        makespan,
        assignment,
    })
}

/// `EvaluateWindows` (Fig. 1): finds the feasible starting window, evaluates
/// every window from there down to the full matrix, and returns all records
/// plus the index of the cheapest.
///
/// # Errors
///
/// * [`SchedulerError::DeadlineInfeasible`] when even column 0 misses `d`.
/// * Propagates [`SchedulerError::WindowSearchFailed`] (defensive).
pub(crate) fn evaluate_windows(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    buffers: &mut EvalBuffers,
) -> Result<(Vec<WindowRecord>, usize), SchedulerError> {
    let m = ctx.m;
    let d = ctx.deadline;
    if d < ctx.column_time(0) - TIME_EPS {
        return Err(SchedulerError::DeadlineInfeasible {
            fastest: Minutes::new(ctx.column_time(0)),
            deadline: Minutes::new(d),
        });
    }
    let mut ws_start = m.saturating_sub(2);
    while d < ctx.column_time(ws_start) - TIME_EPS {
        debug_assert!(ws_start > 0, "column 0 checked feasible above");
        ws_start -= 1;
    }

    let mut records = Vec::with_capacity(ws_start + 1);
    for ws in (0..=ws_start).rev() {
        records.push(evaluate_one_window(ctx, seq, ws, buffers)?);
    }

    let mut best: Option<(usize, f64)> = None;
    for (idx, r) in records.iter().enumerate() {
        if best.is_none_or(|(_, c)| r.cost.value() < c) {
            best = Some((idx, r.cost.value()));
        }
    }
    let (best_idx, _) = best.expect("at least one window is evaluated");
    Ok((records, best_idx))
}

/// σ and makespan of a positional assignment, through the evaluation
/// engine (no allocation, no `exp()` calls). Takes the entry buffer and
/// σ scratch as split borrows so callers whose assignment lives in the
/// same [`EvalBuffers`] (the window sweep) can share one buffer set —
/// the single map-to-entries-and-evaluate body for positional columns.
pub(crate) fn positional_cost_split(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    assign_pos: &[usize],
    entries: &mut Vec<u32>,
    sigma: &mut SigmaScratch,
) -> (MilliAmpMinutes, Minutes) {
    entries.clear();
    entries.extend(
        seq.iter()
            .zip(assign_pos)
            .map(|(&t, &col)| ctx.entry(t, col)),
    );
    ctx.eval.sigma_seq(entries, sigma)
}

/// [`positional_cost_split`] over one [`EvalBuffers`].
pub(crate) fn positional_cost(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    assign_pos: &[usize],
    scratch: &mut EvalBuffers,
) -> (MilliAmpMinutes, Minutes) {
    positional_cost_split(
        ctx,
        seq,
        assign_pos,
        &mut scratch.entries,
        &mut scratch.sigma,
    )
}

/// The naive σ of a positional assignment: builds a fresh `LoadProfile`
/// and evaluates [`RvModel::sigma`] directly. Reference implementation the
/// engine is property-tested against; also usable with any
/// [`batsched_battery::model::BatteryModel`].
pub fn positional_cost_naive<M: batsched_battery::model::BatteryModel + ?Sized>(
    g: &TaskGraph,
    model: &M,
    seq: &[TaskId],
    assign_pos: &[usize],
) -> (MilliAmpMinutes, Minutes) {
    let mut p = batsched_battery::profile::LoadProfile::new();
    for (pos, &t) in seq.iter().enumerate() {
        let pt = g.point(t, PointId(assign_pos[pos]));
        p.push(pt.duration, pt.current)
            .expect("validated design points are positive-duration");
    }
    let end = p.end();
    (model.apparent_charge(&p, end), end)
}

/// Diagnostic entry point: runs `EvaluateWindows` for an explicit sequence.
/// Exposed for the reproduction binaries and integration tests — the
/// iterative driver in [`crate::algorithm`] is the normal interface.
#[doc(hidden)]
pub fn diag_evaluate_windows(
    g: &TaskGraph,
    config: &SchedulerConfig,
    deadline: Minutes,
    model: &RvModel,
    seq: &[TaskId],
) -> Result<(Vec<WindowRecord>, usize), SchedulerError> {
    let ctx = SearchContext::new(g, config, deadline, model.clone());
    evaluate_windows(&ctx, seq, &mut EvalBuffers::new())
}

/// Diagnostic entry point: one `CalculateDPF` call on an explicit state,
/// through the retained reference with fresh row base sums.
///
/// `stemp` is the positional assignment snapshot (0-based columns),
/// `fixed_tasks` the task ids already fixed in the energy vector, `i` the
/// tagged position and `ws` the 0-based window start. Returns
/// `(enr, cif, dpf)`. Used by the Figure 4 reproduction binary.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateDPF state
pub fn diag_calculate_dpf(
    g: &TaskGraph,
    config: &SchedulerConfig,
    deadline: Minutes,
    seq: &[TaskId],
    stemp: &[usize],
    fixed_tasks: &[TaskId],
    i: usize,
    ws: usize,
) -> (f64, f64, f64) {
    // The factor computation never evaluates σ, so an unusable battery
    // configuration falls back to the paper's model instead of erroring —
    // this diagnostic predates the evaluation engine and must keep working
    // for model-free factor inspection.
    let model = config.battery_model().unwrap_or_default();
    let ctx = SearchContext::new(g, config, deadline, model);
    let mut pos_of = vec![usize::MAX; g.task_count()];
    for (pos, &t) in seq.iter().enumerate() {
        pos_of[t.index()] = pos;
    }
    let mut fixed = vec![false; g.task_count()];
    for &t in fixed_tasks {
        fixed[t.index()] = true;
    }
    let bases = RowBases::fresh(&ctx, seq, stemp, i);
    calculate_dpf_reference(&ctx, seq, &pos_of, stemp, &fixed, i, ws, bases)
}

/// A prepared window-search context with reusable buffers — the public
/// (doc-hidden) handle the equivalence proptests and `repro_bench_json`
/// use to drive `ChooseDesignPoints` and `EvaluateWindows` in isolation,
/// both through the [`DpfScratch`] sweep kernel and through the retained
/// naive reference.
#[doc(hidden)]
pub struct DiagSearch<'g> {
    ctx: SearchContext<'g>,
    buffers: EvalBuffers,
}

impl<'g> DiagSearch<'g> {
    /// Builds the search context for `g` under `config` and `deadline`.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::InvalidConfig`] when the configuration is unusable.
    pub fn new(
        g: &'g TaskGraph,
        config: &SchedulerConfig,
        deadline: Minutes,
    ) -> Result<Self, SchedulerError> {
        let model = config.battery_model()?;
        Ok(Self {
            ctx: SearchContext::new(g, config, deadline, model),
            buffers: EvalBuffers::new(),
        })
    }

    /// `ChooseDesignPoints` through the sweep kernel (positional
    /// columns). Reuses the internal buffers across calls, so repeated
    /// invocations are allocation-free — the configuration benched as
    /// `cdp_ns`.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedulerError::WindowSearchFailed`].
    pub fn choose(&mut self, seq: &[TaskId], ws: usize) -> Result<&[usize], SchedulerError> {
        choose_design_points_into(&self.ctx, seq, ws, &mut self.buffers)?;
        Ok(&self.buffers.choose.assign)
    }

    /// `ChooseDesignPoints` through the retained naive reference
    /// (per-candidate clones and scans) — the bench baseline for
    /// `cdp_speedup` and the bit-identical equivalence anchor.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedulerError::WindowSearchFailed`].
    pub fn choose_reference(
        &mut self,
        seq: &[TaskId],
        ws: usize,
    ) -> Result<Vec<usize>, SchedulerError> {
        choose_design_points_reference(&self.ctx, seq, ws)
    }

    /// The cumulative solver-phase counters of every search run through
    /// this handle's buffers (see [`crate::prof::Prof`]).
    pub fn prof(&self) -> crate::prof::Prof {
        self.buffers.prof()
    }

    /// σ and makespan of a positional assignment through the evaluation
    /// engine (shared buffers).
    pub fn cost(&mut self, seq: &[TaskId], assign_pos: &[usize]) -> (MilliAmpMinutes, Minutes) {
        positional_cost(&self.ctx, seq, assign_pos, &mut self.buffers)
    }

    /// One full `EvaluateWindows` sweep through the carried kernel,
    /// reusing the internal buffers across calls — the configuration
    /// benched as `sweep_scaling`.
    ///
    /// # Errors
    ///
    /// The errors of `evaluate_windows` (infeasible deadline, defensive
    /// window failure).
    pub fn windows(
        &mut self,
        seq: &[TaskId],
    ) -> Result<(Vec<WindowRecord>, usize), SchedulerError> {
        evaluate_windows(&self.ctx, seq, &mut self.buffers)
    }

    /// The feasible window starts for `seq` under the context's deadline:
    /// every `ws` with `CT(ws) <= d`, widest feasible first (the sweep
    /// order of `EvaluateWindows`).
    pub fn feasible_windows(&self) -> Vec<usize> {
        (0..self.ctx.m)
            .rev()
            .filter(|&ws| self.ctx.column_time(ws) <= self.ctx.deadline + TIME_EPS)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use batsched_battery::units::MilliAmps;
    use batsched_taskgraph::DesignPoint;

    fn dp(current: f64, duration: f64) -> DesignPoint {
        DesignPoint::new(MilliAmps::new(current), Minutes::new(duration))
    }

    /// Five independent tasks, four design points — the Figure 4 setting.
    /// Durations are crafted so that, with T5 and T4 fixed and T3 tagged at
    /// DP2, meeting the deadline needs T1 promoted exactly twice
    /// (DP4 → DP3 → DP2), reproducing panels (a)–(c) of the figure.
    fn figure4_graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        // Average energies must order E = [T3, T4, T5, T1, T2] (the figure's
        // E = [3,4,5,1,2]), and T1 must be the first *free* task (T3/T4/T5
        // are fixed). Energies rise with base current here.
        let rows: [(&str, f64); 5] = [
            ("T1", 400.0),
            ("T2", 500.0),
            ("T3", 100.0),
            ("T4", 200.0),
            ("T5", 300.0),
        ];
        for (name, i1) in rows {
            // DP1..DP4: durations 2/4/6/8 min, currents fall geometrically.
            b.task(
                name,
                vec![
                    dp(i1, 2.0),
                    dp(i1 * 0.5, 4.0),
                    dp(i1 * 0.25, 6.0),
                    dp(i1 * 0.12, 8.0),
                ],
            );
        }
        b.build().unwrap()
    }

    /// `CalculateDPF` on an explicit state: the reference with fresh row
    /// base sums.
    fn dpf_at(
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        pos_of: &[usize],
        stemp: &[usize],
        fixed: &[bool],
        i: usize,
        ws: usize,
    ) -> (f64, f64, f64) {
        let bases = RowBases::fresh(ctx, seq, stemp, i);
        calculate_dpf_reference(ctx, seq, pos_of, stemp, fixed, i, ws, bases)
    }

    fn ctx_for<'g>(g: &'g TaskGraph, deadline: f64, config: &SchedulerConfig) -> SearchContext<'g> {
        SearchContext::new(
            g,
            config,
            Minutes::new(deadline),
            config.battery_model().unwrap(),
        )
    }

    #[test]
    fn energy_vector_matches_figure4() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 100.0, &cfg);
        let names: Vec<&str> = ctx.energy_order.iter().map(|&t| g.name(t)).collect();
        assert_eq!(names, vec!["T3", "T4", "T5", "T1", "T2"]);
    }

    #[test]
    fn figure4_dpf_is_one_third() {
        // Figure 4: m = 4, full window (ws = 0). Sequence positions are
        // T1..T5 in order; T5 fixed at DP4, T4 fixed at DP1, T3 tagged at
        // DP2 (position 2 → i = 2). Free: T1, T2 at DP4. Deadline forces
        // exactly two promotions of T1 (the first free task in E), leaving
        // T1 at DP2 and T2 at DP4 — the paper computes DPF = 1/3.
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        // Fixed suffix: T4@DP1 (2 min), T5@DP4 (8 min). Tagged T3@DP2
        // (4 min). Free T1, T2 at DP4 (8 min each): total 30. Deadline 26
        // requires saving 4 minutes: T1 → DP3 (−2) → DP2 (−2). ✓
        let ctx = ctx_for(&g, 26.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        // Positional assignment snapshot: T4 (pos 3) at DP1 = col 0, T5
        // (pos 4) at DP4 = col 3, tagged T3 (pos 2) at DP2 = col 1.
        let stemp = vec![3, 3, 1, 0, 3];
        let fixed = {
            let mut f = vec![false; 5];
            f[3] = true; // T4
            f[4] = true; // T5
            f
        };
        let (_enr, _cif, dpf) = dpf_at(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
        assert!((dpf - 1.0 / 3.0).abs() < 1e-12, "got DPF = {dpf}");
    }

    #[test]
    fn dpf_is_infinite_when_no_repair_fits() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        // Even all-DP1 takes 10 minutes; a 9-minute deadline cannot be met.
        let ctx = ctx_for(&g, 9.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        let stemp = vec![3, 3, 1, 0, 3];
        let fixed = {
            let mut f = vec![false; 5];
            f[3] = true;
            f[4] = true;
            f
        };
        let (_, _, dpf) = dpf_at(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
        assert!(dpf.is_infinite());
    }

    #[test]
    fn dpf_for_first_position_is_slack_ratio() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 40.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        // Everything fixed except position 0, tagged at col 2 (6 min).
        let stemp = vec![2, 3, 3, 3, 3];
        let fixed = vec![false, true, true, true, true];
        let (_, _, dpf) = dpf_at(&ctx, &seq, &pos_of, &stemp, &fixed, 0, 0);
        let te = 6.0 + 8.0 * 4.0; // 38 min, under the 40-minute deadline
        assert!((dpf - (40.0 - te) / 40.0).abs() < 1e-12);
    }

    #[test]
    fn repair_promotes_lowest_energy_task_first_and_fixes_at_window_start() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        // Deadline 18: free T1, T2 at DP4, nothing else fixed beyond the
        // tagged last... construct: suffix fixed = T3,T4,T5 at DP1 (2 min
        // each) = 6; tagged position 2 is T3 — instead tag position 2 and
        // free T1, T2: total = 8+8+{T3@DP1}2+2+2 = 22 > 18. Repair must
        // promote T1 (first free in E among T1, T2): DP4→DP3 (−2) → 20,
        // DP3→DP2 (−2) → 18 ≤ d. T1 ends at DP2, T2 untouched.
        let ctx = ctx_for(&g, 18.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        let stemp = vec![3, 3, 0, 0, 0];
        let fixed = vec![false, false, false, true, true];
        // Tagged i = 2 (T3@DP1).
        let (_enr, _cif, dpf) = dpf_at(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
        assert!(dpf.is_finite());
        // The repaired distribution: T1@DP2 (col 1) → coefficient 2/3, one
        // of two free tasks there: DPF = (2/3)·(1/2) = 1/3.
        assert!((dpf - 1.0 / 3.0).abs() < 1e-12, "dpf = {dpf}");
    }

    #[test]
    fn choose_design_points_meets_deadline_and_fixes_last_task_lowest_power() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        for deadline in [12.0, 16.0, 20.0, 26.0, 32.0, 40.0] {
            let ctx = ctx_for(&g, deadline, &cfg);
            let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
            for ws in 0..=2usize {
                if ctx.column_time(ws) > deadline {
                    continue;
                }
                let assign = choose_design_points(&ctx, &seq, ws).unwrap();
                let total: f64 = seq
                    .iter()
                    .enumerate()
                    .map(|(p, &t)| ctx.d(t, assign[p]))
                    .sum();
                assert!(
                    total <= deadline + TIME_EPS,
                    "d={deadline} ws={ws} total={total}"
                );
                // The last task is pinned to the leanest column that keeps
                // the all-`ws` fallback feasible (= DP4 once slack allows).
                let others: f64 = (0..4).map(|p| ctx.d(TaskId(p), ws)).sum();
                let expect_last = (ws..4)
                    .rev()
                    .find(|&c| others + ctx.d(TaskId(4), c) <= deadline + TIME_EPS)
                    .unwrap();
                assert_eq!(assign[4], expect_last, "d={deadline} ws={ws}");
                if deadline >= 26.0 && ws == 0 {
                    assert_eq!(assign[4], 3, "loose deadlines keep the paper's rule");
                }
                assert!(assign.iter().all(|&c| c >= ws), "window respected");
            }
        }
    }

    #[test]
    fn incremental_kernel_matches_reference_on_figure4_sweep() {
        // Every (deadline, window) of the Figure 4 fixture: the sweep
        // kernel and the retained naive reference must agree bit-for-bit
        // on assignments.
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        for deadline in [10.5, 12.0, 16.0, 18.0, 20.0, 26.0, 32.0, 40.0] {
            let ctx = ctx_for(&g, deadline, &cfg);
            for ws in 0..4usize {
                if ctx.column_time(ws) > deadline {
                    continue;
                }
                let fast = choose_design_points(&ctx, &seq, ws).unwrap();
                let naive = choose_design_points_reference(&ctx, &seq, ws).unwrap();
                assert_eq!(fast, naive, "d={deadline} ws={ws}");
            }
        }
    }

    #[test]
    fn evaluate_windows_rejects_impossible_deadline() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 9.0, &cfg); // all-DP1 needs 10 min
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let err = evaluate_windows(&ctx, &seq, &mut EvalBuffers::new()).unwrap_err();
        assert!(matches!(err, SchedulerError::DeadlineInfeasible { .. }));
    }

    #[test]
    fn evaluate_windows_skips_infeasible_narrow_windows() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        // CT per column: 10, 20, 30, 40. Deadline 25 ⇒ only windows with
        // ws ∈ {0, 1} are feasible; the paper's loop starts at ws = 1.
        let ctx = ctx_for(&g, 25.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let (records, best) = evaluate_windows(&ctx, &seq, &mut EvalBuffers::new()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].window_start, PointId(1));
        assert_eq!(records[1].window_start, PointId(0));
        assert!(best < records.len());
        for r in &records {
            assert!(r.makespan.value() <= 25.0 + TIME_EPS);
        }
    }

    #[test]
    fn window_labels_match_paper_convention() {
        let r = WindowRecord {
            window_start: PointId(3),
            cost: MilliAmpMinutes::new(1.0),
            makespan: Minutes::new(1.0),
            assignment: vec![],
        };
        assert_eq!(r.label(5), "4:5");
    }

    #[test]
    fn factor_mask_zeroes_terms_but_keeps_the_veto() {
        let fb = FactorBreakdown {
            sr: 0.1,
            cr: 0.2,
            enr: 0.3,
            cif: 0.4,
            dpf: 0.5,
        };
        assert!((fb.total(FactorMask::ALL) - 1.5).abs() < 1e-12);
        assert!((fb.total(FactorMask::without(4)) - 1.0).abs() < 1e-12);
        assert!((fb.total(FactorMask::without(0)) - 1.4).abs() < 1e-12);
        let veto = FactorBreakdown {
            dpf: f64::INFINITY,
            ..fb
        };
        assert!(veto.total(FactorMask::without(4)).is_infinite());
    }

    #[test]
    fn calculate_factors_cif_counts_rises() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 100.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        // Currents at DP1 by position: 400, 500, 100, 200, 300 — rises at
        // positions 1, 3, 4 → CIF = 3/4.
        let (cif, _enr) = calculate_factors(&ctx, &seq, &[0, 0, 0, 0, 0]);
        assert!((cif - 0.75).abs() < 1e-12);
    }

    #[test]
    fn calculate_factors_enr_normalises() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 100.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let (_cif, enr_min) = calculate_factors(&ctx, &seq, &[3, 3, 3, 3, 3]);
        let (_cif, enr_max) = calculate_factors(&ctx, &seq, &[0, 0, 0, 0, 0]);
        assert!((enr_min - 0.0).abs() < 1e-12);
        assert!((enr_max - 1.0).abs() < 1e-12);
    }
}
