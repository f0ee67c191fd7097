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
/// order, shared by the incremental kernel and the retained naive
/// reference, so the bit-identity equivalence story is by construction:
///
/// * [`RowBases::fresh`] is the position-order summation pass both one-shot
///   entry points use;
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
    /// accumulation order every cold path uses.
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

/// One repair promotion recorded in the [`DpfScratch`] rollback journal:
/// position `pos` moved from `old_col` to `old_col − 1`. The scalar effects
/// (Δmakespan, Δenergy, Δrising-pairs, neighbour columns) live in the
/// scratch's prefix-sum arrays, indexed by journal prefix length.
#[derive(Debug, Clone, Copy)]
struct Promotion {
    pos: usize,
    old_col: usize,
}

/// One whole repair run of a carried sweep's persistent journal: the
/// consumed task (`u32::MAX` = tombstone, the task left the free set), the
/// columns of the task's left/right sequence neighbours at the run's state
/// (`u32::MAX` = no pair / tagged-adjacent, handled separately), and the
/// run's rising-pair delta over those pairs. Records are immutable once
/// discovered except for tombstoning and the tagged-adjacency patch.
#[derive(Debug, Clone, Copy)]
struct RunRec {
    task: u32,
    left: u32,
    right: u32,
    d_rising: i32,
}

/// Reusable state of the incremental `CalculateDPF` kernel.
///
/// One row evaluates every candidate column of one tagged position. The
/// paper's repair loop promotes the first free task in the energy vector
/// one column at a time until the deadline holds — and that promotion
/// sequence is *independent of the candidate column*: the candidate only
/// decides how deep into the sequence the repair must go. The kernel
/// therefore generates the sequence once per row, lazily, into a rollback
/// **journal** shared by all candidates (promotions are resumed, never
/// recomputed). The journal carries **prefix-sum arrays** — makespan,
/// energy, rising-pair deltas and the tagged position's neighbour columns,
/// indexed by journal prefix length — so a candidate finds its repair
/// depth by *binary search* (promotion steps never lengthen the makespan,
/// so the prefix sums are nonincreasing) and reads its repaired state in
/// O(1) instead of replaying `k` scalar updates. Per-column **occupancy
/// counters** (maintained under journal seeks) make the DPF distribution
/// sum O(m) instead of O(n·m). `end_row` undoes the journal — assignment,
/// occupancy and fixed-flags — restoring the caller's state exactly.
///
/// Rows can begin two ways: [`DpfScratch::begin_row`] does the fresh O(n)
/// preparation (the one-shot diagnostic path), while a
/// `ChooseDesignPoints` sweep carries the base sums, occupancy, rising
/// pairs and fixed flags from row to row in O(1)
/// ([`DpfScratch::begin_row_carried`]) — see [`RowBases`] for how the
/// carried chain stays bit-identical to the retained reference.
///
/// Cost per row: O(depth) journal generation (shared by all candidates)
/// plus O(log depth + m) per candidate — no clones, no full scans, zero
/// allocations after warm-up. The retained naive reference
/// (`calculate_dpf_reference`) shares the same floating-point accumulation
/// and is bit-identical; the equivalence proptests in `crates/core/tests`
/// hold the two together.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpfScratch {
    /// Shared repair journal for the current row.
    journal: Vec<Promotion>,
    /// Prefix sums over the journal, indexed by prefix length `0..=len`:
    /// `s_te[k]` is the makespan delta after `k` promotions (nonincreasing —
    /// durations rise with column index), `s_energy[k]` the energy delta,
    /// `s_rising[k]` the rising-pair delta (excluding tagged-adjacent
    /// pairs), `nbr_im1[k]` / `nbr_ip1[k]` the tagged position's neighbour
    /// columns after `k` promotions.
    s_te: Vec<f64>,
    s_energy: Vec<f64>,
    s_rising: Vec<i32>,
    nbr_im1: Vec<usize>,
    nbr_ip1: Vec<usize>,
    /// Task-indexed "fixed in E" flags. Fresh rows copy the caller's state;
    /// carried sweeps own the array across rows (commits persist, journal
    /// fixes are rolled back by `end_row`).
    etemp: Vec<bool>,
    /// Cursor into `ctx.energy_order`: every earlier task is free or was
    /// skipped as fixed at skip time. One-shot rows reset it; carried
    /// sweeps let it persist, rewinding on journal truncation via the
    /// per-run cursor snapshots (runs consume tasks in energy order, so
    /// every dropped task lies at or beyond the rewind point).
    cursor: usize,
    /// No free task remains; the journal cannot be extended.
    exhausted: bool,
    /// Per-column occupancy of positions `< i`, valid at journal prefix
    /// `occ_k`.
    occ: Vec<u32>,
    occ_k: usize,
    /// Row constants (set by `begin_row` / `begin_row_carried`).
    i: usize,
    ws: usize,
    rest_te: f64,
    rest_energy: f64,
    /// Rising pairs excluding the two pairs adjacent to the tagged position,
    /// at journal prefix 0.
    rising0: i32,
    /// Output buffer of `suitability_row` (descending candidate column).
    row: Vec<(usize, FactorBreakdown)>,

    // --- run-level journal (carried sweeps only) -------------------------
    //
    // In a `ChooseDesignPoints` sweep every free position sits at column
    // m−1, so the repair journal has *run structure*: the first free task
    // in `E` is promoted column by column until it fixes at the window
    // floor, then the next task starts. The sweep journal therefore
    // records whole runs — O(1) per run instead of O(m) per step — with
    // the per-step state recovered from per-task cumulative tables
    // (`cum_te`/`cum_e`, built once per window) and the run-boundary
    // chains below. A repair state is `(r, s)`: `r` completed runs, the
    // current task `s` steps into its run (column `m−1−s`); its makespan
    // is `base + (r_sum[r] + cum_te[task][s])` — two rounded additions,
    // mirrored verbatim by the retained reference, and monotone
    // nonincreasing across the whole (r, s) order because the boundary
    // value `r_sum[r+1]` is *defined* as `r_sum[r] + cum_te[task][full]`
    // (the same bits the in-run chain ends on). Candidates binary-search
    // their stop state instead of replaying promotions.
    /// Steps per full run in the current sweep window: `m − 1 − ws`.
    run_len: usize,
    /// Per-task in-run cumulative deltas for the current window:
    /// `cum_te[t·(run_len+1) + s]` is the makespan delta after the task's
    /// first `s` promotions from column `m−1` (a sequential chain), and
    /// `cum_e` the energy counterpart. Built lazily on the window's first
    /// repair (`cum_built`).
    cum_te: Vec<f64>,
    cum_e: Vec<f64>,
    cum_built: bool,
    /// Per-run records of the persistent sweep journal, in discovery
    /// (= energy) order. The journal is *persistent across the sweep's
    /// rows*: advancing from row `i` to `i−1` removes exactly one task
    /// (the newly tagged `seq[i−1]`) from the free set — its record is
    /// tombstoned, every other record (with its neighbour snapshots and
    /// rising-pair delta, computed once at discovery) survives verbatim,
    /// and only the cheap boundary chains below are re-folded lazily over
    /// the survivors ([`Self::advance_row`] / [`Self::extend_chain`]).
    /// A task never re-enters the free set (tombstoned tasks become
    /// tagged, then committed), so the discovery cursor is monotone across
    /// the whole window.
    runs: Vec<RunRec>,
    /// Record index of each *materialized* run of the current row, in run
    /// order — a strictly increasing prefix of the surviving records.
    chain_src: Vec<u32>,
    /// Record index the next materialization resumes from (skipping
    /// tombstones) before falling back to cursor discovery.
    rec_next: usize,
    /// Run-boundary makespan chain of the materialized runs, indexed by
    /// completed-run count `0..=len` — kept as its own array so candidates
    /// can binary-search it directly.
    r_sum: Vec<f64>,
    /// Run-boundary energy chain and rising-pair count at the full-run
    /// state relative to the row's journalled base (excluding
    /// tagged-adjacent pairs; index 0 holds zeros), indexed like `r_sum`.
    re_h: Vec<(f64, i32)>,
    /// Task-indexed record index, validated against `runs` before use
    /// (stale entries simply fail the cross-check; never reset wholesale).
    run_of: Vec<u32>,
    /// Committed column of the tagged position's right neighbour
    /// (constant per sweep row; `usize::MAX` at the last position).
    ip1_col: usize,
    /// Profiling: repair promotions recorded (one-shot journal entries
    /// plus `run_len` per materialized sweep run). Cumulative; read
    /// through [`EvalBuffers::prof`].
    prof_promotions: u64,
    /// Profiling: repair state undone (one-shot journal entries rolled
    /// back at row end, carried-chain entries dropped for
    /// re-materialization).
    prof_rollbacks: u64,
}

impl DpfScratch {
    /// Resets the journal and its prefix arrays to the empty prefix, with
    /// the tagged position's initial neighbour columns at index 0.
    fn reset_journal(&mut self, col_im1: usize, col_ip1: usize) {
        self.journal.clear();
        self.s_te.clear();
        self.s_te.push(0.0);
        self.s_energy.clear();
        self.s_energy.push(0.0);
        self.s_rising.clear();
        self.s_rising.push(0);
        self.nbr_im1.clear();
        self.nbr_im1.push(col_im1);
        self.nbr_ip1.clear();
        self.nbr_ip1.push(col_ip1);
        self.occ_k = 0;
        self.exhausted = false;
    }

    /// Prepares the kernel for one tagged position `i` within window `ws`.
    /// `assign` is the row's positional snapshot (positions `> i` fixed,
    /// free positions wherever the caller put them — column `m−1` in the
    /// `ChooseDesignPoints` sweep); the tagged column is *not* read from
    /// `assign[i]`, it is passed per candidate. This is the fresh O(n)
    /// preparation; sweeps use [`Self::begin_row_carried`] instead.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateDPF state
    fn begin_row(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        assign: &[usize],
        fixed_in_e: &[bool],
        i: usize,
        ws: usize,
    ) {
        let n = seq.len();
        self.cursor = 0;
        self.i = i;
        self.ws = ws;
        self.etemp.clear();
        self.etemp.extend_from_slice(fixed_in_e);
        self.etemp[seq[i].index()] = true; // the tagged task is fixed in E
        self.occ.clear();
        self.occ.resize(ctx.m, 0);
        for &col in &assign[..i] {
            self.occ[col] += 1;
        }
        let bases = RowBases::fresh(ctx, seq, assign, i);
        self.rest_te = bases.rest_te;
        self.rest_energy = bases.rest_energy;
        let mut rising = 0i32;
        for pos in 1..n {
            if pos != i && pos != i + 1 {
                rising +=
                    (ctx.i(seq[pos - 1], assign[pos - 1]) < ctx.i(seq[pos], assign[pos])) as i32;
            }
        }
        self.rising0 = rising;
        let col_im1 = if i > 0 { assign[i - 1] } else { usize::MAX };
        let col_ip1 = if i + 1 < n { assign[i + 1] } else { usize::MAX };
        self.reset_journal(col_im1, col_ip1);
    }

    /// The journal record index of task `t`, if the task has been
    /// discovered (and not tombstoned).
    fn rec_index_of(&self, t: TaskId) -> Option<usize> {
        let r = *self.run_of.get(t.index())? as usize;
        (r < self.runs.len() && self.runs[r].task == t.index() as u32).then_some(r)
    }

    /// Prepares a carried sweep: fixed flags owned by the scratch (only the
    /// pinned last task set), an empty persistent run journal, and the
    /// window's run length. The per-task cumulative tables are built
    /// lazily on the first repair ([`Self::ensure_cum_tables`]) so a
    /// repair-free window never pays for them. The per-row state
    /// then advances through [`Self::begin_row_carried`] /
    /// [`Self::advance_row`].
    fn begin_sweep(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], ws: usize) {
        self.ws = ws;
        self.etemp.clear();
        self.etemp.resize(ctx.g.task_count(), false);
        self.etemp[seq[seq.len() - 1].index()] = true; // the pinned last task
        self.cursor = 0;
        self.runs.clear();
        self.chain_src.clear();
        self.rec_next = 0;
        self.r_sum.clear();
        self.r_sum.push(0.0);
        self.re_h.clear();
        self.re_h.push((0.0, 0));
        self.run_of.resize(ctx.g.task_count(), u32::MAX);
        self.run_len = ctx.m - 1 - ws;
        self.cum_built = false;
    }

    /// Builds the per-task in-run cumulative delta tables for the current
    /// window — the only O(n·m) piece of a window's repair machinery,
    /// deferred until some candidate actually needs a repair.
    fn ensure_cum_tables(&mut self, ctx: &SearchContext<'_>) {
        if self.cum_built {
            return;
        }
        self.cum_built = true;
        let m = ctx.m;
        let stride = self.run_len + 1;
        let tasks = ctx.g.task_count();
        self.cum_te.clear();
        self.cum_te.resize(tasks * stride, 0.0);
        self.cum_e.clear();
        self.cum_e.resize(tasks * stride, 0.0);
        for t in 0..tasks {
            let task = TaskId(t);
            for s in 0..self.run_len {
                let c = m - 1 - s;
                self.cum_te[t * stride + s + 1] =
                    self.cum_te[t * stride + s] + (ctx.d(task, c - 1) - ctx.d(task, c));
                self.cum_e[t * stride + s + 1] =
                    self.cum_e[t * stride + s] + (ctx.e(task, c - 1) - ctx.e(task, c));
            }
        }
    }

    /// O(1) row preparation from sweep-carried state: base sums, rising
    /// pairs and neighbour columns come from the caller's carried chain,
    /// the fixed flags and the reusable journal prefix are already in
    /// place from the previous row's [`Self::advance_row`].
    fn begin_row_carried(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        i: usize,
        bases: RowBases,
        rising0: i32,
        col_ip1: usize,
    ) {
        self.i = i;
        self.etemp[seq[i].index()] = true; // the tagged task is fixed in E
        self.rest_te = bases.rest_te;
        self.rest_energy = bases.rest_energy;
        self.rising0 = rising0;
        self.ip1_col = col_ip1;
        self.exhausted = false;
        let _ = ctx;
    }

    /// Drops materialized runs from chain position `cpos` on (their
    /// records stay in the shadow for cheap re-materialization).
    fn truncate_chain(&mut self, cpos: usize) {
        if cpos < self.chain_src.len() {
            self.prof_rollbacks += (self.chain_src.len() - cpos) as u64;
            self.chain_src.truncate(cpos);
            self.r_sum.truncate(cpos + 1);
            self.re_h.truncate(cpos + 1);
            self.rec_next = self.chain_src.last().map_or(0, |&s| s as usize + 1);
        }
    }

    /// Advances the persistent journal from row `i` to row `i−1`: the
    /// newly tagged `seq[i−1]` leaves the free set, so its record is
    /// tombstoned and the materialized chain re-folds from its rank; every
    /// other record survives verbatim. The one record whose rising-pair
    /// delta referenced the pair `(i−2, i−1)` — tagged-adjacent from now
    /// on — is patched (using its snapshot of `seq[i−1]`'s column at the
    /// time), with its chain entries dropped for re-materialization.
    fn advance_row(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], i: usize) {
        let t_next = seq[i - 1];
        if let Some(idx) = self.rec_index_of(t_next) {
            let cpos = self.chain_src.partition_point(|&s| (s as usize) < idx);
            self.truncate_chain(cpos);
            self.runs[idx].task = u32::MAX; // tombstone: tagged, then committed
        }
        if i >= 2 {
            if let Some(idx) = self.rec_index_of(seq[i - 2]) {
                if self.runs[idx].right != u32::MAX {
                    let q = seq[i - 2];
                    // The snapshot column seq[i−1] held at this record's
                    // state (m−1, or the floor if it was consumed first).
                    let ri = ctx.i(seq[i - 1], self.runs[idx].right as usize);
                    let delta = (ctx.i(q, self.ws) < ri) as i32 - (ctx.i(q, ctx.m - 1) < ri) as i32;
                    self.runs[idx].d_rising -= delta;
                    self.runs[idx].right = u32::MAX;
                    let cpos = self.chain_src.partition_point(|&s| (s as usize) < idx);
                    self.truncate_chain(cpos);
                }
            }
        }
    }

    /// Folds record `idx` into the row's materialized chain.
    fn materialize(&mut self, idx: usize) {
        self.prof_promotions += self.run_len as u64;
        let rec = self.runs[idx];
        let t = rec.task as usize;
        let stride = self.run_len + 1;
        let r = self.chain_src.len();
        self.chain_src.push(idx as u32);
        self.r_sum
            .push(self.r_sum[r] + self.cum_te[t * stride + self.run_len]);
        let (re, h) = self.re_h[r];
        self.re_h
            .push((re + self.cum_e[t * stride + self.run_len], h + rec.d_rising));
    }

    /// Materializes the next repair run of the row — the next surviving
    /// shadow record, or, past the shadow, the first free task in `E`
    /// promoted from column `m−1` down to the window floor (discovered
    /// once per window: its neighbour snapshots and rising-pair delta are
    /// recorded for every later row to reuse). Returns `false` when no
    /// free task remains (or the window has a single column, so no
    /// promotion is possible).
    fn extend_chain(&mut self, ctx: &SearchContext<'_>, seq: &[TaskId], pos_of: &[usize]) -> bool {
        if self.exhausted {
            return false;
        }
        if self.run_len == 0 {
            self.exhausted = true;
            return false;
        }
        self.ensure_cum_tables(ctx);
        while self.rec_next < self.runs.len() {
            let idx = self.rec_next;
            self.rec_next += 1;
            if self.runs[idx].task != u32::MAX {
                self.materialize(idx);
                return true;
            }
        }
        // Discovery: the cursor is monotone for the whole window (tasks
        // never re-enter the free set), so every task is snapshotted once.
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
        // Snapshot the neighbour columns at this record's state (free
        // neighbours sit at the floor once consumed, at m−1 otherwise;
        // pairs touching the tagged position are excluded — they are
        // re-derived per repair state) and the full move's rising-pair
        // delta over those pairs.
        let mut d_rising = 0i32;
        let left = if p > 0 {
            let ln = seq[p - 1];
            let lcol = if self.etemp[ln.index()] { ws } else { m1 };
            let li = ctx.i(ln, lcol);
            d_rising += (li < i_new) as i32 - (li < i_old) as i32;
            lcol as u32
        } else {
            u32::MAX
        };
        let right = if p + 1 != self.i {
            debug_assert!(p + 1 < self.i, "free positions precede the tagged one");
            let rn = seq[p + 1];
            let rcol = if self.etemp[rn.index()] { ws } else { m1 };
            let ri = ctx.i(rn, rcol);
            d_rising += (i_new < ri) as i32 - (i_old < ri) as i32;
            rcol as u32
        } else {
            u32::MAX
        };
        let idx = self.runs.len();
        self.etemp[q.index()] = true; // fixed at the window floor, for good
        self.run_of[q.index()] = idx as u32;
        self.runs.push(RunRec {
            task: q.index() as u32,
            left,
            right,
            d_rising,
        });
        self.rec_next = self.runs.len();
        self.materialize(idx);
        true
    }

    /// `CalculateDPF` for candidate column `j` of a carried sweep row.
    /// Extends the shared run journal until this candidate's deadline
    /// holds, binary-searches the run boundaries (then the stop run's
    /// in-run chain) for the exact repair state the one-promotion-at-a-
    /// time loop stops at, and scores it in O(1): the DPF occupancy is
    /// closed-form (`r` tasks at the floor, at most one mid-run), the
    /// rising count comes from the `h` chain plus two pair corrections.
    ///
    /// Kept out of line: inlined into its one call site it folds the whole
    /// sweep into `evaluate_windows` and made n=200 solves ~3% slower.
    #[inline(never)]
    fn sweep_candidate(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        pos_of: &[usize],
        j: usize,
    ) -> (f64, f64, f64) {
        let n = seq.len();
        let i = self.i;
        let d = ctx.deadline;
        let m1 = ctx.m - 1;
        let base_te = self.rest_te + ctx.d(seq[i], j);
        let base_energy = self.rest_energy + ctx.e(seq[i], j);
        let mut feasible = true;
        while base_te + self.r_sum[self.chain_src.len()] > d + TIME_EPS {
            if !self.extend_chain(ctx, seq, pos_of) {
                feasible = false;
                break;
            }
        }
        let len = self.chain_src.len();
        let stride = self.run_len + 1;
        // Stop state (r, s): r completed runs, current task s steps into
        // its run. `r_sum` and each in-run chain are exactly monotone
        // nonincreasing, and a run's final in-run value *is* the next
        // boundary value, so the two-level binary search lands on the same
        // state the sequential repair loop reaches.
        let (r, s, q) = if !feasible {
            (len, 0usize, None)
        } else {
            let rb = self.r_sum[..=len].partition_point(|&v| base_te + v > d + TIME_EPS);
            if rb == 0 {
                (0, 0, None)
            } else {
                let q = TaskId(self.runs[self.chain_src[rb - 1] as usize].task as usize);
                let cum = &self.cum_te[q.index() * stride..(q.index() + 1) * stride];
                let rs = self.r_sum[rb - 1];
                let s = cum.partition_point(|&cs| base_te + (rs + cs) > d + TIME_EPS);
                debug_assert!(s >= 1, "the boundary before rb did not satisfy");
                if s == self.run_len {
                    (rb, 0, None)
                } else {
                    (rb - 1, s, Some(q))
                }
            }
        };
        let (re_r, h_r) = self.re_h[r];
        let (te, energy) = if let Some(q) = q {
            let qi = q.index() * stride;
            (
                base_te + (self.r_sum[r] + self.cum_te[qi + s]),
                base_energy + (re_r + self.cum_e[qi + s]),
            )
        } else {
            (base_te + self.r_sum[r], base_energy + re_r)
        };
        let mut rising = self.rising0 + h_r;
        let c = m1 - s;
        if let Some(q) = q {
            // The mid-run task sits at column c, not the m−1 its chain
            // state assumes: correct its two (non-tagged-adjacent) pairs.
            let rec = self.runs[self.chain_src[r] as usize];
            let i_old = ctx.i(q, m1);
            let i_new = ctx.i(q, c);
            if rec.left != u32::MAX {
                let li = ctx.i(seq[pos_of[q.index()] - 1], rec.left as usize);
                rising += (li < i_new) as i32 - (li < i_old) as i32;
            }
            if rec.right != u32::MAX {
                let ri = ctx.i(seq[pos_of[q.index()] + 1], rec.right as usize);
                rising += (i_new < ri) as i32 - (i_old < ri) as i32;
            }
        }
        let i_tag = ctx.i(seq[i], j);
        if i > 0 {
            // The tagged-left neighbour's column at the stop state: the
            // materialized chain is the record-index-ordered prefix of the
            // survivors, so "consumed before run r" is one index compare.
            let col_im1 = match self.rec_index_of(seq[i - 1]) {
                Some(idx) if q.is_some() && self.chain_src[r] as usize == idx => c,
                Some(idx) if r > 0 && idx <= self.chain_src[r - 1] as usize => self.ws,
                _ => m1,
            };
            rising += (ctx.i(seq[i - 1], col_im1) < i_tag) as i32;
        }
        if i + 1 < n {
            rising += (i_tag < ctx.i(seq[i + 1], self.ip1_col)) as i32;
        }
        let cif = if n > 1 {
            rising as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let enr = ctx.stats.energy_ratio(Energy::new(energy));
        if !feasible {
            return (enr, cif, f64::INFINITY);
        }
        let dpf = if i == 0 {
            (d - te) / d
        } else {
            let width_minus1 = ctx.m - 1 - self.ws;
            if width_minus1 == 0 {
                0.0
            } else {
                let factor = 1.0 / width_minus1 as f64;
                // Closed-form occupancy: `r` repaired tasks at the floor,
                // at most one mid-run at column c, everything else at the
                // weightless column m−1. Terms added in ascending column
                // order with the reference loop's exact expressions (its
                // zero-occupancy terms add +0.0, which preserves bits).
                let mut dpf = 0.0;
                if r > 0 {
                    dpf += width_minus1 as f64 * factor * r as f64 / i as f64;
                }
                if q.is_some() {
                    let coeff = (width_minus1 - (c - self.ws)) as f64;
                    dpf += coeff * factor * 1.0 / i as f64;
                }
                dpf
            }
        };
        (enr, cif, dpf)
    }

    /// Appends the next repair promotion to the journal, applying it to
    /// `assign` and extending the prefix-sum arrays. Returns `false` when
    /// no free task remains.
    fn extend_journal(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        pos_of: &[usize],
        assign: &mut [usize],
    ) -> bool {
        if self.exhausted {
            return false;
        }
        // First free task in ascending-energy order. Tasks only ever become
        // fixed during a row, so the cursor is monotone.
        while self.cursor < ctx.energy_order.len()
            && self.etemp[ctx.energy_order[self.cursor].index()]
        {
            self.cursor += 1;
        }
        let Some(&q) = ctx.energy_order.get(self.cursor) else {
            self.exhausted = true;
            return false;
        };
        let r = pos_of[q.index()];
        let c = assign[r];
        debug_assert!(c > self.ws, "free tasks never sit below the window start");
        let d_te = ctx.d(seq[r], c - 1) - ctx.d(seq[r], c);
        let d_energy = ctx.e(seq[r], c - 1) - ctx.e(seq[r], c);
        let i_old = ctx.i(seq[r], c);
        let i_new = ctx.i(seq[r], c - 1);
        let mut d_rising = 0i32;
        // Pairs (r−1, r) and (r, r+1), excluding any pair containing the
        // tagged position — those are re-derived per candidate from the
        // tracked neighbour columns.
        if r > 0 && r - 1 != self.i {
            let left = ctx.i(seq[r - 1], assign[r - 1]);
            d_rising += (left < i_new) as i32 - (left < i_old) as i32;
        }
        if r + 1 < seq.len() && r + 1 != self.i {
            let right = ctx.i(seq[r + 1], assign[r + 1]);
            d_rising += (i_new < right) as i32 - (i_old < right) as i32;
        }
        let k = self.journal.len();
        let nbr_im1 = if r + 1 == self.i {
            c - 1
        } else {
            self.nbr_im1[k]
        };
        let nbr_ip1 = if r == self.i + 1 {
            c - 1
        } else {
            self.nbr_ip1[k]
        };
        assign[r] = c - 1;
        if c - 1 == self.ws {
            // Promoted into the window's fastest column: no further moves.
            self.etemp[q.index()] = true;
        }
        self.prof_promotions += 1;
        self.journal.push(Promotion { pos: r, old_col: c });
        self.s_te.push(self.s_te[k] + d_te);
        self.s_energy.push(self.s_energy[k] + d_energy);
        self.s_rising.push(self.s_rising[k] + d_rising);
        self.nbr_im1.push(nbr_im1);
        self.nbr_ip1.push(nbr_ip1);
        true
    }

    /// Moves the occupancy counters to journal prefix `k`.
    fn occ_seek(&mut self, k: usize) {
        while self.occ_k < k {
            let p = self.journal[self.occ_k];
            if p.pos < self.i {
                self.occ[p.old_col] -= 1;
                self.occ[p.old_col - 1] += 1;
            }
            self.occ_k += 1;
        }
        while self.occ_k > k {
            self.occ_k -= 1;
            let p = self.journal[self.occ_k];
            if p.pos < self.i {
                self.occ[p.old_col - 1] -= 1;
                self.occ[p.old_col] += 1;
            }
        }
    }

    /// `CalculateDPF` for candidate column `j` of the prepared row:
    /// `(enr, cif, dpf)` on the repaired assignment, `dpf = ∞` when no
    /// repair meets the deadline. Extends the shared journal only as far
    /// as this candidate needs, then *binary-searches* the prefix sums for
    /// the exact repair depth the paper's one-step loop would stop at.
    fn candidate(
        &mut self,
        ctx: &SearchContext<'_>,
        seq: &[TaskId],
        pos_of: &[usize],
        assign: &mut [usize],
        j: usize,
    ) -> (f64, f64, f64) {
        let n = seq.len();
        let i = self.i;
        let d = ctx.deadline;
        let base_te = self.rest_te + ctx.d(seq[i], j);
        let base_energy = self.rest_energy + ctx.e(seq[i], j);
        // Resume the shared journal until this candidate's deadline holds
        // (or no free task remains).
        let mut feasible = true;
        while base_te + self.s_te[self.journal.len()] > d + TIME_EPS {
            if !self.extend_journal(ctx, seq, pos_of, assign) {
                feasible = false;
                break;
            }
        }
        // Minimal prefix `k` with `te ≤ d` — the state the one-promotion-
        // at-a-time loop stops at. `s_te` is nonincreasing, so the
        // predicate is monotone and binary search finds the same `k` the
        // sequential walk would.
        let k = if feasible {
            self.s_te[..=self.journal.len()].partition_point(|&s| base_te + s > d + TIME_EPS)
        } else {
            self.journal.len()
        };
        let te = base_te + self.s_te[k];
        let energy = base_energy + self.s_energy[k];
        let mut rising = self.rising0 + self.s_rising[k];
        let i_tag = ctx.i(seq[i], j);
        if i > 0 {
            rising += (ctx.i(seq[i - 1], self.nbr_im1[k]) < i_tag) as i32;
        }
        if i + 1 < n {
            rising += (i_tag < ctx.i(seq[i + 1], self.nbr_ip1[k])) as i32;
        }
        let cif = if n > 1 {
            rising as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let enr = ctx.stats.energy_ratio(Energy::new(energy));
        if !feasible {
            return (enr, cif, f64::INFINITY);
        }
        let dpf = if i == 0 {
            // "If we are considering the last task, set DPF to the slack
            // ratio" — also where the published formula would divide by zero.
            (d - te) / d
        } else {
            let width_minus1 = ctx.m - 1 - self.ws;
            if width_minus1 == 0 {
                0.0
            } else {
                let factor = 1.0 / width_minus1 as f64;
                self.occ_seek(k);
                let mut dpf = 0.0;
                // Window-relative columns: the window's fastest column `ws`
                // carries the largest weight, decaying linearly to zero at
                // the leanest column `m−1`. For the full window (ws = 0)
                // this is exactly eq. 2's (m−k)·f weights and the Figure 4
                // example; for narrow windows it is the only reading
                // consistent with the published Table 3 assignments (see
                // DESIGN.md §4).
                for w in 0..width_minus1 {
                    let col = self.ws + w;
                    let coeff = (width_minus1 - w) as f64;
                    dpf += coeff * factor * self.occ[col] as f64 / i as f64;
                }
                dpf
            }
        };
        (enr, cif, dpf)
    }

    /// Rolls the per-step journal back out of `assign` (and the occupancy
    /// counters and fixed flags with it), restoring the row's initial
    /// state. One-shot rows only — a carried sweep's run-level journal
    /// persists across rows and is pruned by [`Self::advance_row`].
    fn end_row(&mut self, seq: &[TaskId], assign: &mut [usize]) {
        self.prof_rollbacks += self.journal.len() as u64;
        self.occ_seek(0);
        for p in self.journal.iter().rev() {
            assign[p.pos] = p.old_col;
            if p.old_col - 1 == self.ws {
                // This promotion fixed the task at the window floor; free
                // it again (the tagged / committed flags are not journal
                // entries and survive).
                self.etemp[seq[p.pos].index()] = false;
            }
        }
        self.journal.clear();
    }
}

/// `CalculateDPF` (Fig. 2): repairs the tentative assignment until the
/// deadline is met by promoting the first free task in the energy vector one
/// column at a time, then scores the design-point distribution.
///
/// One-shot convenience over the incremental [`DpfScratch`] kernel (the
/// diagnostic and unit-test entry point — `suitability_row` drives the
/// kernel directly and shares the repair journal across candidates).
///
/// * `stemp` — positional assignment snapshot: positions `> i` fixed,
///   position `i` tagged at its candidate column, positions `< i` still at
///   the initial column `m−1`. The caller's state is untouched.
/// * `fixed_in_e` — task-indexed "fixed in E" flags covering positions `>= i`.
///
/// Returns `(enr, cif, dpf)` computed on the repaired assignment; `dpf` is
/// `∞` when no repair meets the deadline.
pub(crate) fn calculate_dpf(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    pos_of: &[usize],
    stemp_in: &[usize],
    fixed_in_e: &[bool],
    i: usize,
    ws: usize,
) -> (f64, f64, f64) {
    let mut scratch = DpfScratch::default();
    let mut assign = stemp_in.to_vec();
    scratch.begin_row(ctx, seq, &assign, fixed_in_e, i, ws);
    scratch.candidate(ctx, seq, pos_of, &mut assign, stemp_in[i])
}

/// The retained naive `CalculateDPF` — the pre-incremental implementation
/// (fresh state clones per call, O(n) first-free scans per promotion, O(i)
/// occupancy scans per column), kept as the equivalence reference for the
/// [`DpfScratch`] kernel. The base sums come from the shared
/// [`RowBases::fresh`] helper and the makespan/energy accumulations follow
/// the kernel's arithmetic (`(rest + tagged) + running promotion sum`) so
/// the proptests can demand **bit-identical** `(enr, cif, dpf)` triples:
/// any divergence is a bookkeeping bug, never float noise.
pub(crate) fn calculate_dpf_reference(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    pos_of: &[usize],
    stemp_in: &[usize],
    fixed_in_e: &[bool],
    i: usize,
    ws: usize,
) -> (f64, f64, f64) {
    let bases = RowBases::fresh(ctx, seq, stemp_in, i);
    calculate_dpf_reference_with(ctx, seq, pos_of, stemp_in, fixed_in_e, i, ws, bases)
}

/// [`calculate_dpf_reference`] with explicit row base sums, so the
/// reference sweep (`choose_design_points_reference`) can carry them
/// across rows through the same [`RowBases::carry_down`] chain the kernel
/// uses. The repair loop keeps a running promotion sum and evaluates
/// `te = base + sum` each step — exactly the kernel's prefix-sum
/// arithmetic, promotion by promotion.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateDPF state
pub(crate) fn calculate_dpf_reference_with(
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
    let mut s_te = 0.0;
    let mut s_energy = 0.0;
    let mut te = base_te + s_te;

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
        debug_assert!(c > ws, "free tasks never sit below the window start");
        s_te += ctx.d(seq[r], c - 1) - ctx.d(seq[r], c);
        s_energy += ctx.e(seq[r], c - 1) - ctx.e(seq[r], c);
        stemp[r] = c - 1;
        if c - 1 == ws {
            // Promoted into the window's fastest column: no further moves.
            etemp[q.index()] = true;
        }
        te = base_te + s_te;
    }
    let energy = base_energy + s_energy;

    let (cif, _scan_enr) = calculate_factors(ctx, seq, &stemp);
    let enr = ctx.stats.energy_ratio(Energy::new(energy));
    if !feasible {
        return (enr, cif, f64::INFINITY);
    }
    let dpf = if i == 0 {
        (d - te) / d
    } else {
        let width_minus1 = m - 1 - ws;
        if width_minus1 == 0 {
            0.0
        } else {
            let factor = 1.0 / width_minus1 as f64;
            let mut dpf = 0.0;
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

/// The suitability table for one tagged position: `FactorBreakdown` for each
/// candidate column `j ∈ [ws ..= m−1]` given the already-fixed suffix,
/// written into `scratch`'s row buffer (descending column, matching the
/// paper's scan order). Candidates are *evaluated* ascending so the repair
/// journal extends monotonically: leaner candidates resume the promotions
/// faster ones already recorded.
/// Used by `ChooseDesignPoints`, the Figure 4 reproduction and tests.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateFactors state
pub(crate) fn suitability_row<'s>(
    ctx: &SearchContext<'_>,
    seq: &[TaskId],
    pos_of: &[usize],
    assign: &mut [usize],
    fixed_in_e: &[bool],
    tsum: f64,
    i: usize,
    ws: usize,
    scratch: &'s mut DpfScratch,
) -> &'s [(usize, FactorBreakdown)] {
    let m = ctx.m;
    scratch.begin_row(ctx, seq, assign, fixed_in_e, i, ws);
    scratch.row.clear();
    for j in ws..m {
        let ttemp = tsum + ctx.d(seq[i], j);
        let sr = (ctx.deadline - ttemp) / ctx.deadline;
        let cr = ctx
            .stats
            .current_ratio(batsched_battery::units::MilliAmps::new(ctx.i(seq[i], j)));
        let (enr, cif, dpf) = scratch.candidate(ctx, seq, pos_of, assign, j);
        scratch.row.push((
            j,
            FactorBreakdown {
                sr,
                cr,
                enr,
                cif,
                dpf,
            },
        ));
    }
    scratch.end_row(seq, assign);
    scratch.row.reverse();
    &scratch.row
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
    /// Task-indexed "fixed in E" flags (only used by the carry-disabled
    /// bench baseline; carried sweeps own their flags in [`DpfScratch`]).
    fixed_in_e: Vec<bool>,
}

/// `ChooseDesignPoints` (Fig. 1): positional assignment for `seq` within the
/// window `[ws ..= m−1]`, left in `buffers.choose.assign`.
///
/// The sweep carries its row state incrementally from row to row (see
/// [`DpfScratch`] and [`RowBases`]) and scores every candidate column of
/// every row; results are bit-identical to the retained naive reference.
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
        choose,
        carry_disabled,
        sweep_prof,
        ..
    } = buffers;
    let ChooseBuffers {
        assign,
        pos_of,
        fixed_in_e,
    } = choose;
    assign.clear();
    assign.resize(n, m - 1);
    pos_of.clear();
    pos_of.resize(tasks, usize::MAX);
    for (pos, &t) in seq.iter().enumerate() {
        pos_of[t.index()] = pos;
    }

    // The paper fixes the last task to the lowest-power design point
    // outright. Taken literally that makes deadlines between CT(ws) and
    // CT(ws) + D(n, m−1) − D(n, ws) spuriously infeasible, so we pin the
    // last task to the *leanest column that keeps the all-`ws` fallback
    // feasible* — identical to the paper's rule whenever the deadline has
    // any slack (see DESIGN.md §4).
    let others_at_ws: f64 = seq[..n - 1].iter().map(|&t| ctx.d(t, ws)).sum();
    let mut last_col = m - 1;
    while last_col > ws && others_at_ws + ctx.d(seq[n - 1], last_col) > d + TIME_EPS {
        last_col -= 1;
    }
    assign[n - 1] = last_col;
    let mut tsum = ctx.d(seq[n - 1], last_col);

    if *carry_disabled {
        // Carry-disabled baseline (bench-only): fresh O(n) row preparation
        // per position — the pre-carry kernel.
        fixed_in_e.clear();
        fixed_in_e.resize(tasks, false);
        fixed_in_e[seq[n - 1].index()] = true;
        for i in (0..n.saturating_sub(1)).rev() {
            sweep_prof.rows_full += 1;
            let row = suitability_row(ctx, seq, pos_of, assign, fixed_in_e, tsum, i, ws, scratch);
            let mut best: Option<(usize, f64)> = None;
            for &(j, fb) in row {
                let b = fb.total(ctx.mask);
                // Strict '<' keeps the first (leanest) column on ties,
                // matching the paper's scan order m → ws.
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
        }
        return Ok(());
    }

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
    let mut col_ip1 = assign[first + 1];

    for i in (0..=first).rev() {
        scratch.begin_row_carried(ctx, seq, i, bases, rising0, col_ip1);
        sweep_prof.rows_full += 1;
        let mut best: Option<(usize, f64)> = None;
        // Candidates ascending so the repair journal extends
        // monotonically; `<=` keeps the leanest (largest) column on
        // ties, matching the paper's descending scan.
        for j in ws..m {
            let ttemp = tsum + ctx.d(seq[i], j);
            let sr = (d - ttemp) / d;
            let cr = ctx
                .stats
                .current_ratio(batsched_battery::units::MilliAmps::new(ctx.i(seq[i], j)));
            let (enr, cif, dpf) = scratch.sweep_candidate(ctx, seq, pos_of, j);
            let b = FactorBreakdown {
                sr,
                cr,
                enr,
                cif,
                dpf,
            }
            .total(ctx.mask);
            if best.is_none_or(|(_, bb)| b <= bb) {
                best = Some((j, b));
            }
        }
        let (j, b) = best.expect("window contains at least one column");
        if !b.is_finite() {
            return Err(SchedulerError::WindowSearchFailed { window_start: ws });
        }
        assign[i] = j;
        tsum += ctx.d(seq[i], j);
        if i > 0 {
            // Advance the carried chain to row i−1: the committed pair
            // (i, i+1) enters the journalled rising count, the free pair
            // (i−2, i−1) leaves (it becomes tagged-adjacent), the journal
            // prefix below the new tagged task's energy rank is kept, and
            // the base sums move through the shared RowBases chain.
            rising0 += (ctx.i(seq[i], assign[i]) < ctx.i(seq[i + 1], assign[i + 1])) as i32;
            if i >= 2 {
                rising0 -=
                    (ctx.i(seq[i - 2], assign[i - 2]) < ctx.i(seq[i - 1], assign[i - 1])) as i32;
            }
            bases.carry_down(ctx, seq, i, j, assign[i - 1]);
            scratch.advance_row(ctx, seq, i);
            col_ip1 = assign[i];
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

/// The retained naive `CalculateDPF` of a *sweep* row: same clone-and-
/// rescan structure as [`calculate_dpf_reference_with`], but the makespan
/// and energy accumulate in the sweep kernel's run arithmetic — a
/// run-boundary sum plus the current task's in-run cumulative sum,
/// `te = base + (r_sum + cum)` re-evaluated after every single promotion.
/// In a sweep every free task starts at column `m−1`, so the repair loop
/// has run structure (the first free task is promoted until it fixes at
/// the floor, then the next starts) and this arithmetic is exactly the
/// per-step walk of the kernel's binary-searched chains: bit-identical by
/// construction.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CalculateDPF state
fn calculate_dpf_reference_sweep(
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
        debug_assert!(c > ws, "free tasks never sit below the window start");
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
        (d - te) / d
    } else {
        let width_minus1 = m - 1 - ws;
        if width_minus1 == 0 {
            0.0
        } else {
            let factor = 1.0 / width_minus1 as f64;
            let mut dpf = 0.0;
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
/// (per-candidate clones and scans via [`calculate_dpf_reference_sweep`]),
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
            let (enr, cif, dpf) = calculate_dpf_reference_sweep(
                ctx,
                seq,
                &pos_of,
                &assign,
                &fixed_in_e,
                i,
                ws,
                bases,
            );
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
/// σ-engine scratch, and the window-search working state (the incremental
/// DPF kernel's journal + prefix sums and the `ChooseDesignPoints`
/// assignment buffers). One allocation
/// set per scheduling run — and zero steady-state allocations when reused
/// across runs via [`SolverWorkspace`](crate::algorithm::SolverWorkspace).
#[derive(Debug, Clone, Default)]
pub struct EvalBuffers {
    pub(crate) entries: Vec<u32>,
    pub(crate) sigma: SigmaScratch,
    pub(crate) dpf: DpfScratch,
    pub(crate) choose: ChooseBuffers,
    pub(crate) carry_disabled: bool,
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
            sigma_evals,
            sigma_reused,
            sigma_fresh,
            ..self.sweep_prof
        }
    }

    /// Disables the cross-row carry, forcing the fresh per-row
    /// preparation path. Bench-only: this is how `repro_bench_json`
    /// reconstructs the pre-carry baseline for `speedup.row_carry`. The
    /// disabled path accumulates its row sums per row instead of carrying
    /// them, so its results can differ from the carried path in final-bit
    /// float association (both are internally consistent).
    #[doc(hidden)]
    pub fn disable_sweep_carry(&mut self) {
        self.carry_disabled = true;
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

/// Diagnostic entry point: one `CalculateDPF` call on an explicit state.
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
    calculate_dpf(&ctx, seq, &pos_of, stemp, &fixed, i, ws)
}

/// A prepared window-search context with reusable buffers — the public
/// (doc-hidden) handle the equivalence proptests and `repro_bench_json`
/// use to drive `ChooseDesignPoints` and `CalculateDPF` in isolation,
/// both through the incremental [`DpfScratch`] kernel and through the
/// retained naive reference.
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

    /// `ChooseDesignPoints` through the incremental kernel (positional
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

    /// One `CalculateDPF` call through the incremental kernel on an
    /// explicit snapshot (see [`diag_calculate_dpf`] for the argument
    /// conventions).
    pub fn dpf(
        &mut self,
        seq: &[TaskId],
        stemp: &[usize],
        fixed_tasks: &[TaskId],
        i: usize,
        ws: usize,
    ) -> (f64, f64, f64) {
        let (pos_of, fixed) = self.diag_state(seq, fixed_tasks);
        calculate_dpf(&self.ctx, seq, &pos_of, stemp, &fixed, i, ws)
    }

    /// One `CalculateDPF` call through the retained naive reference.
    pub fn dpf_reference(
        &mut self,
        seq: &[TaskId],
        stemp: &[usize],
        fixed_tasks: &[TaskId],
        i: usize,
        ws: usize,
    ) -> (f64, f64, f64) {
        let (pos_of, fixed) = self.diag_state(seq, fixed_tasks);
        calculate_dpf_reference(&self.ctx, seq, &pos_of, stemp, &fixed, i, ws)
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

    /// Disables the cross-row carry in this handle's
    /// buffers (the bench baseline; see [`EvalBuffers::disable_sweep_carry`]).
    pub fn disable_sweep_carry(&mut self) {
        self.buffers.disable_sweep_carry();
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

    fn diag_state(&self, seq: &[TaskId], fixed_tasks: &[TaskId]) -> (Vec<usize>, Vec<bool>) {
        let mut pos_of = vec![usize::MAX; self.ctx.g.task_count()];
        for (pos, &t) in seq.iter().enumerate() {
            pos_of[t.index()] = pos;
        }
        let mut fixed = vec![false; self.ctx.g.task_count()];
        for &t in fixed_tasks {
            fixed[t.index()] = true;
        }
        (pos_of, fixed)
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
        let (_enr, _cif, dpf) = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
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
        let (_, _, dpf) = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
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
        let (_, _, dpf) = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, 0, 0);
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
        let (_enr, _cif, dpf) = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
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
        // Every (deadline, window, position) of the Figure 4 fixture: the
        // incremental kernel and the retained naive reference must agree
        // bit-for-bit on assignments and factor triples.
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
    fn calculate_dpf_matches_reference_on_explicit_states() {
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        for deadline in [9.0, 18.0, 26.0, 40.0] {
            let ctx = ctx_for(&g, deadline, &cfg);
            for (stemp, fixed, i) in [
                (
                    vec![3, 3, 1, 0, 3],
                    vec![false, false, false, true, true],
                    2,
                ),
                (
                    vec![3, 3, 0, 0, 0],
                    vec![false, false, false, true, true],
                    2,
                ),
                (vec![2, 3, 3, 3, 3], vec![false, true, true, true, true], 0),
                (
                    vec![3, 2, 1, 0, 3],
                    vec![false, false, false, false, true],
                    3,
                ),
                (
                    vec![3, 3, 3, 3, 3],
                    vec![false, false, false, false, false],
                    4,
                ),
            ] {
                for ws in 0..2usize {
                    // Free tasks must sit above the window start (the
                    // repair-loop invariant both implementations assert).
                    let legal = stemp
                        .iter()
                        .enumerate()
                        .all(|(pos, &col)| pos == i || fixed[pos] || col > ws);
                    if !legal {
                        continue;
                    }
                    let a = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, i, ws);
                    let b = calculate_dpf_reference(&ctx, &seq, &pos_of, &stemp, &fixed, i, ws);
                    assert_eq!(a, b, "d={deadline} i={i} ws={ws} stemp={stemp:?}");
                }
            }
        }
    }

    #[test]
    fn suitability_row_buffer_matches_per_candidate_wrapper() {
        // The shared-journal row must equal candidate-at-a-time one-shot
        // calls (which rebuild the journal from scratch every time).
        let g = figure4_graph();
        let cfg = SchedulerConfig::default();
        let ctx = ctx_for(&g, 26.0, &cfg);
        let seq: Vec<TaskId> = (0..5).map(TaskId).collect();
        let pos_of: Vec<usize> = (0..5).collect();
        let mut assign = vec![3, 3, 3, 0, 3];
        let snapshot = assign.clone();
        let fixed = vec![false, false, false, true, true];
        let mut scratch = DpfScratch::default();
        let tsum = ctx.d(TaskId(3), 0) + ctx.d(TaskId(4), 3);
        let row: Vec<(usize, FactorBreakdown)> = suitability_row(
            &ctx,
            &seq,
            &pos_of,
            &mut assign,
            &fixed,
            tsum,
            2,
            0,
            &mut scratch,
        )
        .to_vec();
        assert_eq!(assign, snapshot, "end_row must roll the journal back");
        assert_eq!(row.len(), 4);
        for &(j, fb) in &row {
            let mut stemp = snapshot.clone();
            stemp[2] = j;
            let (enr, cif, dpf) = calculate_dpf(&ctx, &seq, &pos_of, &stemp, &fixed, 2, 0);
            assert_eq!((fb.enr, fb.cif, fb.dpf), (enr, cif, dpf), "col {j}");
        }
        // Descending candidate order, matching the paper's scan.
        assert_eq!(
            row.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
            [3, 2, 1, 0]
        );
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
