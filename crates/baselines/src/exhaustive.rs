//! Exact optimum by exhaustive enumeration — ground truth for small graphs.
//!
//! Enumerates every topological order and, for each, every deadline-feasible
//! design-point assignment (with partial-sum pruning), scoring each complete
//! schedule with the RV battery model. Exponential, so construction bounds
//! the search-space size.
//!
//! The assignment DFS varies the *deepest* positions fastest, so consecutive
//! complete schedules share long **prefixes** — exactly the access pattern
//! the σ engine's suffix cache cannot exploit. [`Exhaustive::best`]
//! therefore carries a [`PrefixSigma`] stack along the DFS: O(terms) work
//! per tree edge and per leaf, instead of an O(n·terms) full re-evaluation
//! plus a fresh assignment allocation per leaf. The pre-cache per-leaf
//! path is retained as [`Exhaustive::best_reference`], the equivalence
//! reference and bench baseline.

use crate::Scheduler;
use batsched_battery::eval::PrefixSigma;
use batsched_battery::rv::RvModel;
use batsched_battery::units::Minutes;
use batsched_core::schedule::{entry_id, graph_evaluator};
use batsched_core::{EngineCost, Schedule, SchedulerError};
use batsched_taskgraph::topo::for_each_topological_order;
use batsched_taskgraph::{PointId, TaskGraph, TaskId};

/// Brute-force optimal scheduler for small instances.
#[derive(Debug, Clone)]
pub struct Exhaustive {
    /// Maximum number of topological orders to visit.
    pub max_orders: usize,
    /// Maximum number of complete assignments to score per order.
    pub max_assignments_per_order: usize,
    /// Battery model used for scoring.
    pub model: RvModel,
}

impl Default for Exhaustive {
    fn default() -> Self {
        Self {
            max_orders: 50_000,
            max_assignments_per_order: 200_000,
            model: RvModel::date05(),
        }
    }
}

/// DFS state of the prefix-σ scoring path, hoisted out of the per-order
/// closure so nothing is allocated per order or per leaf.
struct PrefixDfs<'a> {
    g: &'a TaskGraph,
    eval: &'a batsched_battery::eval::SigmaEvaluator,
    pfx: PrefixSigma,
    assign: Vec<usize>,
    d: f64,
    m: usize,
    cap: usize,
    visited: usize,
    found: bool,
    best_cost: f64,
    best_order: Vec<TaskId>,
    best_assign: Vec<usize>,
}

impl PrefixDfs<'_> {
    fn dfs(&mut self, order: &[TaskId], suffix_min: &[f64], pos: usize, elapsed: f64) {
        if self.visited >= self.cap {
            return;
        }
        if pos == order.len() {
            self.visited += 1;
            let (cost, _) = self.pfx.sigma();
            if !self.found || cost.value() < self.best_cost {
                self.found = true;
                self.best_cost = cost.value();
                self.best_order.clear();
                self.best_order.extend_from_slice(order);
                self.best_assign.clear();
                self.best_assign
                    .extend_from_slice(&self.assign[..order.len()]);
            }
            return;
        }
        let t = order[pos];
        for j in 0..self.m {
            let dur = self.g.duration(t, PointId(j)).value();
            if elapsed + dur + suffix_min[pos + 1] <= self.d + 1e-9 {
                self.assign[pos] = j;
                self.pfx.push(self.eval, entry_id(t, self.m, PointId(j)));
                self.dfs(order, suffix_min, pos + 1, elapsed + dur);
                self.pfx.pop();
            }
        }
    }
}

/// One scoring path of the assignment DFS: `(g, d, min_dur, suffix_min)`
/// to the best `(order, assignment, cost)`, if any leaf fits.
type ScoringPath = fn(
    &Exhaustive,
    &TaskGraph,
    f64,
    &[f64],
    &mut [f64],
) -> Option<(Vec<TaskId>, Vec<PointId>, f64)>;

impl Exhaustive {
    /// True optimum cost alongside the schedule (handy for assertions).
    ///
    /// # Errors
    ///
    /// [`SchedulerError::InvalidDeadline`] for a non-positive or non-finite
    /// deadline; [`SchedulerError::DeadlineInfeasible`] when nothing fits.
    pub fn best(
        &self,
        g: &TaskGraph,
        deadline: Minutes,
    ) -> Result<(Schedule, f64), SchedulerError> {
        self.solve(g, deadline, Self::best_prefix)
    }

    /// [`Self::best`] through the retained per-leaf scoring path — the
    /// equivalence reference and the `exhaustive_speedup` baseline.
    ///
    /// # Errors
    ///
    /// As [`Self::best`].
    #[doc(hidden)]
    pub fn best_reference(
        &self,
        g: &TaskGraph,
        deadline: Minutes,
    ) -> Result<(Schedule, f64), SchedulerError> {
        self.solve(g, deadline, Self::best_per_leaf)
    }

    fn solve(
        &self,
        g: &TaskGraph,
        deadline: Minutes,
        path: ScoringPath,
    ) -> Result<(Schedule, f64), SchedulerError> {
        if !(deadline.is_finite() && deadline.value() > 0.0) {
            return Err(SchedulerError::InvalidDeadline { deadline });
        }
        let n = g.task_count();
        let d = deadline.value();
        // Cheapest remaining time per suffix for pruning.
        let min_dur: Vec<f64> = g
            .task_ids()
            .map(|t| g.duration(t, PointId(0)).value())
            .collect();
        let mut suffix_min = vec![0.0; n + 1];

        match path(self, g, d, &min_dur, &mut suffix_min) {
            Some((order, assignment, cost)) => Ok((Schedule::new(order, assignment), cost)),
            None => Err(SchedulerError::DeadlineInfeasible {
                fastest: batsched_taskgraph::analysis::min_makespan(g),
                deadline,
            }),
        }
    }

    /// The prefix-σ scoring path: push/pop the DFS edge's entry, read a
    /// complete schedule's σ off the stack top in O(terms).
    fn best_prefix(
        &self,
        g: &TaskGraph,
        d: f64,
        min_dur: &[f64],
        suffix_min: &mut [f64],
    ) -> Option<(Vec<TaskId>, Vec<PointId>, f64)> {
        let n = g.task_count();
        let eval = graph_evaluator(g, &self.model);
        let mut state = PrefixDfs {
            g,
            eval: &eval,
            pfx: PrefixSigma::new(),
            assign: vec![0; n],
            d,
            m: g.point_count(),
            cap: self.max_assignments_per_order,
            visited: 0,
            found: false,
            best_cost: f64::INFINITY,
            best_order: Vec::with_capacity(n),
            best_assign: Vec::with_capacity(n),
        };
        for_each_topological_order(g, self.max_orders, |order| {
            for i in (0..n).rev() {
                suffix_min[i] = suffix_min[i + 1] + min_dur[order[i].index()];
            }
            state.visited = 0;
            state.dfs(order, suffix_min, 0, 0.0);
            debug_assert_eq!(state.pfx.depth(), 0, "DFS unwinds the prefix stack");
        });
        if !state.found {
            return None;
        }
        let mut assignment = vec![PointId(0); n];
        for (p, &t) in state.best_order.iter().enumerate() {
            assignment[t.index()] = PointId(state.best_assign[p]);
        }
        Some((state.best_order, assignment, state.best_cost))
    }

    /// The retained pre-cache scoring path: per-leaf task-indexed
    /// assignment construction plus a full suffix-engine evaluation.
    fn best_per_leaf(
        &self,
        g: &TaskGraph,
        d: f64,
        min_dur: &[f64],
        suffix_min: &mut [f64],
    ) -> Option<(Vec<TaskId>, Vec<PointId>, f64)> {
        let n = g.task_count();
        let m = g.point_count();
        let mut best: Option<(Vec<TaskId>, Vec<PointId>, f64)> = None;
        let mut engine = EngineCost::new(g, &self.model);

        for_each_topological_order(g, self.max_orders, |order| {
            for i in (0..n).rev() {
                suffix_min[i] = suffix_min[i + 1] + min_dur[order[i].index()];
            }
            let mut assign = vec![0usize; n];
            let mut visited = 0usize;
            #[allow(clippy::too_many_arguments)]
            fn dfs(
                g: &TaskGraph,
                engine: &mut EngineCost,
                order: &[TaskId],
                suffix_min: &[f64],
                d: f64,
                m: usize,
                pos: usize,
                elapsed: f64,
                assign: &mut Vec<usize>,
                visited: &mut usize,
                cap: usize,
                best: &mut Option<(Vec<TaskId>, Vec<PointId>, f64)>,
            ) {
                if *visited >= cap {
                    return;
                }
                if pos == order.len() {
                    *visited += 1;
                    let assignment: Vec<PointId> = {
                        let mut v = vec![PointId(0); order.len()];
                        for (p, &t) in order.iter().enumerate() {
                            v[t.index()] = PointId(assign[p]);
                        }
                        v
                    };
                    let (cost, _) = engine.cost(order, &assignment);
                    if best.as_ref().is_none_or(|&(_, _, c)| cost.value() < c) {
                        *best = Some((order.to_vec(), assignment, cost.value()));
                    }
                    return;
                }
                let t = order[pos];
                for j in 0..m {
                    let dur = g.duration(t, PointId(j)).value();
                    if elapsed + dur + suffix_min[pos + 1] <= d + 1e-9 {
                        assign[pos] = j;
                        dfs(
                            g,
                            engine,
                            order,
                            suffix_min,
                            d,
                            m,
                            pos + 1,
                            elapsed + dur,
                            assign,
                            visited,
                            cap,
                            best,
                        );
                    }
                }
            }
            dfs(
                g,
                &mut engine,
                order,
                suffix_min,
                d,
                m,
                0,
                0.0,
                &mut assign,
                &mut visited,
                self.max_assignments_per_order,
                &mut best,
            );
        });
        best
    }
}

impl Scheduler for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn schedule(&self, g: &TaskGraph, deadline: Minutes) -> Result<Schedule, SchedulerError> {
        self.best(g, deadline).map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_battery::units::MilliAmps;
    use batsched_taskgraph::DesignPoint;

    fn dp(i: f64, d: f64) -> DesignPoint {
        DesignPoint::new(MilliAmps::new(i), Minutes::new(d))
    }

    /// Source + two independent middles + sink, 2 points each.
    fn small() -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.task("A", vec![dp(300.0, 1.0), dp(60.0, 2.5)]);
        let x = b.task("X", vec![dp(500.0, 2.0), dp(90.0, 4.0)]);
        let y = b.task("Y", vec![dp(150.0, 1.5), dp(40.0, 3.0)]);
        let z = b.task("Z", vec![dp(250.0, 1.0), dp(50.0, 2.0)]);
        b.edge(a, x).edge(a, y);
        b.parents(z, [x, y]);
        b.build().unwrap()
    }

    #[test]
    fn finds_a_valid_optimum() {
        let g = small();
        let d = Minutes::new(9.0);
        let (s, cost) = Exhaustive::default().best(&g, d).unwrap();
        s.validate(&g, Some(d)).unwrap();
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn optimum_never_beaten_by_heuristics() {
        use crate::{ChowdhuryScaling, KhanVemuri, RakhmatovDp};
        let g = small();
        let model = RvModel::date05();
        for d in [6.0, 8.0, 10.0, 11.5] {
            let dl = Minutes::new(d);
            let (_, opt) = Exhaustive::default().best(&g, dl).unwrap();
            for algo in [
                &KhanVemuri::paper() as &dyn Scheduler,
                &RakhmatovDp::default(),
                &ChowdhuryScaling,
            ] {
                let s = algo.schedule(&g, dl).unwrap();
                let c = s.battery_cost(&g, &model).value();
                assert!(
                    c >= opt - 1e-6,
                    "{} beat the optimum at d={d}: {c} < {opt}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn prefix_cache_matches_reference_path() {
        let g = small();
        for d in [5.5, 6.0, 8.0, 10.0, 11.5] {
            let dl = Minutes::new(d);
            let (fast, fc) = Exhaustive::default().best(&g, dl).unwrap();
            let (slow, sc) = Exhaustive::default().best_reference(&g, dl).unwrap();
            assert_eq!(fast, slow, "d={d}");
            assert!((fc - sc).abs() <= 1e-9 * sc.max(1.0), "d={d}: {fc} vs {sc}");
        }
    }

    #[test]
    fn infeasible_deadline_errors() {
        let g = small();
        let e = Exhaustive::default();
        for found in [
            e.best(&g, Minutes::new(4.0)),
            e.best_reference(&g, Minutes::new(4.0)),
        ] {
            assert!(matches!(
                found,
                Err(SchedulerError::DeadlineInfeasible { .. })
            ));
        }
    }

    #[test]
    fn tight_deadline_forces_the_fast_assignment() {
        let g = small();
        // Fastest total is 5.5.
        let (s, _) = Exhaustive::default().best(&g, Minutes::new(5.5)).unwrap();
        assert!(s.assignment().iter().all(|p| p.index() == 0));
    }
}
