//! The scheduler's output: an ordered, design-point-assigned task sequence.

use batsched_battery::model::BatteryModel;
use batsched_battery::profile::LoadProfile;
use batsched_battery::units::{MilliAmpMinutes, Minutes};
use batsched_taskgraph::{PointId, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Validation failures for a [`Schedule`] against its graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The order is not a topological permutation of the graph's tasks.
    NotTopological,
    /// The assignment vector length disagrees with the task count.
    AssignmentLength {
        /// The graph's task count.
        expected: usize,
        /// The assignment vector's length.
        found: usize,
    },
    /// An assignment references a design-point column that does not exist.
    PointOutOfRange {
        /// The offending task.
        task: TaskId,
        /// The nonexistent point.
        point: PointId,
    },
    /// The schedule finishes after the deadline.
    DeadlineViolated {
        /// When the schedule actually ends.
        makespan: Minutes,
        /// The deadline it had to meet.
        deadline: Minutes,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotTopological => write!(f, "order is not a topological permutation"),
            Self::AssignmentLength { expected, found } => {
                write!(
                    f,
                    "assignment has {found} entries, graph has {expected} tasks"
                )
            }
            Self::PointOutOfRange { task, point } => {
                write!(f, "task {task} assigned nonexistent design point {point}")
            }
            Self::DeadlineViolated { makespan, deadline } => {
                write!(f, "schedule ends at {makespan}, after deadline {deadline}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete scheduling decision: execution order plus one design point per
/// task (indexed by `TaskId`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    order: Vec<TaskId>,
    assignment: Vec<PointId>,
}

impl Schedule {
    /// Creates a schedule from an execution order and a task-indexed
    /// assignment. Invariants are checked by [`Schedule::validate`], kept
    /// separate so partially built schedules can be inspected in tests.
    pub fn new(order: Vec<TaskId>, assignment: Vec<PointId>) -> Self {
        Self { order, assignment }
    }

    /// Execution order (positions 0..n).
    pub fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// Task-indexed design-point assignment.
    pub fn assignment(&self) -> &[PointId] {
        &self.assignment
    }

    /// The design point task `t` runs at.
    pub fn point_of(&self, t: TaskId) -> PointId {
        self.assignment[t.index()]
    }

    /// Total sequential execution time. Order-independent: the sum of the
    /// chosen design points' durations.
    pub fn makespan(&self, g: &TaskGraph) -> Minutes {
        self.order
            .iter()
            .map(|&t| g.duration(t, self.point_of(t)))
            .sum()
    }

    /// Start time of every task in execution order.
    pub fn start_times(&self, g: &TaskGraph) -> Vec<(TaskId, Minutes)> {
        let mut clock = Minutes::ZERO;
        self.order
            .iter()
            .map(|&t| {
                let s = clock;
                clock += g.duration(t, self.point_of(t));
                (t, s)
            })
            .collect()
    }

    /// The discharge profile this schedule presents to the battery:
    /// back-to-back constant-current intervals from `t = 0`.
    pub fn to_profile(&self, g: &TaskGraph) -> LoadProfile {
        profile_of(g, &self.order, &self.assignment)
    }

    /// Battery cost of the schedule under `model`: apparent charge at the
    /// completion instant (the paper's `CalculateBatteryCost`).
    pub fn battery_cost<M: BatteryModel + ?Sized>(
        &self,
        g: &TaskGraph,
        model: &M,
    ) -> MilliAmpMinutes {
        let profile = self.to_profile(g);
        model.apparent_charge(&profile, profile.end())
    }

    /// Charge actually delivered (`Σ I·D`) — the ideal-battery cost.
    pub fn direct_charge(&self, g: &TaskGraph) -> MilliAmpMinutes {
        self.order
            .iter()
            .map(|&t| g.point(t, self.point_of(t)).charge())
            .sum()
    }

    /// Checks the schedule against its graph and an optional deadline.
    ///
    /// # Errors
    ///
    /// Any [`ScheduleError`]; the first problem found is reported.
    pub fn validate(&self, g: &TaskGraph, deadline: Option<Minutes>) -> Result<(), ScheduleError> {
        if self.assignment.len() != g.task_count() {
            return Err(ScheduleError::AssignmentLength {
                expected: g.task_count(),
                found: self.assignment.len(),
            });
        }
        for t in g.task_ids() {
            let p = self.point_of(t);
            if p.index() >= g.point_count() {
                return Err(ScheduleError::PointOutOfRange { task: t, point: p });
            }
        }
        if !batsched_taskgraph::topo::is_topological(g, &self.order) {
            return Err(ScheduleError::NotTopological);
        }
        if let Some(d) = deadline {
            let makespan = self.makespan(g);
            if makespan.value() > d.value() + 1e-9 {
                return Err(ScheduleError::DeadlineViolated {
                    makespan,
                    deadline: d,
                });
            }
        }
        Ok(())
    }

    /// Compact human-readable rendering: `T1@DP5 → T4@DP5 → …`.
    pub fn display<'a>(&'a self, g: &'a TaskGraph) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Schedule, &'a TaskGraph);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (k, &t) in self.0.order.iter().enumerate() {
                    if k > 0 {
                        write!(f, " → ")?;
                    }
                    write!(f, "{}@{}", self.1.name(t), self.0.point_of(t))?;
                }
                Ok(())
            }
        }
        D(self, g)
    }
}

/// Builds the back-to-back discharge profile of running `order` with the
/// task-indexed `assignment`, pre-sized to the exact interval count. The
/// single profile-construction path shared by [`Schedule::to_profile`] and
/// [`battery_cost_of`].
pub fn profile_of(g: &TaskGraph, order: &[TaskId], assignment_by_task: &[PointId]) -> LoadProfile {
    let mut p = LoadProfile::with_capacity(order.len());
    for &t in order {
        let pt = g.point(t, assignment_by_task[t.index()]);
        p.push(pt.duration, pt.current)
            .expect("validated design points are positive-duration");
    }
    p
}

/// Battery cost of running `order` with `assignment` — the free-function
/// form of [`Schedule::battery_cost`] used by tests and baselines that
/// score under an arbitrary [`BatteryModel`]. Returns `(cost, makespan)`.
/// RV-model hot loops should prefer [`EngineCost`], which skips the
/// profile construction and the exponentials entirely.
pub fn battery_cost_of<M: BatteryModel + ?Sized>(
    g: &TaskGraph,
    order: &[TaskId],
    assignment_by_task: &[PointId],
    model: &M,
) -> (MilliAmpMinutes, Minutes) {
    let p = profile_of(g, order, assignment_by_task);
    let end = p.end();
    (model.apparent_charge(&p, end), end)
}

/// A [`SigmaEvaluator`](batsched_battery::eval::SigmaEvaluator) bound to a
/// task graph's `(task, column)` design-point catalogue, bundled with its
/// reusable buffers: the allocation-free, exponential-free replacement for
/// repeated [`battery_cost_of`] calls in schedule-search inner loops.
///
/// The suffix cache inside makes consecutive evaluations of *similar*
/// schedules (one design-point swap, one adjacent transposition) pay only
/// for the changed prefix.
#[derive(Debug, Clone)]
pub struct EngineCost {
    eval: batsched_battery::eval::SigmaEvaluator,
    m: usize,
    entries: Vec<u32>,
    scratch: batsched_battery::eval::SigmaScratch,
}

/// Builds the σ-evaluation engine over `g`'s design-point catalogue. The
/// single definition of the entry scheme: entries are ordered
/// `task-major, column-minor`, so entry id = `task.index() * m + column`.
/// Everything constructing an evaluator for a graph must go through here —
/// a second copy of this mapping that drifted would silently score the
/// wrong design points.
pub fn graph_evaluator(
    g: &TaskGraph,
    model: &batsched_battery::rv::RvModel,
) -> batsched_battery::eval::SigmaEvaluator {
    batsched_battery::eval::SigmaEvaluator::new(
        model,
        g.task_ids()
            .flat_map(|t| g.task(t).points.iter().map(|p| (p.duration, p.current))),
    )
}

/// Catalogue entry id of `(task, column)` in an evaluator built by
/// [`graph_evaluator`] for a graph with `m` design points per task. The
/// only definition of the id formula — everything indexing into a
/// graph evaluator must go through here.
#[inline]
pub fn entry_id(task: TaskId, m: usize, column: PointId) -> u32 {
    (task.index() * m + column.index()) as u32
}

/// σ and makespan of (order, task-indexed assignment) through a graph
/// evaluator — the single map-to-entries-and-evaluate body shared by
/// [`EngineCost::cost`] and the window search's `SearchContext::cost_of`.
pub(crate) fn eval_assignment_cost(
    eval: &batsched_battery::eval::SigmaEvaluator,
    m: usize,
    order: &[TaskId],
    assignment_by_task: &[PointId],
    entries: &mut Vec<u32>,
    scratch: &mut batsched_battery::eval::SigmaScratch,
) -> (MilliAmpMinutes, Minutes) {
    entries.clear();
    entries.extend(
        order
            .iter()
            .map(|&t| entry_id(t, m, assignment_by_task[t.index()])),
    );
    eval.sigma_seq(entries, scratch)
}

impl EngineCost {
    /// Precomputes the engine tables for `g` under `model`.
    pub fn new(g: &TaskGraph, model: &batsched_battery::rv::RvModel) -> Self {
        Self {
            eval: graph_evaluator(g, model),
            m: g.point_count(),
            entries: Vec::with_capacity(g.task_count()),
            scratch: batsched_battery::eval::SigmaScratch::new(),
        }
    }

    /// Whether this engine was built over exactly `g`'s design-point
    /// catalogue (same entry order, bit-equal durations and currents).
    /// Lets a long-lived workspace reuse the engine — and skip its table
    /// build — when the same graph comes back (the model must be compared
    /// separately).
    pub fn catalogue_matches(&self, g: &TaskGraph) -> bool {
        self.m == g.point_count()
            && self.eval.catalogue_matches(
                g.task_ids()
                    .flat_map(|t| g.task(t).points.iter().map(|p| (p.duration, p.current))),
            )
    }

    /// σ and makespan of running `order` with the task-indexed
    /// `assignment`. Matches [`battery_cost_of`] under the same
    /// [`batsched_battery::rv::RvModel`] to ≤ 1e-9 relative error.
    pub fn cost(
        &mut self,
        order: &[TaskId],
        assignment_by_task: &[PointId],
    ) -> (MilliAmpMinutes, Minutes) {
        eval_assignment_cost(
            &self.eval,
            self.m,
            order,
            assignment_by_task,
            &mut self.entries,
            &mut self.scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_battery::ideal::CoulombCounter;
    use batsched_battery::rv::RvModel;
    use batsched_battery::units::MilliAmps;
    use batsched_taskgraph::DesignPoint;

    fn dp(current: f64, duration: f64) -> DesignPoint {
        DesignPoint::new(MilliAmps::new(current), Minutes::new(duration))
    }

    fn chain2() -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.task("A", vec![dp(100.0, 1.0), dp(40.0, 2.0)]);
        let c = b.task("B", vec![dp(200.0, 3.0), dp(10.0, 6.0)]);
        b.edge(a, c);
        b.build().unwrap()
    }

    #[test]
    fn makespan_and_profile() {
        let g = chain2();
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(1), PointId(0)]);
        assert_eq!(s.makespan(&g), Minutes::new(5.0));
        let p = s.to_profile(&g);
        assert_eq!(p.len(), 2);
        assert_eq!(p.intervals()[1].start, Minutes::new(2.0));
        assert_eq!(p.intervals()[1].current, MilliAmps::new(200.0));
        assert_eq!(
            s.direct_charge(&g),
            MilliAmpMinutes::new(40.0 * 2.0 + 200.0 * 3.0)
        );
    }

    #[test]
    fn start_times_accumulate() {
        let g = chain2();
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(0), PointId(0)]);
        let st = s.start_times(&g);
        assert_eq!(
            st,
            vec![(TaskId(0), Minutes::ZERO), (TaskId(1), Minutes::new(1.0))]
        );
    }

    #[test]
    fn battery_cost_matches_models() {
        let g = chain2();
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(0), PointId(0)]);
        assert_eq!(
            s.battery_cost(&g, &CoulombCounter::new()),
            s.direct_charge(&g)
        );
        let rv = RvModel::date05();
        assert!(s.battery_cost(&g, &rv).value() > s.direct_charge(&g).value());
        let (c, mk) = battery_cost_of(&g, s.order(), s.assignment(), &rv);
        assert_eq!(c, s.battery_cost(&g, &rv));
        assert_eq!(mk, s.makespan(&g));
    }

    #[test]
    fn validation_catches_everything() {
        let g = chain2();
        // Wrong order.
        let s = Schedule::new(vec![TaskId(1), TaskId(0)], vec![PointId(0), PointId(0)]);
        assert_eq!(
            s.validate(&g, None).unwrap_err(),
            ScheduleError::NotTopological
        );
        // Wrong assignment length.
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(0)]);
        assert!(matches!(
            s.validate(&g, None).unwrap_err(),
            ScheduleError::AssignmentLength {
                expected: 2,
                found: 1
            }
        ));
        // Bad point id.
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(9), PointId(0)]);
        assert!(matches!(
            s.validate(&g, None).unwrap_err(),
            ScheduleError::PointOutOfRange { .. }
        ));
        // Deadline violation.
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(1), PointId(1)]);
        assert!(matches!(
            s.validate(&g, Some(Minutes::new(5.0))).unwrap_err(),
            ScheduleError::DeadlineViolated { .. }
        ));
        // All good.
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(0), PointId(0)]);
        assert!(s.validate(&g, Some(Minutes::new(4.0))).is_ok());
    }

    #[test]
    fn display_renders_order_and_points() {
        let g = chain2();
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(1), PointId(0)]);
        assert_eq!(format!("{}", s.display(&g)), "A@DP2 → B@DP1");
    }

    #[test]
    fn serde_round_trip() {
        let s = Schedule::new(vec![TaskId(0), TaskId(1)], vec![PointId(1), PointId(0)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
