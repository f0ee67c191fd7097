//! The application model: a DAG of tasks, each with `m` design points.
//!
//! Matches the paper's conventions exactly:
//!
//! * design points of each task are stored with execution times **ascending**
//!   (matrix `D`) and currents **descending** (matrix `I`) — index `0` is
//!   the fastest/hungriest option ("DP1"), index `m−1` the slowest/leanest
//!   ("DPm");
//! * every task has the same number of design points `m`;
//! * edges denote data/control precedence; the graph must be acyclic.
//!
//! ```
//! use batsched_taskgraph::prelude::*;
//!
//! let mut b = TaskGraph::builder();
//! let a = b.task("A", vec![
//!     DesignPoint::new(MilliAmps::new(500.0), Minutes::new(2.0)),
//!     DesignPoint::new(MilliAmps::new(100.0), Minutes::new(5.0)),
//! ]);
//! let c = b.task("C", vec![
//!     DesignPoint::new(MilliAmps::new(400.0), Minutes::new(1.0)),
//!     DesignPoint::new(MilliAmps::new(80.0), Minutes::new(3.0)),
//! ]);
//! b.edge(a, c);
//! let g = b.build()?;
//! assert_eq!(g.task_count(), 2);
//! assert_eq!(g.point_count(), 2);
//! # Ok::<(), batsched_taskgraph::graph::TaskGraphError>(())
//! ```

use crate::design_point::DesignPoint;
use batsched_battery::units::{MilliAmps, Minutes};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a task in its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Index of a design point within a task (0 = fastest, `m−1` = leanest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PointId(pub usize);

impl PointId {
    /// The underlying column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 1-based in displays to match the paper's "DP1..DPm".
        write!(f, "DP{}", self.0 + 1)
    }
}

/// Errors produced while building or validating a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskGraphError {
    /// The graph has no tasks.
    Empty,
    /// A task has no design points.
    NoDesignPoints {
        /// Name of the offending task.
        task: String,
    },
    /// Tasks disagree on the number of design points.
    NonUniformPointCount {
        /// Name of the offending task.
        task: String,
        /// Point count the graph uses.
        expected: usize,
        /// Point count this task declared.
        found: usize,
    },
    /// A design point has a non-positive duration or negative current.
    InvalidDesignPoint {
        /// Name of the offending task.
        task: String,
        /// Index of the offending point.
        index: usize,
    },
    /// After sorting by duration, currents were not non-increasing — the
    /// point set is not a Pareto frontier. Pre-process with
    /// [`crate::design_point::pareto_filter`].
    NonMonotoneCurrents {
        /// Name of the offending task.
        task: String,
    },
    /// An edge references a task id that does not exist.
    UnknownTask {
        /// The unknown id.
        id: usize,
    },
    /// A serialised graph listed the same edge twice. The [`TaskGraphBuilder`]
    /// deduplicates programmatic edges, but interchange documents must list
    /// each edge exactly once — a repeat almost always means a generator bug
    /// upstream, and untrusted service input must not mask it.
    DuplicateEdge {
        /// Source task index of the repeated edge.
        from: usize,
        /// Target task index of the repeated edge.
        to: usize,
    },
    /// A task depends on itself.
    SelfLoop {
        /// Name of the offending task.
        task: String,
    },
    /// The precedence relation contains a cycle through the named task.
    Cycle {
        /// A task on the cycle.
        task: String,
    },
}

impl fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "task graph has no tasks"),
            Self::NoDesignPoints { task } => write!(f, "task {task} has no design points"),
            Self::NonUniformPointCount { task, expected, found } => write!(
                f,
                "task {task} has {found} design points but the graph uses {expected}"
            ),
            Self::InvalidDesignPoint { task, index } => {
                write!(f, "design point {index} of task {task} is invalid")
            }
            Self::NonMonotoneCurrents { task } => write!(
                f,
                "design points of task {task} are not a pareto frontier (currents must fall as durations grow)"
            ),
            Self::UnknownTask { id } => write!(f, "edge references unknown task id {id}"),
            Self::DuplicateEdge { from, to } => write!(
                f,
                "edge ({from}, {to}) is listed more than once (serialised graphs must list each edge exactly once)"
            ),
            Self::SelfLoop { task } => write!(f, "task {task} depends on itself"),
            Self::Cycle { task } => write!(f, "precedence cycle detected through task {task}"),
        }
    }
}

impl std::error::Error for TaskGraphError {}

/// One task: a name plus its design-point row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Human-readable task name (unique names are recommended, not enforced).
    pub name: String,
    /// Design points sorted by ascending duration / descending current.
    pub points: Vec<DesignPoint>,
}

/// A validated directed acyclic task graph with uniform design-point count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawTaskGraph", into = "RawTaskGraph")]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    preds: Adjacency,
    succs: Adjacency,
    point_count: usize,
}

/// One precedence relation in compressed sparse row form: the neighbours
/// of task `i` are `targets[offsets[i]..offsets[i + 1]]`, ascending. Two
/// allocations per relation, whatever the task count.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<TaskId>,
}

impl Adjacency {
    fn row(&self, i: usize) -> &[TaskId] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }
}

impl TaskGraph {
    /// Starts building a graph.
    pub fn builder() -> TaskGraphBuilder {
        TaskGraphBuilder::default()
    }

    /// Number of tasks `n`.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of design points per task `m` (uniform by construction).
    pub fn point_count(&self) -> usize {
        self.point_count
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// The task node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this graph never are).
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.0]
    }

    /// The task's name.
    pub fn name(&self, id: TaskId) -> &str {
        &self.tasks[id.0].name
    }

    /// The design point `point` of task `id`.
    pub fn point(&self, id: TaskId, point: PointId) -> &DesignPoint {
        &self.tasks[id.0].points[point.0]
    }

    /// Execution time `D[i][j]`.
    pub fn duration(&self, id: TaskId, point: PointId) -> Minutes {
        self.point(id, point).duration
    }

    /// Current `I[i][j]`.
    pub fn current(&self, id: TaskId, point: PointId) -> MilliAmps {
        self.point(id, point).current
    }

    /// Direct predecessors (parents) of `id`.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        self.preds.row(id.0)
    }

    /// Direct successors (children) of `id`.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        self.succs.row(id.0)
    }

    /// All edges as `(from, to)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.task_ids()
            .flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// Number of edges `e`.
    pub fn edge_count(&self) -> usize {
        self.succs.targets.len()
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.preds(t).is_empty())
            .collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.succs(t).is_empty())
            .collect()
    }

    /// Looks a task up by name (linear scan; graphs here are small).
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// Builds a graph from pre-assembled parts — the one validation pass,
    /// shared by the serde path, [`crate::io`]'s typed parser and
    /// [`TaskGraphBuilder::build`]. With `reject_duplicate_edges`, a
    /// repeated `(from, to)` pair is a [`TaskGraphError::DuplicateEdge`]
    /// instead of being silently folded (the builder's behaviour for
    /// programmatic construction).
    ///
    /// Checks run in a fixed order, so the error reported for an input
    /// with several faults is always the same: duplicate edges (the first
    /// repeat in list order), then the tasks in index order, then the
    /// edges' endpoints in list order, then cycles.
    ///
    /// # Errors
    ///
    /// Every [`TaskGraphError`] variant is reachable.
    pub fn from_parts(
        mut tasks: Vec<TaskNode>,
        edges: Vec<(usize, usize)>,
        reject_duplicate_edges: bool,
    ) -> Result<TaskGraph, TaskGraphError> {
        // Edges sorted by (from, to, list index): repeats are adjacent, and
        // every adjacency list below comes out ascending.
        let mut sorted: Vec<(usize, usize, usize)> = edges
            .iter()
            .enumerate()
            .map(|(k, &(u, v))| (u, v, k))
            .collect();
        sorted.sort_unstable();
        if reject_duplicate_edges {
            // The first repeat in list order is the smallest index among
            // the non-first members of every equal-pair group.
            let first_repeat = sorted
                .windows(2)
                .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
                .map(|w| w[1].2)
                .min();
            if let Some(k) = first_repeat {
                let (from, to) = edges[k];
                return Err(TaskGraphError::DuplicateEdge { from, to });
            }
        }
        if tasks.is_empty() {
            return Err(TaskGraphError::Empty);
        }
        let point_count = tasks[0].points.len();
        for t in &mut tasks {
            if t.points.is_empty() {
                return Err(TaskGraphError::NoDesignPoints {
                    task: t.name.clone(),
                });
            }
            if t.points.len() != point_count {
                return Err(TaskGraphError::NonUniformPointCount {
                    task: t.name.clone(),
                    expected: point_count,
                    found: t.points.len(),
                });
            }
            for (i, p) in t.points.iter().enumerate() {
                if !p.is_valid() {
                    return Err(TaskGraphError::InvalidDesignPoint {
                        task: t.name.clone(),
                        index: i,
                    });
                }
            }
            t.points.sort_by(|a, b| {
                batsched_battery::units::total_cmp(a.duration.value(), b.duration.value())
            });
            let monotone = t
                .points
                .windows(2)
                .all(|w| w[0].current.value() >= w[1].current.value());
            if !monotone {
                return Err(TaskGraphError::NonMonotoneCurrents {
                    task: t.name.clone(),
                });
            }
        }

        let n = tasks.len();
        for &(u, v) in &edges {
            if u >= n {
                return Err(TaskGraphError::UnknownTask { id: u });
            }
            if v >= n {
                return Err(TaskGraphError::UnknownTask { id: v });
            }
            if u == v {
                return Err(TaskGraphError::SelfLoop {
                    task: tasks[u].name.clone(),
                });
            }
        }
        sorted.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut succ_offsets = vec![0usize; n + 1];
        let mut pred_offsets = vec![0usize; n + 1];
        for &(u, v, _) in &sorted {
            succ_offsets[u + 1] += 1;
            pred_offsets[v + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
            pred_offsets[i + 1] += pred_offsets[i];
        }
        // Successors are the sorted list's targets; predecessors come from
        // a stable counting sort of it by target, so each row ascends.
        let succs = Adjacency {
            targets: sorted.iter().map(|&(_, v, _)| TaskId(v)).collect(),
            offsets: succ_offsets,
        };
        let mut pred_targets = vec![TaskId(0); sorted.len()];
        let mut next = pred_offsets.clone();
        for &(u, v, _) in &sorted {
            pred_targets[next[v]] = TaskId(u);
            next[v] += 1;
        }
        let preds = Adjacency {
            offsets: pred_offsets,
            targets: pred_targets,
        };

        // Kahn's algorithm detects cycles.
        let mut indeg: Vec<usize> = (0..n).map(|v| preds.row(v).len()).collect();
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut visited = 0usize;
        while let Some(u) = queue.pop() {
            visited += 1;
            for &TaskId(v) in succs.row(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if visited != n {
            let culprit = indeg.iter().position(|&d| d > 0).unwrap_or(0);
            return Err(TaskGraphError::Cycle {
                task: tasks[culprit].name.clone(),
            });
        }

        Ok(TaskGraph {
            tasks,
            preds,
            succs,
            point_count,
        })
    }
}

/// Incremental builder for [`TaskGraph`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    tasks: Vec<TaskNode>,
    edges: Vec<(usize, usize)>,
}

impl TaskGraphBuilder {
    /// Adds a task with its design points (any order; they are sorted by
    /// ascending duration at build time) and returns its id.
    pub fn task(&mut self, name: impl Into<String>, points: Vec<DesignPoint>) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(TaskNode {
            name: name.into(),
            points,
        });
        id
    }

    /// Declares that `to` depends on `from` (duplicates are deduplicated at
    /// build time).
    pub fn edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.edges.push((from.0, to.0));
        self
    }

    /// Declares several parents for one task.
    pub fn parents(&mut self, to: TaskId, from: impl IntoIterator<Item = TaskId>) -> &mut Self {
        for f in from {
            self.edge(f, to);
        }
        self
    }

    /// Validates and produces the graph (the builder stays reusable).
    ///
    /// # Errors
    ///
    /// Every [`TaskGraphError`] variant except
    /// [`TaskGraphError::DuplicateEdge`] is reachable; see its docs.
    pub fn build(&self) -> Result<TaskGraph, TaskGraphError> {
        TaskGraph::from_parts(self.tasks.clone(), self.edges.clone(), false)
    }
}

/// Serde-facing representation without invariants.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RawTaskGraph {
    tasks: Vec<TaskNode>,
    edges: Vec<(usize, usize)>,
}

impl From<TaskGraph> for RawTaskGraph {
    fn from(g: TaskGraph) -> Self {
        let edges = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        Self {
            tasks: g.tasks,
            edges,
        }
    }
}

impl TryFrom<RawTaskGraph> for TaskGraph {
    type Error = TaskGraphError;

    fn try_from(raw: RawTaskGraph) -> Result<Self, Self::Error> {
        // Serialised graphs are interchange documents (often untrusted):
        // duplicate edges are rejected rather than deduplicated.
        TaskGraph::from_parts(raw.tasks, raw.edges, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_point::DesignPoint;

    fn dp(current: f64, duration: f64) -> DesignPoint {
        DesignPoint::new(MilliAmps::new(current), Minutes::new(duration))
    }

    fn two_points() -> Vec<DesignPoint> {
        vec![dp(100.0, 1.0), dp(40.0, 2.0)]
    }

    #[test]
    fn builds_a_diamond() {
        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        let x = b.task("X", two_points());
        let y = b.task("Y", two_points());
        let z = b.task("Z", two_points());
        b.edge(a, x).edge(a, y);
        b.parents(z, [x, y]);
        let g = b.build().unwrap();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![z]);
        assert_eq!(g.preds(z), &[x, y]);
        assert_eq!(g.succs(a), &[x, y]);
        assert_eq!(g.find("Y"), Some(y));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            TaskGraph::builder().build().unwrap_err(),
            TaskGraphError::Empty
        );
    }

    #[test]
    fn no_points_rejected() {
        let mut b = TaskGraph::builder();
        b.task("A", vec![]);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::NoDesignPoints { .. }
        ));
    }

    #[test]
    fn non_uniform_m_rejected() {
        let mut b = TaskGraph::builder();
        b.task("A", two_points());
        b.task("B", vec![dp(10.0, 1.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::NonUniformPointCount {
                expected: 2,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn invalid_point_rejected() {
        let mut b = TaskGraph::builder();
        b.task("A", vec![dp(10.0, 0.0), dp(5.0, 1.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::InvalidDesignPoint { index: 0, .. }
        ));
    }

    #[test]
    fn points_sorted_and_pareto_enforced() {
        let mut b = TaskGraph::builder();
        // Given slow-first; builder must sort by duration.
        b.task("A", vec![dp(40.0, 2.0), dp(100.0, 1.0)]);
        let g = b.build().unwrap();
        assert_eq!(g.duration(TaskId(0), PointId(0)), Minutes::new(1.0));
        assert_eq!(g.current(TaskId(0), PointId(0)), MilliAmps::new(100.0));

        let mut b = TaskGraph::builder();
        // Slower AND hungrier: not a pareto frontier.
        b.task("A", vec![dp(100.0, 1.0), dp(120.0, 2.0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::NonMonotoneCurrents { .. }
        ));
    }

    #[test]
    fn self_loop_and_cycle_rejected() {
        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        b.edge(a, a);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::SelfLoop { .. }
        ));

        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        let c = b.task("B", two_points());
        b.edge(a, c).edge(c, a);
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::Cycle { .. }
        ));
    }

    #[test]
    fn unknown_task_rejected() {
        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        b.edge(a, TaskId(7));
        assert!(matches!(
            b.build().unwrap_err(),
            TaskGraphError::UnknownTask { id: 7 }
        ));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        let c = b.task("B", two_points());
        b.edge(a, c).edge(a, c).edge(a, c);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn serde_rejects_duplicate_edges_builder_dedups() {
        // Programmatic path: folded silently (see duplicate_edges_are_deduplicated).
        // Interchange path: typed rejection.
        let json = r#"{
            "tasks": [
                {"name":"A","points":[{"duration":1.0,"current":10.0,"voltage":1.0}]},
                {"name":"B","points":[{"duration":1.0,"current":10.0,"voltage":1.0}]}
            ],
            "edges": [[0,1],[0,1]]
        }"#;
        let err = serde_json::from_str::<TaskGraph>(json).unwrap_err();
        assert!(err.to_string().contains("listed more than once"), "{err}");

        let nodes = vec![
            TaskNode {
                name: "A".into(),
                points: two_points(),
            },
            TaskNode {
                name: "B".into(),
                points: two_points(),
            },
        ];
        let edges = vec![(0usize, 1usize), (0, 1)];
        assert_eq!(
            TaskGraph::from_parts(nodes.clone(), edges.clone(), true).unwrap_err(),
            TaskGraphError::DuplicateEdge { from: 0, to: 1 }
        );
        let g = TaskGraph::from_parts(nodes, edges, false).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn from_parts_reports_faults_in_a_fixed_order() {
        let node = |name: &str, points| TaskNode {
            name: name.into(),
            points,
        };
        let nodes = || {
            vec![
                node("A", two_points()),
                node("B", two_points()),
                node("C", two_points()),
            ]
        };
        // The first repeat in list order wins, not the first pair repeated.
        let edges = vec![(0, 1), (1, 2), (1, 2), (0, 1)];
        assert_eq!(
            TaskGraph::from_parts(nodes(), edges, true).unwrap_err(),
            TaskGraphError::DuplicateEdge { from: 1, to: 2 }
        );
        // Repeats are reported before task faults and unknown ids.
        let edges = vec![(9, 9), (0, 1), (9, 9)];
        assert_eq!(
            TaskGraph::from_parts(vec![node("A", vec![])], edges.clone(), true).unwrap_err(),
            TaskGraphError::DuplicateEdge { from: 9, to: 9 }
        );
        assert_eq!(
            TaskGraph::from_parts(Vec::new(), edges, true).unwrap_err(),
            TaskGraphError::DuplicateEdge { from: 9, to: 9 }
        );
        // Task faults precede edge faults; edge faults go in list order.
        let edges = vec![(0, 1), (2, 2), (0, 7)];
        assert!(matches!(
            TaskGraph::from_parts(vec![node("A", vec![])], edges.clone(), true).unwrap_err(),
            TaskGraphError::NoDesignPoints { .. }
        ));
        assert_eq!(
            TaskGraph::from_parts(nodes(), edges, true).unwrap_err(),
            TaskGraphError::SelfLoop { task: "C".into() }
        );
        // Folded repeats still give sorted adjacency lists.
        let g =
            TaskGraph::from_parts(nodes(), vec![(1, 2), (0, 2), (1, 2), (0, 1)], false).unwrap();
        assert_eq!(g.preds(TaskId(2)), &[TaskId(0), TaskId(1)]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let mut b = TaskGraph::builder();
        let a = b.task("A", two_points());
        let c = b.task("B", two_points());
        b.edge(a, c);
        let g = b.build().unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn serde_rejects_invalid_graphs() {
        // A cycle smuggled through the raw representation must fail.
        let json = r#"{
            "tasks": [
                {"name":"A","points":[{"duration":1.0,"current":10.0,"voltage":1.0}]},
                {"name":"B","points":[{"duration":1.0,"current":10.0,"voltage":1.0}]}
            ],
            "edges": [[0,1],[1,0]]
        }"#;
        assert!(serde_json::from_str::<TaskGraph>(json).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TaskId(3)), "#3");
        assert_eq!(format!("{}", PointId(0)), "DP1");
    }
}
