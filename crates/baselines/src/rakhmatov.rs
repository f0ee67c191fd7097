//! The Table 4 baseline: Rakhmatov & Vrudhula's energy-optimal
//! design-point selection plus greedy sequencing (TECS 2003).
//!
//! 1. **Design-point selection** — a dynamic program over discretised time
//!    (a multiple-choice knapsack): pick one design point per task so that
//!    the total execution time fits the deadline and the total energy is
//!    *minimal*. This is provably optimal for the energy objective — but
//!    energy-blind to *when* charge is drawn, which is exactly the weakness
//!    the DATE'05 paper exploits.
//! 2. **Sequencing** — the paper's eq. 5: list scheduling where a ready task
//!    `v` weighs `max{I_v, MeanI(G_v)}` (its own assigned current, or the
//!    mean assigned current of the subgraph rooted at it, whichever is
//!    larger) and the heaviest ready task runs first.

use crate::Scheduler;
use batsched_battery::units::Minutes;
use batsched_core::{Schedule, SchedulerError};
use batsched_taskgraph::topo::{list_schedule, DescendantSets};
use batsched_taskgraph::{EnergyMetric, PointId, TaskGraph, TaskId};

/// Energy-optimal design-point selection + greedy max-current sequencing.
#[derive(Debug, Clone)]
pub struct RakhmatovDp {
    /// Time-discretisation scale (grid steps per minute). The paper's
    /// instances quantise durations to 0.1 min, so the default `10` is
    /// exact for them; durations are rounded *up* to the grid so the
    /// produced schedule never exceeds the true deadline.
    pub time_scale: f64,
    /// Objective the knapsack minimises.
    pub metric: EnergyMetric,
}

impl Default for RakhmatovDp {
    fn default() -> Self {
        Self {
            time_scale: 10.0,
            metric: EnergyMetric::Charge,
        }
    }
}

impl RakhmatovDp {
    /// The energy-optimal assignment alone (before sequencing), as a
    /// task-indexed design-point vector.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::DeadlineInfeasible`] when no selection fits, and
    /// [`SchedulerError::InvalidDeadline`] for non-positive deadlines.
    pub fn select_points(
        &self,
        g: &TaskGraph,
        deadline: Minutes,
    ) -> Result<Vec<PointId>, SchedulerError> {
        if !(deadline.is_finite() && deadline.value() > 0.0) {
            return Err(SchedulerError::InvalidDeadline { deadline });
        }
        let n = g.task_count();
        let m = g.point_count();
        // Grid durations, rounded up so grid feasibility implies real
        // feasibility.
        let grid = |t: TaskId, j: usize| -> usize {
            let d = g.duration(t, PointId(j)).value();
            (d * self.time_scale).ceil() as usize
        };
        let budget = (deadline.value() * self.time_scale).floor() as usize;

        // dp[time] = min energy over processed tasks with total grid time
        // exactly <= time (we keep the running minimum); choice[t][time]
        // records the column achieving it.
        const INF: f64 = f64::INFINITY;
        let mut dp = vec![INF; budget + 1];
        dp[0] = 0.0;
        // Prefix of tasks processed so far must fit: classic forward DP.
        let mut choice: Vec<Vec<u8>> = Vec::with_capacity(n);
        for t in g.task_ids() {
            let mut next = vec![INF; budget + 1];
            let mut pick = vec![u8::MAX; budget + 1];
            for j in 0..m {
                let w = grid(t, j);
                let e = g.point(t, PointId(j)).energy(self.metric).value();
                if w > budget {
                    continue;
                }
                for time in w..=budget {
                    let base = dp[time - w];
                    if base.is_finite() && base + e < next[time] {
                        next[time] = base + e;
                        pick[time] = j as u8;
                    }
                }
            }
            dp = next;
            choice.push(pick);
        }

        // Find the cheapest reachable total time.
        let mut best_time = None;
        let mut best_energy = INF;
        for (time, &e) in dp.iter().enumerate() {
            if e < best_energy {
                best_energy = e;
                best_time = Some(time);
            }
        }
        let Some(mut time) = best_time else {
            return Err(SchedulerError::DeadlineInfeasible {
                fastest: batsched_taskgraph::analysis::min_makespan(g),
                deadline,
            });
        };

        // Reconstruct column choices backwards.
        let mut assignment = vec![PointId(0); n];
        for idx in (0..n).rev() {
            let t = TaskId(idx);
            let j = choice[idx][time] as usize;
            debug_assert!(j < m, "reconstruction follows reachable states");
            assignment[idx] = PointId(j);
            time -= grid(t, j);
        }
        debug_assert_eq!(time, 0);
        Ok(assignment)
    }

    /// Eq. 5 sequencing: `w(v) = max{I_v, MeanI(G_v)}` under `assignment`.
    pub fn sequence(&self, g: &TaskGraph, assignment: &[PointId]) -> Vec<TaskId> {
        let currents: Vec<f64> = g
            .task_ids()
            .map(|t| g.current(t, assignment[t.index()]).value())
            .collect();
        let sets = DescendantSets::new(g);
        let weights: Vec<f64> = g
            .task_ids()
            .map(|t| {
                let sum = sets.members(t).map(|u| currents[u]).sum::<f64>();
                let mean = sum / sets.count(t) as f64;
                currents[t.index()].max(mean)
            })
            .collect();
        list_schedule(g, |_, t| weights[t.index()])
    }
}

impl Scheduler for RakhmatovDp {
    fn name(&self) -> &'static str {
        "rakhmatov-dp"
    }

    fn schedule(&self, g: &TaskGraph, deadline: Minutes) -> Result<Schedule, SchedulerError> {
        let assignment = self.select_points(g, deadline)?;
        let order = self.sequence(g, &assignment);
        Ok(Schedule::new(order, assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_battery::units::MilliAmps;
    use batsched_taskgraph::paper::{g2, g3};
    use batsched_taskgraph::DesignPoint;

    #[test]
    fn selection_is_energy_optimal_on_a_tiny_instance() {
        // Two tasks, two points each; enumerate all four selections by hand.
        let mut b = TaskGraph::builder();
        let dp = |i: f64, d: f64| DesignPoint::new(MilliAmps::new(i), Minutes::new(d));
        let a = b.task("A", vec![dp(100.0, 1.0), dp(30.0, 3.0)]);
        let c = b.task("B", vec![dp(80.0, 2.0), dp(20.0, 5.0)]);
        b.edge(a, c);
        let g = b.build().unwrap();
        // Energies: A: 100/90, B: 160/100. Deadline 6 admits (A1,B2): 100+100
        // = wait A@DP2=90 + B@DP2=100 needs 8 min. Feasible pairs at d=6:
        // (A1,B1)=260 @3min, (A1,B2)=200 @6min, (A2,B1)=250 @5min.
        // Optimum: (A1,B2) with energy 200.
        let sel = RakhmatovDp::default()
            .select_points(&g, Minutes::new(6.0))
            .unwrap();
        assert_eq!(sel, vec![PointId(0), PointId(1)]);
        // Deadline 8 admits (A2,B2) = 190.
        let sel = RakhmatovDp::default()
            .select_points(&g, Minutes::new(8.0))
            .unwrap();
        assert_eq!(sel, vec![PointId(1), PointId(1)]);
        // Deadline 2.9 is infeasible (fastest is 3).
        assert!(matches!(
            RakhmatovDp::default().select_points(&g, Minutes::new(2.9)),
            Err(SchedulerError::DeadlineInfeasible { .. })
        ));
    }

    #[test]
    fn schedules_meet_deadlines_on_paper_graphs() {
        let algo = RakhmatovDp::default();
        let g2 = g2();
        for d in batsched_taskgraph::paper::G2_TABLE4_DEADLINES {
            let s = algo.schedule(&g2, Minutes::new(d)).unwrap();
            s.validate(&g2, Some(Minutes::new(d))).unwrap();
        }
        let g3 = g3();
        for d in batsched_taskgraph::paper::G3_TABLE4_DEADLINES {
            let s = algo.schedule(&g3, Minutes::new(d)).unwrap();
            s.validate(&g3, Some(Minutes::new(d))).unwrap();
        }
    }

    #[test]
    fn looser_deadline_never_costs_more_energy() {
        let algo = RakhmatovDp::default();
        let g = g3();
        let mut prev = f64::INFINITY;
        for d in [100.0, 150.0, 230.0, 258.0] {
            let sel = algo.select_points(&g, Minutes::new(d)).unwrap();
            let e: f64 = g
                .task_ids()
                .map(|t| g.point(t, sel[t.index()]).charge().value())
                .sum();
            assert!(e <= prev + 1e-9, "energy rose from {prev} to {e} at d={d}");
            prev = e;
        }
    }

    #[test]
    fn unconstrained_deadline_selects_all_lowest_power() {
        let g = g3();
        let sel = RakhmatovDp::default()
            .select_points(&g, Minutes::new(1e4))
            .unwrap();
        assert!(sel.iter().all(|p| p.index() == g.point_count() - 1));
    }

    #[test]
    fn eq5_sequencing_prefers_heavy_subtrees_and_heavy_tasks() {
        let mut b = TaskGraph::builder();
        let dp1 = |i: f64| vec![DesignPoint::new(MilliAmps::new(i), Minutes::new(1.0))];
        let a = b.task("A", dp1(10.0));
        let light = b.task("L", dp1(20.0));
        let heavy = b.task("H", dp1(90.0));
        b.edge(a, light).edge(a, heavy);
        let g = b.build().unwrap();
        let algo = RakhmatovDp::default();
        let order = algo.sequence(&g, &[PointId(0), PointId(0), PointId(0)]);
        assert_eq!(order, vec![a, heavy, light]);
    }

    #[test]
    fn invalid_deadline_rejected() {
        let g = g2();
        assert!(matches!(
            RakhmatovDp::default().select_points(&g, Minutes::new(0.0)),
            Err(SchedulerError::InvalidDeadline { .. })
        ));
    }
}
