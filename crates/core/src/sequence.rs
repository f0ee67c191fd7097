//! Sequence construction: the initial order (`SequenceDecEnergy`) and the
//! per-iteration improvement (`FindWeightedSequence`, eq. 4 of the paper).

use crate::config::InitialWeight;
use batsched_taskgraph::analysis::{average_current, average_energy, average_power};
use batsched_taskgraph::topo::{descendants_mask, list_schedule, DescendantSets};
use batsched_taskgraph::{EnergyMetric, PointId, TaskGraph, TaskId};

/// The paper's `SequenceDecEnergy`: list scheduling where the ready task
/// with the largest weight goes first. See [`InitialWeight`] for the
/// weight-rule options; `AverageCurrent` is the default because it is the
/// rule that reproduces Table 2's S1.
pub fn initial_sequence(g: &TaskGraph, rule: InitialWeight, metric: EnergyMetric) -> Vec<TaskId> {
    match rule {
        InitialWeight::AverageCurrent => list_schedule(g, |g, t| average_current(g, t).value()),
        InitialWeight::AverageEnergy => {
            list_schedule(g, move |g, t| average_energy(g, t, metric).value())
        }
        InitialWeight::AveragePower => list_schedule(g, average_power),
    }
}

/// The paper's `FindWeightedSequence` (eq. 4): each task is weighted by the
/// total *assigned* current of the subgraph rooted at it,
/// `w(v) = Σ_{u ∈ G_v} I_{u,c(u)}`, and the ready task with the largest
/// weight is scheduled first.
pub fn weighted_sequence(g: &TaskGraph, assignment: &[PointId]) -> Vec<TaskId> {
    weighted_sequence_in(g, &DescendantSets::new(g), assignment)
}

/// [`weighted_sequence`] with the graph's descendant sets built once by
/// the caller (the solver builds them once per solve, not per iteration).
pub fn weighted_sequence_in(
    g: &TaskGraph,
    sets: &DescendantSets,
    assignment: &[PointId],
) -> Vec<TaskId> {
    let weights = subtree_weights(g, sets, assignment);
    list_schedule(g, |_, t| weights[t.index()])
}

/// The subtree-current weights of eq. 4 read off `sets`. Each sum adds
/// its members in increasing task index, as [`subtree_current_weights`]
/// does, so the two agree bit for bit.
pub fn subtree_weights(g: &TaskGraph, sets: &DescendantSets, assignment: &[PointId]) -> Vec<f64> {
    let currents: Vec<f64> = g
        .task_ids()
        .map(|t| g.current(t, assignment[t.index()]).value())
        .collect();
    g.task_ids()
        .map(|t| sets.members(t).map(|u| currents[u]).sum())
        .collect()
}

/// The subtree-current weights of eq. 4 by one graph walk per task: the
/// reference [`subtree_weights`] is checked against.
pub fn subtree_current_weights(g: &TaskGraph, assignment: &[PointId]) -> Vec<f64> {
    let currents: Vec<f64> = g
        .task_ids()
        .map(|t| g.current(t, assignment[t.index()]).value())
        .collect();
    g.task_ids()
        .map(|t| {
            descendants_mask(g, t)
                .iter()
                .enumerate()
                .filter(|&(_, &inside)| inside)
                .map(|(u, _)| currents[u])
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_battery::units::{MilliAmps, Minutes};
    use batsched_taskgraph::paper::{g3, t};
    use batsched_taskgraph::topo::is_topological;
    use batsched_taskgraph::DesignPoint;

    #[test]
    fn g3_initial_sequence_matches_table2_s1() {
        // Table 2, S1: T1,T4,T5,T7,T3,T2,T6,T8,T10,T9,T13,T12,T11,T14,T15.
        let g = g3();
        let seq = initial_sequence(&g, InitialWeight::AverageCurrent, EnergyMetric::Charge);
        let expect: Vec<TaskId> = [1, 4, 5, 7, 3, 2, 6, 8, 10, 9, 13, 12, 11, 14, 15]
            .map(t)
            .to_vec();
        assert_eq!(seq, expect);
    }

    #[test]
    fn g3_average_energy_rule_differs_from_table2() {
        // The §4.1 prose ("average energy") puts T2 before T4, which
        // Table 2's S1 does not: why the current rule is the default.
        let g = g3();
        let seq = initial_sequence(&g, InitialWeight::AverageEnergy, EnergyMetric::Charge);
        let pos = |x: TaskId| seq.iter().position(|&y| y == x).unwrap();
        assert!(pos(t(2)) < pos(t(4)));
        assert!(is_topological(&g, &seq));
    }

    #[test]
    fn g3_average_power_matches_average_current_ordering() {
        // G3's currents share one scaling profile, so power and current
        // rules coincide there.
        let g = g3();
        let a = initial_sequence(&g, InitialWeight::AverageCurrent, EnergyMetric::Charge);
        let b = initial_sequence(&g, InitialWeight::AveragePower, EnergyMetric::Charge);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_sequence_reproduces_s2w_from_s2_assignment() {
        // Iteration 2 of the paper's Table 2: sequence S2 with its published
        // assignment P5,P1,P2,P5,… (positions) yields the weighted sequence
        // S2w = T1,T3,T2,T4,T5,T6,T7,T8,T9,T10,T13,T11,T12,T14,T15.
        let g = g3();
        let s2: Vec<TaskId> = [1, 3, 2, 4, 5, 6, 7, 8, 10, 9, 13, 12, 11, 14, 15]
            .map(t)
            .to_vec();
        let dp_by_pos = [5, 1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5];
        let mut assignment = vec![PointId(0); g.task_count()];
        for (pos, &task) in s2.iter().enumerate() {
            assignment[task.index()] = PointId(dp_by_pos[pos] - 1);
        }
        let w = weighted_sequence(&g, &assignment);
        let expect: Vec<TaskId> = [1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14, 15]
            .map(t)
            .to_vec();
        assert_eq!(w, expect);
    }

    #[test]
    fn weighted_sequence_reproduces_s3w_from_s3_assignment() {
        // Iteration 3: S3 with P5,P5,P1,P5,P5,P5,P4,P5,P4,P5,… yields
        // S3w = T1,T2,T4,T5,T7,T3,T6,T8,T9,T10,T13,T11,T12,T14,T15.
        let g = g3();
        let s3: Vec<TaskId> = [1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14, 15]
            .map(t)
            .to_vec();
        let dp_by_pos = [5, 5, 1, 5, 5, 5, 4, 5, 4, 5, 5, 5, 5, 5, 5];
        let mut assignment = vec![PointId(0); g.task_count()];
        for (pos, &task) in s3.iter().enumerate() {
            assignment[task.index()] = PointId(dp_by_pos[pos] - 1);
        }
        let w = weighted_sequence(&g, &assignment);
        let expect: Vec<TaskId> = [1, 2, 4, 5, 7, 3, 6, 8, 9, 10, 13, 11, 12, 14, 15]
            .map(t)
            .to_vec();
        assert_eq!(w, expect);
    }

    #[test]
    fn subtree_weights_sum_assigned_currents() {
        let mut b = TaskGraph::builder();
        let dp2 = |i: f64| {
            vec![
                DesignPoint::new(MilliAmps::new(i), Minutes::new(1.0)),
                DesignPoint::new(MilliAmps::new(i / 2.0), Minutes::new(2.0)),
            ]
        };
        let a = b.task("A", dp2(100.0));
        let x = b.task("X", dp2(60.0));
        let y = b.task("Y", dp2(40.0));
        b.edge(a, x).edge(a, y);
        let g = b.build().unwrap();
        // A at DP1 (100), X at DP2 (30), Y at DP1 (40).
        let w = subtree_current_weights(&g, &[PointId(0), PointId(1), PointId(0)]);
        assert_eq!(w, vec![170.0, 30.0, 40.0]);
    }

    #[test]
    fn sequences_are_always_topological() {
        let g = g3();
        for rule in [
            InitialWeight::AverageCurrent,
            InitialWeight::AverageEnergy,
            InitialWeight::AveragePower,
        ] {
            let s = initial_sequence(&g, rule, EnergyMetric::Charge);
            assert!(is_topological(&g, &s), "{rule:?}");
        }
        let all_lean = vec![PointId(4); g.task_count()];
        assert!(is_topological(&g, &weighted_sequence(&g, &all_lean)));
    }
}
