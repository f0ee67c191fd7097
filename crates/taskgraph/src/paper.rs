//! The two evaluation workloads of the DATE'05 paper.
//!
//! * [`g3`] — the illustrative fork-join graph of §4.2: 15 tasks, 5 design
//!   points, data exactly as printed in **Table 1** (hard-coded and verified
//!   against re-synthesis from the published scaling factors).
//! * [`g2`] — the robotic-arm-controller case study of §5: 9 tasks, 4 design
//!   points, data exactly as printed in **Figure 5**. The paper's figure
//!   shows the DAG only as an image; the precedence edges here
//!   ([`G2_EDGES`]) are a reconstruction read off that image — with
//!   sequential execution the makespan is edge-independent, so feasibility
//!   at every deadline is unaffected.
//!
//! The paper's deadline/β parameters are exposed as constants so the
//! reproduction harness and tests share one source of truth.

use crate::design_point::DesignPoint;
use crate::graph::{TaskGraph, TaskId};
use crate::synth::{synthesize_points, Rounding, ScalingScheme};
use batsched_battery::units::{MilliAmps, Minutes, Volts};

/// β used for every experiment in the paper (§4.2).
pub const PAPER_BETA: f64 = 0.273;

/// Deadline of the §4.2 illustrative example on G3 (minutes).
pub const G3_EXAMPLE_DEADLINE: f64 = 230.0;

/// The three Table 4 deadlines for G3 (minutes).
pub const G3_TABLE4_DEADLINES: [f64; 3] = [100.0, 150.0, 230.0];

/// The three Table 4 deadlines for G2 (minutes).
pub const G2_TABLE4_DEADLINES: [f64; 3] = [55.0, 75.0, 95.0];

/// G3 voltage-scaling factors with respect to V1 (§4.2).
pub const G3_FACTORS: [f64; 5] = [1.0, 0.85, 0.68, 0.51, 0.33];

/// G2 voltage-scaling factors with respect to V4 (§5).
pub const G2_FACTORS: [f64; 4] = [2.5, 5.0 / 3.0, 1.25, 1.0];

/// Table 1 of the paper: `(name, [(I mA, D min); 5], parents)`.
///
/// Stored verbatim so golden tests can diff the synthesised instance
/// against the published one.
#[allow(clippy::type_complexity)] // verbatim table shape from the paper
pub const G3_TABLE1: [(&str, [(f64, f64); 5], &[usize]); 15] = [
    (
        "T1",
        [
            (917., 7.3),
            (563., 11.2),
            (288., 15.0),
            (122., 18.7),
            (33., 22.0),
        ],
        &[],
    ),
    (
        "T2",
        [
            (519., 11.2),
            (319., 17.3),
            (163., 23.1),
            (69., 28.9),
            (19., 34.0),
        ],
        &[0],
    ),
    (
        "T3",
        [
            (611., 5.9),
            (375., 9.2),
            (192., 12.2),
            (81., 15.3),
            (22., 18.0),
        ],
        &[0],
    ),
    (
        "T4",
        [
            (938., 5.3),
            (576., 8.2),
            (295., 10.9),
            (124., 13.6),
            (34., 16.0),
        ],
        &[0],
    ),
    (
        "T5",
        [
            (781., 4.0),
            (480., 6.1),
            (246., 8.2),
            (104., 10.2),
            (28., 12.0),
        ],
        &[0],
    ),
    (
        "T6",
        [
            (800., 4.6),
            (491., 7.1),
            (252., 9.5),
            (106., 11.9),
            (29., 14.0),
        ],
        &[1, 2],
    ),
    (
        "T7",
        [
            (720., 7.3),
            (442., 11.2),
            (226., 15.0),
            (96., 18.7),
            (26., 22.0),
        ],
        &[3, 4],
    ),
    (
        "T8",
        [
            (600., 5.3),
            (368., 8.2),
            (189., 10.9),
            (80., 13.6),
            (22., 16.0),
        ],
        &[5, 6],
    ),
    (
        "T9",
        [
            (650., 4.6),
            (399., 7.1),
            (204., 9.5),
            (86., 11.9),
            (23., 14.0),
        ],
        &[7],
    ),
    (
        "T10",
        [
            (710., 5.9),
            (436., 9.2),
            (223., 12.2),
            (94., 15.3),
            (26., 18.0),
        ],
        &[7],
    ),
    (
        "T11",
        [
            (500., 6.6),
            (307., 10.2),
            (157., 13.6),
            (66., 17.0),
            (18., 20.0),
        ],
        &[8],
    ),
    (
        "T12",
        [
            (510., 4.6),
            (313., 7.1),
            (160., 9.5),
            (68., 11.9),
            (18., 14.0),
        ],
        &[9],
    ),
    (
        "T13",
        [
            (700., 4.0),
            (430., 6.1),
            (220., 8.2),
            (93., 10.2),
            (25., 12.0),
        ],
        &[8],
    ),
    (
        "T14",
        [
            (400., 5.3),
            (246., 8.2),
            (126., 10.9),
            (53., 13.6),
            (14., 16.0),
        ],
        &[10, 11, 12],
    ),
    (
        "T15",
        [
            (380., 3.3),
            (233., 5.1),
            (119., 6.8),
            (50., 8.5),
            (14., 10.0),
        ],
        &[13],
    ),
];

/// Per-task G3 base data `(base current at DP1, worst-case duration at DP5)`
/// from which Table 1 regenerates under [`ScalingScheme::ReversedDuration`].
pub const G3_BASES: [(f64, f64); 15] = [
    (917.0, 22.0),
    (519.0, 34.0),
    (611.0, 18.0),
    (938.0, 16.0),
    (781.0, 12.0),
    (800.0, 14.0),
    (720.0, 22.0),
    (600.0, 16.0),
    (650.0, 14.0),
    (710.0, 18.0),
    (500.0, 20.0),
    (510.0, 14.0),
    (700.0, 12.0),
    (400.0, 16.0),
    (380.0, 10.0),
];

/// Figure 5 of the paper: `(name, [(I mA, D min); 4])`.
pub const G2_FIGURE5: [(&str, [(f64, f64); 4]); 9] = [
    ("N1", [(938., 8.8), (278., 13.2), (117., 17.6), (60., 22.0)]),
    ("N2", [(781., 1.2), (231., 1.9), (98., 2.5), (50., 3.1)]),
    ("N3", [(781., 8.1), (231., 12.1), (98., 16.2), (50., 20.2)]),
    ("N4", [(656., 3.6), (194., 5.4), (82., 7.2), (42., 9.0)]),
    ("N5", [(781., 6.5), (231., 9.8), (98., 13.0), (50., 16.3)]),
    ("N6", [(531., 3.5), (157., 5.3), (66., 7.0), (34., 8.8)]),
    ("N7", [(531., 3.5), (157., 5.3), (66., 7.0), (34., 8.8)]),
    ("N8", [(531., 3.5), (157., 5.3), (66., 7.0), (34., 8.8)]),
    ("N9", [(531., 3.5), (157., 5.3), (66., 7.0), (34., 8.8)]),
];

/// Per-task G2 base data `(current at DP4, duration at DP4)` from which
/// Figure 5 regenerates under [`ScalingScheme::InverseDuration`].
pub const G2_BASES: [(f64, f64); 9] = [
    (60.0, 22.0),
    (50.0, 3.1),
    (50.0, 20.2),
    (42.0, 9.0),
    (50.0, 16.3),
    (34.0, 8.8),
    (34.0, 8.8),
    (34.0, 8.8),
    (34.0, 8.8),
];

/// Reconstructed G2 precedence edges (0-based ids; see module docs).
pub const G2_EDGES: [(usize, usize); 10] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 4),
    (2, 4),
    (3, 5),
    (4, 6),
    (5, 6),
    (6, 7),
    (6, 8),
];

fn voltage_for(column: usize, factors: &[f64]) -> Volts {
    Volts::new(factors[column])
}

/// Builds G3 exactly as printed in Table 1.
pub fn g3() -> TaskGraph {
    let mut b = TaskGraph::builder();
    let mut ids = Vec::with_capacity(G3_TABLE1.len());
    for (name, points, _) in &G3_TABLE1 {
        let pts = points
            .iter()
            .enumerate()
            .map(|(j, &(i, d))| {
                DesignPoint::with_voltage(
                    MilliAmps::new(i),
                    Minutes::new(d),
                    voltage_for(j, &G3_FACTORS),
                )
            })
            .collect();
        ids.push(b.task(*name, pts));
    }
    for (child, (_, _, parents)) in G3_TABLE1.iter().enumerate() {
        for &p in *parents {
            b.edge(ids[p], ids[child]);
        }
    }
    b.build().expect("G3 table data is valid by construction")
}

/// Builds G3 from `G3_BASES` via the published scaling rule — must equal
/// [`g3`] element-wise (asserted in tests and the Table 1 repro binary).
pub fn g3_synthesized() -> TaskGraph {
    let mut b = TaskGraph::builder();
    let mut ids = Vec::with_capacity(G3_BASES.len());
    for (idx, &(i_base, d_wc)) in G3_BASES.iter().enumerate() {
        let pts = synthesize_points(
            i_base,
            d_wc,
            &G3_FACTORS,
            ScalingScheme::ReversedDuration,
            Rounding::PAPER,
        )
        .expect("paper factors are valid");
        ids.push(b.task(G3_TABLE1[idx].0, pts));
    }
    for (child, (_, _, parents)) in G3_TABLE1.iter().enumerate() {
        for &p in *parents {
            b.edge(ids[p], ids[child]);
        }
    }
    b.build().expect("synthesised G3 is valid")
}

/// Builds G2 exactly as printed in Figure 5 (edges reconstructed).
pub fn g2() -> TaskGraph {
    let mut b = TaskGraph::builder();
    let mut ids = Vec::with_capacity(G2_FIGURE5.len());
    for (name, points) in &G2_FIGURE5 {
        let pts = points
            .iter()
            .enumerate()
            .map(|(j, &(i, d))| {
                DesignPoint::with_voltage(
                    MilliAmps::new(i),
                    Minutes::new(d),
                    voltage_for(j, &G2_FACTORS),
                )
            })
            .collect();
        ids.push(b.task(*name, pts));
    }
    for &(u, v) in &G2_EDGES {
        b.edge(ids[u], ids[v]);
    }
    b.build().expect("G2 figure data is valid by construction")
}

/// Builds G2 from `G2_BASES` via the published scaling rule — must equal
/// [`g2`] element-wise.
pub fn g2_synthesized() -> TaskGraph {
    let mut b = TaskGraph::builder();
    let mut ids = Vec::with_capacity(G2_BASES.len());
    let s1 = G2_FACTORS[0];
    for (idx, &(i_base_dp4, d_base)) in G2_BASES.iter().enumerate() {
        // `synthesize_points` anchors current at the fastest point.
        let i_fast = i_base_dp4 * s1.powi(3);
        let pts = synthesize_points(
            i_fast,
            d_base,
            &G2_FACTORS,
            ScalingScheme::InverseDuration,
            Rounding::PAPER,
        )
        .expect("paper factors are valid");
        ids.push(b.task(G2_FIGURE5[idx].0, pts));
    }
    for &(u, v) in &G2_EDGES {
        b.edge(ids[u], ids[v]);
    }
    b.build().expect("synthesised G2 is valid")
}

/// Task id for the paper's 1-based task numbering (`t(1)` is `T1`).
///
/// # Panics
///
/// Panics when `one_based` is 0 — the paper never uses a task 0.
pub fn t(one_based: usize) -> TaskId {
    assert!(one_based >= 1, "paper task numbering is 1-based");
    TaskId(one_based - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{column_time, max_makespan, min_makespan};
    use crate::graph::PointId;

    #[test]
    fn g3_shape() {
        let g = g3();
        assert_eq!(g.task_count(), 15);
        assert_eq!(g.point_count(), 5);
        assert_eq!(g.edge_count(), 19);
        assert_eq!(g.sources(), vec![t(1)]);
        assert_eq!(g.sinks(), vec![t(15)]);
    }

    #[test]
    fn g3_synthesis_reproduces_table1_exactly() {
        let printed = g3();
        let synth = g3_synthesized();
        assert_eq!(printed, synth, "Table 1 regenerates from the scaling rule");
    }

    #[test]
    fn g3_column_times_match_hand_sums() {
        let g = g3();
        // Column 4 (DP5, leanest): sum of worst-case durations = 258.0.
        assert!((column_time(&g, PointId(4)).value() - 258.0).abs() < 1e-9);
        // Column 3 (DP4): hand sum 219.3 — the paper's S1 feasibility pivot.
        assert!((column_time(&g, PointId(3)).value() - 219.3).abs() < 1e-9);
        assert!(min_makespan(&g).value() < G3_EXAMPLE_DEADLINE);
        assert!(max_makespan(&g).value() > G3_EXAMPLE_DEADLINE);
    }

    #[test]
    fn g2_shape() {
        let g = g2();
        assert_eq!(g.task_count(), 9);
        assert_eq!(g.point_count(), 4);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.sources(), vec![t(1)]);
        assert_eq!(g.sinks().len(), 2); // N8, N9 feed the EXIT pseudo-node
    }

    #[test]
    fn g2_synthesis_reproduces_figure5_exactly() {
        let printed = g2();
        let synth = g2_synthesized();
        assert_eq!(printed, synth, "Figure 5 regenerates from the scaling rule");
    }

    #[test]
    fn g2_deadlines_are_feasible_at_full_throttle() {
        let g = g2();
        // DP1 everywhere: 42.2 min — under every Table 4 deadline.
        assert!((min_makespan(&g).value() - 42.2).abs() < 1e-9);
        for d in G2_TABLE4_DEADLINES {
            assert!(min_makespan(&g).value() <= d);
        }
        // DP4 everywhere: 105.8 min — over every Table 4 deadline, so the
        // design-point choice is a real decision at each of them.
        assert!((max_makespan(&g).value() - 105.8).abs() < 1e-9);
        for d in G2_TABLE4_DEADLINES {
            assert!(max_makespan(&g).value() > d);
        }
    }

    #[test]
    fn paper_indexing_helper() {
        assert_eq!(t(1), TaskId(0));
        assert_eq!(t(15), TaskId(14));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn paper_indexing_rejects_zero() {
        let _ = t(0);
    }

    #[test]
    fn g3_tasks_resolve_by_name() {
        let g = g3();
        for (i, (name, _, _)) in G3_TABLE1.iter().enumerate() {
            assert_eq!(g.find(name), Some(TaskId(i)));
        }
    }
}
