//! Property-based tests for the task-graph substrate: every generator
//! produces valid DAGs, every list schedule is topological, serde round
//! trips, and the pareto filter upholds the matrix conventions.

use batsched_battery::units::{MilliAmps, Minutes};
use batsched_taskgraph::analysis::{column_time, max_makespan, min_makespan, GraphStats};
use batsched_taskgraph::design_point::pareto_filter;
use batsched_taskgraph::synth::{
    chain, fork_join, layered, random_dag, series_parallel, synthesize_points, Rounding,
    ScalingScheme, TaskParams,
};
use batsched_taskgraph::topo::{
    descendants_mask, for_each_topological_order, for_each_topological_order_reference,
    is_topological, list_schedule, topological_order, DescendantSets,
};
use batsched_taskgraph::{DesignPoint, EnergyMetric, PointId, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_params() -> impl Strategy<Value = TaskParams> {
    (2usize..6, 50.0f64..900.0, 1.0f64..20.0).prop_map(|(m, i_hi, d_hi)| TaskParams {
        current_range: (10.0, 10.0 + i_hi),
        duration_range: (0.5, 0.5 + d_hi),
        factors: (0..m)
            .map(|j| 1.0 - 0.6 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::EXACT,
    })
}

/// One graph from each family, driven by a seed.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (arb_params(), any::<u64>(), 0usize..5, 2usize..10).prop_map(|(params, seed, family, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => chain(n, &params, &mut rng),
            1 => fork_join(&[n], &params, &mut rng),
            2 => layered(3, n.max(2) / 2 + 1, 0.4, &params, &mut rng),
            3 => series_parallel(2, &params, &mut rng),
            _ => random_dag(n + 2, 0.3, &params, &mut rng),
        }
        .expect("generator parameters are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The in-place order generator visits exactly the orders the retained
    /// recursive reference visits, in the same sequence, under a binding
    /// enumeration cap — every one a valid topological order.
    #[test]
    fn order_generator_matches_reference(g in arb_graph(), limit in 1usize..40) {
        let mut fast = Vec::new();
        let nf = for_each_topological_order(&g, limit, |o| fast.push(o.to_vec()));
        let mut slow = Vec::new();
        let ns = for_each_topological_order_reference(&g, limit, |o| slow.push(o.to_vec()));
        prop_assert_eq!(nf, ns);
        prop_assert_eq!(&fast, &slow);
        prop_assert!(nf <= limit);
        for o in &fast {
            prop_assert!(is_topological(&g, o));
        }
    }

    /// Every generated graph is a valid DAG with uniform design points and
    /// pareto-ordered rows.
    #[test]
    fn generators_produce_valid_graphs(g in arb_graph()) {
        let order = topological_order(&g);
        prop_assert!(is_topological(&g, &order));
        let m = g.point_count();
        for t in g.task_ids() {
            let pts = &g.task(t).points;
            prop_assert_eq!(pts.len(), m);
            for w in pts.windows(2) {
                prop_assert!(w[0].duration.value() <= w[1].duration.value());
                prop_assert!(w[0].current.value() >= w[1].current.value());
            }
        }
    }

    /// Column times are monotone in the column index, so the window
    /// feasibility scan of the scheduler is well-founded.
    #[test]
    fn column_times_are_monotone(g in arb_graph()) {
        for k in 1..g.point_count() {
            prop_assert!(
                column_time(&g, PointId(k - 1)).value()
                    <= column_time(&g, PointId(k)).value() + 1e-9
            );
        }
        prop_assert!(min_makespan(&g).value() <= max_makespan(&g).value() + 1e-9);
    }

    /// Any weight function yields a topological list schedule.
    #[test]
    fn list_schedules_are_topological(g in arb_graph(), seed in any::<u64>()) {
        let weights: Vec<f64> = {
            let mut x = seed | 1;
            g.task_ids().map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                (x % 1000) as f64
            }).collect()
        };
        let order = list_schedule(&g, |_, t| weights[t.index()]);
        prop_assert!(is_topological(&g, &order));
    }

    /// Serde round-trips preserve the graph exactly.
    #[test]
    fn serde_round_trip(g in arb_graph()) {
        let json = batsched_taskgraph::io::to_json(&g);
        let back = batsched_taskgraph::io::from_json(&json).unwrap();
        prop_assert_eq!(back, g);
    }

    /// Descendant masks are reflexive and edge-consistent, and the bit-set
    /// rows hold exactly the mask's members.
    #[test]
    fn descendants_are_consistent(g in arb_graph()) {
        let sets = DescendantSets::new(&g);
        for t in g.task_ids() {
            let mask = descendants_mask(&g, t);
            let members: Vec<usize> = (0..mask.len()).filter(|&u| mask[u]).collect();
            prop_assert_eq!(sets.members(t).collect::<Vec<_>>(), members.clone());
            prop_assert_eq!(sets.count(t), members.len());
            prop_assert!(mask[t.index()]);
            for (u, v) in g.edges() {
                if mask[u.index()] {
                    prop_assert!(mask[v.index()], "edge {u}->{v} escapes the mask");
                }
            }
        }
    }

    /// GraphStats extrema really bound every design point.
    #[test]
    fn stats_bound_everything(g in arb_graph()) {
        let s = GraphStats::compute(&g, EnergyMetric::Charge);
        for t in g.task_ids() {
            for p in &g.task(t).points {
                prop_assert!(p.current.value() >= s.i_min.value() - 1e-9);
                prop_assert!(p.current.value() <= s.i_max.value() + 1e-9);
                let cr = s.current_ratio(p.current);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&cr));
            }
        }
    }

    /// The pareto filter is idempotent and its output obeys the conventions.
    #[test]
    fn pareto_filter_invariants(
        raw in prop::collection::vec((1.0f64..1000.0, 0.1f64..50.0), 1..15)
    ) {
        let pts: Vec<DesignPoint> = raw
            .into_iter()
            .map(|(i, d)| DesignPoint::new(MilliAmps::new(i), Minutes::new(d)))
            .collect();
        let once = pareto_filter(pts.clone());
        let twice = pareto_filter(once.clone());
        prop_assert_eq!(&once, &twice, "idempotent");
        for w in once.windows(2) {
            prop_assert!(w[0].duration.value() <= w[1].duration.value());
            prop_assert!(w[0].current.value() > w[1].current.value());
        }
        // Nothing in the output is dominated by anything in the input.
        for kept in &once {
            for p in &pts {
                let dominates = p.duration.value() <= kept.duration.value()
                    && p.current.value() < kept.current.value();
                prop_assert!(!dominates, "{kept} dominated by {p}");
            }
        }
    }

    /// Synthesised design-point rows always obey the matrix conventions.
    #[test]
    fn synthesis_rows_are_pareto(
        i_base in 1.0f64..2000.0,
        d_base in 0.1f64..100.0,
        m in 2usize..8,
        inverse in any::<bool>(),
    ) {
        let factors: Vec<f64> = (0..m).map(|j| 2.0 - 1.5 * j as f64 / (m - 1) as f64).collect();
        let scheme = if inverse { ScalingScheme::InverseDuration } else { ScalingScheme::ReversedDuration };
        let pts = synthesize_points(i_base, d_base, &factors, scheme, Rounding::EXACT).unwrap();
        prop_assert_eq!(pts.len(), m);
        for w in pts.windows(2) {
            prop_assert!(w[0].duration.value() < w[1].duration.value() + 1e-12);
            prop_assert!(w[0].current.value() > w[1].current.value() - 1e-12);
        }
    }
}
