//! Property-based equivalence of the σ-evaluation engine against the
//! naive profile path at the scheduler level: on arbitrary task graphs,
//! random topological orders, random assignments and single-column swaps,
//! [`EngineCost`] must match [`battery_cost_of`] and every window the
//! search emits must carry the same σ the naive evaluation assigns it —
//! all to ≤ 1e-9 relative error.

use batsched_battery::rv::RvModel;
use batsched_battery::units::Minutes;
use batsched_core::search::{diag_evaluate_windows, positional_cost_naive};
use batsched_core::{battery_cost_of, schedule, EngineCost, SchedulerConfig};
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{
    chain, fork_join, layered, random_dag, Rounding, ScalingScheme, TaskParams,
};
use batsched_taskgraph::topo::topological_order;
use batsched_taskgraph::{PointId, TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REL_TOL: f64 = 1e-9;

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..6, any::<u64>(), 0usize..4, 2usize..7).prop_map(|(m, seed, family, n)| {
        let params = TaskParams {
            current_range: (50.0, 950.0),
            duration_range: (1.0, 15.0),
            factors: (0..m)
                .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
                .collect(),
            scheme: ScalingScheme::ReversedDuration,
            rounding: Rounding::PAPER,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => chain(n, &params, &mut rng),
            1 => fork_join(&[n], &params, &mut rng),
            2 => layered(3, 2, 0.4, &params, &mut rng),
            _ => random_dag(n + 2, 0.35, &params, &mut rng),
        }
        .expect("valid generator parameters")
    })
}

fn assert_rel_close(engine: f64, naive: f64) {
    assert!(
        (engine - naive).abs() <= REL_TOL * naive.abs().max(1.0),
        "engine {engine} vs naive {naive}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `EngineCost` matches `battery_cost_of` on random assignments and
    /// stays matched through a chain of random single-column swaps sharing
    /// one suffix cache.
    #[test]
    fn engine_cost_matches_battery_cost_of(g in arb_graph(), seed in any::<u64>()) {
        let model = RvModel::date05();
        let mut engine = EngineCost::new(&g, &model);
        let mut rng = StdRng::seed_from_u64(seed);
        let order = topological_order(&g);
        let m = g.point_count();
        let mut assignment: Vec<PointId> = (0..g.task_count())
            .map(|_| PointId(rng.gen_range(0..m)))
            .collect();
        for _ in 0..24 {
            let (ec, emk) = engine.cost(&order, &assignment);
            let (nc, nmk) = battery_cost_of(&g, &order, &assignment, &model);
            assert_rel_close(ec.value(), nc.value());
            prop_assert!((emk.value() - nmk.value()).abs() <= 1e-9 * nmk.value().max(1.0));
            // Single-column swap — the dominant move of every search loop.
            let t = TaskId(rng.gen_range(0..g.task_count()));
            assignment[t.index()] = PointId(rng.gen_range(0..m));
        }
    }

    /// Every window record the engine-backed search emits carries the σ
    /// the naive evaluation computes for its assignment.
    #[test]
    fn window_costs_match_naive_evaluation(g in arb_graph(), slack in 0.1f64..1.0) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let cfg = SchedulerConfig::paper();
        let model = cfg.battery_model().unwrap();
        let seq = topological_order(&g);
        let (records, best) = diag_evaluate_windows(&g, &cfg, d, &model, &seq).unwrap();
        prop_assert!(best < records.len());
        for r in &records {
            let assign_pos: Vec<usize> = seq
                .iter()
                .map(|&t| r.assignment[t.index()].index())
                .collect();
            let (naive, naive_mk) = positional_cost_naive(&g, &model, &seq, &assign_pos);
            assert_rel_close(r.cost.value(), naive.value());
            prop_assert!(
                (r.makespan.value() - naive_mk.value()).abs()
                    <= 1e-9 * naive_mk.value().max(1.0)
            );
        }
        // The recorded best is the argmin (first on ties).
        for (i, r) in records.iter().enumerate() {
            if i != best {
                prop_assert!(r.cost.value() >= records[best].cost.value());
            }
        }
    }

    /// The full iterative driver's reported cost matches a from-scratch
    /// naive recomputation of its returned schedule.
    #[test]
    fn solution_cost_matches_naive_recomputation(g in arb_graph(), slack in 0.0f64..1.0) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let sol = schedule(&g, d, &SchedulerConfig::paper()).unwrap();
        let naive = sol.schedule.battery_cost(&g, &RvModel::date05());
        assert_rel_close(sol.cost.value(), naive.value());
    }
}
