//! Property-based tests for the baseline schedulers, including the two
//! optimality anchors: the DP baseline is charge-optimal, and nothing
//! beats the exhaustive optimum on battery cost.

use batsched_baselines::{
    ChowdhuryScaling, Exhaustive, KhanVemuri, RakhmatovDp, RandomSearch, Scheduler,
    SimulatedAnnealing,
};
use batsched_battery::rv::RvModel;
use batsched_battery::units::Minutes;
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{fork_join, random_dag, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::TaskGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params(m: usize) -> TaskParams {
    TaskParams {
        current_range: (50.0, 900.0),
        duration_range: (1.0, 10.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.6 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    }
}

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..5, any::<u64>(), 2usize..6, any::<bool>()).prop_map(|(m, seed, n, fj)| {
        let mut rng = StdRng::seed_from_u64(seed);
        if fj {
            fork_join(&[n], &params(m), &mut rng).unwrap()
        } else {
            random_dag(n + 2, 0.35, &params(m), &mut rng).unwrap()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every baseline produces valid, deadline-meeting schedules on every
    /// feasible instance.
    #[test]
    fn all_baselines_produce_valid_schedules(g in arb_graph(), slack in 0.1f64..0.9) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let algos: Vec<Box<dyn Scheduler>> = vec![
            Box::new(KhanVemuri::paper()),
            Box::new(RakhmatovDp::default()),
            Box::new(ChowdhuryScaling),
            Box::new(SimulatedAnnealing { steps: 1_000, ..Default::default() }),
            Box::new(RandomSearch { samples: 30, ..Default::default() }),
        ];
        for a in &algos {
            let s = a.schedule(&g, d).unwrap_or_else(|e| panic!("{} failed: {e}", a.name()));
            prop_assert!(s.validate(&g, Some(d)).is_ok(), "{} invalid", a.name());
        }
    }

    /// The DP selection is optimal for *delivered charge*: no other valid
    /// schedule of the same instance delivers less.
    #[test]
    fn dp_is_charge_optimal(g in arb_graph(), slack in 0.1f64..0.9) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let dp = RakhmatovDp::default().schedule(&g, d).unwrap();
        let dp_charge = dp.direct_charge(&g).value();
        let others: Vec<Box<dyn Scheduler>> = vec![
            Box::new(KhanVemuri::paper()),
            Box::new(ChowdhuryScaling),
            Box::new(RandomSearch { samples: 30, ..Default::default() }),
        ];
        for a in &others {
            let s = a.schedule(&g, d).unwrap();
            prop_assert!(
                s.direct_charge(&g).value() >= dp_charge - 1e-6,
                "{} delivered less charge than the charge-optimal DP",
                a.name()
            );
        }
    }

    /// Nothing beats the exhaustive optimum on battery cost (small
    /// instances only, to keep the enumeration tractable).
    #[test]
    fn nothing_beats_the_exhaustive_optimum(seed in any::<u64>(), slack in 0.2f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fork_join(&[2], &params(3), &mut rng).unwrap(); // 4 tasks, 3 points
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let (_, opt) = Exhaustive::default().best(&g, d).unwrap();
        let model = RvModel::date05();
        let algos: Vec<Box<dyn Scheduler>> = vec![
            Box::new(KhanVemuri::paper()),
            Box::new(RakhmatovDp::default()),
            Box::new(ChowdhuryScaling),
            Box::new(SimulatedAnnealing { steps: 2_000, ..Default::default() }),
        ];
        for a in &algos {
            let s = a.schedule(&g, d).unwrap();
            let c = s.battery_cost(&g, &model).value();
            prop_assert!(c >= opt - 1e-6, "{} beat the optimum: {c} < {opt}", a.name());
        }
    }

    /// The exhaustive baseline's prefix-keyed σ path returns the same
    /// optimum as the retained per-leaf suffix-engine path. The two paths
    /// enumerate and prune identically but accumulate σ in different
    /// floating-point association, so when two leaves tie within that
    /// ~1e-9 noise the strict-`<` argmin may legitimately pick either;
    /// the sound property is: equal optimum *costs* (to association
    /// tolerance, re-scored through one common evaluator), both schedules
    /// valid — and bit-identical schedules whenever the runner-up is
    /// separated by more than float noise (the generic case).
    #[test]
    fn exhaustive_prefix_cache_matches_reference(g in arb_graph(), slack in 0.05f64..0.95) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let (sf, cf) = Exhaustive::default().best(&g, d).unwrap();
        let (ss, cs) = Exhaustive::default().best_reference(&g, d).unwrap();
        prop_assert!((cf - cs).abs() <= 1e-9 * cs.max(1.0), "{} vs {}", cf, cs);
        prop_assert!(sf.validate(&g, Some(d)).is_ok());
        prop_assert!(ss.validate(&g, Some(d)).is_ok());
        if sf != ss {
            // Only acceptable on a float-noise tie: both schedules must
            // score identically under one common (naive) evaluator.
            let model = RvModel::date05();
            let a = sf.battery_cost(&g, &model).value();
            let b = ss.battery_cost(&g, &model).value();
            prop_assert!(
                (a - b).abs() <= 1e-9 * b.max(1.0),
                "paths picked different non-tied optima: {} vs {}", a, b
            );
        }
    }

    /// At a loose deadline, the informed heuristic must solidly beat the
    /// naive always-feasible schedule (every task at its fastest, hungriest
    /// point). Random search can get lucky on tiny instances, so the naive
    /// anchor is the robust one.
    #[test]
    fn ours_beats_the_all_fastest_schedule_at_loose_deadlines(g in arb_graph()) {
        let d = Minutes::new(max_makespan(&g).value() * 0.9);
        if d.value() < min_makespan(&g).value() { return Ok(()); }
        let model = RvModel::date05();
        let ours = KhanVemuri::paper().schedule(&g, d).unwrap();
        let naive = batsched_core::Schedule::new(
            batsched_taskgraph::topo::topological_order(&g),
            vec![batsched_taskgraph::PointId(0); g.task_count()],
        );
        let a = ours.battery_cost(&g, &model).value();
        let b = naive.battery_cost(&g, &model).value();
        prop_assert!(a < b, "ours {a} vs all-fastest {b}");
    }
}
