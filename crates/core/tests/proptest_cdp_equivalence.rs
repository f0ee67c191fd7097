//! Property-based equivalence of the incremental window-search kernel
//! against the retained naive reference: on random DAGs, random deadlines
//! and every feasible window, the journal-based `ChooseDesignPoints` must
//! produce **bit-identical** assignments, and the incremental
//! `CalculateDPF` **bit-identical** `(enr, cif, dpf)` triples, versus the
//! clone-and-rescan reference implementations. No tolerance: the two paths
//! share their floating-point accumulation, so any difference is a
//! bookkeeping bug in the persistent run journal, the carried row chains,
//! or the resumed-promotion logic. The descending-window loops drive
//! consecutive `ws+1 → ws` evaluations through one buffer set, so no state
//! a window leaves in the reused buffers may leak into the next.

use batsched_battery::units::Minutes;
use batsched_core::search::DiagSearch;
use batsched_core::SchedulerConfig;
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{
    chain, fork_join, layered, random_dag, Rounding, ScalingScheme, TaskParams,
};
use batsched_taskgraph::topo::topological_order;
use batsched_taskgraph::{TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental `ChooseDesignPoints` equals the retained naive
    /// reference bit-for-bit on every feasible window, with the kernel's
    /// buffers reused across windows and deadlines (the service-worker
    /// pattern).
    #[test]
    fn choose_design_points_is_bit_identical_to_reference(
        g in arb_graph(),
        slack in 0.05f64..1.0,
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let cfg = SchedulerConfig::paper();
        let seq = topological_order(&g);
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        for ws in diag.feasible_windows() {
            let naive = diag.choose_reference(&seq, ws).unwrap();
            let fast = diag.choose(&seq, ws).unwrap();
            prop_assert_eq!(fast, &naive[..], "ws={}", ws);
        }
    }

    /// One full `EvaluateWindows` sweep through one buffer set produces
    /// bit-identical `WindowRecord` vectors (window starts,
    /// assignments, σ costs and makespans) to evaluating every window in
    /// isolation through the retained naive reference.
    #[test]
    fn evaluate_windows_records_are_bit_identical_to_reference(
        g in arb_graph(),
        slack in 0.05f64..1.0,
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let cfg = SchedulerConfig::paper();
        let seq = topological_order(&g);
        let m = g.point_count();
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        let (records, best) = diag.windows(&seq).unwrap();
        let expected_ws: Vec<usize> = diag
            .feasible_windows()
            .into_iter()
            .filter(|&ws| ws <= m.saturating_sub(2))
            .collect();
        prop_assert_eq!(records.len(), expected_ws.len());
        prop_assert!(best < records.len());
        for (rec, &ws) in records.iter().zip(&expected_ws) {
            prop_assert_eq!(rec.window_start.index(), ws);
            let naive = diag.choose_reference(&seq, ws).unwrap();
            // Task-indexed assignment must match the reference's
            // positional one exactly.
            for (pos, &t) in seq.iter().enumerate() {
                prop_assert_eq!(
                    rec.assignment[t.index()].index(), naive[pos],
                    "ws={} pos={}", ws, pos
                );
            }
            let (cost, mk) = diag.cost(&seq, &naive);
            prop_assert_eq!(rec.cost, cost, "ws={}", ws);
            prop_assert_eq!(rec.makespan, mk, "ws={}", ws);
        }
    }

    /// Interleaving two different sequences across descending windows
    /// through one buffer set still matches the reference bit-for-bit.
    #[test]
    fn interleaved_sequences_never_reuse_a_stale_carry(
        g in arb_graph(),
        slack in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let cfg = SchedulerConfig::paper();
        let seq_a = topological_order(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..g.task_count())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let seq_b = batsched_taskgraph::topo::list_schedule(&g, |_, t| weights[t.index()]);
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        for ws in diag.feasible_windows() {
            for seq in [&seq_a, &seq_b] {
                let naive = diag.choose_reference(seq, ws).unwrap();
                let fast = diag.choose(seq, ws).unwrap();
                prop_assert_eq!(fast, &naive[..], "ws={}", ws);
            }
        }
    }

    /// The incremental `CalculateDPF` returns bit-identical
    /// `(enr, cif, dpf)` triples on random in-sweep snapshots: a random
    /// fixed suffix, a random tagged column, free tasks at the initial
    /// column `m−1`.
    #[test]
    fn calculate_dpf_triples_are_bit_identical(
        g in arb_graph(),
        slack in 0.0f64..1.2,
        seed in any::<u64>(),
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack + 0.1);
        let cfg = SchedulerConfig::paper();
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        let seq = topological_order(&g);
        let n = seq.len();
        let m = g.point_count();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let ws = rng.gen_range(0..m.saturating_sub(1).max(1));
            let i = rng.gen_range(0..n);
            let mut stemp = vec![m - 1; n];
            let mut fixed_tasks: Vec<TaskId> = Vec::new();
            for (pos, col) in stemp.iter_mut().enumerate().skip(i + 1) {
                *col = rng.gen_range(ws..m);
                fixed_tasks.push(seq[pos]);
            }
            stemp[i] = rng.gen_range(ws..m);
            let fast = diag.dpf(&seq, &stemp, &fixed_tasks, i, ws);
            let naive = diag.dpf_reference(&seq, &stemp, &fixed_tasks, i, ws);
            prop_assert_eq!(fast, naive, "i={} ws={} stemp={:?}", i, ws, stemp);
        }
    }
}

/// Adversarial window coverage: hunt (deterministically) for instances
/// where widening the window by one column *changes* some row's chosen
/// column, and demand bit-identity with the reference on every window of
/// every such instance. Fails if the hunt finds no such instance (the test
/// would be vacuous).
#[test]
fn window_widening_that_changes_choices_stays_bit_identical() {
    let cfg = SchedulerConfig::paper();
    let mut changed_instances = 0usize;
    for seed in 0..64u64 {
        let m = 4 + (seed as usize % 3);
        let params = TaskParams {
            current_range: (50.0, 950.0),
            duration_range: (1.0, 15.0),
            factors: (0..m)
                .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
                .collect(),
            scheme: ScalingScheme::ReversedDuration,
            rounding: Rounding::PAPER,
        };
        let mut rng = StdRng::seed_from_u64(0xAD5A_0000 + seed);
        let g = random_dag(8, 0.3, &params, &mut rng).unwrap();
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * 0.45);
        let seq = topological_order(&g);
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        let Ok((records, _)) = diag.windows(&seq) else {
            continue;
        };
        for w in records.windows(2) {
            if w[0].assignment != w[1].assignment {
                changed_instances += 1;
                break;
            }
        }
        for rec in &records {
            let ws = rec.window_start.index();
            let naive = diag.choose_reference(&seq, ws).unwrap();
            for (pos, &t) in seq.iter().enumerate() {
                assert_eq!(
                    rec.assignment[t.index()].index(),
                    naive[pos],
                    "seed={seed} ws={ws} pos={pos}"
                );
            }
        }
    }
    assert!(
        changed_instances >= 5,
        "expected several widening-changes-choice instances, found {changed_instances}"
    );
}
