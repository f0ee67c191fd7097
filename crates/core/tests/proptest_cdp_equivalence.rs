//! Property-based equivalence of the window-search sweep kernel against
//! the retained naive reference: on random DAGs, random deadlines, every
//! feasible window and every ablation factor mask, the journal-based
//! `ChooseDesignPoints` must produce **bit-identical** assignments versus
//! the clone-and-rescan reference implementation. No tolerance: the two
//! paths share their floating-point accumulation, so any difference is a
//! bookkeeping bug in the persistent run journal, the carried row chains,
//! or the resumed-promotion logic. The descending-window loops drive
//! consecutive `ws+1 → ws` evaluations through one buffer set, so no state
//! a window leaves in the reused buffers may leak into the next.

use batsched_battery::units::Minutes;
use batsched_core::search::DiagSearch;
use batsched_core::{FactorMask, SchedulerConfig, SchedulerError};
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{
    chain, fork_join, layered, random_dag, Rounding, ScalingScheme, TaskParams,
};
use batsched_taskgraph::topo::topological_order;
use batsched_taskgraph::TaskGraph;
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

/// `CT(col)`: the makespan with every task in column `col`.
fn column_time(g: &TaskGraph, col: usize) -> f64 {
    g.task_ids()
        .map(|t| g.task(t).points[col].duration.value())
        .sum()
}

/// Runs every feasible window of `g` under a deadline just above `CT(ws)`
/// (a `tight` fraction of the way to `CT(ws + 1)`), so the narrowest
/// feasible window is `ws` and its repair journal runs dry early. Asserts
/// bit-identity with the reference on each window and returns the
/// candidates the kernel scored with the sum of `rows × window width`.
fn tight_narrow_sweeps(g: &TaskGraph, ws: usize, tight: f64) -> (u64, u64) {
    let (n, m) = (g.task_count() as u64, g.point_count());
    let ct = column_time(g, ws);
    let d = Minutes::new(ct + tight * (column_time(g, ws + 1) - ct));
    let seq = topological_order(g);
    let mut diag = DiagSearch::new(g, &SchedulerConfig::paper(), d).unwrap();
    let (mut candidates, mut widths) = (0, 0);
    for w in diag.feasible_windows() {
        let naive = diag.choose_reference(&seq, w).unwrap();
        let before = diag.prof();
        let fast = diag.choose(&seq, w).unwrap().to_vec();
        assert_eq!(fast, naive, "ws={w} d={}", d.value());
        candidates += diag.prof().since(&before).candidates;
        widths += (n - 1) * (m - w) as u64;
    }
    (candidates, widths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tight deadlines on narrow windows, where rows stop at their first
    /// infeasible column: the kernel stays bit-identical to the reference
    /// and never scores more candidates than the windows are wide.
    #[test]
    fn tight_deadlines_on_narrow_windows_stay_bit_identical(
        g in arb_graph(),
        pick in 0usize..64,
        tight in 0.0f64..0.3,
    ) {
        let ws = pick % (g.point_count() - 1);
        let (candidates, widths) = tight_narrow_sweeps(&g, ws, tight);
        prop_assert!(candidates <= widths, "{} > {}", candidates, widths);
    }

    /// On a window whose all-floor makespan `CT(ws)` already misses the
    /// deadline, the kernel and the reference fail the same way: no column
    /// of the first row can be repaired. Every window up to the
    /// single-column `m − 1`, where a free task already sits at the window
    /// floor and cannot be promoted.
    #[test]
    fn infeasible_windows_fail_like_the_reference(
        g in arb_graph(),
        slack in 0.05f64..1.0,
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let seq = topological_order(&g);
        let mut diag = DiagSearch::new(&g, &SchedulerConfig::paper(), d).unwrap();
        let narrowest = g.point_count() - 1;
        for ws in (0..=narrowest).filter(|&ws| column_time(&g, ws) > d.value() + 1e-6) {
            let expected = SchedulerError::WindowSearchFailed { window_start: ws };
            prop_assert_eq!(diag.choose_reference(&seq, ws).unwrap_err(), expected.clone());
            prop_assert_eq!(diag.choose(&seq, ws).unwrap_err(), expected);
        }
    }

    /// The sweep kernel's `ChooseDesignPoints` equals the retained naive
    /// reference bit-for-bit on every feasible window, with the kernel's
    /// buffers reused across windows (the service-worker pattern). Besides
    /// the paper's `B`, every case runs each ablation mask
    /// `FactorMask::without(k)` (what `repro_ablation` and
    /// `SchedulerConfig::factor_mask` use): with a term dropped, ties are
    /// common, and the kernel's ascending `<=` scan must keep the same
    /// column as the reference's descending `<` scan.
    #[test]
    fn choose_design_points_is_bit_identical_to_reference(
        g in arb_graph(),
        slack in 0.05f64..1.0,
    ) {
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let seq = topological_order(&g);
        for factor_mask in std::iter::once(FactorMask::ALL).chain((0..5).map(FactorMask::without)) {
            let cfg = SchedulerConfig { factor_mask, ..SchedulerConfig::paper() };
            let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
            for ws in diag.feasible_windows() {
                let naive = diag.choose_reference(&seq, ws).unwrap();
                let fast = diag.choose(&seq, ws).unwrap();
                prop_assert_eq!(fast, &naive[..], "mask={:?} ws={}", factor_mask, ws);
            }
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

/// Long sequences: layered graphs with n = 40..=200 tasks and m = 8, where
/// a row's repair journal holds dozens of runs and advancing a row
/// re-folds many of them in place. Every feasible window must match the
/// reference bit-for-bit, and one n = 200 full-window sweep must re-fold
/// at least one run per row (otherwise the long re-folds go untested).
#[test]
fn long_sequences_stay_bit_identical_to_reference() {
    let m = 8;
    let params = TaskParams {
        current_range: (50.0, 950.0),
        duration_range: (1.0, 15.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let cfg = SchedulerConfig::paper();
    for (n, slack) in [(40usize, 0.2), (120, 0.45), (200, 0.3)] {
        let mut rng = StdRng::seed_from_u64(0x10A6 + n as u64);
        let g = layered(n / 8, 8, 0.3, &params, &mut rng).unwrap();
        assert_eq!(g.task_count(), n);
        let lo = min_makespan(&g).value();
        let hi = max_makespan(&g).value();
        let d = Minutes::new(lo + (hi - lo) * slack);
        let seq = topological_order(&g);
        let mut diag = DiagSearch::new(&g, &cfg, d).unwrap();
        let windows = diag.feasible_windows();
        assert!(windows.contains(&0), "n={n}: the full window is feasible");
        for ws in windows {
            let naive = diag.choose_reference(&seq, ws).unwrap();
            let before = diag.prof();
            let fast = diag.choose(&seq, ws).unwrap().to_vec();
            let refolded = diag.prof().since(&before).journal_rollbacks;
            assert_eq!(fast, naive, "n={n} ws={ws}");
            if n == 200 && ws == 0 {
                assert!(
                    refolded >= (n - 1) as u64,
                    "n={n}: {refolded} runs re-folded over {} rows",
                    n - 1
                );
            }
        }
    }
}

/// The tight-deadline family actually exercises the early row stop: over a
/// fixed set of layered instances, the kernel scores fewer candidates than
/// the windows are wide (every row scoring its full width would make the
/// two equal), and every window stays bit-identical to the reference.
#[test]
fn tight_deadlines_stop_rows_early() {
    let m = 6;
    let params = TaskParams {
        current_range: (50.0, 950.0),
        duration_range: (1.0, 15.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let mut stopped_instances = 0;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x7167_0000 + seed);
        let g = layered(6, 4, 0.3, &params, &mut rng).unwrap();
        let ws = 1 + seed as usize % (m - 2);
        let (candidates, widths) = tight_narrow_sweeps(&g, ws, 0.1);
        assert!(candidates <= widths, "seed={seed}: {candidates} > {widths}");
        if candidates < widths {
            stopped_instances += 1;
        }
    }
    assert!(
        stopped_instances >= 12,
        "rows stopped early on only {stopped_instances} of 24 instances"
    );
}
