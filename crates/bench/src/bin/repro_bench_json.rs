//! Perf-trajectory harness: times the σ-evaluation kernels, the incremental
//! window-search kernel, topological-order enumeration, the exhaustive
//! baseline, and the full scheduler on synthetic instances, then writes
//! `BENCH_scheduler.json` so future changes have a recorded baseline.
//!
//! Run with `cargo run --release -p batsched-bench --bin repro_bench_json`.
//! Flags:
//! * `--full` — more samples (default is quick mode; `--quick` is accepted
//!   as an explicit no-op for symmetry);
//! * `--check` — after measuring, fail (exit 1) if `sigma_full_vs_naive`
//!   or `cdp_speedup` fall below a conservative 2× floor, or if the
//!   `sweep_scaling` fitted growth exponent exceeds 1.4 (the carried
//!   window sweep must stay ~linear in n). CI runs this so perf wins
//!   cannot be silently lost.
//!
//! Reported medians (ns):
//! * `sigma_naive` — one `RvModel::sigma` over the prebuilt 50-interval
//!   profile (the old inner-loop cost, without profile construction);
//! * `sigma_naive_with_profile` — profile construction + σ, what the old
//!   `positional_cost` actually paid per candidate;
//! * `sigma_engine_full` — one full `SigmaEvaluator` pass (cold cache);
//! * `sigma_engine_swap` — one re-evaluation after a single design-point
//!   swap (warm suffix cache);
//! * `cdp_incremental` / `cdp_naive` — one full-window `ChooseDesignPoints`
//!   through the sweep kernel vs. the retained clone-and-rescan reference;
//! * `topo` — orders/sec of the in-place enumeration generator vs. the
//!   retained recursive reference (100 k orders of the n=50 instance);
//! * `exhaustive` — one `Exhaustive::best` solve with the prefix-keyed σ
//!   stack vs. the retained per-leaf path (`Exhaustive::best_reference`),
//!   as orders/sec;
//! * `schedule_run` — one full `batsched_core::schedule` call;
//! * `sweep_scaling` — one full window sweep (`EvaluateWindows`) on the
//!   shared n-scaling instances (n ∈ {25, 50, 100, 200}, m = 8, 70%
//!   relative slack) and the fitted growth exponent of the series — the
//!   evidence that the carried kernel killed the quadratic term;
//! * `weights_scaling` — the eq. 4 subtree-current weights of one
//!   re-sequencing step on the same family (n ∈ {100, 200, 400, 800}):
//!   read off the per-solve descendant sets (`subtree_weights`) vs the
//!   one-walk-per-task reference (`subtree_current_weights`).

#![forbid(unsafe_code)]

use batsched_baselines::Exhaustive;
use batsched_battery::eval::SigmaScratch;
use batsched_battery::rv::RvModel;
use batsched_battery::units::Minutes;
use batsched_bench::fitted_exponent;
use batsched_bench::workloads::{synthetic_n50_m8, synthetic_scaling, SYNTH_N50_M8_SEED};
use batsched_core::schedule::{entry_id, graph_evaluator};
use batsched_core::search::DiagSearch;
use batsched_core::sequence::{subtree_current_weights, subtree_weights};
use batsched_core::{profile_of, schedule, SchedulerConfig};
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::topo::{
    for_each_topological_order, for_each_topological_order_reference, topological_order,
    DescendantSets,
};
use batsched_taskgraph::{PointId, TaskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Median ns/iter of `f`, calibrated so each sample runs ≥ ~2 ms.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let one = start.elapsed().as_nanos().max(25);
    let per_sample = (2_000_000u128 / one).clamp(1, 200_000) as usize;
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

/// Minimum ns/iter of `f` over `samples` batches — the noise-robust
/// estimator for the `sweep_scaling` fit, where a single slow sample on
/// the small instances would skew the fitted exponent.
fn min_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let start = Instant::now();
    f();
    let one = start.elapsed().as_nanos().max(25);
    let per_sample = (2_000_000u128 / one).clamp(1, 200_000) as usize;
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seed of the small exhaustive-baseline instance.
const EXHAUSTIVE_SEED: u64 = 0x0E57_AE11;

/// Instance sizes of the `sweep_scaling` series (m = 8 throughout).
const SWEEP_SCALING_N: [usize; 4] = [25, 50, 100, 200];

/// Instance sizes of the `weights_scaling` series (m = 8 throughout).
const WEIGHTS_SCALING_N: [usize; 4] = [100, 200, 400, 800];

/// A deep layered instance (n=30, m=3) for the exhaustive bench: the
/// assignment DFS dominates, which is exactly the regime the prefix-keyed
/// σ stack accelerates (per-leaf cost O(terms) instead of O(n·terms) plus
/// a per-leaf allocation). Order and assignment caps keep one solve
/// bench-friendly.
fn exhaustive_instance() -> TaskGraph {
    let m = 3usize;
    let params = TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 10.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.6 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let mut rng = StdRng::seed_from_u64(EXHAUSTIVE_SEED);
    layered(15, 2, 0.5, &params, &mut rng).expect("valid generator config")
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let check = args.iter().any(|a| a == "--check");
    let samples = if full { 40 } else { 12 };

    let g = synthetic_n50_m8();
    let n = g.task_count();
    let m = g.point_count();
    let model = RvModel::date05();
    let cfg = SchedulerConfig::paper();
    // Moderate slack: 70% of the way from all-fast to all-lean.
    let lo = min_makespan(&g).value();
    let hi = max_makespan(&g).value();
    let deadline = Minutes::new(lo + (hi - lo) * 0.7);

    let order = topological_order(&g);
    // A mixed assignment exercising every column.
    let assignment: Vec<PointId> = (0..n).map(|t| PointId(t % m)).collect();
    let profile = profile_of(&g, &order, &assignment);
    let end = profile.end();

    let eval = graph_evaluator(&g, &model);
    let entries: Vec<u32> = order
        .iter()
        .map(|&t| entry_id(t, m, assignment[t.index()]))
        .collect();

    eprintln!("instance: n={n}, m={m}, deadline={deadline}");

    let sigma_naive = median_ns(samples, || {
        black_box(model.sigma(black_box(&profile), end));
    });
    let sigma_naive_with_profile = median_ns(samples, || {
        let p = profile_of(&g, &order, &assignment);
        black_box(model.sigma(black_box(&p), p.end()));
    });
    let mut scratch = SigmaScratch::new();
    let sigma_engine_full = median_ns(samples, || {
        scratch.invalidate(); // cold cache: measure the full pass
        black_box(eval.sigma_seq(black_box(&entries), &mut scratch));
    });
    let mut swap_entries = entries.clone();
    let swap_pos = n / 2;
    let mut flip = false;
    eval.sigma_seq(&swap_entries, &mut scratch);
    let sigma_engine_swap = median_ns(samples, || {
        // Toggle one task's design point — the dominant search move.
        let t = order[swap_pos];
        let col = if flip { PointId(0) } else { PointId(m - 1) };
        flip = !flip;
        swap_entries[swap_pos] = entry_id(t, m, col);
        black_box(eval.sigma_seq(black_box(&swap_entries), &mut scratch));
    });

    // One full-window ChooseDesignPoints sweep — the scheduler's hot inner
    // loop — through the sweep kernel and through the retained
    // clone-and-rescan reference.
    let mut diag = DiagSearch::new(&g, &cfg, deadline).expect("valid paper config");
    let cdp_incremental = median_ns(samples, || {
        black_box(diag.choose(black_box(&order), 0).expect("feasible window"));
    });
    let cdp_naive = median_ns(samples.min(12), || {
        black_box(
            diag.choose_reference(black_box(&order), 0)
                .expect("feasible window"),
        );
    });
    let incr = diag.choose(&order, 0).expect("feasible window").to_vec();
    let naive = diag.choose_reference(&order, 0).expect("feasible window");
    assert_eq!(incr, naive, "kernel and reference must agree bit-for-bit");

    // Topological-order enumeration throughput, 100 k orders of the n=50
    // instance (it has astronomically many, so the cap always binds).
    let topo_cap = 100_000usize;
    let topo_new_ns = median_ns(samples.min(8), || {
        black_box(for_each_topological_order(&g, topo_cap, |o| {
            black_box(o);
        }));
    });
    let topo_ref_ns = median_ns(samples.min(8), || {
        black_box(for_each_topological_order_reference(&g, topo_cap, |o| {
            black_box(o);
        }));
    });
    let topo_new_ops = topo_cap as f64 / (topo_new_ns / 1e9);
    let topo_ref_ops = topo_cap as f64 / (topo_ref_ns / 1e9);

    // Exhaustive baseline: one full solve, prefix-keyed σ stack vs. the
    // retained per-leaf suffix-engine path.
    let eg = exhaustive_instance();
    let elo = min_makespan(&eg).value();
    let ehi = max_makespan(&eg).value();
    let ed = Minutes::new(elo + (ehi - elo) * 0.6);
    let ex = Exhaustive {
        max_orders: 8,
        max_assignments_per_order: 4_000,
        ..Default::default()
    };
    let ex_orders = for_each_topological_order(&eg, ex.max_orders, |_| {});
    let (sched_fast, cost_fast) = ex.best(&eg, ed).expect("feasible instance");
    let (sched_slow, cost_slow) = ex.best_reference(&eg, ed).expect("feasible instance");
    // The two paths may only disagree on schedules tied within float
    // association noise; the costs must always match to tolerance.
    assert!(
        (cost_fast - cost_slow).abs() <= 1e-9 * cost_slow.max(1.0),
        "prefix/per-leaf cost mismatch: {cost_fast} vs {cost_slow}"
    );
    if sched_fast != sched_slow {
        let a = sched_fast.battery_cost(&eg, &RvModel::date05()).value();
        let b = sched_slow.battery_cost(&eg, &RvModel::date05()).value();
        assert!(
            (a - b).abs() <= 1e-9 * b.max(1.0),
            "prefix/per-leaf paths picked different non-tied optima: {a} vs {b}"
        );
    }
    let ex_new_ns = median_ns(samples.min(8), || {
        black_box(ex.best(&eg, ed).expect("feasible instance"));
    });
    let ex_ref_ns = median_ns(samples.min(8), || {
        black_box(ex.best_reference(&eg, ed).expect("feasible instance"));
    });
    let ex_new_ops = ex_orders as f64 / (ex_new_ns / 1e9);
    let ex_ref_ops = ex_orders as f64 / (ex_ref_ns / 1e9);

    let schedule_run = median_ns(samples.min(12), || {
        black_box(schedule(&g, deadline, &cfg).expect("feasible synthetic instance"));
    });

    // Sweep scaling: one full EvaluateWindows per sample on the shared
    // n-scaling family, then the fitted growth exponent over n.
    let scaling_ns: Vec<(usize, f64)> = SWEEP_SCALING_N
        .iter()
        .map(|&sn| {
            let sg = synthetic_scaling(sn);
            let slo = min_makespan(&sg).value();
            let shi = max_makespan(&sg).value();
            let sd = Minutes::new(slo + (shi - slo) * 0.7);
            let sseq = topological_order(&sg);
            let mut sdiag = DiagSearch::new(&sg, &cfg, sd).expect("valid paper config");
            sdiag.windows(&sseq).expect("feasible scaling instance");
            let ns = min_ns(samples.max(24), || {
                black_box(sdiag.windows(black_box(&sseq)).expect("feasible instance"));
            });
            (sn, ns)
        })
        .collect();
    let sweep_exponent = fitted_exponent(
        &scaling_ns
            .iter()
            .map(|&(sn, ns)| (sn as f64, ns))
            .collect::<Vec<_>>(),
    );

    // Eq. 4 weights of one re-sequencing step, both ways, on the same
    // family (the assignment does not change the work, only the sums).
    let weights_ns: Vec<(usize, f64, f64)> = WEIGHTS_SCALING_N
        .iter()
        .map(|&wn| {
            let wg = synthetic_scaling(wn);
            let sets = DescendantSets::new(&wg);
            let assignment = vec![PointId(0); wn];
            let sets_ns = median_ns(samples, || {
                black_box(subtree_weights(&wg, &sets, black_box(&assignment)));
            });
            let walk_ns = median_ns(samples.min(8), || {
                black_box(subtree_current_weights(&wg, black_box(&assignment)));
            });
            (wn, sets_ns, walk_ns)
        })
        .collect();
    let weights_json = |pick: fn(&(usize, f64, f64)) -> String| {
        weights_ns.iter().map(pick).collect::<Vec<_>>().join(", ")
    };
    let weights_n_json = weights_json(|w| w.0.to_string());
    let weights_sets_json = weights_json(|w| format!("{:.0}", w.1));
    let weights_walk_json = weights_json(|w| format!("{:.0}", w.2));

    let speedup_full = sigma_naive / sigma_engine_full;
    let speedup_vs_old_inner = sigma_naive_with_profile / sigma_engine_full;
    let speedup_swap = sigma_naive_with_profile / sigma_engine_swap;
    let cdp_speedup = cdp_naive / cdp_incremental;
    let topo_speedup = topo_new_ops / topo_ref_ops;
    let exhaustive_speedup = ex_new_ops / ex_ref_ops;
    let scaling_n_json = scaling_ns
        .iter()
        .map(|&(sn, _)| sn.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let scaling_ns_json = scaling_ns
        .iter()
        .map(|&(_, ns)| format!("{ns:.0}"))
        .collect::<Vec<_>>()
        .join(", ");

    let json = format!(
        "{{\n  \"instance\": {{\"n\": {n}, \"m\": {m}, \"deadline_min\": {dl}, \"seed\": {seed}}},\n  \
         \"quick\": {quick},\n  \
         \"sigma_eval_ns\": {{\n    \"naive\": {sigma_naive:.1},\n    \
         \"naive_with_profile\": {sigma_naive_with_profile:.1},\n    \
         \"engine_full\": {sigma_engine_full:.1},\n    \
         \"engine_swap\": {sigma_engine_swap:.1}\n  }},\n  \
         \"cdp_ns\": {{\n    \"incremental\": {cdp_incremental:.1},\n    \
         \"naive\": {cdp_naive:.1}\n  }},\n  \
         \"topo\": {{\n    \"orders\": {topo_cap},\n    \
         \"orders_per_sec\": {topo_new_ops:.0},\n    \
         \"orders_per_sec_reference\": {topo_ref_ops:.0}\n  }},\n  \
         \"exhaustive\": {{\n    \"instance\": {{\"n\": {exn}, \"m\": {exm}, \"deadline_min\": {exd}, \"seed\": {exseed}}},\n    \
         \"orders\": {ex_orders},\n    \
         \"solve_ns\": {ex_new_ns:.0},\n    \
         \"solve_ns_reference\": {ex_ref_ns:.0},\n    \
         \"topo_orders_per_sec\": {ex_new_ops:.1},\n    \
         \"topo_orders_per_sec_reference\": {ex_ref_ops:.1}\n  }},\n  \
         \"schedule_run_ns\": {schedule_run:.1},\n  \
         \"sweep_scaling\": {{\n    \"n\": [{scaling_n_json}],\n    \
         \"evaluate_windows_ns\": [{scaling_ns_json}],\n    \
         \"fitted_exponent\": {sweep_exponent:.3}\n  }},\n  \
         \"weights_scaling\": {{\n    \"n\": [{weights_n_json}],\n    \
         \"descendant_sets_ns\": [{weights_sets_json}],\n    \
         \"walk_per_task_ns\": [{weights_walk_json}]\n  }},\n  \
         \"speedup\": {{\n    \"sigma_full_vs_naive\": {speedup_full:.2},\n    \
         \"sigma_full_vs_old_inner_loop\": {speedup_vs_old_inner:.2},\n    \
         \"sigma_swap_vs_old_inner_loop\": {speedup_swap:.2},\n    \
         \"cdp_speedup\": {cdp_speedup:.2},\n    \
         \"topo_speedup\": {topo_speedup:.2},\n    \
         \"exhaustive_speedup\": {exhaustive_speedup:.2}\n  }}\n}}\n",
        dl = deadline.value(),
        seed = SYNTH_N50_M8_SEED,
        quick = !full,
        exn = eg.task_count(),
        exm = eg.point_count(),
        exd = ed.value(),
        exseed = EXHAUSTIVE_SEED,
    );
    std::fs::write("BENCH_scheduler.json", &json).expect("write BENCH_scheduler.json");
    println!("{json}");
    eprintln!("wrote BENCH_scheduler.json");

    if check {
        // Conservative floors (actual ratios are well above): catch a
        // regression that silently loses an order-of-magnitude win without
        // making CI flaky on a noisy machine.
        let mut failed = false;
        for (name, value, floor) in [
            ("sigma_full_vs_naive", speedup_full, 2.0),
            ("cdp_speedup", cdp_speedup, 2.0),
        ] {
            if value < floor {
                eprintln!("PERF REGRESSION: {name} = {value:.2}x, floor {floor:.1}x");
                failed = true;
            }
        }
        // The carried sweep must stay ~linear in n: a regrown quadratic
        // term shows up here long before the fixed-size medians move.
        if sweep_exponent > 1.4 {
            eprintln!("PERF REGRESSION: sweep_scaling exponent = {sweep_exponent:.3}, ceiling 1.4");
            failed = true;
        }
        if failed {
            // ExitCode, not process::exit: destructors still run, so the
            // snapshot file written above is fully flushed.
            return std::process::ExitCode::FAILURE;
        }
        eprintln!(
            "perf floors OK (sigma_full_vs_naive >= 2x, cdp_speedup >= 2x, \
             sweep exponent {sweep_exponent:.2} <= 1.4)"
        );
    }
    std::process::ExitCode::SUCCESS
}
