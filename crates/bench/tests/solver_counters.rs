//! The solver's phase counters are exact: after one `schedule_in` run,
//! `Prof::windows` equals the number of `WindowRecord`s in the run's trace,
//! and every window sweep scores each of its `n − 1` rows in full.

use batsched_bench::workloads::synthetic_n50_m8;
use batsched_core::prelude::*;
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::paper::{g2, G2_TABLE4_DEADLINES};
use batsched_taskgraph::TaskGraph;

fn assert_counters_exact(name: &str, g: &TaskGraph, deadline: f64) {
    let mut ws = SolverWorkspace::new();
    let solution = schedule_in(
        g,
        Minutes::new(deadline),
        &SchedulerConfig::default(),
        &mut ws,
    )
    .expect("feasible instance");
    let prof = ws.prof();
    let windows: usize = solution.trace.iter().map(|it| it.windows.len()).sum();
    let rows_per_window = g.task_count() as u64 - 1;
    assert_eq!(prof.windows, windows as u64, "{name} d={deadline}: windows");
    assert_eq!(
        prof.rows_full,
        prof.windows * rows_per_window,
        "{name} d={deadline}: rows_full"
    );
    assert_eq!(prof.rows_carried, 0, "{name} d={deadline}: rows_carried");
}

#[test]
fn g2_counters_are_exact_at_every_table4_deadline() {
    let g = g2();
    for d in G2_TABLE4_DEADLINES {
        assert_counters_exact("G2", &g, d);
    }
}

#[test]
fn synthetic_n50_m8_counters_are_exact() {
    let g = synthetic_n50_m8();
    let lo = min_makespan(&g).value();
    let hi = max_makespan(&g).value();
    assert_counters_exact("synthetic_n50_m8", &g, lo + (hi - lo) * 0.7);
}
