//! # batsched-bench
//!
//! The reproduction harness for the DATE'05 paper: one binary per published
//! table/figure (`repro_table1` … `repro_figure5`, plus `repro_ablation`)
//! and criterion runtime benches. This library holds the shared plumbing:
//! simple fixed-width table rendering and the published reference numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Reference values printed in the paper, used for side-by-side reports.
pub mod published {
    /// Table 3: per-iteration minimum battery capacity (mA·min) on G3 at
    /// d = 230 (sequences S1–S4).
    pub const TABLE3_MIN_SIGMA: [f64; 4] = [16353.0, 14725.0, 13737.0, 13737.0];

    /// Table 3, S1 row: (σ, Δ) per window 1:5 … 4:5.
    pub const TABLE3_S1: [(f64, f64); 4] = [
        (17169.0, 229.8),
        (17837.0, 228.4),
        (17038.0, 227.1),
        (16353.0, 228.3),
    ];

    /// Table 4: our algorithm / the Rakhmatov-DP baseline on G2 at
    /// deadlines 55/75/95 min.
    pub const TABLE4_G2: [(f64, f64, f64); 3] = [
        (55.0, 30913.0, 35739.0),
        (75.0, 13751.0, 13885.0),
        (95.0, 7961.0, 8517.0),
    ];

    /// Table 4: our algorithm / the Rakhmatov-DP baseline on G3 at
    /// deadlines 100/150/230 min.
    pub const TABLE4_G3: [(f64, f64, f64); 3] = [
        (100.0, 57429.0, 68120.0),
        (150.0, 41801.0, 48650.0),
        (230.0, 13737.0, 22686.0),
    ];
}

/// Minimal fixed-width table printer (no dependency needed).
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (short rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        fn cell(r: &[String], c: usize) -> &str {
            r.get(c).map(String::as_str).unwrap_or("")
        }
        for r in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (c, w) in width.iter_mut().enumerate() {
                *w = (*w).max(cell(r, c).chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, r: &[String]| {
            for (c, w) in width.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", cell(r, c), w = w);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: usize = width.iter().sum::<usize>() + 2 * width.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            emit(&mut out, r);
        }
        out
    }
}

/// Formats a relative deviation as `+x.x%`.
pub fn pct(ours: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (ours - reference) / reference * 100.0)
}

/// Shared synthetic workloads, so benches and the perf-trajectory harness
/// measure the exact same instances.
pub mod workloads {
    use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
    use batsched_taskgraph::TaskGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Seed of [`synthetic_n50_m8`].
    pub const SYNTH_N50_M8_SEED: u64 = 0xBE7C_0DE5;

    /// The synthetic n=50, m=8 layered instance used by both the criterion
    /// `scheduler` bench and `repro_bench_json` — one definition, so the
    /// recorded `BENCH_scheduler.json` baseline and the criterion numbers
    /// stay comparable.
    pub fn synthetic_n50_m8() -> TaskGraph {
        let m = 8usize;
        let factors: Vec<f64> = (0..m)
            .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
            .collect();
        let params = TaskParams {
            current_range: (100.0, 900.0),
            duration_range: (2.0, 12.0),
            factors,
            scheme: ScalingScheme::ReversedDuration,
            rounding: Rounding::PAPER,
        };
        let mut rng = StdRng::seed_from_u64(SYNTH_N50_M8_SEED);
        layered(10, 5, 0.35, &params, &mut rng).expect("valid generator config")
    }

    /// The n-scaling instance family (m = 8, width-5 layers, seed derived
    /// from [`SYNTH_N50_M8_SEED`] and `n`) shared by `repro_bench_json`'s
    /// `sweep_scaling` section and `loadgen`'s wire admission A/B, so the
    /// kernel-level growth exponent and the admission costs are measured
    /// on the same graphs. `n` must be a multiple of 5.
    pub fn synthetic_scaling(n: usize) -> TaskGraph {
        assert!(
            n >= 10 && n.is_multiple_of(5),
            "scaling instances are width-5 layered"
        );
        let m = 8usize;
        let params = TaskParams {
            current_range: (100.0, 900.0),
            duration_range: (2.0, 12.0),
            factors: (0..m)
                .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
                .collect(),
            scheme: ScalingScheme::ReversedDuration,
            rounding: Rounding::PAPER,
        };
        let mut rng = StdRng::seed_from_u64(SYNTH_N50_M8_SEED ^ n as u64);
        layered(n / 5, 5, 0.35, &params, &mut rng).expect("valid generator config")
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the fitted growth
/// exponent of a runtime series, used by the `sweep_scaling` perf gate.
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let k = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["a", "bbbb"]);
        t.row(["xx", "y"]).row(["1", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(110.0, 100.0), "+10.0%");
        assert_eq!(pct(95.0, 100.0), "-5.0%");
        assert_eq!(pct(1.0, 0.0), "n/a");
    }
}
