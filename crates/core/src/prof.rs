//! Solver phase profiling: cumulative counters for the work the window
//! search actually did — windows evaluated, rows and candidates scored,
//! stop-state probes, repair-journal activity and σ-cache reuse.
//!
//! The counters are compile-always and disarmed-cheap: each is a plain
//! `u64` add on a path that already does far more work (a candidate's
//! scoring is dozens of float operations; the increment is one register
//! add). They live inside the scratch structures the
//! search already threads everywhere, so no signature changes and no
//! atomics on the hot path. A serving worker snapshots
//! [`SolverWorkspace::prof`](crate::algorithm::SolverWorkspace::prof)
//! before and after a request and diffs with [`Prof::since`].

use serde::{Deserialize, Serialize};

/// Declares [`Prof`] from one list of counters, so each name is written
/// once and drives the struct, its serialised form, [`Prof::FIELDS`] and
/// the array view every aggregate (`since`, `merge`, the service's totals
/// and its `batsched_solver_*_total` series) is computed over.
macro_rules! prof_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Cumulative solver-phase counters (see the module docs for the
        /// counting sites).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Prof {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Prof {
            /// Counter names in declaration (and serialisation) order.
            pub const FIELDS: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// The counters in [`Prof::FIELDS`] order.
            pub fn values(&self) -> [u64; Prof::FIELDS.len()] {
                [$(self.$field),*]
            }

            /// The profile holding `values` in [`Prof::FIELDS`] order.
            pub fn from_values(values: [u64; Prof::FIELDS.len()]) -> Prof {
                let [$($field),*] = values;
                Prof { $($field),* }
            }
        }
    };
}

prof_counters! {
    /// Windows evaluated: one per full `ChooseDesignPoints` sweep. The
    /// weighted-sequence re-costing, which reuses the best window's
    /// assignment without a sweep, is not counted.
    windows,
    /// Sweep rows scored: one per tagged position, so a window sweep of
    /// an `n`-task sequence adds `n − 1`. A row scores its candidate
    /// columns up to the first one the repair cannot make feasible (see
    /// [`Prof::candidates`]).
    rows_full,
    /// Never incremented, so it reads 0: the sweep scores every row in
    /// full. Kept because `perfbench`'s traced run reads it.
    rows_carried,
    /// Repair promotions recorded: one per column step of each repair
    /// run the sweep discovers (each run is discovered once per window).
    journal_promotions,
    /// Repair runs re-folded in place: when a row tags a task whose run is
    /// in the journal, that run is removed and every run behind it has its
    /// boundary sums recomputed; this counts those recomputed runs.
    journal_rollbacks,
    /// Candidate columns scored across all rows: at most the window's
    /// width per row, fewer when a row stops at its first infeasible
    /// column.
    candidates,
    /// Run-boundary entries (`r_sum`) the stop-state searches compared:
    /// each feasible candidate gallops from the previous one's stop state,
    /// so this stays a small multiple of `candidates`.
    stop_probes,
    /// σ-engine sequence evaluations.
    sigma_evals,
    /// Sequence positions served from the σ suffix cache across those
    /// evaluations.
    sigma_reused,
    /// Sequence positions recomputed (cache miss portion).
    sigma_fresh,
}

impl Prof {
    /// The counter deltas accumulated since `earlier` was snapshotted
    /// (saturating, so a swapped or reset workspace yields zeros instead
    /// of wrapping).
    #[must_use]
    pub fn since(&self, earlier: &Prof) -> Prof {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Adds `other`'s counters into `self` (aggregation across requests).
    pub fn merge(&mut self, other: &Prof) {
        *self = self.zip_with(other, |a, b| a + b);
    }

    fn zip_with(&self, other: &Prof, f: impl Fn(u64, u64) -> u64) -> Prof {
        let mut values = self.values();
        for (v, o) in values.iter_mut().zip(other.values()) {
            *v = f(*v, o);
        }
        Prof::from_values(values)
    }

    /// `true` when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == Prof::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_and_saturates() {
        let a = Prof {
            windows: 5,
            rows_full: 100,
            sigma_evals: 40,
            ..Prof::default()
        };
        let b = Prof {
            windows: 8,
            rows_full: 120,
            sigma_evals: 41,
            ..Prof::default()
        };
        let d = b.since(&a);
        assert_eq!((d.windows, d.rows_full, d.sigma_evals), (3, 20, 1));
        // A reset workspace (smaller counters) saturates to zero.
        let z = a.since(&b);
        assert!(z.is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut total = Prof::default();
        total.merge(&Prof {
            windows: 2,
            rows_full: 1,
            ..Prof::default()
        });
        total.merge(&Prof {
            windows: 3,
            journal_promotions: 7,
            ..Prof::default()
        });
        assert_eq!(total.windows, 5);
        assert_eq!(total.rows_full, 1);
        assert_eq!(total.journal_promotions, 7);
    }
}
