//! Monte-Carlo robustness analysis — an extension beyond the paper.
//!
//! The paper schedules against *worst-case* execution times. Real tasks
//! jitter, and a schedule whose battery margin is thin can die on an
//! unlucky run even though the nominal plan fits. This module samples
//! jittered missions (each task's duration scaled by an independent
//! uniform factor) and estimates the probability that the mission
//! completes within both the deadline and the battery.

use crate::engine::Simulator;
use batsched_battery::model::BatteryModel;
use batsched_battery::profile::LoadProfile;
use batsched_battery::units::Minutes;
use batsched_core::Schedule;
use batsched_taskgraph::TaskGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Uniform multiplicative jitter on task durations:
/// `actual = nominal · U(1 − spread, 1 + spread)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurationJitter {
    /// Relative half-width of the uniform factor, in `[0, 1)`.
    pub spread: f64,
}

impl DurationJitter {
    /// No jitter: every sample equals the nominal mission.
    pub const NONE: Self = Self { spread: 0.0 };
}

/// Aggregate outcome of a Monte-Carlo campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Samples drawn.
    pub samples: usize,
    /// Missions that finished all tasks within deadline and battery.
    pub successes: usize,
    /// Missions that ran out of battery.
    pub depletions: usize,
    /// Missions that finished the work but after the deadline.
    pub deadline_misses: usize,
    /// `successes / samples`.
    pub success_rate: f64,
    /// Mean completion time of successful missions (minutes).
    pub mean_makespan: f64,
}

/// Monte-Carlo mission sampler (deterministic per seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionSampler {
    /// The simulator configuration (platform, capacity, deadline).
    pub simulator: Simulator,
    /// Duration jitter model.
    pub jitter: DurationJitter,
    /// Number of missions to sample.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of one sampled mission.
#[derive(Clone, Copy)]
enum TrialOutcome {
    Success { makespan: f64 },
    Depleted,
    Late,
}

impl MissionSampler {
    /// Stable per-trial seed: trials are independent streams so the
    /// campaign produces identical results however its trials are split
    /// across threads.
    fn trial_seed(&self, trial: usize) -> u64 {
        self.seed ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Samples one jittered mission.
    fn trial<M: BatteryModel + ?Sized>(
        &self,
        g: &TaskGraph,
        schedule: &Schedule,
        model: &M,
        trial: usize,
    ) -> TrialOutcome {
        let mut rng = StdRng::seed_from_u64(self.trial_seed(trial));
        let spread = self.jitter.spread.clamp(0.0, 0.999);
        // Build the jittered physical profile (transitions included).
        let mut p = LoadProfile::with_capacity(2 * schedule.order().len());
        let mut prev_col: Option<usize> = None;
        let mut makespan = 0.0f64;
        for &t in schedule.order() {
            let col = schedule.point_of(t).index();
            if let Some(prev) = prev_col {
                let tt = self.simulator.platform.transition_time(prev, col);
                if tt.value() > 0.0 {
                    if self.simulator.platform.transition.current.value() > 0.0 {
                        p.push(tt, self.simulator.platform.transition.current)
                            .expect("positive transition");
                    } else {
                        p.push_rest(tt).expect("positive transition");
                    }
                    makespan += tt.value();
                }
            }
            let pt = g.point(t, schedule.point_of(t));
            let factor = if spread > 0.0 {
                rng.gen_range(1.0 - spread..=1.0 + spread)
            } else {
                1.0
            };
            let dur = Minutes::new(pt.duration.value() * factor);
            p.push(dur, pt.current).expect("positive jittered duration");
            makespan += dur.value();
            prev_col = Some(col);
        }

        let died = model
            .lifetime(&p, self.simulator.capacity)
            .is_some_and(|at| at.value() < makespan);
        if died {
            TrialOutcome::Depleted
        } else if self
            .simulator
            .deadline
            .is_some_and(|d| makespan > d.value() + 1e-9)
        {
            TrialOutcome::Late
        } else {
            TrialOutcome::Success { makespan }
        }
    }

    /// Folds outcomes in trial order into the report.
    fn tally(&self, outcomes: impl IntoIterator<Item = TrialOutcome>) -> MonteCarloReport {
        let mut samples = 0usize;
        let mut successes = 0usize;
        let mut depletions = 0usize;
        let mut deadline_misses = 0usize;
        let mut makespan_sum = 0.0;
        for o in outcomes {
            samples += 1;
            match o {
                TrialOutcome::Success { makespan } => {
                    successes += 1;
                    makespan_sum += makespan;
                }
                TrialOutcome::Depleted => depletions += 1,
                TrialOutcome::Late => deadline_misses += 1,
            }
        }
        MonteCarloReport {
            samples,
            successes,
            depletions,
            deadline_misses,
            success_rate: successes as f64 / samples as f64,
            mean_makespan: if successes > 0 {
                makespan_sum / successes as f64
            } else {
                f64::NAN
            },
        }
    }

    /// Runs the campaign for `schedule` on `g` under `model`.
    ///
    /// Trials are split into ordered, contiguous chunks, one scoped thread
    /// per core that [`std::thread::available_parallelism`] reports (in
    /// the calling thread when it reports one). Each trial draws from its
    /// own RNG stream and the outcomes are tallied in trial order, so the
    /// report is bit-identical to the sequential fold on any core count.
    pub fn run<M: BatteryModel + Sync + ?Sized>(
        &self,
        g: &TaskGraph,
        schedule: &Schedule,
        model: &M,
    ) -> MonteCarloReport {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_on(g, schedule, model, cores)
    }

    /// [`Self::run`] over at most `threads` threads.
    fn run_on<M: BatteryModel + Sync + ?Sized>(
        &self,
        g: &TaskGraph,
        schedule: &Schedule,
        model: &M,
        threads: usize,
    ) -> MonteCarloReport {
        let samples = self.samples.max(1);
        let threads = threads.clamp(1, samples);
        let trial = |i| self.trial(g, schedule, model, i);
        if threads == 1 {
            return self.tally((0..samples).map(trial));
        }
        let chunk = samples.div_ceil(threads);
        let outcomes: Vec<TrialOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..samples)
                .step_by(chunk)
                .map(|lo| {
                    let hi = (lo + chunk).min(samples);
                    scope.spawn(move || (lo..hi).map(trial).collect::<Vec<_>>())
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        self.tally(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_battery::model::peak_apparent_charge;
    use batsched_battery::rv::RvModel;
    use batsched_battery::units::MilliAmpMinutes;
    use batsched_core::SchedulerConfig;
    use batsched_taskgraph::paper::g2;

    fn setup() -> (batsched_taskgraph::TaskGraph, Schedule, RvModel) {
        let g = g2();
        let plan = batsched_core::schedule(&g, Minutes::new(75.0), &SchedulerConfig::paper())
            .unwrap()
            .schedule;
        (g, plan, RvModel::date05())
    }

    fn sampler(capacity: f64, deadline: f64, spread: f64, samples: usize) -> MissionSampler {
        MissionSampler {
            simulator: Simulator::paper(
                MilliAmpMinutes::new(capacity),
                Some(Minutes::new(deadline)),
            ),
            jitter: DurationJitter { spread },
            samples,
            seed: 0xCAFE,
        }
    }

    #[test]
    fn zero_jitter_reproduces_the_deterministic_verdict() {
        let (g, plan, model) = setup();
        let report = sampler(50_000.0, 75.0, 0.0, 10).run(&g, &plan, &model);
        assert_eq!(report.successes, 10);
        assert_eq!(report.success_rate, 1.0);
        assert!((report.mean_makespan - plan.makespan(&g).value()).abs() < 1e-9);
    }

    #[test]
    fn thin_battery_margin_fails_under_jitter() {
        let (g, plan, model) = setup();
        let profile = plan.to_profile(&g);
        let (_, peak) = peak_apparent_charge(&model, &profile, 64);
        // 0.5% above nominal peak: fine deterministically, fragile at ±10%.
        let tight = sampler(peak.value() * 1.005, 1e9, 0.10, 200);
        let report = tight.run(&g, &plan, &model);
        assert!(
            report.depletions > 0,
            "jitter must break a razor-thin margin"
        );
        assert!(report.success_rate < 1.0);
        // A 30% margin shrugs the same jitter off.
        let roomy = sampler(peak.value() * 1.3, 1e9, 0.10, 200);
        let report = roomy.run(&g, &plan, &model);
        assert_eq!(report.success_rate, 1.0);
    }

    #[test]
    fn tight_deadline_misses_show_up_separately() {
        let (g, plan, model) = setup();
        // Plan ends ~74.7; ±10% jitter around it straddles a 74.7 deadline.
        let s = sampler(1e9, plan.makespan(&g).value(), 0.10, 200);
        let report = s.run(&g, &plan, &model);
        assert!(report.deadline_misses > 0);
        assert!(report.successes > 0);
        assert_eq!(report.depletions, 0);
        assert_eq!(
            report.successes + report.deadline_misses + report.depletions,
            report.samples
        );
    }

    #[test]
    fn fan_out_equals_the_sequential_fold() {
        let (g, plan, model) = setup();
        // `{:?}` prints each f64 in its shortest round-trip form (and NaN,
        // the mean of zero successes, as "NaN"): equal text, equal bits.
        for samples in [0, 1, 7, 64] {
            let s = sampler(20_000.0, 74.0, 0.05, samples);
            let sequential = s.tally((0..samples.max(1)).map(|i| s.trial(&g, &plan, &model, i)));
            assert_eq!(sequential.samples, samples.max(1));
            let expected = format!("{sequential:?}");
            assert_eq!(format!("{:?}", s.run(&g, &plan, &model)), expected);
            for threads in [1, 2, 3, 8] {
                let fanned = s.run_on(&g, &plan, &model, threads);
                assert_eq!(format!("{fanned:?}"), expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let (g, plan, model) = setup();
        let a = sampler(20_000.0, 75.0, 0.05, 100).run(&g, &plan, &model);
        let b = sampler(20_000.0, 75.0, 0.05, 100).run(&g, &plan, &model);
        assert_eq!(a, b);
    }
}
