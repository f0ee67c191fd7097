//! Scheduler configuration: battery parameters, weight rules, ablations.

use crate::error::SchedulerError;
use batsched_battery::rv::RvModel;
use batsched_taskgraph::EnergyMetric;
use serde::{Deserialize, Serialize};

/// Weight rule for the *initial* sequence (`SequenceDecEnergy` in the
/// paper). §4.1 says "average energy", but the published Table 2 sequence
/// S1 follows decreasing average current: under the energy rule T2 would
/// precede T4 in G3's S1. All three readings are provided;
/// [`InitialWeight::AverageCurrent`] reproduces the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InitialWeight {
    /// Decreasing mean design-point current (reproduces Table 2).
    #[default]
    AverageCurrent,
    /// Decreasing mean design-point energy (the §4.1 prose).
    AverageEnergy,
    /// Decreasing mean design-point power (`I·V`).
    AveragePower,
}

/// Enables/disables individual terms of the suitability function
/// `B = SR + CR + ENR + CIF + DPF` for ablation studies.
///
/// Disabling `dpf` removes only its *finite* contribution: the infinite
/// deadline-violation veto always applies, otherwise the search could fix
/// infeasible design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FactorMask {
    /// Slack ratio term.
    pub sr: bool,
    /// Current ratio term.
    pub cr: bool,
    /// Energy ratio term.
    pub enr: bool,
    /// Current-increase-fraction term.
    pub cif: bool,
    /// Design-point-fraction term (finite part only; see type docs).
    pub dpf: bool,
}

impl Default for FactorMask {
    fn default() -> Self {
        Self::ALL
    }
}

impl FactorMask {
    /// All five factors active — the paper's B.
    pub const ALL: Self = Self {
        sr: true,
        cr: true,
        enr: true,
        cif: true,
        dpf: true,
    };

    /// A mask with exactly one factor disabled; `index` follows the order
    /// SR, CR, ENR, CIF, DPF.
    ///
    /// # Panics
    ///
    /// Panics when `index >= 5`.
    pub fn without(index: usize) -> Self {
        let mut m = Self::ALL;
        match index {
            0 => m.sr = false,
            1 => m.cr = false,
            2 => m.enr = false,
            3 => m.cif = false,
            4 => m.dpf = false,
            _ => panic!("factor index {index} out of range (0..5)"),
        }
        m
    }

    /// Names matching [`Self::without`] indices.
    pub const NAMES: [&'static str; 5] = ["SR", "CR", "ENR", "CIF", "DPF"];
}

/// Full configuration of the iterative scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Battery diffusion parameter β (`min^{-1/2}`); paper uses 0.273.
    pub beta: f64,
    /// RV-model series truncation; paper uses 10.
    pub series_terms: usize,
    /// Energy metric for weights and ENR: `Charge` (`Σ I·D`, what the
    /// paper's `CalculateFactors` computes) or `TrueEnergy` (`Σ I·V·D`,
    /// its §4 prose).
    pub metric: EnergyMetric,
    /// Initial-sequence weight rule.
    pub initial_weight: InitialWeight,
    /// Suitability-factor ablation mask.
    pub factor_mask: FactorMask,
    /// Safety cap on outer iterations (the paper's loop terminates on
    /// non-improvement; the cap guards pathological inputs).
    pub max_iterations: usize,
}

impl Default for SchedulerConfig {
    /// The paper's configuration.
    fn default() -> Self {
        Self {
            beta: batsched_taskgraph::paper::PAPER_BETA,
            series_terms: batsched_battery::rv::DATE05_TERMS,
            metric: EnergyMetric::Charge,
            initial_weight: InitialWeight::AverageCurrent,
            factor_mask: FactorMask::ALL,
            max_iterations: 64,
        }
    }
}

impl SchedulerConfig {
    /// The exact configuration used for the paper's experiments.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builds the RV battery model for this configuration.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::InvalidConfig`] when β or the series length are out
    /// of range.
    pub fn battery_model(&self) -> Result<RvModel, SchedulerError> {
        RvModel::new(self.beta, self.series_terms).map_err(|e| SchedulerError::InvalidConfig {
            reason: e.to_string(),
        })
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::InvalidConfig`] with the first problem found.
    pub fn validate(&self) -> Result<(), SchedulerError> {
        self.battery_model()?;
        if self.max_iterations == 0 {
            return Err(SchedulerError::InvalidConfig {
                reason: "max_iterations must be at least 1".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_setup() {
        let c = SchedulerConfig::default();
        assert_eq!(c.beta, 0.273);
        assert_eq!(c.series_terms, 10);
        assert_eq!(c.metric, EnergyMetric::Charge);
        assert_eq!(c.initial_weight, InitialWeight::AverageCurrent);
        assert_eq!(c.factor_mask, FactorMask::ALL);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_beta_is_rejected() {
        let c = SchedulerConfig {
            beta: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            c.validate(),
            Err(SchedulerError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_iterations_rejected() {
        let c = SchedulerConfig {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(matches!(
            c.validate(),
            Err(SchedulerError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn factor_mask_without() {
        for i in 0..5 {
            let m = FactorMask::without(i);
            let flags = [m.sr, m.cr, m.enr, m.cif, m.dpf];
            assert_eq!(flags.iter().filter(|&&b| !b).count(), 1);
            assert!(!flags[i]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn factor_mask_index_out_of_range() {
        let _ = FactorMask::without(5);
    }
}
