//! Figure 5 — NDR/ARR pareto fronts of the Gaussian, linearised and
//! triangular membership-function families.
//!
//! As in the paper, the classifier is trained once (8 coefficients, 50
//! samples at 90 Hz, α_train fixed for ARR ≥ 97 % on training set 2); the
//! α_test coefficient is then swept on the test set to trace the NDR/ARR
//! trade-off of each membership family.

use hbc_embedded::int_classifier::AlphaQ16;
use hbc_embedded::MembershipKind;
use hbc_nfc::metrics::{pareto_front, ParetoPoint};

use crate::config::ExperimentConfig;
use crate::engine::{BeatEvaluator, Engine, WbsnEvaluator};
use crate::pipeline::TrainedSystem;
use crate::Result;

/// Membership-function family compared in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MfFamily {
    /// Floating-point Gaussian membership functions (the PC reference).
    Gaussian,
    /// Integer 4-segment linearised membership functions.
    Linearized,
    /// Integer triangular membership functions.
    Triangular,
}

impl std::fmt::Display for MfFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MfFamily::Gaussian => write!(f, "gaussian"),
            MfFamily::Linearized => write!(f, "linear approx"),
            MfFamily::Triangular => write!(f, "triangular"),
        }
    }
}

/// The pareto fronts of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5Report {
    /// Raw sweep points per family (before pareto filtering).
    pub sweeps: Vec<(MfFamily, Vec<ParetoPoint>)>,
    /// Pareto-optimal fronts per family.
    pub fronts: Vec<(MfFamily, Vec<ParetoPoint>)>,
}

impl Figure5Report {
    /// The pareto front of one family.
    pub fn front(&self, family: MfFamily) -> &[ParetoPoint] {
        self.fronts
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, pts)| pts.as_slice())
            .unwrap_or(&[])
    }

    /// Best NDR a family achieves at (or above) a given ARR, if any sweep
    /// point reaches it.
    pub fn ndr_at_arr(&self, family: MfFamily, min_arr: f64) -> Option<f64> {
        self.sweeps
            .iter()
            .find(|(f, _)| *f == family)
            .and_then(|(_, pts)| {
                pts.iter()
                    .filter(|p| p.arr >= min_arr)
                    .map(|p| p.ndr)
                    .fold(None, |best: Option<f64>, ndr| {
                        Some(best.map_or(ndr, |b| b.max(ndr)))
                    })
            })
    }
}

impl std::fmt::Display for Figure5Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 5 — NDR/ARR pareto fronts per membership family")?;
        for (family, front) in &self.fronts {
            writeln!(f, "  {family}:")?;
            for p in front {
                writeln!(
                    f,
                    "    alpha = {:>6.3}   ARR = {:>6.2} %   NDR = {:>6.2} %",
                    p.alpha,
                    100.0 * p.arr,
                    100.0 * p.ndr
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the Figure 5 experiment.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or training fails.
pub fn figure5_pareto(config: &ExperimentConfig) -> Result<Figure5Report> {
    figure5_pareto_with(&Engine::default(), config)
}

/// [`figure5_pareto`] with an explicit evaluation engine: the α_test points
/// of each family are independent full-test-set scans, so the engine spreads
/// them over its workers (the sweep order of the report is preserved).
///
/// # Errors
///
/// Returns an error when the configuration is invalid or training fails.
pub fn figure5_pareto_with(engine: &Engine, config: &ExperimentConfig) -> Result<Figure5Report> {
    config.validate()?;
    let system = TrainedSystem::train(config)?;
    let alphas: Vec<f64> = (0..config.pareto_points)
        .map(|i| i as f64 / (config.pareto_points - 1) as f64)
        .collect();

    let mut sweeps = Vec::new();

    // Gaussian (floating point) on the downsampled windows, like the WBSN
    // variants, so the three families differ only by the membership shape.
    // Each α point scans the whole test split sequentially; the engine
    // parallelises across points instead of within them.
    let gaussian_points = engine.try_map(&alphas, |&alpha| {
        let report = system
            .pc_downsampled
            .evaluate(&system.dataset_downsampled.test, alpha)
            .map_err(crate::CoreError::Nfc)?;
        Ok(ParetoPoint {
            alpha,
            ndr: report.ndr(),
            arr: report.arr(),
        })
    })?;
    sweeps.push((MfFamily::Gaussian, gaussian_points));

    // Integer families.
    for (family, kind) in [
        (MfFamily::Linearized, MembershipKind::Linearized),
        (MfFamily::Triangular, MembershipKind::Triangular),
    ] {
        let firmware = system.wbsn_with_kind(kind)?;
        let points = engine.try_map(&alphas, |&alpha| {
            let report = WbsnEvaluator {
                firmware: &firmware,
                alpha: AlphaQ16::from_f64(alpha)?,
            }
            .evaluate_batch(&system.dataset.test)?;
            Ok(ParetoPoint {
                alpha,
                ndr: report.ndr(),
                arr: report.arr(),
            })
        })?;
        sweeps.push((family, points));
    }

    let fronts = sweeps
        .iter()
        .map(|(family, pts)| (*family, pareto_front(pts)))
        .collect();
    Ok(Figure5Report { sweeps, fronts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Figure 5 trains the full system; run it once and share the report
    /// across tests to keep the suite fast.
    fn report() -> &'static Figure5Report {
        static REPORT: OnceLock<Figure5Report> = OnceLock::new();
        REPORT.get_or_init(|| figure5_pareto(&ExperimentConfig::quick()).expect("figure 5 runs"))
    }

    #[test]
    fn every_family_produces_a_front() {
        let r = report();
        assert_eq!(r.sweeps.len(), 3);
        assert_eq!(r.fronts.len(), 3);
        for family in [
            MfFamily::Gaussian,
            MfFamily::Linearized,
            MfFamily::Triangular,
        ] {
            assert!(
                !r.front(family).is_empty(),
                "family {family} has an empty pareto front"
            );
        }
    }

    #[test]
    fn arr_is_monotone_in_alpha_for_every_family() {
        let r = report();
        for (family, points) in &r.sweeps {
            for w in points.windows(2) {
                assert!(
                    w[1].arr >= w[0].arr - 1e-9,
                    "{family}: ARR decreased from {} to {} as alpha grew",
                    w[0].arr,
                    w[1].arr
                );
            }
        }
    }

    #[test]
    fn linearized_follows_gaussian_and_beats_triangular_at_high_arr() {
        // The paper's qualitative conclusion: at high recognition rates the
        // linearised classifier stays close to the Gaussian one, while the
        // triangular variant falls behind.
        let r = report();
        let target = 0.97;
        let gaussian = r.ndr_at_arr(MfFamily::Gaussian, target);
        let linearized = r.ndr_at_arr(MfFamily::Linearized, target);
        let triangular = r.ndr_at_arr(MfFamily::Triangular, target);
        let (g, l) = (gaussian.unwrap_or(0.0), linearized.unwrap_or(0.0));
        assert!(g > 0.5, "gaussian NDR at 97% ARR is {g}");
        assert!(
            l > g - 0.2,
            "linearised NDR {l} should stay within a few points of gaussian {g}"
        );
        // Triangular either fails to reach the ARR target at a useful NDR or
        // trails the linearised variant.
        let t = triangular.unwrap_or(0.0);
        assert!(
            t <= l + 0.05,
            "triangular NDR {t} should not beat the linearised variant {l}"
        );
    }

    #[test]
    fn fronts_are_pareto_optimal() {
        let r = report();
        for (_, front) in &r.fronts {
            for a in front {
                for b in front {
                    let dominates =
                        (b.ndr >= a.ndr && b.arr >= a.arr) && (b.ndr > a.ndr || b.arr > a.arr);
                    assert!(!dominates, "front contains a dominated point");
                }
            }
        }
    }

    #[test]
    fn display_lists_every_family() {
        let text = report().to_string();
        assert!(text.contains("gaussian"));
        assert!(text.contains("linear approx"));
        assert!(text.contains("triangular"));
    }
}
