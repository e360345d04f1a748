//! Table II — Normal Discard Rate at a fixed 97 % Abnormal Recognition Rate,
//! varying the number of projected coefficients.
//!
//! Three configurations are compared for k ∈ {8, 16, 32}:
//!
//! * **NDR-PC** — floating-point Gaussian classifier on full-rate
//!   (360 Hz, 200-sample) windows;
//! * **NDR-WBSN** — integer classifier with linearised membership functions
//!   on 4×-downsampled (90 Hz, 50-sample) windows;
//! * **PCA-PC** — the same floating-point classifier fed with PCA
//!   coefficients instead of random projections.
//!
//! As in the paper, the defuzzification coefficient of each configuration is
//! re-calibrated on the test set so that ARR ≥ 97 %, and the NDR obtained at
//! that operating point is reported.

use hbc_baseline::Pca;
use hbc_ecg::beat::Beat;
use hbc_ecg::Dataset;
use hbc_nfc::metrics::{calibrate_alpha, EvaluationReport};
use hbc_nfc::training::TrainingExample;
use hbc_nfc::{NeuroFuzzyClassifier, NfcTrainer};

use crate::config::ExperimentConfig;
use crate::engine::Engine;
use crate::pipeline::{calibrate_wbsn_alpha, TrainedSystem};
use crate::Result;

/// One column of Table II (one coefficient count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Column {
    /// Number of coefficients.
    pub coefficients: usize,
    /// NDR of the floating-point PC configuration (at ARR ≥ target).
    pub ndr_pc: f64,
    /// NDR of the integer WBSN configuration.
    pub ndr_wbsn: f64,
    /// NDR of the PCA baseline.
    pub pca_pc: f64,
    /// The ARR actually achieved by each configuration (PC, WBSN, PCA), for
    /// verification that the calibration target was met.
    pub achieved_arr: [f64; 3],
}

/// The full Table II report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Report {
    /// One column per swept coefficient count.
    pub columns: Vec<Table2Column>,
    /// The ARR target used for calibration.
    pub target_arr: f64,
}

impl Table2Report {
    /// The column for a given coefficient count, if it was swept.
    pub fn column(&self, coefficients: usize) -> Option<&Table2Column> {
        self.columns.iter().find(|c| c.coefficients == coefficients)
    }

    /// Largest absolute NDR difference between the PC and WBSN rows across
    /// all columns — the quantity the paper argues is "a few percentage
    /// points".
    pub fn max_pc_wbsn_gap(&self) -> f64 {
        self.columns
            .iter()
            .map(|c| (c.ndr_pc - c.ndr_wbsn).abs())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for Table2Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table II — NDR (%) at ARR >= {:.0} %, varying the coefficient count",
            100.0 * self.target_arr
        )?;
        write!(f, "{:<12}", "coefficients")?;
        for c in &self.columns {
            write!(f, " {:>8}", c.coefficients)?;
        }
        writeln!(f)?;
        for (label, pick) in [
            (
                "NDR-PC",
                (|c: &Table2Column| c.ndr_pc) as fn(&Table2Column) -> f64,
            ),
            ("NDR-WBSN", |c| c.ndr_wbsn),
            ("PCA-PC", |c| c.pca_pc),
        ] {
            write!(f, "{label:<12}")?;
            for c in &self.columns {
                write!(f, " {:>8.2}", 100.0 * pick(c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs the Table II experiment.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or training fails.
pub fn table2_ndr(config: &ExperimentConfig) -> Result<Table2Report> {
    table2_ndr_with(&Engine::default(), config)
}

/// [`table2_ndr`] with an explicit evaluation engine: the test-set
/// projections and every α-calibration probe are dataset-scale scans and run
/// on the engine's workers.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or training fails.
pub fn table2_ndr_with(engine: &Engine, config: &ExperimentConfig) -> Result<Table2Report> {
    config.validate()?;
    let mut columns = Vec::with_capacity(config.coefficient_sweep.len());
    // Every column trains on the same seeded dataset: synthesise it once and
    // hand it from one column's system to the next.
    let mut dataset = Dataset::synthetic_with(config.dataset, config.seed, engine.par());
    for &k in &config.coefficient_sweep {
        let system = TrainedSystem::train_on(config, dataset, k)?;
        columns.push(column(engine, config, &system, k)?);
        dataset = system.dataset;
    }
    Ok(Table2Report {
        columns,
        target_arr: config.target_arr,
    })
}

/// One column of Table II from a system trained with `k` coefficients.
fn column(
    engine: &Engine,
    config: &ExperimentConfig,
    system: &TrainedSystem,
    k: usize,
) -> Result<Table2Column> {
    // --- NDR-PC: calibrate α on the test set for the target ARR. ---
    let pc_projected = project_all(engine, system, &system.dataset.test)?;
    let (_, pc_report) = calibrate_on(
        engine,
        &system.pc.classifier,
        &pc_projected,
        config.target_arr,
    );

    // --- NDR-WBSN: integer pipeline on full-rate windows (it downsamples
    //     and quantises internally). ---
    let (_, wbsn_report) = calibrate_wbsn_alpha(
        engine,
        &system.wbsn,
        &system.dataset.test,
        config.target_arr,
    )?;

    // --- PCA-PC: fit PCA on training set 1, train the same NFC on the
    //     PCA coefficients, calibrate on the test set. ---
    let pca_report = pca_baseline(engine, config, system, k)?;

    Ok(Table2Column {
        coefficients: k,
        ndr_pc: pc_report.ndr(),
        ndr_wbsn: wbsn_report.ndr(),
        pca_pc: pca_report.ndr(),
        achieved_arr: [pc_report.arr(), wbsn_report.arr(), pca_report.arr()],
    })
}

/// Projects every labelled beat with `project` in parallel
/// `engine.batch_size()` batches, preserving beat order.
fn project_batched<F>(
    engine: &Engine,
    beats: &[Beat],
    project: F,
) -> Result<Vec<(hbc_ecg::BeatClass, Vec<f64>)>>
where
    F: Fn(&Beat) -> Result<Vec<f64>> + Sync,
{
    let labelled: Vec<&Beat> = beats.iter().filter(|b| b.class.index().is_some()).collect();
    let batches: Vec<&[&Beat]> = labelled.chunks(engine.batch_size()).collect();
    let projected = engine.try_map(&batches, |batch| {
        batch
            .iter()
            .map(|b| project(b).map(|c| (b.class, c)))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(projected.into_iter().flatten().collect())
}

/// Projects a beat split with the system's PC projection, keeping labels.
fn project_all(
    engine: &Engine,
    system: &TrainedSystem,
    beats: &[Beat],
) -> Result<Vec<(hbc_ecg::BeatClass, Vec<f64>)>> {
    project_batched(engine, beats, |b| {
        system
            .pc
            .projection
            .try_project(&b.samples)
            .map_err(crate::CoreError::Rp)
    })
}

/// Calibrates α on pre-projected beats for a float classifier. Every probe of
/// the calibration scans all projected beats, parallelised in ordered batches
/// so the report is bit-identical to a sequential scan.
///
/// Unlike the integer pipeline, the float classifier cannot guarantee
/// ARR(α = 1) = 1 (outlier beats saturate to margin 1.0 and stay classified
/// at any α), so when even α = 1 misses the target the best-reachable
/// operating point is reported instead of panicking.
fn calibrate_on(
    engine: &Engine,
    classifier: &NeuroFuzzyClassifier,
    projected: &[(hbc_ecg::BeatClass, Vec<f64>)],
    target_arr: f64,
) -> (f64, EvaluationReport) {
    let batches: Vec<&[(hbc_ecg::BeatClass, Vec<f64>)]> =
        projected.chunks(engine.batch_size()).collect();
    let evaluate = |alpha: f64| {
        let partials = engine.map(&batches, |batch| {
            let mut report = EvaluationReport::new();
            for (truth, coeffs) in *batch {
                let decision = classifier
                    .classify(coeffs, alpha)
                    .expect("projection width matches the classifier");
                report.record(*truth, decision.class);
            }
            report
        });
        let mut report = EvaluationReport::new();
        for partial in &partials {
            report.merge(partial);
        }
        report
    };
    // The fallback re-evaluates α = 1 (calibrate_alpha does not expose the
    // report it probed internally); it only runs in the rare
    // target-unreachable case, where one extra scan is noise next to the
    // ~10 probes of the search itself.
    calibrate_alpha(target_arr, 1e-3, &evaluate).unwrap_or_else(|| (1.0, evaluate(1.0)))
}

/// Trains and evaluates the PCA baseline for one coefficient count.
fn pca_baseline(
    engine: &Engine,
    config: &ExperimentConfig,
    system: &TrainedSystem,
    k: usize,
) -> Result<EvaluationReport> {
    let train_rows: Vec<Vec<f64>> = system
        .dataset
        .training1
        .iter()
        .map(|b| b.samples.clone())
        .collect();
    let pca = Pca::fit(&train_rows, k)?;

    let examples: Vec<TrainingExample> = system
        .dataset
        .training1
        .iter()
        .filter_map(|b| b.class.index().map(|c| (b, c)))
        .map(|(b, class)| TrainingExample::new(pca.project(&b.samples), class))
        .collect();
    let trained = NfcTrainer::new(config.training)
        .train(&examples)
        .map_err(crate::CoreError::Nfc)?;

    let projected = project_batched(
        engine,
        &system.dataset.test,
        |b| Ok(pca.project(&b.samples)),
    )?;
    let (_, report) = calibrate_on(engine, &trained.classifier, &projected, config.target_arr);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single shared quick run: Table II trains three systems, so keep the
    /// sweep small by reusing the quick configuration.
    fn quick_report() -> Table2Report {
        table2_ndr(&ExperimentConfig::quick()).expect("table 2 runs")
    }

    #[test]
    fn all_configurations_reach_high_ndr_at_the_arr_target() {
        let report = quick_report();
        assert_eq!(report.columns.len(), 3);
        for column in &report.columns {
            // Paper conclusion 1: a small number of coefficients already
            // achieves NDR above 90 %; on the synthetic surrogate we accept a
            // slightly wider band but every configuration must stay high.
            assert!(
                column.ndr_pc > 0.80,
                "k={} NDR-PC {} too low",
                column.coefficients,
                column.ndr_pc
            );
            assert!(
                column.ndr_wbsn > 0.70,
                "k={} NDR-WBSN {} too low",
                column.coefficients,
                column.ndr_wbsn
            );
            assert!(
                column.pca_pc > 0.80,
                "k={} PCA-PC {} too low",
                column.coefficients,
                column.pca_pc
            );
            // Calibration must have achieved the requested ARR.
            for (i, arr) in column.achieved_arr.iter().enumerate() {
                assert!(
                    *arr >= 0.97,
                    "config {i} of k={} has ARR {arr}",
                    column.coefficients
                );
            }
        }
    }

    #[test]
    fn one_synthesis_gives_the_columns_of_per_column_training() {
        // Each column as the sweep computed it before it shared one
        // dataset: a system trained from scratch for every coefficient
        // count.
        let config = ExperimentConfig::quick();
        let engine = Engine::default();
        let report = quick_report();
        for (&k, shared) in config.coefficient_sweep.iter().zip(&report.columns) {
            let system = TrainedSystem::train_with_coefficients(&config, k).expect("training");
            let fresh = column(&engine, &config, &system, k).expect("column");
            let bits = |c: &Table2Column| {
                [c.ndr_pc, c.ndr_wbsn, c.pca_pc]
                    .into_iter()
                    .chain(c.achieved_arr)
                    .map(f64::to_bits)
                    .collect::<Vec<_>>()
            };
            assert_eq!(shared.coefficients, k);
            assert_eq!(bits(shared), bits(&fresh), "k = {k}");
        }
    }

    #[test]
    fn wbsn_stays_within_a_few_points_of_pc() {
        // Paper conclusion 2: the embedded approximations cost only a few
        // percentage points of NDR.
        let report = quick_report();
        assert!(
            report.max_pc_wbsn_gap() < 0.15,
            "PC/WBSN gap {} too large",
            report.max_pc_wbsn_gap()
        );
    }

    #[test]
    fn report_formatting_contains_every_row_and_column() {
        let report = quick_report();
        let text = report.to_string();
        assert!(text.contains("NDR-PC"));
        assert!(text.contains("NDR-WBSN"));
        assert!(text.contains("PCA-PC"));
        for c in &report.columns {
            assert!(text.contains(&format!("{:>8}", c.coefficients)));
        }
        assert!(report.column(8).is_some());
        assert!(report.column(64).is_none());
    }
}
