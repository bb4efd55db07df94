//! One-call execution of a `(dataset, task, method, height)` evaluation
//! cell.
//!
//! The primary entry points are [`run_spec`] and [`run_multi_spec`],
//! which execute a validated [`PipelineSpec`] / [`MultiObjectiveSpec`].
//! Most callers go through the `fsi` facade crate's `Pipeline` builder,
//! which assembles specs fluently.

use crate::error::PipelineError;
use crate::eval::EvalReport;
use crate::methods::{per_cell_partition, reweight_blocks, Method};
use crate::retrainer::{mask_from_indices, training_cell_stats, MlRetrainer};
use crate::spec::{MultiObjectiveSpec, PipelineSpec};
use crate::trainer::{train_and_score, ModelKind};
use fsi_core::multiobjective::{aggregate_tasks, TaskOutput};
use fsi_core::{
    build_kd_tree, CellStats, FairQuadtree, FairSplit, IterativeBuilder, KdTree, MedianSplit,
    MultiObjectiveSplit, QuadConfig, QuadSplitRule, TieBreak,
};
use fsi_data::synth::edgap::sample_zip_seeds;
use fsi_data::{build_design_matrix, LocationEncoding, SpatialDataset};
use fsi_fairness::reweigh::reweigh;
use fsi_fairness::SpatialGroups;
use fsi_geo::{voronoi::voronoi_partition, Partition};
use fsi_ml::split::{train_test_split, TrainTestSplit};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A binary classification task: threshold an outcome column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Outcome column name (e.g. `avg_act`).
    pub outcome: String,
    /// Label threshold: `label = value >= threshold`.
    pub threshold: f64,
}

impl TaskSpec {
    /// The paper's primary task: ACT ≥ 22.
    pub fn act() -> Self {
        Self {
            outcome: "avg_act".into(),
            threshold: 22.0,
        }
    }

    /// The paper's secondary task: family employment ≥ 10 %.
    pub fn employment() -> Self {
        Self {
            outcome: "family_employment_pct".into(),
            threshold: 10.0,
        }
    }
}

/// Shared run configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Classifier family.
    pub model: ModelKind,
    /// Neighborhood encoding fed to the classifier.
    pub encoding: LocationEncoding,
    /// Seed for the train/test split and zip-code seeds.
    pub seed: u64,
    /// Held-out fraction (the paper reports train and test calibration).
    pub test_fraction: f64,
    /// Number of Voronoi seeds for the zip-code baseline.
    pub zip_seeds: usize,
    /// Tie-break rule for split plateaus.
    pub tie_break: TieBreak,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Logistic,
            encoding: LocationEncoding::CentroidXY,
            seed: 7,
            test_fraction: 0.3,
            zip_seeds: 60,
            tie_break: TieBreak::PreferBalanced,
        }
    }
}

/// Result of one `(method, height)` run.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// The method executed.
    pub method: Method,
    /// Requested tree height (region budget `2^h`).
    pub height: usize,
    /// The generated neighborhoods.
    pub partition: Partition,
    /// The KD-tree behind the partition, for methods that build one
    /// (`MedianKd`, `FairKd`, `IterativeFairKd`); `None` for the
    /// reweighting/Voronoi/quadtree baselines. Online serving
    /// (`fsi-serve`) compiles this into a `FrozenIndex`.
    pub tree: Option<KdTree>,
    /// Final-model confidence scores for every individual.
    pub scores: Vec<f64>,
    /// Task labels for every individual.
    pub labels: Vec<bool>,
    /// The train/test split used.
    pub split: TrainTestSplit,
    /// Metrics.
    pub eval: EvalReport,
    /// Normalized feature importances over base features plus one
    /// aggregated "neighborhood" entry (`None` for naive Bayes).
    pub importances: Option<Vec<f64>>,
    /// Names aligned with `importances`.
    pub importance_names: Vec<String>,
    /// Wall-clock spent constructing the partition (including any initial
    /// or per-level trainings the method requires).
    pub build_time: Duration,
    /// Total model trainings performed (construction + final).
    pub trainings: usize,
}

/// Counts-only statistics (median splits ignore scores and labels).
fn count_stats(dataset: &SpatialDataset, train_mask: &[bool]) -> Result<CellStats, PipelineError> {
    let zeros = vec![0.0; dataset.len()];
    let labels = vec![false; dataset.len()];
    training_cell_stats(dataset, &zeros, &labels, train_mask)
}

/// Runs the initial training of Algorithm 1 step 1 (base-grid districting)
/// and returns aggregates for fair splitting.
fn initial_fair_stats(
    dataset: &SpatialDataset,
    labels: &[bool],
    split: &TrainTestSplit,
    train_mask: &[bool],
    config: &RunConfig,
) -> Result<CellStats, PipelineError> {
    let base = per_cell_partition(dataset.grid());
    let design = build_design_matrix(dataset, &base, config.encoding)?;
    let outcome = train_and_score(config.model, &design.matrix, labels, &split.train, None)?;
    training_cell_stats(dataset, &outcome.scores, labels, train_mask)
}

/// Builds the partition for the spec's `(method, height)`. Returns the
/// partition, the number of model trainings construction needed, and the
/// KD-tree for tree-backed methods.
fn build_partition(
    dataset: &SpatialDataset,
    labels: &[bool],
    split: &TrainTestSplit,
    spec: &PipelineSpec,
) -> Result<(Partition, usize, Option<KdTree>), PipelineError> {
    let grid = dataset.grid();
    let config = &spec.config;
    let train_mask = mask_from_indices(dataset.len(), &split.train);
    match spec.method {
        Method::MedianKd => {
            let stats = count_stats(dataset, &train_mask)?;
            let tree = build_kd_tree(&stats, &MedianSplit, &spec.build_config())?;
            Ok((tree.partition(grid)?, 0, Some(tree)))
        }
        Method::FairKd => {
            let stats = initial_fair_stats(dataset, labels, split, &train_mask, config)?;
            let tree = build_kd_tree(&stats, &FairSplit, &spec.build_config())?;
            Ok((tree.partition(grid)?, 1, Some(tree)))
        }
        Method::IterativeFairKd => {
            let mut rt =
                MlRetrainer::new(dataset, labels, config.model, config.encoding, &split.train);
            let tree =
                IterativeBuilder::new(spec.build_config())?.build(grid, &FairSplit, &mut rt)?;
            let trainings = rt.trainings;
            Ok((tree.partition(grid)?, trainings, Some(tree)))
        }
        Method::GridReweight => {
            let (rows, cols) = spec
                .reweight_blocks
                .unwrap_or_else(|| reweight_blocks(spec.height));
            Ok((Partition::uniform(grid, rows, cols)?, 0, None))
        }
        Method::ZipCode => {
            let seeds = sample_zip_seeds(dataset, config.zip_seeds, config.seed);
            Ok((voronoi_partition(grid, &seeds)?, 0, None))
        }
        Method::FairQuad => {
            let stats = initial_fair_stats(dataset, labels, split, &train_mask, config)?;
            let quad = FairQuadtree::build(
                &stats,
                &QuadConfig {
                    levels: spec.height.div_ceil(2),
                    rule: QuadSplitRule::Fair,
                    ..QuadConfig::default()
                },
            )?;
            Ok((quad.partition(grid)?, 1, None))
        }
    }
}

fn normalize_importances(values: Vec<f64>) -> Vec<f64> {
    let total: f64 = values.iter().sum();
    if total > 0.0 {
        values.into_iter().map(|v| v / total).collect()
    } else {
        values
    }
}

/// Executes one evaluation cell described by a validated
/// [`PipelineSpec`]: construct the partition, re-district, train the
/// final model, and measure.
///
/// Calls [`PipelineSpec::validate`] first, so malformed cells fail
/// before any dataset work runs.
pub fn run_spec(dataset: &SpatialDataset, spec: &PipelineSpec) -> Result<MethodRun, PipelineError> {
    spec.validate()?;
    let config = &spec.config;
    if dataset.is_empty() {
        return Err(PipelineError::Ml(fsi_ml::MlError::EmptyDataset));
    }
    let labels = dataset.threshold_labels(&spec.task.outcome, spec.task.threshold)?;
    let split = train_test_split(dataset.len(), config.test_fraction, config.seed)
        .map_err(PipelineError::Ml)?;

    let started = Instant::now();
    let (partition, build_trainings, tree) = build_partition(dataset, &labels, &split, spec)?;
    let build_time = started.elapsed();

    // Step 3 of Algorithm 1: update each individual's neighborhood and
    // train the (final) classifier on the re-districted data.
    let design = build_design_matrix(dataset, &partition, config.encoding)?;
    let groups = SpatialGroups::from_partition(dataset.cells(), &partition)
        .map_err(PipelineError::Fairness)?;
    let weights = if spec.method.uses_reweighting() {
        let train_assignment: Vec<usize> =
            split.train.iter().map(|&i| groups.group_of(i)).collect();
        let train_groups = SpatialGroups::new(train_assignment, groups.num_groups())
            .map_err(PipelineError::Fairness)?;
        let train_labels: Vec<bool> = split.train.iter().map(|&i| labels[i]).collect();
        Some(
            reweigh(&train_labels, &train_groups)
                .map_err(PipelineError::Fairness)?
                .weights,
        )
    } else {
        None
    };
    let outcome = train_and_score(
        config.model,
        &design.matrix,
        &labels,
        &split.train,
        weights.as_deref(),
    )?;
    let eval = EvalReport::compute(&outcome.scores, &labels, &groups, &split)?;

    let mut importance_names = dataset.feature_names().to_vec();
    importance_names.push("neighborhood".into());
    let importances = match outcome.importances {
        Some(per_column) => Some(normalize_importances(
            design.aggregate_location(&per_column)?,
        )),
        None => None,
    };

    Ok(MethodRun {
        method: spec.method,
        height: spec.height,
        partition,
        tree,
        scores: outcome.scores,
        labels,
        split,
        eval,
        importances,
        importance_names,
        build_time,
        trainings: build_trainings + 1,
    })
}

/// Result of a multi-objective run: one shared partition, one evaluation
/// per task.
#[derive(Debug, Clone)]
pub struct MultiObjectiveRun {
    /// The method executed.
    pub method: Method,
    /// Requested tree height.
    pub height: usize,
    /// The single non-overlapping districting shared by all tasks.
    pub partition: Partition,
    /// Per-task evaluation, aligned with the input task order.
    pub per_task: Vec<(TaskSpec, EvalReport)>,
    /// Wall-clock spent constructing the partition.
    pub build_time: Duration,
    /// Total model trainings performed.
    pub trainings: usize,
}

/// Executes the Figure-10 experiment described by a validated
/// [`MultiObjectiveSpec`]: build one districting that serves `m` tasks
/// simultaneously (Multi-Objective Fair KD-tree for [`Method::FairKd`];
/// Median KD-tree and Grid re-weighting as the baselines), then evaluate
/// ENCE per task.
///
/// Calls [`MultiObjectiveSpec::validate`] first, so malformed cells fail
/// before any dataset work runs.
pub fn run_multi_spec(
    dataset: &SpatialDataset,
    spec: &MultiObjectiveSpec,
) -> Result<MultiObjectiveRun, PipelineError> {
    spec.validate()?;
    let (tasks, alphas, config) = (&spec.tasks, &spec.alphas, &spec.config);
    let labels_per_task: Vec<Vec<bool>> = tasks
        .iter()
        .map(|t| dataset.threshold_labels(&t.outcome, t.threshold))
        .collect::<Result<_, _>>()?;
    let split = train_test_split(dataset.len(), config.test_fraction, config.seed)
        .map_err(PipelineError::Ml)?;
    let train_mask = mask_from_indices(dataset.len(), &split.train);
    let grid = dataset.grid();

    let started = Instant::now();
    let (partition, build_trainings) = match spec.method {
        Method::FairKd => {
            // Eq. 11–12: one initial classifier per task over the base grid,
            // residual vectors blended by alpha.
            let base = per_cell_partition(grid);
            let design = build_design_matrix(dataset, &base, config.encoding)?;
            let mut scores_per_task = Vec::with_capacity(tasks.len());
            for labels in &labels_per_task {
                let outcome =
                    train_and_score(config.model, &design.matrix, labels, &split.train, None)?;
                scores_per_task.push(outcome.scores);
            }
            let outputs: Vec<TaskOutput<'_>> = scores_per_task
                .iter()
                .zip(&labels_per_task)
                .map(|(s, y)| TaskOutput {
                    scores: s,
                    labels: y,
                })
                .collect();
            let v_tot = aggregate_tasks(&outputs, alphas)?;
            let masked_v: Vec<f64> = v_tot
                .iter()
                .zip(&train_mask)
                .map(|(&v, &m)| if m { v } else { 0.0 })
                .collect();
            let counts: Vec<f64> = train_mask.iter().map(|&m| f64::from(u8::from(m))).collect();
            let zeros = vec![0.0; grid.len()];
            let stats = CellStats::new(grid, &dataset.cell_sums(&counts)?, &zeros, &zeros)?
                .with_aux(grid, &dataset.cell_sums(&masked_v)?)?;
            let tree = build_kd_tree(&stats, &MultiObjectiveSplit, &spec.build_config())?;
            (tree.partition(grid)?, tasks.len())
        }
        Method::MedianKd => {
            let stats = count_stats(dataset, &train_mask)?;
            let tree = build_kd_tree(&stats, &MedianSplit, &spec.build_config())?;
            (tree.partition(grid)?, 0)
        }
        Method::GridReweight => {
            let (rows, cols) = reweight_blocks(spec.height);
            (Partition::uniform(grid, rows, cols)?, 0)
        }
        other => {
            return Err(PipelineError::InvalidConfig(format!(
                "method {:?} does not support multi-objective runs",
                other
            )));
        }
    };
    let build_time = started.elapsed();

    let design = build_design_matrix(dataset, &partition, config.encoding)?;
    let groups = SpatialGroups::from_partition(dataset.cells(), &partition)
        .map_err(PipelineError::Fairness)?;
    let mut per_task = Vec::with_capacity(tasks.len());
    let mut trainings = build_trainings;
    for (task, labels) in tasks.iter().zip(&labels_per_task) {
        let weights = if spec.method.uses_reweighting() {
            let train_assignment: Vec<usize> =
                split.train.iter().map(|&i| groups.group_of(i)).collect();
            let train_groups = SpatialGroups::new(train_assignment, groups.num_groups())
                .map_err(PipelineError::Fairness)?;
            let train_labels: Vec<bool> = split.train.iter().map(|&i| labels[i]).collect();
            Some(
                reweigh(&train_labels, &train_groups)
                    .map_err(PipelineError::Fairness)?
                    .weights,
            )
        } else {
            None
        };
        let outcome = train_and_score(
            config.model,
            &design.matrix,
            labels,
            &split.train,
            weights.as_deref(),
        )?;
        trainings += 1;
        per_task.push((
            task.clone(),
            EvalReport::compute(&outcome.scores, labels, &groups, &split)?,
        ));
    }

    Ok(MultiObjectiveRun {
        method: spec.method,
        height: spec.height,
        partition,
        per_task,
        build_time,
        trainings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};

    fn small_dataset() -> SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 250,
            grid_side: 16,
            seed: 11,
            ..CityConfig::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    fn cell(method: Method, height: usize) -> PipelineSpec {
        PipelineSpec::new(TaskSpec::act(), method, height)
    }

    fn multi_cell(method: Method, height: usize) -> MultiObjectiveSpec {
        MultiObjectiveSpec::new(
            vec![TaskSpec::act(), TaskSpec::employment()],
            vec![0.5, 0.5],
            method,
            height,
        )
    }

    #[test]
    fn every_method_produces_a_complete_run() {
        let d = small_dataset();
        for method in [
            Method::MedianKd,
            Method::FairKd,
            Method::IterativeFairKd,
            Method::GridReweight,
            Method::ZipCode,
            Method::FairQuad,
        ] {
            let run = run_spec(&d, &cell(method, 3)).unwrap();
            assert_eq!(run.scores.len(), d.len(), "{method:?}");
            assert_eq!(run.labels.len(), d.len());
            assert!(run.eval.full.n == d.len());
            assert!(run.eval.num_regions >= 1);
            assert!(run.trainings >= 1);
            // Partition covers the grid.
            assert_eq!(run.partition.assignments().len(), d.grid().len());
        }
    }

    #[test]
    fn tree_backed_methods_expose_their_tree() {
        let d = small_dataset();
        for method in [Method::MedianKd, Method::FairKd, Method::IterativeFairKd] {
            let run = run_spec(&d, &cell(method, 3)).unwrap();
            let tree = run.tree.as_ref().unwrap_or_else(|| panic!("{method:?}"));
            assert_eq!(tree.num_leaves(), run.partition.num_regions());
            // The exported tree is the partition's tree.
            assert_eq!(tree.partition(d.grid()).unwrap(), run.partition);
        }
        for method in [Method::GridReweight, Method::ZipCode, Method::FairQuad] {
            let run = run_spec(&d, &cell(method, 3)).unwrap();
            assert!(run.tree.is_none(), "{method:?}");
        }
    }

    #[test]
    fn training_counts_match_theorems() {
        let d = small_dataset();
        // Fair KD-tree: 1 initial + 1 final (Theorem 3: one O(h) term).
        let fair = run_spec(&d, &cell(Method::FairKd, 3)).unwrap();
        assert_eq!(fair.trainings, 2);
        // Iterative: one per level + final (Theorem 4).
        let iter = run_spec(&d, &cell(Method::IterativeFairKd, 3)).unwrap();
        assert_eq!(iter.trainings, 4);
        // Median: construction is model-free.
        let median = run_spec(&d, &cell(Method::MedianKd, 3)).unwrap();
        assert_eq!(median.trainings, 1);
    }

    #[test]
    fn region_budgets_match_heights() {
        let d = small_dataset();
        let run = run_spec(&d, &cell(Method::MedianKd, 4)).unwrap();
        assert_eq!(run.eval.num_regions, 16);
        let run = run_spec(&d, &cell(Method::GridReweight, 4)).unwrap();
        assert_eq!(run.eval.num_regions, 16);
    }

    #[test]
    fn reweight_block_override_changes_the_grid() {
        let d = small_dataset();
        let spec = PipelineSpec {
            reweight_blocks: Some((2, 8)),
            ..cell(Method::GridReweight, 4)
        };
        let run = run_spec(&d, &spec).unwrap();
        assert_eq!(run.eval.num_regions, 16);
        // Same region count, different block shape than the derived 4x4.
        let derived = run_spec(&d, &cell(Method::GridReweight, 4)).unwrap();
        assert_ne!(run.partition, derived.partition);
    }

    #[test]
    fn invalid_specs_fail_before_any_work() {
        let d = small_dataset();
        assert!(run_spec(&d, &cell(Method::FairKd, 0)).is_err());
        let spec = PipelineSpec {
            reweight_blocks: Some((4, 4)),
            ..cell(Method::FairKd, 3)
        };
        assert!(run_spec(&d, &spec).is_err());
        let spec = PipelineSpec {
            config: RunConfig {
                test_fraction: 1.0,
                ..RunConfig::default()
            },
            ..cell(Method::FairKd, 3)
        };
        assert!(run_spec(&d, &spec).is_err());
    }

    #[test]
    fn importances_cover_features_plus_neighborhood() {
        let d = small_dataset();
        let run = run_spec(&d, &cell(Method::FairKd, 3)).unwrap();
        let imp = run.importances.unwrap();
        assert_eq!(imp.len(), d.feature_names().len() + 1);
        assert_eq!(run.importance_names.last().unwrap(), "neighborhood");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Naive Bayes exposes no importances.
        let spec = PipelineSpec {
            config: RunConfig {
                model: ModelKind::NaiveBayes,
                ..RunConfig::default()
            },
            ..cell(Method::FairKd, 3)
        };
        let run = run_spec(&d, &spec).unwrap();
        assert!(run.importances.is_none());
    }

    #[test]
    fn multi_objective_shares_one_partition() {
        let d = small_dataset();
        let run = run_multi_spec(&d, &multi_cell(Method::FairKd, 3)).unwrap();
        assert_eq!(run.per_task.len(), 2);
        // Two initial trainings + two final trainings.
        assert_eq!(run.trainings, 4);
        for (task, eval) in &run.per_task {
            assert!(!task.outcome.is_empty());
            assert_eq!(eval.num_regions, run.partition.num_regions());
        }
    }

    #[test]
    fn multi_objective_rejects_unsupported_methods() {
        let d = small_dataset();
        let spec = MultiObjectiveSpec {
            tasks: vec![TaskSpec::act()],
            alphas: vec![1.0],
            ..multi_cell(Method::ZipCode, 3)
        };
        assert!(run_multi_spec(&d, &spec).is_err());
        let spec = MultiObjectiveSpec {
            tasks: vec![],
            alphas: vec![],
            ..multi_cell(Method::FairKd, 3)
        };
        assert!(run_multi_spec(&d, &spec).is_err());
    }

    #[test]
    fn bad_alphas_are_rejected() {
        let d = small_dataset();
        let spec = MultiObjectiveSpec {
            alphas: vec![0.9, 0.9],
            ..multi_cell(Method::FairKd, 3)
        };
        assert!(run_multi_spec(&d, &spec).is_err());
    }

    #[test]
    fn unknown_outcome_errors() {
        let d = small_dataset();
        let spec = PipelineSpec {
            task: TaskSpec {
                outcome: "nope".into(),
                threshold: 0.0,
            },
            ..cell(Method::MedianKd, 3)
        };
        assert!(run_spec(&d, &spec).is_err());
    }

    #[test]
    fn determinism_end_to_end() {
        let d = small_dataset();
        let a = run_spec(&d, &cell(Method::IterativeFairKd, 3)).unwrap();
        let b = run_spec(&d, &cell(Method::IterativeFairKd, 3)).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.eval.full.ence, b.eval.full.ence);
    }
}
