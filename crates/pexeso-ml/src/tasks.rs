//! The three Table-V-style ML tasks over a synthetic lake.
//!
//! The paper enriches a query table (company categories, Amazon toys,
//! video-game sales) by joining lake tables discovered with each
//! competitor, then trains a random forest and compares micro-F1 / MSE.
//! The Kaggle datasets are unavailable offline, so [`make_task`] plants an
//! equivalent structure in the generated lake: every entity carries a
//! latent class and value; lake tables expose noisy transforms of those
//! latents as attributes; the query table's label is derived from the same
//! latents; its *base* features are deliberately weak. A method that joins
//! more of the semantically-matching rows recovers more of the planted
//! signal — reproducing the no-join < equi-join < PEXESO ordering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pexeso_lake::generator::{GenTable, SyntheticLake};
use pexeso_lake::JoinMapping;

use crate::augment::{augment, AugmentConfig};
use crate::dataset::{Dataset, Labels};
use crate::forest::{ForestConfig, RandomForest};
use crate::metrics::{mean_std, micro_f1, mse};

/// Classification or regression (micro-F1 vs MSE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    Classification,
    Regression,
}

/// Specification of one Table-V-style task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    pub name: String,
    pub kind: TaskKind,
    /// Entity domain the query table draws from.
    pub domain: usize,
    pub n_rows: usize,
    pub seed: u64,
}

/// A materialised task: the query table (whose key column is what gets
/// joined) plus the base supervised dataset.
#[derive(Debug, Clone)]
pub struct MlTask {
    pub spec: TaskSpec,
    pub query: GenTable,
    pub base: Dataset,
}

/// Build a task over `lake`. The base features carry only weak signal
/// (latent + heavy noise); labels derive from the entity latents.
pub fn make_task(lake: &SyntheticLake, spec: TaskSpec) -> MlTask {
    let query = lake.make_query(spec.domain, spec.n_rows, spec.seed);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7a5c);
    let n_classes = lake.config.num_classes;
    let mut features = Vec::with_capacity(spec.n_rows);
    let mut cls = Vec::with_capacity(spec.n_rows);
    let mut vals = Vec::with_capacity(spec.n_rows);
    for &e in &query.entities {
        let entity = &lake.vocab.entities[e];
        // Weak base features: heavily-noised latent + pure noise.
        features.push(vec![
            entity.latent_value + rng.gen_range(-3.0f32..3.0),
            rng.gen_range(-1.0f32..1.0),
        ]);
        // Labels: latent class with 5 % label noise / latent value + noise.
        let c = if rng.gen_bool(0.05) {
            rng.gen_range(0..n_classes)
        } else {
            entity.latent_class
        };
        cls.push(c);
        vals.push(entity.latent_value * 2.0 + rng.gen_range(-0.3f32..0.3));
    }
    let labels = match spec.kind {
        TaskKind::Classification => Labels::Classes(cls),
        TaskKind::Regression => Labels::Values(vals),
    };
    let base = Dataset::new(
        features,
        vec!["base_weak".into(), "base_noise".into()],
        labels,
    );
    MlTask { spec, query, base }
}

/// Outcome of evaluating one method on one task (a Table V cell).
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// micro-F1 (classification) or MSE (regression), mean over folds.
    pub metric_mean: f64,
    pub metric_std: f64,
}

/// Train/evaluate with 4-fold cross-validation, as in the paper.
pub fn evaluate(data: &Dataset, kind: TaskKind, seed: u64) -> EvalOutcome {
    let folds = data.kfold(4, seed);
    let config = match (kind, data.n_classes()) {
        (TaskKind::Classification, Some(n)) => ForestConfig::classification(n.max(2)),
        _ => ForestConfig::regression(),
    };
    let mut scores = Vec::with_capacity(folds.len());
    for (train, test) in folds {
        let forest = RandomForest::fit(data, &train, &config);
        match (&data.labels, kind) {
            (Labels::Classes(truth), TaskKind::Classification) => {
                let y_true: Vec<u32> = test.iter().map(|&i| truth[i]).collect();
                let y_pred: Vec<u32> = test
                    .iter()
                    .map(|&i| forest.predict(&data.features[i]) as u32)
                    .collect();
                scores.push(micro_f1(&y_true, &y_pred));
            }
            (Labels::Values(truth), TaskKind::Regression) => {
                let y_true: Vec<f32> = test.iter().map(|&i| truth[i]).collect();
                let y_pred: Vec<f32> = test
                    .iter()
                    .map(|&i| forest.predict(&data.features[i]))
                    .collect();
                scores.push(mse(&y_true, &y_pred));
            }
            _ => unreachable!("task kind matches label kind by construction"),
        }
    }
    let (metric_mean, metric_std) = mean_std(&scores);
    EvalOutcome {
        metric_mean,
        metric_std,
    }
}

/// Evaluate a task after augmenting with a join mapping (pass an empty
/// mapping for the "no-join" row). Returns the outcome plus the number of
/// augmented features used.
pub fn evaluate_with_mapping(
    task: &MlTask,
    lake: &SyntheticLake,
    mapping: &JoinMapping,
    config: &AugmentConfig,
) -> (EvalOutcome, usize) {
    let mut data = task.base.clone();
    let lake_tables: Vec<&pexeso_lake::table::Table> =
        lake.tables.iter().map(|t| &t.table).collect();
    let added = augment(&mut data, &lake_tables, mapping, config);
    let outcome = evaluate(&data, task.spec.kind, task.spec.seed);
    (outcome, added.len())
}

/// Ground-truth join mapping (oracle): every query row matched to every
/// lake row sharing its entity. Upper-bounds what any discovery method can
/// contribute; used in tests to sanity-check the planted signal.
pub fn oracle_mapping(task: &MlTask, lake: &SyntheticLake) -> JoinMapping {
    let mut mapping = JoinMapping::new(task.query.entities.len());
    for (qi, &qe) in task.query.entities.iter().enumerate() {
        for (ti, table) in lake.tables.iter().enumerate() {
            for (ri, &te) in table.entities.iter().enumerate() {
                if te == qe {
                    mapping.matches[qi].push((ti, ri));
                }
            }
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use pexeso_lake::generator::GeneratorConfig;

    fn small_lake(seed: u64) -> SyntheticLake {
        let mut cfg = GeneratorConfig::tiny(seed);
        cfg.num_tables = 12;
        cfg.entities_per_domain = 40;
        cfg.rows_per_table = (20, 30);
        cfg.num_classes = 3;
        SyntheticLake::generate(cfg)
    }

    #[test]
    fn task_construction_shapes() {
        let lake = small_lake(1);
        let task = make_task(
            &lake,
            TaskSpec {
                name: "clf".into(),
                kind: TaskKind::Classification,
                domain: 0,
                n_rows: 30,
                seed: 5,
            },
        );
        assert_eq!(task.base.n_rows(), 30);
        assert_eq!(task.query.entities.len(), 30);
        assert!(matches!(task.base.labels, Labels::Classes(_)));
    }

    #[test]
    fn oracle_join_beats_no_join_classification() {
        let lake = small_lake(2);
        let task = make_task(
            &lake,
            TaskSpec {
                name: "clf".into(),
                kind: TaskKind::Classification,
                domain: 0,
                n_rows: 60,
                seed: 6,
            },
        );
        let empty = JoinMapping::new(60);
        let cfg = AugmentConfig {
            min_coverage: 5,
            ..Default::default()
        };
        let (no_join, n0) = evaluate_with_mapping(&task, &lake, &empty, &cfg);
        let oracle = oracle_mapping(&task, &lake);
        let (with_join, n1) = evaluate_with_mapping(&task, &lake, &oracle, &cfg);
        assert_eq!(n0, 0);
        assert!(n1 > 0, "oracle join must add features");
        assert!(
            with_join.metric_mean > no_join.metric_mean + 0.05,
            "join should raise micro-F1: {} vs {}",
            with_join.metric_mean,
            no_join.metric_mean
        );
    }

    #[test]
    fn oracle_join_lowers_regression_mse() {
        let lake = small_lake(3);
        let task = make_task(
            &lake,
            TaskSpec {
                name: "reg".into(),
                kind: TaskKind::Regression,
                domain: 1,
                n_rows: 60,
                seed: 7,
            },
        );
        let empty = JoinMapping::new(60);
        let cfg = AugmentConfig {
            min_coverage: 5,
            ..Default::default()
        };
        let (no_join, _) = evaluate_with_mapping(&task, &lake, &empty, &cfg);
        let oracle = oracle_mapping(&task, &lake);
        let (with_join, _) = evaluate_with_mapping(&task, &lake, &oracle, &cfg);
        assert!(
            with_join.metric_mean < no_join.metric_mean * 0.9,
            "join should lower MSE: {} vs {}",
            with_join.metric_mean,
            no_join.metric_mean
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let lake = small_lake(4);
        let task = make_task(
            &lake,
            TaskSpec {
                name: "clf".into(),
                kind: TaskKind::Classification,
                domain: 0,
                n_rows: 40,
                seed: 8,
            },
        );
        let a = evaluate(&task.base, TaskKind::Classification, 9);
        let b = evaluate(&task.base, TaskKind::Classification, 9);
        assert_eq!(a.metric_mean, b.metric_mean);
        assert_eq!(a.metric_std, b.metric_std);
    }
}
