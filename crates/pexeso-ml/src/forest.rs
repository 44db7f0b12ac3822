//! Bagged random forests over the CART trees.

use crate::dataset::Dataset;
use crate::tree::{bootstrap, rng_from, DecisionTree, Task, TreeConfig};

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    /// Features per split; `None` = √p (the usual default).
    pub max_features: Option<usize>,
    pub seed: u64,
}

impl ForestConfig {
    pub fn classification(n_classes: u32) -> Self {
        Self {
            n_trees: 30,
            tree: TreeConfig::classification(n_classes),
            max_features: None,
            seed: 42,
        }
    }

    pub fn regression() -> Self {
        Self {
            n_trees: 30,
            tree: TreeConfig::regression(),
            max_features: None,
            seed: 42,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: Task,
}

impl RandomForest {
    /// Fit on the given training rows of `data`.
    pub fn fit(data: &Dataset, rows: &[usize], config: &ForestConfig) -> Self {
        assert!(!rows.is_empty(), "cannot fit a forest on zero rows");
        let p = data.n_features();
        let mf = config
            .max_features
            .unwrap_or_else(|| (p as f64).sqrt().ceil() as usize)
            .clamp(1, p);
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let mut rng = rng_from(config.seed.wrapping_add(t as u64 * 0x9e3779b9));
            let sample = bootstrap(rows, &mut rng);
            let mut tree_cfg = config.tree.clone();
            tree_cfg.max_features = Some(mf);
            trees.push(DecisionTree::fit(data, &sample, tree_cfg, &mut rng));
        }
        Self {
            trees,
            task: config.tree.task,
        }
    }

    /// Predict one row: majority vote (classification) or mean
    /// (regression).
    pub fn predict(&self, row: &[f32]) -> f32 {
        match self.task {
            Task::Classification { n_classes } => {
                let mut votes = vec![0u32; n_classes as usize];
                for t in &self.trees {
                    let c = (t.predict(row) as usize).min(n_classes as usize - 1);
                    votes[c] += 1;
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(i, _)| i as f32)
                    .unwrap_or(0.0)
            }
            Task::Regression => {
                self.trees.iter().map(|t| t.predict(row)).sum::<f32>() / self.trees.len() as f32
            }
        }
    }

    /// Mean impurity-decrease importance per feature.
    pub fn importances(&self) -> Vec<f64> {
        if self.trees.is_empty() {
            return Vec::new();
        }
        let p = self.trees[0].importances.len();
        let mut acc = vec![0.0f64; p];
        for t in &self.trees {
            for (a, &i) in acc.iter_mut().zip(t.importances.iter()) {
                *a += i;
            }
        }
        let inv = 1.0 / self.trees.len() as f64;
        acc.iter_mut().for_each(|a| *a *= inv);
        acc
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    pub fn task(&self) -> Task {
        self.task
    }
}

/// Convenience: fit on `train`, evaluate accuracy-like agreement on `test`.
pub fn fit_predict(
    data: &Dataset,
    train: &[usize],
    test: &[usize],
    config: &ForestConfig,
) -> Vec<f32> {
    let forest = RandomForest::fit(data, train, config);
    test.iter()
        .map(|&i| forest.predict(&data.features[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Labels;
    use rand::Rng;

    fn blobs(seed: u64, n_per: usize) -> Dataset {
        // Two Gaussian-ish blobs in 3-d.
        let mut rng = rng_from(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2u32 {
            let center = if c == 0 { -1.0f32 } else { 1.0 };
            for _ in 0..n_per {
                features.push(vec![
                    center + rng.gen_range(-0.6f32..0.6),
                    center + rng.gen_range(-0.6f32..0.6),
                    rng.gen_range(-1.0f32..1.0),
                ]);
                labels.push(c);
            }
        }
        Dataset::new(
            features,
            vec!["x".into(), "y".into(), "noise".into()],
            Labels::Classes(labels),
        )
    }

    #[test]
    fn classifies_blobs_well() {
        let d = blobs(1, 100);
        let folds = d.kfold(4, 7);
        let cfg = ForestConfig::classification(2);
        let mut correct = 0usize;
        let mut total = 0usize;
        for (train, test) in folds {
            let preds = fit_predict(&d, &train, &test, &cfg);
            for (p, &i) in preds.iter().zip(test.iter()) {
                if let Labels::Classes(c) = &d.labels {
                    if c[i] == *p as u32 {
                        correct += 1;
                    }
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "blob accuracy {acc}");
    }

    #[test]
    fn regression_tracks_linear_signal() {
        let mut rng = rng_from(2);
        let features: Vec<Vec<f32>> = (0..200)
            .map(|_| vec![rng.gen_range(-1.0f32..1.0)])
            .collect();
        let labels: Vec<f32> = features
            .iter()
            .map(|f| 3.0 * f[0] + rng.gen_range(-0.1..0.1))
            .collect();
        let d = Dataset::new(features, vec!["x".into()], Labels::Values(labels));
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let forest = RandomForest::fit(&d, &rows, &ForestConfig::regression());
        let mse: f32 = (0..d.n_rows())
            .map(|i| {
                let p = forest.predict(&d.features[i]);
                let y = if let Labels::Values(v) = &d.labels {
                    v[i]
                } else {
                    0.0
                };
                (p - y) * (p - y)
            })
            .sum::<f32>()
            / d.n_rows() as f32;
        assert!(mse < 0.5, "regression mse {mse}");
    }

    #[test]
    fn forest_importances_identify_signal() {
        let d = blobs(3, 150);
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let forest = RandomForest::fit(&d, &rows, &ForestConfig::classification(2));
        let imp = forest.importances();
        assert!(
            imp[0] > imp[2] && imp[1] > imp[2],
            "noise should matter least: {imp:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(4, 50);
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let cfg = ForestConfig::classification(2);
        let a = RandomForest::fit(&d, &rows, &cfg);
        let b = RandomForest::fit(&d, &rows, &cfg);
        for i in 0..d.n_rows() {
            assert_eq!(a.predict(&d.features[i]), b.predict(&d.features[i]));
        }
    }

    #[test]
    fn n_trees_respected() {
        let d = blobs(5, 20);
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let mut cfg = ForestConfig::classification(2);
        cfg.n_trees = 7;
        let forest = RandomForest::fit(&d, &rows, &cfg);
        assert_eq!(forest.n_trees(), 7);
    }
}
