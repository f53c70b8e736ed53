//! L1-regularized logistic regression, binary and one-vs-rest multiclass.
//!
//! The trainer is proximal (sub)gradient descent: a full-batch logistic
//! gradient step followed by soft-thresholding, which drives most weights
//! exactly to zero — the sparsity §4.2.2 leans on ("the predictions of SEO
//! campaigns are derived from only a handful of HTML features").
//!
//! All one-vs-rest classes train in one fused kernel
//! ([`MulticlassModel::train`]). It restricts the weights to the training
//! **support** — the feature ids below `dim` that some training vector
//! carries — and keeps them as a row-major `support × classes` matrix, so
//! each epoch is one pass over the samples whose inner loops run over
//! contiguous class rows. The result is bit-identical to training each
//! class alone over the whole dictionary:
//!
//! * a weight outside the support gets a zero gradient in every epoch, and
//!   with `lr > 0` and `lambda ≥ 0` the step and the soft threshold keep
//!   `0.0` at `0.0`, so it ends exactly where the dense model starts it;
//! * every class performs the same `f32` operations in the same order as a
//!   lone binary trainer: logits accumulate entry by entry from the seed
//!   `Iterator::sum` starts from (as [`SparseVec::dot`] does), gradients
//!   accumulate sample by sample, and the local id map is monotone, so
//!   entry order is preserved.
//!
//! The trained weights are scattered back into dense per-class
//! [`BinaryLogReg`]s, which are what prediction reads.

use std::borrow::Borrow;

use crate::sparse::SparseVec;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// L1 penalty weight.
    pub lambda: f32,
    /// Learning rate.
    pub lr: f32,
    /// Full-batch iterations.
    pub epochs: usize,
    /// Abstention threshold for multiclass prediction: the winning class's
    /// OvR probability must reach it, or the model answers "unknown".
    /// One-vs-rest sigmoids are conservative when classes have few
    /// positives against many negatives, so this sits well below 0.5.
    pub min_confidence: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lambda: 1e-4,
            lr: 4.0,
            epochs: 300,
            min_confidence: 0.2,
        }
    }
}

impl TrainConfig {
    /// Panics unless the support restriction is exact for these values: a
    /// negative threshold `lr * lambda` would lift zero weights outside the
    /// support, which the fused kernel never visits.
    fn assert_valid(&self) {
        assert!(
            self.lr.is_finite() && self.lr > 0.0,
            "TrainConfig.lr must be finite and > 0, got {}",
            self.lr
        );
        assert!(
            self.lambda.is_finite() && self.lambda >= 0.0,
            "TrainConfig.lambda must be finite and >= 0, got {}",
            self.lambda
        );
    }
}

fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A trained binary model.
#[derive(Debug, Clone)]
pub struct BinaryLogReg {
    /// Dense weights over the dictionary.
    pub weights: Vec<f32>,
    /// Intercept.
    pub bias: f32,
}

impl BinaryLogReg {
    /// Probability that `x` is positive.
    pub fn prob(&self, x: &SparseVec) -> f32 {
        sigmoid(x.dot(&self.weights) + self.bias)
    }

    /// Number of non-zero weights (model sparsity).
    pub fn nnz(&self) -> usize {
        self.weights.iter().filter(|w| **w != 0.0).count()
    }

    /// Indices of the `k` most positive weights (most characteristic
    /// features of the class).
    pub fn top_features(&self, k: usize) -> Vec<(u32, f32)> {
        let mut idx: Vec<(u32, f32)> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, w)| (i as u32, *w))
            .collect();
        idx.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        idx
    }
}

/// A one-vs-rest multiclass model with abstention.
#[derive(Debug, Clone)]
pub struct MulticlassModel {
    /// Per-class binary models, indexed by class id.
    pub classes: Vec<BinaryLogReg>,
    /// Class display names (same indexing).
    pub class_names: Vec<String>,
    /// Minimum winning probability; below it the model abstains
    /// ("unknown" — the paper attributes only 58% of PSRs).
    pub min_confidence: f32,
}

impl MulticlassModel {
    /// Trains one binary model per class (one-vs-rest) in the fused
    /// support-restricted kernel described in the module docs. `labels[i]`
    /// is the class index of sample `i`; `dim` is the dictionary size, and
    /// feature ids at or beyond it are ignored.
    ///
    /// Panics unless `cfg.lr` is finite and positive and `cfg.lambda` is
    /// finite and non-negative, the range where the kernel is exact.
    pub fn train<X: Borrow<SparseVec>>(
        xs: &[X],
        labels: &[usize],
        class_names: Vec<String>,
        dim: usize,
        cfg: &TrainConfig,
    ) -> Self {
        assert_eq!(xs.len(), labels.len(), "features and labels must align");
        cfg.assert_valid();
        let k = class_names.len();

        // The support: sorted, de-duplicated feature ids below `dim`.
        let mut support: Vec<u32> = xs
            .iter()
            .flat_map(|x| x.borrow().entries().iter().map(|(i, _)| *i))
            .filter(|i| (*i as usize) < dim)
            .collect();
        support.sort_unstable();
        support.dedup();
        // Each vector in local row ids; ids at or beyond `dim` are not in
        // the support and drop out, as `SparseVec::dot` skips them.
        let rows: Vec<Vec<(usize, f32)>> = xs
            .iter()
            .map(|x| {
                x.borrow()
                    .entries()
                    .iter()
                    .filter_map(|(i, v)| Some((support.binary_search(i).ok()?, *v)))
                    .collect()
            })
            .collect();

        let n = xs.len().max(1) as f32;
        let step = cfg.lr / n;
        let threshold = cfg.lr * cfg.lambda;
        // The value `Iterator::sum` folds from, which `SparseVec::dot` uses.
        let logit_seed: f32 = std::iter::empty::<f32>().sum();
        let mut w = vec![0.0f32; support.len() * k];
        let mut grad = vec![0.0f32; w.len()];
        let mut bias = vec![0.0f32; k];
        let mut grad_bias = vec![0.0f32; k];
        // Per-sample logits, turned into errors in place.
        let mut err = vec![0.0f32; k];
        for _ in 0..cfg.epochs {
            grad.fill(0.0);
            grad_bias.fill(0.0);
            for (row, &label) in rows.iter().zip(labels) {
                err.fill(logit_seed);
                for &(j, v) in row {
                    for (z, wc) in err.iter_mut().zip(&w[j * k..][..k]) {
                        *z += wc * v;
                    }
                }
                for (c, (e, (b, gb))) in err
                    .iter_mut()
                    .zip(bias.iter().zip(&mut grad_bias))
                    .enumerate()
                {
                    let y = if c == label { 1.0 } else { 0.0 };
                    *e = sigmoid(*e + b) - y;
                    *gb += *e;
                }
                for &(j, v) in row {
                    for (g, e) in grad[j * k..][..k].iter_mut().zip(&err) {
                        *g += e * v;
                    }
                }
            }
            for (wc, g) in w.iter_mut().zip(&grad) {
                let stepped = *wc - step * g;
                // Proximal step: soft-threshold toward zero (L1).
                *wc = if stepped > threshold {
                    stepped - threshold
                } else if stepped < -threshold {
                    stepped + threshold
                } else {
                    0.0
                };
            }
            for (b, gb) in bias.iter_mut().zip(&grad_bias) {
                *b -= step * gb;
            }
        }

        let classes = (0..k)
            .map(|c| {
                let mut weights = vec![0.0f32; dim];
                for (row, &id) in w.chunks_exact(k).zip(&support) {
                    weights[id as usize] = row[c];
                }
                BinaryLogReg {
                    weights,
                    bias: bias[c],
                }
            })
            .collect();
        MulticlassModel {
            classes,
            class_names,
            min_confidence: cfg.min_confidence,
        }
    }

    /// Per-class probabilities (independent OvR sigmoids).
    pub fn probs(&self, x: &SparseVec) -> Vec<f32> {
        self.classes.iter().map(|m| m.prob(x)).collect()
    }

    /// Predicts `(class, confidence)`; `None` = abstain/unknown.
    pub fn predict(&self, x: &SparseVec) -> Option<(usize, f32)> {
        let probs = self.probs(x);
        let (best, p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        (*p >= self.min_confidence).then_some((best, *p))
    }

    /// Forced (no-abstention) prediction, for accuracy measurement.
    pub fn predict_forced(&self, x: &SparseVec) -> usize {
        self.probs(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A separable toy problem: class decided by which indicator feature
    /// is present, plus shared noise features.
    fn toy(n_per: usize, classes: usize) -> (Vec<SparseVec>, Vec<usize>, usize) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let noise_dims = 10u32;
        for c in 0..classes {
            for k in 0..n_per {
                let mut pairs = vec![(noise_dims + c as u32, 1.0f32)];
                pairs.push((((k * 7 + c) % noise_dims as usize) as u32, 1.0));
                pairs.push((((k * 3 + 1) % noise_dims as usize) as u32, 1.0));
                xs.push(SparseVec::from_pairs(pairs).l2_normalized());
                ys.push(c);
            }
        }
        (xs, ys, noise_dims as usize + classes)
    }

    /// The one-vs-rest model of class `positive` among `classes`.
    fn one_vs_rest(
        xs: &[SparseVec],
        ys: &[usize],
        classes: usize,
        positive: usize,
        dim: usize,
        cfg: &TrainConfig,
    ) -> BinaryLogReg {
        let names = (0..classes).map(|c| format!("C{c}")).collect();
        MulticlassModel::train(xs, ys, names, dim, cfg).classes[positive].clone()
    }

    #[test]
    fn binary_separates_toy_data() {
        let (xs, ys, dim) = toy(20, 2);
        let labels: Vec<f32> = ys.iter().map(|&y| y as f32).collect();
        let m = one_vs_rest(&xs, &ys, 2, 1, dim, &TrainConfig::default());
        let correct = xs
            .iter()
            .zip(&labels)
            .filter(|(x, &y)| (m.prob(x) > 0.5) == (y > 0.5))
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.95,
            "{correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn l1_produces_sparse_models() {
        let (xs, ys, dim) = toy(20, 2);
        let dense_cfg = TrainConfig {
            lambda: 0.0,
            ..TrainConfig::default()
        };
        let sparse_cfg = TrainConfig {
            lambda: 3e-3,
            ..TrainConfig::default()
        };
        let dense = one_vs_rest(&xs, &ys, 2, 1, dim, &dense_cfg);
        let sparse = one_vs_rest(&xs, &ys, 2, 1, dim, &sparse_cfg);
        assert!(
            sparse.nnz() < dense.nnz(),
            "{} !< {}",
            sparse.nnz(),
            dense.nnz()
        );
        assert!(sparse.nnz() > 0);
    }

    #[test]
    fn top_features_identify_the_indicator() {
        let (xs, ys, dim) = toy(25, 3);
        let m = one_vs_rest(&xs, &ys, 3, 1, dim, &TrainConfig::default());
        let top = m.top_features(1);
        assert_eq!(
            top[0].0, 11,
            "indicator feature for class 1 sits at index 11"
        );
    }

    #[test]
    fn multiclass_learns_and_abstains() {
        let (xs, ys, dim) = toy(15, 4);
        let names = (0..4).map(|c| format!("C{c}")).collect();
        let m = MulticlassModel::train(&xs, &ys, names, dim, &TrainConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict_forced(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.9,
            "{correct}/{}",
            xs.len()
        );
        // A featureless vector must be abstained on.
        let blank = SparseVec::default();
        assert_eq!(m.predict(&blank), None);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "TrainConfig.lambda")]
    fn negative_lambda_is_rejected() {
        let (xs, ys, dim) = toy(2, 2);
        let cfg = TrainConfig {
            lambda: -1e-4,
            ..TrainConfig::default()
        };
        MulticlassModel::train(&xs, &ys, vec!["a".into(), "b".into()], dim, &cfg);
    }

    #[test]
    #[should_panic(expected = "TrainConfig.lr")]
    fn non_positive_lr_is_rejected() {
        let (xs, ys, dim) = toy(2, 2);
        let cfg = TrainConfig {
            lr: 0.0,
            ..TrainConfig::default()
        };
        MulticlassModel::train(&xs, &ys, vec!["a".into(), "b".into()], dim, &cfg);
    }
}
