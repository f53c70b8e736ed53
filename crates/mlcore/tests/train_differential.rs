//! The differential harness that locks the fused one-vs-rest trainer to the
//! per-class reference it replaced.
//!
//! `MulticlassModel::train` trains every class in one support-restricted
//! pass per epoch. The reference below trains each class alone over the
//! whole dictionary, as the trainer did before fusion. Every weight and
//! bias must match bit for bit, and so must everything computed from the
//! models: cross-validation results and the refinement loop's labeled set.
//!
//! Three layers of evidence:
//!
//! 1. generated corpora covering the edges of the support restriction
//!    (feature ids at or beyond `dim`, empty vectors, classes without
//!    positives, a single sample, `lambda = 0`, zero or one epoch);
//! 2. the pagegen storefront corpus at 52 classes, with the dictionary
//!    grown over a larger pool than the training set, so `dim ≫ support`
//!    as in the real study;
//! 3. cross-validation and refinement run through both trainers.

use std::collections::BTreeMap;

use proptest::prelude::*;
use ss_ml::eval::{cross_validate, stratified_folds, CvResult};
use ss_ml::logreg::{BinaryLogReg, MulticlassModel, TrainConfig};
use ss_ml::refine::{refine, Oracle};
use ss_ml::{extract_features, Dictionary, SparseVec};
use ss_web::pagegen::storefront::{home_page, product_page, StoreCtx, StoreTemplate};

// ------------------------------------------------ reference trainer ----

fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// One class alone: dense proximal gradient descent over all `dim` weights.
fn reference_binary(xs: &[&SparseVec], ys: &[f32], dim: usize, cfg: &TrainConfig) -> BinaryLogReg {
    let n = xs.len().max(1) as f32;
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;
    let mut grad = vec![0.0f32; dim];
    for _ in 0..cfg.epochs {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut gb = 0.0f32;
        for (x, &y) in xs.iter().zip(ys) {
            let p = sigmoid(x.dot(&w) + b);
            let err = p - y;
            x.add_scaled_into(err, &mut grad);
            gb += err;
        }
        let step = cfg.lr / n;
        for (wi, gi) in w.iter_mut().zip(&grad) {
            *wi -= step * gi;
            let t = cfg.lr * cfg.lambda;
            *wi = if *wi > t {
                *wi - t
            } else if *wi < -t {
                *wi + t
            } else {
                0.0
            };
        }
        b -= step * gb;
    }
    BinaryLogReg {
        weights: w,
        bias: b,
    }
}

/// One-vs-rest as one binary training per class.
fn reference_train(
    xs: &[&SparseVec],
    labels: &[usize],
    class_names: &[String],
    dim: usize,
    cfg: &TrainConfig,
) -> MulticlassModel {
    let classes = (0..class_names.len())
        .map(|c| {
            let ys: Vec<f32> = labels
                .iter()
                .map(|&l| if l == c { 1.0 } else { 0.0 })
                .collect();
            reference_binary(xs, &ys, dim, cfg)
        })
        .collect();
    MulticlassModel {
        classes,
        class_names: class_names.to_vec(),
        min_confidence: cfg.min_confidence,
    }
}

fn assert_models_identical(fused: &MulticlassModel, reference: &MulticlassModel, ctx: &str) {
    assert_eq!(
        fused.classes.len(),
        reference.classes.len(),
        "{ctx}: class count"
    );
    assert_eq!(
        fused.class_names, reference.class_names,
        "{ctx}: class names"
    );
    assert_eq!(
        fused.min_confidence.to_bits(),
        reference.min_confidence.to_bits(),
        "{ctx}: min_confidence"
    );
    for (c, (f, r)) in fused.classes.iter().zip(&reference.classes).enumerate() {
        assert_eq!(f.weights.len(), r.weights.len(), "{ctx}: class {c} dim");
        if let Some(i) =
            (0..f.weights.len()).find(|&i| f.weights[i].to_bits() != r.weights[i].to_bits())
        {
            panic!(
                "{ctx}: class {c} weight {i}: fused {} vs reference {}",
                f.weights[i], r.weights[i]
            );
        }
        assert_eq!(
            f.bias.to_bits(),
            r.bias.to_bits(),
            "{ctx}: class {c} bias: fused {} vs reference {}",
            f.bias,
            r.bias
        );
    }
}

// ------------------------------------- reference cross-validation ----

/// `eval::cross_validate` with the reference trainer and cloned rows.
fn reference_cross_validate(
    xs: &[SparseVec],
    labels: &[usize],
    class_names: &[String],
    dim: usize,
    k: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> CvResult {
    let folds = stratified_folds(labels, k, seed);
    let (mut correct, mut total) = (0usize, 0usize);
    let mut fold_accuracy = Vec::new();
    let mut confusion = BTreeMap::<(usize, usize), usize>::new();
    for f in 0..k {
        let (test, train): (Vec<usize>, Vec<usize>) = (0..xs.len()).partition(|&i| folds[i] == f);
        if test.is_empty() || train.is_empty() {
            continue;
        }
        let train_x: Vec<SparseVec> = train.iter().map(|&i| xs[i].clone()).collect();
        let train_refs: Vec<&SparseVec> = train_x.iter().collect();
        let train_y: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
        let model = reference_train(&train_refs, &train_y, class_names, dim, cfg);
        let mut fold_correct = 0usize;
        for &i in &test {
            let pred = model.predict_forced(&xs[i]);
            if pred == labels[i] {
                fold_correct += 1;
            } else {
                *confusion.entry((labels[i], pred)).or_insert(0) += 1;
            }
        }
        correct += fold_correct;
        total += test.len();
        fold_accuracy.push(fold_correct as f64 / test.len() as f64);
    }
    CvResult {
        accuracy: if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        },
        fold_accuracy,
        confusions: confusion.into_iter().map(|((t, p), c)| (t, p, c)).collect(),
        chance: 1.0 / class_names.len().max(1) as f64,
    }
}

/// Accuracy, fold accuracies, confusions and chance of a CV result.
type CvBits = (u64, Vec<u64>, Vec<(usize, usize, usize)>, u64);

/// Bit patterns of a CV result. Confusions are sorted: the product orders
/// them by count only, so ties come out in hash-map order.
fn cv_bits(r: &CvResult) -> CvBits {
    let mut confusions = r.confusions.clone();
    confusions.sort_unstable();
    (
        r.accuracy.to_bits(),
        r.fold_accuracy.iter().map(|a| a.to_bits()).collect(),
        confusions,
        r.chance.to_bits(),
    )
}

// --------------------------------------------- reference refinement ----

/// An expert who knows every label but cannot tell every third sample.
#[derive(Clone)]
struct PartialOracle {
    truth: Vec<usize>,
}

impl Oracle for PartialOracle {
    fn label(&mut self, idx: usize) -> Option<usize> {
        (!idx.is_multiple_of(3)).then(|| self.truth[idx])
    }
}

/// `refine::refine` with the reference trainer and cloned rows.
#[allow(clippy::too_many_arguments)]
fn reference_refine(
    pool: &[SparseVec],
    seed_labels: &[(usize, usize)],
    class_names: &[String],
    dim: usize,
    cfg: &TrainConfig,
    oracle: &mut impl Oracle,
    per_class_per_round: usize,
    rounds: usize,
) -> (MulticlassModel, Vec<(usize, usize)>, usize, Vec<usize>) {
    let train_on = |labeled: &[(usize, usize)]| {
        let xs: Vec<SparseVec> = labeled.iter().map(|(i, _)| pool[*i].clone()).collect();
        let refs: Vec<&SparseVec> = xs.iter().collect();
        let ys: Vec<usize> = labeled.iter().map(|(_, c)| *c).collect();
        reference_train(&refs, &ys, class_names, dim, cfg)
    };
    let mut labeled = seed_labels.to_vec();
    let mut in_labeled = vec![false; pool.len()];
    for (i, _) in &labeled {
        in_labeled[*i] = true;
    }
    let (mut queries, mut per_round) = (0usize, Vec::new());
    let mut model = train_on(&labeled);
    for _ in 0..rounds {
        let mut per_class: Vec<Vec<(f32, usize)>> = vec![Vec::new(); class_names.len()];
        for (i, x) in pool.iter().enumerate() {
            if !in_labeled[i] {
                if let Some((c, p)) = model.predict(x) {
                    per_class[c].push((p, i));
                }
            }
        }
        let mut confirmed = 0usize;
        for candidates in &mut per_class {
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for &(_, i) in candidates.iter().take(per_class_per_round) {
                queries += 1;
                if let Some(true_class) = oracle.label(i) {
                    labeled.push((i, true_class));
                    in_labeled[i] = true;
                    confirmed += 1;
                }
            }
        }
        per_round.push(confirmed);
        if confirmed == 0 {
            break;
        }
        model = train_on(&labeled);
    }
    (model, labeled, queries, per_round)
}

// ------------------------------------------------------------ checks ----

/// A training problem: samples, labels, classes and dictionary size.
#[derive(Debug, Clone)]
struct Corpus {
    xs: Vec<SparseVec>,
    labels: Vec<usize>,
    class_names: Vec<String>,
    dim: usize,
    cfg: TrainConfig,
}

fn check_training(c: &Corpus, ctx: &str) {
    let refs: Vec<&SparseVec> = c.xs.iter().collect();
    let fused = MulticlassModel::train(&c.xs, &c.labels, c.class_names.clone(), c.dim, &c.cfg);
    let reference = reference_train(&refs, &c.labels, &c.class_names, c.dim, &c.cfg);
    assert_models_identical(&fused, &reference, ctx);
    // Borrowed rows train the same model as owned ones.
    let borrowed = MulticlassModel::train(&refs, &c.labels, c.class_names.clone(), c.dim, &c.cfg);
    assert_models_identical(&borrowed, &reference, &format!("{ctx} (borrowed rows)"));
}

fn check_cross_validation(c: &Corpus, k: usize, seed: u64, ctx: &str) {
    let fused = cross_validate(&c.xs, &c.labels, &c.class_names, c.dim, k, &c.cfg, seed);
    let reference =
        reference_cross_validate(&c.xs, &c.labels, &c.class_names, c.dim, k, &c.cfg, seed);
    assert_eq!(cv_bits(&fused), cv_bits(&reference), "{ctx}: CV result");
}

fn check_refinement(c: &Corpus, seed_labels: &[(usize, usize)], rounds: usize, ctx: &str) {
    let oracle = PartialOracle {
        truth: c.labels.clone(),
    };
    let fused = refine(
        &c.xs,
        seed_labels,
        &c.class_names,
        c.dim,
        &c.cfg,
        &mut oracle.clone(),
        2,
        rounds,
    );
    let (model, labeled, queries, per_round) = reference_refine(
        &c.xs,
        seed_labels,
        &c.class_names,
        c.dim,
        &c.cfg,
        &mut oracle.clone(),
        2,
        rounds,
    );
    assert_eq!(fused.labeled, labeled, "{ctx}: refined labeled set");
    assert_eq!(fused.oracle_queries, queries, "{ctx}: oracle queries");
    assert_eq!(fused.confirmed_per_round, per_round, "{ctx}: confirmations");
    assert_models_identical(&fused.model, &model, &format!("{ctx} (refined model)"));
}

// ------------------------------------------------ generated corpora ----

/// Small random training problems aimed at the support restriction's
/// edges: ids at or beyond `dim`, empty vectors, labels without a class
/// or classes without a label, single samples, `lambda = 0`, and zero or
/// one epoch.
struct Corpora;

impl Strategy for Corpora {
    type Value = Corpus;

    fn generate(&self, rng: &mut TestRng) -> Corpus {
        let dim = rng.below(24) as usize;
        let classes = 1 + rng.below(5) as usize;
        let n = match rng.below(6) {
            0 => rng.below(2) as usize,
            _ => 2 + rng.below(14) as usize,
        };
        let mut xs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let nnz = match rng.below(5) {
                0 => 0,
                _ => 1 + rng.below(8) as usize,
            };
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|_| {
                    let id = rng.below(dim as u64 + 6) as u32;
                    (id, (-3.0f32..3.0).generate(rng))
                })
                .collect();
            let x = SparseVec::from_pairs(pairs);
            xs.push(if rng.below(2) == 0 {
                x.l2_normalized()
            } else {
                x
            });
            labels.push(rng.below(classes as u64 + 1) as usize);
        }
        let lambda = match rng.below(4) {
            0 => 0.0,
            1 => 0.5,
            _ => (0.0f32..0.05).generate(rng),
        };
        let epochs = match rng.below(5) {
            0 => 0,
            1 => 1,
            _ => 2 + rng.below(40) as usize,
        };
        Corpus {
            xs,
            labels,
            class_names: (0..classes).map(|c| format!("C{c}")).collect(),
            dim,
            cfg: TrainConfig {
                lambda,
                lr: (0.05f32..8.0).generate(rng),
                epochs,
                min_confidence: (0.0f32..0.6).generate(rng),
            },
        }
    }
}

fn check_generated(c: &Corpus, ctx: &str) {
    check_training(c, ctx);
    if c.xs.len() >= 2 {
        let k = 2 + c.xs.len() % 3;
        check_cross_validation(c, k, c.xs.len() as u64, ctx);
        let seed_labels: Vec<(usize, usize)> = (0..c.xs.len())
            .step_by(2)
            .map(|i| (i, c.labels[i]))
            .collect();
        check_refinement(c, &seed_labels, 2, ctx);
    }
}

proptest! {
    #[test]
    fn fused_trainer_matches_reference_on_generated_corpora(corpus in Corpora) {
        check_generated(&corpus, &format!("{corpus:?}"));
    }
}

#[test]
fn degenerate_shapes_match_reference() {
    let one = SparseVec::from_pairs(vec![(1, 0.5), (7, 2.0)]);
    let names = |k: usize| (0..k).map(|c| format!("C{c}")).collect::<Vec<_>>();
    let cfg = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let cases = [
        // No samples at all.
        (vec![], vec![], names(3), 4),
        // A single sample whose ids all lie beyond the dictionary.
        (vec![one.clone()], vec![0], names(2), 1),
        // An empty dictionary.
        (
            vec![one.clone(), SparseVec::default()],
            vec![1, 0],
            names(2),
            0,
        ),
        // No classes.
        (vec![one.clone()], vec![0], names(0), 8),
        // Only empty vectors.
        (vec![SparseVec::default(); 3], vec![0, 1, 0], names(2), 5),
    ];
    for (i, (xs, labels, class_names, dim)) in cases.into_iter().enumerate() {
        let corpus = Corpus {
            xs,
            labels,
            class_names,
            dim,
            cfg: cfg.clone(),
        };
        check_training(&corpus, &format!("degenerate case {i}"));
    }
}

/// The heavyweight sweep; run with `--include-ignored` in release CI.
#[test]
#[ignore = "heavyweight differential sweep; run in release CI"]
fn fused_trainer_matches_reference_deep() {
    let mut rng = TestRng::for_test("train_differential::deep");
    for round in 0..2_500 {
        let corpus = Corpora.generate(&mut rng);
        check_generated(&corpus, &format!("deep round {round}: {corpus:?}"));
    }
}

// ------------------------------------------------ storefront corpus ----

/// Storefront pages of 52 campaigns. The dictionary grows over
/// `pool_per_class` stores per campaign (a home and a product page each),
/// and the first `train_per_class` stores of each campaign form the
/// training set, so most dictionary ids lie outside the training support.
fn storefront_corpus(
    pool_per_class: u64,
    train_per_class: u64,
    cfg: TrainConfig,
) -> (Corpus, Corpus) {
    let brands: [&[&str]; 3] = [&["Chanel"], &["Louis Vuitton", "Gucci"], &["Nike"]];
    let mut dict = Dictionary::new();
    let mut pool = Vec::new();
    let mut pool_labels = Vec::new();
    let mut train = Vec::new();
    let mut train_labels = Vec::new();
    for class in 0..52usize {
        let template = StoreTemplate::for_campaign(&format!("CAMPAIGN{class}"), 42);
        for store in 0..pool_per_class {
            let domain = format!("store{class}x{store}.com");
            let ctx = StoreCtx {
                domain: &domain,
                store_name: "cheap bags",
                template: &template,
                brands: brands[(store % 3) as usize],
                locale: "us",
                merchant_id: "m-1",
                seed: store * 131 + class as u64,
            };
            let html = if store % 2 == 0 {
                home_page(&ctx)
            } else {
                product_page(&ctx, store as u32)
            };
            let x = extract_features(&html, &mut dict, true);
            if store < train_per_class {
                train.push(x.clone());
                train_labels.push(class);
            }
            pool.push(x);
            pool_labels.push(class);
        }
    }
    let class_names: Vec<String> = (0..52).map(|c| format!("CAMPAIGN{c}")).collect();
    let corpus = |xs, labels| Corpus {
        xs,
        labels,
        class_names: class_names.clone(),
        dim: dict.len(),
        cfg: cfg.clone(),
    };
    (corpus(train, train_labels), corpus(pool, pool_labels))
}

fn support_size(xs: &[SparseVec], dim: usize) -> usize {
    let mut ids: Vec<u32> = xs
        .iter()
        .flat_map(|x| x.entries().iter().map(|(i, _)| *i))
        .filter(|i| (*i as usize) < dim)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

fn check_storefront(epochs: usize, cv_folds: usize) {
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let (train, pool) = storefront_corpus(12, 3, cfg);
    let support = support_size(&train.xs, train.dim);
    assert!(
        train.dim >= 2 * support,
        "dictionary {} should dwarf the training support {support}",
        train.dim
    );
    check_training(&train, "storefront corpus");
    check_cross_validation(&train, cv_folds, 7, "storefront corpus");
    // Refinement over the whole pool from a two-store seed per campaign.
    let seed_labels: Vec<(usize, usize)> = (0..pool.xs.len())
        .filter(|i| i % 12 < 2)
        .map(|i| (i, pool.labels[i]))
        .collect();
    check_refinement(&pool, &seed_labels, 1, "storefront corpus");
}

#[test]
fn storefront_corpus_matches_reference() {
    check_storefront(30, 3);
}

/// The study's own settings: 300 epochs and 10-fold CV.
#[test]
#[ignore = "heavyweight: the study's epoch count; run in release CI"]
fn storefront_corpus_matches_reference_at_study_settings() {
    check_storefront(TrainConfig::default().epochs, 10);
}
