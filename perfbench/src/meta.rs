//! `meta_train`: Rotom meta-training (Algorithm 2) on the generated
//! Abt-Buy EM task at the quick suite's smaller EM budget.

use crate::trace::Tracer;
use crate::{peak_rss_mb, repeated_setup, Args, Report};
use rotom::pipeline::{default_op, evaluate, prepare_base, run_method_with_base, PretrainedBase};
use rotom::{Method, PrF1, RotomConfig};
use rotom_augment::{apply_batch, DaContext, InvDa};
use rotom_bench::{Scale, Suite};
use rotom_datasets::em::{self, EmFlavor};
use rotom_datasets::{TaskDataset, TaskKind};
use rotom_meta::MetaTrainer;
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngCore, SeedableRng};
use rotom_text::{AugExample, Example};
use std::time::Instant;

/// Labelled examples per training run: the quick suite's smaller EM budget
/// (its budgets are 120 and 240). At 240, one run of this workload takes
/// about 55 s on a 2-core host; 120 halves the training.
const BUDGET: usize = 120;
/// Rotom runs, each with its own training seed, in the untraced run.
const TRAIN_SEEDS: usize = 3;
/// Set-up repetitions whose median is `setup_s`. One set-up (pre-training
/// and InvDA training) takes about 25 s on a 2-core host, longer than the
/// timed run, so it runs once and `setup_s` is steadied across runs.
const SETUP_REPS: usize = 1;

struct Setup {
    task: TaskDataset,
    cfg: RotomConfig,
    base: PretrainedBase,
    invda: InvDa,
    train: Vec<Example>,
}

/// Generate the task and prepare the shared state the way the quick suite
/// does (`Suite::prepare`), timing its two phases.
fn setup(seed: u64, report: &mut Report) -> Setup {
    let suite = Suite::new(Scale::Quick);
    let task = em::generate(
        EmFlavor::AbtBuy,
        &em::EmConfig {
            seed,
            ..suite.em.clone()
        },
    )
    .to_task();
    let cfg = suite.rotom_for(TaskKind::EntityMatching);
    let t = Instant::now();
    let base = prepare_base(&task, &cfg, seed);
    report.set("setup.pretrain_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut corpus = task.sample_unlabeled(300, seed);
    if corpus.is_empty() {
        corpus = task
            .train_pool
            .iter()
            .map(|e| e.tokens.clone())
            .take(200)
            .collect();
    }
    let invda = InvDa::train(&corpus, cfg.invda.clone(), seed);
    report.set("setup.invda_train_s", t.elapsed().as_secs_f64());
    let train = task.sample_train(BUDGET, seed);
    Setup {
        task,
        cfg,
        base,
        invda,
        train,
    }
}

/// Whether test predictions were all one class, read off the metrics: a
/// constant predictor scores accuracy equal to a class's share with recall
/// exactly 0 (all negative) or 1 (all positive).
fn single_class(test: &[Example], acc: f32, prf1: &PrF1) -> bool {
    let pos = test.iter().filter(|e| e.label == 1).count() as f32 / test.len() as f32;
    (prf1.recall == 0.0 && (acc - (1.0 - pos)).abs() < 1e-6)
        || (prf1.recall == 1.0 && (acc - pos).abs() < 1e-6)
}

/// The `meta_train` workload.
pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = split_seed(args.seed, 0x3e7a);
    let (s, setup_s) = repeated_setup(SETUP_REPS, || Ok(setup(seed, &mut report)))?;
    report.set("setup_s", setup_s);

    // The timed unit: one Rotom run at `BUDGET`, then the
    // test-set evaluation it ends with. The untraced run makes
    // `TRAIN_SEEDS` runs, sampling the labelled set and seeding training
    // per run as the quick suite does, and reports the median wall: on a
    // shared host one run of the same work can take 60% longer than the
    // next, and the median ignores one such run. The traced run
    // makes the first run twice: a warm-up that fills InvDA's variant
    // cache, then the one the traced epoch loop is compared with.
    let seeds: Vec<u64> = if tr.enabled() {
        vec![0, 0]
    } else {
        (0..TRAIN_SEEDS as u64).collect()
    };
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut results = Vec::new();
    for &k in &seeds {
        let train = if k == 0 {
            s.train.clone()
        } else {
            s.task.sample_train(s.train.len(), seed + k)
        };
        let (t, cpu) = (Instant::now(), crate::process_cpu_s());
        let r = run_method_with_base(
            &s.task,
            &train,
            &train,
            Method::Rotom,
            &s.cfg,
            Some(&s.invda),
            Some(&s.base),
            seed + k,
        );
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(crate::process_cpu_s() - cpu);
        report.check(
            r.prf1.f1.is_finite() && r.accuracy.is_finite(),
            "non-finite test metrics",
        );
        results.push(r);
    }
    if let [first, again] = &results[..] {
        report.check(
            first.prf1.f1.to_bits() == again.prf1.f1.to_bits()
                && first.accuracy.to_bits() == again.accuracy.to_bits(),
            "two Rotom runs at the same seed disagree",
        );
    }
    let mut collapsed = false;
    for (k, r) in results.iter().enumerate() {
        if single_class(&s.task.test, r.accuracy, &r.prf1) {
            collapsed = true;
            report.flags.push(format!(
                "Rotom run {k} predicts a single class on the test set (F1 {:.4}, accuracy {:.4})",
                r.prf1.f1, r.accuracy
            ));
        }
    }
    let r = &results[0];
    // The end-to-end figures are CPU time: this workload's wall time follows
    // the host's steal time, which reached 22% of the CPUs in 15 s windows
    // on the shared 2-core host it was tuned on. The wall time stays a
    // per-layer figure.
    let (wall, cpu) = (crate::stats::median(&walls), crate::stats::median(&cpus));
    let examples = (s.train.len() * s.cfg.train.epochs) as f64;
    report.set("throughput_per_s", examples / cpu);
    report.set("p50_ms", cpu * 1e3);
    report.set("train.wall_s", wall);
    report.set("train.test_f1", r.prf1.f1 as f64);
    report.set("train.single_class", collapsed as u8 as f64);
    report.attempted = (seeds.len() * s.cfg.train.epochs) as u64;

    if tr.enabled() {
        let t = Instant::now();
        let (f1, acc) = traced_epochs(&s, seed, tr, &mut report);
        let traced_wall = t.elapsed().as_secs_f64();
        report.check(
            f1.to_bits() == r.prf1.f1.to_bits() && acc.to_bits() == r.accuracy.to_bits(),
            format!(
                "traced epoch loop (F1 {f1}) does not reproduce run_method_with_base (F1 {})",
                r.prf1.f1
            ),
        );
        report.set("trace.overhead_s", traced_wall - walls[walls.len() - 1]);
        let spans = tr.spans();
        let (start, end) = (
            spans.iter().map(|s| s.start).fold(f64::MAX, f64::min),
            tr.now(),
        );
        report.set(
            "trace.unattributed_share",
            crate::trace::uncovered_share(&spans, start, end, &[]),
        );
        crate::set_layer_times(&mut report, tr);
    }
    report.set("peak_rss_mb", peak_rss_mb("self")?);
    Ok(report)
}

/// Drive the Rotom epoch loop through the public calls `run_method_with_base`
/// makes (`apply_batch`, `augment_batch`, `train_epoch`, `evaluate`), with a
/// span around each, and return the test `(F1, accuracy)`.
fn traced_epochs(s: &Setup, seed: u64, tr: &Tracer, report: &mut Report) -> (f32, f32) {
    let pool = RotomPool::global();
    let cfg = &s.cfg;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let mut model = s.base.instantiate(cfg, seed);
    let mut meta_cfg = cfg.meta.clone();
    meta_cfg.ssl = None;
    let enc_cfg = cfg.model.encoder(model.vocab().len());
    let mut trainer =
        MetaTrainer::new(s.task.num_classes, model.vocab().clone(), enc_cfg, meta_cfg);
    let op = default_op(s.task.kind);
    let da_ctx = DaContext::default();
    let inputs: Vec<&[String]> = s.train.iter().map(|e| e.tokens.as_slice()).collect();
    let valid = &s.train;
    let mut best = (f32::NEG_INFINITY, model.snapshot());
    let (mut steps, mut keep, mut weight, mut changed, mut epoch_bytes) =
        (0usize, 0.0, 0.0, 0usize, 0u64);
    let mut losses_finite = true;
    for _ in 0..cfg.train.epochs {
        let group = tr.fresh_id();
        let (simple_seed, invda_seed) = (rng.next_u64(), rng.next_u64());
        let simple = tr.span("augment.simple", 0, group, |_| {
            apply_batch(op, &inputs, &da_ctx, simple_seed, pool)
        });
        let inv = tr.span("augment.invda", 0, group, |_| {
            s.invda.augment_batch(&inputs, invda_seed, pool)
        });
        changed += inv
            .iter()
            .zip(&inputs)
            .filter(|(a, b)| a.as_slice() != **b)
            .count();
        let mut aug_pool = Vec::with_capacity(3 * s.train.len());
        for ((e, simple), inv) in s.train.iter().zip(simple).zip(inv) {
            aug_pool.push(AugExample::identity(e));
            aug_pool.push(AugExample::from_example(e, simple));
            aug_pool.push(AugExample::from_example(e, inv));
        }
        let _ssl_seed = rng.next_u64();
        let before = crate::allocated_bytes();
        let stats = tr.span("meta.epoch", 0, group, |_| {
            trainer.train_epoch(&mut model, &aug_pool, valid, &[])
        });
        epoch_bytes += crate::allocated_bytes() - before;
        losses_finite &= stats.train_loss.is_finite() && stats.val_loss.is_finite();
        steps += stats.steps;
        keep += stats.keep_rate as f64;
        weight += stats.mean_weight as f64;
        let (acc, prf1) = tr.span("infer.eval", 0, group, |_| evaluate(&model, valid));
        let m = if valid.iter().any(|e| e.label == 1) {
            prf1.f1
        } else {
            acc
        };
        if m > best.0 {
            best.0 = m;
            model.snapshot_into(&mut best.1);
        }
    }
    model.restore(&best.1);
    let (acc, prf1) = tr.span("infer.eval", 0, 0, |_| evaluate(&model, &s.task.test));
    report.check(losses_finite, "non-finite training loss");
    let epochs = cfg.train.epochs as f64;
    report.set("meta.steps", steps as f64);
    report.set("meta.keep_rate", keep / epochs);
    report.set("meta.mean_weight", weight / epochs);
    report.set(
        "meta.bytes_per_step",
        epoch_bytes as f64 / steps.max(1) as f64,
    );
    report.set(
        "augment.invda_changed_share",
        changed as f64 / (epochs * s.train.len() as f64),
    );
    let epoch_s = crate::trace::total_times(&tr.spans())
        .get("meta.epoch")
        .copied()
        .unwrap_or(0.0);
    report.set("meta.step_ms", epoch_s / steps.max(1) as f64 * 1e3);
    (prf1.f1, acc)
}
