//! Ablation study (beyond the paper, per DESIGN.md): quantify each
//! meta-learning component by disabling it — the filtering model, the
//! weighting model, and the L2 uncertainty term of Eq. 2 — on one dataset
//! per domain.

use rotom::pipeline::run_method_with_base;
use rotom::{AblationConfig, Method};
use rotom_bench::{pct, print_table, Suite};
use rotom_datasets::{
    edt::{self, EdtFlavor},
    em::{self, EmFlavor},
    textcls::{self, TextClsFlavor},
};

fn main() {
    let suite = Suite::from_env();
    println!(
        "Ablation: Rotom components on one dataset per domain ({:?} scale)",
        suite.scale
    );

    let tasks = [
        (
            em::generate(EmFlavor::WalmartAmazon, &suite.em).to_task(),
            240usize,
            false,
        ),
        (
            edt::generate(EdtFlavor::Beers, &suite.edt).to_task(),
            200,
            true,
        ),
        (
            textcls::generate(TextClsFlavor::Trec, &suite.textcls),
            100,
            false,
        ),
    ];

    let variants: Vec<(&str, AblationConfig)> = vec![
        ("Rotom (full)", AblationConfig::default()),
        (
            "- filtering",
            AblationConfig {
                disable_filter: true,
                ..Default::default()
            },
        ),
        (
            "- weighting",
            AblationConfig {
                disable_weighting: true,
                ..Default::default()
            },
        ),
        (
            "- L2 term",
            AblationConfig {
                disable_l2: true,
                ..Default::default()
            },
        ),
        (
            "- both models",
            AblationConfig {
                disable_filter: true,
                disable_weighting: true,
                disable_l2: true,
            },
        ),
    ];

    let mut header = vec!["Variant".to_string()];
    header.extend(tasks.iter().map(|(t, _, _)| t.name.clone()));
    let mut rows = Vec::new();
    let ctxs: Vec<_> = tasks.iter().map(|(t, _, _)| suite.prepare(t, 41)).collect();

    for (label, ablation) in variants {
        let mut row = vec![label.to_string()];
        for ((task, budget, balanced), ctx) in tasks.iter().zip(&ctxs) {
            let mut cfg = ctx.cfg.clone();
            cfg.meta.ablation = ablation.clone();
            let train = if *balanced {
                task.sample_train_balanced(*budget, 0)
            } else {
                task.sample_train(*budget, 0)
            };
            let r = run_method_with_base(
                task,
                &train,
                &train,
                Method::Rotom,
                &cfg,
                Some(&ctx.invda),
                Some(&ctx.base),
                0,
            );
            row.push(pct(r.headline(task.kind)));
        }
        rows.push(row);
    }

    print_table("Ablation: headline metric (x100)", &header, &rows);
}
