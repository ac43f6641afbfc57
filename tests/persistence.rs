//! Integration: a persisted summary estimates identically to the freshly
//! built one, across datasets, query classes and variance settings.

use xpe::datagen::generate_workload;
use xpe::prelude::*;
use xpe::synopsis::Summary as Syn;

#[test]
fn saved_summary_estimates_identically() {
    for (dataset, scale) in [
        (Dataset::SSPlays, 0.02),
        (Dataset::Dblp, 0.003),
        (Dataset::XMark, 0.01),
    ] {
        let doc = DatasetSpec {
            dataset,
            scale,
            seed: 77,
        }
        .generate();
        let labeling = Labeling::compute(&doc);
        let workload = generate_workload(
            &doc,
            &labeling.encoding,
            &WorkloadConfig {
                simple_attempts: 120,
                branch_attempts: 120,
                ..WorkloadConfig::default()
            },
        );
        for (pv, ov) in [(0.0, 0.0), (2.0, 4.0)] {
            let original = Syn::build(
                &doc,
                SummaryConfig {
                    p_variance: pv,
                    o_variance: ov,
                },
            );
            let reloaded = Syn::from_bytes(&original.to_bytes()).expect("round trip");
            let est_a = Estimator::new(&original);
            let est_b = Estimator::new(&reloaded);
            for case in workload
                .simple
                .iter()
                .chain(&workload.branch)
                .chain(&workload.order_branch)
                .chain(&workload.order_trunk)
            {
                let a = est_a.estimate(&case.query);
                let b = est_b.estimate(&case.query);
                assert!(
                    (a - b).abs() < 1e-9,
                    "{} ({dataset:?}, pv={pv}, ov={ov}): {a} vs {b}",
                    case.text
                );
            }
        }
    }
}

#[test]
fn summary_file_round_trip() {
    let doc = DatasetSpec {
        dataset: Dataset::SSPlays,
        scale: 0.01,
        seed: 9,
    }
    .generate();
    let summary = Syn::build(&doc, SummaryConfig::default());
    let dir = std::env::temp_dir().join(format!("xpe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plays.xps");
    summary.save_to_file(&path).unwrap();
    let reloaded = Syn::load_from_file(&path).unwrap();
    assert_eq!(reloaded.pids.len(), summary.pids.len());
    assert_eq!(
        Estimator::new(&reloaded)
            .estimate_str("//ACT/SCENE")
            .unwrap(),
        Estimator::new(&summary)
            .estimate_str("//ACT/SCENE")
            .unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loading_garbage_fails_cleanly() {
    assert!(Syn::from_bytes(b"").is_err());
    assert!(Syn::from_bytes(b"not a summary at all").is_err());
    assert!(Syn::from_bytes(&[0u8; 64]).is_err());
}
