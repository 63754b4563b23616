//! The benchmark's own tests: every workload at its smallest size emits
//! every named metric with its unit, counts repeat for a seed, and the
//! catalog matches `BENCHMARK.json`.

use asura_benchmark::inputs::{Size, Workload};
use asura_benchmark::report::{result_line, END_TO_END, PER_LAYER};
use asura_benchmark::run::{run, Outcome, Params};
use std::path::PathBuf;
use std::process::Command;
use unet::json::{parse_json, Json};

fn smoke(workload: Workload, trace: bool, tag: &str) -> Outcome {
    run(&Params {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        tmp_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{tag}", workload.name())),
    })
}

/// The result line parsed back, as `name -> (value, unit)`.
fn emitted(out: &Outcome, catalog: &[(&str, &str)]) -> (Json, Vec<(String, f64, String)>) {
    let line = result_line(&out.checks, catalog, |n| {
        out.metrics.get(n).copied().unwrap_or(0.0)
    });
    let doc = parse_json(&line).expect("the result line is JSON");
    let Json::Obj(keys) = &doc else {
        panic!("result line is not an object")
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    let Ok(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object")
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let Ok(Json::Num(v)) = m.get("value") else {
                panic!("{name}: value is not a number")
            };
            let Ok(Json::Str(u)) = m.get("unit") else {
                panic!("{name}: unit is not a string")
            };
            (name.clone(), *v, u.clone())
        })
        .collect();
    (doc, metrics)
}

fn value(metrics: &[(String, f64, String)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn every_workload_emits_every_metric_with_its_unit_and_repeats_its_counts() {
    for w in Workload::ALL {
        let a = smoke(w, false, "a");
        assert!(a.checks.attempted >= 1, "{}: nothing checked", w.name());
        let (_, metrics) = emitted(&a, &END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, v, unit), (want, want_unit)) in metrics.iter().zip(END_TO_END) {
            assert_eq!((name.as_str(), unit.as_str()), (want, want_unit));
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
        // Same seed, same work and physics, exactly.
        let b = smoke(w, false, "b");
        assert_eq!(
            a.counts,
            b.counts,
            "{}: counts differ between same-seed runs",
            w.name()
        );
        assert!(a.counts.steps > 0 && a.counts.active_updates > 0);

        let t = smoke(w, true, "t");
        let (_, layers) = emitted(&t, &PER_LAYER);
        assert_eq!(layers.len(), PER_LAYER.len());
        for ((name, v, unit), (want, want_unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!((name.as_str(), unit.as_str()), (want, want_unit));
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        assert!(value(&layers, "gravity.eval_ms") > 0.0, "{}", w.name());
        assert!(value(&layers, "sph.force_ms") > 0.0, "{}", w.name());
        assert!(value(&layers, "setup.ic_s") > 0.0, "{}", w.name());
        let surrogate = value(&layers, "unet.forward_ms") + value(&layers, "surrogate.predict_ms");
        assert_eq!(
            surrogate > 0.0,
            w != Workload::SnBlock,
            "{}: surrogate layer",
            w.name()
        );
        let commits = value(&layers, "ckpt.commit_ms");
        assert_eq!(
            commits > 0.0,
            w == Workload::Galaxy,
            "{}: checkpoint layer",
            w.name()
        );
        let substeps = value(&layers, "scheduler.substeps_per_base_step");
        assert_eq!(
            substeps > 1.0,
            w == Workload::SnBlock,
            "{}: scheduler",
            w.name()
        );
        let ranks = value(&layers, "dist.rank_imbalance");
        assert_eq!(
            ranks >= 1.0,
            w == Workload::GalaxyDist,
            "{}: dist layer",
            w.name()
        );
    }
}

#[test]
fn a_failed_check_is_counted_in_the_result() {
    let mut out = smoke(Workload::SnBlock, false, "fail");
    out.checks.record("injected", vec!["one NaN u".into()]);
    let (doc, _) = emitted(&out, &END_TO_END);
    assert!(matches!(doc.get("correct"), Ok(Json::Bool(false))));
    let Ok(Json::Num(failed)) = doc.get("failed") else {
        panic!("failed is not a number")
    };
    assert_eq!(*failed as u64, out.checks.failed);
    assert!(out.checks.failed_frac() > 0.0);
}

/// `BENCHMARK.json` names exactly this catalog, in order, with its units.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Ok(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not an array")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Ok(Json::Str(n)), Ok(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key}: entry without name/unit"),
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let Ok(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads is not an array")
    };
    let names: Vec<String> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Ok(Json::Str(n)) => n.clone(),
            _ => panic!("workload without a name"),
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload galaxy --seed x --seconds 1 --trace 0",
        "--workload galaxy --seed 1 --seconds 1 --trace 2",
        "--seed 1 --seconds 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_asura-benchmark"))
            .args(args.split(' '))
            .output()
            .expect("spawn the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
