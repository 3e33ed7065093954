//! `BENCHMARK.json` and the command agree: every workload and metric the
//! file names is one the command runs and prints, with the same unit.

use incam_bench::benchjson::{parse, Json};
use std::path::Path;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let src = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&src).expect("BENCHMARK.json parses")
}

fn text(value: Option<&Json>) -> String {
    match value {
        Some(Json::String(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Array(items)) => items,
        other => panic!("`{key}` must be an array, got {other:?}"),
    }
}

/// (name, unit) of each metric listed under `key`.
fn metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
    array(doc, key)
        .iter()
        .map(|m| (text(m.get("name")), text(m.get("unit"))))
        .collect()
}

#[test]
fn the_command_runs_this_package() {
    let doc = manifest();
    let command: Vec<String> = array(&doc, "command")
        .iter()
        .map(|c| text(Some(c)))
        .collect();
    assert_eq!(command, ["bash", "perfbench/run.sh"]);
    let paths: Vec<String> = array(&doc, "paths").iter().map(|p| text(Some(p))).collect();
    assert_eq!(paths, ["perfbench"]);
}

#[test]
fn the_workloads_are_the_ones_the_command_runs() {
    let doc = manifest();
    let names: Vec<String> = array(&doc, "workloads")
        .iter()
        .map(|w| text(w.get("name")))
        .collect();
    assert_eq!(names, perfbench::WORKLOADS);
}

#[test]
fn every_run_prints_the_listed_metrics_with_their_units() {
    let doc = manifest();
    let end_to_end = metrics(&doc, "end_to_end");
    let per_layer = metrics(&doc, "per_layer");
    for workload in perfbench::WORKLOADS {
        for trace in [false, true] {
            let report = perfbench::run(workload, 2017, 0.0, trace).expect("run completes");
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            let listed = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&printed, listed, "{workload} trace={trace}");
            assert!(report.correct, "{workload} trace={trace}");
            let line = report.to_json().expect("finite metrics");
            assert!(parse(&line).is_ok(), "{workload}: {line}");
        }
    }
}
