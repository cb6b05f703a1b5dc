//! The benchmark's own checks, run against the built binary with short
//! budgets: the printed metrics are exactly those `BENCHMARK.json`
//! declares, every check passes, `p50_ms <= tail_ms`, and the exact work
//! counts of the traced run repeat for one seed and change under another.
//! (That traced ops spend no more than a glue allowance outside every
//! layer span is checked inside every traced run, which fails otherwise,
//! and in `trace.rs`'s unit tests.)

use std::path::PathBuf;
use std::process::Command;

use lockbind_obs::Json;
use lockbind_serve::jsonin;

/// Per-layer metrics that are exact work counts.
const DETERMINISTIC: [&str; 14] = [
    "core.combos_evaluated",
    "core.combos_pruned",
    "core.prune_ratio",
    "matching.solves",
    "matching.augment_steps",
    "matching.warm_rows_reaugmented",
    "matching.warm_hit_rate",
    "netlist.clauses",
    "attacks.dips",
    "sat.propagations_per_dip",
    "sat.conflicts_per_dip",
    "sat.watcher_visits_per_dip",
    "sat.blocker_hit_rate",
    "serve.hit_share",
];

const WORKLOADS: [&str; 2] = ["grid", "attack"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
    match doc {
        Json::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn number(doc: &Json) -> f64 {
    match doc {
        Json::UInt(v) => *v as f64,
        Json::Float(v) => *v,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = jsonin::parse(&text).expect("BENCHMARK.json parses");
    match field(&doc, list) {
        Json::Array(items) => items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect(),
        other => panic!("{list} is not an array: {other:?}"),
    }
}

/// Runs one workload and returns `(exit ok, correct, metrics)`.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, bool, Vec<(String, f64, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = jsonin::parse(last.as_bytes()).expect("the last line is JSON");
    let correct = matches!(field(&doc, "correct"), Json::Bool(true));
    let metrics = match field(&doc, "metrics") {
        Json::Object(pairs) => pairs
            .iter()
            .map(|(name, m)| {
                let unit = match field(m, "unit") {
                    Json::Str(u) => u.clone(),
                    other => panic!("bad unit {other:?}"),
                };
                (name.clone(), number(field(m, "value")), unit)
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    (out.status.success(), correct, metrics)
}

fn value(metrics: &[(String, f64, String)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|&(_, v, _)| v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn names(metrics: &[(String, f64, String)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn untraced_runs_print_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for workload in WORKLOADS {
        let (ok, correct, metrics) = run(workload, 3, false);
        assert!(ok && correct, "{workload}: run failed its checks");
        assert_eq!(names(&metrics), want, "{workload}: metric names or units");
        assert!(metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0));
        assert!(
            value(&metrics, "p50_ms") <= value(&metrics, "tail_ms"),
            "{workload}: p50 above tail"
        );
    }
}

#[test]
fn traced_work_counts_repeat_for_a_seed_and_change_with_it() {
    let want = declared("per_layer");
    for workload in WORKLOADS {
        let (ok_a, correct_a, a) = run(workload, 7, true);
        let (ok_b, correct_b, b) = run(workload, 7, true);
        let (ok_c, correct_c, c) = run(workload, 8, true);
        assert!(ok_a && ok_b && ok_c && correct_a && correct_b && correct_c);
        assert_eq!(names(&a), want, "{workload}: metric names or units");
        let mut changed = false;
        for name in DETERMINISTIC {
            assert_eq!(value(&a, name), value(&b, name), "{workload}: {name} moved");
            changed |= value(&a, name) != value(&c, name);
        }
        assert!(changed, "{workload}: no work count depends on the seed");
    }
}
