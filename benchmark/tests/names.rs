//! `../BENCHMARK.json`, the tables in `src/spec.rs` and what a run prints
//! name the same workloads and metrics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use zygos_benchmark::json::Json;
use zygos_benchmark::spec::{per_layer, END_TO_END, WORKLOADS};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key:?}: {entry:?}"))
}

fn entries<'a>(file: &'a Json, key: &str) -> &'a [Json] {
    file.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
}

#[test]
fn benchmark_json_states_the_spec_tables() {
    let file = benchmark_json();

    let workloads: Vec<&str> = entries(&file, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, expected);
    for w in entries(&file, "workloads") {
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e: Vec<(&str, &str, &str, f64)> = entries(&file, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let expected: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.label(), m.bound))
        .collect();
    assert_eq!(e2e, expected);

    let layers: Vec<(String, &str, &str)> = entries(&file, "per_layer")
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit"),
                field(m, "better"),
            )
        })
        .collect();
    let expected: Vec<(String, &str, &str)> = per_layer()
        .into_iter()
        .map(|(name, unit, better)| (name, unit, better.label()))
        .collect();
    assert_eq!(layers, expected);

    let paths: Vec<&str> = entries(&file, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

/// Metric names under `key` of a results object, as a set.
fn names_in(object: Option<&Json>) -> BTreeSet<String> {
    object
        .and_then(Json::as_obj)
        .map(|m| m.keys().cloned().collect())
        .unwrap_or_default()
}

#[test]
fn a_quick_run_prints_and_records_every_name_and_no_other() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-run");
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let file = benchmark_json();
    let declared = |key: &str| -> BTreeSet<String> {
        entries(&file, key)
            .iter()
            .map(|e| field(e, "name").to_string())
            .collect()
    };
    let (workloads, e2e, layers) = (
        declared("workloads"),
        declared("end_to_end"),
        declared("per_layer"),
    );

    // Printed: every name, as the first word of a line.
    let first_words: BTreeSet<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in workloads.iter().chain(&e2e).chain(&layers) {
        assert!(first_words.contains(name.as_str()), "{name} is not printed");
    }

    // Recorded: exactly the declared names.
    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json is written");
    let results = Json::parse(&text).expect("results.json parses");
    assert_eq!(names_in(results.get("workloads")), workloads);
    for w in &workloads {
        let recorded = results
            .get("workloads")
            .and_then(|all| all.get(w))
            .and_then(|one| one.get("end_to_end"));
        assert_eq!(names_in(recorded), e2e, "end-to-end metrics of {w}");
        assert!(
            out.join(format!("trace-{w}.json")).is_file(),
            "trace of {w}"
        );
    }
    // `bench.trace_overhead` is per workload, so it is recorded there.
    let mut recorded = names_in(results.get("per_layer"));
    recorded.insert("bench.trace_overhead".to_string());
    assert_eq!(recorded, layers);
}
