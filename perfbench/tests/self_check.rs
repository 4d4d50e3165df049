//! The benchmark's self-check: a short run of every workload in
//! `BENCHMARK.json`, plain and traced, passes the correctness gate and
//! reports every metric the file names, with its unit, on its last line.

use std::path::Path;
use std::process::Command;

/// The quoted values of `"key": "..."` inside the named top-level array.
fn names_in(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    let marker = format!("\"{key}\": \"");
    body.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &body[at + marker.len()..];
            rest[..rest.find('"').expect("the string closes")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_named_metric_and_passes_the_gate() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let workloads = names_in(&spec, "workloads", "name");
    assert_eq!(workloads.len(), 4);
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let names = names_in(&spec, section, "name");
        let units = names_in(&spec, section, "unit");
        assert_eq!(names.len(), units.len());
        for workload in &workloads {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in names.iter().zip(&units) {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + entry.len()..];
                let metric = &rest[..rest.find('}').expect("the metric closes")];
                let (value, unit_field) = metric.split_once(", ").expect("a value and a unit");
                let value: f64 = value.parse().expect("a number");
                assert!(value.is_finite(), "{name} = {value}");
                assert_eq!(unit_field, format!("\"unit\": \"{unit}\""), "{name}");
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                names.len(),
                "{workload} --trace {trace} reports metrics BENCHMARK.json does not name"
            );
        }
    }
}
