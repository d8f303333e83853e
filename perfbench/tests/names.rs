//! The metric and workload names in the code match `BENCHMARK.json`,
//! and every name follows the grammar `[A-Za-z0-9_.-]+` starting with a
//! letter or digit.

use kbcast_perfbench::report::{END_TO_END, PER_LAYER, WORKLOADS};
use kbcast_serve::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string();
            let unit = m.get("unit").and_then(Json::as_str).map(str::to_string);
            (name, unit)
        })
        .collect()
}

fn valid(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn pairs(registry: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    registry
        .iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(names(&doc, "end_to_end"), pairs(END_TO_END));
    assert_eq!(names(&doc, "per_layer"), pairs(PER_LAYER));
    let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn names_follow_the_grammar_and_are_unique() {
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    all.extend(WORKLOADS);
    for name in &all {
        assert!(valid(name), "bad name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names are used once");
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
}
