//! The checked-in `BENCHMARK.json` is the one the benchmark generates.

#[test]
fn benchmark_json_matches_the_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        ttpbench::metrics::manifest(),
        "regenerate with `cargo run --release --manifest-path ttpbench/Cargo.toml -- --write-manifest BENCHMARK.json`"
    );
}
