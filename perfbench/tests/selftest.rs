//! Self-tests of the benchmark's own statistics, comparison and stream
//! generation. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::compare::{self, MetricSpec, RunMetrics};
use perfbench::plan::{Plan, Rng, Workload};
use perfbench::stats::{quantile, Summary};
use std::time::Duration;

/// The nearest-rank quantile of a fully sorted copy: the reference the
/// selection-based `quantile` must match exactly.
fn sorted_reference(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[test]
fn quantile_matches_sorted_reference() {
    let mut rng = Rng::new(7, 0);
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
        // Heavy-tailed values with ties, like latencies.
        let samples: Vec<f64> = (0..n)
            .map(|_| ((rng.unit() * 50.0).exp() / 1e18).round() / 1e3)
            .collect();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let got = quantile(&mut samples.clone(), q).unwrap();
            assert_eq!(got, sorted_reference(&samples, q), "n={n} q={q}");
        }
        let s = Summary::of(&samples);
        assert_eq!(s.n, n);
        assert_eq!(s.p50, sorted_reference(&samples, 0.5));
        assert_eq!(s.p95, sorted_reference(&samples, 0.95));
        assert_eq!(s.p99, sorted_reference(&samples, 0.99));
    }
    assert_eq!(quantile(&mut [], 0.5), None);
}

#[test]
fn quantile_is_a_measured_value_not_an_interpolation() {
    // A factor-2 bucketed histogram would report a bucket edge here.
    let samples = [0.61, 0.73, 0.97, 1.043, 1.21];
    assert_eq!(quantile(&mut samples.to_vec(), 0.8), Some(1.043));
    assert_eq!(quantile(&mut samples.to_vec(), 0.99), Some(1.21));
}

#[test]
fn quartiles_match_python_statistics_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(compare::quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(compare::quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(compare::spread(&v), Some((8.25 - 2.75) / 5.5));
}

fn specs() -> Vec<MetricSpec> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    compare::specs_from_benchmark(&text).expect("valid BENCHMARK.json")
}

/// Ten synthetic runs around realistic values, with ±3% jitter.
fn synthetic_set(seed: u64, p50_scale: f64) -> Vec<RunMetrics> {
    let mut rng = Rng::new(seed, 1);
    (0..10)
        .map(|_| {
            let mut jitter = || 1.0 + (rng.unit() - 0.5) * 0.06;
            let mut run = RunMetrics::new();
            for (name, base) in [
                ("setup_s", 0.03),
                ("qps", 70.0),
                ("p50_ms", 27.0 * p50_scale),
                ("p95_ms", 45.0),
                ("cpu_ms_per_op", 26.0),
                ("rss_mb", 185.0),
            ] {
                run.insert(name.to_string(), base * jitter());
            }
            run
        })
        .collect()
}

#[test]
fn comparison_flags_a_planted_p50_slowdown() {
    let specs = specs();
    let base = synthetic_set(1, 1.0);
    let slow = synthetic_set(2, 1.2);
    let verdicts = compare::compare(&specs, &base, &slow);
    let slower: Vec<&str> = verdicts
        .iter()
        .filter(|v| v.slower)
        .map(|v| v.name.as_str())
        .collect();
    assert_eq!(slower, ["p50_ms"], "{verdicts:#?}");
    // A 20% slowdown is inside the 25% bound `BENCHMARK.json` allows
    // `p50_ms` on this host; a 30% one is past it.
    assert!(verdicts.iter().all(|v| !v.regressed), "{verdicts:#?}");
    let slower30 = compare::compare(&specs, &base, &synthetic_set(2, 1.3));
    let regressed: Vec<&str> = slower30
        .iter()
        .filter(|v| v.regressed)
        .map(|v| v.name.as_str())
        .collect();
    assert_eq!(regressed, ["p50_ms"], "{slower30:#?}");
}

#[test]
fn comparison_passes_identical_sets() {
    let specs = specs();
    let base = synthetic_set(1, 1.0);
    let verdicts = compare::compare(&specs, &base, &base.clone());
    assert!(
        verdicts
            .iter()
            .all(|v| !v.regressed && !v.slower && v.worse_by == 0.0),
        "{verdicts:#?}"
    );
    assert_eq!(verdicts.len(), specs.len());
}

#[test]
fn comparison_reports_a_missing_metric_as_regressed() {
    let specs = specs();
    let base = synthetic_set(1, 1.0);
    let mut cand = base.clone();
    for run in &mut cand {
        run.remove("qps");
    }
    let verdicts = compare::compare(&specs, &base, &cand);
    assert!(verdicts.iter().any(|v| v.name == "qps" && v.regressed));
}

#[test]
fn result_lines_parse_back() {
    let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"},"qps":{"value":70,"unit":"1/s"}}}"#;
    let m = compare::parse_result_line(line).unwrap();
    assert_eq!(m.get("p50_ms"), Some(&1.25));
    assert_eq!(m.get("qps"), Some(&70.0));
}

#[test]
fn streams_are_a_function_of_the_seed() {
    let window = Duration::from_secs(2);
    for w in Workload::ALL {
        let a = Plan::new(w, 5, window);
        let b = Plan::new(w, 5, window);
        let c = Plan::new(w, 6, window);
        let lines = |p: &Plan| -> Vec<String> {
            p.warm
                .iter()
                .chain(p.conns.iter().flatten())
                .map(|r| r.line())
                .collect()
        };
        assert_eq!(lines(&a), lines(&b), "{w:?}");
        assert_ne!(lines(&a), lines(&c), "{w:?}");
        // Ids are unique across the whole run.
        let mut ids: Vec<u64> = a
            .warm
            .iter()
            .chain(a.conns.iter().flatten())
            .map(|r| r.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "{w:?}");
    }
}

#[test]
fn open_loop_rates_match_the_workload_shapes() {
    let window = Duration::from_secs(20);
    let hot = Plan::new(Workload::HotRead, 3, window);
    let sent = hot.conns.iter().map(Vec::len).sum::<usize>() as f64 / 20.0;
    assert!((sent - 1500.0).abs() < 60.0, "hot-read offered {sent}/s");
    let mix = Plan::new(Workload::WriteMix, 3, window);
    let writes = mix.conns[1].iter().filter(|r| r.is_write()).count() as f64 / 20.0;
    let reads = mix.conns[0].len() as f64 / 20.0;
    assert!((writes - 15.0).abs() < 4.0, "write-mix writes {writes}/s");
    assert!((reads - 135.0).abs() < 15.0, "write-mix reads {reads}/s");
    assert!(mix.conns[0].iter().all(|r| !r.is_write()));
}
