//! `perfbench` — run one workload of the query-path benchmark, or compare
//! saved results.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --rwr <path> --work <dir>
//! perfbench compare <BENCHMARK.json> <base.jsonl> <candidate.jsonl>
//! ```
//!
//! A run prints a human-readable report, then as its last line one JSON
//! object `{"correct","attempted","failed","metrics"}`. It exits non-zero
//! when any output check fails.

use perfbench::compare;
use perfbench::e2e::{self, E2e};
use perfbench::plan::{Plan, Workload, ATTACH, NODES};
use perfbench::trace;
use perfbench::wire::WorkDir;
use resacc_service::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rwr: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut rwr = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--rwr" => rwr = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        rwr: rwr.ok_or("--rwr is required")?,
        work,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics `BENCHMARK.json` gates.
fn end_to_end(r: &E2e) -> Vec<Metric> {
    vec![
        m("setup_s", r.setup_s, "s"),
        m("qps", r.qps, "1/s"),
        m("p50_ms", r.steady.read.p50, "ms"),
        m("p95_ms", r.steady.read.p95, "ms"),
        m("cpu_ms_per_op", r.cpu_ms_per_op, "ms"),
        m("rss_mb", r.rss_mb, "MiB"),
    ]
}

/// End-to-end readings printed on every run but not gated: their
/// run-to-run spread on a shared host is wider than any bound the
/// benchmark may set (see `perfbench/README.md`). The traced run also
/// emits them as ungated metrics.
fn ungated(r: &E2e) -> Vec<Metric> {
    vec![
        m("max_rel_err", r.max_rel_err, "ratio"),
        m("write_p50_ms", r.write.p50, "ms"),
        m("write_p95_ms", r.write.p95, "ms"),
    ]
}

fn print_report(args: &Args, r: &E2e) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed {} window {:.1} s (graph BA n={NODES} m={ATTACH}, {cpus} CPUs)",
        args.workload.name(),
        args.seed,
        r.window.as_secs_f64()
    );
    for x in end_to_end(r).into_iter().chain(ungated(r)) {
        println!("{:<16} {:>14.4} {}", x.name, x.value, x.unit);
    }
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<16} {:>14.4} ratio  ({} of {} attempted)",
        "error_rate", error_rate, r.failed, r.attempted
    );
    let st = &r.steady;
    println!(
        "{:<16} {:>14.4} ms  (reads n={} in the calm {:.0} s)",
        "p99_ms", st.read.p99, st.read.n, st.seconds
    );
    println!(
        "# whole window: reads n={}, p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms, mean {:.4} ms",
        r.read.n, r.read.p50, r.read.p95, r.read.p99, r.read.mean
    );
    let source = if args.workload.writes() {
        "in-window writes"
    } else {
        "post-window write probe"
    };
    println!(
        "{:<16} {:>14} writes  ({source}, calm slices)",
        "write_n", r.write.n
    );
    println!("{:<16} {:>14.4} ms", "late_p99_ms", r.late_p99_ms);
    println!(
        "{:<16} {:>14.4} %  (host CPU stolen: whole window; {:.4} % in the calm slices)",
        "steal_pct", r.steal_pct, st.steal_pct
    );
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields = metrics
        .iter()
        .map(|x| {
            (
                x.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::f64(x.value)),
                    ("unit".to_string(), Json::Str(x.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::u64(attempted as u64)),
        ("failed".to_string(), Json::u64(failed as u64)),
        ("metrics".to_string(), Json::Obj(fields)),
    ])
    .render()
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    let work = WorkDir::create(&args.work, &format!("run-{}", std::process::id()))?;
    let graph = resacc_graph::gen::barabasi_albert(NODES, ATTACH, args.seed);
    let graph_path = work.join("graph.txt");
    e2e::write_graph(&graph, &graph_path)?;
    let window = Duration::from_secs(args.seconds);
    let mut plan = Plan::new(args.workload, args.seed, window);
    let r = e2e::run(&args.rwr, &work.0, &graph_path, &graph, &mut plan, window)?;
    print_report(args, &r);
    let mut violations = r.violations.clone();
    let metrics: Vec<Metric> = if args.trace {
        let layers = trace::run(
            &args.rwr,
            &work.0,
            &args.work,
            &graph_path,
            &graph,
            &plan,
            &r,
        )?;
        violations.extend(layers.violations.iter().cloned());
        for x in &layers.metrics {
            println!("{:<28} {:>14.4} {}", x.0, x.1, x.2);
        }
        layers
            .metrics
            .iter()
            .map(|&(name, value, unit)| m(name, value, unit))
            .chain(ungated(&r))
            .collect()
    } else {
        end_to_end(&r)
    };
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    println!("# run took {:.1} s", started.elapsed().as_secs_f64());
    let correct = violations.is_empty();
    println!("{}", result_line(correct, r.attempted, r.failed, &metrics));
    Ok(correct)
}

fn compare_main(argv: &[String]) -> Result<bool, String> {
    let [bench, base, cand] = argv else {
        return Err(
            "usage: perfbench compare <BENCHMARK.json> <base.jsonl> <candidate.jsonl>".into(),
        );
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let specs = compare::specs_from_benchmark(&read(bench)?)?;
    let load = |p: &String| -> Result<Vec<compare::RunMetrics>, String> {
        read(p)?
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(compare::parse_result_line)
            .collect()
    };
    let (base, cand) = (load(base)?, load(cand)?);
    let verdicts = compare::compare(&specs, &base, &cand);
    let spread = |set: &[compare::RunMetrics], name: &str| {
        compare::spread(
            &set.iter()
                .filter_map(|r| r.get(name).copied())
                .collect::<Vec<_>>(),
        )
        .map_or("-".to_string(), |s| format!("{:.3}", s))
    };
    for v in &verdicts {
        println!(
            "{:<16} base {:>12.4} (spread {:>6}) candidate {:>12.4} (spread {:>6}) worse by {:>+7.1}%{}",
            v.name,
            v.base,
            spread(&base, &v.name),
            v.candidate,
            spread(&cand, &v.name),
            v.worse_by * 100.0,
            if v.regressed {
                "  REGRESSED"
            } else if v.slower {
                "  SLOWER"
            } else {
                ""
            }
        );
    }
    Ok(verdicts.iter().all(|v| !v.regressed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_main(&argv[1..]),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
