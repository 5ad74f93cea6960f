//! The end-to-end run: start the service, warm it, drive the timed window
//! over two loopback connections, measure the processes from outside, and
//! check every answer.

use crate::drive::{self, ConnRun, Sample};
use crate::plan::{Op, Plan, Req, Workload, K, WORKERS};
use crate::stats::{self, Summary};
use crate::wire::{cpu_time, host_ticks, peak_rss_mib, Client, Proc};
use resacc::durability::MutationOp;
use resacc::resacc::ResAccConfig;
use resacc::{RwrParams, RwrSession};
use resacc_graph::CsrGraph;
use resacc_service::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deployments started per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Sequential single-edge inserts sent after the window of the read-only
/// workloads; their latency is those workloads' write latency.
pub const PROBE_WRITES: usize = 400;
/// Slice length of the write probe's steal readings.
pub const PROBE_TICK: Duration = Duration::from_millis(100);
/// Full-vector answers checked against power-iteration ground truth.
pub const ACCURACY_QUERIES: usize = 4;
/// Idle pings for the round-trip reading.
pub const PINGS: usize = 200;
/// Length of the slices the window is read in from outside.
pub const TICK: Duration = Duration::from_secs(1);
/// Largest share of a slice's CPU time, in percent, the hypervisor may
/// have stolen for the slice's latencies to count.
pub const STEAL_LIMIT: f64 = 2.0;
/// A run whose generator sent its 99th-percentile request later than this
/// after its due time is invalid: the load was not the load planned.
pub const LATE_BOUND_MS: f64 = 50.0;

/// The query parameters `rwr serve` uses for an `n`-node graph with its
/// default `--alpha 0.2 --epsilon 0.5`.
pub fn serve_params(n: usize) -> RwrParams {
    let n = n.max(2) as f64;
    RwrParams::new(0.2, 0.5, 1.0 / n, 1.0 / n)
}

/// Server (and router) processes serving one run.
pub struct Deployment {
    /// The `rwr serve` process.
    pub server: Proc,
    /// The `rwr router` in front of it, when the workload routes.
    pub router: Option<Proc>,
}

impl Deployment {
    /// Starts the service for `workload` and waits until it answers a
    /// `ping`; returns it with the time that took.
    pub fn start(
        rwr: &Path,
        work: &Path,
        graph: &Path,
        workload: Workload,
        with_router: bool,
        tag: &str,
    ) -> Result<(Deployment, Duration), String> {
        let data = work.join(format!("data-{tag}"));
        let mut args: Vec<String> = [
            "serve",
            "--graph",
            &graph.to_string_lossy(),
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(workload.serve_flags(&data.to_string_lossy()));
        let t0 = Instant::now();
        let server = Proc::spawn(rwr, &args, &work.join(format!("serve-{tag}.out")))?;
        ping(&server.addr)?;
        let router = if with_router {
            let args: Vec<String> = [
                "router",
                "--listen",
                "127.0.0.1:0",
                "--backends",
                &server.addr,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let router = Proc::spawn(rwr, &args, &work.join(format!("router-{tag}.out")))?;
            ping(&router.addr)?;
            Some(router)
        } else {
            None
        };
        Ok((Deployment { server, router }, t0.elapsed()))
    }

    /// The address clients send traffic to.
    pub fn endpoint(&self) -> &str {
        self.router.as_ref().map_or(&self.server.addr, |r| &r.addr)
    }

    /// Summed CPU time of every process in the deployment.
    pub fn cpu(&self) -> Result<Duration, String> {
        let mut total = cpu_time(self.server.pid)?;
        if let Some(r) = &self.router {
            total += cpu_time(r.pid)?;
        }
        Ok(total)
    }

    /// Shuts the router (first) and the server down.
    pub fn stop(self) -> Result<(), String> {
        if let Some(r) = self.router {
            r.shutdown()?;
        }
        self.server.shutdown()
    }
}

fn ping(addr: &str) -> Result<(), String> {
    let reply = Client::connect(addr)?.call(r#"{"op":"ping"}"#)?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!("ping to {addr} failed: {}", reply.render())),
    }
}

/// A counter from a `stats` reply (`stats.<name>`, or a top-level or
/// `router.<name>` field).
pub fn stat(reply: &Json, path: &[&str]) -> f64 {
    let mut cur = reply;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Difference of one counter between two `stats` replies.
pub fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    stat(after, path) - stat(before, path)
}

/// What the end-to-end run measured.
pub struct E2e {
    /// Median time from spawn to first `ping` reply, seconds.
    pub setup_s: f64,
    /// The timed window's length.
    pub window: Duration,
    /// Completed operations per second over the window.
    pub qps: f64,
    /// Query latency over the whole window (ok replies only).
    pub read: Summary,
    /// Latency over the calm slices of the window (see [`Steady`]).
    pub steady: Steady,
    /// Write latency: in-window writes, or the post-window write probe.
    pub write: Summary,
    /// Requests attempted in the window.
    pub attempted: usize,
    /// Failed, typed-error or unanswered requests in the window.
    pub failed: usize,
    /// Service CPU per completed operation over the window, ms.
    pub cpu_ms_per_op: f64,
    /// Router CPU per completed operation, ms (0 without a router).
    pub router_cpu_ms_per_op: f64,
    /// Server peak RSS, MiB.
    pub rss_mb: f64,
    /// Largest relative error on the accuracy sample (π > δ).
    pub max_rel_err: f64,
    /// Generator lateness over the calm slices, 99th percentile, ms.
    pub late_p99_ms: f64,
    /// Client mean query latency minus the server's own mean, ms.
    pub frontend_ms: f64,
    /// Share of host CPU time stolen by the hypervisor during the window.
    pub steal_pct: f64,
    /// Median idle `ping` round trip to the server, µs.
    pub ping_rtt_us: f64,
    /// Server `stats` before and after the window.
    pub stats: (Json, Json),
    /// Check failures; empty when every answer was right.
    pub violations: Vec<String>,
}

/// A reading taken from outside every process at one moment of the window.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// Offset from the window start.
    pub at: Duration,
    /// Host `(all, stolen)` CPU ticks.
    pub host: (u64, u64),
    /// CPU time of the service processes.
    pub cpu: Duration,
}

impl Tick {
    fn read(dep: &Deployment, at: Duration) -> Result<Tick, String> {
        Ok(Tick {
            at,
            host: host_ticks()?,
            cpu: dep.cpu()?,
        })
    }

    /// Share of host CPU time stolen between two readings, percent.
    fn steal_pct(a: &Tick, b: &Tick) -> f64 {
        (b.host.1 - a.host.1) as f64 / (b.host.0 - a.host.0).max(1) as f64 * 100.0
    }
}

/// Latency figures over the slices of the window the hypervisor left alone.
///
/// On a virtual machine that shares its host's CPUs, the hypervisor steals
/// CPU time in bursts of one to ten seconds, and every request in flight
/// then waits. The window is read once per [`TICK`]; latency quantiles are
/// taken over the requests that completed in slices with at most
/// [`STEAL_LIMIT`] of their CPU time stolen (or, when fewer than half the
/// slices qualify, the least-stolen half). Throughput and CPU per operation
/// are ratios of whole-window totals instead: a steal burst pauses the work
/// and its CPU accounting alike, and the rare expensive operations that
/// dominate them (recomputes, fsyncs) need the whole window to average out.
#[derive(Clone, Copy, Debug, Default)]
pub struct Steady {
    /// Query latency of the requests completed in kept slices.
    pub read: Summary,
    /// Write latency of the writes completed in kept slices.
    pub write: Summary,
    /// How late the generator sent the requests completed in kept slices.
    pub late: Summary,
    /// Kept seconds.
    pub seconds: f64,
    /// Host steal over the kept slices, percent.
    pub steal_pct: f64,
}

impl Steady {
    fn of(ticks: &[Tick], samples: &[&Sample]) -> Steady {
        let mut slices: Vec<(&Tick, &Tick)> = ticks.windows(2).map(|w| (&w[0], &w[1])).collect();
        slices.sort_by(|a, b| Tick::steal_pct(a.0, a.1).total_cmp(&Tick::steal_pct(b.0, b.1)));
        let calm = slices
            .iter()
            .filter(|(a, b)| Tick::steal_pct(a, b) <= STEAL_LIMIT)
            .count();
        slices.truncate(calm.max(slices.len().div_ceil(2)));
        let kept = |s: &Sample| {
            slices
                .iter()
                .any(|(a, b)| a.at <= s.done_at && s.done_at < b.at)
        };
        let done: Vec<&&Sample> = samples.iter().filter(|s| s.ok && kept(s)).collect();
        let seconds: f64 = slices
            .iter()
            .map(|(a, b)| (b.at - a.at).as_secs_f64())
            .sum();
        let host = slices.iter().fold((0, 0), |acc, (a, b)| {
            (acc.0 + b.host.0 - a.host.0, acc.1 + b.host.1 - a.host.1)
        });
        let summary = |keep: fn(&Sample) -> bool, value: fn(&Sample) -> f64| {
            Summary::of(
                &done
                    .iter()
                    .filter(|s| keep(s))
                    .map(|s| value(s))
                    .collect::<Vec<_>>(),
            )
        };
        Steady {
            read: summary(|s| !s.write, |s| s.latency_ms),
            write: summary(|s| s.write, |s| s.latency_ms),
            late: summary(|_| true, |s| s.late_ms),
            seconds,
            steal_pct: host.1 as f64 / host.0.max(1) as f64 * 100.0,
        }
    }
}

/// Runs the end-to-end half of one benchmark run.
pub fn run(
    rwr: &Path,
    work: &Path,
    graph_path: &Path,
    graph: &CsrGraph,
    plan: &mut Plan,
    window: Duration,
) -> Result<E2e, String> {
    let workload = plan.workload;
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS - 1 {
        let (dep, took) = Deployment::start(
            rwr,
            work,
            graph_path,
            workload,
            workload.via_router(),
            &format!("s{rep}"),
        )?;
        setups.push(took.as_secs_f64());
        dep.stop()?;
    }
    let (dep, took) = Deployment::start(
        rwr,
        work,
        graph_path,
        workload,
        workload.via_router(),
        "run",
    )?;
    setups.push(took.as_secs_f64());
    let mut violations = Vec::new();

    // Warm-up: every warm request once, split over both connections.
    let mut c0 = Client::connect(dep.endpoint())?;
    let mut c1 = Client::connect(dep.endpoint())?;
    let (w0, w1) = plan.warm.split_at(plan.warm.len() / 2);
    let (r0, r1) = std::thread::scope(|s| {
        let h = s.spawn(|| drive::sequential(&mut c1, w1, Instant::now(), &mut |_| {}));
        (
            drive::sequential(&mut c0, w0, Instant::now(), &mut |_| {}),
            h.join().expect("warm-up thread panicked"),
        )
    });
    let warm_failed = r0?
        .samples
        .iter()
        .chain(&r1?.samples)
        .filter(|s| !s.ok)
        .count();
    if warm_failed > 0 {
        violations.push(format!("{warm_failed} warm-up requests failed"));
    }

    // The timed window.
    let stats0 = c0.call(r#"{"op":"stats"}"#)?;
    let router_cpu0 = dep.router.as_ref().map(|r| cpu_time(r.pid)).transpose()?;
    let start = Instant::now() + Duration::from_millis(5);
    let mut ticks = vec![Tick::read(&dep, Duration::ZERO)?];
    let (run0, run1) = {
        let [q0, q1] = &plan.conns;
        let open = workload.open_loop();
        let mut next_tick = start + TICK;
        let mut on_tick = |now: Instant| {
            if now >= next_tick {
                next_tick += TICK;
                if let Ok(t) = Tick::read(&dep, now.duration_since(start)) {
                    ticks.push(t);
                }
            }
        };
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let idle = &mut |_: Instant| {};
                if open {
                    drive::open_loop(&mut c1, q1, start, idle)
                } else {
                    drive::closed_loop(&mut c1, q1, start, window, idle)
                }
            });
            let r0 = if open {
                drive::open_loop(&mut c0, q0, start, &mut on_tick)
            } else {
                drive::closed_loop(&mut c0, q0, start, window, &mut on_tick)
            };
            (r0, h.join().expect("driver thread panicked"))
        })
    };
    let elapsed = start.elapsed();
    ticks.push(Tick::read(&dep, elapsed)?);
    let router_cpu1 = dep.router.as_ref().map(|r| cpu_time(r.pid)).transpose()?;
    let rss_mb = peak_rss_mib(dep.server.pid)?;
    let stats1 = c0.call(r#"{"op":"stats"}"#)?;
    let runs: [ConnRun; 2] = [run0?, run1?];
    drop(c1);

    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let unanswered: usize = runs.iter().map(|r| r.unanswered).sum();
    let attempted = samples.len() + unanswered;
    let failed = samples.iter().filter(|s| !s.ok).count() + unanswered;
    if failed > 0 {
        violations.push(format!(
            "{failed} of {attempted} requests failed or went unanswered"
        ));
    }
    let completed = samples.iter().filter(|s| s.ok).count();
    let last_done = samples.iter().map(|s| s.done_at).max().unwrap_or(elapsed);
    let qps = completed as f64 / last_done.max(window).as_secs_f64();
    let reads: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && !s.write)
        .map(|s| s.latency_ms)
        .collect();
    let server_mean_ms = stats::mean(
        &samples
            .iter()
            .filter(|s| s.ok && !s.write)
            .filter_map(|s| s.server_ns.map(|ns| ns as f64 / 1e6))
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let read = Summary::of(&reads);
    let steady = Steady::of(&ticks, &samples);
    let whole = (ticks[0], ticks[ticks.len() - 1]);
    let cpu_ms = (whole.1.cpu - whole.0.cpu).as_secs_f64() * 1e3;
    let router_cpu_ms = match (router_cpu0, router_cpu1) {
        (Some(a), Some(b)) => (b - a).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    let late_p99_ms = steady.late.p99;
    if workload.open_loop() && late_p99_ms > LATE_BOUND_MS {
        violations.push(format!(
            "invalid run: generator lateness p99 {late_p99_ms:.1} ms exceeds {LATE_BOUND_MS} ms"
        ));
    }

    // Output checks, after the window so they cost it nothing.
    let session = RwrSession::with_config(
        graph.clone(),
        serve_params(graph.num_nodes()),
        ResAccConfig::default(),
    );
    let mut acked: Vec<(u64, Vec<(u32, u32)>)> = Vec::new();
    for (run, reqs) in runs.iter().zip(&plan.conns) {
        check_bit_identity(workload, &session, run, reqs, &mut violations);
        collect_acked(run, reqs, &mut acked);
    }
    let checks = plan.accuracy_queries(ACCURACY_QUERIES);
    let answers = drive::sequential(&mut c0, &checks, Instant::now(), &mut |_| {})?;
    let truth_graph = if acked.is_empty() {
        graph.clone()
    } else {
        let edges: Vec<(u32, u32)> = acked.iter().flat_map(|(_, e)| e.iter().copied()).collect();
        MutationOp::InsertEdges(edges).apply(graph)
    };
    let claim = if workload.writes() {
        let st = c0.call(r#"{"op":"stats"}"#)?;
        Some(stat(&st, &["cache_err_bound", "max"]))
    } else {
        None
    };
    let max_rel_err = accuracy(&truth_graph, &checks, &answers, claim, &mut violations);

    let write = if workload.writes() {
        steady.write
    } else {
        let probe = plan.probe_writes(PROBE_WRITES);
        let start = Instant::now();
        let mut ticks = vec![Tick::read(&dep, Duration::ZERO)?];
        let mut next_tick = start + PROBE_TICK;
        let run = drive::sequential(&mut c0, &probe, start, &mut |now| {
            if now >= next_tick {
                next_tick += PROBE_TICK;
                if let Ok(t) = Tick::read(&dep, now.duration_since(start)) {
                    ticks.push(t);
                }
            }
        })?;
        ticks.push(Tick::read(&dep, start.elapsed())?);
        collect_acked(&run, &probe, &mut acked);
        let bad = run.samples.iter().filter(|s| !s.ok).count();
        if bad > 0 {
            violations.push(format!("{bad} probe writes failed"));
        }
        Steady::of(&ticks, &run.samples.iter().collect::<Vec<_>>()).write
    };
    let final_stats = c0.call(r#"{"op":"stats"}"#)?;
    let version = final_stats.get("version").and_then(Json::as_u64);
    if version != Some(acked.len() as u64) {
        violations.push(format!(
            "final version {version:?} != {} acknowledged writes",
            acked.len()
        ));
    }
    let mut versions: Vec<u64> = acked.iter().map(|a| a.0).collect();
    versions.sort_unstable();
    if versions.iter().zip(1..).any(|(&v, want)| v != want) {
        violations.push("acknowledged writes do not carry versions 1..=n, each once".into());
    }
    drop(c0);

    let mut direct = Client::connect(&dep.server.addr)?;
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        direct.call(r#"{"op":"ping"}"#)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(direct);
    dep.stop()?;

    Ok(E2e {
        setup_s: stats::median(&setups).unwrap_or(0.0),
        window,
        qps,
        read,
        steady,
        write,
        attempted,
        failed,
        cpu_ms_per_op: cpu_ms / completed.max(1) as f64,
        router_cpu_ms_per_op: router_cpu_ms / completed.max(1) as f64,
        rss_mb,
        max_rel_err,
        late_p99_ms,
        frontend_ms: read.mean - server_mean_ms,
        ping_rtt_us: stats::median(&rtts).unwrap_or(0.0),
        steal_pct: Tick::steal_pct(&whole.0, &whole.1),
        stats: (stats0, stats1),
        violations,
    })
}

/// The kept replies of a read connection must equal an in-process
/// `RwrSession::top_k` with the same source and seed, bit for bit. Skipped
/// for `write-mix`, whose answers may be offset-upgraded entries (their
/// accuracy is checked against ground truth instead).
fn check_bit_identity(
    workload: Workload,
    session: &RwrSession,
    run: &ConnRun,
    reqs: &[Req],
    out: &mut Vec<String>,
) {
    if workload.writes() {
        return;
    }
    for s in run.samples.iter().filter(|s| s.reply.is_some()) {
        let Some(req) = reqs.iter().find(|r| r.id == s.id) else {
            continue;
        };
        let (Op::Query { source, .. }, Some(seed)) = (&req.op, req.effective_seed()) else {
            continue;
        };
        let want = session.top_k(*source, K, seed);
        let got = parse_top(s.reply.as_ref().expect("filtered on reply"));
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            out.push(format!(
                "request {} (source {source}, seed {seed}): top-{K} differs from in-process top_k",
                s.id
            ));
        }
    }
}

fn parse_top(reply: &Json) -> Vec<(u32, f64)> {
    reply
        .get("top")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let pair = p.as_arr()?;
            Some((pair.first()?.as_u64()? as u32, pair.get(1)?.as_f64()?))
        })
        .collect()
}

/// Appends the acknowledged writes of `run` as `(version, edges)`.
fn collect_acked(run: &ConnRun, reqs: &[Req], acked: &mut Vec<(u64, Vec<(u32, u32)>)>) {
    for s in run.samples.iter().filter(|s| s.write && s.ok) {
        if let Some(Op::Insert { edges }) = reqs.iter().find(|r| r.id == s.id).map(|r| &r.op) {
            acked.push((s.version.unwrap_or(0), edges.clone()));
        }
    }
}

/// Largest relative error over (source, t) with ground truth π > δ.
///
/// With `claim = None` every such error must stay within ε (the paper's
/// guarantee for a fresh engine answer). `write-mix` answers may be cache
/// entries rolled forward by offset propagation, which the service
/// documents as carrying an extra additive error of at most their
/// accumulated claim (DESIGN.md §13); for those `claim` is the largest
/// claim in the cache and each error must stay within ε·π + δ + claim.
/// The returned maximum is the plain relative error either way.
fn accuracy(
    graph: &CsrGraph,
    reqs: &[Req],
    answers: &ConnRun,
    claim: Option<f64>,
    out: &mut Vec<String>,
) -> f64 {
    let params = serve_params(graph.num_nodes());
    let mut worst = 0.0f64;
    let mut bad = 0usize;
    for (req, s) in reqs.iter().zip(&answers.samples) {
        let Op::Query { source, .. } = req.op else {
            continue;
        };
        let scores: Vec<f64> = s
            .reply
            .as_ref()
            .and_then(|r| r.get("scores"))
            .and_then(Json::as_arr)
            .map(|a| a.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect())
            .unwrap_or_default();
        if !s.ok || scores.len() != graph.num_nodes() {
            out.push(format!(
                "accuracy query {} returned no full score vector",
                req.id
            ));
            continue;
        }
        let truth = resacc::power::ground_truth(graph, source, params.alpha);
        for (&est, &pi) in scores.iter().zip(&truth) {
            if pi > params.delta {
                let err = (est - pi).abs();
                let allowed = match claim {
                    None => params.epsilon * pi,
                    Some(c) => params.epsilon * pi + params.delta + c,
                };
                bad += usize::from(err > allowed || err.is_nan());
                worst = worst.max(err / pi);
            }
        }
    }
    if bad > 0 {
        out.push(format!(
            "{bad} (source, node) pairs with π > δ exceed the error bound; max relative error {worst:.3} (ε = {})",
            params.epsilon
        ));
    }
    worst
}

/// Writes `graph` as the edge list the server loads.
pub fn write_graph(graph: &CsrGraph, path: &PathBuf) -> Result<(), String> {
    resacc_graph::edgelist::save_edge_list(graph, path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
