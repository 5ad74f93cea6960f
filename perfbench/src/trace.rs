//! The traced run: per-layer numbers from the benchmark's own files.
//!
//! The workload's request stream is replayed in this process through the
//! library's public functions in the order the server calls them —
//! `Json::parse` → `ResultCache::get` → on a miss the three engine phases
//! (`h_hop_fwd_cancellable`, `omfwd_cancellable`, `remedy_parallel`) or an
//! offset upgrade (`RwrSession::try_upgrade_scores`) → `apply_mutation`
//! for writes → `top_k` and `Json::render`. Every call gets a span (name,
//! start, end, parent, request id); spans stay in memory and are written
//! to a file when the run ends. Counters the replay cannot see (coalescing,
//! shedding, router retries) come from the server's `stats` deltas over
//! the end-to-end window.

use crate::e2e::{self, delta, serve_params, Deployment, E2e};
use crate::plan::{Op, Plan, Req, Workload, K, WORKERS, WRITE_MIX_DYNAMIC_EPS};
use crate::stats::{self, Summary};
use crate::wire::{cpu_time, Client};
use resacc::cancel::Cancel;
use resacc::durability::{self, DurabilityOptions, MutationOp};
use resacc::monte_carlo::remedy_parallel;
use resacc::resacc::{h_hop_fwd_cancellable, omfwd_cancellable, ResAccConfig, Scope};
use resacc::state::ForwardState;
use resacc::{RwrParams, RwrSession};
use resacc_graph::CsrGraph;
use resacc_service::json::Json;
use resacc_service::{params_hash, CompKey, QueryRequest, ResultCache, Scheduler, SchedulerConfig};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Push threshold of the server's dynamic upgrades (`--dynamic-delta`
/// default).
const DYNAMIC_DELTA: f64 = 1e-4;
/// Result-cache capacity of the server (`--cache` default).
const CACHE_CAPACITY: usize = 1024;
/// Engine runs re-checked against `RwrSession::query`.
const IDENTITY_SAMPLE: usize = 3;
/// Largest accepted gap between a request span and the sum of its
/// layers' self times, as a share of the request span (aggregate).
const CLOSURE_BOUND: f64 = 0.05;
/// Cached-hit round trips per side of the router-hop probe.
const HOP_PROBES: usize = 1000;
/// Writes applied to the durable probe session of read-only workloads.
const DURABLE_PROBE_WRITES: usize = 64;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Request id the call served.
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer started.
    pub start: u64,
    /// End, ns since the tracer started.
    pub end: u64,
}

/// In-memory span log; with `on = false` every call is a no-op, which is
/// the untraced side of the overhead measurement.
pub struct Tracer {
    on: bool,
    t0: Instant,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its handle.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        if let Some(s) = self.spans.get_mut(span) {
            s.end = self.t0.elapsed().as_nanos() as u64;
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// One engine run of the replay.
struct EngineRun {
    version: u64,
    source: u32,
    seed: u64,
    hhop_ns: u64,
    omfwd_ns: u64,
    remedy_ns: u64,
    hhop_pushes: u64,
    omfwd_pushes: u64,
    walks: u64,
    r_sum: f64,
    scores: Arc<Vec<f64>>,
}

/// The replayed server state: a session, a result cache, and what the
/// replay observed.
struct Replay {
    session: RwrSession,
    cache: ResultCache,
    hash: u64,
    ws: ForwardState,
    dynamic_eps: f64,
    engine: Vec<EngineRun>,
    upgrades: Vec<(u64, u64)>,
    applies: Vec<u64>,
    failures: Vec<String>,
}

impl Replay {
    fn new(session: RwrSession, dynamic_eps: f64) -> Replay {
        let n = session.graph().num_nodes();
        let hash = params_hash(&session.params(), &ResAccConfig::default());
        Replay {
            session,
            cache: ResultCache::new(CACHE_CAPACITY),
            hash,
            ws: ForwardState::new(n),
            dynamic_eps,
            engine: Vec::new(),
            upgrades: Vec::new(),
            applies: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Serves one request line; returns the rendered reply.
    fn handle(&mut self, t: &mut Tracer, id: u64, line: &str) -> String {
        let root = t.open("request", id, None);
        let s = t.open("json.parse", id, Some(root));
        let parsed = Json::parse(line);
        t.close(s);
        let reply = match parsed {
            Ok(req) => match req.get("op").and_then(Json::as_str) {
                Some("query") => self.query(t, id, root, &req),
                Some("insert_edges") => self.insert(t, id, root, &req),
                other => Err(format!("unexpected op {other:?}")),
            },
            Err(e) => Err(e),
        };
        let out = match reply {
            Ok(fields) => {
                let s = t.open("json.render", id, Some(root));
                let mut all = vec![
                    ("id".to_string(), Json::u64(id)),
                    ("ok".to_string(), Json::Bool(true)),
                ];
                all.extend(fields);
                let text = Json::Obj(all).render();
                t.close(s);
                text
            }
            Err(e) => {
                self.failures.push(format!("replay request {id}: {e}"));
                String::new()
            }
        };
        t.close(root);
        out
    }

    fn query(
        &mut self,
        t: &mut Tracer,
        id: u64,
        root: usize,
        req: &Json,
    ) -> Result<Vec<(String, Json)>, String> {
        let source = req
            .get("source")
            .and_then(Json::as_u64)
            .ok_or("no source")? as u32;
        let seed = req
            .get("seed")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| resacc_service::splitmix64(id));
        let version = self.session.version();
        let key = CompKey {
            source,
            params_hash: self.hash,
            version,
            seed,
        };
        let s = t.open("cache.get", id, Some(root));
        let hit = self.cache.get(&key);
        t.close(s);
        let scores = match hit {
            Some(scores) => scores,
            None => match self.upgrade(t, id, root, &key) {
                Some(scores) => scores,
                None => self.compute(t, id, root, source, seed, key)?,
            },
        };
        let s = t.open("topk", id, Some(root));
        let top = resacc::topk::top_k(&scores, K);
        t.close(s);
        let top = top
            .into_iter()
            .map(|(node, score)| Json::Arr(vec![Json::u64(node as u64), Json::f64(score)]))
            .collect();
        Ok(vec![
            ("version".to_string(), Json::u64(version)),
            ("seed".to_string(), Json::u64(seed)),
            ("top".to_string(), Json::Arr(top)),
        ])
    }

    /// The scheduler's upgrade path: roll the freshest older entry of the
    /// same computation forward, within the error budget.
    fn upgrade(
        &mut self,
        t: &mut Tracer,
        id: u64,
        root: usize,
        key: &CompKey,
    ) -> Option<Arc<Vec<f64>>> {
        if self.dynamic_eps <= 0.0 {
            return None;
        }
        let (old_key, old_scores, old_err) = self.cache.best_older(key)?;
        if old_err >= self.dynamic_eps {
            return None;
        }
        let s = t.open("dynamic.upgrade", id, Some(root));
        let t0 = Instant::now();
        let result = self
            .session
            .try_upgrade_scores(&old_scores, old_key.version, DYNAMIC_DELTA);
        let took = t0.elapsed().as_nanos() as u64;
        t.close(s);
        match result {
            Ok((up, version)) if old_err + up.err_bound <= self.dynamic_eps => {
                self.upgrades.push((took, up.pushes));
                let scores = Arc::new(up.scores);
                self.cache.insert_with_err(
                    CompKey { version, ..*key },
                    scores.clone(),
                    old_err + up.err_bound,
                );
                Some(scores)
            }
            _ => None,
        }
    }

    /// A cold engine run, then the cache insert.
    fn compute(
        &mut self,
        t: &mut Tracer,
        id: u64,
        root: usize,
        source: u32,
        seed: u64,
        key: CompKey,
    ) -> Result<Arc<Vec<f64>>, String> {
        let run = {
            let graph = self.session.graph();
            run_phases(
                t,
                id,
                root,
                &graph,
                &self.session.params(),
                source,
                seed,
                &mut self.ws,
            )?
        };
        let scores = run.scores.clone();
        let s = t.open("cache.insert", id, Some(root));
        self.cache.insert(key, scores.clone());
        t.close(s);
        self.engine.push(EngineRun {
            version: key.version,
            ..run
        });
        Ok(scores)
    }

    fn insert(
        &mut self,
        t: &mut Tracer,
        id: u64,
        root: usize,
        req: &Json,
    ) -> Result<Vec<(String, Json)>, String> {
        let edges: Vec<(u32, u32)> = req
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("no edges")?
            .iter()
            .filter_map(|p| {
                let p = p.as_arr()?;
                Some((p.first()?.as_u64()? as u32, p.get(1)?.as_u64()? as u32))
            })
            .collect();
        let s = t.open("session.apply", id, Some(root));
        let t0 = Instant::now();
        let version = self
            .session
            .apply_mutation(&MutationOp::InsertEdges(edges))
            .map_err(|e| e.to_string())?;
        self.applies.push(t0.elapsed().as_nanos() as u64);
        t.close(s);
        Ok(vec![("version".to_string(), Json::u64(version))])
    }
}

/// One engine run, phase by phase, exactly as `ResAcc::query_guarded`
/// runs it (default configuration, one remedy thread).
#[allow(clippy::too_many_arguments)]
fn run_phases(
    t: &mut Tracer,
    id: u64,
    parent: usize,
    graph: &CsrGraph,
    params: &RwrParams,
    source: u32,
    seed: u64,
    ws: &mut ForwardState,
) -> Result<EngineRun, String> {
    let cfg = ResAccConfig::default();
    let cancel = Cancel::never();
    let r_max_f = cfg
        .r_max_f
        .unwrap_or_else(|| 1.0 / (10.0 * graph.num_edges().max(1) as f64));
    let e = t.open("engine", id, Some(parent));
    let s = t.open("engine.hhop", id, Some(e));
    let t0 = Instant::now();
    let hop = h_hop_fwd_cancellable(
        graph,
        source,
        params.alpha,
        cfg.r_max_hop,
        Scope::HopLimited(cfg.h),
        cfg.use_loop_accumulation,
        ws,
        &cancel,
    )
    .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    t.close(s);
    let s = t.open("engine.omfwd", id, Some(e));
    let t2 = Instant::now();
    let push = omfwd_cancellable(graph, params.alpha, r_max_f, &hop.boundary, ws, &cancel)
        .map_err(|e| e.to_string())?;
    let r_sum = ws.residue_sum();
    let t3 = Instant::now();
    t.close(s);
    let s = t.open("engine.remedy", id, Some(e));
    let t4 = Instant::now();
    let mut scores = ws.scores();
    let walks = remedy_parallel(
        graph,
        ws,
        params,
        cfg.walk_scale,
        seed,
        1,
        &mut scores,
        &cancel,
    )
    .map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    t.close(s);
    t.close(e);
    Ok(EngineRun {
        version: 0,
        source,
        seed,
        hhop_ns: (t1 - t0).as_nanos() as u64,
        omfwd_ns: (t3 - t2).as_nanos() as u64,
        remedy_ns: (t5 - t4).as_nanos() as u64,
        hhop_pushes: hop.pushes,
        omfwd_pushes: push.pushes,
        walks,
        r_sum,
        scores: Arc::new(scores),
    })
}

/// A fresh replay session like the workload's server: durable in `dir`
/// for `write-mix`, in memory otherwise.
fn replay_session(workload: Workload, graph: &CsrGraph, dir: &Path) -> Result<RwrSession, String> {
    let params = serve_params(graph.num_nodes());
    if workload.writes() {
        durable_session(graph, dir, params)
    } else {
        Ok(RwrSession::with_config(
            graph.clone(),
            params,
            ResAccConfig::default(),
        ))
    }
}

fn durable_session(graph: &CsrGraph, dir: &Path, params: RwrParams) -> Result<RwrSession, String> {
    let _ = std::fs::remove_dir_all(dir);
    let recovered = durability::open_dir(dir, DurabilityOptions::default(), || Ok(graph.clone()))
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    Ok(RwrSession::from_recovered(
        recovered,
        params,
        ResAccConfig::default(),
    ))
}

/// The replayed stream: the warm-up (only the pinned pairs the timed part
/// reads) and the first requests of the timed window, in id order.
fn replay_stream(plan: &Plan) -> (Vec<Req>, Vec<Req>) {
    let budget = replay_budget(plan.workload);
    let mut timed: Vec<Req> = plan.conns.iter().flatten().cloned().collect();
    timed.sort_by_key(|r| r.id);
    timed.truncate(budget);
    let read = |r: &Req| match r.op {
        Op::Query { source, seed, .. } => Some((source, seed)),
        Op::Insert { .. } => None,
    };
    let used: Vec<(u32, Option<u64>)> = timed.iter().filter_map(read).collect();
    let warm = plan
        .warm
        .iter()
        .filter(|w| {
            plan.workload == Workload::ColdQuery || read(w).is_some_and(|k| used.contains(&k))
        })
        .cloned()
        .collect();
    if plan.workload == Workload::ColdQuery {
        return (Vec::new(), timed);
    }
    (warm, timed)
}

/// How many timed requests the replay serves.
fn replay_budget(workload: Workload) -> usize {
    match workload {
        Workload::ColdQuery => 40,
        Workload::HotRead | Workload::RouterRead => 3000,
        Workload::WriteMix => 300,
    }
}

/// Runs warm + timed through a fresh replay; returns it with the tracer
/// and the wall time of the timed part.
fn replay_pass(
    plan: &Plan,
    graph: &CsrGraph,
    dir: &Path,
    on: bool,
) -> Result<(Replay, Tracer, Duration, usize), String> {
    let workload = plan.workload;
    let eps = if workload.writes() {
        WRITE_MIX_DYNAMIC_EPS
    } else {
        0.0
    };
    let mut replay = Replay::new(replay_session(workload, graph, dir)?, eps);
    let (warm, timed) = replay_stream(plan);
    let mut tracer = Tracer::new(on);
    for r in &warm {
        replay.handle(&mut tracer, r.id, &r.line());
    }
    let first_timed_span = tracer.spans.len();
    let t0 = Instant::now();
    for r in &timed {
        std::hint::black_box(replay.handle(&mut tracer, r.id, &r.line()));
    }
    Ok((replay, tracer, t0.elapsed(), first_timed_span))
}

/// The per-layer result of a traced run.
pub struct Layers {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Check failures.
    pub violations: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ns(v: impl Iterator<Item = u64>) -> f64 {
    stats::median(&v.map(|x| x as f64).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Median self time of every span named `name`, in ns.
fn span_median(spans: &[Span], own: &[u64], name: &str) -> f64 {
    median_ns(
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &o)| o),
    )
}

/// Runs the traced half of one run.
pub fn run(
    rwr: &Path,
    work: &Path,
    traces: &Path,
    graph_path: &Path,
    graph: &CsrGraph,
    plan: &Plan,
    e2e: &E2e,
) -> Result<Layers, String> {
    let workload = plan.workload;
    let mut violations = Vec::new();

    // graph: the loader `rwr serve --graph` uses.
    let mut loads = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let g = resacc_graph::edgelist::load_edge_list(graph_path, None, false)
            .map_err(|e| e.to_string())?;
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
        if g.num_edges() != graph.num_edges() {
            violations.push("reloaded graph differs from the generated one".into());
        }
    }

    // The replay, untraced then traced, each from a fresh state.
    let (_, _, off, _) = replay_pass(plan, graph, &work.join("replay-off"), false)?;
    let (replay, tracer, on, first_timed) =
        replay_pass(plan, graph, &work.join("replay-on"), true)?;
    violations.extend(replay.failures.iter().cloned());
    let spans = &tracer.spans;
    let own = self_times(spans);
    write_spans(traces, workload, spans)?;

    // Closure: the layers' self times must cover the request spans.
    let (mut req_total, mut glue) = (0u64, 0u64);
    for (s, &o) in spans.iter().zip(&own) {
        if s.name == "request" {
            req_total += s.end - s.start;
            glue += o;
        }
    }
    let closure_gap = glue as f64 / req_total.max(1) as f64;
    if closure_gap > CLOSURE_BOUND {
        violations.push(format!(
            "trace closure: {:.1}% of request time is outside every layer span",
            closure_gap * 100.0
        ));
    }
    print_layer_summary(spans, &own);

    // core::resacc, checked bit-identical to RwrSession::query.
    let engine = &replay.engine;
    let base = RwrSession::with_config(
        graph.clone(),
        serve_params(graph.num_nodes()),
        ResAccConfig::default(),
    );
    let mut overhead = Vec::new();
    let mut ws = ForwardState::new(graph.num_nodes());
    let params = base.params();
    for run in engine
        .iter()
        .filter(|r| r.version == 0)
        .take(IDENTITY_SAMPLE)
    {
        let direct = base.query(run.source, run.seed);
        let same = direct.scores.len() == run.scores.len()
            && direct
                .scores
                .iter()
                .zip(run.scores.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            violations.push(format!(
                "engine phases for source {} seed {} differ from RwrSession::query",
                run.source, run.seed
            ));
        }
        // The session's own cost: `query` minus the bare phases, timed
        // back to back on the same (source, seed).
        let t0 = Instant::now();
        std::hint::black_box(run_phases(
            &mut Tracer::new(false),
            0,
            0,
            &base.graph(),
            &params,
            run.source,
            run.seed,
            &mut ws,
        )?);
        let phases = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(base.query(run.source, run.seed));
        overhead.push((t0.elapsed().as_secs_f64() - phases) * 1e3);
    }
    let runs = engine.len().max(1) as f64;
    let sum = |f: fn(&EngineRun) -> u64| engine.iter().map(f).sum::<u64>();
    let pushes = sum(|r| r.hhop_pushes) + sum(|r| r.omfwd_pushes);
    let push_ns = sum(|r| r.hhop_ns) + sum(|r| r.omfwd_ns);

    // core::session writes, core::durability and core::dynamic: from the
    // durable replay of write-mix, or the write probe (see `write_probe`)
    // for the read-only workloads.
    let probe = if workload.writes() {
        let store = replay
            .session
            .durability()
            .ok_or("write-mix replay is not durable")?;
        WriteLayer::from_store(store, replay.applies.clone(), replay.upgrades.clone())
    } else {
        write_probe(graph, &work.join("probe-wal"), plan)?
    };
    let apply = Summary::of(&probe.applies.iter().map(|&n| ms(n)).collect::<Vec<_>>());

    // service::scheduler, in process, cache pre-filled from the replay.
    let sched = scheduler_pass(plan, graph, &replay)?;

    // Server-side counters over the end-to-end window.
    let (s0, s1) = &e2e.stats;
    let d = |k: &str| delta(s0, s1, &["stats", k]);
    let lookups = d("cache_hits") + d("cache_misses");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // service::router hop, on cached hits, idle.
    let hop = router_probe(rwr, work, graph_path, plan)?;
    let (router_cpu, retries, hedges) = if workload.via_router() {
        (
            e2e.router_cpu_ms_per_op,
            delta(s0, s1, &["router", "retries"]),
            delta(s0, s1, &["router", "hedges"]),
        )
    } else {
        (hop.cpu_ms_per_op, hop.retries, hop.hedges)
    };

    // The benchmark itself.
    let writes: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "session.apply")
        .map(|s| s.req)
        .collect();
    let timed_reads: Vec<f64> = spans[first_timed..]
        .iter()
        .filter(|s| s.name == "request" && !writes.contains(&s.req))
        .map(|s| ms(s.end - s.start))
        .collect();
    let unattributed = e2e.steady.read.mean - stats::mean(&timed_reads).unwrap_or(0.0);
    let overhead_pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;

    let metrics = vec![
        ("graph.load_ms", stats::median(&loads).unwrap_or(0.0), "ms"),
        (
            "engine.hhop_ms",
            median_ns(engine.iter().map(|r| r.hhop_ns)) / 1e6,
            "ms",
        ),
        (
            "engine.omfwd_ms",
            median_ns(engine.iter().map(|r| r.omfwd_ns)) / 1e6,
            "ms",
        ),
        (
            "engine.remedy_ms",
            median_ns(engine.iter().map(|r| r.remedy_ns)) / 1e6,
            "ms",
        ),
        (
            "engine.hhop_pushes",
            sum(|r| r.hhop_pushes) as f64 / runs,
            "count",
        ),
        (
            "engine.omfwd_pushes",
            sum(|r| r.omfwd_pushes) as f64 / runs,
            "count",
        ),
        ("engine.walks", sum(|r| r.walks) as f64 / runs, "count"),
        (
            "engine.r_sum",
            engine.iter().map(|r| r.r_sum).sum::<f64>() / runs,
            "ratio",
        ),
        (
            "engine.ns_per_push",
            push_ns as f64 / pushes.max(1) as f64,
            "ns",
        ),
        (
            "engine.ns_per_walk",
            sum(|r| r.remedy_ns) as f64 / sum(|r| r.walks).max(1) as f64,
            "ns",
        ),
        (
            "session.overhead_ms",
            stats::median(&overhead).unwrap_or(0.0),
            "ms",
        ),
        ("session.apply_ms", apply.p50, "ms"),
        ("session.apply_p95_ms", apply.p95, "ms"),
        ("session.write_wait_ms", e2e.write.p50 - apply.p50, "ms"),
        ("wal.fsyncs_per_write", probe.fsyncs_per_write, "count"),
        ("wal.commit_ms", probe.commit_ms, "ms"),
        ("wal.bytes_per_write", probe.bytes_per_write, "B"),
        ("wal.snapshots", probe.snapshots, "count"),
        (
            "dynamic.upgrade_ms",
            median_ns(probe.upgrades.iter().map(|u| u.0)) / 1e6,
            "ms",
        ),
        (
            "dynamic.upgrade_pushes",
            probe.upgrades.iter().map(|u| u.1).sum::<u64>() as f64
                / probe.upgrades.len().max(1) as f64,
            "count",
        ),
        (
            "cache.upgrade_ratio",
            ratio(
                d("cache_upgrades"),
                d("cache_upgrades") + d("cache_upgrade_fallbacks"),
            ),
            "ratio",
        ),
        ("cache.hit_ratio", ratio(d("cache_hits"), lookups), "ratio"),
        (
            "cache.effective_hit_ratio",
            ratio(d("cache_hits") + d("cache_upgrades"), lookups),
            "ratio",
        ),
        (
            "cache.get_us",
            span_median(spans, &own, "cache.get") / 1e3,
            "us",
        ),
        (
            "cache.entries",
            e2e::stat(s1, &["cache_err_bound", "entries"]),
            "count",
        ),
        ("scheduler.queue_wait_ms", sched.queue_wait_ms, "ms"),
        ("scheduler.hit_us", sched.hit_us, "us"),
        (
            "scheduler.coalesced_ratio",
            ratio(d("coalesced"), d("queries")),
            "ratio",
        ),
        ("scheduler.shed", d("shed"), "count"),
        (
            "json.parse_us",
            span_median(spans, &own, "json.parse") / 1e3,
            "us",
        ),
        (
            "json.render_us",
            span_median(spans, &own, "json.render") / 1e3,
            "us",
        ),
        ("topk.us", span_median(spans, &own, "topk") / 1e3, "us"),
        ("server.ping_rtt_us", e2e.ping_rtt_us, "us"),
        ("server.frontend_ms", e2e.frontend_ms, "ms"),
        ("router.hop_ms", hop.hop_ms, "ms"),
        ("router.cpu_ms_per_op", router_cpu, "ms"),
        ("router.retries", retries, "count"),
        ("router.hedges", hedges, "count"),
        ("loadgen.late_p99_ms", e2e.late_p99_ms, "ms"),
        ("loadgen.p99_ms", e2e.steady.read.p99, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.unattributed_ms", unattributed, "ms"),
        ("trace.closure_gap_pct", closure_gap * 100.0, "%"),
    ];
    Ok(Layers {
        metrics,
        violations,
    })
}

/// Writes the spans as JSON lines to `traces/spans-<workload>.jsonl`.
fn write_spans(traces: &Path, workload: Workload, spans: &[Span]) -> Result<(), String> {
    let path = traces.join(format!("spans-{}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?,
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"span":{i},"name":"{}","req":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.req, s.start, s.end
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    println!("# spans written to {}", path.display());
    Ok(())
}

/// Prints total and per-call self time per span name.
fn print_layer_summary(spans: &[Span], own: &[u64]) {
    let mut by: Vec<(&str, u64, usize)> = Vec::new();
    for (s, &o) in spans.iter().zip(own) {
        match by.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += o;
                e.2 += 1;
            }
            None => by.push((s.name, o, 1)),
        }
    }
    by.sort_by_key(|e| std::cmp::Reverse(e.1));
    let total: u64 = by.iter().map(|e| e.1).sum();
    println!("# layer self time ({} spans)", spans.len());
    for (name, t, n) in by {
        println!(
            "#   {name:<18} {:>10.3} ms total {:>6.2}%  {:>6} calls  {:>10.2} us/call",
            ms(t),
            t as f64 / total.max(1) as f64 * 100.0,
            n,
            t as f64 / n as f64 / 1e3
        );
    }
}

/// Write-path layer readings.
struct WriteLayer {
    applies: Vec<u64>,
    upgrades: Vec<(u64, u64)>,
    fsyncs_per_write: f64,
    commit_ms: f64,
    bytes_per_write: f64,
    snapshots: f64,
}

impl WriteLayer {
    fn from_store(
        store: &resacc::durability::Durability,
        applies: Vec<u64>,
        upgrades: Vec<(u64, u64)>,
    ) -> WriteLayer {
        let writes = store.records_appended().max(1) as f64;
        let fsyncs = if !store.options().fsync {
            0.0
        } else if store.options().group_commit {
            store.batches_committed() as f64
        } else {
            store.records_appended() as f64
        };
        WriteLayer {
            applies,
            upgrades,
            fsyncs_per_write: fsyncs / writes,
            commit_ms: store.commit_nanos() as f64 / 1e6 / writes,
            bytes_per_write: store.bytes_appended() as f64 / writes,
            snapshots: store.snapshots_written() as f64,
        }
    }
}

/// For the read-only workloads, the first writes of the post-window probe
/// applied in process: to an in-memory session like their server (apply
/// time, then the hottest vectors rolled forward across the writes), and
/// to a durable session with the server's defaults — fsync on, no group
/// commit — for the WAL counters.
fn write_probe(graph: &CsrGraph, dir: &Path, plan: &Plan) -> Result<WriteLayer, String> {
    let params = serve_params(graph.num_nodes());
    let ops: Vec<MutationOp> = plan
        .probe_edges(DURABLE_PROBE_WRITES)
        .into_iter()
        .map(|e| MutationOp::InsertEdges(vec![e]))
        .collect();
    let memory = RwrSession::with_config(graph.clone(), params, ResAccConfig::default());
    let keys: Vec<(u32, u64)> = match plan.keys.len() {
        0 => vec![(0, 1), (1, 2)],
        _ => plan.keys.iter().take(2).copied().collect(),
    };
    let before: Vec<Vec<f64>> = keys
        .iter()
        .map(|&(s, seed)| memory.query(s, seed).scores)
        .collect();
    let mut applies = Vec::new();
    for op in &ops {
        let t0 = Instant::now();
        memory
            .apply_mutation(op)
            .map_err(|e| format!("probe write: {e}"))?;
        applies.push(t0.elapsed().as_nanos() as u64);
    }
    let mut upgrades = Vec::new();
    for scores in &before {
        let t0 = Instant::now();
        let (up, _) = memory
            .try_upgrade_scores(scores, 0, DYNAMIC_DELTA)
            .map_err(|e| format!("probe upgrade: {e:?}"))?;
        upgrades.push((t0.elapsed().as_nanos() as u64, up.pushes));
    }
    let durable = durable_session(graph, dir, params)?;
    for op in &ops {
        durable
            .apply_mutation(op)
            .map_err(|e| format!("durable probe write: {e}"))?;
    }
    let store = durable.durability().ok_or("probe session is not durable")?;
    let layer = WriteLayer::from_store(store, applies, upgrades);
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    Ok(layer)
}

struct SchedReading {
    queue_wait_ms: f64,
    hit_us: f64,
}

/// Submits reads of the timed stream to an in-process `Scheduler` two at a
/// time (like two closed-loop connections), its cache pre-filled with the
/// replay's version-0 results. `cold-query` skips the reads the replay
/// already computed, so its requests miss as they do on the server.
fn scheduler_pass(plan: &Plan, graph: &CsrGraph, replay: &Replay) -> Result<SchedReading, String> {
    let session = Arc::new(RwrSession::with_config(
        graph.clone(),
        serve_params(graph.num_nodes()),
        ResAccConfig::default(),
    ));
    let scheduler = Scheduler::new(
        session,
        SchedulerConfig {
            workers: WORKERS,
            cache_capacity: CACHE_CAPACITY,
            ..Default::default()
        },
    );
    for run in &replay.engine {
        let key = CompKey {
            source: run.source,
            params_hash: replay.hash,
            version: 0,
            seed: run.seed,
        };
        scheduler.cache().insert(key, run.scores.clone());
    }
    let (skip, limit) = match plan.workload {
        Workload::ColdQuery => (replay_budget(plan.workload), 16),
        _ => (0, 400),
    };
    let mut reads: Vec<QueryRequest> = plan
        .conns
        .iter()
        .flatten()
        .filter_map(|r| match r.op {
            Op::Query { source, seed, .. } => Some(QueryRequest {
                id: r.id,
                source,
                seed,
                ..Default::default()
            }),
            Op::Insert { .. } => None,
        })
        .collect();
    reads.sort_by_key(|r| r.id);
    let reads: Vec<QueryRequest> = reads.into_iter().skip(skip).take(limit).collect();
    let engine_ns = |s: &Scheduler| s.metrics().snapshot().phase_ms.iter().sum::<f64>() * 1e6;
    let (mut miss_ns, mut hits) = (0f64, Vec::new());
    let before = engine_ns(&scheduler);
    let mut misses = 0usize;
    for pair in reads.chunks(2) {
        let tickets: Vec<_> = pair.iter().map(|&r| scheduler.submit(r)).collect();
        for t in tickets {
            let r = t.wait().map_err(|e| format!("scheduler: {e}"))?;
            if r.cached {
                hits.push(r.latency_ns as f64 / 1e3);
            } else {
                misses += 1;
                miss_ns += r.latency_ns as f64;
            }
        }
    }
    let engine = engine_ns(&scheduler) - before;
    Ok(SchedReading {
        queue_wait_ms: if misses > 0 {
            (miss_ns - engine) / misses as f64 / 1e6
        } else {
            0.0
        },
        hit_us: stats::median(&hits).unwrap_or(0.0),
    })
}

struct HopReading {
    hop_ms: f64,
    cpu_ms_per_op: f64,
    retries: f64,
    hedges: f64,
}

/// Cached-hit round trips straight to a fresh server and through a router
/// in front of it, alternating; the hop is the difference of medians.
fn router_probe(
    rwr: &Path,
    work: &Path,
    graph_path: &Path,
    plan: &Plan,
) -> Result<HopReading, String> {
    let (dep, _) = Deployment::start(rwr, work, graph_path, plan.workload, true, "hop")?;
    let router = dep.router.as_ref().expect("started with a router");
    let (source, seed) = plan.keys.first().copied().unwrap_or((0, 1));
    let line = format!(r#"{{"id":1,"op":"query","source":{source},"seed":{seed},"k":{K}}}"#);
    let mut direct = Client::connect(&dep.server.addr)?;
    let mut via = Client::connect(&router.addr)?;
    direct.call(&line)?;
    via.call(&line)?;
    let s0 = via.call(r#"{"op":"stats"}"#)?;
    let cpu0 = cpu_time(router.pid)?;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..HOP_PROBES {
        let t0 = Instant::now();
        direct.call(&line)?;
        a.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        via.call(&line)?;
        b.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let cpu1 = cpu_time(router.pid)?;
    let s1 = via.call(r#"{"op":"stats"}"#)?;
    drop((direct, via));
    dep.stop()?;
    Ok(HopReading {
        hop_ms: stats::median(&b).unwrap_or(0.0) - stats::median(&a).unwrap_or(0.0),
        cpu_ms_per_op: (cpu1 - cpu0).as_secs_f64() * 1e3 / HOP_PROBES as f64,
        retries: delta(&s0, &s1, &["router", "retries"]),
        hedges: delta(&s0, &s1, &["router", "hedges"]),
    })
}
