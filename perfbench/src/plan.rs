//! Workloads and the request streams generated from a seed.
//!
//! Everything the program under test receives — the graph file and every
//! request line — is derived here from the workload seed, so one seed
//! always produces the same inputs.

use resacc_service::loadgen::Zipf;
use resacc_service::splitmix64;
use std::time::Duration;

/// Graph size: the BA-20k graph (20 000 nodes, ~200k directed edges).
pub const NODES: usize = 20_000;
/// Barabási–Albert attachment count.
pub const ATTACH: usize = 5;
/// Top-k length of every query reply.
pub const K: usize = 10;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Dynamic-upgrade error budget of the `write-mix` server.
pub const WRITE_MIX_DYNAMIC_EPS: f64 = 0.05;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, uniform sources, server-derived seeds: every request
    /// runs the engine.
    ColdQuery,
    /// Open loop at a fixed Poisson rate, Zipf over 64 pinned
    /// (source, seed) pairs, cache warmed: nearly every request hits.
    HotRead,
    /// Open loop of Zipf reads over 256 pinned pairs plus single-edge
    /// inserts, on a durable server with dynamic cache upgrades.
    WriteMix,
    /// The `hot-read` stream sent through `rwr router`.
    RouterRead,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdQuery,
        Workload::HotRead,
        Workload::WriteMix,
        Workload::RouterRead,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdQuery => "cold-query",
            Workload::HotRead => "hot-read",
            Workload::WriteMix => "write-mix",
            Workload::RouterRead => "router-read",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads driven on an arrival schedule.
    pub fn open_loop(self) -> bool {
        self != Workload::ColdQuery
    }

    /// True when requests go through `rwr router`.
    pub fn via_router(self) -> bool {
        self == Workload::RouterRead
    }

    /// True when the workload itself sends writes in the timed window.
    pub fn writes(self) -> bool {
        self == Workload::WriteMix
    }

    /// Extra `rwr serve` flags beyond `--graph`, `--listen`, `--workers`.
    pub fn serve_flags(self, data_dir: &str) -> Vec<String> {
        match self {
            Workload::WriteMix => vec![
                "--data-dir".into(),
                data_dir.into(),
                "--dynamic-eps".into(),
                WRITE_MIX_DYNAMIC_EPS.to_string(),
            ],
            _ => Vec::new(),
        }
    }
}

/// What one request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A `query`; `seed: None` lets the server derive it from the id.
    Query {
        /// Source node.
        source: u32,
        /// Pinned seed, if any.
        seed: Option<u64>,
        /// Ask for the full score vector.
        full: bool,
    },
    /// An `insert_edges` write.
    Insert {
        /// Directed edges to add.
        edges: Vec<(u32, u32)>,
    },
}

/// One request of a stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Unique request id.
    pub id: u64,
    /// Offset from the window start at which an open loop sends it.
    pub due: Duration,
    /// The operation.
    pub op: Op,
}

impl Req {
    /// The NDJSON request line.
    pub fn line(&self) -> String {
        match &self.op {
            Op::Query { source, seed, full } => {
                let mut s = format!(
                    r#"{{"id":{},"op":"query","source":{source},"k":{K}"#,
                    self.id
                );
                if let Some(seed) = seed {
                    s.push_str(&format!(r#","seed":{seed}"#));
                }
                if *full {
                    s.push_str(r#","full":true"#);
                }
                s.push('}');
                s
            }
            Op::Insert { edges } => {
                let list: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
                format!(
                    r#"{{"id":{},"op":"insert_edges","edges":[{}]}}"#,
                    self.id,
                    list.join(",")
                )
            }
        }
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self.op, Op::Insert { .. })
    }

    /// The engine seed the server uses for this query.
    pub fn effective_seed(&self) -> Option<u64> {
        match self.op {
            Op::Query { seed, .. } => Some(seed.unwrap_or_else(|| splitmix64(self.id))),
            Op::Insert { .. } => None,
        }
    }
}

/// A deterministic splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and a purpose tag, so streams do not overlap.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Open-loop shapes.
struct Rates {
    /// Reads per second, in total.
    reads: f64,
    /// Distinct pinned (source, seed) pairs the reads draw from.
    keys: usize,
    /// Writes per second, in total.
    writes: f64,
}

fn rates(workload: Workload) -> Rates {
    match workload {
        Workload::ColdQuery => Rates {
            reads: 0.0,
            keys: 0,
            writes: 0.0,
        },
        Workload::HotRead | Workload::RouterRead => Rates {
            reads: 1500.0,
            keys: 64,
            writes: 0.0,
        },
        Workload::WriteMix => Rates {
            reads: 135.0,
            keys: 256,
            writes: 15.0,
        },
    }
}

/// The request streams of one run.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Pinned (source, seed) pairs, hottest first (empty for `cold-query`).
    pub keys: Vec<(u32, u64)>,
    /// Untimed warm-up requests, sent closed-loop before the window.
    pub warm: Vec<Req>,
    /// The timed window's requests, per connection. Open loop: sent at
    /// their `due`. Closed loop: sent back to back until the window ends.
    pub conns: [Vec<Req>; 2],
    /// The next unused request id.
    pub next_id: u64,
    /// The workload seed the streams were generated from.
    pub seed: u64,
}

impl Plan {
    /// Builds the streams for `workload` under `seed` and a window of
    /// `window`.
    pub fn new(workload: Workload, seed: u64, window: Duration) -> Plan {
        let mut next_id = 1u64;
        let mut id = || {
            let v = next_id;
            next_id += 1;
            v
        };
        let shape = rates(workload);
        let mut key_rng = Rng::new(seed, 1);
        let mut keys: Vec<(u32, u64)> = Vec::with_capacity(shape.keys);
        while keys.len() < shape.keys {
            let source = key_rng.below(NODES as u64) as u32;
            if keys.iter().all(|&(s, _)| s != source) {
                keys.push((source, key_rng.next_u64()));
            }
        }
        let query = |(source, seed): (u32, u64)| Op::Query {
            source,
            seed: Some(seed),
            full: false,
        };

        let mut warm = Vec::new();
        let mut conns: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
        if workload.open_loop() {
            for &key in &keys {
                warm.push(Req {
                    id: id(),
                    due: Duration::ZERO,
                    op: query(key),
                });
            }
            let zipf = Zipf::new(keys.len() as u32, 1.0);
            // Reads: write-mix sends them on connection 0 only (writes own
            // connection 1); the read-only workloads split them evenly.
            let read_conns: &[usize] = if workload.writes() { &[0] } else { &[0, 1] };
            let per_conn = shape.reads / read_conns.len() as f64;
            for &c in read_conns {
                let mut rng = Rng::new(seed, 10 + c as u64);
                let mut at = rng.gap(per_conn);
                while at < window {
                    let key = keys[zipf.sample(rng.unit()) as usize];
                    conns[c].push(Req {
                        id: 0,
                        due: at,
                        op: query(key),
                    });
                    at += rng.gap(per_conn);
                }
            }
            if shape.writes > 0.0 {
                let mut rng = Rng::new(seed, 20);
                let mut at = rng.gap(shape.writes);
                while at < window {
                    conns[1].push(Req {
                        id: 0,
                        due: at,
                        op: Op::Insert {
                            edges: vec![random_edge(&mut rng)],
                        },
                    });
                    at += rng.gap(shape.writes);
                }
            }
        } else {
            let mut rng = Rng::new(seed, 30);
            let cold = |rng: &mut Rng, id: u64| Req {
                id,
                due: Duration::ZERO,
                op: Op::Query {
                    source: rng.below(NODES as u64) as u32,
                    seed: None,
                    full: false,
                },
            };
            for _ in 0..2 * WORKERS * 4 {
                warm.push(cold(&mut rng, id()));
            }
            // Far more than the engine can answer in the window (it runs
            // ~100 queries/s on two cores); the driver stops at the window.
            let cap = (window.as_secs_f64() * 1000.0).ceil() as usize + 100;
            for i in 0..2 * cap {
                conns[i % 2].push(cold(&mut rng, 0));
            }
        }
        // Ids in send order per connection, interleaved by due time so the
        // stream reads in the order an observer of both connections sees.
        let mut order: Vec<(Duration, usize, usize)> = conns
            .iter()
            .enumerate()
            .flat_map(|(c, reqs)| reqs.iter().enumerate().map(move |(i, r)| (r.due, c, i)))
            .collect();
        order.sort();
        for (_, c, i) in order {
            conns[c][i].id = id();
        }
        Plan {
            workload,
            keys,
            warm,
            conns,
            next_id,
            seed,
        }
    }

    /// Takes the next unused request id.
    pub fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// `n` single-edge inserts for the write probe that follows the window
    /// of the read-only workloads.
    pub fn probe_writes(&mut self, n: usize) -> Vec<Req> {
        self.probe_edges(n)
            .into_iter()
            .map(|e| Req {
                id: self.take_id(),
                due: Duration::ZERO,
                op: Op::Insert { edges: vec![e] },
            })
            .collect()
    }

    /// The edges of [`Plan::probe_writes`], one per write.
    pub fn probe_edges(&self, n: usize) -> Vec<(u32, u32)> {
        let mut rng = Rng::new(self.seed, 40);
        (0..n).map(|_| random_edge(&mut rng)).collect()
    }

    /// `n` full-vector queries for the accuracy check: the hottest pinned
    /// pairs, or fresh uniform sources with server-derived seeds.
    pub fn accuracy_queries(&mut self, n: usize) -> Vec<Req> {
        let mut rng = Rng::new(self.seed, 50);
        (0..n)
            .map(|i| {
                let op = match self.keys.get(i) {
                    Some(&(source, seed)) => Op::Query {
                        source,
                        seed: Some(seed),
                        full: true,
                    },
                    None => Op::Query {
                        source: rng.below(NODES as u64) as u32,
                        seed: None,
                        full: true,
                    },
                };
                Req {
                    id: self.take_id(),
                    due: Duration::ZERO,
                    op,
                }
            })
            .collect()
    }
}

/// One random directed edge between distinct nodes.
fn random_edge(rng: &mut Rng) -> (u32, u32) {
    let u = rng.below(NODES as u64);
    let v = (u + 1 + rng.below(NODES as u64 - 1)) % NODES as u64;
    (u as u32, v as u32)
}
