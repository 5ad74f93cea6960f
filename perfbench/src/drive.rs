//! The benchmark's own load driver: open loop (requests sent on a schedule,
//! timed from when they were due) and closed loop (each connection sends
//! its next request when the previous reply arrives). Both keep one raw
//! sample per request; quantiles come from [`crate::stats`].

use crate::plan::Req;
use crate::wire::Client;
use resacc_service::json::Json;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long the driver waits for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(20);

/// The outcome of one request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Request id.
    pub id: u64,
    /// True for writes.
    pub write: bool,
    /// Client-side latency in ms: from due time (open loop) or send time
    /// (closed loop) to the reply.
    pub latency_ms: f64,
    /// How late the request was sent after its due time, in ms (0 for
    /// closed loop).
    pub late_ms: f64,
    /// True for an `"ok":true` reply with the request's id.
    pub ok: bool,
    /// The server's own queue-to-reply time, for queries (ns).
    pub server_ns: Option<u64>,
    /// The reply's `cached` flag.
    pub cached: bool,
    /// The reply's graph version.
    pub version: Option<u64>,
    /// When the reply arrived, relative to the window start.
    pub done_at: Duration,
    /// The parsed reply, kept for the first few queries of a connection so
    /// the checks can compare them.
    pub reply: Option<Json>,
}

/// Everything one connection's driver observed.
#[derive(Default)]
pub struct ConnRun {
    /// One entry per request sent, in send order.
    pub samples: Vec<Sample>,
    /// Requests that never got a reply.
    pub unanswered: usize,
}

/// Longest sleep of the open loop while a send is less than 2 ms away.
const SLICE: Duration = Duration::from_micros(100);

/// How many leading query replies per connection are kept whole.
pub const KEEP_REPLIES: usize = 3;

fn record(
    req: &Req,
    reply: &str,
    due: Instant,
    late_ms: f64,
    start: Instant,
    keep: bool,
) -> Sample {
    let now = Instant::now();
    let parsed = Json::parse(reply).ok();
    let field = |k: &str| parsed.as_ref().and_then(|j| j.get(k));
    let ok = field("ok").and_then(Json::as_bool) == Some(true)
        && field("id").and_then(Json::as_u64) == Some(req.id);
    Sample {
        id: req.id,
        write: req.is_write(),
        latency_ms: now.duration_since(due).as_secs_f64() * 1e3,
        late_ms,
        ok,
        server_ns: field("latency_ns").and_then(Json::as_u64),
        cached: field("cached").and_then(Json::as_bool) == Some(true),
        version: field("version").and_then(Json::as_u64),
        done_at: now.duration_since(start),
        reply: if keep { parsed } else { None },
    }
}

/// Sends `reqs` on `client` at `start + req.due`, reading replies while
/// waiting for the next due time.
///
/// Waits of a millisecond or more block in `epoll` (woken by a reply);
/// shorter ones sleep in slices of [`SLICE`], because socket read
/// timeouts round up to whole scheduler ticks and would make the
/// generator late.
///
/// `tick` is called on every pass of the loop, for readings the caller
/// takes at its own pace.
pub fn open_loop(
    client: &mut Client,
    reqs: &[Req],
    start: Instant,
    tick: &mut dyn FnMut(Instant),
) -> Result<ConnRun, String> {
    let poll = mio::Poll::new().map_err(|e| format!("epoll: {e}"))?;
    poll.register(client.stream(), mio::Token(0), mio::Interest::READABLE)
        .map_err(|e| format!("epoll register: {e}"))?;
    let mut events = mio::Events::with_capacity(4);
    client.set_nonblocking(true)?;
    let mut run = ConnRun::default();
    let mut pending: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut next = 0usize;
    let mut kept = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        tick(now);
        while next < reqs.len() && start + reqs[next].due <= now {
            let due = start + reqs[next].due;
            client.send(&reqs[next].line())?;
            let late = Instant::now().duration_since(due).as_secs_f64() * 1e3;
            pending.push_back((next, due, late));
            next += 1;
        }
        while let Some(line) = client.try_recv()? {
            let (i, due, late) = pending
                .pop_front()
                .ok_or_else(|| format!("unsolicited reply {line:?}"))?;
            let keep = !reqs[i].is_write() && kept < KEEP_REPLIES;
            kept += keep as usize;
            run.samples
                .push(record(&reqs[i], &line, due, late, start, keep));
        }
        if pending.is_empty() && next == reqs.len() {
            break;
        }
        let now = Instant::now();
        let wake = if next < reqs.len() {
            start + reqs[next].due
        } else {
            *drain_deadline.get_or_insert(now + DRAIN)
        };
        if next == reqs.len() && now >= wake {
            break;
        }
        let wait = wake.saturating_duration_since(now);
        if wait >= Duration::from_millis(2) {
            let whole_ms = Duration::from_millis(wait.as_millis() as u64 - 1);
            poll.poll(&mut events, Some(whole_ms))
                .map_err(|e| format!("epoll wait: {e}"))?;
        } else if !wait.is_zero() {
            std::thread::sleep(wait.min(SLICE));
        }
    }
    client.set_nonblocking(false)?;
    run.unanswered = pending.len();
    Ok(run)
}

/// Sends `reqs` one at a time, each after the previous reply, until
/// `start + window` passes (the request in flight then still completes).
/// `tick` is called before every request.
pub fn closed_loop(
    client: &mut Client,
    reqs: &[Req],
    start: Instant,
    window: Duration,
    tick: &mut dyn FnMut(Instant),
) -> Result<ConnRun, String> {
    let mut run = ConnRun::default();
    for (i, req) in reqs.iter().enumerate() {
        let now = Instant::now();
        tick(now);
        if now.duration_since(start) >= window {
            return Ok(run);
        }
        let sent = Instant::now();
        client.send(&req.line())?;
        match client.recv_within(DRAIN)? {
            Some(line) => run
                .samples
                .push(record(req, &line, sent, 0.0, start, i < KEEP_REPLIES)),
            None => {
                run.unanswered += 1;
                return Ok(run);
            }
        }
    }
    Err(format!(
        "closed loop ran out of its {} planned requests",
        reqs.len()
    ))
}

/// Sends `reqs` sequentially on one connection (warm-up, probes, checks),
/// keeping every reply; completion times count from `start`. `tick` is
/// called before every request.
pub fn sequential(
    client: &mut Client,
    reqs: &[Req],
    start: Instant,
    tick: &mut dyn FnMut(Instant),
) -> Result<ConnRun, String> {
    let mut run = ConnRun::default();
    for req in reqs {
        let sent = Instant::now();
        tick(sent);
        client.send(&req.line())?;
        let line = client.recv()?;
        run.samples.push(record(req, &line, sent, 0.0, start, true));
    }
    Ok(run)
}
