//! `gateway_closed`: the HTTP admission frontend over loopback.
//!
//! Two keep-alive connections, each a closed loop (the API is a blocking
//! invoke), so only two invocations are ever resident: the cluster behind
//! the gateway idles and the HTTP/admission path — parse, tenant, token
//! bucket, quota, gate, wire, socket — is the whole cost. The harness brings
//! its own client: one `write_all` per request on a `TCP_NODELAY` socket, so
//! whatever delay remains is the server's.

use crate::drills;
use crate::json::Json;
use crate::live::{self, Phase, SPANS_KEPT};
use crate::outcome::{span, EndToEnd, Outcome, SETUP_REPEATS};
use crate::proc::{self, Usage};
use crate::stats::Sorted;
use libra_gateway::wire;
use libra_gateway::{Gateway, GatewayConfig};
use libra_live::LiveRequest;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const NODES: usize = 4;
/// Each invocation's work at full demand, in milliseconds.
const WORK_MS: u64 = 2;
/// Closed-loop connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// Requests per connection before anything is measured.
const WARMUP_REQUESTS: u64 = 20;
/// `peak_rss_mb` is read when the first connection has this many replies in
/// the window (or at its end): at a fixed amount of work, for the reason
/// given at `live::RSS_MARK`.
const RSS_MARK: u64 = 250;
/// A reply that takes longer than this is a failure, not a sample.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP reply with the instants the client observed.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: Vec<u8>,
    first_byte: Instant,
    done: Instant,
}

/// Read one `Content-Length`-framed HTTP/1.1 response off `stream`. `buf`
/// carries bytes read past the end of a response over to the next call.
fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<Reply, String> {
    let mut first_byte = None;
    let mut chunk = [0u8; 4096];
    let mut fill = |buf: &mut Vec<u8>| -> Result<(), String> {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        Ok(())
    };
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(buf)?;
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not utf-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.split(' ').next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response without Content-Length")?;
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        fill(buf)?;
    }
    let body = buf[body_start..body_start + length].to_vec();
    buf.drain(..body_start + length);
    let done = Instant::now();
    Ok(Reply { status, body, first_byte: first_byte.unwrap_or(done), done })
}

/// One keep-alive connection to the gateway.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
        Ok(Client { stream, buf: Vec::new() })
    }

    /// Send `message` in one write and read the reply; also returns the
    /// instants before and after the write.
    fn round_trip(&mut self, message: &[u8]) -> Result<(Instant, Instant, Reply), String> {
        let start = Instant::now();
        self.stream.write_all(message).map_err(|e| format!("write: {e}"))?;
        let sent = Instant::now();
        let reply = read_response(&mut self.stream, &mut self.buf)?;
        Ok((start, sent, reply))
    }
}

/// The `POST /invoke` message for invocation `idx` of `req`.
pub fn invoke_message(idx: usize, req: &LiveRequest) -> Vec<u8> {
    let body = wire::encode_invoke(idx, req);
    format!(
        "POST /invoke/default/{} HTTP/1.1\r\nHost: libra-gateway\r\nContent-Length: {}\r\n\r\n{body}",
        req.func,
        body.len()
    )
    .into_bytes()
}

/// What one connection saw in one phase. Times in milliseconds.
#[derive(Debug, Default)]
struct PhaseResult {
    window_s: f64,
    completions: u64,
    failed: u64,
    round_trip_ms: Vec<f64>,
    /// Round trip minus the latency the cluster reported: time the request
    /// spent outside the cluster.
    overhead_ms: Vec<f64>,
    send_us: Vec<f64>,
    first_byte_us: Vec<f64>,
    read_us: Vec<f64>,
    /// Replies by status: 200, 429, 503, anything else.
    status: [u64; 4],
    usage: Usage,
    /// `VmHWM` at the connection's [`RSS_MARK`]th reply.
    rss_at_mark_mb: Option<f64>,
    spans: Vec<Json>,
}

impl PhaseResult {
    /// Fold another connection's view of the same phase into this one; the
    /// process-wide readings (`usage`, `rss_at_mark_mb`) stay the first's.
    fn merge(mut self, other: PhaseResult) -> PhaseResult {
        self.window_s = self.window_s.max(other.window_s);
        self.completions += other.completions;
        self.failed += other.failed;
        self.round_trip_ms.extend(other.round_trip_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.send_us.extend(other.send_us);
        self.first_byte_us.extend(other.first_byte_us);
        self.read_us.extend(other.read_us);
        for (mine, theirs) in self.status.iter_mut().zip(other.status) {
            *mine += theirs;
        }
        self.spans.extend(other.spans);
        self
    }

    fn inv_per_s(&self) -> f64 {
        self.completions as f64 / self.window_s
    }

    /// Account one reply to invocation `idx`; `spans_from` is the phase
    /// start when per-request spans are being kept.
    fn record(
        &mut self,
        idx: usize,
        start: Instant,
        written: Instant,
        reply: &Reply,
        spans_from: Option<Instant>,
    ) {
        let slot = match reply.status {
            200 => 0,
            429 => 1,
            503 => 2,
            _ => 3,
        };
        self.status[slot] += 1;
        let record =
            std::str::from_utf8(&reply.body).ok().and_then(|b| wire::decode_record(b).ok());
        let Some(record) = record.filter(|rec| reply.status == 200 && rec.idx == idx as u64) else {
            self.failed += 1;
            return;
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let round_trip = ms(reply.done - start);
        self.completions += 1;
        if self.completions == RSS_MARK {
            self.rss_at_mark_mb = proc::peak_rss_mb().ok();
        }
        self.round_trip_ms.push(round_trip);
        self.overhead_ms.push(round_trip - record.latency_us as f64 / 1e3);
        self.send_us.push(ms(written - start) * 1e3);
        self.first_byte_us.push(ms(reply.first_byte - written) * 1e3);
        self.read_us.push(ms(reply.done - reply.first_byte) * 1e3);
        let Some(origin) = spans_from.filter(|_| self.spans.len() < 4 * SPANS_KEPT / CONNECTIONS)
        else {
            return;
        };
        let us = |t: Instant| (t - origin).as_secs_f64() * 1e6;
        let id = 4 * idx as u64 + 1;
        let (first_byte, end) = (us(reply.first_byte), us(reply.done));
        self.spans.push(span(id, Some(0), "request", us(start), end));
        self.spans.push(span(id + 1, Some(id), "send", us(start), us(written)));
        self.spans.push(span(id + 2, Some(id), "await first byte", us(written), first_byte));
        self.spans.push(span(id + 3, Some(id), "read reply", first_byte, end));
    }
}

/// One connection's closed loop over `phases`, the first of which is the
/// warm-up. Connection `lane` of [`CONNECTIONS`] uses invocation ids
/// `first_idx + lane`, `+ CONNECTIONS` apart, so ids are unique across
/// connections and across calls. A transport error ends the loop.
fn client_loop(
    addr: SocketAddr,
    requests: &[LiveRequest],
    first_idx: usize,
    lane: usize,
    phases: &[Phase],
    warmed: &Barrier,
) -> Result<(Vec<PhaseResult>, String), String> {
    // Whatever happens, this thread meets the others at the barrier exactly
    // once, or they would wait for it forever.
    let mut at_barrier = false;
    let outcome = (|| {
        let mut client = Client::connect(addr)?;
        let mut results = Vec::new();
        let mut sent = 0usize;
        for (phase_no, phase) in phases.iter().enumerate() {
            let mut r = PhaseResult::default();
            let started = Instant::now();
            let usage_before = proc::usage();
            while !phase.done(r.completions + r.failed, started) {
                let idx = first_idx + lane + sent * CONNECTIONS;
                sent += 1;
                let message = invoke_message(idx, &requests[idx % requests.len()]);
                let (start, written, reply) = client.round_trip(&message)?;
                r.record(idx, start, written, &reply, phase.traced.then_some(started));
            }
            r.window_s = started.elapsed().as_secs_f64();
            r.usage = proc::usage().since(&usage_before);
            results.push(r);
            if phase_no == 0 {
                warmed.wait();
                at_barrier = true;
            }
        }
        // The first connection scrapes the metrics page once all is sent.
        let scrape = if lane == 0 {
            let get = b"GET /metrics HTTP/1.1\r\nHost: libra-gateway\r\nContent-Length: 0\r\n\r\n";
            let (_, _, reply) = client.round_trip(get)?;
            String::from_utf8(reply.body).map_err(|_| "metrics page is not utf-8".to_string())?
        } else {
            String::new()
        };
        Ok((results, scrape))
    })();
    if !at_barrier {
        warmed.wait();
    }
    outcome
}

/// What a whole client session saw: per phase, all connections merged.
struct Session {
    phases: Vec<PhaseResult>,
    scrape: String,
    /// Instant at which every connection had finished warming up.
    warmed_at: Instant,
    requests_sent: usize,
}

/// Run `phases` on [`CONNECTIONS`] connections at once. The first phase is
/// the warm-up.
fn session(
    addr: SocketAddr,
    requests: &[LiveRequest],
    first_idx: usize,
    phases: &[Phase],
) -> Result<Session, String> {
    let warmed = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                let warmed = &warmed;
                scope.spawn(move || client_loop(addr, requests, first_idx, lane, phases, warmed))
            })
            .collect();
        warmed.wait();
        let warmed_at = Instant::now();
        let mut merged: Vec<PhaseResult> = Vec::new();
        let mut scrape = String::new();
        for lane in lanes {
            let (results, page) =
                lane.join().map_err(|_| "client thread panicked".to_string())??;
            scrape.push_str(&page);
            merged = if merged.is_empty() {
                results
            } else {
                merged.into_iter().zip(results).map(|(a, b)| a.merge(b)).collect()
            };
        }
        let requests_sent =
            merged.iter().map(|p| (p.completions + p.failed) as usize).sum::<usize>();
        Ok(Session { phases: merged, scrape, warmed_at, requests_sent })
    })
}

/// A counter off the Prometheus text page, e.g.
/// `libra_gateway_stage_micros_total{stage="frontend"}`.
fn scraped(page: &str, series: &str) -> Option<f64> {
    page.lines().find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
}

/// A started gateway plus how long starting it took.
fn start_gateway() -> Result<(Gateway, f64), String> {
    let started = Instant::now();
    let gateway =
        Gateway::start(GatewayConfig { live: live::config(NODES), ..GatewayConfig::default() })
            .map_err(|e| format!("Gateway::start: {e}"))?;
    Ok((gateway, started.elapsed().as_secs_f64()))
}

/// Shut the gateway down and run the post-drain checks. Returns the time
/// `shutdown` took.
fn shut_down(gateway: Gateway, out: &mut Outcome) -> f64 {
    // `shutdown` consumes the gateway, so the ledger is checked just before
    // it, once the last reply's release has reached the scheduler shards.
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut conservation = gateway.conservation_report();
    while conservation.is_err() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        conservation = gateway.conservation_report();
    }
    let started = Instant::now();
    let report = gateway.shutdown();
    let shutdown_s = started.elapsed().as_secs_f64();
    out.errors.extend(live::check_drained(&report.live, conservation));
    shutdown_s
}

/// Measured phases after a warm-up, on a freshly started gateway; the
/// set-up (a second each) is done [`SETUP_REPEATS`] times when `repeat_setup`.
struct Run {
    session: Session,
    /// Fastest set-up (see `outcome::repeat_setup` for why the fastest).
    setup_s: f64,
    start_s: f64,
    shutdown_s: f64,
    peak_rss_mb: Result<f64, String>,
}

fn run(
    seed: u64,
    measured: &[Phase],
    repeat_setup: bool,
    out: &mut Outcome,
) -> Result<Run, String> {
    let mut setup_s = f64::INFINITY;
    let mut first_idx = 0;
    let warmup = Phase::warmup(WARMUP_REQUESTS);
    let repeats = if repeat_setup { SETUP_REPEATS } else { 1 };
    for repeat in 0..repeats {
        let started = Instant::now();
        let requests = live::requests(seed, WORK_MS);
        let (gateway, start_s) = start_gateway()?;
        let last = repeat + 1 == repeats;
        let mut phases = vec![warmup];
        if last {
            phases.extend_from_slice(measured);
        }
        let session = session(gateway.local_addr(), &requests, first_idx, &phases);
        let rss_now = proc::peak_rss_mb();
        let shutdown_s = shut_down(gateway, out);
        let session = session?;
        let peak_rss_mb = session.phases.get(1).and_then(|p| p.rss_at_mark_mb).map_or(rss_now, Ok);
        first_idx += session.requests_sent;
        out.attempted += session.requests_sent as u64;
        out.failed += session.phases.iter().map(|p| p.failed).sum::<u64>();
        setup_s = setup_s.min((session.warmed_at - started).as_secs_f64());
        if last {
            return Ok(Run { session, setup_s, start_s, shutdown_s, peak_rss_mb });
        }
    }
    unreachable!("the last repeat returns")
}

/// `--trace 0`.
pub fn run_end_to_end(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let run = match run(seed, &[Phase::measure(seconds, false)], true, &mut out) {
        Ok(run) => run,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let window = &run.session.phases[1];
    let latencies = Sorted::new(window.round_trip_ms.clone());
    match (latencies.percentile(50.0), latencies.percentile(95.0), run.peak_rss_mb) {
        (Ok(lat_p50_ms), Ok(lat_p95_ms), Ok(peak_rss_mb)) => EndToEnd {
            setup_s: run.setup_s,
            inv_per_s: window.inv_per_s(),
            lat_p50_ms,
            lat_p95_ms,
            peak_rss_mb,
        }
        .record(&mut out),
        (p50, p95, rss) => {
            out.errors.extend([p50.err(), p95.err(), rss.err()].into_iter().flatten())
        }
    }
    eprintln!(
        "[gateway_closed] {} replies in {:.2}s on {CONNECTIONS} connections, round trip over {} samples{}",
        window.completions,
        window.window_s,
        latencies.len(),
        latencies.highest_tail().map_or(String::new(), |(p, v)| format!(", p{p} {v:.3} ms")),
    );
    out
}

/// `--trace 1`: half the window plain, half keeping per-request spans.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let measured = [Phase::measure(seconds / 2, false), Phase::measure(seconds / 2, true)];
    let mut run = match run(seed, &measured, false, &mut out) {
        Ok(run) => run,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut traced = run.session.phases.remove(2);
    let plain = run.session.phases.remove(1);
    let completions = traced.completions.max(1) as f64;
    let p50 = |samples: &[f64]| Sorted::new(samples.to_vec()).percentile(50.0).unwrap_or(0.0);

    out.set("gateway.start_s", run.start_s);
    out.set("gateway.shutdown_s", run.shutdown_s);
    out.set("gateway.send_us_p50", p50(&traced.send_us));
    out.set("gateway.first_byte_us_p50", p50(&traced.first_byte_us));
    out.set("gateway.read_us_p50", p50(&traced.read_us));
    // The page counts from gateway start, warm-up included; so does the
    // `completed` count it is divided by.
    let page = &run.session.scrape;
    let served =
        scraped(page, "libra_gateway_requests_total{tenant=\"default\",outcome=\"completed\"}");
    for (stage, metric) in [("frontend", "frontend"), ("scheduler", "sched"), ("exec", "exec")] {
        let total =
            scraped(page, &format!("libra_gateway_stage_micros_total{{stage=\"{stage}\"}}"));
        match (total, served) {
            (Some(total), Some(served)) if served > 0.0 => {
                out.set(format!("gateway.{metric}_us_per_req"), total / served)
            }
            _ => out.errors.push(format!("/metrics has no {stage} stage total or completed count")),
        }
    }
    for (slot, name) in ["200", "429", "503", "other"].into_iter().enumerate() {
        out.set(format!("gateway.status_{name}"), traced.status[slot] as f64);
    }
    out.set("gateway.cpu_ms_per_req", traced.usage.cpu_s * 1e3 / completions);
    let overhead = Sorted::new(traced.overhead_ms.clone());
    match (overhead.percentile(50.0), overhead.percentile(95.0)) {
        (Ok(p50), Ok(p95)) => {
            out.set("gateway.overhead_p50_ms", p50);
            out.set("gateway.overhead_p95_ms", p95);
        }
        (p50, p95) => out.errors.extend([p50.err(), p95.err()].into_iter().flatten()),
    }
    out.set("http.parse_request_ns", drills::http_parse_request_ns());
    out.set("wire.decode_invoke_ns", drills::wire_decode_invoke_ns());
    out.set("wire.encode_record_ns", drills::wire_encode_record_ns());
    out.set("tenant.try_admit_ns", drills::tenant_try_admit_ns());
    out.set("gate.try_enter_ns", drills::gate_try_enter_ns());
    out.set("trace.overhead_frac", plain.inv_per_s() / traced.inv_per_s() - 1.0);

    let mut spans = vec![span(0, None, "closed loop (traced half)", 0.0, traced.window_s * 1e6)];
    spans.append(&mut traced.spans);
    out.trace = Some(Json::obj([
        ("workload", Json::str("gateway_closed")),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(spans)),
    ]));
    eprintln!(
        "[gateway_closed] plain {:.1} req/s, traced {:.1} req/s over {} replies",
        plain.inv_per_s(),
        traced.inv_per_s(),
        traced.completions
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves its bytes a few at a time, the way a socket may.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(self.data.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const TWO: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\ncontent-length: 11\r\n\r\nidx=7\nlat=3\
        HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";

    #[test]
    fn response_reader_reassembles_split_reads() {
        for step in [1, 2, 3, 7, 64, 4096] {
            let mut stream = Trickle { data: TWO, step };
            let mut buf = Vec::new();
            let first = read_response(&mut stream, &mut buf).expect("first response");
            assert_eq!(
                (first.status, first.body.as_slice()),
                (200, &b"idx=7\nlat=3"[..]),
                "step {step}"
            );
            assert!(first.first_byte <= first.done);
            let second = read_response(&mut stream, &mut buf).expect("second response");
            assert_eq!((second.status, second.body.len()), (429, 0), "step {step}");
            assert!(buf.is_empty(), "step {step}: nothing may be left over");
        }
    }

    #[test]
    fn response_reader_reports_truncation_and_bad_framing() {
        let cut = &TWO[..40];
        let err = read_response(&mut Trickle { data: cut, step: 5 }, &mut Vec::new()).unwrap_err();
        assert!(err.contains("closed"), "{err}");
        let unframed = b"HTTP/1.1 200 OK\r\nX: y\r\n\r\nbody";
        let err =
            read_response(&mut Trickle { data: unframed, step: 9 }, &mut Vec::new()).unwrap_err();
        assert!(err.contains("Content-Length"), "{err}");
        let garbage = b"SPDY/9 yes\r\n\r\n";
        assert!(read_response(&mut Trickle { data: garbage, step: 9 }, &mut Vec::new()).is_err());
    }

    #[test]
    fn scraped_reads_one_series_off_the_page() {
        let page = "# TYPE x counter\nlibra_gateway_stage_micros_total{stage=\"frontend\"} 1234\n\
                    libra_gateway_stage_micros_total{stage=\"exec\"} 99\n";
        assert_eq!(scraped(page, "libra_gateway_stage_micros_total{stage=\"exec\"}"), Some(99.0));
        assert_eq!(scraped(page, "libra_gateway_stage_micros_total{stage=\"sched\"}"), None);
    }
}
