//! The gateway server: a bounded-worker-pool HTTP/1.1 frontend over a
//! [`LiveCluster`].
//!
//! Request lifecycle (`POST /invoke/{tenant}/{function}`):
//!
//! ```text
//! parse ──► tenant lookup ──► drain check ──► token bucket ──► quota ledger
//!   │404 unknown tenant        │503            │429+Retry-After  │429
//!   │400 malformed                                               ▼
//!   ◄──────────── 200 + record ◄── completion ◄── submit ◄── admission gate
//!                                                  │503+X-Queue-Depth when full
//! ```
//!
//! The tenant permit and gate slot are held for the invocation's whole
//! residence (dropped when the response is written), so quotas bound
//! *in-flight* work, not just request rate. Graceful shutdown stops
//! accepting, lets workers flush their in-flight requests, then drains the
//! cluster through the control plane ([`LiveCluster::shutdown`]).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the socket half of the gateway: deadlines, uptime and latency stamps read the host clock; every admission decision takes its `now_us` as an argument"
)]

use crate::backpressure::AdmissionGate;
use crate::http::{Conn, RecvError, Request, Response};
use crate::metrics::{render, GatewayCounters};
use crate::tenant::{AdmitError, TenantQuota, TenantRegistry, TenantState};
use crate::wire;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use libra_live::cluster::{LiveCluster, LiveConfig, LiveResult, SubmitError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back with
    /// [`Gateway::local_addr`]).
    pub addr: String,
    /// Worker threads. Each in-flight invocation occupies its worker until
    /// the completion record is written back, so this also bounds
    /// concurrently-served connections.
    pub workers: usize,
    /// Admission gate ceiling: invocations the gateway will hold against
    /// the cluster before shedding with 503.
    pub admission_capacity: usize,
    /// Deployed function-id range (`{function}` must be below this).
    pub max_funcs: usize,
    /// Tenant namespaces and their quotas.
    pub tenants: Vec<TenantQuota>,
    /// The live cluster under the gateway.
    pub live: LiveConfig,
    /// How long shutdown waits for in-flight invocations before the drain
    /// quiesces them through the control plane.
    pub drain_grace: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 32,
            admission_capacity: 256,
            max_funcs: 64,
            tenants: vec![TenantQuota::generous("default")],
            live: LiveConfig::default(),
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// What [`Gateway::shutdown`] hands back.
#[derive(Debug)]
pub struct GatewayReport {
    /// The drained cluster's full result (records, action traces, loan and
    /// safeguard statistics).
    pub live: LiveResult,
    /// A final render of the metrics page.
    pub metrics: String,
}

struct GatewayInner {
    cluster: LiveCluster,
    tenants: TenantRegistry,
    gate: AdmissionGate,
    counters: GatewayCounters,
    draining: AtomicBool,
    max_funcs: usize,
    t0: Instant,
}

/// A running gateway. Dropping it without [`Gateway::shutdown`] leaks the
/// listener thread; always shut down.
pub struct Gateway {
    inner: Arc<GatewayInner>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
    drain_grace: Duration,
}

impl Gateway {
    /// Bind, spawn the worker pool and start the cluster.
    pub fn start(config: GatewayConfig) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(GatewayInner {
            cluster: LiveCluster::start(config.live.clone(), config.max_funcs),
            tenants: TenantRegistry::new(config.tenants.clone()),
            gate: AdmissionGate::new(config.admission_capacity),
            counters: GatewayCounters::default(),
            draining: AtomicBool::new(false),
            max_funcs: config.max_funcs,
            t0: Instant::now(),
        });

        // Bounded connection queue: accepted-but-unserved connections wait
        // here; its depth rides on the worker pool size.
        let (conn_tx, conn_rx) = bounded::<TcpStream>(config.workers.max(1) * 2);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx: Receiver<TcpStream> = conn_rx.clone();
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Ok(stream) = rx.recv() {
                        serve_connection(&inner, stream);
                    }
                })
            })
            .collect();

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.draining.load(Ordering::SeqCst) {
                        return; // the wake-up connection is dropped unserved
                    }
                    let Ok(stream) = stream else { continue };
                    // Reads time out so keep-alive connections notice the
                    // drain instead of pinning their worker forever.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                    if conn_tx.send(stream).is_err() {
                        return;
                    }
                }
            })
        };

        Ok(Gateway { inner, acceptor, workers, local_addr, drain_grace: config.drain_grace })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, flush in-flight requests, drain
    /// the cluster through the control plane, and return the final report.
    ///
    /// # Panics
    ///
    /// Propagates the cluster watchdog's diagnostic panic if the run was
    /// declared wedged (see [`LiveCluster::shutdown`]).
    pub fn shutdown(self) -> GatewayReport {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `incoming()`.
        let _ = TcpStream::connect(self.local_addr);
        if let Err(payload) = self.acceptor.join() {
            std::panic::resume_unwind(payload);
        }
        // The acceptor owned the connection sender; once it is gone the
        // workers drain queued connections, flush their in-flight requests
        // and exit.
        for w in self.workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let live = self.inner.cluster.shutdown(self.drain_grace);
        let metrics = render(
            &self.inner.counters,
            &self.inner.tenants,
            &self.inner.gate,
            &self.inner.cluster.stats(),
            true,
        );
        GatewayReport { live, metrics }
    }

    /// Post-drain conservation check (testing hook); see
    /// [`LiveCluster::conservation_report`].
    pub fn conservation_report(&self) -> Result<(), String> {
        self.inner.cluster.conservation_report()
    }
}

/// Serve one connection's keep-alive request loop.
fn serve_connection(inner: &Arc<GatewayInner>, stream: TcpStream) {
    let mut conn = Conn::new(stream);
    loop {
        let req = match conn.recv_request() {
            Ok(req) => req,
            Err(RecvError::Closed) => return,
            Err(RecvError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive connection: linger unless draining.
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(RecvError::Io(_)) => return,
            Err(RecvError::Malformed(why)) => {
                inner.counters.http_400.fetch_add(1, Ordering::Relaxed);
                let _ =
                    conn.send_response(&Response::text(400, "Bad Request", &format!("{why}\n")));
                return;
            }
            Err(RecvError::TooLarge) => {
                inner.counters.http_413.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send_response(&Response::text(
                    413,
                    "Payload Too Large",
                    "message too large\n",
                ));
                return;
            }
        };
        let resp = route(inner, &req);
        if conn.send_response(&resp).is_err() {
            return;
        }
    }
}

fn route(inner: &Arc<GatewayInner>, req: &Request) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/metrics") => {
            let page = render(
                &inner.counters,
                &inner.tenants,
                &inner.gate,
                &inner.cluster.stats(),
                inner.draining.load(Ordering::SeqCst),
            );
            Response::text(200, "OK", &page)
                .with_header("Content-Type", "text/plain; version=0.0.4")
        }
        ("GET", "/healthz") => Response::text(200, "OK", "ok\n"),
        ("GET", "/trace") => match inner.cluster.trace_snapshot() {
            Some(trace) => Response::text(200, "OK", &trace.to_html())
                .with_header("Content-Type", "text/html; charset=utf-8"),
            None => Response::text(
                404,
                "Not Found",
                "tracing disabled (start the gateway with live.trace = true)\n",
            ),
        },
        ("POST", target) => match parse_invoke_target(target) {
            Some((tenant, func)) => invoke(inner, req, tenant, func),
            None => {
                inner.counters.http_404.fetch_add(1, Ordering::Relaxed);
                Response::text(404, "Not Found", "no such route\n")
            }
        },
        _ => {
            inner.counters.http_404.fetch_add(1, Ordering::Relaxed);
            Response::text(404, "Not Found", "no such route\n")
        }
    }
}

/// `/invoke/{tenant}/{function}` → `(tenant, function)`.
fn parse_invoke_target(target: &str) -> Option<(&str, u32)> {
    let rest = target.strip_prefix("/invoke/")?;
    let (tenant, func) = rest.split_once('/')?;
    if tenant.is_empty() || func.contains('/') {
        return None;
    }
    Some((tenant, func.parse().ok()?))
}

/// The admission pipeline for one invocation request.
fn invoke(inner: &Arc<GatewayInner>, req: &Request, tenant_name: &str, func: u32) -> Response {
    let frontend_start = Instant::now();
    // Cluster-timebase stamp for the frontend span (no-op unless tracing).
    let frontend_start_us = inner.cluster.now_us();
    let Some(tenant) = inner.tenants.get(tenant_name) else {
        inner.counters.http_404.fetch_add(1, Ordering::Relaxed);
        return Response::text(404, "Not Found", &format!("unknown tenant {tenant_name:?}\n"));
    };
    let tenant: Arc<TenantState> = Arc::clone(tenant);
    if inner.draining.load(Ordering::SeqCst) {
        inner.counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
        return Response::text(503, "Service Unavailable", "draining\n")
            .with_header("Connection", "close");
    }
    if func as usize >= inner.max_funcs {
        inner.counters.http_400.fetch_add(1, Ordering::Relaxed);
        return Response::text(
            400,
            "Bad Request",
            &format!("function {func} outside deployed range 0..{}\n", inner.max_funcs),
        );
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        inner.counters.http_400.fetch_add(1, Ordering::Relaxed);
        return Response::text(400, "Bad Request", "body is not utf-8\n");
    };
    let (idx, live_req) = match wire::decode_invoke(body, func) {
        Ok(parsed) => parsed,
        Err(why) => {
            inner.counters.http_400.fetch_add(1, Ordering::Relaxed);
            return Response::text(400, "Bad Request", &format!("bad body: {why}\n"));
        }
    };

    // Tenant-local admission: token bucket then quota ledger. The permit
    // holds the quota for the invocation's whole residence.
    let now_us = inner.t0.elapsed().as_micros() as u64;
    let permit = match tenant.try_admit(live_req.alloc.mem_mb, now_us) {
        Ok(p) => p,
        Err(AdmitError::RateLimited { retry_after_secs }) => {
            return Response::text(429, "Too Many Requests", "rate limit exceeded\n")
                .with_header("Retry-After", &retry_after_secs.to_string());
        }
        Err(AdmitError::Quota { denied, retry_after_secs }) => {
            return Response::text(429, "Too Many Requests", &format!("{denied}\n"))
                .with_header("Retry-After", &retry_after_secs.to_string());
        }
    };

    // Global backpressure: shed when the cluster already holds too much.
    let gate_permit = match inner.gate.try_enter() {
        Ok(p) => p,
        Err(depth) => {
            tenant.counters.rejected_backpressure.fetch_add(1, Ordering::Relaxed);
            return Response::text(503, "Service Unavailable", "admission queue full\n")
                .with_header("X-Queue-Depth", &depth.to_string())
                .with_header("Retry-After", "1");
        }
    };

    let rx = match inner.cluster.submit(idx, live_req) {
        Ok(rx) => rx,
        Err(SubmitError::Draining) => {
            inner.counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return Response::text(503, "Service Unavailable", "draining\n")
                .with_header("Connection", "close");
        }
        Err(e @ (SubmitError::FuncOutOfRange { .. } | SubmitError::IdxOutOfRange { .. })) => {
            inner.counters.http_400.fetch_add(1, Ordering::Relaxed);
            return Response::text(400, "Bad Request", &format!("{e}\n"));
        }
        // Invocation ids are unique while in flight; the cluster holds them.
        Err(e @ SubmitError::IdxInFlight { .. }) => {
            inner.counters.http_409.fetch_add(1, Ordering::Relaxed);
            return Response::text(409, "Conflict", &format!("{e}\n"));
        }
    };
    inner
        .counters
        .frontend_us
        .fetch_add(frontend_start.elapsed().as_micros() as u64, Ordering::Relaxed);
    inner.cluster.record_frontend_span(idx as u64, frontend_start_us, inner.cluster.now_us());

    // Wait for the completion record, watching for a wedged cluster. The
    // tenant and gate permits stay held until this returns.
    let record = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(r) => break r,
            Err(RecvTimeoutError::Timeout) => {
                if inner.cluster.is_expired() {
                    inner.counters.http_500.fetch_add(1, Ordering::Relaxed);
                    return Response::text(
                        500,
                        "Internal Server Error",
                        "cluster watchdog expired\n",
                    );
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The drain quiesced this invocation away before it finished.
                inner.counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
                return Response::text(503, "Service Unavailable", "drained\n")
                    .with_header("Connection", "close");
            }
        }
    };
    drop(gate_permit);
    // A completed invocation stamps its residence time into the ledger so
    // future quota denials can predict how long a slot takes to free up.
    permit.finish(inner.t0.elapsed().as_micros() as u64);

    tenant.counters.completed.fetch_add(1, Ordering::Relaxed);
    let sched_us = (record.sched_ms * 1e3) as u64;
    let exec_us = ((record.latency_ms - record.sched_ms).max(0.0) * 1e3) as u64;
    inner.counters.record_stages(sched_us, exec_us);
    let body = wire::encode_record(&wire::WireRecord {
        idx: record.idx as u64,
        latency_us: (record.latency_ms * 1e3) as u64,
        sched_us,
        accelerated: record.accelerated,
        harvested: record.harvested,
        safeguarded: record.safeguarded,
        oom_restarts: record.oom_restarts as u64,
    });
    Response::text(200, "OK", &body)
}
