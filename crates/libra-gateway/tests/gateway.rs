//! End-to-end gateway behavior over real loopback sockets: tenant
//! isolation under quota exhaustion, malformed-input robustness,
//! backpressure, and graceful drain.

use libra_gateway::client::{GatewayClient, InvokeOutcome};
use libra_gateway::server::{Gateway, GatewayConfig};
use libra_gateway::tenant::TenantQuota;
use libra_live::{LiveConfig, LiveRequest};
use libra_sim::resources::ResourceVec;
use std::io::{Read, Write};
use std::time::Duration;

fn live_cfg() -> LiveConfig {
    LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        quantum: Duration::from_millis(1),
        time_scale: 8.0,
        watchdog: Duration::from_secs(30),
        ..LiveConfig::default()
    }
}

/// A request that runs for roughly `wl_ms` workload milliseconds.
fn request(wl_ms: u64, mem_mb: u64) -> LiveRequest {
    LiveRequest {
        at_ms: 0,
        func: 0,
        alloc: ResourceVec::new(2_000, mem_mb),
        demand_cpu_millis: 2_000,
        demand_mem_mb: mem_mb / 2,
        mem_floor_mb: 64,
        work_mcore_ms: 2_000 * wl_ms,
        pred: None,
    }
}

fn start(tenants: Vec<TenantQuota>, admission_capacity: usize) -> Gateway {
    Gateway::start(GatewayConfig {
        workers: 8,
        admission_capacity,
        max_funcs: 4,
        tenants,
        live: live_cfg(),
        drain_grace: Duration::from_secs(20),
        ..GatewayConfig::default()
    })
    .expect("bind on loopback")
}

/// The acceptance scenario: one tenant exhausts its quota and gets 429s
/// while a donor tenant's invocations proceed unaffected.
#[test]
fn quota_exhaustion_does_not_starve_other_tenants() {
    let hog = TenantQuota {
        name: "hog".into(),
        rate_per_sec: 1_000,
        burst: 1_000,
        max_concurrency: 1,
        mem_quota_mb: 100_000,
    };
    let gw = start(vec![hog, TenantQuota::generous("donor")], 64);
    let addr = gw.local_addr();

    // Occupy the hog's single concurrency slot with a long invocation.
    let blocker = std::thread::spawn(move || {
        let mut c = GatewayClient::connect(addr).expect("connect");
        c.invoke("hog", 0, 0, &request(1_500, 1_024)).expect("transport")
    });
    std::thread::sleep(Duration::from_millis(40));

    // The hog's next requests bounce off the concurrency quota...
    let mut hog_client = GatewayClient::connect(addr).expect("connect");
    let mut saw_429 = false;
    for idx in 10..13 {
        match hog_client.invoke("hog", 0, idx, &request(50, 512)).expect("transport") {
            InvokeOutcome::Throttled { retry_after_secs, why } => {
                saw_429 = true;
                assert!(retry_after_secs >= 1, "Retry-After must be set");
                assert!(why.contains("concurrency"), "names the quota: {why}");
            }
            InvokeOutcome::Done(_) => {} // blocker may have finished late in the loop
            other => panic!("hog expected 429 or completion, got {other:?}"),
        }
    }
    assert!(saw_429, "the hog must see at least one quota rejection");

    // ...while the donor tenant's invocations all complete.
    let mut donor = GatewayClient::connect(addr).expect("connect");
    for idx in 20..24 {
        match donor.invoke("donor", 0, idx, &request(50, 512)).expect("transport") {
            InvokeOutcome::Done(rec) => assert_eq!(rec.idx, idx as u64),
            other => panic!("donor must be unaffected by the hog's 429s, got {other:?}"),
        }
    }

    let InvokeOutcome::Done(_) = blocker.join().expect("no panic") else {
        panic!("the blocking invocation itself must complete");
    };
    let report = gw.shutdown();
    assert!(
        report.metrics.contains(
            "libra_gateway_requests_total{tenant=\"hog\",outcome=\"rejected_concurrency\"}"
        ),
        "metrics must expose the rejection counter:\n{}",
        report.metrics
    );
}

#[test]
fn malformed_http_gets_400_and_workers_survive() {
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let addr = gw.local_addr();

    for garbage in [
        &b"\x00\x01\x02\x03\r\n\r\n"[..],
        b"NOT A REQUEST\r\n\r\n",
        b"POST /invoke/t/0 HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    ] {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(garbage).expect("write");
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        let head = String::from_utf8_lossy(&buf);
        assert!(head.starts_with("HTTP/1.1 400"), "garbage must get a 400, got {head:?}");
    }
    // Malformed *bodies* too.
    let mut c = GatewayClient::connect(addr).expect("connect");
    let resp = c.raw("POST", "/invoke/t/0", b"idx=zero\n").expect("transport");
    assert_eq!(resp.status, 400);
    // A body over the limit is refused on its declared length, as a 413.
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    let oversized = libra_gateway::http::MAX_BODY + 1;
    write!(s, "POST /invoke/t/0 HTTP/1.1\r\nContent-Length: {oversized}\r\n\r\n").expect("write");
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let head = String::from_utf8_lossy(&buf);
    assert!(head.starts_with("HTTP/1.1 413"), "an oversized body must get a 413, got {head:?}");

    // And the pool still serves real work afterwards.
    let mut c = GatewayClient::connect(addr).expect("connect");
    let InvokeOutcome::Done(rec) = c.invoke("t", 0, 0, &request(30, 256)).expect("transport")
    else {
        panic!("valid request after garbage must complete");
    };
    assert_eq!(rec.idx, 0);
    let report = gw.shutdown();
    // Each status is booked under its own series: four 400s, and the 413 apart.
    for series in ["libra_gateway_http_400_total 4", "libra_gateway_http_413_total 1"] {
        assert!(report.metrics.contains(series), "missing {series}:\n{}", report.metrics);
    }
}

#[test]
fn unknown_tenant_and_route_get_404() {
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let mut c = GatewayClient::connect(gw.local_addr()).expect("connect");
    let resp = c.raw("POST", "/invoke/ghost/0", b"idx=0\nat_ms=0\n").expect("transport");
    assert_eq!(resp.status, 404);
    let resp = c.raw("GET", "/nope", b"").expect("transport");
    assert_eq!(resp.status, 404);
    let resp = c.raw("POST", "/invoke/t/notanumber", b"").expect("transport");
    assert_eq!(resp.status, 404);
    gw.shutdown();
}

#[test]
fn saturated_admission_gate_sheds_with_queue_depth() {
    // Gate of 1: the first (long) invocation occupies it; the second is
    // shed with 503 + X-Queue-Depth.
    let gw = start(vec![TenantQuota::generous("t")], 1);
    let addr = gw.local_addr();
    let blocker = std::thread::spawn(move || {
        let mut c = GatewayClient::connect(addr).expect("connect");
        c.invoke("t", 0, 0, &request(1_200, 512)).expect("transport")
    });
    std::thread::sleep(Duration::from_millis(40));

    let mut c = GatewayClient::connect(addr).expect("connect");
    match c.invoke("t", 0, 1, &request(30, 256)).expect("transport") {
        InvokeOutcome::Overloaded { queue_depth, why } => {
            assert_eq!(queue_depth, Some(1), "depth header reports the saturated gate: {why}");
        }
        other => panic!("expected 503 backpressure, got {other:?}"),
    }
    let InvokeOutcome::Done(_) = blocker.join().expect("no panic") else {
        panic!("the occupying invocation must still complete");
    };
    gw.shutdown();
}

#[test]
fn duplicate_inflight_idx_is_a_conflict() {
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let addr = gw.local_addr();
    let blocker = std::thread::spawn(move || {
        let mut c = GatewayClient::connect(addr).expect("connect");
        c.invoke("t", 0, 7, &request(1_200, 512)).expect("transport")
    });
    std::thread::sleep(Duration::from_millis(40));
    let mut c = GatewayClient::connect(addr).expect("connect");
    let resp = c.raw("POST", "/invoke/t/0", b"idx=7\nat_ms=0\ncpu=1000\nmem=256\ndemand_cpu=1000\ndemand_mem=128\nmem_floor=64\nwork=1000\n").expect("transport");
    assert_eq!(resp.status, 409, "same idx while resident must conflict");
    blocker.join().expect("no panic");
    let report = gw.shutdown();
    assert!(report.metrics.contains("libra_gateway_http_409_total 1"), "{}", report.metrics);
}

#[test]
fn idx_that_would_alias_an_inflight_id_when_truncated_is_a_bad_request() {
    // Regression: 4294967301 = 2^32 + 5 passed the uniqueness check beside
    // idx 5 and became the same 32-bit invocation id on the node.
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let addr = gw.local_addr();
    let resident = std::thread::spawn(move || {
        let mut c = GatewayClient::connect(addr).expect("connect");
        c.invoke("t", 0, 5, &request(1_200, 512)).expect("transport")
    });
    std::thread::sleep(Duration::from_millis(40));
    let mut c = GatewayClient::connect(addr).expect("connect");
    let resp = c.raw("POST", "/invoke/t/0", b"idx=4294967301\nat_ms=0\ncpu=1000\nmem=256\ndemand_cpu=1000\ndemand_mem=128\nmem_floor=64\nwork=1000\n").expect("transport");
    assert_eq!(resp.status, 400, "an idx above u32::MAX names no invocation id");
    let InvokeOutcome::Done(rec) = resident.join().expect("no panic") else {
        panic!("the resident invocation must complete untouched");
    };
    assert_eq!(rec.idx, 5);
    let report = gw.shutdown();
    assert_eq!((report.live.records.len(), report.live.aborted), (1, 0));
    assert!(report.metrics.contains("libra_gateway_http_400_total 1"), "{}", report.metrics);
}

#[test]
fn graceful_drain_flushes_inflight_requests() {
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let addr = gw.local_addr();
    let inflight = std::thread::spawn(move || {
        let mut c = GatewayClient::connect(addr).expect("connect");
        c.invoke("t", 0, 0, &request(800, 512)).expect("transport")
    });
    std::thread::sleep(Duration::from_millis(30));
    let report = gw.shutdown();
    let InvokeOutcome::Done(rec) = inflight.join().expect("no panic") else {
        panic!("in-flight request must be flushed with a 200, not dropped");
    };
    assert_eq!(rec.idx, 0);
    assert_eq!(report.live.aborted, 0, "nothing needed quiescing");
    assert_eq!(report.live.records.len(), 1);
    assert!(report.metrics.contains("libra_gateway_draining 1"));
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let gw = start(vec![TenantQuota::generous("t")], 64);
    let mut c = GatewayClient::connect(gw.local_addr()).expect("connect");
    let InvokeOutcome::Done(_) = c.invoke("t", 0, 0, &request(30, 256)).expect("transport") else {
        panic!("invocation must complete");
    };
    let page = c.metrics().expect("scrape");
    for needle in [
        "# TYPE libra_gateway_requests_total counter",
        "libra_gateway_requests_total{tenant=\"t\",outcome=\"admitted\"} 1",
        "libra_gateway_requests_total{tenant=\"t\",outcome=\"completed\"} 1",
        "libra_gateway_stage_micros_total{stage=\"scheduler\"}",
        "libra_gateway_stage_micros_total{stage=\"exec\"}",
        "libra_live_completed_total 1",
    ] {
        assert!(page.contains(needle), "metrics page missing {needle}:\n{page}");
    }
    gw.shutdown();
}
