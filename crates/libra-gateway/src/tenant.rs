//! Per-tenant namespaces: quota configuration, admission state and
//! counters.
//!
//! Each tenant owns a token bucket (request rate), a quota ledger
//! (concurrency + memory) and a set of monotone counters the metrics
//! endpoint renders. Admission hands out a [`TenantPermit`] whose `Drop`
//! releases the ledger, so every early-return path in the server gives the
//! slot back without bookkeeping. Deterministic accounting discipline
//! applies (clippy's `disallowed_types`, denied crate-wide): decisions
//! depend only on the injected `now_us` and prior admissions — `BTreeMap`
//! keeps registry iteration (and thus the metrics page) in a stable order.

use crate::quota::{QuotaDenied, QuotaLedger, TokenBucket};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A tenant's configured ceilings.
#[derive(Clone, Debug)]
pub struct TenantQuota {
    /// Namespace name (the `{tenant}` path segment).
    pub name: String,
    /// Sustained invocation rate (requests per second).
    pub rate_per_sec: u64,
    /// Burst size on top of the sustained rate.
    pub burst: u64,
    /// In-flight invocation ceiling.
    pub max_concurrency: usize,
    /// In-flight allocated-memory ceiling (MB).
    pub mem_quota_mb: u64,
}

impl TenantQuota {
    /// A generously-quota'd tenant for demos and load generation.
    pub fn generous(name: &str) -> Self {
        TenantQuota {
            name: name.to_string(),
            rate_per_sec: 10_000,
            burst: 10_000,
            max_concurrency: 10_000,
            mem_quota_mb: u64::MAX / 2,
        }
    }
}

/// Monotone per-tenant counters for the metrics endpoint.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests admitted into the cluster.
    pub admitted: AtomicU64,
    /// Requests rejected by the token bucket (429).
    pub rejected_rate: AtomicU64,
    /// Requests rejected by the concurrency quota (429).
    pub rejected_concurrency: AtomicU64,
    /// Requests rejected by the memory quota (429).
    pub rejected_memory: AtomicU64,
    /// Requests shed by the admission gate (503).
    pub rejected_backpressure: AtomicU64,
    /// Invocations completed with a record.
    pub completed: AtomicU64,
}

/// Why a tenant refused an admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Token bucket empty; retry after this many seconds.
    RateLimited {
        /// Seconds until the next token (the `Retry-After` value).
        retry_after_secs: u64,
    },
    /// Concurrency or memory quota exhausted.
    Quota {
        /// Which quota the request busted.
        denied: QuotaDenied,
        /// Expected seconds until the oldest in-flight admission frees its
        /// slot (the `Retry-After` value), derived from the ledger's
        /// residence history rather than guessed.
        retry_after_secs: u64,
    },
}

/// Live admission state of one tenant.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's configured ceilings.
    pub quota: TenantQuota,
    bucket: Mutex<TokenBucket>,
    ledger: Mutex<QuotaLedger>,
    /// Metrics counters.
    pub counters: TenantCounters,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            bucket: Mutex::new(TokenBucket::new(quota.rate_per_sec, quota.burst)),
            ledger: Mutex::new(QuotaLedger::new(quota.max_concurrency, quota.mem_quota_mb)),
            counters: TenantCounters::default(),
            quota,
        }
    }

    /// Run the tenant-local admission pipeline (token bucket, then quota
    /// ledger) for a request allocating `mem_mb`, at injected time
    /// `now_us`. On success the returned permit holds the ledger slot until
    /// dropped. Counters are bumped on every outcome.
    pub fn try_admit(
        self: &Arc<Self>,
        mem_mb: u64,
        now_us: u64,
    ) -> Result<TenantPermit, AdmitError> {
        if let Err(retry_after_secs) = self.bucket.lock().try_take(now_us) {
            self.counters.rejected_rate.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::RateLimited { retry_after_secs });
        }
        let mut ledger = self.ledger.lock();
        match ledger.try_admit(mem_mb, now_us) {
            Ok(ticket) => {
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(TenantPermit { tenant: Arc::clone(self), mem_mb, ticket, finished: false })
            }
            Err(denied) => {
                match denied {
                    QuotaDenied::Concurrency { .. } => {
                        self.counters.rejected_concurrency.fetch_add(1, Ordering::Relaxed)
                    }
                    QuotaDenied::Memory { .. } => {
                        self.counters.rejected_memory.fetch_add(1, Ordering::Relaxed)
                    }
                };
                let retry_after_secs = ledger.retry_after_secs(now_us);
                Err(AdmitError::Quota { denied, retry_after_secs })
            }
        }
    }

    /// Ledger occupancy `(inflight, inflight_mem_mb)` for metrics.
    pub fn occupancy(&self) -> (usize, u64) {
        let g = self.ledger.lock();
        (g.inflight(), g.inflight_mem_mb())
    }
}

/// An admitted request's hold on its tenant's quota ledger; dropping it
/// releases the concurrency slot and memory.
///
/// Prefer [`finish`] on the completion path: it stamps the release with a
/// timestamp so the ledger's residence estimate (and thus quota-denial
/// `Retry-After` values) learns from real invocations. A plain drop —
/// every early-return error path — releases the slot without recording a
/// residence sample.
///
/// [`finish`]: TenantPermit::finish
#[derive(Debug)]
pub struct TenantPermit {
    tenant: Arc<TenantState>,
    mem_mb: u64,
    ticket: u64,
    finished: bool,
}

impl TenantPermit {
    /// Release the ledger slot at `now_us`, recording the admission's
    /// residence time in the tenant's retry estimate.
    pub fn finish(mut self, now_us: u64) {
        self.tenant.ledger.lock().release(self.mem_mb, self.ticket, Some(now_us));
        self.finished = true;
    }
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        if !self.finished {
            self.tenant.ledger.lock().release(self.mem_mb, self.ticket, None);
        }
    }
}

/// The gateway's tenant namespace table.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<String, Arc<TenantState>>,
}

impl TenantRegistry {
    /// Build a registry from quota configs (later duplicates win).
    pub fn new(quotas: Vec<TenantQuota>) -> Self {
        let mut tenants = BTreeMap::new();
        for q in quotas {
            tenants.insert(q.name.clone(), Arc::new(TenantState::new(q)));
        }
        TenantRegistry { tenants }
    }

    /// Look a tenant up by namespace name.
    pub fn get(&self, name: &str) -> Option<&Arc<TenantState>> {
        self.tenants.get(name)
    }

    /// All tenants in stable (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<TenantState>)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(max_concurrency: usize, mem_quota_mb: u64) -> Arc<TenantState> {
        Arc::new(TenantState::new(TenantQuota {
            name: "t".into(),
            rate_per_sec: 1_000,
            burst: 1_000,
            max_concurrency,
            mem_quota_mb,
        }))
    }

    #[test]
    fn permit_drop_releases_the_ledger() {
        let t = tenant(1, 4_096);
        let p = t.try_admit(1_024, 0).expect("admitted");
        assert!(matches!(
            t.try_admit(1_024, 0),
            Err(AdmitError::Quota { denied: QuotaDenied::Concurrency { .. }, .. })
        ));
        drop(p);
        assert!(t.try_admit(1_024, 0).is_ok());
        assert_eq!(t.counters.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(t.counters.rejected_concurrency.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quota_denial_derives_retry_after_from_residence() {
        let t = tenant(1, 4_096);
        // One completed 4-second invocation seeds the residence mean.
        let p = t.try_admit(1_024, 0).expect("admitted");
        p.finish(4_000_000);
        // The slot refills and a new invocation has been resident 1 s when
        // the denial happens: expect mean − age = 4 − 1 = 3 seconds.
        let _p = t.try_admit(1_024, 4_000_000).expect("admitted");
        let Err(AdmitError::Quota { denied, retry_after_secs }) = t.try_admit(1_024, 5_000_000)
        else {
            panic!("second request must bust the concurrency quota");
        };
        assert!(matches!(denied, QuotaDenied::Concurrency { .. }));
        assert_eq!(retry_after_secs, 3);
    }

    #[test]
    fn rate_limit_reports_retry_after() {
        let t = Arc::new(TenantState::new(TenantQuota {
            name: "slow".into(),
            rate_per_sec: 1,
            burst: 1,
            max_concurrency: 100,
            mem_quota_mb: 100_000,
        }));
        let _p = t.try_admit(1, 0).expect("burst token");
        let Err(AdmitError::RateLimited { retry_after_secs }) = t.try_admit(1, 0) else {
            panic!("second request must be rate-limited");
        };
        assert_eq!(retry_after_secs, 1);
    }
}
