//! Deterministic per-tenant admission accounting: a token-bucket rate
//! limiter and a concurrency/memory quota ledger.
//!
//! Both are pure state machines over an injected microsecond clock — the
//! caller passes `now_us` (the gateway derives it from one monotonic
//! anchor; tests and proptests drive it manually, the same discipline as
//! the control plane's explicit `now`). No wall-clock read ever happens inside
//! accounting, so every grant/deny decision replays deterministically.
//! Enforced: the crate denies `clippy::disallowed_types` / `disallowed_methods`
//! (the list is the root `clippy.toml`), and only `server.rs` is excused.

/// Micro-tokens per token: refill arithmetic is integer-exact at
/// microsecond granularity (`rate_per_sec` tokens/s × `elapsed_us` µs =
/// micro-tokens, no rounding), so the bucket can never over-grant.
const MICRO: u64 = 1_000_000;

/// A token bucket: `rate_per_sec` sustained requests per second with bursts
/// of up to `burst` requests.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: u64,
    capacity_micro: u64,
    micro: u64,
    last_us: u64,
}

impl TokenBucket {
    /// A bucket that starts full (a fresh tenant may burst immediately).
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        let capacity_micro = burst.max(1).saturating_mul(MICRO);
        TokenBucket { rate_per_sec, capacity_micro, micro: capacity_micro, last_us: 0 }
    }

    /// Credit tokens for the time since the last observation. Time moving
    /// backwards (never from the gateway's single monotonic anchor, but
    /// nothing stops a test) credits nothing.
    fn refill(&mut self, now_us: u64) {
        let elapsed_us = now_us.saturating_sub(self.last_us);
        self.last_us = self.last_us.max(now_us);
        self.micro = self
            .capacity_micro
            .min(self.micro.saturating_add(self.rate_per_sec.saturating_mul(elapsed_us)));
    }

    /// Take one token at `now_us`, or report how many whole seconds the
    /// caller should wait before retrying (the `Retry-After` value, ≥ 1).
    pub fn try_take(&mut self, now_us: u64) -> Result<(), u64> {
        self.refill(now_us);
        if self.micro >= MICRO {
            self.micro -= MICRO;
            return Ok(());
        }
        let needed = MICRO - self.micro;
        if self.rate_per_sec == 0 {
            // A zero-rate tenant only ever gets its initial burst back.
            return Err(3_600);
        }
        Err(needed.div_ceil(self.rate_per_sec).div_ceil(MICRO).max(1))
    }
}

/// Why the quota ledger denied an admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaDenied {
    /// The tenant is at its in-flight invocation ceiling.
    Concurrency {
        /// The configured ceiling.
        limit: usize,
    },
    /// Admitting the request would push in-flight memory past the quota.
    Memory {
        /// The configured memory quota (MB).
        quota_mb: u64,
        /// Memory already committed to in-flight invocations (MB).
        inflight_mb: u64,
        /// The request's allocation (MB).
        requested_mb: u64,
    },
}

impl std::fmt::Display for QuotaDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QuotaDenied::Concurrency { limit } => {
                write!(f, "concurrency quota exhausted (limit {limit})")
            }
            QuotaDenied::Memory { quota_mb, inflight_mb, requested_mb } => write!(
                f,
                "memory quota exhausted ({inflight_mb} MB in flight + {requested_mb} MB \
                 requested > {quota_mb} MB quota)"
            ),
        }
    }
}

/// The per-tenant quota ledger: in-flight invocation count and committed
/// memory, bounded by the tenant's configured ceilings. Admission and
/// release must pair exactly — the gateway enforces that with a
/// drop-releasing permit.
///
/// The ledger also remembers *when* each in-flight admission happened and
/// a running mean of observed residence times, so a quota denial can
/// answer "how long until a slot frees up" instead of a hardcoded guess:
/// the oldest outstanding admission has been resident for `age`, the mean
/// residence is `mean`, so the expected wait is `mean - age` (floored at
/// one second, like the token bucket's `Retry-After`).
#[derive(Clone, Debug)]
pub struct QuotaLedger {
    max_concurrency: usize,
    mem_quota_mb: u64,
    inflight: usize,
    inflight_mem_mb: u64,
    /// Outstanding admissions: ticket → admission time (µs). Tickets are
    /// monotone, so the first entry is always the oldest admission.
    outstanding: std::collections::BTreeMap<u64, u64>,
    next_ticket: u64,
    /// Sum of completed residence times (µs) and the sample count, for
    /// the mean-residence estimate. u128 so the sum can't wrap.
    residence_sum_us: u128,
    residence_samples: u64,
}

/// Residence estimate used before any completion has been observed: a
/// fresh tenant's denial predicts a one-second wait, matching the old
/// static header until real data arrives.
const DEFAULT_RESIDENCE_US: u64 = 1_000_000;

impl QuotaLedger {
    /// A fresh ledger with everything available.
    pub fn new(max_concurrency: usize, mem_quota_mb: u64) -> Self {
        QuotaLedger {
            max_concurrency,
            mem_quota_mb,
            inflight: 0,
            inflight_mem_mb: 0,
            outstanding: std::collections::BTreeMap::new(),
            next_ticket: 0,
            residence_sum_us: 0,
            residence_samples: 0,
        }
    }

    /// Admit a request allocating `mem_mb` at `now_us`. On success returns
    /// the admission ticket the caller must hand back to [`release`]; on
    /// failure says which quota it busts.
    ///
    /// [`release`]: QuotaLedger::release
    pub fn try_admit(&mut self, mem_mb: u64, now_us: u64) -> Result<u64, QuotaDenied> {
        if self.inflight >= self.max_concurrency {
            return Err(QuotaDenied::Concurrency { limit: self.max_concurrency });
        }
        let after = self.inflight_mem_mb.saturating_add(mem_mb);
        if after > self.mem_quota_mb {
            return Err(QuotaDenied::Memory {
                quota_mb: self.mem_quota_mb,
                inflight_mb: self.inflight_mem_mb,
                requested_mb: mem_mb,
            });
        }
        self.inflight += 1;
        self.inflight_mem_mb = after;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.outstanding.insert(ticket, now_us);
        Ok(ticket)
    }

    /// Return an admitted request's slot and memory. `now_us` is `Some`
    /// when the invocation ran to completion (the residence sample feeds
    /// the mean) and `None` when the permit was abandoned early — an
    /// error-path drop must not pollute the residence estimate.
    pub fn release(&mut self, mem_mb: u64, ticket: u64, now_us: Option<u64>) {
        self.inflight = self.inflight.saturating_sub(1);
        self.inflight_mem_mb = self.inflight_mem_mb.saturating_sub(mem_mb);
        if let Some(admitted_us) = self.outstanding.remove(&ticket) {
            if let Some(now_us) = now_us {
                self.residence_sum_us += u128::from(now_us.saturating_sub(admitted_us));
                self.residence_samples += 1;
            }
        }
    }

    /// Expected whole seconds until the oldest in-flight admission
    /// releases its slot (≥ 1): mean observed residence minus how long
    /// that admission has already been resident. With no completions
    /// observed yet the mean defaults to one second; with nothing
    /// outstanding (denial raced a release) the answer is one second.
    pub fn retry_after_secs(&self, now_us: u64) -> u64 {
        let Some((_, &oldest_admit_us)) = self.outstanding.iter().next() else {
            return 1;
        };
        let mean_us = if self.residence_samples == 0 {
            DEFAULT_RESIDENCE_US
        } else {
            (self.residence_sum_us / u128::from(self.residence_samples)) as u64
        };
        let age_us = now_us.saturating_sub(oldest_admit_us);
        mean_us.saturating_sub(age_us).div_ceil(MICRO).max(1)
    }

    /// In-flight invocation count.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// In-flight committed memory (MB).
    pub fn inflight_mem_mb(&self) -> u64 {
        self.inflight_mem_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grants_burst_then_throttles() {
        let mut b = TokenBucket::new(10, 3);
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(0).is_ok());
        let retry = b.try_take(0).expect_err("burst exhausted");
        assert_eq!(retry, 1, "at 10 rps the next token is < 1 s away");
    }

    #[test]
    fn bucket_refills_exactly() {
        let mut b = TokenBucket::new(10, 1);
        assert!(b.try_take(0).is_ok());
        // 10 rps = one token per 100_000 µs; one µs early must still deny.
        assert!(b.try_take(99_999).is_err());
        assert!(b.try_take(100_000).is_ok());
    }

    #[test]
    fn zero_rate_gets_only_the_burst() {
        let mut b = TokenBucket::new(0, 2);
        assert!(b.try_take(0).is_ok());
        assert!(b.try_take(1).is_ok());
        assert_eq!(b.try_take(u64::MAX / 2), Err(3_600));
    }

    #[test]
    fn ledger_enforces_both_axes() {
        let mut l = QuotaLedger::new(2, 1_024);
        let t0 = l.try_admit(512, 0).expect("first admit");
        assert_eq!(
            l.try_admit(1_024, 0),
            Err(QuotaDenied::Memory { quota_mb: 1_024, inflight_mb: 512, requested_mb: 1_024 })
        );
        assert!(l.try_admit(512, 0).is_ok());
        assert_eq!(l.try_admit(0, 0), Err(QuotaDenied::Concurrency { limit: 2 }));
        l.release(512, t0, Some(0));
        assert!(l.try_admit(256, 0).is_ok());
        assert_eq!(l.inflight(), 2);
        assert_eq!(l.inflight_mem_mb(), 768);
    }

    #[test]
    fn retry_after_defaults_before_any_completion() {
        let mut l = QuotaLedger::new(1, 1_024);
        // Nothing outstanding: the estimate is the one-second floor.
        assert_eq!(l.retry_after_secs(0), 1);
        let _t = l.try_admit(128, 0).expect("admit");
        // No residence samples yet → mean defaults to 1 s; the admission
        // is brand new, so the full default is still ahead of it.
        assert_eq!(l.retry_after_secs(0), 1);
        // Once the admission has outlived the default mean, the floor holds.
        assert_eq!(l.retry_after_secs(5_000_000), 1);
    }

    #[test]
    fn retry_after_tracks_mean_residence() {
        let mut l = QuotaLedger::new(1, 1_024);
        // Two completed admissions of 4 s and 8 s → mean residence 6 s.
        let t = l.try_admit(128, 0).expect("admit");
        l.release(128, t, Some(4_000_000));
        let t = l.try_admit(128, 4_000_000).expect("admit");
        l.release(128, t, Some(12_000_000));
        // A third admission at t=12 s fills the slot; a denial at t=13 s
        // expects it to persist for mean − age = 6 − 1 = 5 more seconds.
        let _t = l.try_admit(128, 12_000_000).expect("admit");
        assert_eq!(l.retry_after_secs(13_000_000), 5);
        // Fractional remainders round up: at t=12.5 s, 5.5 s → 6.
        assert_eq!(l.retry_after_secs(12_500_000), 6);
    }

    #[test]
    fn abandoned_release_skips_the_residence_sample() {
        let mut l = QuotaLedger::new(2, 1_024);
        let t = l.try_admit(128, 0).expect("admit");
        // Abandoned (error-path) release: slot returns, no sample taken.
        l.release(128, t, None);
        assert_eq!(l.inflight(), 0);
        let t = l.try_admit(128, 0).expect("admit");
        l.release(128, t, Some(3_000_000));
        // Mean is 3 s (one sample), not 1.5 s (two).
        let _t = l.try_admit(128, 10_000_000).expect("admit");
        assert_eq!(l.retry_after_secs(10_000_000), 3);
    }
}
