//! Submission rate limiting.
//!
//! §III-C: *"To maintain fairness, time limits are placed on the
//! submission rate…"* — a per-user token bucket over virtual time,
//! configured per lab.

use crate::api::WbError;
use std::collections::HashMap;
use wb_obs::sync::Mutex;

/// Token-bucket configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Maximum burst (bucket capacity).
    pub burst: f64,
    /// Refill rate in tokens per virtual second.
    pub per_second: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        // One submission every 15 s sustained, bursts of 3 — matches
        // the "don't spam the run button" intent.
        RateLimit {
            burst: 3.0,
            per_second: 1.0 / 15.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    updated_ms: u64,
}

/// Per-key (user/lab) rate limiter.
pub struct RateLimiter {
    limit: RateLimit,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    /// Build with a limit.
    pub fn new(limit: RateLimit) -> Self {
        RateLimiter {
            limit,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to consume one token for `key` at virtual time `now_ms`.
    /// Returns `Ok(())` or [`WbError::RateLimited`] carrying the
    /// seconds until the next token.
    pub fn check(&self, key: &str, now_ms: u64) -> Result<(), WbError> {
        let mut g = self.buckets.lock();
        let b = g.entry(key.to_string()).or_insert(Bucket {
            tokens: self.limit.burst,
            updated_ms: now_ms,
        });
        let elapsed_s = (now_ms.saturating_sub(b.updated_ms)) as f64 / 1000.0;
        b.tokens = (b.tokens + elapsed_s * self.limit.per_second).min(self.limit.burst);
        // A late caller's earlier clock must not rewind the bucket, or
        // the same interval would be refilled twice.
        b.updated_ms = b.updated_ms.max(now_ms);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            Err(WbError::RateLimited {
                retry_after_s: (1.0 - b.tokens) / self.limit.per_second,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_blocked() {
        let rl = RateLimiter::new(RateLimit {
            burst: 2.0,
            per_second: 0.1,
        });
        assert!(rl.check("alice/vecadd", 0).is_ok());
        assert!(rl.check("alice/vecadd", 1).is_ok());
        let WbError::RateLimited { retry_after_s } = rl.check("alice/vecadd", 2).unwrap_err()
        else {
            panic!("expected a rate-limit error");
        };
        assert!(retry_after_s > 0.0 && retry_after_s <= 10.0);
    }

    #[test]
    fn refills_over_time() {
        let rl = RateLimiter::new(RateLimit {
            burst: 1.0,
            per_second: 1.0, // 1 token per second
        });
        assert!(rl.check("k", 0).is_ok());
        assert!(rl.check("k", 100).is_err(), "only 0.1 tokens back");
        assert!(rl.check("k", 1100).is_ok(), "refilled after 1s");
    }

    #[test]
    fn keys_are_independent() {
        let rl = RateLimiter::new(RateLimit {
            burst: 1.0,
            per_second: 0.01,
        });
        assert!(rl.check("alice/l1", 0).is_ok());
        assert!(rl.check("bob/l1", 0).is_ok());
        assert!(rl.check("alice/l2", 0).is_ok());
        assert!(rl.check("alice/l1", 1).is_err());
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let rl = RateLimiter::new(RateLimit {
            burst: 2.0,
            per_second: 100.0,
        });
        assert!(rl.check("k", 0).is_ok());
        // Huge idle time: capacity still caps at burst = 2.
        assert!(rl.check("k", 10_000_000).is_ok());
        assert!(rl.check("k", 10_000_000).is_ok());
        assert!(rl.check("k", 10_000_000).is_err());
    }

    #[test]
    fn limiter_clock_never_runs_backward() {
        let rl = RateLimiter::new(RateLimit {
            burst: 1.0,
            per_second: 1.0,
        });
        assert!(rl.check("k", 10_000).is_ok());
        assert!(rl.check("k", 0).is_err());
        assert!(
            rl.check("k", 10_000).is_err(),
            "the 0..10 s interval must not refill a second time"
        );
    }
}
