//! Reject-aware retry policies for open-loop clients.
//!
//! A client running against a credit-gated server sees two new events a
//! plain open-loop generator never had to handle: a **local shed** (the
//! sender-side credit balance is zero, the request was never transmitted)
//! and an **explicit reject** (the server shed it at the edge). What to do
//! next is a per-request *policy* decision, driven by how much latency
//! budget the request has left:
//!
//! * [`RetryPolicy::Drop`] — count it and move on. Right for open-loop
//!   measurement (a retried request is a different sample) and for
//!   requests whose value expires immediately.
//! * [`RetryPolicy::Backoff`] — retry after an exponentially growing
//!   delay, up to an attempt cap. Right for fire-and-forget work that
//!   must eventually land; the growing delay is what keeps a rejecting
//!   server from being hammered by its own backpressure signal.
//!
//! The policy is pure — given the attempt number and the elapsed time it
//! returns a [`RetryDecision`] — so hosts (the live load generator, tests,
//! the simulator's clients) share one implementation and the decision
//! table is trivially testable:
//!
//! ```
//! use zygos_load::retry::{RetryDecision, RetryPolicy};
//!
//! // Exponential backoff: 100µs, 200µs, 400µs, then give up.
//! let p = RetryPolicy::Backoff { base_us: 100, factor: 2.0, max_attempts: 3 };
//! assert_eq!(p.on_shed(0, 0), RetryDecision::RetryAfterUs(100));
//! assert_eq!(p.on_shed(1, 150), RetryDecision::RetryAfterUs(200));
//! assert_eq!(p.on_shed(2, 400), RetryDecision::RetryAfterUs(400));
//! assert_eq!(p.on_shed(3, 900), RetryDecision::GiveUp);
//!
//! // Drop never retries.
//! assert_eq!(RetryPolicy::Drop.on_shed(0, 0), RetryDecision::GiveUp);
//! ```
//!
//! # Jitter
//!
//! A fleet of clients sharing one backoff schedule retries in lockstep:
//! every request shed by the same burst comes back `base_us` later as the
//! *same* burst, and the gate sheds it again — synchronized retry waves
//! defeat backoff by construction. [`RetryPolicy::on_shed_jittered`]
//! spreads each connection's retries across the backoff window with a
//! delay derived deterministically from a per-connection key, so runs
//! stay reproducible while the waves decohere.

/// What a client should do with a shed (locally refused or explicitly
/// rejected) request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Abandon the request (count it as shed).
    GiveUp,
    /// Retry after waiting this many microseconds.
    RetryAfterUs(u64),
}

/// A reject-aware retry policy (see module docs for when to use which).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RetryPolicy {
    /// Never retry: every shed is final.
    Drop,
    /// Exponential backoff: attempt `n` (0-based) waits
    /// `base_us × factor^n` microseconds; after `max_attempts` retries the
    /// request is abandoned.
    Backoff {
        /// Delay before the first retry, µs.
        base_us: u64,
        /// Multiplier applied per subsequent attempt (≥ 1.0).
        factor: f64,
        /// Retries attempted before giving up.
        max_attempts: u32,
    },
}

/// SplitMix64 finalizer — the avalanche step shared with the routing
/// plane, duplicated here so the retry table stays dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The decision for a request shed on its `attempt`-th try (0-based)
    /// after `elapsed_us` microseconds since it was first issued. Both
    /// policies decide on the attempt count alone; hosts pass the elapsed
    /// time regardless.
    pub fn on_shed(&self, attempt: u32, _elapsed_us: u64) -> RetryDecision {
        match *self {
            RetryPolicy::Drop => RetryDecision::GiveUp,
            RetryPolicy::Backoff {
                base_us,
                factor,
                max_attempts,
            } => {
                if attempt >= max_attempts {
                    RetryDecision::GiveUp
                } else {
                    let delay = base_us as f64 * factor.max(1.0).powi(attempt as i32);
                    RetryDecision::RetryAfterUs(delay.min(u64::MAX as f64) as u64)
                }
            }
        }
    }

    /// [`Self::on_shed`] with deterministic equal-jitter applied to
    /// [`RetryPolicy::Backoff`] delays: attempt `n` waits somewhere in
    /// `[d/2, d)` where `d = base_us × factor^n`, the exact offset a pure
    /// function of `(key, attempt)`. Use a stable per-connection key (the
    /// routing plane's `conn_key` is a good choice) so each connection
    /// lands at its own reproducible phase and retry waves decohere.
    /// `Drop` is unchanged — it schedules no delay to jitter.
    pub fn on_shed_jittered(&self, attempt: u32, elapsed_us: u64, key: u64) -> RetryDecision {
        match self.on_shed(attempt, elapsed_us) {
            RetryDecision::RetryAfterUs(d) if matches!(self, RetryPolicy::Backoff { .. }) => {
                // 53-bit mantissa fraction in [0, 1), avalanche-mixed so
                // consecutive attempts of one connection and equal
                // attempts of different connections are uncorrelated.
                let frac = (mix(key ^ mix(attempt as u64)) >> 11) as f64 / (1u64 << 53) as f64;
                let jittered = d / 2 + ((d as f64 / 2.0) * frac) as u64;
                RetryDecision::RetryAfterUs(jittered.max(1))
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_is_final() {
        for attempt in 0..4 {
            assert_eq!(RetryPolicy::Drop.on_shed(attempt, 0), RetryDecision::GiveUp);
        }
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy::Backoff {
            base_us: 50,
            factor: 2.0,
            max_attempts: 4,
        };
        assert_eq!(p.on_shed(0, 0), RetryDecision::RetryAfterUs(50));
        assert_eq!(p.on_shed(1, 0), RetryDecision::RetryAfterUs(100));
        assert_eq!(p.on_shed(2, 0), RetryDecision::RetryAfterUs(200));
        assert_eq!(p.on_shed(3, 0), RetryDecision::RetryAfterUs(400));
        assert_eq!(p.on_shed(4, 0), RetryDecision::GiveUp);
    }

    #[test]
    fn backoff_factor_below_one_is_clamped_constant() {
        let p = RetryPolicy::Backoff {
            base_us: 10,
            factor: 0.5,
            max_attempts: 2,
        };
        assert_eq!(p.on_shed(0, 0), RetryDecision::RetryAfterUs(10));
        assert_eq!(p.on_shed(1, 0), RetryDecision::RetryAfterUs(10));
    }

    #[test]
    fn jittered_backoff_is_reproducible_and_stays_in_the_half_open_window() {
        let p = RetryPolicy::Backoff {
            base_us: 100,
            factor: 2.0,
            max_attempts: 3,
        };
        for attempt in 0..3u32 {
            let d = match p.on_shed(attempt, 0) {
                RetryDecision::RetryAfterUs(d) => d,
                other => panic!("expected a delay, got {other:?}"),
            };
            for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let a = p.on_shed_jittered(attempt, 0, key);
                let b = p.on_shed_jittered(attempt, 0, key);
                assert_eq!(a, b, "same (key, attempt) must give the same delay");
                match a {
                    RetryDecision::RetryAfterUs(j) => {
                        assert!(j >= d / 2 && j < d, "jitter {j} outside [{}, {d})", d / 2)
                    }
                    other => panic!("expected a delay, got {other:?}"),
                }
            }
        }
        // Past the attempt cap jitter has nothing to perturb.
        assert_eq!(p.on_shed_jittered(3, 0, 7), RetryDecision::GiveUp);
    }

    #[test]
    fn jitter_desynchronizes_connections_sharing_one_schedule() {
        // 64 connections shed by the same burst: unjittered they all come
        // back 100µs later as the same wave. Jittered, their first-retry
        // delays must spread across the window instead of colliding.
        let p = RetryPolicy::Backoff {
            base_us: 100,
            factor: 2.0,
            max_attempts: 3,
        };
        let delays: Vec<u64> = (0..64u64)
            .map(|conn| match p.on_shed_jittered(0, 0, conn) {
                RetryDecision::RetryAfterUs(d) => d,
                other => panic!("expected a delay, got {other:?}"),
            })
            .collect();
        let mut distinct = delays.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() >= 16,
            "64 connections collapsed onto {} retry instants",
            distinct.len()
        );

        // Drop passes through untouched.
        assert_eq!(
            RetryPolicy::Drop.on_shed_jittered(0, 0, 42),
            RetryDecision::GiveUp
        );
    }
}
