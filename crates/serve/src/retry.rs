//! Retry budgets with jittered exponential backoff.
//!
//! Transient serving failures — a shed request, a replica that faulted
//! mid-batch, an injected transient error — are worth one or two more
//! attempts before surfacing a typed error to the caller. The policy
//! here is deliberately small: exponential backoff from a base delay,
//! capped, with deterministic seeded jitter so a fleet of clients that
//! all failed on the same faulted batch does not resubmit in lockstep
//! (the classic retry-storm / thundering-herd failure mode).

use std::time::Duration;

use crate::ServeError;

/// Fraction of each backoff randomized away: the actual delay is uniform
/// in `[(1 - JITTER) * b, b]`.
const JITTER: f64 = 0.5;
/// Seed of the deterministic jitter stream.
const JITTER_SEED: u64 = 0x8E77_4ED1;

/// Retry budget for one logical request.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// True when a failed attempt number `attempt` (0-based: the first
    /// attempt is 0) has budget left for another try.
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt + 1 < self.max_attempts
    }

    /// Backoff before retrying after 0-based attempt `attempt`, jittered
    /// into `[raw / 2, raw]` by a splitmix64 draw over `(salt, attempt)`,
    /// where `raw` is the capped exponential delay. Callers pass a
    /// per-request `salt` (e.g. a window index or request ordinal) so
    /// concurrent requests desynchronize.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp.min(20))
            .min(self.max_backoff);
        let mut z =
            JITTER_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Uniform in [0, 1): 53 mantissa bits.
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(1.0 - JITTER * unit)
    }
}

impl ServeError {
    /// True for failures where an immediate-ish retry can plausibly
    /// succeed: the request was shed under overload, or the replica that
    /// would have served it faulted (another replica, or the respawned
    /// one, can take the resubmission). Deadline expiry, validation
    /// errors, and shutdown are terminal.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded | ServeError::EngineFault | ServeError::Transient
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `b` lies in the jitter band `[raw / 2, raw]`.
    fn in_band(b: Duration, raw: Duration) -> bool {
        b >= raw / 2 && b <= raw
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        for salt in 0..16u64 {
            for (attempt, raw_ms) in [(0, 1), (1, 2), (4, 16), (10, 50), (u32::MAX, 50)] {
                let b = p.backoff(attempt, salt);
                let raw = Duration::from_millis(raw_ms);
                assert!(
                    in_band(b, raw),
                    "attempt {attempt}: {b:?} outside [{raw:?}/2, {raw:?}]"
                );
            }
            // Doubling the raw delay lifts the band's floor to the old
            // ceiling, so growth shows through any jitter draw.
            assert!(p.backoff(3, salt) >= p.backoff(2, salt));
        }
    }

    #[test]
    fn jitter_stays_within_band_and_varies_by_salt() {
        let p = RetryPolicy::default();
        let full = Duration::from_millis(4);
        let lo = full.mul_f64(0.5);
        let mut distinct = std::collections::BTreeSet::new();
        for salt in 0..32u64 {
            let b = p.backoff(2, salt);
            assert!(in_band(b, full), "{b:?} outside [{lo:?}, {full:?}]");
            distinct.insert(b.as_nanos());
        }
        assert!(distinct.len() > 16, "jitter must desynchronize salts");
        // Deterministic per (salt, attempt).
        assert_eq!(p.backoff(2, 7), p.backoff(2, 7));
    }

    #[test]
    fn attempt_budget_counts_total_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        assert!(p.allows_retry(0));
        assert!(p.allows_retry(1));
        assert!(!p.allows_retry(2));
        let one_shot = RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        };
        assert!(!one_shot.allows_retry(0));
    }

    #[test]
    fn retryability_matches_error_semantics() {
        assert!(ServeError::Overloaded.is_retryable());
        assert!(ServeError::EngineFault.is_retryable());
        assert!(ServeError::Transient.is_retryable());
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::DeadlineExceeded.is_retryable());
        assert!(!ServeError::UnknownTask(crate::ServeTask::Ecg).is_retryable());
    }
}
