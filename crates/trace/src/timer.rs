//! Wall-clock timing for the runtime columns of Table I / Fig. 7.

use std::time::Instant;

/// Runs `f` and returns its result with the seconds it took.
///
/// # Example
///
/// ```
/// let (sum, seconds) = irf_trace::timed(|| (0..1000u64).sum::<u64>());
/// assert_eq!(sum, 499_500);
/// assert!(seconds >= 0.0);
/// ```
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_closure_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
