//! Multiprogrammed-workload metrics (§6 "Evaluation Metrics").
//!
//! * **Weighted speedup** `Σ IPC_shared / IPC_alone` [42, 43] — system
//!   throughput;
//! * **IPC throughput** `Σ IPC_shared` — aggregate instruction rate (§7.1);
//! * **Unfairness** `max_i IPC_alone / IPC_shared` — maximum slowdown
//!   [38, 41, ...].

/// Weighted speedup of a multiprogrammed run.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn weighted_speedup(shared_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    assert_eq!(shared_ipc.len(), alone_ipc.len(), "one alone IPC per app");
    shared_ipc
        .iter()
        .zip(alone_ipc)
        .map(|(&s, &a)| if a > 0.0 { s / a } else { 0.0 })
        .sum()
}

/// Unfairness: the maximum per-application slowdown.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn unfairness(shared_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    assert_eq!(shared_ipc.len(), alone_ipc.len(), "one alone IPC per app");
    shared_ipc
        .iter()
        .zip(alone_ipc)
        .map(|(&s, &a)| if s > 0.0 { a / s } else { f64::INFINITY })
        .fold(0.0, f64::max)
}

/// Arithmetic mean (`None` for an empty iterator).
pub fn mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    (n != 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_definition() {
        // Both apps at full alone speed -> WS = number of apps.
        assert!((weighted_speedup(&[2.0, 3.0], &[2.0, 3.0]) - 2.0).abs() < 1e-12);
        // Both halved -> WS = 1.
        assert!((weighted_speedup(&[1.0, 1.5], &[2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unfairness_is_max_slowdown() {
        // App 0 halved, app 1 at 75% -> max slowdown 2.0.
        let u = unfairness(&[1.0, 2.25], &[2.0, 3.0]);
        assert!((u - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unfairness_of_stalled_app_is_infinite() {
        assert!(unfairness(&[0.0, 1.0], &[1.0, 1.0]).is_infinite());
    }

    #[test]
    fn zero_alone_ipc_contributes_nothing() {
        assert_eq!(weighted_speedup(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean([1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "one alone IPC per app")]
    fn mismatched_lengths_panic() {
        let _ = weighted_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_cycle_apps_yield_finite_speedup_and_zero_unfairness_floor() {
        // An app that never got a measured cycle reports IPC 0 both shared
        // and alone; the pair's metrics must stay well-defined.
        let ws = weighted_speedup(&[0.0, 1.0], &[0.0, 2.0]);
        assert!(
            (ws - 0.5).abs() < 1e-12,
            "stalled app contributes 0, got {ws}"
        );
        // Unfairness treats 0/0 as infinite slowdown (the shared app made
        // no progress), never as NaN.
        let u = unfairness(&[0.0, 1.0], &[0.0, 2.0]);
        assert!(u.is_infinite() && !u.is_nan());
        // Both apps zero-cycle: speedup 0, not NaN.
        assert_eq!(weighted_speedup(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn single_app_weighted_speedup_is_its_slowdown_ratio() {
        // With one app, WS is exactly IPC_shared / IPC_alone ...
        assert!((weighted_speedup(&[1.5], &[3.0]) - 0.5).abs() < 1e-12);
        // ... and running truly alone it is exactly 1, with unfairness 1.
        assert!((weighted_speedup(&[2.75], &[2.75]) - 1.0).abs() < 1e-12);
        assert!((unfairness(&[2.75], &[2.75]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unfairness_when_one_app_starves_dominates_the_other() {
        // App 0 is starved to 1% of alone speed while app 1 is barely
        // touched: unfairness is app 0's 100x slowdown, not app 1's 1.01x.
        let u = unfairness(&[0.01, 0.99], &[1.0, 1.0]);
        assert!((u - 100.0).abs() < 1e-9, "got {u}");
        // Order independence: swapping the apps reports the same maximum.
        let swapped = unfairness(&[0.99, 0.01], &[1.0, 1.0]);
        assert_eq!(u.to_bits(), swapped.to_bits());
    }

    #[test]
    fn empty_workload_metrics_are_identity_values() {
        assert_eq!(weighted_speedup(&[], &[]), 0.0);
        assert_eq!(unfairness(&[], &[]), 0.0);
    }
}
