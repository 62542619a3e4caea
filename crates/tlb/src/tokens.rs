//! TLB-Fill Tokens: epoch-based fill throttling for the shared L2 TLB.
//!
//! Mechanism ❶ of MASK (§5.2). Every epoch (100K cycles) the controller
//! observes each application's shared-L2-TLB miss rate and adjusts how many
//! of its warps may *fill* the shared TLB. Tokens are assigned one per warp
//! in warp-ID order ("if there are `n` tokens, the `n` warps with the
//! lowest warp ID values receive tokens"); tokenless warps fill only the
//! bypass cache. During the first epoch no bypassing is performed.
//!
//! Two adjustment policies are provided:
//!
//! * [`TokenPolicyKind::Literal`] — §5.2's text verbatim: miss rate up by >2%
//!   → fewer tokens; down by >2% → more tokens; otherwise unchanged. In
//!   steady state (constant miss rate) this controller never moves.
//! * [`TokenPolicyKind::HillClimb`] (default) — the controller implied by
//!   §7.4's hardware budget, which includes "30 1-bit direction registers
//!   to record whether the token count increased or decreased during the
//!   previous epoch": every epoch the count takes a step in the current
//!   direction, and the direction *reverses* when the miss rate worsened
//!   by more than the 2% threshold. This searches for the token count that
//!   minimizes the app's shared-TLB miss rate and keeps searching as
//!   contention changes.
//!
//! The policy is [`MaskParams::token_policy`].

use mask_common::config::{MaskParams, TokenPolicyKind};
use mask_common::ids::Asid;

#[derive(Debug)]
struct AppTokens {
    /// Cores assigned to this application.
    n_cores: u64,
    /// Warp contexts per core.
    warps_per_core: u64,
    /// Current token count (warps allowed to fill the shared L2 TLB).
    tokens: u64,
    /// Miss rate observed in the previous epoch.
    prev_miss_rate: Option<f64>,
    /// §7.4 direction register: +1 = growing, -1 = shedding tokens.
    direction: i8,
    /// True until the first epoch boundary (no bypassing during warm-up).
    warmup: bool,
}

impl AppTokens {
    fn total_warps(&self) -> u64 {
        self.n_cores * self.warps_per_core
    }
}

/// The per-application token controller.
#[derive(Debug)]
pub struct TokenAllocator {
    apps: Vec<AppTokens>,
    policy: TokenPolicyKind,
    initial_frac: f64,
    delta: f64,
    step_frac: f64,
}

impl TokenAllocator {
    /// Creates a controller for applications with the given core counts,
    /// adjusting under `params.token_policy`.
    ///
    /// `cores_per_app[i]` is the number of GPU cores assigned to the
    /// application in address space `i`; every core has `warps_per_core`
    /// warp contexts.
    pub fn new(params: &MaskParams, cores_per_app: &[usize], warps_per_core: usize) -> Self {
        let apps = cores_per_app
            .iter()
            .map(|&c| AppTokens {
                n_cores: c as u64,
                warps_per_core: warps_per_core as u64,
                tokens: c as u64 * warps_per_core as u64, // all warps until first epoch
                prev_miss_rate: None,
                direction: -1, // start by shedding: sharing implies contention
                warmup: true,
            })
            .collect();
        TokenAllocator {
            apps,
            policy: params.token_policy,
            initial_frac: params.initial_tokens_frac,
            delta: params.miss_rate_delta,
            step_frac: params.token_step_frac,
        }
    }

    /// Current token count for `asid`.
    pub fn tokens(&self, asid: Asid) -> u64 {
        self.apps.get(asid.index()).map_or(0, |a| a.tokens)
    }

    /// Whether the warp in slot `warp_id` on the app's `core_rank`-th core
    /// currently holds a fill token.
    ///
    /// The app's tokens are spread evenly over its cores; within each core
    /// the lowest-numbered warp slots hold them.
    pub fn warp_has_token(&self, asid: Asid, core_rank: usize, warp_id: usize) -> bool {
        let Some(app) = self.apps.get(asid.index()) else {
            return true;
        };
        if app.warmup {
            return true;
        }
        let quota = Self::core_quota(app, core_rank as u64);
        (warp_id as u64) < quota
    }

    fn core_quota(app: &AppTokens, core_rank: u64) -> u64 {
        if app.n_cores == 0 {
            return 0;
        }
        let base = app.tokens / app.n_cores;
        let rem = app.tokens % app.n_cores;
        base + u64::from(core_rank < rem)
    }

    /// Advances one application across an epoch boundary.
    ///
    /// `miss_rate` is the app's shared-L2-TLB miss rate over the ending
    /// epoch, `None` if it did not probe the TLB; such an app keeps its
    /// allocation unchanged.
    pub fn end_epoch(&mut self, asid: Asid, miss_rate: Option<f64>) {
        let delta = self.delta;
        let initial_frac = self.initial_frac;
        let step_frac = self.step_frac;
        let policy = self.policy;
        let Some(app) = self.apps.get_mut(asid.index()) else {
            return;
        };
        if app.warmup {
            // "After the first epoch, the initial number of tokens for each
            // application is set to a predetermined fraction of the total
            // number of warps per application." (§5.2)
            app.warmup = false;
            app.tokens = ((app.total_warps() as f64 * initial_frac).round() as u64)
                .clamp(1, app.total_warps());
            // An idle warm-up epoch is remembered as a miss rate of 0.
            app.prev_miss_rate = Some(miss_rate.unwrap_or(0.0));
            mask_obs::hooks::token_epoch(asid.index() as u16, app.tokens, app.total_warps());
            return;
        }
        let Some(miss_rate) = miss_rate else {
            return;
        };
        let prev = app.prev_miss_rate.unwrap_or(miss_rate);
        let step = ((app.total_warps() as f64 * step_frac).round() as u64).max(1);
        match policy {
            TokenPolicyKind::Literal => {
                if miss_rate > prev + delta {
                    app.tokens = app.tokens.saturating_sub(step).max(1);
                } else if miss_rate + delta < prev {
                    app.tokens = (app.tokens + step).min(app.total_warps());
                }
            }
            TokenPolicyKind::HillClimb => {
                // Reverse direction when the last move made things worse.
                if miss_rate > prev + delta {
                    app.direction = -app.direction;
                }
                if app.direction > 0 {
                    app.tokens = (app.tokens + step).min(app.total_warps());
                } else {
                    app.tokens = app.tokens.saturating_sub(step).max(1);
                }
            }
        }
        app.prev_miss_rate = Some(miss_rate);
        mask_obs::hooks::token_epoch(asid.index() as u16, app.tokens, app.total_warps());
    }
}

impl mask_common::snapshot::Snapshot for TokenAllocator {
    /// Serializes only the adaptive per-app state; the policy, core/warp
    /// geometry, and tuning fractions are config-derived.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("tokens");
        w.seq(self.apps.len());
        for app in &self.apps {
            w.u64(app.tokens);
            w.bool(app.prev_miss_rate.is_some());
            w.f64(app.prev_miss_rate.unwrap_or(0.0));
            w.i8(app.direction);
            w.bool(app.warmup);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_with(token_policy: TokenPolicyKind) -> TokenAllocator {
        let params = MaskParams {
            token_policy,
            ..MaskParams::default()
        };
        // Two apps: 2 cores and 3 cores, 8 warps per core.
        TokenAllocator::new(&params, &[2, 3], 8)
    }

    fn alloc() -> TokenAllocator {
        alloc_with(TokenPolicyKind::Literal)
    }

    #[test]
    fn warmup_grants_all_tokens() {
        let a = alloc();
        for core in 0..2 {
            for w in 0..8 {
                assert!(a.warp_has_token(Asid::new(0), core, w));
            }
        }
        assert_eq!(a.tokens(Asid::new(0)), 16);
    }

    #[test]
    fn first_epoch_sets_initial_fraction() {
        let mut a = alloc();
        a.end_epoch(Asid::new(0), Some(0.5));
        // 80% of 16 warps = 13 tokens (rounded): 7 on core 0, 6 on core 1.
        assert_eq!(a.tokens(Asid::new(0)), 13);
        assert!(a.warp_has_token(Asid::new(0), 1, 5));
        assert!(!a.warp_has_token(Asid::new(0), 1, 6), "warm-up is over");
    }

    #[test]
    fn literal_rising_miss_rate_shrinks_tokens() {
        let mut a = alloc();
        a.end_epoch(Asid::new(0), Some(0.50));
        let t0 = a.tokens(Asid::new(0));
        a.end_epoch(Asid::new(0), Some(0.60)); // +10% > 2% delta
        assert!(a.tokens(Asid::new(0)) < t0);
    }

    #[test]
    fn literal_falling_miss_rate_grows_tokens() {
        let mut a = alloc();
        a.end_epoch(Asid::new(0), Some(0.50));
        let t0 = a.tokens(Asid::new(0));
        a.end_epoch(Asid::new(0), Some(0.30)); // -20% < -2% delta
        assert!(a.tokens(Asid::new(0)) > t0);
    }

    #[test]
    fn literal_stable_miss_rate_keeps_tokens() {
        let mut a = alloc();
        a.end_epoch(Asid::new(0), Some(0.50));
        let t0 = a.tokens(Asid::new(0));
        a.end_epoch(Asid::new(0), Some(0.51)); // within ±2%
        assert_eq!(a.tokens(Asid::new(0)), t0);
    }

    #[test]
    fn hill_climb_explores_under_stable_miss_rate() {
        let mut a = alloc_with(TokenPolicyKind::HillClimb);
        a.end_epoch(Asid::new(0), Some(0.50));
        let t0 = a.tokens(Asid::new(0));
        a.end_epoch(Asid::new(0), Some(0.50));
        assert_ne!(a.tokens(Asid::new(0)), t0, "hill climber must keep probing");
        // Initial direction sheds tokens (contention assumption).
        assert!(a.tokens(Asid::new(0)) < t0);
    }

    #[test]
    fn hill_climb_reverses_when_worse() {
        let mut a = alloc_with(TokenPolicyKind::HillClimb);
        a.end_epoch(Asid::new(0), Some(0.50));
        let t0 = a.tokens(Asid::new(0));
        // Shedding made things much worse twice: direction flips to +1.
        a.end_epoch(Asid::new(0), Some(0.60));
        let t1 = a.tokens(Asid::new(0));
        assert!(t1 > t0 - 3, "after reversal the count climbs back");
        a.end_epoch(Asid::new(0), Some(0.58)); // improved: keep climbing
        assert!(a.tokens(Asid::new(0)) >= t1);
    }

    #[test]
    fn tokens_bounded_by_one_and_total() {
        for policy in [TokenPolicyKind::Literal, TokenPolicyKind::HillClimb] {
            let mut a = alloc_with(policy);
            a.end_epoch(Asid::new(0), Some(0.1));
            let mut rate: f64 = 0.1;
            for _ in 0..50 {
                rate += 0.05;
                a.end_epoch(Asid::new(0), Some(rate.min(1.0)));
            }
            assert!(a.tokens(Asid::new(0)) >= 1, "{policy:?}");
            for _ in 0..50 {
                rate -= 0.05;
                a.end_epoch(Asid::new(0), Some(rate.max(0.0)));
            }
            assert!(a.tokens(Asid::new(0)) <= 16, "{policy:?}");
        }
    }

    #[test]
    fn tokens_assigned_to_lowest_warp_ids() {
        let mut a = alloc();
        a.end_epoch(Asid::new(1), Some(0.5)); // 80% of 24 = 19 tokens over 3 cores
        let tokens = a.tokens(Asid::new(1));
        assert_eq!(tokens, 19);
        let mut granted = 0;
        for core in 0..3 {
            let mut boundary_seen = false;
            for w in 0..8 {
                let has = a.warp_has_token(Asid::new(1), core, w);
                granted += u64::from(has);
                // Once a warp lacks a token, all higher warp IDs lack one too.
                if !has {
                    boundary_seen = true;
                }
                if boundary_seen {
                    assert!(!has);
                }
            }
        }
        assert_eq!(granted, tokens);
    }

    #[test]
    fn idle_app_allocation_unchanged() {
        let mut a = alloc();
        a.end_epoch(Asid::new(0), Some(0.5));
        let t0 = a.tokens(Asid::new(0));
        a.end_epoch(Asid::new(0), None); // no L2 TLB probe: no miss rate
        assert_eq!(a.tokens(Asid::new(0)), t0);

        // An idle warm-up epoch still ends warm-up, and counts as a miss
        // rate of 0: the first measured rate above 2 % sheds tokens.
        let mut b = alloc();
        b.end_epoch(Asid::new(0), None);
        assert_eq!(b.tokens(Asid::new(0)), 13);
        b.end_epoch(Asid::new(0), Some(0.05));
        assert!(b.tokens(Asid::new(0)) < 13);
    }

    #[test]
    fn unknown_asid_defaults_to_token() {
        let a = alloc();
        assert!(a.warp_has_token(Asid::new(9), 0, 0));
        assert_eq!(a.tokens(Asid::new(9)), 0);
    }

    #[test]
    fn default_policy_is_hill_climb() {
        let a = TokenAllocator::new(&MaskParams::default(), &[1], 8);
        assert_eq!(a.policy, TokenPolicyKind::HillClimb);
        // `new` follows `params.token_policy`, whichever value it holds.
        for kind in [TokenPolicyKind::Literal, TokenPolicyKind::HillClimb] {
            assert_eq!(alloc_with(kind).policy, kind);
        }
    }
}
