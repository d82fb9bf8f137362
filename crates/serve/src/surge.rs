//! Adaptive admission and the brownout ladder.
//!
//! Under sustained overload a daemon has two bad options — queue without
//! bound (and fall over later) or reject blindly (and starve well-behaved
//! clients). [`SurgeController`] implements the third: *deliberate,
//! observable degradation*. It watches admission pressure (the pending
//! backlog against the cap, and every rejection) and walks a four-level
//! ladder:
//!
//! | level | label            | effect                                       |
//! |-------|------------------|----------------------------------------------|
//! | 0     | `normal`         | none                                         |
//! | 1     | `l1-budget`      | Solve budgets ÷ 4, longer retry hints        |
//! | 2     | `l2-deep-budget` | Solve budgets ÷ 16; bursts with no top-tier device face a ¾ admission cap |
//! | 3     | `l3-tier-shed`   | as L2, but those bursts face a halved cap    |
//!
//! Every level solves on the same exact, maintained delays: brownout
//! shrinks the work a Solve may spend, never the accuracy of what it
//! reports.
//!
//! Escalation is immediate (one level per pressured observation);
//! recovery is **hysteretic** — it takes
//! [`SurgeConfig::recover_after`] consecutive calm observations to step
//! *down* one level, so a flapping load cannot make the daemon oscillate.
//! Every input is a deterministic function of the request sequence
//! (queue depths, never wall clock), so same-seed sessions walk — and
//! log — byte-identical ladders.
//!
//! Transitions are counted on `surge.degrades` / `surge.recovers`, the
//! current level is exported on the `surge.level` gauge, and shed
//! decisions on the `serve.backpressure.*` counters.

/// Brownout ladder tuning; part of [`crate::ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeConfig {
    /// Whether the ladder may leave level 0 (admission control and
    /// retry hints stay active either way).
    pub brownout: bool,
    /// Backlog ratio (`pending / max_pending`) at or above which an
    /// observation counts as pressured even without a rejection.
    pub high_water: f64,
    /// Backlog ratio at or below which an observation counts as calm.
    pub low_water: f64,
    /// Consecutive calm observations required per one-level step-down.
    pub recover_after: u32,
}

impl Default for SurgeConfig {
    /// Ladder on, pressured at 75 % backlog, calm under 25 %, three calm
    /// observations per recovery step.
    fn default() -> Self {
        SurgeConfig { brownout: true, high_water: 0.75, low_water: 0.25, recover_after: 3 }
    }
}

/// The hysteretic brownout state machine. See the module docs.
#[derive(Debug)]
pub struct SurgeController {
    cfg: SurgeConfig,
    level: u8,
    calm_streak: u32,
}

/// The deepest ladder level.
const MAX_LEVEL: u8 = 3;

impl SurgeController {
    /// A controller at level 0 (`normal`).
    pub fn new(cfg: SurgeConfig) -> SurgeController {
        SurgeController { cfg, level: 0, calm_streak: 0 }
    }

    /// The current ladder level (0–3).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The current level's stable label (`normal`, `l1-budget`,
    /// `l2-deep-budget`, `l3-tier-shed`).
    pub fn label(&self) -> &'static str {
        match self.level {
            0 => "normal",
            1 => "l1-budget",
            2 => "l2-deep-budget",
            _ => "l3-tier-shed",
        }
    }

    /// Feeds one admission observation (after a `Push` was admitted or
    /// rejected) into the ladder. `pending` is the backlog at decision
    /// time; `rejected` whether this push was shed. Deterministic: the
    /// ladder trajectory is a pure function of the observation sequence.
    pub fn observe(&mut self, pending: usize, max_pending: usize, rejected: bool) {
        let ratio = pending as f64 / max_pending.max(1) as f64;
        if rejected || ratio >= self.cfg.high_water {
            self.calm_streak = 0;
            if self.cfg.brownout && self.level < MAX_LEVEL {
                self.level += 1;
                tacc_obs::counter_add("surge.degrades", 1);
                tacc_obs::gauge_set("surge.level", f64::from(self.level));
            }
        } else if ratio <= self.cfg.low_water {
            self.calm_streak += 1;
            if self.level > 0 && self.calm_streak >= self.cfg.recover_after.max(1) {
                self.level -= 1;
                self.calm_streak = 0;
                tacc_obs::counter_add("surge.recovers", 1);
                tacc_obs::gauge_set("surge.level", f64::from(self.level));
            }
        } else {
            // Between the watermarks: neither pressure nor recovery
            // evidence — the streak survives, the level holds.
        }
    }

    /// The admission cap a burst faces. Top-tier traffic always gets the
    /// full `max_pending`; under deep brownout a burst carrying *no*
    /// top-tier device is judged against a tightened cap — the
    /// shed-lowest-tiers-first rule, as deferral (the client retries into
    /// admission once pressure drops), never as data loss.
    pub fn effective_cap(&self, max_pending: usize, low_tier: bool) -> usize {
        match (self.level, low_tier) {
            (3, true) => max_pending / 2,
            (2, true) => max_pending * 3 / 4,
            _ => max_pending,
        }
    }

    /// The deterministic `RetryAfter` hint for a rejected burst: how many
    /// coalesced batches must drain before the backlog clears, in 10 ms
    /// quanta, scaled by the brownout level — a pure function of counts,
    /// never of wall clock.
    pub fn retry_after_ms(&self, pending: usize, batch_size: usize) -> u64 {
        let batches = ((pending / batch_size.max(1)) as u64).saturating_add(1);
        batches.saturating_mul(10 << self.level).min(5_000)
    }

    /// The Solve work budget after brownout cuts: ÷4 at level 1, ÷16 at
    /// level 2 and deeper, never below one unit.
    pub fn solve_budget(&self, units: u64) -> u64 {
        match self.level {
            0 => units,
            1 => (units / 4).max(1),
            _ => (units / 16).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_under_rejections_and_saturates() {
        let mut c = SurgeController::new(SurgeConfig::default());
        assert_eq!((c.level(), c.label()), (0, "normal"));
        c.observe(100, 100, true);
        assert_eq!((c.level(), c.label()), (1, "l1-budget"));
        c.observe(100, 100, true);
        assert_eq!((c.level(), c.label()), (2, "l2-deep-budget"));
        c.observe(100, 100, true);
        c.observe(100, 100, true);
        assert_eq!((c.level(), c.label()), (3, "l3-tier-shed"), "saturates at 3");
    }

    #[test]
    fn high_backlog_alone_is_pressure() {
        let mut c = SurgeController::new(SurgeConfig::default());
        c.observe(80, 100, false);
        assert_eq!(c.level(), 1);
    }

    #[test]
    fn recovery_is_hysteretic() {
        let cfg = SurgeConfig { recover_after: 3, ..SurgeConfig::default() };
        let mut c = SurgeController::new(cfg);
        c.observe(0, 100, true);
        c.observe(0, 100, true);
        assert_eq!(c.level(), 2);
        // Two calm observations are not enough...
        c.observe(10, 100, false);
        c.observe(10, 100, false);
        assert_eq!(c.level(), 2);
        // ...the third steps down one level; the streak resets.
        c.observe(10, 100, false);
        assert_eq!(c.level(), 1);
        c.observe(10, 100, false);
        c.observe(10, 100, false);
        assert_eq!(c.level(), 1);
        c.observe(10, 100, false);
        assert_eq!(c.level(), 0);
        // A mid-streak pressured observation resets the streak.
        c.observe(0, 100, true);
        c.observe(10, 100, false);
        c.observe(10, 100, false);
        c.observe(90, 100, false);
        c.observe(10, 100, false);
        c.observe(10, 100, false);
        assert_eq!(c.level(), 2, "streak was reset by the pressured observation");
    }

    #[test]
    fn mid_band_observations_hold_the_level_and_the_streak() {
        let cfg = SurgeConfig { recover_after: 2, ..SurgeConfig::default() };
        let mut c = SurgeController::new(cfg);
        c.observe(0, 100, true);
        c.observe(10, 100, false); // calm 1
        c.observe(50, 100, false); // mid-band: holds
        c.observe(10, 100, false); // calm 2 -> recover
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn brownout_off_pins_the_ladder_but_keeps_hints() {
        let cfg = SurgeConfig { brownout: false, ..SurgeConfig::default() };
        let mut c = SurgeController::new(cfg);
        c.observe(100, 100, true);
        c.observe(100, 100, true);
        assert_eq!(c.level(), 0);
        assert!(c.retry_after_ms(100, 64) > 0);
    }

    #[test]
    fn tier_caps_tighten_with_depth_only_for_low_tier_bursts() {
        let mut c = SurgeController::new(SurgeConfig::default());
        for _ in 0..3 {
            c.observe(100, 100, true);
        }
        assert_eq!(c.level(), 3);
        assert_eq!(c.effective_cap(100, false), 100, "top tier keeps the full cap");
        assert_eq!(c.effective_cap(100, true), 50);
    }

    #[test]
    fn retry_hints_grow_with_backlog_and_level_and_are_capped() {
        let mut c = SurgeController::new(SurgeConfig::default());
        let calm = c.retry_after_ms(64, 64);
        assert_eq!(calm, 20, "one full batch pending -> two quanta");
        c.observe(100, 100, true);
        assert_eq!(c.retry_after_ms(64, 64), 40, "level 1 doubles the hint");
        assert_eq!(c.retry_after_ms(usize::MAX, 1), 5_000, "hard cap");
    }

    #[test]
    fn solve_budgets_shrink_with_level() {
        let mut c = SurgeController::new(SurgeConfig::default());
        assert_eq!(c.solve_budget(2000), 2000);
        c.observe(100, 100, true);
        assert_eq!(c.solve_budget(2000), 500);
        c.observe(100, 100, true);
        assert_eq!(c.solve_budget(2000), 125);
        assert_eq!(c.solve_budget(3), 1, "never zero");
    }
}
