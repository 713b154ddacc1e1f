//! Price Theory (PT): hierarchical market-based power allocation.
//!
//! Muthukaruppan et al. (ASPLOS 2014) allocate power to clusters of a
//! heterogeneous multi-core through price theory: a supervisor publishes a
//! power *price*, clusters bid demand curves, and an iterative price
//! adjustment (tâtonnement) clears the market so total demand equals the
//! supply (the power budget). The scheme is hierarchical and implemented
//! in software; its response time is dominated by the iteration count
//! times the per-level communication latency. The paper compares against
//! both the original software numbers and a hypothetical hardware
//! implementation scaled by 2.5 orders of magnitude (Section VI-D).
//!
//! [`PtMarket`] is that market as an explicit state machine: it *yields*
//! the protocol messages (price broadcasts out, demand bids back, a final
//! grant) instead of looping internally. The cycle-level engine drives
//! one per PM cluster, turning every yielded message into real NoC
//! traffic with per-hop timing — the same pattern the TokenSmart port
//! established.
//!
//! Degenerate budgets are detected up front: a supply at or above the
//! total maximum demand (or at or below the total minimum) cannot be
//! priced, so the market immediately grants the clamp vector instead of
//! burning the iteration cap. For feasible budgets the multiplicative
//! tâtonnement is followed, if it fails to converge within
//! [`PtMarket::MAX_ITERATIONS`], by a deterministic price bisection —
//! total demand is continuous and monotone in the price, so a feasible
//! market always clears.

/// One message step yielded by a [`PtMarket`].
///
/// `Quote` asks the driver to broadcast the price and collect one demand
/// bid per bidder (via [`PtMarket::submit_bid`]); `Grant` is the final
/// allocation and ends the session.
#[derive(Debug, Clone, PartialEq)]
pub enum PtStep {
    /// Broadcast `price` to every bidder and collect their demand bids.
    Quote {
        /// The price to quote this round.
        price: f64,
    },
    /// The market is done: apply the per-bidder grants.
    Grant {
        /// The final price.
        price: f64,
        /// Per-bidder grants (same order as the market vectors).
        grants: Vec<f64>,
        /// Whether total demand matched the budget within tolerance.
        cleared: bool,
    },
}

/// The market-clearing state machine: one tâtonnement session, stepped
/// from outside.
///
/// Each bidder has a *utility weight* (how much performance it gains per
/// mW, i.e. its willingness to pay) and a power range `[p_min, p_max]`.
/// At price `p`, bidder `i` demands `clamp(weight_i / p, p_min_i,
/// p_max_i)` — the classic iso-elastic demand curve. The supervisor
/// adjusts the price multiplicatively until total demand matches the
/// budget within a tolerance.
///
/// Protocol shape (the driver owns all messaging):
///
/// 1. [`PtMarket::begin`] yields the first [`PtStep::Quote`] — or an
///    immediate [`PtStep::Grant`] for a degenerate budget.
/// 2. For each quote, the driver obtains every bidder's demand at the
///    quoted price (in the engine: a price broadcast out and a bid
///    packet back per member) and records it with
///    [`PtMarket::submit_bid`].
/// 3. Once [`PtMarket::bids_complete`], [`PtMarket::step`] consumes the
///    round: it either converges to a [`PtStep::Grant`] or yields the
///    next [`PtStep::Quote`] at an adjusted price.
///
/// The price sequence is deterministic and independent of the
/// tolerance, so the iteration count at which the session first lands
/// inside the tolerance is monotone (non-increasing) in the tolerance.
#[derive(Debug, Clone)]
pub struct PtMarket {
    weights: Vec<f64>,
    p_min: Vec<f64>,
    p_max: Vec<f64>,
    budget: f64,
    tol: f64,
    price: f64,
    iterations: u32,
    bids: Vec<Option<f64>>,
    in_round: bool,
    done: bool,
    /// Bisection bracket: a price known to under-price the market
    /// (demand above budget) …
    lo: Option<f64>,
    /// … and one known to over-price it (demand below budget).
    hi: Option<f64>,
}

impl PtMarket {
    /// Creates a session over aligned bidder vectors for `budget`
    /// supply, with the analytic initial price `Σweights / budget` and
    /// the default tolerance.
    ///
    /// # Panics
    /// Panics on misaligned vectors, non-positive weights, invalid
    /// ranges, or a negative budget.
    pub fn new(weights: Vec<f64>, p_min: Vec<f64>, p_max: Vec<f64>, budget: f64) -> Self {
        assert!(budget >= 0.0, "budget must be non-negative");
        assert_eq!(weights.len(), p_min.len(), "market vectors must align");
        assert_eq!(weights.len(), p_max.len(), "market vectors must align");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        assert!(
            p_min
                .iter()
                .zip(&p_max)
                .all(|(lo, hi)| *lo >= 0.0 && hi >= lo),
            "power ranges must be valid"
        );
        let price = weights.iter().sum::<f64>() / budget.max(1e-12);
        let n = weights.len();
        PtMarket {
            weights,
            p_min,
            p_max,
            budget,
            tol: Self::default_tolerance(budget),
            price,
            iterations: 0,
            bids: vec![None; n],
            in_round: false,
            done: false,
            lo: None,
            hi: None,
        }
    }

    /// Overrides the initial quoted price (e.g. a warm start from the
    /// previous session's cleared price, or a cold `1.0` when the
    /// supervisor does not know the aggregate utility up front).
    ///
    /// # Panics
    /// Panics unless `price` is finite and positive, or if the session
    /// has already begun.
    #[must_use]
    pub fn with_initial_price(mut self, price: f64) -> Self {
        assert!(
            price.is_finite() && price > 0.0,
            "initial price must be positive"
        );
        assert!(!self.in_round && self.iterations == 0, "session started");
        self.price = price;
        self
    }

    /// Overrides the convergence tolerance.
    ///
    /// # Panics
    /// Panics unless `tol` is finite and positive.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol.is_finite() && tol > 0.0, "tolerance must be positive");
        self.tol = tol;
        self
    }

    /// Number of bidders.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the market has no bidders.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The budget (supply) this session clears against.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The currently quoted price.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// Tâtonnement iterations consumed so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Demand of bidder `i` at `price` — what the bidder itself computes
    /// when a quote reaches it.
    pub fn demand(&self, i: usize, price: f64) -> f64 {
        (self.weights[i] / price.max(1e-12)).clamp(self.p_min[i], self.p_max[i])
    }

    /// Starts the session: an immediate [`PtStep::Grant`] of the clamp
    /// vector for a degenerate budget, otherwise the first quote.
    ///
    /// # Panics
    /// Panics if the session already began.
    pub fn begin(&mut self) -> PtStep {
        assert!(
            !self.in_round && !self.done && self.iterations == 0,
            "session started"
        );
        let total_max: f64 = self.p_max.iter().sum();
        let total_min: f64 = self.p_min.iter().sum();
        if self.budget >= total_max {
            self.done = true;
            self.price = 0.0;
            return PtStep::Grant {
                price: 0.0,
                grants: self.p_max.clone(),
                cleared: true,
            };
        }
        if self.budget <= total_min {
            self.done = true;
            self.price = f64::INFINITY;
            return PtStep::Grant {
                price: f64::INFINITY,
                grants: self.p_min.clone(),
                cleared: true,
            };
        }
        self.in_round = true;
        PtStep::Quote { price: self.price }
    }

    /// Records bidder `i`'s demand bid for the current quote.
    ///
    /// # Panics
    /// Panics outside a quote round or for an out-of-range bidder.
    pub fn submit_bid(&mut self, i: usize, demand: f64) {
        assert!(self.in_round, "no quote outstanding");
        self.bids[i] = Some(demand);
    }

    /// Whether every bidder's bid for the current quote is in.
    pub fn bids_complete(&self) -> bool {
        self.in_round && self.bids.iter().all(Option::is_some)
    }

    /// Consumes a complete round of bids: converges to a
    /// [`PtStep::Grant`], or yields the next [`PtStep::Quote`]. The
    /// price follows the multiplicative tâtonnement for the first
    /// [`PtMarket::MAX_ITERATIONS`] rounds and a deterministic
    /// bisection of the bracketing prices after that.
    ///
    /// # Panics
    /// Panics unless [`PtMarket::bids_complete`].
    pub fn step(&mut self) -> PtStep {
        assert!(self.bids_complete(), "round is missing bids");
        let demand: f64 = self.bids.iter().map(|b| b.expect("complete")).sum();
        self.iterations += 1;
        if (demand - self.budget).abs() <= self.tol {
            self.done = true;
            self.in_round = false;
            let grants: Vec<f64> = self.bids.iter().map(|b| b.expect("complete")).collect();
            return PtStep::Grant {
                price: self.price,
                grants,
                cleared: true,
            };
        }
        if demand > self.budget {
            self.lo = Some(self.price);
        } else {
            self.hi = Some(self.price);
        }
        if self.iterations >= Self::MAX_ITERATIONS + Self::BISECT_ITERATIONS {
            self.done = true;
            self.in_round = false;
            let grants: Vec<f64> = self.bids.iter().map(|b| b.expect("complete")).collect();
            return PtStep::Grant {
                price: self.price,
                grants,
                cleared: false,
            };
        }
        if self.iterations < Self::MAX_ITERATIONS {
            // multiplicative tâtonnement: raise price on excess demand
            self.price *= (demand / self.budget).powf(0.8);
        } else {
            // fallback: bisect the bracket (total demand is monotone
            // non-increasing in price, so a feasible budget is always
            // bracketed eventually)
            self.price = match (self.lo, self.hi) {
                (Some(lo), Some(hi)) => (lo * hi).sqrt(),
                (Some(lo), None) => lo * 2.0,
                (None, Some(hi)) => hi / 2.0,
                (None, None) => unreachable!("every round brackets one side"),
            };
        }
        self.bids.fill(None);
        PtStep::Quote { price: self.price }
    }

    /// Iteration cap for the tâtonnement loop.
    pub const MAX_ITERATIONS: u32 = 200;

    /// Extra bisection rounds granted after the tâtonnement cap.
    const BISECT_ITERATIONS: u32 = 100;

    /// The default convergence tolerance for a `budget_mw` market.
    pub fn default_tolerance(budget_mw: f64) -> f64 {
        (budget_mw * 1e-3).max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitzcoin_sim::check::forall;
    use blitzcoin_sim::{ensure, SimRng};

    /// How a driven session ended.
    #[derive(Debug)]
    struct Outcome {
        price: f64,
        grants: Vec<f64>,
        iterations: u32,
        cleared: bool,
    }

    /// Drives `session` to its grant with every bidder bidding its own
    /// demand at each quote: the engine's protocol with the NoC taken out.
    fn clear(mut session: PtMarket) -> Outcome {
        let mut step = session.begin();
        loop {
            match step {
                PtStep::Quote { price } => {
                    for i in 0..session.len() {
                        session.submit_bid(i, session.demand(i, price));
                    }
                    step = session.step();
                }
                PtStep::Grant {
                    price,
                    grants,
                    cleared,
                } => {
                    return Outcome {
                        price,
                        grants,
                        iterations: session.iterations(),
                        cleared,
                    }
                }
            }
        }
    }

    fn market(budget: f64) -> PtMarket {
        PtMarket::new(
            vec![1.0, 2.0, 4.0],
            vec![5.0, 5.0, 5.0],
            vec![100.0, 100.0, 100.0],
            budget,
        )
    }

    /// A random, always-valid market with up to 12 bidders, as
    /// `(weights, p_min, p_max)`.
    fn any_market(rng: &mut SimRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = rng.range_usize(1..13);
        let weights: Vec<f64> = (0..n).map(|_| 0.1 + rng.unit_f64() * 10.0).collect();
        let p_min: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 5.0).collect();
        let p_max: Vec<f64> = p_min
            .iter()
            .map(|&lo| lo + 0.1 + rng.unit_f64() * 100.0)
            .collect();
        (weights, p_min, p_max)
    }

    #[test]
    fn clears_to_budget() {
        let out = clear(market(150.0));
        assert!(out.cleared);
        let total: f64 = out.grants.iter().sum();
        assert!((total - 150.0).abs() <= 0.2, "total={total}");
    }

    #[test]
    fn grants_follow_utility() {
        let out = clear(market(150.0));
        assert!(out.grants[0] < out.grants[1]);
        assert!(out.grants[1] < out.grants[2]);
    }

    #[test]
    fn abundant_budget_grants_maximum() {
        let out = clear(market(1000.0));
        assert!(out.cleared);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.grants, vec![100.0, 100.0, 100.0]);
    }

    #[test]
    fn scarce_budget_grants_minimum() {
        let out = clear(market(10.0));
        assert!(out.cleared);
        assert_eq!(out.grants, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn grants_respect_ranges() {
        for budget in [20.0, 50.0, 120.0, 250.0] {
            let out = clear(market(budget));
            for (i, g) in out.grants.iter().enumerate() {
                assert!(*g >= 5.0 - 1e-9 && *g <= 100.0 + 1e-9, "cluster {i}: {g}");
            }
        }
    }

    #[test]
    fn many_cluster_market_scales() {
        let n = 256;
        let out = clear(PtMarket::new(
            (1..=n).map(|i| i as f64).collect(),
            vec![1.0; n],
            vec![50.0; n],
            2000.0,
        ));
        assert!(out.cleared, "{out:?}");
        let total: f64 = out.grants.iter().sum();
        assert!((total - 2000.0).abs() <= 2.0);
    }

    #[test]
    fn stepping_machine_reproduces_clear_exactly() {
        // Pin the message protocol: a session driven by hand, with bids
        // arriving in reverse order, completes a round only on its last
        // bid and lands on the identical outcome.
        for budget in [10.0, 20.0, 150.0, 250.0, 1000.0] {
            let out = clear(market(budget));
            let mut session = market(budget);
            let mut step = session.begin();
            let mut rounds = 0u32;
            let hand = loop {
                match step {
                    PtStep::Quote { price } => {
                        rounds += 1;
                        for i in (0..session.len()).rev() {
                            assert!(!session.bids_complete());
                            session.submit_bid(i, session.demand(i, price));
                        }
                        assert!(session.bids_complete());
                        step = session.step();
                    }
                    PtStep::Grant {
                        price,
                        grants,
                        cleared,
                    } => break (price, grants, cleared),
                }
            };
            assert_eq!(hand, (out.price, out.grants, out.cleared), "at {budget}");
            assert_eq!(session.iterations(), out.iterations);
            assert_eq!(rounds, out.iterations);
        }
    }

    #[test]
    fn warm_started_market_still_clears() {
        let cold = clear(market(150.0));
        let warm = clear(market(150.0).with_initial_price(1.0));
        assert!(warm.cleared);
        // a different starting price converges to the same equilibrium
        for (a, b) in warm.grants.iter().zip(&cold.grants) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn forall_grants_stay_within_ranges() {
        forall("pt grants within [p_min, p_max]", 64, |rng| {
            let (weights, p_min, p_max) = any_market(rng);
            let total_max: f64 = p_max.iter().sum();
            let budget = rng.unit_f64() * total_max * 1.2;
            let out = clear(PtMarket::new(weights, p_min.clone(), p_max.clone(), budget));
            for (i, g) in out.grants.iter().enumerate() {
                ensure!(
                    *g >= p_min[i] - 1e-9 && *g <= p_max[i] + 1e-9,
                    "bidder {i}: grant {g} outside [{}, {}] at budget {budget}",
                    p_min[i],
                    p_max[i]
                );
            }
            Ok(())
        });
    }

    #[test]
    fn forall_feasible_budgets_clear_within_tolerance() {
        forall("pt cleared implies sum within tol", 64, |rng| {
            let (weights, p_min, p_max) = any_market(rng);
            let total_min: f64 = p_min.iter().sum();
            let total_max: f64 = p_max.iter().sum();
            // strictly feasible: supply between the clamp totals
            let budget = total_min + (0.01 + rng.unit_f64() * 0.98) * (total_max - total_min);
            let out = clear(PtMarket::new(weights, p_min, p_max, budget));
            ensure!(
                out.cleared,
                "feasible budget {budget} failed to clear: {out:?}"
            );
            let total: f64 = out.grants.iter().sum();
            let tol = PtMarket::default_tolerance(budget);
            ensure!(
                (total - budget).abs() <= tol + 1e-12,
                "cleared but Σgrants {total} misses budget {budget} beyond tol {tol}"
            );
            Ok(())
        });
    }

    #[test]
    fn forall_degenerate_budgets_grant_clamps_immediately() {
        forall("pt degenerate budgets clamp up front", 48, |rng| {
            let (weights, p_min, p_max) = any_market(rng);
            let total_min: f64 = p_min.iter().sum();
            let total_max: f64 = p_max.iter().sum();
            let session =
                |budget| PtMarket::new(weights.clone(), p_min.clone(), p_max.clone(), budget);
            let scarce = clear(session(total_min * rng.unit_f64()));
            ensure!(
                scarce.iterations == 0 && scarce.cleared,
                "scarce budget must short-circuit: {scarce:?}"
            );
            ensure!(scarce.grants == p_min, "scarce grants must clamp low");
            let abundant = clear(session(total_max * (1.0 + rng.unit_f64())));
            ensure!(
                abundant.iterations == 0 && abundant.cleared,
                "abundant budget must short-circuit: {abundant:?}"
            );
            ensure!(abundant.grants == p_max, "abundant grants must clamp high");
            Ok(())
        });
    }

    #[test]
    fn forall_iterations_monotone_in_tolerance() {
        forall("pt iterations monotone in tol", 48, |rng| {
            let (weights, p_min, p_max) = any_market(rng);
            let total_min: f64 = p_min.iter().sum();
            let total_max: f64 = p_max.iter().sum();
            let budget = total_min + (0.01 + rng.unit_f64() * 0.98) * (total_max - total_min);
            // loosening the tolerance can only stop the (fixed) price
            // sequence earlier, never later
            let mut last = 0u32;
            for tol in [budget * 0.1, budget * 1e-2, budget * 1e-3, budget * 1e-5] {
                let session = PtMarket::new(weights.clone(), p_min.clone(), p_max.clone(), budget)
                    .with_tolerance(tol.max(1e-9));
                let out = clear(session);
                ensure!(
                    out.iterations >= last,
                    "iterations dropped from {last} to {} as tol tightened to {tol}",
                    out.iterations
                );
                last = out.iterations;
            }
            Ok(())
        });
    }
}
