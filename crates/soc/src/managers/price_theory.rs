//! Price Theory in the engine: the ASPLOS 2014 hierarchical market
//! promoted from a behavioural model to a full protocol over real NoC
//! packets.
//!
//! One market runs per PM cluster (the same domains BlitzCoin exchanges
//! within, so the comparison is like for like). The member at cluster
//! slot 0 boots as the cluster's *supervisor*: its hardware market unit
//! embeds the behavioural [`PtMarket`] tâtonnement as its pricing brain,
//! and every round of the iteration is real traffic — a serialized price
//! quote to each bidder, a demand bid back, a price step, and finally a
//! grant write per member. This policy supplies what the behavioural
//! model abstracts away: per-hop quote/bid/grant latency under
//! contention, and death of members or of the supervisor itself.
//!
//! Fault handling mirrors BlitzCoin's heartbeat-reclaim contract:
//!
//! - A member that stays silent for [`BID_TIMEOUTS`] consecutive bid
//!   timeouts is inspected. A dead member is drained into the
//!   supervisor's ledger (`CoinAudit::record_reclaim`) and leaves the
//!   market; a live one whose bid is merely late is re-quoted.
//! - Every non-supervisor member runs a periodic watchdog over the
//!   supervisor. After [`SUP_TIMEOUTS`] silent periods it inspects the
//!   supervisor's fault state; if the supervisor is dead, the
//!   lowest-slot live member takes over the market unit, reclaims its
//!   predecessor's ledger, and restarts the session.
//!
//! Conservation: grants commit at packet *arrival*, and the difference
//! between a member's old and new holdings moves through the market's
//! `escrow` — the policy's coins-in-flight — so
//! `Core::audit_cluster_conservation` balances at every commit even
//! while half the grants are still travelling.

use blitzcoin_baselines::{PtMarket, PtStep};
use blitzcoin_noc::{Packet, PacketKind, Plane, TileId};
use blitzcoin_sim::SimTime;

use crate::engine::events::{ManagerEv, PtMsg};
use crate::engine::{Core, Ev};
use crate::managers::blitzcoin::EXCHANGE_TIMING;
use crate::managers::ManagerPolicy;
use crate::report::{ResponseSample, SimReport};

/// Supervisor service time per member per tâtonnement round (serialize
/// the quote, ingest the bid, step the price), in NoC cycles. Calibrated
/// like BC-C's central FSM — a hardware market unit, so the scheme's
/// O(iterations) messaging, not the arithmetic, dominates its response
/// time.
const ROUND_CYCLES: u64 = 160;

/// Consecutive bid timeouts before the supervisor concludes a member is
/// gone and triggers recovery (same threshold as BlitzCoin's partner
/// heartbeat).
const BID_TIMEOUTS: u32 = 3;

/// Consecutive silent watchdog periods before a member concludes the
/// supervisor is gone.
const SUP_TIMEOUTS: u32 = 3;

/// NoC cycles between a member's supervisor-liveness watchdog fires
/// (~10 µs at 800 MHz) — long against a tâtonnement round, short against
/// a run.
const WATCHDOG_CYCLES: u64 = 8_192;

/// The tâtonnement tolerance in coins. Strictly below one coin, so the
/// integerized grants can always be distributed by largest remainder
/// without overshooting the budget.
const COIN_TOL: f64 = 0.5;

/// Where a market currently is in its session protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No session running; the last one converged and committed.
    Idle,
    /// Quotes are out; the supervisor is collecting demand bids.
    Quoting,
    /// The market cleared; grant writes are travelling to the members.
    Granting,
}

/// One per-cluster market: the managed tiles of one PM cluster, priced
/// by the member currently holding the supervisor role.
struct Market {
    /// Managed tile ids, in cluster order (slot -> tile id).
    members: Vec<usize>,
    /// Slot of the member whose market unit runs the tâtonnement.
    supervisor: usize,
    /// Members still participating (false once detected dead).
    live: Vec<bool>,
    /// Supervisor-side bid-silence strikes per member slot.
    suspicion: Vec<u32>,
    /// Member-side: saw supervisor traffic since the last watchdog fire.
    heard: Vec<bool>,
    /// Member-side silent-watchdog strikes against the supervisor.
    sup_suspicion: Vec<u32>,
    /// Session/round generation; events carrying a stale `gen` are
    /// ignored, which retires every in-flight message on restart,
    /// takeover, or round advance.
    gen: u64,
    /// The behavioural pricing machine of the current session.
    machine: Option<PtMarket>,
    /// Bidder slots of the current session (live members with demand).
    bidders: Vec<usize>,
    /// Which bidders' bids arrived this round.
    bid_in: Vec<bool>,
    phase: Phase,
    /// Per-slot coin targets of the current grant phase.
    grants: Vec<i64>,
    /// Per-slot: a grant write is still outstanding.
    grant_needed: Vec<bool>,
    /// Outstanding remote grant commits.
    grants_out: usize,
    /// Grant phase wave: decreases commit first (filling the escrow),
    /// and only then do increases draw it down — so the escrow never
    /// goes negative and the live ledgers never transiently exceed the
    /// budget ceiling.
    granting_up: bool,
    /// This session's total supply in coins.
    budget: i64,
    /// Coins between ledgers: debited at each commit arrival and
    /// reabsorbed into the next session's budget. The policy's
    /// coins-in-flight.
    escrow: i64,
    /// Whether the last `PtMarket` session cleared.
    session_cleared: bool,
    /// Activity changed since the session started; re-clear when it ends.
    dirty: bool,
    /// Last cleared price — warm start for the next session.
    warm_price: Option<f64>,
}

impl Market {
    /// Every member is dead: the market can never act again.
    fn is_dead(&self, core: &Core) -> bool {
        !self.members.is_empty() && self.members.iter().all(|&ti| core.tiles[ti].faulted)
    }

    /// Whether this market would block the response drain: it has live
    /// members but is mid-session or has unserved activity changes.
    fn is_settled(&self, core: &Core) -> bool {
        self.members.is_empty() || self.is_dead(core) || (self.phase == Phase::Idle && !self.dirty)
    }
}

/// The Price Theory policy: per-cluster supervisor markets driven by
/// NoC events.
pub(crate) struct PriceTheoryPolicy {
    markets: Vec<Market>,
    /// Total tâtonnement iterations across all completed sessions.
    iterations: u64,
    /// Completed sessions, and how many of them cleared within tolerance.
    sessions: u64,
    cleared: u64,
    /// Supervisor-death takeovers performed by member watchdogs.
    takeovers: u64,
    /// Fail-stopped members drained into a supervisor's ledger.
    reclaims: u64,
}

impl PriceTheoryPolicy {
    pub(crate) fn new() -> Self {
        PriceTheoryPolicy {
            markets: Vec::new(),
            iterations: 0,
            sessions: 0,
            cleared: 0,
            takeovers: 0,
            reclaims: 0,
        }
    }

    fn ev(mi: usize, slot: usize, gen: u64, msg: PtMsg) -> Ev {
        Ev::Manager(ManagerEv::Pt {
            market: mi,
            slot,
            gen,
            msg,
        })
    }

    /// Starts a fresh market session: snapshot the bidder set, absorb
    /// the escrow into the budget, and run the pricing machine's first
    /// step. Degenerate markets (one bidder, empty budget, no demand)
    /// grant immediately.
    fn start_session(&mut self, core: &mut Core, mi: usize) {
        let m = &mut self.markets[mi];
        if m.members.is_empty() || m.is_dead(core) {
            return;
        }
        let sup_ti = m.members[m.supervisor];
        if core.tiles[sup_ti].faulted {
            // the market unit is dead; a member watchdog will take over
            return;
        }
        m.gen += 1;
        m.dirty = false;
        m.granting_up = false;
        m.machine = None;
        m.bidders = (0..m.members.len())
            .filter(|&s| m.live[s] && core.tiles[m.members[s]].max > 0)
            .collect();
        let held: i64 = (0..m.members.len())
            .filter(|&s| m.live[s])
            .map(|s| core.tiles[m.members[s]].has)
            .sum();
        let budget = held + m.escrow;
        debug_assert!(budget >= 0, "market {mi} supply went negative: {budget}");
        m.budget = budget.max(0);
        self.sessions += 1;
        if self.markets[mi].bidders.is_empty() {
            // nothing demands power; park any escrow on the lowest live
            // member so no coins stay in flight across an idle market
            let m = &mut self.markets[mi];
            m.phase = Phase::Idle;
            if m.escrow != 0 {
                if let Some(slot) = (0..m.members.len()).find(|&s| m.live[s]) {
                    let ti = m.members[slot];
                    core.set_has(ti, core.tiles[ti].has + m.escrow);
                    m.escrow = 0;
                    core.record_coins(ti);
                    core.apply_coins(ti);
                    let escrow = m.escrow;
                    core.audit_cluster_conservation(ti, i128::from(escrow), || {
                        format!("market {mi} parks escrow on idle slot {slot}")
                    });
                }
            }
            self.check_pt_response(core);
            return;
        }
        let m = &mut self.markets[mi];
        let weights: Vec<f64> = m
            .bidders
            .iter()
            .map(|&s| core.tiles[m.members[s]].max as f64)
            .collect();
        let n = m.bidders.len();
        let supply = m.budget as f64;
        // every bidder may hold the whole supply; the supervisor learns
        // aggregate demand only through bids, so it cold-starts at unit
        // price (or warm-starts from the last cleared session)
        let mut machine =
            PtMarket::new(weights, vec![0.0; n], vec![supply; n], supply).with_tolerance(COIN_TOL);
        if let Some(p) = m.warm_price {
            machine = machine.with_initial_price(p);
        } else {
            machine = machine.with_initial_price(1.0);
        }
        let first = machine.begin();
        m.machine = Some(machine);
        match first {
            PtStep::Quote { price } => self.send_quotes(core, mi, price),
            PtStep::Grant {
                grants, cleared, ..
            } => {
                self.markets[mi].session_cleared = cleared;
                self.enter_grants(core, mi, &grants);
            }
        }
    }

    /// Broadcasts one round of quotes: the supervisor serializes a
    /// per-member service slot for each send, submits its own bid
    /// locally, and arms a round-trip-bounded bid timeout per remote
    /// bidder.
    fn send_quotes(&mut self, core: &mut Core, mi: usize, price: f64) {
        let m = &mut self.markets[mi];
        m.phase = Phase::Quoting;
        m.bid_in = vec![false; m.bidders.len()];
        let gen = m.gen;
        let mut seq = 0u64;
        for bi in 0..self.markets[mi].bidders.len() {
            let m = &self.markets[mi];
            let slot = m.bidders[bi];
            if slot == m.supervisor {
                let m = &mut self.markets[mi];
                let machine = m.machine.as_mut().expect("session machine");
                let d = machine.demand(bi, price);
                machine.submit_bid(bi, d);
                m.bid_in[bi] = true;
                continue;
            }
            seq += 1;
            let depart = core.now + SimTime::from_noc_cycles(ROUND_CYCLES * seq);
            self.send_quote(core, mi, slot, gen, price, depart);
            self.arm_bid_timeout(core, mi, slot, gen, depart);
        }
        if self.markets[mi]
            .machine
            .as_ref()
            .is_some_and(PtMarket::bids_complete)
        {
            // the supervisor is the only bidder left standing
            self.step_market(core, mi);
        }
    }

    /// Sends one price quote toward a bidder.
    fn send_quote(
        &self,
        core: &mut Core,
        mi: usize,
        slot: usize,
        gen: u64,
        price: f64,
        depart: SimTime,
    ) {
        let m = &self.markets[mi];
        let pkt = Packet::new(
            TileId(m.members[m.supervisor]),
            TileId(m.members[slot]),
            Plane::MmioIrq,
            PacketKind::RegWrite {
                value: price.to_bits(),
            },
        );
        let arrive = core.net.send(depart, &pkt);
        core.queue
            .schedule(arrive, Self::ev(mi, slot, gen, PtMsg::QuoteArrive));
    }

    /// Arms the supervisor's bid timeout for one quoted member: the
    /// quote's departure plus the round-trip latency bound plus slack of
    /// two base refresh intervals and two service slots.
    fn arm_bid_timeout(&self, core: &mut Core, mi: usize, slot: usize, gen: u64, depart: SimTime) {
        let m = &self.markets[mi];
        let sup = TileId(m.members[m.supervisor]);
        let mem = TileId(m.members[slot]);
        let rtt = core.net.latency_bound(sup, mem) + core.net.latency_bound(mem, sup);
        let slack = SimTime::from_noc_cycles(2 * EXCHANGE_TIMING.base_cycles + 2 * ROUND_CYCLES);
        core.queue.schedule(
            depart + rtt + slack,
            Self::ev(mi, slot, gen, PtMsg::BidTimeout),
        );
    }

    /// A quote reached a member: answer with a demand bid.
    fn on_quote_arrive(&mut self, core: &mut Core, mi: usize, slot: usize, gen: u64) {
        let m = &mut self.markets[mi];
        // supervisor traffic arrived, stale or not: feed the watchdog
        m.heard[slot] = true;
        if gen != m.gen || core.tiles[m.members[slot]].faulted {
            return;
        }
        self.send_bid(core, mi, slot, gen);
    }

    /// Sends a member's demand bid back to the supervisor. The packet's
    /// payload is the member's live state; the supervisor's market unit
    /// recomputes the demand value itself, so no floating-point rides in
    /// events.
    fn send_bid(&self, core: &mut Core, mi: usize, slot: usize, gen: u64) {
        let m = &self.markets[mi];
        let ti = m.members[slot];
        let pkt = Packet::new(
            TileId(ti),
            TileId(m.members[m.supervisor]),
            Plane::MmioIrq,
            PacketKind::CoinStatus {
                has: core.tiles[ti].has as i32,
                max: core.tiles[ti].max as u32,
            },
        );
        let arrive = core.net.send(core.now, &pkt);
        core.queue
            .schedule(arrive, Self::ev(mi, slot, gen, PtMsg::BidArrive));
    }

    /// A bid reached the supervisor: ingest it and step the price once
    /// the round is complete.
    fn on_bid_arrive(&mut self, core: &mut Core, mi: usize, slot: usize, gen: u64) {
        let m = &mut self.markets[mi];
        if gen != m.gen || m.phase != Phase::Quoting || core.tiles[m.members[m.supervisor]].faulted
        {
            return;
        }
        let Some(bi) = m.bidders.iter().position(|&s| s == slot) else {
            return;
        };
        if m.bid_in[bi] {
            return;
        }
        m.bid_in[bi] = true;
        m.suspicion[slot] = 0;
        let machine = m.machine.as_mut().expect("session machine");
        let d = machine.demand(bi, machine.price());
        machine.submit_bid(bi, d);
        if machine.bids_complete() {
            self.step_market(core, mi);
        }
    }

    /// All bids are in: step the tâtonnement. Either the market clears
    /// into the grant phase, or a new quote round goes out at the
    /// adjusted price.
    fn step_market(&mut self, core: &mut Core, mi: usize) {
        let m = &mut self.markets[mi];
        let machine = m.machine.as_mut().expect("session machine");
        match machine.step() {
            PtStep::Quote { price } => {
                m.gen += 1; // retires this round's stragglers and timeouts
                self.send_quotes(core, mi, price);
            }
            PtStep::Grant {
                grants, cleared, ..
            } => {
                m.session_cleared = cleared;
                self.enter_grants(core, mi, &grants);
            }
        }
    }

    /// The market cleared: integerize the grants to exactly the coin
    /// budget and run the down-wave — commit/serialize every grant that
    /// *shrinks* a member's holdings, so their coins land in escrow
    /// before any increase is funded. The up-wave follows once every
    /// decrease has committed.
    fn enter_grants(&mut self, core: &mut Core, mi: usize, grants_f: &[f64]) {
        let m = &mut self.markets[mi];
        m.gen += 1;
        m.phase = Phase::Granting;
        m.granting_up = false;
        let coin_grants = integerize(grants_f, m.budget);
        m.grants = vec![0; m.members.len()];
        for (bi, &slot) in m.bidders.iter().enumerate() {
            m.grants[slot] = coin_grants[bi];
        }
        m.grant_needed = vec![false; m.members.len()];
        m.grants_out = 0;
        let gen = m.gen;
        let mut seq = 0u64;
        for slot in 0..self.markets[mi].members.len() {
            let m = &self.markets[mi];
            if !m.live[slot] {
                continue;
            }
            let ti = m.members[slot];
            if core.tiles[ti].has <= m.grants[slot] {
                continue; // increases wait for the up-wave
            }
            if slot == m.supervisor {
                self.commit_grant(core, mi, slot);
                continue;
            }
            let m = &mut self.markets[mi];
            m.grant_needed[slot] = true;
            m.grants_out += 1;
            seq += 1;
            let depart = core.now + SimTime::from_noc_cycles(ROUND_CYCLES * seq);
            self.send_grant(core, mi, slot, gen, depart);
        }
        if self.markets[mi].grants_out == 0 {
            self.start_up_wave(core, mi);
        }
    }

    /// Every decrease has committed, so the escrow now holds exactly the
    /// coins the increases need: commit the supervisor's own raise and
    /// serialize the rest. A member death during the down-wave makes the
    /// targets stale (the corpse's ledger moved, not its grant), so a
    /// dirty market skips straight to the restart instead of over-
    /// granting from an underfunded escrow.
    fn start_up_wave(&mut self, core: &mut Core, mi: usize) {
        if self.markets[mi].dirty {
            self.end_session(core, mi);
            return;
        }
        let m = &mut self.markets[mi];
        m.granting_up = true;
        let gen = m.gen;
        let mut seq = 0u64;
        for slot in 0..self.markets[mi].members.len() {
            let m = &self.markets[mi];
            if !m.live[slot] {
                continue;
            }
            let ti = m.members[slot];
            if core.tiles[ti].has == m.grants[slot] {
                continue;
            }
            if slot == m.supervisor {
                self.commit_grant(core, mi, slot);
                continue;
            }
            let m = &mut self.markets[mi];
            m.grant_needed[slot] = true;
            m.grants_out += 1;
            seq += 1;
            let depart = core.now + SimTime::from_noc_cycles(ROUND_CYCLES * seq);
            self.send_grant(core, mi, slot, gen, depart);
        }
        if self.markets[mi].grants_out == 0 {
            self.end_session(core, mi);
        }
    }

    /// Sends one grant write toward a member.
    fn send_grant(&self, core: &mut Core, mi: usize, slot: usize, gen: u64, depart: SimTime) {
        let m = &self.markets[mi];
        let pkt = Packet::new(
            TileId(m.members[m.supervisor]),
            TileId(m.members[slot]),
            Plane::MmioIrq,
            PacketKind::RegWrite {
                value: m.grants[slot].max(0) as u64,
            },
        );
        let arrive = core.net.send(depart, &pkt);
        core.queue
            .schedule(arrive, Self::ev(mi, slot, gen, PtMsg::GrantArrive));
    }

    /// A grant write landed. A live member commits it; a member that
    /// died in flight is reclaimed on the spot, leaving its share in
    /// escrow for the restart.
    fn on_grant_arrive(&mut self, core: &mut Core, mi: usize, slot: usize, gen: u64) {
        self.markets[mi].heard[slot] = true;
        let m = &mut self.markets[mi];
        if gen != m.gen || m.phase != Phase::Granting || !m.grant_needed[slot] {
            return;
        }
        m.grant_needed[slot] = false;
        m.grants_out -= 1;
        if core.tiles[m.members[slot]].faulted {
            self.reclaim_member(core, mi, slot);
            let m = &mut self.markets[mi];
            m.live[slot] = false;
            m.dirty = true;
        } else {
            self.commit_grant(core, mi, slot);
        }
        if self.markets[mi].grants_out == 0 {
            if self.markets[mi].granting_up {
                self.end_session(core, mi);
            } else {
                self.start_up_wave(core, mi);
            }
        }
    }

    /// Commits one grant: the difference between the member's old and
    /// new holdings moves through escrow, so cluster conservation holds
    /// at this very instant even with other grants still in flight.
    fn commit_grant(&mut self, core: &mut Core, mi: usize, slot: usize) {
        let m = &mut self.markets[mi];
        let ti = m.members[slot];
        let old = core.tiles[ti].has;
        let new = m.grants[slot];
        if old == new {
            return;
        }
        m.escrow += old - new;
        core.set_has(ti, new);
        core.record_coins(ti);
        core.apply_coins(ti);
        let escrow = m.escrow;
        core.audit_cluster_conservation(ti, i128::from(escrow), || {
            format!("grant commit at market {mi} slot {slot}")
        });
    }

    /// Drains a fail-stopped member's ledger into the supervisor's —
    /// the same reclaim rule BlitzCoin's heartbeat uses.
    fn reclaim_member(&mut self, core: &mut Core, mi: usize, slot: usize) {
        self.reclaims += 1;
        let m = &self.markets[mi];
        let ti = m.members[slot];
        let sup_ti = m.members[m.supervisor];
        let moved = core.tiles[ti].has;
        if moved == 0 {
            return;
        }
        core.audit.record_reclaim(moved);
        core.set_has(sup_ti, core.tiles[sup_ti].has + moved);
        core.set_has(ti, 0);
        core.record_coins(ti);
        core.record_coins(sup_ti);
        core.apply_coins(sup_ti);
        let escrow = self.markets[mi].escrow;
        core.audit_cluster_conservation(sup_ti, i128::from(escrow), || {
            format!("reclaim of fail-stopped slot {slot} by market {mi} supervisor")
        });
    }

    /// The session is over: fold the machine's stats in, then either
    /// restart (activity changed mid-session, or coins are still in
    /// escrow after a member died) or go idle and answer responses.
    fn end_session(&mut self, core: &mut Core, mi: usize) {
        self.markets[mi].phase = Phase::Idle;
        if let Some(machine) = self.markets[mi].machine.take() {
            self.iterations += u64::from(machine.iterations());
            if self.markets[mi].session_cleared {
                self.cleared += 1;
                let p = machine.price();
                self.markets[mi].warm_price = (p.is_finite() && p > 0.0).then_some(p);
            } else {
                self.markets[mi].warm_price = None;
            }
        }
        if self.markets[mi].dirty || self.markets[mi].escrow != 0 {
            self.start_session(core, mi);
        } else {
            self.check_pt_response(core);
        }
    }

    /// The supervisor's bid timeout for one member fired without a bid.
    /// Below the strike threshold the quote is simply retried; at the
    /// threshold the member's fate is inspected and the session restarts
    /// without it if it is dead.
    fn on_bid_timeout(&mut self, core: &mut Core, mi: usize, slot: usize, gen: u64) {
        let m = &mut self.markets[mi];
        if gen != m.gen || m.phase != Phase::Quoting || core.tiles[m.members[m.supervisor]].faulted
        {
            return;
        }
        let Some(bi) = m.bidders.iter().position(|&s| s == slot) else {
            return;
        };
        if m.bid_in[bi] {
            return;
        }
        m.suspicion[slot] += 1;
        if m.suspicion[slot] < BID_TIMEOUTS {
            let price = m.machine.as_ref().expect("session machine").price();
            self.send_quote(core, mi, slot, gen, price, core.now);
            self.arm_bid_timeout(core, mi, slot, gen, core.now);
            return;
        }
        if core.tiles[m.members[slot]].faulted {
            self.reclaim_member(core, mi, slot);
            self.markets[mi].live[slot] = false;
            self.start_session(core, mi);
        } else {
            // alive after all, its bid merely late; keep polling
            m.suspicion[slot] = 0;
            let price = m.machine.as_ref().expect("session machine").price();
            self.send_quote(core, mi, slot, gen, price, core.now);
            self.arm_bid_timeout(core, mi, slot, gen, core.now);
        }
    }

    /// A member's periodic supervisor watchdog fired: quiet supervisors
    /// accumulate strikes; a provably dead one is replaced by the
    /// lowest-slot live member.
    fn on_watchdog(&mut self, core: &mut Core, mi: usize, slot: usize) {
        let m = &mut self.markets[mi];
        if slot == m.supervisor
            || !m.live[slot]
            || core.tiles[m.members[slot]].faulted
            || m.is_dead(core)
        {
            return; // this watchdog retires
        }
        if m.heard[slot] {
            m.heard[slot] = false;
            m.sup_suspicion[slot] = 0;
        } else {
            m.sup_suspicion[slot] += 1;
            if m.sup_suspicion[slot] >= SUP_TIMEOUTS {
                m.sup_suspicion[slot] = 0;
                let sup_ti = m.members[m.supervisor];
                if core.tiles[sup_ti].faulted {
                    let lowest_live = (0..m.members.len()).find(|&s| {
                        s != m.supervisor && m.live[s] && !core.tiles[m.members[s]].faulted
                    });
                    if lowest_live == Some(slot) {
                        self.take_over(core, mi, slot);
                        // the new supervisor's own watchdog retires
                        return;
                    }
                    // a lower-slot member will take over; wait for its quote
                }
            }
        }
        let at = core.now + SimTime::from_noc_cycles(WATCHDOG_CYCLES);
        core.queue
            .schedule(at, Self::ev(mi, slot, 0, PtMsg::Watchdog));
    }

    /// Member `slot` assumes the supervisor role from a dead
    /// predecessor, whose ledger is drained into the new supervisor's;
    /// the escrow carries over into the fresh session.
    fn take_over(&mut self, core: &mut Core, mi: usize, slot: usize) {
        self.takeovers += 1;
        let m = &mut self.markets[mi];
        let old = m.supervisor;
        let old_ti = m.members[old];
        m.live[old] = false;
        m.supervisor = slot;
        m.gen += 1; // retires everything the dead supervisor had in flight
        m.machine = None;
        m.phase = Phase::Idle;
        m.dirty = true;
        m.granting_up = false;
        m.warm_price = None;
        m.suspicion.fill(0);
        m.sup_suspicion.fill(0);
        m.heard.fill(false);
        let new_ti = m.members[slot];
        let moved = core.tiles[old_ti].has;
        if moved != 0 {
            self.reclaims += 1;
            core.audit.record_reclaim(moved);
            core.set_has(new_ti, core.tiles[new_ti].has + moved);
            core.set_has(old_ti, 0);
            core.record_coins(old_ti);
            core.record_coins(new_ti);
            core.apply_coins(new_ti);
            let escrow = self.markets[mi].escrow;
            core.audit_cluster_conservation(new_ti, i128::from(escrow), || {
                format!("takeover reclaim of market {mi} supervisor by slot {slot}")
            });
        }
        self.start_session(core, mi);
    }

    /// PT's settle criterion: every market with live members sits idle
    /// with no unserved activity change. Pending responses are answered
    /// then; post-fault recovery is stamped when the fail-stopped
    /// ledgers are drained too.
    fn check_pt_response(&mut self, core: &mut Core) {
        let converged = self.markets.iter().all(|m| m.is_settled(core));
        if !converged {
            return;
        }
        if core.fault_at.is_some() && core.recovered_at.is_none() {
            let drained = core
                .managed
                .iter()
                .all(|&t| !core.tiles[t].faulted || core.tiles[t].has == 0);
            if drained {
                core.recovered_at = Some(core.now);
            }
        }
        if core.pending_changes.is_empty() {
            return;
        }
        let now = core.now;
        for t0 in core.pending_changes.drain(..) {
            core.responses.push(ResponseSample {
                at_us: t0.as_us_f64(),
                response_us: (now - t0).as_us_f64(),
            });
        }
    }
}

/// Rounds fractional grants to whole coins summing to exactly `budget`,
/// by largest remainder: floors first, then the leftover coins go to the
/// largest fractional parts (ties to the lower index). Deterministic,
/// and never hands out a negative grant.
fn integerize(grants_f: &[f64], budget: i64) -> Vec<i64> {
    let mut grants: Vec<i64> = grants_f.iter().map(|g| g.max(0.0).floor() as i64).collect();
    let mut order: Vec<usize> = (0..grants_f.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = grants_f[a] - grants_f[a].floor();
        let fb = grants_f[b] - grants_f[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut diff = budget - grants.iter().sum::<i64>();
    while diff != 0 && !order.is_empty() {
        let before = diff;
        for &i in &order {
            if diff > 0 {
                grants[i] += 1;
                diff -= 1;
            } else if diff < 0 && grants[i] > 0 {
                grants[i] -= 1;
                diff += 1;
            }
        }
        if diff == before {
            break; // nothing left to claw back
        }
    }
    grants
}

impl ManagerPolicy for PriceTheoryPolicy {
    fn init(&mut self, core: &mut Core) {
        // one market per PM cluster; slot 0 boots as supervisor; no RNG
        // is consumed, so the event schedule is identical across seeds
        for members in core.cluster_members.clone() {
            let n = members.len();
            self.markets.push(Market {
                members,
                supervisor: 0,
                live: vec![true; n],
                suspicion: vec![0; n],
                heard: vec![false; n],
                sup_suspicion: vec![0; n],
                gen: 0,
                machine: None,
                bidders: Vec::new(),
                bid_in: Vec::new(),
                phase: Phase::Idle,
                grants: vec![0; n],
                grant_needed: vec![false; n],
                grants_out: 0,
                granting_up: false,
                budget: 0,
                escrow: 0,
                session_cleared: false,
                dirty: true,
                warm_price: None,
            });
        }
        for mi in 0..self.markets.len() {
            for slot in 1..self.markets[mi].members.len() {
                let at = SimTime::from_noc_cycles(WATCHDOG_CYCLES);
                core.queue
                    .schedule(at, Self::ev(mi, slot, 0, PtMsg::Watchdog));
            }
            self.start_session(core, mi);
        }
    }

    fn on_activity_change(&mut self, core: &mut Core, ti: usize) {
        if self.markets.is_empty() {
            // boot-time activation: the roots are enqueued before init,
            // which reads the live targets when it starts the sessions
            return;
        }
        let mi = core.cluster_of[ti];
        self.markets[mi].dirty = true;
        if self.markets[mi].phase == Phase::Idle {
            self.start_session(core, mi);
        }
        // mid-session changes re-clear when the session ends
    }

    fn on_event(&mut self, core: &mut Core, ev: ManagerEv) {
        let ManagerEv::Pt {
            market: mi,
            slot,
            gen,
            msg,
        } = ev
        else {
            unreachable!("Price Theory schedules only Pt events");
        };
        match msg {
            PtMsg::QuoteArrive => self.on_quote_arrive(core, mi, slot, gen),
            PtMsg::BidArrive => self.on_bid_arrive(core, mi, slot, gen),
            PtMsg::GrantArrive => self.on_grant_arrive(core, mi, slot, gen),
            PtMsg::BidTimeout => self.on_bid_timeout(core, mi, slot, gen),
            PtMsg::Watchdog => self.on_watchdog(core, mi, slot),
        }
    }

    fn halts_when_settled(&self, core: &Core) -> bool {
        // a market whose members all died can never answer its pending
        // responses again
        self.markets.iter().any(|m| m.is_dead(core))
    }

    fn owns_coin_economy(&self) -> bool {
        true
    }

    fn coins_in_flight(&self) -> i64 {
        self.markets.iter().map(|m| m.escrow).sum()
    }

    fn finalize(&mut self, report: &mut SimReport) {
        // a dead market's escrow is trapped in its defunct market unit:
        // counted quarantined
        report.coins_quarantined += self
            .markets
            .iter()
            .filter(|m| !m.members.is_empty() && m.live.iter().all(|&l| !l))
            .map(|m| m.escrow.max(0))
            .sum::<i64>();
        report
            .scheme_stats
            .push(("pt_iterations".into(), self.iterations as f64));
        report
            .scheme_stats
            .push(("pt_cleared".into(), self.cleared as f64));
        report
            .scheme_stats
            .push(("pt_sessions".into(), self.sessions as f64));
        report
            .scheme_stats
            .push(("pt_takeovers".into(), self.takeovers as f64));
        report
            .scheme_stats
            .push(("pt_reclaims".into(), self.reclaims as f64));
    }
}
