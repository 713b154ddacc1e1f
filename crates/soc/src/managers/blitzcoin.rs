//! The BlitzCoin policy: decentralized per-tile exchange FSMs.
//!
//! Each managed tile runs the paper's coin-exchange FSM (state in
//! `TileRt`, mirroring the per-tile hardware): refresh timers fire
//! `CoinFire` events, exchanges travel as real NoC packets with
//! contention, an exchange with a dead partner times out, and the
//! heartbeat machinery reclaims a dead partner's coins.

use blitzcoin_core::exchange::{
    four_way_allocation, pairwise_exchange, pairwise_exchange_stochastic,
};
use blitzcoin_core::{DynamicTiming, ExchangeMode, TileState};
use blitzcoin_noc::{Packet, PacketKind, Plane, TileId, Topology};
use blitzcoin_sim::SimTime;

use crate::engine::events::ManagerEv;
use crate::engine::{Core, Ev};
use crate::managers::ManagerPolicy;
use crate::report::ResponseSample;

/// The SoC FSM's refresh dynamics. It uses "fast wake": any significant
/// exchange drops the interval straight to the floor (k spans the whole
/// range), so a freed budget propagates at the fast refresh rate.
pub(crate) const EXCHANGE_TIMING: DynamicTiming = DynamicTiming {
    k_cycles: 1024,
    ..DynamicTiming::DEFAULT
};

/// Random-pairing period, in base refresh intervals: once per period a
/// tile exchanges with a random partner instead of its next ring partner.
const PAIRING_PERIOD: u64 = 16;

/// Response-time convergence tolerance, in coins per tile per unit of
/// `pool_scale`, so it stays the same fraction of the budget and
/// response times compare across economy scales.
const RESPONSE_TOLERANCE_COINS: f64 = 1.5;

/// Consecutive failed exchanges with the same ring partner before a tile
/// concludes the partner is gone and reclaims its coins. Only a dead
/// partner fails an exchange, and it never answers again.
const HEARTBEAT_TIMEOUTS: u32 = 3;

/// Ring partners per tile: its nearest peers in its PM cluster.
const PARTNERS: usize = 4;

/// The decentralized BlitzCoin scheme. The exchange FSM registers are
/// per-tile (`TileRt`); the policy keeps only what the engine models
/// around them: each cluster's order for the pairing walk, fixed at
/// boot, and where the last convergence check stopped.
#[derive(Default)]
pub(crate) struct BlitzCoinPolicy {
    /// Each PM cluster's managed slots, ascending: the order of the
    /// time-based pairing walk.
    rings: Vec<Vec<usize>>,
    /// Each managed slot's index in its cluster's ring.
    home: Vec<usize>,
    /// The tile the last convergence check found out of tolerance.
    last_bad: Option<usize>,
}

impl ManagerPolicy for BlitzCoinPolicy {
    fn init(&mut self, core: &mut Core) {
        let n = core.managed.len();
        self.rings = vec![Vec::new(); core.cluster_members.len()];
        self.home = vec![0; n];
        for (slot, &ti) in core.managed.iter().enumerate() {
            let ring = &mut self.rings[core.cluster_of[ti]];
            self.home[slot] = ring.len();
            ring.push(slot);
        }
        // each tile's ring partners and its pairing walk's start
        let topology = core.sim.soc.topology;
        let mut found = Vec::new();
        for (slot, &ti) in core.managed.iter().enumerate() {
            let ci = core.cluster_of[ti];
            let partners = nearest_partners(&topology, ti, &core.cluster_of, &mut found);
            let walk = PairingWalk {
                ring: &self.rings[ci],
                home: self.home[slot],
                n,
            };
            let rt = &mut core.tiles[ti];
            rt.pair_cursor = walk.cursor_at(rt.pair_offset);
            rt.suspect = vec![0; partners.len()];
            rt.partners = partners;
        }
        // stagger the per-tile FSM boot phases across one base interval
        let base = EXCHANGE_TIMING.base_cycles;
        let pairing_iv = PAIRING_PERIOD * base;
        for k in 0..n {
            let ti = core.managed[k];
            let phase = core.rng.range_u64(0..base);
            let rt = &mut core.tiles[ti];
            rt.interval = base;
            rt.fire_gen += 1;
            let gen = rt.fire_gen;
            rt.next_pairing = SimTime::from_noc_cycles(phase + pairing_iv);
            core.queue.schedule(
                SimTime::from_noc_cycles(phase),
                Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }),
            );
        }
    }

    fn on_activity_change(&mut self, core: &mut Core, ti: usize) {
        // the local FSM reacts immediately at the fast refresh rate
        let rt = &mut core.tiles[ti];
        rt.interval = EXCHANGE_TIMING.min_cycles;
        rt.zero_rot = 0;
        rt.fire_gen += 1;
        let gen = rt.fire_gen;
        let at = core.now + SimTime::from_noc_cycles(rt.interval);
        core.queue
            .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
        // an activity change may already satisfy the tolerance
        self.check_response(core, &[ti]);
    }

    fn on_event(&mut self, core: &mut Core, ev: ManagerEv) {
        match ev {
            ManagerEv::CoinFire { tile, gen } => self.on_coin_fire(core, tile, gen),
            _ => unreachable!("BlitzCoin schedules only CoinFire events"),
        }
    }

    fn halts_when_settled(&self, _core: &Core) -> bool {
        // the FSMs keep exchanging until every pending response drains
        false
    }

    fn owns_coin_economy(&self) -> bool {
        true
    }
}

impl BlitzCoinPolicy {
    fn on_coin_fire(&mut self, core: &mut Core, ti: usize, gen: u64) {
        if gen != core.tiles[ti].fire_gen || core.tiles[ti].faulted {
            return;
        }
        if core.cfg().exchange_mode == ExchangeMode::FourWay {
            self.four_way_fire(core, ti);
            return;
        }
        let dt = EXCHANGE_TIMING;
        // partner selection: time-based random pairing, else round-robin
        let pairing_iv = SimTime::from_noc_cycles(PAIRING_PERIOD * dt.base_cycles);
        let use_pairing = core.now >= core.tiles[ti].next_pairing && core.managed.len() > 2;
        let partner = if use_pairing {
            core.tiles[ti].next_pairing = core.now + pairing_iv;
            self.pairing_partner(core, ti)
        } else {
            let rt = &mut core.tiles[ti];
            if rt.partners.is_empty() {
                None
            } else {
                let p = rt.partners[rt.rr % rt.partners.len()];
                rt.rr = (rt.rr + 1) % rt.partners.len();
                Some(p)
            }
        };
        let Some(pj) = partner else {
            // nothing to exchange with; retry at base rate
            let rt = &mut core.tiles[ti];
            rt.fire_gen += 1;
            let gen = rt.fire_gen;
            let at = core.now + SimTime::from_noc_cycles(dt.base_cycles);
            core.queue
                .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
            return;
        };

        // status + update over the NoC (plane 5, with contention)
        let me = TileId(ti);
        let other = TileId(pj);
        let status = Packet::new(
            me,
            other,
            Plane::MmioIrq,
            PacketKind::CoinStatus {
                has: core.tiles[ti].has as i32,
                max: core.tiles[ti].max as u32,
            },
        );
        let t_status = core.net.send(core.now, &status);
        // A dead partner never answers: the initiator times out and backs off.
        if core.tiles[pj].faulted {
            self.on_exchange_timeout(core, ti, pj);
            return;
        }
        let a = TileState::new(core.tiles[ti].has, core.tiles[ti].max);
        let b = TileState::new(core.tiles[pj].has, core.tiles[pj].max);
        let out = pairwise_exchange_stochastic(a, b, &mut core.rng);
        let update = Packet::new(
            other,
            me,
            Plane::MmioIrq,
            PacketKind::CoinUpdate {
                delta: out.moved as i32,
            },
        );
        let t_update = core.net.send(t_status, &update);
        let latency = (t_update - core.now) + SimTime::from_noc_cycles(1);

        if out.moved != 0 {
            // zero-sum between two live tiles of one cluster: the live
            // sums stand
            core.tiles[ti].has = out.new_i;
            core.tiles[pj].has = out.new_j;
            core.sabotage_conservation(ti);
            core.record_coins(ti);
            core.record_coins(pj);
            core.apply_coins(ti);
            core.apply_coins(pj);
            core.audit_cluster_conservation(ti, 0, || {
                format!("pairwise exchange tiles {ti}<->{pj}")
            });
        }

        let significant = dt.is_significant(out.moved);
        // own reschedule
        {
            let rt = &mut core.tiles[ti];
            rt.interval = if significant {
                rt.zero_rot = 0;
                dt.next_interval(rt.interval, out.moved)
            } else {
                rt.zero_rot += 1;
                let rot = rt.partners.len().max(1) as u32;
                if rt.zero_rot.is_multiple_of(rot) {
                    dt.next_interval(rt.interval, 0)
                } else {
                    rt.interval
                }
            };
            rt.fire_gen += 1;
            let gen = rt.fire_gen;
            let at = core.now + latency + SimTime::from_noc_cycles(rt.interval);
            core.queue
                .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
        }
        // partner wake-up on significant movement
        if significant {
            let rp = &mut core.tiles[pj];
            rp.zero_rot = 0;
            rp.interval = dt.next_interval(rp.interval, out.moved);
            rp.fire_gen += 1;
            let gen = rp.fire_gen;
            let at = core.now + latency + SimTime::from_noc_cycles(rp.interval);
            core.queue
                .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: pj, gen }));
        }
        self.check_response(core, &[ti, pj]);
    }

    /// The initiator waited for a reply that never came. Back off through
    /// the zero-move dynamic-timing rule (the retry gets cheaper for the
    /// NoC, not tighter), grow suspicion against ring partners, and after
    /// [`HEARTBEAT_TIMEOUTS`] consecutive silences run the recovery path.
    fn on_exchange_timeout(&mut self, core: &mut Core, ti: usize, pj: usize) {
        note_partner_silent(core, ti, pj);
        let dt = EXCHANGE_TIMING;
        // timeout budget: a zero-load round trip plus a base interval of
        // slack before the FSM declares the exchange lost
        let rtt = core.net.latency_bound(TileId(ti), TileId(pj))
            + core.net.latency_bound(TileId(pj), TileId(ti));
        let timeout = rtt + SimTime::from_noc_cycles(dt.base_cycles);
        let rt = &mut core.tiles[ti];
        rt.zero_rot = 0;
        rt.interval = dt.next_interval(rt.interval, 0);
        rt.fire_gen += 1;
        let gen = rt.fire_gen;
        let at = core.now + timeout + SimTime::from_noc_cycles(rt.interval);
        core.queue
            .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
        self.check_response(core, &[ti]);
    }

    /// One 4-way group exchange: the tile solicits all partners, applies
    /// the 5-tile fair redistribution, and pushes updates — 12 messages
    /// serialized through its injection port (Algorithm 1).
    fn four_way_fire(&mut self, core: &mut Core, ti: usize) {
        let dt = EXCHANGE_TIMING;
        // Snapshot the partner list onto the stack (at most 4 by
        // construction): recovery inside the loop may shrink `partners`, and
        // the group exchange must keep addressing the set it started with.
        let mut partners = [0usize; PARTNERS];
        let n_partners = core.tiles[ti].partners.len().min(PARTNERS);
        partners[..n_partners].copy_from_slice(&core.tiles[ti].partners[..n_partners]);
        if n_partners == 0 {
            return;
        }
        let me = TileId(ti);
        // Request + status + update per partner over the NoC. A dead partner
        // is skipped (and suspected).
        let mut live = [0usize; PARTNERS];
        let mut n_live = 0;
        let mut last_arrival = core.now;
        for &pj in &partners[..n_partners] {
            if core.tiles[pj].faulted {
                note_partner_silent(core, ti, pj);
                continue;
            }
            let req = Packet::coin(me, TileId(pj), PacketKind::CoinRequest);
            let t_req = core.net.send(core.now, &req);
            let status = Packet::coin(
                TileId(pj),
                me,
                PacketKind::CoinStatus {
                    has: core.tiles[pj].has as i32,
                    max: core.tiles[pj].max as u32,
                },
            );
            let t_status = core.net.send(t_req, &status);
            let update = Packet::coin(me, TileId(pj), PacketKind::CoinUpdate { delta: 0 });
            let t_update = core.net.send(t_status, &update);
            last_arrival = last_arrival.max(t_update);
            live[n_live] = pj;
            n_live += 1;
        }
        let live = &live[..n_live];
        if live.is_empty() {
            // every partner is gone; keep polling at a backed-off rate in
            // case a stranded neighbor still needs its coins drained
            let rt = &mut core.tiles[ti];
            rt.interval = dt.next_interval(rt.interval, 0);
            rt.fire_gen += 1;
            let gen = rt.fire_gen;
            let at = core.now + SimTime::from_noc_cycles(rt.interval);
            core.queue
                .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
            return;
        }
        let latency = (last_arrival - core.now) + SimTime::from_noc_cycles(2);

        // self + up to 4 live partners, on the stack
        let mut idx = [0usize; PARTNERS + 1];
        idx[0] = ti;
        idx[1..=live.len()].copy_from_slice(live);
        let idx = &idx[..live.len() + 1];
        let mut group = [TileState::default(); PARTNERS + 1];
        for (slot, &k) in idx.iter().enumerate() {
            group[slot] = TileState::new(core.tiles[k].has, core.tiles[k].max);
        }
        let alloc = four_way_allocation(&group[..idx.len()]);
        let mut moved_total = 0i64;
        for (slot, &k) in idx.iter().enumerate() {
            let delta = alloc[slot] - core.tiles[k].has;
            if delta != 0 {
                moved_total += delta.abs();
                // zero-sum over live tiles of one cluster: the live sums
                // stand
                core.tiles[k].has = alloc[slot];
                core.record_coins(k);
                core.apply_coins(k);
            }
        }
        if moved_total != 0 {
            core.audit_cluster_conservation(ti, 0, || {
                format!("4-way group exchange centered on tile {ti}")
            });
        }
        let significant = dt.is_significant(moved_total);
        let rt = &mut core.tiles[ti];
        rt.interval = if significant {
            rt.zero_rot = 0;
            dt.next_interval(rt.interval, moved_total)
        } else {
            rt.zero_rot += 1;
            if rt.zero_rot.is_multiple_of(4) {
                dt.next_interval(rt.interval, 0)
            } else {
                rt.interval
            }
        };
        rt.fire_gen += 1;
        let gen = rt.fire_gen;
        let at = core.now + latency + SimTime::from_noc_cycles(rt.interval);
        core.queue
            .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: ti, gen }));
        if significant {
            for &pj in live {
                let rp = &mut core.tiles[pj];
                rp.zero_rot = 0;
                rp.interval = dt.next_interval(rp.interval, moved_total);
                rp.fire_gen += 1;
                let gen = rp.fire_gen;
                let at = core.now + latency + SimTime::from_noc_cycles(rp.interval);
                core.queue
                    .schedule(at, Ev::Manager(ManagerEv::CoinFire { tile: pj, gen }));
            }
        }
        self.check_response(core, idx);
    }

    /// Time-based random pairing: the next peer of `ti`'s cluster on its
    /// pairing walk that is not one of its ring partners (see
    /// [`PairingWalk::next`]).
    fn pairing_partner(&self, core: &mut Core, ti: usize) -> Option<usize> {
        let pos = core.managed_slot[ti];
        debug_assert_ne!(pos, usize::MAX, "pairing from an unmanaged tile");
        let walk = PairingWalk {
            ring: &self.rings[core.cluster_of[ti]],
            home: self.home[pos],
            n: core.managed.len(),
        };
        #[cfg(test)]
        let mut offset = core.tiles[ti].pair_offset;
        #[cfg(test)]
        let expect = reference::pairing_walk(
            &core.managed,
            pos,
            &mut offset,
            |t| core.cluster_of[t] == core.cluster_of[ti],
            &core.tiles[ti].partners,
        );
        let managed = &core.managed;
        let rt = &mut core.tiles[ti];
        let partners = &rt.partners;
        let slot = walk.next(&mut rt.pair_cursor, &mut rt.pair_offset, |s| {
            partners.contains(&managed[s])
        });
        let partner = slot.map(|s| managed[s]);
        #[cfg(test)]
        reference::tally((partner, rt.pair_offset) == (expect, offset));
        partner
    }

    /// Drains the pending responses once every live tile's coins match
    /// its cluster's proportional target within tolerance, and marks the
    /// recovery point: the first such instant after a fault at which every
    /// fail-stopped tile has been fully drained by its neighbors.
    /// `touched` lists the tiles whose coins or target this event moved.
    fn check_response(&mut self, core: &mut Core, touched: &[usize]) {
        #[cfg(test)]
        reference::tally((core.undrained == 0) == reference::drained(core));
        let recovering =
            core.fault_at.is_some() && core.recovered_at.is_none() && core.undrained == 0;
        if !recovering && core.pending_changes.is_empty() {
            return;
        }
        if !self.converged(core, touched) {
            return;
        }
        let now = core.now;
        if recovering {
            core.recovered_at = Some(now);
        }
        for t0 in core.pending_changes.drain(..) {
            core.responses.push(ResponseSample {
                at_us: t0.as_us_f64(),
                response_us: (now - t0).as_us_f64(),
            });
        }
    }

    /// Whether every *live* tile's coin count matches its cluster's
    /// proportional target within tolerance. Convergence is per PM
    /// cluster: each domain equalizes its own has/max ratio against its
    /// own pool slice. Dead tiles are excluded: the survivors equalize over
    /// the coins they hold while a corpse's coins wait to be reclaimed.
    ///
    /// One tile out of tolerance settles the answer, so the check first
    /// tries the tile the previous check stopped at and the tiles in
    /// `touched`; only convergence needs the walk over every cluster. Each
    /// cluster's ratio comes from its live sums (`Core::live_has`,
    /// `Core::live_max`).
    fn converged(&mut self, core: &Core, touched: &[usize]) -> bool {
        let tolerance = RESPONSE_TOLERANCE_COINS * core.cfg().pool_scale as f64;
        let out_of_tolerance = |t: usize| {
            !core.tiles[t].faulted
                && cluster_ratio(core, core.cluster_of[t])
                    .is_some_and(|alpha| deviates(core, t, alpha, tolerance))
        };
        let mut suspects = self.last_bad.iter().chain(touched).copied();
        let bad = suspects.find(|&t| out_of_tolerance(t)).or_else(|| {
            core.cluster_members
                .iter()
                .enumerate()
                .find_map(|(ci, members)| {
                    let alpha = cluster_ratio(core, ci)?;
                    members
                        .iter()
                        .copied()
                        .find(|&t| !core.tiles[t].faulted && deviates(core, t, alpha, tolerance))
                })
        });
        if bad.is_some() {
            self.last_bad = bad;
        }
        #[cfg(test)]
        reference::tally(bad.is_none() == reference::converged(core));
        bad.is_none()
    }
}

/// Cluster `ci`'s has/max ratio over its live tiles, or `None` while none
/// of them is active.
fn cluster_ratio(core: &Core, ci: usize) -> Option<f64> {
    let max = core.live_max[ci];
    (max != 0).then(|| core.live_has[ci] as f64 / max as f64)
}

/// Whether tile `t` holds more than `tolerance` coins off its share at
/// has/max ratio `alpha`.
fn deviates(core: &Core, t: usize, alpha: f64, tolerance: f64) -> bool {
    let rt = &core.tiles[t];
    let target = alpha * rt.max as f64;
    (rt.has as f64 - target).abs() > tolerance
}

/// Records one failed exchange with `pj`; crossing the heartbeat
/// threshold triggers recovery.
fn note_partner_silent(core: &mut Core, ti: usize, pj: usize) {
    if let Some(idx) = core.tiles[ti].partners.iter().position(|&p| p == pj) {
        core.tiles[ti].suspect[idx] += 1;
        if core.tiles[ti].suspect[idx] >= HEARTBEAT_TIMEOUTS {
            give_up_on_partner(core, ti, pj, idx);
        }
    }
}

/// A ring partner has been silent for [`HEARTBEAT_TIMEOUTS`]
/// consecutive exchanges, so it is dead. Its coins are reclaimed through
/// the same drain rule an idle tile uses (`pairwise_exchange` against
/// `max == 0` relinquishes everything) and it leaves the rotation.
fn give_up_on_partner(core: &mut Core, ti: usize, pj: usize, idx: usize) {
    let a = TileState::new(core.tiles[ti].has, core.tiles[ti].max);
    let b = TileState::new(core.tiles[pj].has, 0);
    let out = pairwise_exchange(a, b);
    if out.moved == 0 && core.tiles[pj].has > 0 {
        // this tile is idle (max 0) and cannot absorb the coins; keep
        // polling so an active phase can drain
        return;
    }
    if out.moved != 0 {
        core.audit.record_reclaim(out.moved);
        core.set_has(ti, out.new_i);
        core.set_has(pj, out.new_j);
        core.record_coins(ti);
        core.record_coins(pj);
        core.apply_coins(ti);
        core.audit_cluster_conservation(ti, 0, || {
            format!("reclaim of fail-stopped tile {pj} by tile {ti}")
        });
    }
    core.tiles[ti].partners.remove(idx);
    core.tiles[ti].suspect.remove(idx);
    let n = core.tiles[ti].partners.len();
    if n > 0 {
        core.tiles[ti].rr %= n;
    }
}

/// The exchange partners of tile `me`: its [`PARTNERS`] nearest peers in
/// its PM cluster (the tiles `cluster_of` maps to `me`'s cluster) by
/// `(hop distance, tile id)`, nearest first. The search walks outward
/// ring by ring, over the tiles at hop distance 1, 2, ..., and stops
/// after the first ring that brings the finds to [`PARTNERS`]: every
/// closer peer is found by then, so sorting the finds gives the exact
/// order. `found` is scratch space reused across tiles.
pub(crate) fn nearest_partners(
    topology: &Topology,
    me: usize,
    cluster_of: &[usize],
    found: &mut Vec<(usize, usize)>,
) -> Vec<usize> {
    let (w, h) = (topology.width(), topology.height());
    let c = topology.coord(TileId(me));
    found.clear();
    for d in 1..w + h - 1 {
        // ring d meets row y at x = c.x ± (d - |y - c.y|)
        for y in c.y.saturating_sub(d)..=(c.y + d).min(h - 1) {
            let reach = d - y.abs_diff(c.y);
            let west = c.x.checked_sub(reach);
            let east = (reach > 0 && c.x + reach < w).then_some(c.x + reach);
            for x in west.into_iter().chain(east) {
                let t = y * w + x;
                if cluster_of[t] == cluster_of[me] {
                    found.push((d, t));
                }
            }
        }
        if found.len() >= PARTNERS {
            break;
        }
    }
    found.sort_unstable();
    found.truncate(PARTNERS);
    found.iter().map(|&(_, t)| t).collect()
}

/// One tile's view of its cluster for the time-based pairing walk. The
/// walk steps through the SoC's managed slots from just past the tile's
/// own (`TileRt::pair_offset` places past it, in `1..n`, wrapping and
/// skipping the tile itself) and takes the first peer of its cluster that
/// is not a ring partner. Only the cluster's slots can be taken, so the
/// walk jumps along them: `TileRt::pair_cursor` counts the peers, in walk
/// order from the tile's own slot, that lie before the offset.
struct PairingWalk<'a> {
    /// The cluster's managed slots, ascending.
    ring: &'a [usize],
    /// The tile's index in `ring`.
    home: usize,
    /// Managed tiles in the SoC: the length of one lap.
    n: usize,
}

impl PairingWalk<'_> {
    fn peers(&self) -> usize {
        self.ring.len() - 1
    }

    /// The managed slot of peer `k` in walk order.
    fn peer(&self, k: usize) -> usize {
        let i = self.home + 1 + k;
        self.ring[if i >= self.ring.len() {
            i - self.ring.len()
        } else {
            i
        }]
    }

    /// How many places past the tile's own slot the walk meets `slot`.
    fn offset_of(&self, slot: usize) -> usize {
        let own = self.ring[self.home];
        if slot > own {
            slot - own
        } else {
            slot + self.n - own
        }
    }

    /// The walk offset one place on from `offset`.
    fn step(&self, offset: usize) -> usize {
        if offset + 1 >= self.n {
            1
        } else {
            offset + 1
        }
    }

    /// The peer after `k` in walk order.
    fn after(&self, k: usize) -> usize {
        if k + 1 == self.peers() {
            0
        } else {
            k + 1
        }
    }

    /// The cursor that belongs with walk offset `offset`.
    fn cursor_at(&self, offset: usize) -> usize {
        let peers = self.peers();
        let before = (0..peers)
            .take_while(|&k| self.offset_of(self.peer(k)) < offset)
            .count();
        if before == peers {
            0
        } else {
            before
        }
    }

    /// One draw: the managed slot of the first peer from the cursor on for
    /// which `skip` is false, with the offset left one place past it. When
    /// every peer is skipped, the walk has gone once round and ends one
    /// place on. A tile has at most [`PARTNERS`] ring partners to skip, so
    /// a draw looks at no more than `PARTNERS + 1` peers.
    fn next(
        &self,
        cursor: &mut usize,
        offset: &mut usize,
        skip: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut k = *cursor;
        for _ in 0..self.peers() {
            let slot = self.peer(k);
            k = self.after(k);
            if !skip(slot) {
                *cursor = k;
                *offset = self.step(self.offset_of(slot));
                return Some(slot);
            }
        }
        if self.peers() > 0 && self.offset_of(self.peer(*cursor)) == *offset {
            *cursor = self.after(*cursor);
        }
        *offset = self.step(*offset);
        None
    }
}

/// The pairing walk and the convergence check as the engine ran them
/// before the pairing cursor and the live sums. A test build holds every
/// call of the new code to them, and [`reference::tally`] counts the
/// disagreements on the calling thread.
#[cfg(test)]
mod reference {
    use std::cell::Cell;

    use super::RESPONSE_TOLERANCE_COINS;
    use crate::engine::Core;

    thread_local! {
        /// (comparisons, disagreements) since the last [`take`].
        static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn tally(agree: bool) {
        TALLY.with(|t| {
            let (n, bad) = t.get();
            t.set((n + 1, bad + u64::from(!agree)));
        });
    }

    /// The tally since the last call, reset.
    pub(super) fn take() -> (u64, u64) {
        TALLY.with(|t| t.replace((0, 0)))
    }

    /// The pairing walk over every managed slot, one candidate per step:
    /// the tile at `offset` places past slot `pos` is taken if it shares
    /// the caller's cluster and is not one of its `partners`.
    pub(super) fn pairing_walk(
        managed: &[usize],
        pos: usize,
        offset: &mut usize,
        same_cluster: impl Fn(usize) -> bool,
        partners: &[usize],
    ) -> Option<usize> {
        let ti = managed[pos];
        let n = managed.len();
        for _ in 0..n {
            let cand = managed[(pos + *offset) % n];
            *offset = if *offset + 1 >= n { 1 } else { *offset + 1 };
            if cand != ti && same_cluster(cand) && !partners.contains(&cand) {
                return Some(cand);
            }
        }
        None
    }

    /// Convergence by two passes over each cluster's members: sum the
    /// live tiles' `has` and `max`, then test every live tile.
    pub(super) fn converged(core: &Core) -> bool {
        let tolerance = RESPONSE_TOLERANCE_COINS * core.cfg().pool_scale as f64;
        core.cluster_members.iter().all(|members| {
            let mut total_max = 0u64;
            let mut total_has = 0i64;
            for &t in members {
                if !core.tiles[t].faulted {
                    total_max += core.tiles[t].max;
                    total_has += core.tiles[t].has;
                }
            }
            if total_max == 0 {
                return true;
            }
            let alpha = total_has as f64 / total_max as f64;
            members
                .iter()
                .filter(|&&t| !core.tiles[t].faulted)
                .all(|&t| {
                    let target = alpha * core.tiles[t].max as f64;
                    (core.tiles[t].has as f64 - target).abs() <= tolerance
                })
        })
    }

    /// Whether every fail-stopped managed tile has been drained.
    pub(super) fn drained(core: &Core) -> bool {
        core.managed
            .iter()
            .all(|&t| !core.tiles[t].faulted || core.tiles[t].has == 0)
    }
}

#[cfg(test)]
mod tests {
    use blitzcoin_core::ExchangeMode;
    use blitzcoin_sim::check::forall_seeded;
    use blitzcoin_sim::{ensure, FaultPlan, TileFault};

    use super::{reference, PairingWalk, PARTNERS};
    use crate::engine::{SimConfig, Simulation};
    use crate::manager::ManagerKind;
    use crate::{floorplan, workload};

    #[test]
    fn pairing_walk_matches_the_reference_at_every_call() {
        forall_seeded("pairing_walk_reference", 0x9A1B, 0..300, |rng| {
            let n = rng.range_usize(3..64);
            // managed tile ids ascend with gaps, as unmanaged tiles leave
            let mut managed = Vec::with_capacity(n);
            let mut id = 0;
            for _ in 0..n {
                id += rng.range_usize(1..3);
                managed.push(id);
            }
            // a few large clusters, many clusters of at most five tiles, or
            // mostly singletons
            let n_clusters = match rng.range_u64(0..3) {
                0 => rng.range_usize(1..4),
                1 => n.div_ceil(3),
                _ => n,
            };
            let cluster: Vec<usize> = (0..n).map(|_| rng.range_usize(0..n_clusters)).collect();
            let mut rings = vec![Vec::new(); n_clusters];
            let mut home = vec![0; n];
            for slot in 0..n {
                home[slot] = rings[cluster[slot]].len();
                rings[cluster[slot]].push(slot);
            }
            // up to four ring partners per tile, drawn from its cluster
            let mut partners: Vec<Vec<usize>> = (0..n)
                .map(|slot| {
                    let mut peers: Vec<usize> = rings[cluster[slot]]
                        .iter()
                        .filter(|&&s| s != slot)
                        .map(|&s| managed[s])
                        .collect();
                    rng.shuffle(&mut peers);
                    peers.truncate(rng.range_usize(0..PARTNERS + 1));
                    peers
                })
                .collect();
            let walks: Vec<PairingWalk> = (0..n)
                .map(|slot| PairingWalk {
                    ring: &rings[cluster[slot]],
                    home: home[slot],
                    n,
                })
                .collect();
            let mut offset = vec![2; n];
            let mut cursor: Vec<usize> = walks.iter().map(|w| w.cursor_at(2)).collect();
            for _ in 0..n + rng.range_usize(0..n) {
                for slot in 0..n {
                    // a partner found dead leaves the rotation mid-run
                    if !partners[slot].is_empty() && rng.chance(0.05) {
                        let k = rng.range_usize(0..partners[slot].len());
                        partners[slot].remove(k);
                    }
                    let mut ref_offset = offset[slot];
                    let same = |t: usize| {
                        managed
                            .iter()
                            .position(|&m| m == t)
                            .is_some_and(|s| cluster[s] == cluster[slot])
                    };
                    let expect = reference::pairing_walk(
                        &managed,
                        slot,
                        &mut ref_offset,
                        same,
                        &partners[slot],
                    );
                    let got = walks[slot]
                        .next(&mut cursor[slot], &mut offset[slot], |s| {
                            partners[slot].contains(&managed[s])
                        })
                        .map(|s| managed[s]);
                    ensure!(
                        (got, offset[slot]) == (expect, ref_offset),
                        "n {n}, slot {slot}: drew {got:?} at offset {}, reference {expect:?} at {ref_offset}",
                        offset[slot]
                    );
                    ensure!(
                        cursor[slot] == walks[slot].cursor_at(offset[slot]),
                        "n {n}, slot {slot}: cursor {} does not belong with offset {}",
                        cursor[slot],
                        offset[slot]
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn convergence_check_matches_the_reference_at_every_call() {
        let (mut throttled, mut faulted, mut four_way, mut sabotaged) = (0, 0, 0, 0);
        forall_seeded("bc_converged_reference", 0xBC0C, 0..48, |rng| {
            let soc = match rng.range_u64(0..3) {
                0 => floorplan::soc_3x3(),
                1 => floorplan::soc_4x4(),
                _ => floorplan::synthetic(rng.range_usize(3..7)),
            };
            let managed: Vec<usize> = soc.managed_tiles().iter().map(|t| t.index()).collect();
            let n_clusters = rng.range_usize(1..4);
            let mut clusters = vec![Vec::new(); n_clusters];
            for &t in &managed {
                clusters[rng.range_usize(0..n_clusters)].push(t);
            }
            clusters.retain(|c| !c.is_empty());
            let mut cfg = SimConfig::new(
                ManagerKind::BlitzCoin,
                soc.total_p_max() * (0.2 + 0.6 * rng.unit_f64()),
            );
            if rng.chance(0.3) {
                cfg.exchange_mode = ExchangeMode::FourWay;
                four_way += 1;
            }
            if rng.chance(0.4) {
                cfg.thermal_limit_c = Some(45.5 + 3.0 * rng.unit_f64());
            }
            let wl = if rng.chance(0.5) {
                workload::parallel_all(&soc, rng.range_usize(1..4))
            } else {
                workload::random_dag(&soc, rng.range_usize(4..24), rng.next_u64())
            };
            let mut plan = FaultPlan::none();
            for _ in 0..rng.range_usize(0..3) {
                let at_cycle = if rng.chance(0.25) {
                    0 // a boot death
                } else {
                    rng.range_u64(0..40_000)
                };
                let tile = *rng.choose(&managed);
                plan.tile_faults.push(TileFault { tile, at_cycle });
            }
            faulted += usize::from(!plan.tile_faults.is_empty());
            let mut sim = Simulation::with_clusters(soc, wl, cfg, clusters).with_fault_plan(plan);
            if rng.chance(0.2) {
                sim = sim.with_conservation_bug(rng.range_u64(0..20_000));
                sabotaged += 1;
            }
            reference::take();
            let report = sim.run(rng.next_u64());
            let (checks, disagreements) = reference::take();
            throttled += usize::from(report.throttle_events > 0);
            ensure!(checks > 0, "no convergence check ran");
            ensure!(
                disagreements == 0,
                "{disagreements} of {checks} calls disagree with the reference"
            );
            Ok(())
        });
        // the cases reach every path that moves the live sums
        assert!(throttled > 0 && faulted > 0 && four_way > 0 && sabotaged > 0);
    }
}
