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
use blitzcoin_noc::{Packet, PacketKind, Plane, TileId};
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

/// The decentralized BlitzCoin scheme. All protocol state is per-tile
/// (`TileRt`'s FSM registers), so the policy object itself is stateless.
pub(crate) struct BlitzCoinPolicy;

impl ManagerPolicy for BlitzCoinPolicy {
    fn init(&mut self, core: &mut Core) {
        // stagger the per-tile FSM boot phases across one base interval
        let base = EXCHANGE_TIMING.base_cycles;
        let pairing_iv = PAIRING_PERIOD * base;
        for k in 0..core.managed.len() {
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
        check_bc_response(core);
    }

    fn on_event(&mut self, core: &mut Core, ev: ManagerEv) {
        match ev {
            ManagerEv::CoinFire { tile, gen } => on_coin_fire(core, tile, gen),
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

fn on_coin_fire(core: &mut Core, ti: usize, gen: u64) {
    if gen != core.tiles[ti].fire_gen || core.tiles[ti].faulted {
        return;
    }
    if core.cfg().exchange_mode == ExchangeMode::FourWay {
        four_way_fire(core, ti);
        return;
    }
    let dt = EXCHANGE_TIMING;
    // partner selection: time-based random pairing, else round-robin
    let pairing_iv = SimTime::from_noc_cycles(PAIRING_PERIOD * dt.base_cycles);
    let use_pairing = core.now >= core.tiles[ti].next_pairing && core.managed.len() > 2;
    let partner = if use_pairing {
        core.tiles[ti].next_pairing = core.now + pairing_iv;
        select_pairing_partner(core, ti)
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
        on_exchange_timeout(core, ti, pj);
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
        core.tiles[ti].has = out.new_i;
        core.tiles[pj].has = out.new_j;
        core.sabotage_conservation(ti);
        core.record_coins(ti);
        core.record_coins(pj);
        core.apply_coins(ti);
        core.apply_coins(pj);
        core.audit_cluster_conservation(ti, 0, || format!("pairwise exchange tiles {ti}<->{pj}"));
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
    check_bc_response(core);
}

/// The initiator waited for a reply that never came. Back off through
/// the zero-move dynamic-timing rule (the retry gets cheaper for the
/// NoC, not tighter), grow suspicion against ring partners, and after
/// [`HEARTBEAT_TIMEOUTS`] consecutive silences run the recovery path.
fn on_exchange_timeout(core: &mut Core, ti: usize, pj: usize) {
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
    check_bc_response(core);
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
        core.tiles[ti].has = out.new_i;
        core.tiles[pj].has = out.new_j;
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

/// One 4-way group exchange: the tile solicits all partners, applies
/// the 5-tile fair redistribution, and pushes updates — 12 messages
/// serialized through its injection port (Algorithm 1).
fn four_way_fire(core: &mut Core, ti: usize) {
    let dt = EXCHANGE_TIMING;
    // Snapshot the partner list onto the stack (at most 4 by
    // construction): recovery inside the loop may shrink `partners`, and
    // the group exchange must keep addressing the set it started with.
    let mut partners = [0usize; 4];
    let n_partners = core.tiles[ti].partners.len().min(4);
    partners[..n_partners].copy_from_slice(&core.tiles[ti].partners[..n_partners]);
    if n_partners == 0 {
        return;
    }
    let me = TileId(ti);
    // Request + status + update per partner over the NoC. A dead partner
    // is skipped (and suspected).
    let mut live = [0usize; 4];
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
    let mut idx = [0usize; 5];
    idx[0] = ti;
    idx[1..=live.len()].copy_from_slice(live);
    let idx = &idx[..live.len() + 1];
    let mut group = [TileState::default(); 5];
    for (slot, &k) in idx.iter().enumerate() {
        group[slot] = TileState::new(core.tiles[k].has, core.tiles[k].max);
    }
    let alloc = four_way_allocation(&group[..idx.len()]);
    let mut moved_total = 0i64;
    for (slot, &k) in idx.iter().enumerate() {
        let delta = alloc[slot] - core.tiles[k].has;
        if delta != 0 {
            moved_total += delta.abs();
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
    check_bc_response(core);
}

fn select_pairing_partner(core: &mut Core, ti: usize) -> Option<usize> {
    let pos = core.managed_slot[ti];
    debug_assert_ne!(pos, usize::MAX, "pairing from an unmanaged tile");
    let n = core.managed.len();
    for _ in 0..n {
        let cand = core.managed[(pos + core.tiles[ti].pair_offset) % n];
        core.tiles[ti].pair_offset = if core.tiles[ti].pair_offset + 1 >= n {
            1
        } else {
            core.tiles[ti].pair_offset + 1
        };
        if cand != ti
            && core.cluster_of[cand] == core.cluster_of[ti]
            && !core.tiles[ti].partners.contains(&cand)
        {
            return Some(cand);
        }
    }
    None
}

/// Whether the coin distribution matches the current activity's
/// proportional targets within tolerance; drains pending responses
/// and tracks post-fault recovery.
fn check_bc_response(core: &mut Core) {
    note_recovery(core);
    if core.pending_changes.is_empty() {
        return;
    }
    if bc_converged(core) {
        let now = core.now;
        for t0 in core.pending_changes.drain(..) {
            core.responses.push(ResponseSample {
                at_us: t0.as_us_f64(),
                response_us: (now - t0).as_us_f64(),
            });
        }
    }
}

/// Whether every *live* tile's coin count matches its cluster's
/// proportional target within tolerance. Convergence is per PM
/// cluster: each domain equalizes its own has/max ratio against its
/// own pool slice. Dead tiles are excluded: the survivors equalize over
/// the coins they hold while a corpse's coins wait to be reclaimed.
fn bc_converged(core: &Core) -> bool {
    let tolerance = RESPONSE_TOLERANCE_COINS * core.cfg().pool_scale as f64;
    // called on every coin fire — walk each cluster's members twice rather
    // than collecting the live ones
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

/// Marks the recovery point: the first instant after a fault at
/// which the survivors are converged again and every fail-stopped
/// tile has been fully drained by its neighbors.
fn note_recovery(core: &mut Core) {
    if core.fault_at.is_none() || core.recovered_at.is_some() {
        return;
    }
    let drained = core
        .managed
        .iter()
        .all(|&t| !core.tiles[t].faulted || core.tiles[t].has == 0);
    if drained && bc_converged(core) {
        core.recovered_at = Some(core.now);
    }
}
