//! TokenSmart in the engine: the Fig 4 competitor promoted from a
//! behavioural model to a full protocol over real NoC packets.
//!
//! One token ring runs per PM cluster (the same domains BlitzCoin
//! exchanges within, so the comparison is like for like). Each ring
//! embeds the behavioural [`TokenSmart`] state machine as its ledger and
//! allocation brain; this policy supplies what the behavioural model
//! abstracts away — hop latency under contention, and dead stops that
//! trap the circulating pool and break the ring.

use blitzcoin_baselines::{TokenSmart, TsConfig};
use blitzcoin_noc::{Packet, PacketKind, Plane, TileId};
use blitzcoin_sim::SimTime;

use crate::engine::events::ManagerEv;
use crate::engine::{Core, Ev};
use crate::managers::ManagerPolicy;
use crate::report::{ResponseSample, SimReport};

/// One token ring: the managed tiles of one PM cluster, visited in
/// cluster order by a single circulating pool.
struct Ring {
    /// Managed tile ids, in visiting order (ring stop -> tile id).
    stops: Vec<usize>,
    /// The behavioural state machine holding this ring's ledger, pool,
    /// cursor, and greedy/fair mode.
    machine: TokenSmart,
    /// Consecutive zero-movement visits; a full quiescent revolution
    /// (`>= stops.len()`) means the ring has converged on its targets.
    zero_streak: usize,
    /// The token reached a dead stop: circulation has halted for good
    /// and the pool is trapped in transit.
    broken: bool,
}

/// The TokenSmart policy: per-cluster token rings driven by NoC events.
pub(crate) struct TokenSmartPolicy {
    rings: Vec<Ring>,
}

impl TokenSmartPolicy {
    pub(crate) fn new() -> Self {
        TokenSmartPolicy { rings: Vec::new() }
    }

    /// The token arrived at `stop`: run the visit, mirror the ledger
    /// movement into the engine, and hand the pool to the next stop.
    fn on_token_hop(&mut self, core: &mut Core, ri: usize, stop: usize) {
        if self.rings[ri].broken {
            return;
        }
        let ti = self.rings[ri].stops[stop];
        if core.tiles[ti].faulted {
            // the pool landed on a corpse: circulation halts, the pool
            // and the dead stop's holdings are trapped
            self.rings[ri].broken = true;
            return;
        }
        let moved = {
            let ring = &mut self.rings[ri];
            debug_assert_eq!(ring.machine.cursor(), stop, "one token per ring");
            // the machine's max may lag the engine's (activation races
            // the token); sync at the visit, like the hardware reads the
            // tile's live RP/AP register
            ring.machine.set_max(stop, core.tiles[ti].max);
            ring.machine.visit_once()
        };
        if moved != 0 {
            core.set_has(ti, self.rings[ri].machine.tiles()[stop].has);
            core.record_coins(ti);
            core.apply_coins(ti);
            let pool = self.rings[ri].machine.pool();
            core.audit_cluster_conservation(ti, i128::from(pool), || {
                format!("token visit at ring {ri} stop {stop}")
            });
            self.rings[ri].zero_streak = 0;
        } else {
            self.rings[ri].zero_streak += 1;
        }
        self.check_ts_response(core);
        self.send_token(core, ri, stop);
    }

    /// Hands the pool from `stop` to the next ring stop as a NoC packet
    /// departing after the visit's FSM work.
    fn send_token(&self, core: &mut Core, ri: usize, stop: usize) {
        let ring = &self.rings[ri];
        let n = ring.stops.len();
        let next = (stop + 1) % n;
        let depart = core.now + SimTime::from_noc_cycles(TsConfig::default().visit_cycles);
        if n == 1 {
            // a single-stop ring hands the token to itself; no NoC hop
            core.queue.schedule(
                depart,
                Ev::Manager(ManagerEv::TokenHop {
                    ring: ri,
                    stop: next,
                }),
            );
            return;
        }
        let pkt = Packet::new(
            TileId(ring.stops[stop]),
            TileId(ring.stops[next]),
            Plane::MmioIrq,
            PacketKind::CoinUpdate {
                delta: ring.machine.pool() as i32,
            },
        );
        let arrive = core.net.send(depart, &pkt);
        core.queue.schedule(
            arrive,
            Ev::Manager(ManagerEv::TokenHop {
                ring: ri,
                stop: next,
            }),
        );
    }

    /// TokenSmart's settle criterion: every healthy ring has completed a
    /// full revolution with zero movement, i.e. every live tile sits on
    /// its target. Pending activity changes are answered then.
    fn check_ts_response(&mut self, core: &mut Core) {
        if core.pending_changes.is_empty() {
            return;
        }
        let converged = self
            .rings
            .iter()
            .filter(|r| !r.broken)
            .all(|r| r.zero_streak >= r.stops.len());
        if converged {
            let now = core.now;
            for t0 in core.pending_changes.drain(..) {
                core.responses.push(ResponseSample {
                    at_us: t0.as_us_f64(),
                    response_us: (now - t0).as_us_f64(),
                });
            }
        }
    }
}

impl ManagerPolicy for TokenSmartPolicy {
    fn init(&mut self, core: &mut Core) {
        // one ring per PM cluster, seeded from the cluster's coin split;
        // the pool starts empty (all coins held) and no RNG is consumed
        for (ri, members) in core.cluster_members.iter().enumerate() {
            let stops = members.clone();
            let max: Vec<u64> = stops.iter().map(|&t| core.tiles[t].max).collect();
            let has: Vec<i64> = stops.iter().map(|&t| core.tiles[t].has).collect();
            self.rings.push(Ring {
                machine: TokenSmart::with_holdings(max, has, 0, TsConfig::default()),
                stops,
                zero_streak: 0,
                broken: false,
            });
            core.queue.schedule(
                SimTime::ZERO,
                Ev::Manager(ManagerEv::TokenHop { ring: ri, stop: 0 }),
            );
        }
    }

    fn on_activity_change(&mut self, core: &mut Core, ti: usize) {
        // mirror the tile's new RP/AP target into its ring's ledger; the
        // allocation itself waits for the token to come around
        if self.rings.is_empty() {
            // boot-time activation: the roots are enqueued before init,
            // which reads the live targets when it builds the rings
            return;
        }
        let ri = core.cluster_of[ti];
        let ring = &mut self.rings[ri];
        let stop = ring.stops.iter().position(|&t| t == ti).expect("ring stop");
        ring.machine.set_max(stop, core.tiles[ti].max);
        ring.zero_streak = 0;
    }

    fn on_event(&mut self, core: &mut Core, ev: ManagerEv) {
        match ev {
            ManagerEv::TokenHop { ring, stop } => self.on_token_hop(core, ring, stop),
            _ => unreachable!("TokenSmart schedules only TokenHop events"),
        }
    }

    fn halts_when_settled(&self, _core: &Core) -> bool {
        // a broken ring can never circulate again, so its pending
        // responses will never drain
        self.rings.iter().any(|r| r.broken)
    }

    fn owns_coin_economy(&self) -> bool {
        true
    }

    fn coins_in_flight(&self) -> i64 {
        self.rings.iter().map(|r| r.machine.pool()).sum()
    }

    fn finalize(&mut self, report: &mut SimReport) {
        let broken = self.rings.iter().filter(|r| r.broken).count();
        let switches: u64 = self.rings.iter().map(|r| r.machine.mode_switches()).sum();
        let in_transit = self.coins_in_flight();
        // a broken ring's pool is trapped, not lost: count it quarantined
        report.coins_quarantined += self
            .rings
            .iter()
            .filter(|r| r.broken)
            .map(|r| r.machine.pool())
            .sum::<i64>();
        report
            .scheme_stats
            .push(("ts_rings_broken".into(), broken as f64));
        report
            .scheme_stats
            .push(("ts_mode_switches".into(), switches as f64));
        report
            .scheme_stats
            .push(("ts_pool_in_transit".into(), in_transit as f64));
    }
}
