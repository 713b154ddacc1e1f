//! Deterministic link-reservation timing model of the mesh NoC.
//!
//! The model captures what the paper's evaluation depends on:
//!
//! - XY dimension-ordered routing with **one cycle per hop** (the ESP NoC
//!   guarantees one-cycle-per-hop throughput at its fixed 800 MHz domain,
//!   Section IV-C);
//! - per-link **serialization**: a link is busy for one cycle per flit, so
//!   back-to-back messages on a shared link queue behind each other —
//!   this is how the paper's observation that "coin exchange messages may
//!   have to compete with other message types on the NoC" (Section IV-A)
//!   manifests;
//! - injection/ejection overhead at the source and destination sockets
//!   (voltage/frequency boundary-crossing synchronizers are on the tile
//!   side, not on plane-5's NoC-domain socket, so these are small).
//!
//! The model is a *timing* model: callers keep ownership of packet
//! payloads and use the returned delivery time to schedule delivery events
//! in their own event queue.

use blitzcoin_sim::{FaultPlan, SimTime};

use crate::packet::Packet;
use crate::topology::{TileId, Topology};

/// Number of physical NoC planes (matches `Plane::index()` and the per-plane
/// arrays in [`TrafficStats`]).
const PLANES: usize = 6;

/// Outgoing link directions per tile for the dense reservation table: every
/// mesh link is uniquely `(source tile, one of 4 directions)`.
const LINK_DIRS: usize = 4;

/// Direction codes of the reservation table's `(plane, direction)` rows.
const EAST: usize = 0;
const SOUTH: usize = 1;
const WEST: usize = 2;
const NORTH: usize = 3;

/// The outcome of offering a packet to the NoC.
///
/// With no fault plan installed every send is [`Delivery::Delivered`];
/// under fault injection a packet can instead be lost to a random drop or
/// a link outage. Callers schedule a delivery event only for delivered
/// packets — a dropped packet simply never arrives, and it is the
/// *protocol's* job (timeouts, retries) to cope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reaches the destination socket at this time.
    Delivered(SimTime),
    /// The packet is lost in flight and never arrives.
    Dropped,
}

impl Delivery {
    /// Delivery time, or `None` for a dropped packet.
    pub fn time(self) -> Option<SimTime> {
        match self {
            Delivery::Delivered(t) => Some(t),
            Delivery::Dropped => None,
        }
    }

    /// True when the packet was lost.
    pub fn is_dropped(self) -> bool {
        self == Delivery::Dropped
    }

    /// Unwraps the delivery time; panics on a dropped packet. For call
    /// sites that run with no fault plan (where drops are impossible).
    #[track_caller]
    pub fn expect_delivered(self) -> SimTime {
        match self {
            Delivery::Delivered(t) => t,
            Delivery::Dropped => panic!("packet dropped, but caller assumed fault-free delivery"),
        }
    }
}

/// Cycles for a flit to traverse one router-to-router hop (the ESP NoC's
/// one-cycle-per-hop guarantee, Section IV-C).
const HOP_CYCLES: u64 = 1;

/// Cycles to inject from the source socket into its local router.
const INJECT_CYCLES: u64 = 1;

/// Cycles to eject from the destination router into its socket.
const EJECT_CYCLES: u64 = 1;

/// Per-plane traffic accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Packets sent per plane (indexed by `Plane::index`).
    pub packets: [u64; 6],
    /// Flits sent per plane.
    pub flits: [u64; 6],
    /// Total hops traversed by all packets.
    pub hops: u64,
    /// Packets belonging to the coin-management message class.
    pub coin_packets: u64,
    /// Cumulative queueing delay (contention) suffered, in cycles.
    pub contention_cycles: u64,
    /// Packets lost per plane (fault injection: drops and link outages).
    pub dropped: [u64; 6],
}

blitzcoin_sim::json_fields!(TrafficStats {
    packets,
    flits,
    hops,
    coin_packets,
    contention_cycles,
    dropped
});

impl TrafficStats {
    /// Total packets across all planes.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total packets lost across all planes.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

/// The mesh NoC timing model.
///
/// # Example
///
/// ```
/// use blitzcoin_noc::{Network, Packet, PacketKind, Plane, Topology};
/// use blitzcoin_sim::SimTime;
///
/// let topo = Topology::mesh(3, 3);
/// let mut net = Network::new(topo);
/// let a = topo.tile(0, 0);
/// let b = topo.tile(1, 0);
/// let pkt = Packet::coin(a, b, PacketKind::CoinStatus { has: 3, max: 8 });
/// let t1 = net.send(SimTime::ZERO, &pkt).expect_delivered();
/// // 1 inject + 1 hop + 1 eject = 3 cycles zero-load
/// assert_eq!(t1, SimTime::from_noc_cycles(3));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    /// Earliest time each `(link, plane)` is free, plane-major: the link
    /// leaving tile `src` in direction `dir` on `plane` is slot
    /// `(plane * LINK_DIRS + dir) * tiles + src`. Each `(plane, dir)` row
    /// is indexed by tile, so consecutive hops of one XY leg step through
    /// a row with the same stride as the tile id, and the PM plane's
    /// traffic stays in its own `4 * tiles` slots (32 KiB at 32x32).
    link_free: Vec<SimTime>,
    stats: TrafficStats,
    fault: FaultPlan,
}

impl Network {
    /// Creates a network over `topo` with no fault injection.
    pub fn new(topo: Topology) -> Self {
        Network {
            topo,
            link_free: vec![SimTime::ZERO; topo.len() * LINK_DIRS * PLANES],
            stats: TrafficStats::default(),
            fault: FaultPlan::none(),
        }
    }

    /// Installs a fault plan; subsequent sends are subject to its drops,
    /// outages, and delays.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Dense-structure audit: the length of every per-tile container the
    /// analytic model owns, by name. `link_free` is the one dense table —
    /// `tiles * LINK_DIRS * PLANES` slots — and must stay O(tiles); the
    /// scaling tests assert linear growth between 8x8 and 16x16.
    pub fn structure_lens(&self) -> Vec<(&'static str, usize)> {
        vec![("link_free", self.link_free.len())]
    }

    /// Sends `packet` at time `now`; returns its [`Delivery`] outcome and
    /// accounts traffic.
    ///
    /// A packet to the sending tile itself (loopback, e.g. a CSR access
    /// from the local BlitzCoin unit) costs injection + ejection only.
    ///
    /// Fault injection, when a plan is installed:
    /// - a packet crossing a link inside an outage window is lost *at that
    ///   link* (upstream links were still occupied);
    /// - a per-plane random drop loses the packet at the destination
    ///   socket (a corrupted tail flit), so it consumes bandwidth along
    ///   its whole route — other packets' timing is unaffected by whether
    ///   this one ultimately survives;
    /// - extra per-hop delay and per-message jitter stretch the delivery
    ///   time without changing link reservations.
    pub fn send(&mut self, now: SimTime, packet: &Packet) -> Delivery {
        let plane = packet.plane.index();
        let flits = packet.flits() as u64;
        self.stats.packets[plane] += 1;
        self.stats.flits[plane] += flits;
        if packet.kind.is_coin_message() {
            self.stats.coin_packets += 1;
        }

        let (src, dst) = (packet.src.0, packet.dst.0);
        let width = self.topo.width();
        let (sx, sy, dx, dy) = (src % width, src / width, dst % width, dst / width);
        let (x_hops, y_hops) = (sx.abs_diff(dx), sy.abs_diff(dy));
        let hops = (x_hops + y_hops) as u64;
        self.stats.hops += hops;
        let faults = !self.fault.is_empty();

        // XY routing: the X leg along the source's row, then the Y leg down
        // the destination's column from the corner tile (dx, sy). Within a
        // leg the tile id, and so the slot in its `(plane, dir)` row, moves
        // by a constant step; -1 and -width are their wrapping two's
        // complements. Per hop, in order: the departure is the later of
        // the head flit's arrival and the link's free time, an outage at
        // the departure cycle loses the packet, and otherwise the wait
        // counts as contention and the link stays busy one cycle per flit.
        let (x_dir, x_step) = if dx > sx {
            (EAST, 1)
        } else {
            (WEST, usize::MAX)
        };
        let (y_dir, y_step) = if dy > sy {
            (SOUTH, width)
        } else {
            (NORTH, width.wrapping_neg())
        };
        let tiles = self.topo.len();
        let busy = SimTime::from_noc_cycles(flits);
        let hop = SimTime::from_noc_cycles(HOP_CYCLES);
        let mut cursor = now + SimTime::from_noc_cycles(INJECT_CYCLES);
        for (mut tile, dir, step, count) in [
            (src, x_dir, x_step, x_hops),
            (sy * width + dx, y_dir, y_step, y_hops),
        ] {
            let row = (plane * LINK_DIRS + dir) * tiles;
            let links = &mut self.link_free[row..row + tiles];
            for _ in 0..count {
                let next = tile.wrapping_add(step);
                let depart = cursor.max(links[tile]);
                if faults && self.fault.link_down(tile, next, depart.as_noc_cycles()) {
                    self.stats.dropped[plane] += 1;
                    return Delivery::Dropped;
                }
                self.stats.contention_cycles += (depart - cursor).as_noc_cycles();
                links[tile] = depart + busy;
                cursor = depart + hop;
                tile = next;
            }
        }
        if faults {
            let cycle = now.as_noc_cycles();
            if self.fault.drops_packet(plane, src, dst, cycle) {
                self.stats.dropped[plane] += 1;
                return Delivery::Dropped;
            }
            let extra = self.fault.extra_hop_delay_cycles(src, dst, cycle, hops)
                + self.fault.msg_jitter(src, dst, cycle);
            cursor += SimTime::from_noc_cycles(extra);
        }
        Delivery::Delivered(cursor + SimTime::from_noc_cycles(EJECT_CYCLES))
    }

    /// Zero-load latency bound for a packet from `src` to `dst` (no
    /// contention, no state change). Useful for analytical comparisons.
    pub fn latency_bound(&self, src: TileId, dst: TileId) -> SimTime {
        let hops = self.topo.hop_distance(src, dst) as u64;
        SimTime::from_noc_cycles(INJECT_CYCLES + HOP_CYCLES * hops + EJECT_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketKind, Plane};
    use blitzcoin_sim::{LinkOutage, SimRng};

    /// The per-hop `send` the leg walk replaced, kept as its reference
    /// model: it follows `Topology::xy_route` and names each link's slot
    /// by matching the hop's tile-id delta, in a tile-major table.
    impl Network {
        fn link_slot(&self, prev: TileId, next: TileId, plane: usize) -> usize {
            let dir = match next.0.wrapping_sub(prev.0) {
                1 => 0,
                d if d == self.topo.width() => 1,
                d if d == usize::MAX => 2, // -1: westbound
                _ => 3,                    // -width: northbound
            };
            (prev.0 * LINK_DIRS + dir) * PLANES + plane
        }

        fn send_per_hop(&mut self, now: SimTime, packet: &Packet) -> Delivery {
            let plane = packet.plane.index();
            let flits = packet.flits() as u64;
            self.stats.packets[plane] += 1;
            self.stats.flits[plane] += flits;
            if packet.kind.is_coin_message() {
                self.stats.coin_packets += 1;
            }
            let hops = self.topo.hop_distance(packet.src, packet.dst) as u64;
            self.stats.hops += hops;
            let faults = !self.fault.is_empty();
            let mut cursor = now + SimTime::from_noc_cycles(INJECT_CYCLES);
            let mut prev = packet.src;
            for next in self.topo.xy_route(packet.src, packet.dst) {
                let slot = self.link_slot(prev, next, plane);
                let depart = cursor.max(self.link_free[slot]);
                if faults && self.fault.link_down(prev.0, next.0, depart.as_noc_cycles()) {
                    self.stats.dropped[plane] += 1;
                    return Delivery::Dropped;
                }
                self.stats.contention_cycles += (depart - cursor).as_noc_cycles();
                self.link_free[slot] = depart + SimTime::from_noc_cycles(flits);
                cursor = depart + SimTime::from_noc_cycles(HOP_CYCLES);
                prev = next;
            }
            if faults {
                let cycle = now.as_noc_cycles();
                let (src, dst) = (packet.src.0, packet.dst.0);
                if self.fault.drops_packet(plane, src, dst, cycle) {
                    self.stats.dropped[plane] += 1;
                    return Delivery::Dropped;
                }
                let extra = self.fault.extra_hop_delay_cycles(src, dst, cycle, hops)
                    + self.fault.msg_jitter(src, dst, cycle);
                cursor += SimTime::from_noc_cycles(extra);
            }
            Delivery::Delivered(cursor + SimTime::from_noc_cycles(EJECT_CYCLES))
        }
    }

    /// A random fault plan for `topo`: none, or any mix of drops, link
    /// outages (between mesh neighbours, over a window the sends hit),
    /// per-hop delay and jitter.
    fn random_plan(rng: &mut SimRng, topo: &Topology) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: rng.next_u64(),
            ..FaultPlan::default()
        };
        if rng.chance(0.2) {
            return plan;
        }
        if rng.chance(0.5) {
            plan.drop_prob = (0..rng.range_usize(1..7))
                .map(|_| rng.unit_f64() * 0.3)
                .collect();
        }
        if rng.chance(0.5) {
            for _ in 0..rng.range_usize(1..6) {
                let a = rng.range_usize(0..topo.len());
                let Some(&b) = topo.neighbors(TileId(a)).first() else {
                    continue;
                };
                let from_cycle = rng.range_u64(0..400);
                plan.outages.push(LinkOutage {
                    a,
                    b: b.0,
                    from_cycle,
                    until_cycle: from_cycle + rng.range_u64(1..200),
                });
            }
        }
        if rng.chance(0.5) {
            plan.extra_hop_delay_max_cycles = rng.range_u64(1..6);
        }
        if rng.chance(0.5) {
            plan.msg_jitter_cycles = rng.range_u64(1..9);
        }
        plan
    }

    #[test]
    fn leg_walk_matches_per_hop_reference() {
        blitzcoin_sim::check::forall_seeded("leg_walk_vs_per_hop", 0x1E6_3A1C, 0..400, |rng| {
            let topo = Topology::mesh(rng.range_usize(1..10), rng.range_usize(1..10));
            let plan = random_plan(rng, &topo);
            let mut net = Network::new(topo);
            let mut reference = Network::new(topo);
            net.set_fault_plan(plan.clone());
            reference.set_fault_plan(plan);
            let mut now = rng.range_u64(0..5_000);
            for i in 0..rng.range_usize(1..300) {
                // unaligned to the cycle, and often repeated so that
                // back-to-back packets contend for the same links
                if rng.chance(0.6) {
                    now += rng.range_u64(0..3 * blitzcoin_sim::time::NOC_CYCLE_PS);
                }
                let src = TileId(rng.range_usize(0..topo.len()));
                let dst = TileId(rng.range_usize(0..topo.len()));
                let plane = *rng.choose(&Plane::ALL);
                let kind = match rng.range_u64(0..3) {
                    0 => PacketKind::RegRead,
                    1 => PacketKind::CoinStatus { has: 1, max: 2 },
                    _ => PacketKind::DmaBurst {
                        flits: rng.range_u64(0..17) as u32,
                    },
                };
                let pkt = Packet::new(src, dst, plane, kind);
                let t = SimTime::from_ps(now);
                let (got, want) = (net.send(t, &pkt), reference.send_per_hop(t, &pkt));
                blitzcoin_sim::ensure!(
                    got == want,
                    "send {i} ({src} -> {dst}, {plane:?}, {} flits at {now} ps) on {}x{}: \
                     {got:?}, reference {want:?}",
                    pkt.flits(),
                    topo.width(),
                    topo.height()
                );
            }
            blitzcoin_sim::ensure!(
                net.stats() == reference.stats(),
                "stats {:?}, reference {:?}",
                net.stats(),
                reference.stats()
            );
            Ok(())
        });
    }

    fn coin_pkt(topo: &Topology, a: (usize, usize), b: (usize, usize)) -> Packet {
        Packet::coin(
            topo.tile(a.0, a.1),
            topo.tile(b.0, b.1),
            PacketKind::CoinStatus { has: 1, max: 2 },
        )
    }

    #[test]
    fn zero_load_latency_matches_bound() {
        let topo = Topology::mesh(5, 5);
        let mut net = Network::new(topo);
        let pkt = coin_pkt(&topo, (0, 0), (4, 4));
        let t = net.send(SimTime::ZERO, &pkt).expect_delivered();
        assert_eq!(t, net.latency_bound(pkt.src, pkt.dst));
        assert_eq!(t, SimTime::from_noc_cycles(1 + 8 + 1));
    }

    #[test]
    fn loopback_costs_inject_plus_eject() {
        let topo = Topology::mesh(3, 3);
        let mut net = Network::new(topo);
        let a = topo.tile(1, 1);
        let pkt = Packet::new(a, a, Plane::MmioIrq, PacketKind::RegRead);
        assert_eq!(
            net.send(SimTime::ZERO, &pkt),
            Delivery::Delivered(SimTime::from_noc_cycles(2))
        );
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let topo = Topology::mesh(3, 1);
        let mut net = Network::new(topo);
        let pkt = coin_pkt(&topo, (0, 0), (2, 0));
        let t1 = net.send(SimTime::ZERO, &pkt).expect_delivered();
        let t2 = net.send(SimTime::ZERO, &pkt).expect_delivered(); // same instant, same links
        assert!(t2 > t1, "second packet must queue behind the first");
        assert!(net.stats().contention_cycles > 0);
    }

    #[test]
    fn different_planes_do_not_contend() {
        let topo = Topology::mesh(3, 1);
        let mut net = Network::new(topo);
        let a = topo.tile(0, 0);
        let b = topo.tile(2, 0);
        let p5 = Packet::new(a, b, Plane::MmioIrq, PacketKind::RegRead);
        let dma = Packet::new(a, b, Plane::Dma1, PacketKind::DmaBurst { flits: 16 });
        net.send(SimTime::ZERO, &dma);
        let t_p5 = net.send(SimTime::ZERO, &p5).expect_delivered();
        // plane-5 packet must not queue behind the DMA burst on another plane
        assert_eq!(t_p5, net.latency_bound(a, b));
        assert_eq!(net.stats().contention_cycles, 0);
        // whereas a second burst on the same plane does queue
        net.send(SimTime::ZERO, &dma);
        assert!(net.stats().contention_cycles > 0);
    }

    #[test]
    fn stats_accounting() {
        let topo = Topology::mesh(3, 3);
        let mut net = Network::new(topo);
        let pkt = coin_pkt(&topo, (0, 0), (2, 0));
        net.send(SimTime::ZERO, &pkt);
        net.send(
            SimTime::ZERO,
            &Packet::new(
                topo.tile(0, 0),
                topo.tile(0, 2),
                Plane::MmioIrq,
                PacketKind::RegWrite { value: 7 },
            ),
        );
        let s = net.stats();
        assert_eq!(s.total_packets(), 2);
        assert_eq!(s.coin_packets, 1);
        assert_eq!(s.packets[Plane::MmioIrq.index()], 2);
        assert_eq!(s.hops, 4);
    }

    #[test]
    fn later_send_after_link_free_sees_no_contention() {
        let topo = Topology::mesh(2, 1);
        let mut net = Network::new(topo);
        let pkt = coin_pkt(&topo, (0, 0), (1, 0));
        net.send(SimTime::ZERO, &pkt);
        let before = net.stats().contention_cycles;
        net.send(SimTime::from_noc_cycles(100), &pkt);
        assert_eq!(net.stats().contention_cycles, before);
    }

    #[test]
    fn link_outage_drops_packets_only_inside_window() {
        let topo = Topology::mesh(3, 1);
        let mut net = Network::new(topo);
        let a = topo.tile(1, 0).0;
        let b = topo.tile(2, 0).0;
        net.set_fault_plan(FaultPlan {
            outages: vec![blitzcoin_sim::LinkOutage {
                a,
                b,
                from_cycle: 100,
                until_cycle: 200,
            }],
            ..FaultPlan::default()
        });
        let pkt = coin_pkt(&topo, (0, 0), (2, 0));
        assert!(!net.send(SimTime::ZERO, &pkt).is_dropped());
        assert!(net.send(SimTime::from_noc_cycles(150), &pkt).is_dropped());
        assert!(!net.send(SimTime::from_noc_cycles(300), &pkt).is_dropped());
        assert_eq!(net.stats().total_dropped(), 1);
        // A packet not crossing the dead link is unaffected mid-window.
        let short = coin_pkt(&topo, (0, 0), (1, 0));
        assert!(!net.send(SimTime::from_noc_cycles(150), &short).is_dropped());
    }

    #[test]
    fn random_drops_are_deterministic_and_roughly_calibrated() {
        let topo = Topology::mesh(4, 4);
        let run = |seed: u64| {
            let mut net = Network::new(topo);
            net.set_fault_plan(FaultPlan {
                seed,
                drop_prob: vec![0.2],
                ..FaultPlan::default()
            });
            let pkt = coin_pkt(&topo, (0, 0), (3, 3));
            let outcomes: Vec<bool> = (0..2_000u64)
                .map(|i| {
                    net.send(SimTime::from_noc_cycles(i * 10), &pkt)
                        .is_dropped()
                })
                .collect();
            (outcomes, net.stats().total_dropped())
        };
        let (o1, d1) = run(7);
        let (o2, d2) = run(7);
        assert_eq!(o1, o2, "same plan seed must reproduce the same drops");
        assert_eq!(d1, d2);
        let rate = d1 as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "drop rate {rate} far from 0.2");
        let (o3, _) = run(8);
        assert_ne!(o1, o3, "different plan seed should differ somewhere");
    }

    #[test]
    fn extra_hop_delay_stretches_latency_within_bound() {
        let topo = Topology::mesh(4, 1);
        let mut plain = Network::new(topo);
        let mut faulty = Network::new(topo);
        faulty.set_fault_plan(FaultPlan {
            seed: 3,
            extra_hop_delay_max_cycles: 5,
            ..FaultPlan::default()
        });
        let pkt = coin_pkt(&topo, (0, 0), (3, 0));
        let mut widened = false;
        for i in 0..64u64 {
            let t = SimTime::from_noc_cycles(i * 100);
            let base = plain.send(t, &pkt).expect_delivered();
            let slow = faulty.send(t, &pkt).expect_delivered();
            assert!(slow >= base);
            assert!(slow - base <= SimTime::from_noc_cycles(3 * 5));
            widened |= slow > base;
        }
        assert!(widened, "extra hop delay never materialized");
    }

    #[test]
    fn empty_plan_is_free_of_fault_effects() {
        let topo = Topology::mesh(3, 3);
        let mut plain = Network::new(topo);
        let mut with_plan = Network::new(topo);
        with_plan.set_fault_plan(FaultPlan::none());
        let pkt = coin_pkt(&topo, (0, 0), (2, 2));
        for i in 0..16u64 {
            let t = SimTime::from_noc_cycles(i * 7);
            assert_eq!(plain.send(t, &pkt), with_plan.send(t, &pkt));
        }
        assert_eq!(with_plan.stats().total_dropped(), 0);
    }
}
