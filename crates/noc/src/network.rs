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

use blitzcoin_sim::SimTime;

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
}

blitzcoin_sim::json_fields!(TrafficStats {
    packets,
    flits,
    hops,
    coin_packets,
    contention_cycles
});

impl TrafficStats {
    /// Total packets across all planes.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
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
/// let t1 = net.send(SimTime::ZERO, &pkt);
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
}

impl Network {
    /// Creates an idle network over `topo`.
    pub fn new(topo: Topology) -> Self {
        Network {
            topo,
            link_free: vec![SimTime::ZERO; topo.len() * LINK_DIRS * PLANES],
            stats: TrafficStats::default(),
        }
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

    /// Sends `packet` at time `now`; returns the time it reaches the
    /// destination socket and accounts traffic. Every packet arrives.
    ///
    /// A packet to the sending tile itself (loopback, e.g. a CSR access
    /// from the local BlitzCoin unit) costs injection + ejection only.
    pub fn send(&mut self, now: SimTime, packet: &Packet) -> SimTime {
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
        self.stats.hops += (x_hops + y_hops) as u64;

        // XY routing: the X leg along the source's row, then the Y leg down
        // the destination's column from the corner tile (dx, sy). Within a
        // leg the tile id, and so the slot in its `(plane, dir)` row, moves
        // by a constant step; -1 and -width are their wrapping two's
        // complements. Per hop: the departure is the later of the head
        // flit's arrival and the link's free time, the wait counts as
        // contention, and the link stays busy one cycle per flit.
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
                let depart = cursor.max(links[tile]);
                self.stats.contention_cycles += (depart - cursor).as_noc_cycles();
                links[tile] = depart + busy;
                cursor = depart + hop;
                tile = tile.wrapping_add(step);
            }
        }
        cursor + SimTime::from_noc_cycles(EJECT_CYCLES)
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

        fn send_per_hop(&mut self, now: SimTime, packet: &Packet) -> SimTime {
            let plane = packet.plane.index();
            let flits = packet.flits() as u64;
            self.stats.packets[plane] += 1;
            self.stats.flits[plane] += flits;
            if packet.kind.is_coin_message() {
                self.stats.coin_packets += 1;
            }
            self.stats.hops += self.topo.hop_distance(packet.src, packet.dst) as u64;
            let mut cursor = now + SimTime::from_noc_cycles(INJECT_CYCLES);
            let mut prev = packet.src;
            for next in self.topo.xy_route(packet.src, packet.dst) {
                let slot = self.link_slot(prev, next, plane);
                let depart = cursor.max(self.link_free[slot]);
                self.stats.contention_cycles += (depart - cursor).as_noc_cycles();
                self.link_free[slot] = depart + SimTime::from_noc_cycles(flits);
                cursor = depart + SimTime::from_noc_cycles(HOP_CYCLES);
                prev = next;
            }
            cursor + SimTime::from_noc_cycles(EJECT_CYCLES)
        }
    }

    #[test]
    fn leg_walk_matches_per_hop_reference() {
        blitzcoin_sim::check::forall_seeded("leg_walk_vs_per_hop", 0x1E6_3A1C, 0..400, |rng| {
            let topo = Topology::mesh(rng.range_usize(1..10), rng.range_usize(1..10));
            let mut net = Network::new(topo);
            let mut reference = Network::new(topo);
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
        let t = net.send(SimTime::ZERO, &pkt);
        assert_eq!(t, net.latency_bound(pkt.src, pkt.dst));
        assert_eq!(t, SimTime::from_noc_cycles(1 + 8 + 1));
    }

    #[test]
    fn loopback_costs_inject_plus_eject() {
        let topo = Topology::mesh(3, 3);
        let mut net = Network::new(topo);
        let a = topo.tile(1, 1);
        let pkt = Packet::new(a, a, Plane::MmioIrq, PacketKind::RegRead);
        assert_eq!(net.send(SimTime::ZERO, &pkt), SimTime::from_noc_cycles(2));
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let topo = Topology::mesh(3, 1);
        let mut net = Network::new(topo);
        let pkt = coin_pkt(&topo, (0, 0), (2, 0));
        let t1 = net.send(SimTime::ZERO, &pkt);
        let t2 = net.send(SimTime::ZERO, &pkt); // same instant, same links
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
        let t_p5 = net.send(SimTime::ZERO, &p5);
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
}
