//! A flit-level wormhole-routed mesh, used to validate the
//! link-reservation timing model.
//!
//! [`crate::Network`] is an analytic timing model: it reserves links along
//! the XY route and returns a delivery time. That is fast enough to sit
//! inside Monte-Carlo sweeps, but its fidelity needs to be checked against
//! something closer to hardware. This module implements the classic
//! reference: input-buffered wormhole routers with XY dimension-ordered
//! routing, one flit per link per cycle, and round-robin output
//! arbitration — stepped cycle by cycle.
//!
//! The cross-validation tests (and the `noc-validation` experiment) show
//! that at zero load the two models agree hop-for-hop, and that under the
//! coin-exchange traffic levels BlitzCoin produces, the analytic model's
//! latencies are within a small factor of the wormhole router's.

use std::collections::VecDeque;

use blitzcoin_sim::oracle::{self, Invariant, Oracle};
use blitzcoin_sim::rng::splitmix64;
use blitzcoin_sim::TieBreak;

use crate::packet::Packet;
use crate::topology::{Coord, TileId, Topology};

/// Wormhole network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WormholeConfig {
    /// Flit slots per input buffer.
    pub buffer_flits: usize,
    /// Same-cycle arbitration order across routers. The default
    /// ([`TieBreak::Fifo`]) visits routers in index order; the other
    /// modes reverse or permute the visitation per cycle. Because phase-1
    /// moves are computed against buffer occupancies snapshotted at cycle
    /// start and each `(router, port)` receives at most one flit per
    /// cycle from a unique upstream, delivery results must be identical
    /// in every mode — the interleaving fuzzer asserts exactly that.
    pub tie_break: TieBreak,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        WormholeConfig {
            buffer_flits: 4,
            tie_break: TieBreak::Fifo,
        }
    }
}

/// Router port indices: N, S, E, W, local.
const PORTS: usize = 5;
const LOCAL: usize = 4;

/// A packet in flight.
#[derive(Debug, Clone)]
struct Flight {
    packet: Packet,
    injected_at: u64,
    /// Flits remaining to leave the source (serialization).
    flits_left: u32,
}

/// One flit in a buffer: which flight it belongs to and whether it is the
/// tail (frees the path reservation).
#[derive(Debug, Clone, Copy)]
struct Flit {
    flight: usize,
    is_tail: bool,
}

#[derive(Debug, Clone)]
struct Router {
    /// Input buffers per port.
    inputs: [VecDeque<Flit>; PORTS],
    /// Which input port currently owns each output port (wormhole path
    /// reservation), if any.
    out_owner: [Option<usize>; PORTS],
    /// Round-robin pointer per output port.
    rr: [usize; PORTS],
}

impl Router {
    fn new() -> Self {
        Router {
            inputs: Default::default(),
            out_owner: [None; PORTS],
            rr: [0; PORTS],
        }
    }
}

/// A delivered packet with its measured latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The packet that arrived.
    pub packet: Packet,
    /// Cycle the tail flit ejected.
    pub at_cycle: u64,
    /// Total cycles from injection to tail ejection.
    pub latency_cycles: u64,
}

/// The cycle-stepped wormhole network.
///
/// # Example
///
/// ```
/// use blitzcoin_noc::wormhole::{WormholeConfig, WormholeNetwork};
/// use blitzcoin_noc::{Packet, PacketKind, Plane, Topology};
///
/// let topo = Topology::mesh(4, 4);
/// let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
/// let pkt = Packet::new(topo.tile(0, 0), topo.tile(3, 0), Plane::MmioIrq,
///                       PacketKind::CoinRequest);
/// net.inject(pkt);
/// let delivered = net.run_until_idle(1_000);
/// assert_eq!(delivered.len(), 1);
/// // 3 hops + pipeline overheads: single-digit cycles at zero load
/// assert!(delivered[0].latency_cycles <= 8);
/// ```
#[derive(Debug, Clone)]
pub struct WormholeNetwork {
    topo: Topology,
    config: WormholeConfig,
    routers: Vec<Router>,
    flights: Vec<Flight>,
    /// Flights waiting at their source NI to start injecting.
    inject_queue: Vec<VecDeque<usize>>,
    cycle: u64,
    /// Flits of all packets whose tail has ejected (running counter; feeds
    /// [`WormholeNetwork::accepted_throughput`]).
    delivered_flit_total: u64,
    /// Packets whose tail has ejected.
    delivered_packets: u64,
    /// Every flit that left the network at a local port (head, body and
    /// tail alike) — one side of the conservation ledger.
    ejected_flits: u64,
    /// `coords[t]`: tile `t`'s mesh coordinates, precomputed so the
    /// per-flit XY routing decision in `step` is two array reads and a
    /// compare chain instead of two div/mod decompositions. Replaces the
    /// old dense `route_tbl: Vec<u8>` of `n * n` entries, which XY routing
    /// never needed (1 MB at 32x32, 256 MB at 128x128) — the port out of
    /// `r` toward `dst` is a pure function of the two coordinates.
    coords: Vec<Coord>,
    /// `next_tbl[r][port]`: the neighbor router behind each non-local
    /// output port (`usize::MAX` at a mesh edge, which XY routing never
    /// asks for).
    next_tbl: Vec<[usize; 4]>,
    /// Per-cycle scratch, owned by the network so `step` allocates
    /// nothing: free buffer slots and same-cycle claims per router/port,
    /// flits crossing links this cycle, and this cycle's deliveries.
    scratch_free: Vec<[usize; PORTS]>,
    scratch_claimed: Vec<[usize; PORTS]>,
    scratch_incoming: Vec<(usize, usize, Flit)>,
    /// Router visitation order under [`TieBreak::Permuted`] (rebuilt
    /// keyed-per-cycle; unused in the other modes).
    scratch_order: Vec<usize>,
    deliveries: Vec<Delivery>,
    /// Continuous flit-conservation auditor (no-op unless the oracle is
    /// compiled in; see `blitzcoin_sim::oracle`).
    oracle: Oracle,
}

impl WormholeNetwork {
    /// Creates an idle network over `topo`.
    pub fn new(topo: Topology, config: WormholeConfig) -> Self {
        assert!(config.buffer_flits >= 1, "buffers need at least one slot");
        let n = topo.len();
        let coords = (0..n).map(|t| topo.coord(TileId(t))).collect();
        let next_tbl = (0..n)
            .map(|r| {
                use crate::topology::Direction::*;
                let mut row = [usize::MAX; 4];
                for (port, dir) in [North, South, East, West].into_iter().enumerate() {
                    if let Some(t) = topo.neighbor(TileId(r), dir) {
                        row[port] = t.index();
                    }
                }
                row
            })
            .collect();
        WormholeNetwork {
            topo,
            config,
            routers: (0..n).map(|_| Router::new()).collect(),
            flights: Vec::new(),
            inject_queue: vec![VecDeque::new(); n],
            cycle: 0,
            delivered_flit_total: 0,
            delivered_packets: 0,
            ejected_flits: 0,
            coords,
            next_tbl,
            scratch_free: vec![[0; PORTS]; n],
            scratch_claimed: vec![[0; PORTS]; n],
            scratch_incoming: Vec::new(),
            scratch_order: Vec::new(),
            deliveries: Vec::new(),
            oracle: Oracle::new("noc::wormhole::WormholeNetwork", 0),
        }
    }

    /// The flit-conservation oracle for this network: zero recorded
    /// violations means no flit was ever lost, duplicated, or buffered
    /// beyond a port's configured depth.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Dense-structure audit: the length of every per-tile container this
    /// network owns, by name. Each of these must grow O(tiles), never
    /// O(tiles²) — the scaling tests assert exactly that between 8x8 and
    /// 16x16, so a dense route-table-style structure cannot creep back in
    /// unnoticed.
    pub fn structure_lens(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("routers", self.routers.len()),
            ("inject_queue", self.inject_queue.len()),
            ("coords", self.coords.len()),
            ("next_tbl", self.next_tbl.len()),
            ("scratch_free", self.scratch_free.len()),
            ("scratch_claimed", self.scratch_claimed.len()),
        ]
    }

    /// Queues a packet for injection at its source tile (takes effect from
    /// the next cycle; injection serializes one flit per cycle per tile).
    pub fn inject(&mut self, packet: Packet) {
        let src = packet.src.index();
        let flits = packet.flits();
        let id = self.flights.len();
        self.flights.push(Flight {
            packet,
            injected_at: self.cycle,
            flits_left: flits,
        });
        self.inject_queue[src].push_back(id);
    }

    /// Advances one cycle; returns packets whose tail ejected this cycle.
    ///
    /// The returned slice borrows scratch storage owned by the network and
    /// is valid until the next `step` call; `step` itself performs no heap
    /// allocation once the per-cycle scratch buffers have reached their
    /// steady-state capacity.
    pub fn step(&mut self) -> &[Delivery] {
        self.cycle += 1;
        let n = self.topo.len();
        self.deliveries.clear();
        self.scratch_incoming.clear();

        // Phase 1: each router arbitrates each output port and moves at
        // most one flit from the granted input into the neighbor's input
        // buffer (or ejects at the local port). To keep the update order
        // deterministic and single-cycle-consistent, moves are computed
        // against buffer occupancies snapshotted at cycle start.
        for (router, free) in self.routers.iter().zip(self.scratch_free.iter_mut()) {
            for (p, buf) in router.inputs.iter().enumerate() {
                free[p] = self.config.buffer_flits - buf.len().min(self.config.buffer_flits);
            }
        }
        for claimed in self.scratch_claimed.iter_mut() {
            *claimed = [0; PORTS];
        }

        // Router visitation order is order-independent by construction
        // (snapshotted free space; one upstream per (router, port)), so
        // the tie-break modes fuzz it: FIFO visits in index order
        // (bit-identical to the historical loop), LIFO in reverse, and
        // Permuted in a keyed per-cycle shuffle. Output-port order
        // *within* a router stays fixed — it is load-bearing (a popped
        // input's new head may be granted by a later-visited output in
        // the same cycle) and is not a legal axis to permute.
        match self.config.tie_break {
            TieBreak::Fifo => {
                for r in 0..n {
                    self.arbitrate_router(r);
                }
            }
            TieBreak::Lifo => {
                for r in (0..n).rev() {
                    self.arbitrate_router(r);
                }
            }
            TieBreak::Permuted(key) => {
                self.scratch_order.clear();
                self.scratch_order.extend(0..n);
                let mut s = splitmix64(key ^ self.cycle);
                for i in (1..n).rev() {
                    s = splitmix64(s);
                    self.scratch_order.swap(i, (s % (i as u64 + 1)) as usize);
                }
                for i in 0..n {
                    let r = self.scratch_order[i];
                    self.arbitrate_router(r);
                }
            }
        }
        // Each (router, port) receives at most one flit per cycle (its
        // sending neighbor forwards one flit per output), so applying the
        // link crossings in discovery order lands every flit in the same
        // buffer slot the per-router grouping used to.
        for i in 0..self.scratch_incoming.len() {
            let (r, port, flit) = self.scratch_incoming[i];
            self.routers[r].inputs[port].push_back(flit);
        }

        // Phase 2: source injection, one flit per tile per cycle.
        for src in 0..n {
            let Some(&flight_id) = self.inject_queue[src].front() else {
                continue;
            };
            let local_free = self.config.buffer_flits
                - self.routers[src].inputs[LOCAL]
                    .len()
                    .min(self.config.buffer_flits);
            if local_free == 0 {
                continue;
            }
            let flight = &mut self.flights[flight_id];
            flight.flits_left -= 1;
            let is_tail = flight.flits_left == 0;
            self.routers[src].inputs[LOCAL].push_back(Flit {
                flight: flight_id,
                is_tail,
            });
            if is_tail {
                self.inject_queue[src].pop_front();
            }
        }

        if oracle::enabled() {
            self.audit_flits();
        }
        &self.deliveries
    }

    /// Phase-1 arbitration for one router: each output port grants at
    /// most one input and moves its head flit (eject at the local port,
    /// forward into the snapshot-checked neighbor buffer otherwise).
    fn arbitrate_router(&mut self, r: usize) {
        for out in 0..PORTS {
            // find the input owning this output, or arbitrate a new head
            let owner = match self.routers[r].out_owner[out] {
                Some(inp) => Some(inp),
                None => {
                    let start = self.routers[r].rr[out];
                    (0..PORTS).map(|k| (start + k) % PORTS).find(|&inp| {
                        self.routers[r].inputs[inp]
                            .front()
                            .map(|f| self.route_port(r, f.flight) == out)
                            .unwrap_or(false)
                    })
                }
            };
            let Some(inp) = owner else { continue };
            let Some(&flit) = self.routers[r].inputs[inp].front() else {
                continue;
            };
            // the owning input's head flit must actually want this output
            if self.route_port(r, flit.flight) != out {
                continue;
            }
            if out == LOCAL {
                // ejection: always accepted
                let f = self.routers[r].inputs[inp].pop_front().expect("head");
                self.ejected_flits += 1;
                if f.is_tail {
                    self.routers[r].out_owner[out] = None;
                    let flight = &self.flights[f.flight];
                    let delivery = Delivery {
                        packet: flight.packet,
                        at_cycle: self.cycle,
                        latency_cycles: self.cycle - flight.injected_at,
                    };
                    self.delivered_flit_total += u64::from(flight.packet.flits());
                    self.delivered_packets += 1;
                    self.deliveries.push(delivery);
                } else {
                    self.routers[r].out_owner[out] = Some(inp);
                }
                self.routers[r].rr[out] = (inp + 1) % PORTS;
                continue;
            }
            // forward to the neighbor if it has buffer space
            let (next, next_port) = self.next_hop(r, out);
            if self.scratch_free[next][next_port] > self.scratch_claimed[next][next_port] {
                self.scratch_claimed[next][next_port] += 1;
                let f = self.routers[r].inputs[inp].pop_front().expect("head");
                self.routers[r].out_owner[out] = if f.is_tail { None } else { Some(inp) };
                self.routers[r].rr[out] = (inp + 1) % PORTS;
                self.scratch_incoming.push((next, next_port, f));
            }
        }
    }

    /// Per-cycle flit ledger: every flit that entered the network is
    /// either buffered at some input port or has been ejected — wormhole
    /// switching may neither drop nor duplicate flits — and no input
    /// buffer exceeds its configured depth.
    fn audit_flits(&mut self) {
        let injected: u64 = self
            .flights
            .iter()
            .map(|fl| u64::from(fl.packet.flits() - fl.flits_left))
            .sum();
        let buffered: u64 = self
            .routers
            .iter()
            .map(|r| r.inputs.iter().map(VecDeque::len).sum::<usize>() as u64)
            .sum();
        self.oracle.check_eq_i128(
            Invariant::FlitConservation,
            self.cycle,
            || "network flit ledger (injected == ejected + buffered)".to_string(),
            i128::from(injected),
            i128::from(self.ejected_flits + buffered),
        );
        for (r, router) in self.routers.iter().enumerate() {
            for (p, buf) in router.inputs.iter().enumerate() {
                if buf.len() > self.config.buffer_flits {
                    self.oracle.report(
                        Invariant::FlitConservation,
                        self.cycle,
                        format!("router {r} input port {p} occupancy"),
                        format!("<= {} flits", self.config.buffer_flits),
                        format!("{} flits", buf.len()),
                    );
                }
            }
        }
    }

    /// Steps until every injected packet has been delivered or `max_cycles`
    /// elapse; returns all deliveries in order.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        let total: usize = self.flights.len();
        for _ in 0..max_cycles {
            out.extend_from_slice(self.step());
            if out.len() == total && self.is_idle() {
                break;
            }
        }
        out
    }

    /// Mean accepted throughput so far, in flits per cycle per tile —
    /// the classic saturation metric. Meaningful after some deliveries.
    ///
    /// Queried before the first cycle, or on a degenerate empty topology,
    /// the rate is defined as 0.0 — both divisors would otherwise be
    /// zero and the result NaN (0/0) or infinity.
    pub fn accepted_throughput(&self) -> f64 {
        if self.cycle == 0 || self.topo.is_empty() {
            return 0.0;
        }
        self.delivered_flit_total as f64 / self.cycle as f64 / self.topo.len() as f64
    }

    /// Packets fully delivered (tail flit ejected) so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Whether no flits remain anywhere.
    pub fn is_idle(&self) -> bool {
        self.inject_queue.iter().all(VecDeque::is_empty)
            && self
                .routers
                .iter()
                .all(|r| r.inputs.iter().all(VecDeque::is_empty))
    }

    /// The output port a flight's packet takes out of router `r` (XY
    /// dimension-ordered): 0=N, 1=S, 2=E, 3=W, 4=local. Computed in O(1)
    /// from the precomputed tile coordinates, with the same x-then-y
    /// comparison order the old dense route table was filled with, so the
    /// chosen ports — and therefore deliveries — are bit-identical.
    #[inline]
    fn route_port(&self, r: usize, flight: usize) -> usize {
        let dst = self.flights[flight].packet.dst.index();
        let here = self.coords[r];
        let there = self.coords[dst];
        if here.x < there.x {
            2
        } else if here.x > there.x {
            3
        } else if here.y < there.y {
            1
        } else if here.y > there.y {
            0
        } else {
            LOCAL
        }
    }

    /// The neighbor reached through output `port` of router `r`, and the
    /// input port it arrives on there (the opposite direction; the N/S and
    /// E/W port codes are bit-flips of each other).
    #[inline]
    fn next_hop(&self, r: usize, port: usize) -> (usize, usize) {
        (self.next_tbl[r][port], port ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::packet::{PacketKind, Plane};

    fn pkt(topo: &Topology, a: (usize, usize), b: (usize, usize)) -> Packet {
        Packet::new(
            topo.tile(a.0, a.1),
            topo.tile(b.0, b.1),
            Plane::MmioIrq,
            PacketKind::CoinStatus { has: 1, max: 2 },
        )
    }

    #[test]
    fn zero_load_latency_tracks_hop_count() {
        let topo = Topology::mesh(6, 6);
        for (a, b, hops) in [
            ((0, 0), (5, 0), 5),
            ((0, 0), (0, 5), 5),
            ((1, 1), (4, 3), 5),
        ] {
            let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
            net.inject(pkt(&topo, a, b));
            let d = net.run_until_idle(1_000);
            assert_eq!(d.len(), 1);
            // inject + hops + eject + tail-flit serialization: small constant
            assert!(
                d[0].latency_cycles >= hops as u64 && d[0].latency_cycles <= hops as u64 + 4,
                "{a:?}->{b:?}: {} cycles for {hops} hops",
                d[0].latency_cycles
            );
        }
    }

    #[test]
    fn loopback_delivers_immediately() {
        let topo = Topology::mesh(3, 3);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        let a = topo.tile(1, 1);
        net.inject(Packet::new(a, a, Plane::MmioIrq, PacketKind::CoinRequest));
        let d = net.run_until_idle(100);
        assert_eq!(d.len(), 1);
        assert!(d[0].latency_cycles <= 3);
    }

    #[test]
    fn all_packets_eventually_deliver_under_load() {
        let topo = Topology::mesh(5, 5);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        // all-to-one hotspot: the worst congestion pattern
        for i in 1..25 {
            let src = topo.tile_by_id(i);
            net.inject(Packet::new(
                src,
                topo.tile_by_id(0),
                Plane::MmioIrq,
                PacketKind::CoinRequest,
            ));
        }
        let d = net.run_until_idle(10_000);
        assert_eq!(d.len(), 24, "every packet must be delivered");
        assert!(net.is_idle());
    }

    #[test]
    fn wormhole_keeps_multiflit_packets_contiguous() {
        let topo = Topology::mesh(4, 1);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        // two long packets fighting for the same path
        let long = Packet::new(
            topo.tile(0, 0),
            topo.tile(3, 0),
            Plane::MmioIrq,
            PacketKind::DmaBurst { flits: 6 },
        );
        net.inject(long);
        net.inject(long);
        let d = net.run_until_idle(1_000);
        assert_eq!(d.len(), 2);
        // second packet is serialized behind the first's 6 flits
        assert!(d[1].at_cycle >= d[0].at_cycle + 6);
    }

    #[test]
    fn agrees_with_analytic_model_at_zero_load() {
        // the cross-validation behind the noc-validation experiment
        let topo = Topology::mesh(8, 8);
        let analytic = Network::new(topo);
        for (a, b) in [((0, 0), (7, 7)), ((3, 2), (3, 6)), ((5, 5), (0, 5))] {
            let p = pkt(&topo, a, b);
            let t_analytic = analytic.latency_bound(p.src, p.dst).as_noc_cycles();
            let mut wh = WormholeNetwork::new(topo, WormholeConfig::default());
            wh.inject(p);
            let d = wh.run_until_idle(1_000);
            let t_wormhole = d[0].latency_cycles;
            let diff = t_analytic.abs_diff(t_wormhole);
            assert!(
                diff <= 3,
                "{a:?}->{b:?}: analytic {t_analytic} vs wormhole {t_wormhole}"
            );
        }
    }

    #[test]
    fn contention_raises_latency_over_zero_load() {
        let topo = Topology::mesh(6, 1);
        let route = |n_background: usize| -> u64 {
            let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
            for _ in 0..n_background {
                net.inject(Packet::new(
                    topo.tile(0, 0),
                    topo.tile(5, 0),
                    Plane::MmioIrq,
                    PacketKind::DmaBurst { flits: 8 },
                ));
            }
            // let the background stream fill the row's buffers first
            for _ in 0..8 {
                net.step();
            }
            let probe = pkt(&topo, (1, 0), (5, 0));
            let t0 = net.cycle();
            net.inject(probe);
            let d = net.run_until_idle(10_000);
            d.iter()
                .find(|x| x.packet == probe)
                .expect("probe delivered")
                .at_cycle
                - t0
        };
        assert!(route(6) > route(0), "{} vs {}", route(6), route(0));
    }

    #[test]
    fn throughput_saturates_under_offered_load() {
        // uniform-random traffic: accepted throughput grows with offered
        // load, then saturates well below 1 flit/cycle/tile (XY wormhole
        // on a mesh saturates around 30-60% of bisection)
        let topo = Topology::mesh(6, 6);
        let run = |packets: usize| -> f64 {
            let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
            let mut lcg = 12345u64;
            let mut next = || {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                (lcg >> 33) as usize % 36
            };
            for _ in 0..packets {
                let a = next();
                let mut b = next();
                if a == b {
                    b = (b + 1) % 36;
                }
                net.inject(Packet::new(
                    TileId(a),
                    TileId(b),
                    Plane::MmioIrq,
                    PacketKind::DmaBurst { flits: 4 },
                ));
            }
            net.run_until_idle(200_000);
            net.accepted_throughput()
        };
        let light = run(36);
        let heavy = run(720);
        assert!(heavy > light, "throughput should rise with load");
        assert!(heavy < 1.0, "cannot exceed one flit/cycle/tile: {heavy}");
    }

    #[test]
    fn random_traffic_always_delivers() {
        // delivery guarantee: XY routing on a mesh is deadlock-free, so
        // every packet must eventually arrive, whatever the pattern
        let topo = Topology::mesh(5, 5);
        let mut lcg = 99u64;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            (lcg >> 33) as usize % 25
        };
        for trial in 0..20 {
            let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
            let k = 10 + trial * 5;
            for _ in 0..k {
                let a = next();
                let b = next();
                net.inject(Packet::new(
                    TileId(a),
                    TileId(b),
                    Plane::MmioIrq,
                    PacketKind::CoinStatus { has: 1, max: 1 },
                ));
            }
            let d = net.run_until_idle(500_000);
            assert_eq!(d.len(), k, "trial {trial}: lost packets");
            assert!(net.is_idle());
        }
    }

    #[test]
    fn throughput_is_defined_before_first_cycle() {
        // Regression: the flits/cycle/tile divisor is 0 * len at cycle 0
        // (and 0 * 0 on a degenerate topology) — the metric must be a
        // finite 0.0, never NaN or infinity.
        let topo = Topology::mesh(3, 3);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        assert_eq!(net.accepted_throughput(), 0.0);
        net.inject(pkt(&topo, (0, 0), (2, 2)));
        assert_eq!(net.accepted_throughput(), 0.0, "still cycle 0 after inject");
        net.run_until_idle(1_000);
        let t = net.accepted_throughput();
        assert!(t.is_finite() && t > 0.0, "throughput after a run: {t}");
    }

    #[test]
    fn flit_oracle_is_clean_under_hotspot_load() {
        // The conservation audit runs every cycle in test builds; the
        // worst congestion pattern must record zero violations.
        let topo = Topology::mesh(5, 5);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        for i in 1..25 {
            net.inject(Packet::new(
                topo.tile_by_id(i),
                topo.tile_by_id(0),
                Plane::MmioIrq,
                PacketKind::DmaBurst { flits: 4 },
            ));
        }
        net.run_until_idle(10_000);
        assert!(net.is_idle());
        assert_eq!(net.oracle().count(), 0, "{:?}", net.oracle().first());
    }

    #[test]
    #[cfg_attr(
        not(any(feature = "oracle", debug_assertions)),
        ignore = "needs the oracle compiled in"
    )]
    fn flit_oracle_catches_a_lost_flit() {
        // Sabotage the ledger the way a routing bug would (a flit vanishes
        // from a buffer) and check the oracle fires with full context.
        let topo = Topology::mesh(3, 3);
        let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
        net.inject(pkt(&topo, (0, 0), (2, 2)));
        net.step();
        net.step();
        // drop whatever flit is at the head of some occupied buffer
        let victim = net
            .routers
            .iter_mut()
            .flat_map(|r| r.inputs.iter_mut())
            .find(|b| !b.is_empty())
            .expect("a flit is in flight after two cycles");
        victim.pop_front();
        net.step();
        assert!(net.oracle().count() > 0, "oracle must notice the lost flit");
        let v = net.oracle().first().expect("kept violation");
        assert_eq!(v.invariant, Invariant::FlitConservation);
        assert!(v.replay_line().contains("invariant `flit-conservation`"));
    }

    #[test]
    fn router_visitation_order_is_immaterial() {
        // The tie-break claim in `WormholeConfig`: because free space is
        // snapshotted at cycle start and each (router, port) has a unique
        // upstream, per-packet delivery results are identical whatever
        // order the routers are visited in. Hotspot load is the pattern
        // with the most same-cycle contention, so it exercises the claim
        // hardest.
        let topo = Topology::mesh(5, 5);
        let run = |tie: TieBreak| {
            let mut net = WormholeNetwork::new(
                topo,
                WormholeConfig {
                    tie_break: tie,
                    ..WormholeConfig::default()
                },
            );
            for i in 1..25 {
                net.inject(Packet::new(
                    topo.tile_by_id(i),
                    topo.tile_by_id(0),
                    Plane::MmioIrq,
                    PacketKind::DmaBurst { flits: 4 },
                ));
            }
            let mut d: Vec<(usize, usize, u64, u64)> = net
                .run_until_idle(10_000)
                .iter()
                .map(|x| {
                    (
                        x.packet.src.index(),
                        x.packet.dst.index(),
                        x.at_cycle,
                        x.latency_cycles,
                    )
                })
                .collect();
            assert_eq!(net.oracle().count(), 0, "{:?}", net.oracle().first());
            d.sort_unstable(); // intra-cycle discovery order may legally differ
            d
        };
        let fifo = run(TieBreak::Fifo);
        assert_eq!(fifo, run(TieBreak::Lifo));
        assert_eq!(fifo, run(TieBreak::Permuted(0xD00D)));
        assert_eq!(fifo, run(TieBreak::Permuted(0xBEEF)));
    }

    #[test]
    fn deterministic_given_same_injections() {
        let topo = Topology::mesh(4, 4);
        let run = || {
            let mut net = WormholeNetwork::new(topo, WormholeConfig::default());
            for i in 0..8 {
                net.inject(pkt(&topo, (i % 4, 0), (3 - i % 4, 3)));
            }
            net.run_until_idle(10_000)
                .iter()
                .map(|d| d.at_cycle)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
