//! # blitzcoin-noc
//!
//! Cycle-level 2-D mesh network-on-chip model for the BlitzCoin
//! reproduction.
//!
//! BlitzCoin targets tile-based SoCs interconnected by a 2-D mesh,
//! multi-plane NoC (the open-source ESP platform in the paper). Every
//! quantity the paper reports — convergence time in NoC cycles, packets
//! exchanged, response time — is a property of messages moving across this
//! fabric, so the reproduction models it explicitly:
//!
//! - [`topology`]: grid coordinates, tile identifiers, mesh/torus neighbor
//!   maps (the torus variant implements the paper's *wrap-around*
//!   optimization, Fig 5), XY hop distances.
//! - [`packet`]: NoC planes (the ESP NoC has six; plane 5 carries
//!   memory-mapped register and interrupt traffic and — in the BlitzCoin
//!   integration — the new coin-management message class) and message kinds.
//! - [`network`]: a deterministic link-reservation timing model — XY
//!   dimension-ordered routing, one cycle per hop, per-link serialization
//!   and contention — that returns the arrival time of every packet (the
//!   NoC never loses one).
//! - [`wormhole`]: a flit-level wormhole router reference model that
//!   cross-validates the analytic timing model's latencies.
//!
//! # Example
//!
//! ```
//! use blitzcoin_noc::{Network, Packet, PacketKind, Plane, Topology};
//! use blitzcoin_sim::SimTime;
//!
//! let topo = Topology::mesh(4, 4);
//! let mut net = Network::new(topo);
//! let pkt = Packet::new(topo.tile(0, 0), topo.tile(3, 3), Plane::MmioIrq,
//!                       PacketKind::CoinRequest);
//! let arrival = net.send(SimTime::ZERO, &pkt);
//! // 6 hops plus one cycle each to inject and eject
//! assert_eq!(arrival, SimTime::from_noc_cycles(8));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod network;
pub mod packet;
pub mod topology;
pub mod wormhole;

pub use network::{Network, TrafficStats};
pub use packet::{Packet, PacketKind, Plane};
pub use topology::{Coord, Direction, TileId, Topology};
