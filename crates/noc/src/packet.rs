//! NoC planes and message kinds.
//!
//! The ESP NoC the paper integrates into has six physical planes: three for
//! cache coherence, two for accelerator DMA, and plane 5 for memory-mapped
//! register (CSR) access and interrupts. The BlitzCoin integration adds a
//! new message class to plane 5 for coin-based power management
//! (Section IV-B); all power-management traffic in this reproduction
//! travels on [`Plane::MmioIrq`].

use crate::topology::TileId;

/// One of the six ESP NoC planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Coherence request plane.
    Coherence1,
    /// Coherence forward plane.
    Coherence2,
    /// Coherence response plane.
    Coherence3,
    /// Accelerator DMA plane (tile to memory).
    Dma1,
    /// Accelerator DMA plane (memory to tile).
    Dma2,
    /// Memory-mapped registers + interrupts + coin management ("plane 5").
    MmioIrq,
}

impl Plane {
    /// All planes, in ESP order.
    pub const ALL: [Plane; 6] = [
        Plane::Coherence1,
        Plane::Coherence2,
        Plane::Coherence3,
        Plane::Dma1,
        Plane::Dma2,
        Plane::MmioIrq,
    ];

    /// Stable small index (0-5) for per-plane accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Plane::Coherence1 => 0,
            Plane::Coherence2 => 1,
            Plane::Coherence3 => 2,
            Plane::Dma1 => 3,
            Plane::Dma2 => 4,
            Plane::MmioIrq => 5,
        }
    }
}

/// The message classes carried by the model.
///
/// Coin messages implement the 1-way exchange protocol of Fig 2
/// (Algorithm 2): a `CoinStatus` carries the sender's `(has, max)` pair to
/// the selected partner, which answers with a `CoinUpdate` carrying the
/// number of coins transferred (positive: sender of the update gives coins;
/// negative: it takes them). The 4-way variant (Algorithm 1) additionally
/// uses `CoinRequest` to solicit statuses from all four neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// 4-way exchange: solicit a status from a neighbor.
    CoinRequest,
    /// Coin exchange: report `(has, max)` to a partner.
    CoinStatus {
        /// Sender's current coin count (sign bit allows transient deficit).
        has: i32,
        /// Sender's target coin count; 0 when inactive.
        max: u32,
    },
    /// Coin exchange: transfer `delta` coins to the destination
    /// (negative `delta` takes coins back, for the 4-way redistribution).
    CoinUpdate {
        /// Coins moved from source to destination.
        delta: i32,
    },
    /// Centralized manager: read a tile's activity/CSR state.
    RegRead,
    /// Centralized manager: write a CSR (e.g. a tile's DVFS setting).
    RegWrite {
        /// Register value.
        value: u64,
    },
    /// Bulk accelerator DMA traffic (modeled only for link contention).
    DmaBurst {
        /// Burst length in flits.
        flits: u32,
    },
}

impl PacketKind {
    /// Packet length in flits (header + payload). Coin messages are short
    /// single-payload packets, matching the paper's claim that the exchange
    /// logic adds negligible NoC load; DMA bursts carry their burst length.
    pub fn flits(self) -> u32 {
        match self {
            PacketKind::CoinRequest | PacketKind::RegRead => 1,
            PacketKind::CoinStatus { .. }
            | PacketKind::CoinUpdate { .. }
            | PacketKind::RegWrite { .. } => 2,
            PacketKind::DmaBurst { flits } => flits.max(1),
        }
    }

    /// Whether this is one of the coin-management message classes the
    /// BlitzCoin integration added to plane 5.
    pub fn is_coin_message(self) -> bool {
        matches!(
            self,
            PacketKind::CoinRequest | PacketKind::CoinStatus { .. } | PacketKind::CoinUpdate { .. }
        )
    }
}

/// A packet in flight on the NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Source tile.
    pub src: TileId,
    /// Destination tile.
    pub dst: TileId,
    /// Physical plane the packet travels on.
    pub plane: Plane,
    /// Message class and payload.
    pub kind: PacketKind,
}

impl Packet {
    /// Creates a packet.
    pub fn new(src: TileId, dst: TileId, plane: Plane, kind: PacketKind) -> Self {
        Packet {
            src,
            dst,
            plane,
            kind,
        }
    }

    /// Convenience constructor for plane-5 coin messages.
    pub fn coin(src: TileId, dst: TileId, kind: PacketKind) -> Self {
        debug_assert!(kind.is_coin_message());
        Packet::new(src, dst, Plane::MmioIrq, kind)
    }

    /// Total length in flits.
    pub fn flits(&self) -> u32 {
        self.kind.flits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_indices_are_distinct() {
        let mut seen = [false; 6];
        for p in Plane::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flit_lengths() {
        assert_eq!(PacketKind::CoinRequest.flits(), 1);
        assert_eq!(PacketKind::CoinStatus { has: 3, max: 8 }.flits(), 2);
        assert_eq!(PacketKind::CoinUpdate { delta: -2 }.flits(), 2);
        assert_eq!(PacketKind::DmaBurst { flits: 64 }.flits(), 64);
        assert_eq!(PacketKind::DmaBurst { flits: 0 }.flits(), 1);
    }

    #[test]
    fn coin_message_classification() {
        assert!(PacketKind::CoinRequest.is_coin_message());
        assert!(PacketKind::CoinStatus { has: 0, max: 0 }.is_coin_message());
        assert!(PacketKind::CoinUpdate { delta: 0 }.is_coin_message());
        assert!(!PacketKind::RegRead.is_coin_message());
        assert!(!PacketKind::RegWrite { value: 0 }.is_coin_message());
    }

    #[test]
    fn coin_constructor_uses_plane5() {
        let p = Packet::coin(TileId(0), TileId(1), PacketKind::CoinUpdate { delta: 1 });
        assert_eq!(p.plane, Plane::MmioIrq);
        assert_eq!(p.flits(), 2);
    }
}
