//! Deterministic timestamped event queue.
//!
//! The full-SoC simulation in `blitzcoin-soc` advances by popping the
//! earliest scheduled event. Determinism matters: the paper's evaluation
//! (and ours) averages Monte-Carlo sweeps over seeds, so a given seed must
//! always produce the same run. Events scheduled at the same timestamp are
//! therefore delivered in FIFO order of scheduling, never in heap order.
//!
//! Every event carries `(time, seq)` packed into one `u128` key — lexical
//! order on the pair and integer order on the packed key are the same
//! order, so ordering two events is a single integer comparison.
//!
//! # Two tiers
//!
//! [`EventQueue`] is a calendar queue in two tiers. Nearly every event the
//! engine schedules lands a short way past the latest pop (at 32x32 BC,
//! 96% within 4,096 NoC cycles; TokenSmart's hierarchical run, 99% within
//! 256), while a few thousand task completions wait far ahead.
//!
//! - **Near tier.** A ring of 4,096 buckets, each one NoC cycle (1,250 ps)
//!   wide, covers `[base, base + 4096)` cycles, where `base` is the cycle
//!   of the latest pop. All near events live in one slab of nodes with a
//!   LIFO free list; each bucket is a chain through the slab, kept in
//!   ascending key order (an insert appends past the tail, pushes below
//!   the head, or walks the chain), so a bucket pops exactly as a heap
//!   would under every [`TieBreak`]. A `u64` occupancy bitmap plus a
//!   one-word summary of its 64 words finds the next non-empty bucket
//!   with two `trailing_zeros`.
//! - **Far tier.** Events at or beyond `base + 4096` wait in a binary
//!   heap of packed keys. After each pop that advances `base`, the far
//!   events whose cycle has entered the window move into their buckets;
//!   when the near tier is empty, `base` jumps to the far minimum.
//!
//! **Invariant:** every pending event earlier than `base + 4096` is in the
//! near tier, so the first occupied bucket holds the global minimum.
//!
//! **Contract:** an event may not be scheduled before the latest pop's
//! cycle ([`EventQueue::schedule`] panics). The engine never does this:
//! every schedule is `now + delay`, and its oracle checks that time never
//! goes backwards.
//!
//! # Tie-break fuzzing
//!
//! FIFO order at equal timestamps is *one* legal ordering out of many:
//! real concurrent hardware exhibits every interleaving of same-cycle
//! events, and nothing downstream may depend on which one the simulator
//! happens to pick. [`TieBreak`] makes the choice explicit — [`Fifo`]
//! (the default, bit-identical to the historical behaviour), [`Lifo`],
//! and [`Permuted`] (a keyed bijection of the sequence bits that
//! deterministically shuffles only same-timestamp batches). The mode is
//! applied when the key is *packed*, so both tiers order every mode by a
//! single `u128` comparison, and the sequence number decodes back
//! exactly on pop. The [`crate::interleave`] harness runs a simulation
//! across many `Permuted` seeds and asserts its invariants hold under
//! every ordering.
//!
//! [`Fifo`]: TieBreak::Fifo
//! [`Lifo`]: TieBreak::Lifo
//! [`Permuted`]: TieBreak::Permuted

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::rng::{inv_splitmix64, splitmix64};
use crate::time::SimTime;

/// How an [`EventQueue`] orders events that carry the same timestamp.
///
/// All modes pop in strict time order and deliver the same `(time,
/// payload)` multiset; they differ only in the order *within* a
/// same-timestamp batch. Every mode is deterministic — `Permuted(seed)`
/// with a fixed seed always produces the same shuffle — so any run
/// remains exactly reproducible from `(root seed, tie-break)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Scheduling order (the historical default).
    #[default]
    Fifo,
    /// Reverse scheduling order: the *latest*-scheduled event of a batch
    /// pops first.
    Lifo,
    /// A keyed pseudo-random shuffle of each same-timestamp batch: the
    /// low key bits are `splitmix64(seq ^ seed)`, a bijection, so
    /// distinct events never collide and the true sequence number is
    /// recovered on pop.
    Permuted(u64),
}

impl TieBreak {
    /// Maps a sequence number to the low 64 bits of the heap key. Every
    /// arm is a bijection on `u64`, so key order among equal timestamps
    /// is a permutation of FIFO order and nothing else changes.
    #[inline]
    fn encode(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => !seq,
            TieBreak::Permuted(k) => splitmix64(seq ^ k),
        }
    }

    /// Inverse of [`TieBreak::encode`]: recovers the scheduling sequence
    /// number from the low key bits.
    #[inline]
    fn decode(self, low: u64) -> u64 {
        match self {
            TieBreak::Fifo => low,
            TieBreak::Lifo => !low,
            TieBreak::Permuted(k) => inv_splitmix64(low) ^ k,
        }
    }

    /// The permutation seed, for `Permuted` modes.
    #[must_use]
    pub fn seed(self) -> Option<u64> {
        match self {
            TieBreak::Permuted(k) => Some(k),
            _ => None,
        }
    }

    /// Parses the CLI spelling: `fifo`, `lifo`, or `permuted:SEED`
    /// (seed in decimal or `0x` hex).
    #[must_use]
    pub fn parse(s: &str) -> Option<TieBreak> {
        match s {
            "fifo" => Some(TieBreak::Fifo),
            "lifo" => Some(TieBreak::Lifo),
            _ => {
                let seed = s.strip_prefix("permuted:")?;
                let k = match seed.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok()?,
                    None => seed.parse().ok()?,
                };
                Some(TieBreak::Permuted(k))
            }
        }
    }
}

impl fmt::Display for TieBreak {
    /// Renders in the same spelling [`TieBreak::parse`] accepts, so a
    /// replay line pastes straight back into `--tie-break`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TieBreak::Fifo => f.write_str("fifo"),
            TieBreak::Lifo => f.write_str("lifo"),
            TieBreak::Permuted(k) => write!(f, "permuted:{k:#x}"),
        }
    }
}

impl crate::json::ToJson for TieBreak {
    /// Serializes in the CLI spelling (`"fifo"`, `"permuted:0x2a"`), the
    /// same string [`TieBreak::parse`] reads back.
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Str(self.to_string())
    }
}

impl crate::json::FromJson for TieBreak {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| crate::json::JsonError::new("expected tie-break string"))?;
        TieBreak::parse(s)
            .ok_or_else(|| crate::json::JsonError::new(format!("bad tie-break `{s}`")))
    }
}

/// An event that has been scheduled on an [`EventQueue`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// The time at which the event fires.
    pub time: SimTime,
    /// Monotonic sequence number; breaks ties among equal timestamps.
    pub seq: u64,
    /// The caller-supplied payload.
    pub payload: E,
}

/// A far-tier entry: `(time, seq)` packed into one integer key. `time` in
/// the high 64 bits and `seq` in the low 64 gives exactly the
/// lexicographic `(time, seq)` order when comparing keys as plain `u128`s.
#[derive(Debug, Clone)]
struct HeapEntry<E> {
    key: u128,
    payload: E,
}

fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_ps()) << 64) | u128::from(seq)
}

/// The time half of a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// The NoC cycle, and so the near-tier bucket, of a packed key.
fn key_cycle(key: u128) -> u64 {
    key_time(key).as_noc_cycles()
}

impl<E> HeapEntry<E> {
    fn time(&self) -> SimTime {
        key_time(self.key)
    }

    fn cycle(&self) -> u64 {
        key_cycle(self.key)
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    // Reversed so that BinaryHeap (a max-heap) pops the smallest key,
    // i.e. the earliest (time, seq).
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Near-tier buckets, one NoC cycle each: the window `[base, base +
/// NEAR_BUCKETS)` cycles. A power of two, so a cycle's bucket is its low
/// bits.
const NEAR_BUCKETS: usize = 4096;

/// Words of the near tier's occupancy bitmap; the summary word has one
/// bit per word, so there are at most 64.
const NEAR_WORDS: usize = NEAR_BUCKETS / 64;

/// End-of-chain marker in the near tier's slab links.
const NIL: u32 = u32::MAX;

/// One near-tier event, or a vacant slab slot on the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    key: u128,
    /// `None` only while the node is on the free list.
    payload: Option<E>,
    /// The next node of the same bucket's chain (or of the free list).
    next: u32,
}

/// A deterministic min-priority queue of timestamped events: a calendar
/// of NoC-cycle buckets for the next 4,096 cycles in front of a binary
/// heap for later events (see the [module docs](crate::event)).
///
/// # Example
///
/// ```
/// use blitzcoin_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(10), 'b');
/// q.schedule(SimTime::from_ns(5), 'a');
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
/// assert_eq!(q.pop().unwrap().payload, 'a');
/// assert_eq!(q.pop().unwrap().payload, 'b');
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Every near-tier node, pending or free; freed nodes chain from
    /// `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// First node of each bucket's chain; valid only while the bucket's
    /// `occupied` bit is set.
    head: Box<[u32; NEAR_BUCKETS]>,
    /// Last node of each non-empty bucket's chain.
    tail: Box<[u32; NEAR_BUCKETS]>,
    /// One bit per bucket, set while its chain is non-empty.
    occupied: [u64; NEAR_WORDS],
    /// One bit per `occupied` word, set while the word is non-zero.
    summary: u64,
    /// The cycle of the latest pop: the near tier's first cycle.
    base: u64,
    near_len: usize,
    /// Events at or beyond `base + NEAR_BUCKETS` cycles.
    far: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    tie: TieBreak,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with FIFO tie-breaking.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` near-tier events before
    /// its slab reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            head: Box::new([NIL; NEAR_BUCKETS]),
            tail: Box::new([NIL; NEAR_BUCKETS]),
            occupied: [0; NEAR_WORDS],
            summary: 0,
            base: 0,
            near_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
            tie: TieBreak::Fifo,
        }
    }

    /// The active same-timestamp ordering policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie
    }

    /// Sets the same-timestamp ordering policy.
    ///
    /// Only legal while the queue is empty: pending keys were packed
    /// under the old policy and would decode to the wrong sequence
    /// numbers (and the wrong order) under a new one.
    ///
    /// # Panics
    /// Panics if events are pending.
    pub fn set_tie_break(&mut self, tie: TieBreak) {
        assert!(
            self.is_empty(),
            "tie-break policy can only change while the queue is empty"
        );
        self.tie = tie;
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// Events scheduled at the same time pop in the order the active
    /// [`TieBreak`] dictates (scheduling order under the FIFO default).
    ///
    /// # Panics
    /// Panics if `time` lies in a NoC cycle before that of the latest
    /// pop. A time earlier than the latest pop but within its cycle is
    /// accepted and pops next, as it would from a heap.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        // The sequence counter must never wrap: a wrapped seq would
        // collide with (or sort before) a live event's key. 2^64 - 1
        // schedules is ~97,000 years of the engine's measured 6M
        // events/s, so this is a debug-only tripwire, not a real bound;
        // `reset()` between trials keeps long-lived queues far from it.
        debug_assert!(
            self.next_seq != u64::MAX,
            "EventQueue sequence counter overflow; reset() between runs"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let key = pack(time, self.tie.encode(seq));
        let ahead = time
            .as_noc_cycles()
            .checked_sub(self.base)
            .expect("EventQueue: schedule before the latest pop's cycle");
        if ahead < NEAR_BUCKETS as u64 {
            self.insert_near(key, payload);
        } else {
            self.far.push(HeapEntry { key, payload });
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.near_len == 0 {
            self.base = self.far.peek()?.cycle();
            self.migrate();
        }
        let b = self.first_bucket();
        let n = self.head[b];
        let node = &mut self.nodes[n as usize];
        let (key, next) = (node.key, node.next);
        let payload = node.payload.take().expect("a chained node holds its event");
        node.next = self.free;
        self.free = n;
        self.near_len -= 1;
        if next == NIL {
            let w = b >> 6;
            self.occupied[w] &= !(1 << (b & 63));
            if self.occupied[w] == 0 {
                self.summary &= !(1 << w);
            }
        } else {
            self.head[b] = next;
        }
        let cycle = key_cycle(key);
        if cycle != self.base {
            self.base = cycle;
            self.migrate();
        }
        Some(ScheduledEvent {
            time: key_time(key),
            seq: self.tie.decode(key as u64),
            payload,
        })
    }

    /// The firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.near_len == 0 {
            return self.far.peek().map(HeapEntry::time);
        }
        let n = self.head[self.first_bucket()];
        Some(key_time(self.nodes[n as usize].key))
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (pending or already popped).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Discards all pending events without resetting the sequence counter:
    /// `scheduled_total` keeps counting and later schedules draw strictly
    /// larger sequence numbers, as if the discarded events had fired.
    /// The latest pop's cycle stays the earliest one a schedule may use.
    /// Callers that reuse a queue across logically independent runs want
    /// [`EventQueue::reset`] instead — after `clear()` the very same
    /// schedule stream yields different `seq` values, which changes the
    /// pop order under any non-FIFO [`TieBreak`].
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occupied = [0; NEAR_WORDS];
        self.summary = 0;
        self.near_len = 0;
        self.far.clear();
    }

    /// Returns the queue to its freshly-constructed state — no pending
    /// events, time, sequence and scheduled counters at zero — while
    /// keeping both tiers' allocations *and* the tie-break policy. A
    /// queue reset and reused across trials behaves bit-identically to a
    /// new one constructed with the same policy, without re-growing its
    /// storage each trial. Contrast with [`EventQueue::clear`], which
    /// preserves the counters.
    pub fn reset(&mut self) {
        self.clear();
        self.base = 0;
        self.next_seq = 0;
        self.scheduled_total = 0;
    }

    /// Room for events before the near tier's slab or the far heap
    /// reallocates.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity() + self.far.capacity()
    }

    /// Links an event into its near-tier bucket, keeping the chain in
    /// ascending key order.
    fn insert_near(&mut self, key: u128, payload: E) {
        let node = Node {
            key,
            payload: Some(payload),
            next: NIL,
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("EventQueue: slab index overflow")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.near_len += 1;
        let b = key_cycle(key) as usize & (NEAR_BUCKETS - 1);
        let (w, bit) = (b >> 6, 1u64 << (b & 63));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.summary |= 1 << w;
            self.head[b] = n;
            self.tail[b] = n;
        } else if key > self.nodes[self.tail[b] as usize].key {
            let t = self.tail[b] as usize;
            self.nodes[t].next = n;
            self.tail[b] = n;
        } else if key < self.nodes[self.head[b] as usize].key {
            self.nodes[n as usize].next = self.head[b];
            self.head[b] = n;
        } else {
            // head < key < tail: the insertion point has a successor
            let mut prev = self.head[b] as usize;
            loop {
                let next = self.nodes[prev].next;
                if self.nodes[next as usize].key > key {
                    self.nodes[n as usize].next = next;
                    self.nodes[prev].next = n;
                    break;
                }
                prev = next as usize;
            }
        }
    }

    /// Moves every far event whose cycle lies inside the near window.
    /// The heap yields them in key order and their buckets held only
    /// earlier cycles' events (all since popped), so each one appends.
    fn migrate(&mut self) {
        let end = self.base + NEAR_BUCKETS as u64;
        while self.far.peek().is_some_and(|e| e.cycle() < end) {
            let e = self.far.pop().expect("peeked");
            self.insert_near(e.key, e.payload);
        }
    }

    /// The first non-empty bucket in ring order from `base`'s bucket: the
    /// one holding the earliest event. The near tier must not be empty.
    fn first_bucket(&self) -> usize {
        let start = self.base as usize & (NEAR_BUCKETS - 1);
        let w = start >> 6;
        let bits = self.occupied[w] & (u64::MAX << (start & 63));
        if bits != 0 {
            return (w << 6) | bits.trailing_zeros() as usize;
        }
        // the words after `w`, then from word 0 round to `w` itself,
        // whose bits below `start` come last in ring order
        let later = self.summary & ((u64::MAX << w) << 1);
        let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        (w << 6) | self.occupied[w].trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::NOC_CYCLE_PS;

    /// The single-heap queue the calendar replaced, kept as its reference
    /// model: every event in one `BinaryHeap` of packed keys.
    struct HeapQueue<E> {
        heap: BinaryHeap<HeapEntry<E>>,
        next_seq: u64,
        tie: TieBreak,
    }

    impl<E> HeapQueue<E> {
        fn new(tie: TieBreak) -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                tie,
            }
        }

        fn schedule(&mut self, time: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry {
                key: pack(time, self.tie.encode(seq)),
                payload,
            });
        }

        fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let tie = self.tie;
            self.heap.pop().map(|e| ScheduledEvent {
                time: e.time(),
                seq: tie.decode(e.key as u64),
                payload: e.payload,
            })
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(HeapEntry::time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn reset(&mut self) {
            self.heap.clear();
            self.next_seq = 0;
        }
    }

    /// One step of a queue script. Delays count from the latest pop's
    /// time, so a script replays identically after `reset`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Schedule {
            delay_ps: u64,
        },
        /// `count` events on one cycle, `spread_ps` apart at most.
        Burst {
            delay_ps: u64,
            count: u64,
            spread_ps: u64,
        },
        Pop,
        /// Pop until the near tier is empty, so the next pop jumps to the
        /// far tier.
        DrainNear,
    }

    fn random_delay(rng: &mut SimRng) -> u64 {
        let cycle = NOC_CYCLE_PS;
        let sub = rng.range_u64(0..cycle);
        match rng.range_u64(0..8) {
            0 => sub,
            1 => 0,
            2 | 3 => rng.range_u64(1..4_096) * cycle + sub,
            4 => *rng.choose(&[4_095, 4_096, 4_097]) * cycle,
            5 => *rng.choose(&[4_095, 4_096, 4_097]) * cycle + sub,
            6 => rng.range_u64(1..64) * cycle,
            _ => rng.range_u64(100_000..10_000_001) * cycle + sub,
        }
    }

    fn random_script(rng: &mut SimRng) -> Vec<Op> {
        let len = rng.range_usize(1..600);
        let mut ops = Vec::with_capacity(len + 1);
        for _ in 0..len {
            ops.push(match rng.range_u64(0..20) {
                0..=9 => Op::Schedule {
                    delay_ps: random_delay(rng),
                },
                10..=17 => Op::Pop,
                18 => Op::DrainNear,
                _ => Op::Burst {
                    delay_ps: random_delay(rng),
                    count: rng.range_u64(1..64),
                    spread_ps: rng.range_u64(0..NOC_CYCLE_PS),
                },
            });
        }
        if rng.chance(0.25) {
            let at = rng.range_usize(0..ops.len() + 1);
            let burst = Op::Burst {
                delay_ps: random_delay(rng),
                count: rng.range_u64(1_000..1_500),
                spread_ps: *rng.choose(&[0, 1, NOC_CYCLE_PS]),
            };
            ops.insert(at, burst);
        }
        ops
    }

    /// Runs `ops` on both queues, then drains them, comparing every popped
    /// event, `len()` and `peek_time()` after each operation. `now` is the
    /// latest pop's time, which it returns; payloads number the schedules
    /// from `*next`.
    fn run_script(
        q: &mut EventQueue<u64>,
        r: &mut HeapQueue<u64>,
        ops: &[Op],
        next: &mut u64,
    ) -> Result<u64, String> {
        fn pop_both(
            q: &mut EventQueue<u64>,
            r: &mut HeapQueue<u64>,
            now: &mut u64,
        ) -> Result<(), String> {
            let got = q.pop().map(|e| (e.time, e.seq, e.payload));
            let want = r.pop().map(|e| (e.time, e.seq, e.payload));
            crate::ensure!(got == want, "popped {got:?}, reference {want:?}");
            if let Some((t, _, _)) = got {
                *now = t.as_ps();
            }
            Ok(())
        }
        let mut now = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Schedule { delay_ps } => {
                    q.schedule(SimTime::from_ps(now + delay_ps), *next);
                    r.schedule(SimTime::from_ps(now + delay_ps), *next);
                    *next += 1;
                }
                Op::Burst {
                    delay_ps,
                    count,
                    spread_ps,
                } => {
                    // every event of the burst inside one NoC cycle
                    let first = (now + delay_ps) / NOC_CYCLE_PS * NOC_CYCLE_PS;
                    for k in 0..count {
                        let off = (k * 7919 % (spread_ps + 1)).min(NOC_CYCLE_PS - 1);
                        q.schedule(SimTime::from_ps(first.max(now) + off), *next);
                        r.schedule(SimTime::from_ps(first.max(now) + off), *next);
                        *next += 1;
                    }
                }
                Op::Pop => pop_both(q, r, &mut now)?,
                Op::DrainNear => {
                    while q.near_len > 0 {
                        pop_both(q, r, &mut now)?;
                    }
                }
            }
            crate::ensure!(
                q.len() == r.len(),
                "op {i} ({op:?}): len {} vs {}",
                q.len(),
                r.len()
            );
            crate::ensure!(
                q.peek_time() == r.peek_time(),
                "op {i} ({op:?}): peek {:?} vs {:?}",
                q.peek_time(),
                r.peek_time()
            );
        }
        while r.len() > 0 {
            pop_both(q, r, &mut now)?;
        }
        crate::ensure!(q.is_empty() && q.pop().is_none());
        Ok(now)
    }

    #[test]
    fn calendar_pops_like_the_heap_reference() {
        crate::check::forall_seeded("calendar_vs_heap", 0xCA1E_0DA2, 0..600, |rng| {
            let tie = match rng.range_u64(0..3) {
                0 => TieBreak::Fifo,
                1 => TieBreak::Lifo,
                _ => TieBreak::Permuted(rng.next_u64()),
            };
            let ops = random_script(rng);
            let mut q = EventQueue::new();
            q.set_tie_break(tie);
            let mut r = HeapQueue::new(tie);
            let mut next = 0;
            let now = run_script(&mut q, &mut r, &ops, &mut next)?;
            // replay on a part-full queue after reset(): schedule a prefix
            // without draining it, reset both, then run the script again
            let cut = rng.range_usize(0..ops.len() + 1);
            for &op in &ops[..cut] {
                if let Op::Schedule { delay_ps } = op {
                    q.schedule(SimTime::from_ps(now + delay_ps), next);
                    r.schedule(SimTime::from_ps(now + delay_ps), next);
                    next += 1;
                }
            }
            q.reset();
            r.reset();
            crate::ensure!(q.is_empty() && q.peek_time().is_none());
            run_script(&mut q, &mut r, &ops, &mut next).map(drop)
        });
    }

    #[test]
    #[should_panic(expected = "schedule before the latest pop's cycle")]
    fn schedule_before_the_latest_pop_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_noc_cycles(10), ());
        q.schedule(SimTime::from_noc_cycles(20), ());
        let _ = q.pop();
        q.schedule(SimTime::from_noc_cycles(9), ());
    }

    #[test]
    fn schedule_earlier_within_the_latest_pops_cycle_pops_next() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(10 * NOC_CYCLE_PS + 900), 'a');
        q.schedule(SimTime::from_noc_cycles(11), 'c');
        assert_eq!(q.pop().unwrap().payload, 'a');
        q.schedule(SimTime::from_ps(10 * NOC_CYCLE_PS + 100), 'b');
        assert_eq!(q.pop().unwrap().payload, 'b');
        assert_eq!(q.pop().unwrap().payload, 'c');
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn fifo_at_equal_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), "a");
        q.schedule(SimTime::from_ns(1), "b");
        assert_eq!(q.pop().unwrap().payload, "b");
        q.schedule(SimTime::from_ns(2), "c");
        q.schedule(SimTime::from_ns(5), "d"); // same time as "a", scheduled later
        assert_eq!(q.pop().unwrap().payload, "c");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "d");
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(3), 9);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn packed_key_round_trips_time_and_seq() {
        // the packed representation must hand back exact time/seq pairs,
        // including extreme timestamps
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(u64::MAX), 'z');
        q.schedule(SimTime::ZERO, 'a');
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::ZERO);
        assert_eq!(first.seq, 1);
        assert_eq!(first.payload, 'a');
        let last = q.pop().unwrap();
        assert_eq!(last.time, SimTime::from_ps(u64::MAX));
        assert_eq!(last.seq, 0);
    }

    #[test]
    fn packed_order_matches_lexicographic_pair_order() {
        // exhaustive cross-check on a grid of (time, seq) pairs: the
        // single-integer key must order exactly like (time, then seq)
        let times = [0u64, 1, 1250, u64::MAX / 2, u64::MAX];
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            for j in 0..3u64 {
                q.schedule(SimTime::from_ps(t), (i, j));
                expected.push((t, q.scheduled_total() - 1));
            }
        }
        expected.sort_unstable();
        let popped: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq))).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn lifo_reverses_same_time_batches_only() {
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Lifo);
        q.schedule(SimTime::from_ns(2), 20);
        q.schedule(SimTime::from_ns(1), 10);
        q.schedule(SimTime::from_ns(1), 11);
        q.schedule(SimTime::from_ns(1), 12);
        q.schedule(SimTime::from_ns(2), 21);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        // time order is untouched; each equal-time batch pops newest-first
        assert_eq!(order, [12, 11, 10, 21, 20]);
    }

    #[test]
    fn permuted_shuffles_batches_and_recovers_seq() {
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Permuted(0xFEED));
        for i in 0..64 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let popped: Vec<(u64, i64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.payload))).collect();
        // every event decodes its true scheduling seq (== payload here)
        for &(seq, payload) in &popped {
            assert_eq!(seq, payload as u64);
        }
        // same multiset, different order than FIFO
        let order: Vec<i64> = popped.iter().map(|&(_, p)| p).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<i64>>());
        assert_ne!(order, sorted, "64 events should not shuffle to identity");
    }

    #[test]
    fn permuted_seeds_differ_but_replay_exactly() {
        let run = |tie: TieBreak| -> Vec<i64> {
            let mut q = EventQueue::new();
            q.set_tie_break(tie);
            for i in 0..32 {
                q.schedule(SimTime::ZERO, i);
            }
            std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect()
        };
        let a = run(TieBreak::Permuted(1));
        let b = run(TieBreak::Permuted(2));
        assert_eq!(a, run(TieBreak::Permuted(1)), "same seed, same order");
        assert_ne!(a, b, "distinct seeds should order a 32-batch differently");
    }

    #[test]
    fn tie_break_parse_display_round_trips() {
        for tie in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Permuted(0),
            TieBreak::Permuted(0xDEAD_BEEF),
        ] {
            assert_eq!(TieBreak::parse(&tie.to_string()), Some(tie));
        }
        assert_eq!(TieBreak::parse("permuted:42"), Some(TieBreak::Permuted(42)));
        assert_eq!(TieBreak::parse("permuted:"), None);
        assert_eq!(TieBreak::parse("nonsense"), None);
    }

    #[test]
    #[should_panic(expected = "tie-break policy can only change")]
    fn tie_break_change_requires_empty_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.set_tie_break(TieBreak::Lifo);
    }

    #[test]
    fn reset_keeps_tie_break_policy() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_tie_break(TieBreak::Permuted(9));
        q.schedule(SimTime::ZERO, 0);
        let _ = q.pop();
        q.reset();
        assert_eq!(q.tie_break(), TieBreak::Permuted(9));
    }

    #[test]
    fn reset_reuses_capacity_and_replays_identically() {
        let run = |q: &mut EventQueue<u64>| -> Vec<(u64, u64, u64)> {
            for i in 0..512u64 {
                q.schedule(SimTime::from_ns(i * 7 % 64), i);
            }
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload))).collect()
        };
        let mut fresh = EventQueue::new();
        let want = run(&mut fresh);
        let mut reused = EventQueue::new();
        let _ = run(&mut reused);
        let cap = reused.capacity();
        assert!(cap >= 512);
        reused.reset();
        assert!(reused.is_empty());
        assert_eq!(reused.scheduled_total(), 0);
        assert_eq!(reused.capacity(), cap, "reset must keep the allocation");
        assert_eq!(run(&mut reused), want, "a reset queue must replay exactly");
    }
}
