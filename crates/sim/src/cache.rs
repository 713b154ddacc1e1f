//! A content-addressed result cache for deterministic simulations.
//!
//! The executor ([`crate::exec`]) makes every sweep unit a pure function
//! of its configuration and derived seed: identical `(config, seed)` is
//! provably the identical result, so memoizing a unit's serialized
//! report is *sound* — the cache can never change what an experiment
//! would have computed, only how fast it answers (DESIGN.md §2c).
//!
//! The key is a [`CacheKey`]: the SHA-256 of the unit's **canonical**
//! JSON encoding — object keys recursively sorted, compact form — with
//! the producing schema version mixed in. Canonicalization makes the
//! hash independent of field declaration order; the schema version makes
//! every format bump an automatic whole-cache miss (stale entries are
//! simply never addressed again, no migration or flush needed).
//!
//! A [`Cache`] layers two stores:
//!
//! 1. an in-memory map for hits within one process, which is also what
//!    coalesces *cross-figure* duplicates in a full regen;
//! 2. an on-disk store (`<dir>/<2-hex shard>/<64-hex key>.json`, atomic
//!    tmp-file + rename writes, mtime-pruned) for warm re-runs.
//!
//! Concurrent misses on one key are not coalesced: each caller computes
//! and stores, and the last write wins. A deterministic unit makes every
//! copy identical, so a race costs time, never a wrong result.
//!
//! Any corrupted, truncated, or mismatched disk entry is a logged miss —
//! never an error, never a wrong result: the entry is unlinked and the
//! unit recomputed.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// On-disk entries kept before oldest-mtime pruning.
const DISK_CAPACITY: usize = 16384;
/// Disk pruning runs every this many inserts (prune cost is a directory
/// walk, so it is amortized rather than paid per write).
const PRUNE_EVERY: u64 = 64;

/// Sequence number of this process's disk writes, so every write gets a
/// temp file of its own even when two threads store the same key.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A 256-bit content address: the SHA-256 of a unit's canonical JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The raw digest bytes.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The 64-character lowercase hex form (also the on-disk file stem).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            let _ = fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
        }
        s
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Serializes `v` canonically: object keys recursively sorted
/// (byte-wise), compact printing. Two structurally-equal values whose
/// fields were built in different orders canonicalize to the same bytes.
pub fn canonical(v: &Json) -> String {
    let mut out = String::new();
    v.write_canonical(&mut out);
    out
}

/// The content address of `unit` under cache-schema version `schema`.
///
/// The schema version is hashed *into* the key (as a prefix line), so a
/// bump re-addresses the entire store: entries written by an older
/// schema can never be returned, without any migration logic.
pub fn key_of(unit: &Json, schema: u32) -> CacheKey {
    let mut h = Sha256::new();
    h.update(format!("blitzcoin-cache-v{schema}\n").as_bytes());
    h.update(canonical(unit).as_bytes());
    CacheKey(h.finish())
}

/// How a [`Cache`] answers lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Serve hits from memory and disk; store misses. The default.
    #[default]
    On,
    /// Bypass entirely: every fetch computes, nothing is stored or read.
    Off,
}

impl CacheMode {
    /// Parses `on`/`off` (ASCII case-insensitive). The error is the
    /// message a CLI prints for the bad value.
    pub fn parse(s: &str) -> Result<CacheMode, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" => Ok(CacheMode::On),
            "off" => Ok(CacheMode::Off),
            _ => Err(format!("bad cache mode '{s}' (want on|off)")),
        }
    }

    /// The mode named by the `BLITZCOIN_CACHE` environment variable:
    /// `Ok(None)` when it is unset, [`CacheMode::parse`]'s error when it
    /// names no mode.
    pub fn from_env() -> Result<Option<CacheMode>, String> {
        std::env::var_os("BLITZCOIN_CACHE")
            .map(|v| CacheMode::parse(&v.to_string_lossy()))
            .transpose()
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMode::On => "on",
            CacheMode::Off => "off",
        })
    }
}

/// A snapshot of a cache's hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to compute (includes mode `Off` bypasses).
    pub misses: u64,
    /// Total original compute time the hits avoided, in milliseconds.
    pub saved_ms: f64,
}

impl CacheStats {
    /// `self - earlier`, for per-experiment deltas around a run.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            saved_ms: self.saved_ms - earlier.saved_ms,
        }
    }
}

/// The answer to [`Cache::fetch`].
#[derive(Debug)]
pub enum Fetch<'a> {
    /// The value is memoized; `.1` is the original compute time (ms).
    /// The value is shared, not cloned — a hit on a megabyte-scale
    /// report costs an `Arc` bump, not a deep tree copy.
    Hit(Arc<Json>, f64),
    /// Nothing is stored: run the computation, then call
    /// [`ComputeGuard::complete`] to store it.
    Miss(ComputeGuard<'a>),
    /// Mode is [`CacheMode::Off`]: compute, nothing is stored.
    Bypass,
}

/// Where to store the value computed for one missed key (see
/// [`Fetch::Miss`]). Dropping it without completing stores nothing.
#[derive(Debug)]
pub struct ComputeGuard<'a> {
    cache: &'a Cache,
    key: CacheKey,
}

impl ComputeGuard<'_> {
    /// Stores the computed value in memory and on disk.
    pub fn complete(self, value: Json, compute_ms: f64) {
        self.complete_shared(Arc::new(value), compute_ms);
    }

    /// [`ComputeGuard::complete`] for a value the caller also keeps a
    /// reference to (avoids re-encoding or cloning it).
    pub fn complete_shared(self, value: Arc<Json>, compute_ms: f64) {
        self.cache.insert(self.key, value, compute_ms);
    }
}

/// A content-addressed result store: an in-memory map over an optional
/// on-disk directory. See the module docs.
#[derive(Debug)]
pub struct Cache {
    mode: CacheMode,
    dir: Option<PathBuf>,
    /// Memoized values with the wall time (ms) their computation took.
    map: Mutex<HashMap<CacheKey, (Arc<Json>, f64)>>,
    /// Values stored, for amortizing disk pruning.
    inserts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Saved compute time accumulated in microseconds (atomics hold
    /// integers; µs granularity keeps the sum exact enough).
    saved_us: AtomicU64,
}

impl Cache {
    /// A cache in `mode`, persisting under `dir` when given (`None` is
    /// memory-only — still serves in-process hits).
    pub fn new(dir: Option<PathBuf>, mode: CacheMode) -> Self {
        Cache {
            mode,
            dir,
            map: Mutex::new(HashMap::new()),
            inserts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saved_us: AtomicU64::new(0),
        }
    }

    /// A memory-only cache with mode [`CacheMode::On`].
    pub fn in_memory() -> Self {
        Cache::new(None, CacheMode::On)
    }

    /// The cache's mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            saved_ms: self.saved_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Looks up `key` in memory, then on disk. Mode `Off` always
    /// returns [`Fetch::Bypass`].
    pub fn fetch(&self, key: CacheKey) -> Fetch<'_> {
        if self.mode == CacheMode::Off {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Fetch::Bypass;
        }
        let memo = self.map.lock().expect("cache poisoned").get(&key).cloned();
        // Disk is read outside the lock: a megabyte-scale parse must not
        // stall every other thread's lookups.
        let found = memo.or_else(|| {
            let (value, ms) = self.load_disk(&key)?;
            let value = Arc::new(value);
            self.map
                .lock()
                .expect("cache poisoned")
                .insert(key, (value.clone(), ms));
            Some((value, ms))
        });
        match found {
            Some((value, ms)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.saved_us.fetch_add(micros(ms), Ordering::Relaxed);
                Fetch::Hit(value, ms)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Fetch::Miss(ComputeGuard { cache: self, key })
            }
        }
    }

    /// Turns a [`Fetch::Hit`] the caller cannot use (a stored value that
    /// no longer decodes) into a miss: the lookup is recounted as a miss,
    /// and completing the returned guard overwrites the entry in memory
    /// and on disk. `compute_ms` is the time the hit reported.
    pub fn reject_hit(&self, key: CacheKey, compute_ms: f64) -> ComputeGuard<'_> {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.saved_us
            .fetch_sub(micros(compute_ms), Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        ComputeGuard { cache: self, key }
    }

    /// Convenience wrapper: fetch, computing with `f` (timed) on a miss.
    /// Returns the (shared) value and whether it was a hit.
    pub fn get_or_compute(&self, key: CacheKey, f: impl FnOnce() -> Json) -> (Arc<Json>, bool) {
        match self.fetch(key) {
            Fetch::Hit(v, _) => (v, true),
            Fetch::Miss(guard) => {
                let t0 = std::time::Instant::now();
                let v = Arc::new(f());
                guard.complete_shared(v.clone(), t0.elapsed().as_secs_f64() * 1e3);
                (v, false)
            }
            Fetch::Bypass => (Arc::new(f()), false),
        }
    }

    fn insert(&self, key: CacheKey, value: Arc<Json>, compute_ms: f64) {
        self.store_disk(&key, &value, compute_ms);
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key, (value, compute_ms));
        if (self.inserts.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(PRUNE_EVERY) {
            self.prune_disk();
        }
    }

    /// `<dir>/<2-hex shard>/<64-hex key>.json`.
    fn entry_path(dir: &Path, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Reads and validates a disk entry; any failure is a logged miss
    /// (the entry is unlinked so it is not re-parsed every run).
    fn load_disk(&self, key: &CacheKey) -> Option<(Json, f64)> {
        let dir = self.dir.as_ref()?;
        let path = Self::entry_path(dir, key);
        let text = std::fs::read_to_string(&path).ok()?;
        match Self::decode_entry(&text, key) {
            Ok(hit) => Some(hit),
            Err(why) => {
                eprintln!(
                    "blitzcoin-cache: discarding bad entry {} ({why}); treating as a miss",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn decode_entry(text: &str, key: &CacheKey) -> Result<(Json, f64), String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let stored_key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or("missing `key`")?;
        if stored_key != key.hex() {
            return Err(format!("key mismatch (`{stored_key}`)"));
        }
        let compute_ms = doc
            .get("compute_ms")
            .and_then(Json::as_f64)
            .ok_or("missing `compute_ms`")?;
        // Move the value out of the envelope rather than cloning it: a
        // megabyte-scale report would otherwise be deep-copied on every
        // disk hit.
        let Json::Obj(pairs) = doc else {
            return Err("entry is not an object".to_string());
        };
        let value = pairs
            .into_iter()
            .find(|(k, _)| k == "value")
            .map(|(_, v)| v)
            .ok_or("missing `value`")?;
        Ok((value, compute_ms))
    }

    /// Writes the entry atomically: a tmp file of this write's own in
    /// the shard directory, then rename. A concurrent reader sees either
    /// the old complete entry or the new complete entry, never a torn
    /// write.
    fn store_disk(&self, key: &CacheKey, value: &Json, compute_ms: f64) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let path = Self::entry_path(dir, key);
        let shard = path.parent().expect("entry path has a shard dir");
        if std::fs::create_dir_all(shard).is_err() {
            return; // read-only store: degrade to memory-only
        }
        // Assemble the envelope textually so the value is serialized in
        // place instead of deep-cloned into a temporary document.
        let body = value.to_string();
        let mut doc = String::with_capacity(body.len() + 128);
        doc.push_str("{\"key\": \"");
        doc.push_str(&key.hex());
        doc.push_str("\", \"compute_ms\": ");
        doc.push_str(&Json::Num(compute_ms).to_string());
        doc.push_str(", \"value\": ");
        doc.push_str(&body);
        doc.push('}');
        let tmp = Self::tmp_path(shard, key);
        if std::fs::write(&tmp, doc).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// A temp file name no other write uses: key, process id and this
    /// process's write sequence number.
    fn tmp_path(shard: &Path, key: &CacheKey) -> PathBuf {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        shard.join(format!(".tmp-{}-{}-{seq}", key.hex(), std::process::id()))
    }

    /// Removes oldest-mtime entries beyond [`DISK_CAPACITY`]; best-effort.
    fn prune_disk(&self) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let mut entries: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        let Ok(shards) = std::fs::read_dir(dir) else {
            return;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                if f.path().extension().is_some_and(|e| e == "json") {
                    if let Ok(meta) = f.metadata() {
                        let at = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                        entries.push((at, f.path()));
                    }
                }
            }
        }
        if entries.len() <= DISK_CAPACITY {
            return;
        }
        entries.sort();
        for (_, path) in &entries[..entries.len() - DISK_CAPACITY] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// `ms` as whole microseconds, the unit the saved-time counter sums.
fn micros(ms: f64) -> u64 {
    (ms * 1e3).max(0.0) as u64
}

/// SHA-256 (FIPS 180-4), hand-rolled so the workspace stays
/// dependency-free. Streaming interface: [`Sha256::update`] then
/// [`Sha256::finish`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed tail of the input (< 64 bytes).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher (FIPS 180-4 initial state).
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return; // input fit in the partial buffer; rest is empty
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            rest = tail;
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads, finalizes, and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_fips_vectors() {
        // FIPS 180-4 / NIST CAVS known-answer vectors.
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A million 'a's, streamed in uneven chunks.
        let mut h = Sha256::new();
        let chunk = [b'a'; 997];
        let mut fed = 0usize;
        while fed < 1_000_000 {
            let take = chunk.len().min(1_000_000 - fed);
            h.update(&chunk[..take]);
            fed += take;
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::parse(r#"{"b": {"y": 1, "x": 2}, "a": [{"q": 1, "p": 2}]}"#).unwrap();
        let b = Json::parse(r#"{"a": [{"p": 2, "q": 1}], "b": {"x": 2, "y": 1}}"#).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        assert_eq!(canonical(&a), r#"{"a":[{"p":2,"q":1}],"b":{"x":2,"y":1}}"#);
        assert_eq!(key_of(&a, 1), key_of(&b, 1));
    }

    #[test]
    fn schema_version_changes_key() {
        let v = Json::parse(r#"{"seed": 7}"#).unwrap();
        assert_ne!(key_of(&v, 1), key_of(&v, 2));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("on"), Ok(CacheMode::On));
        assert_eq!(CacheMode::parse(" OFF "), Ok(CacheMode::Off));
        assert_eq!(
            CacheMode::parse("refresh"),
            Err("bad cache mode 'refresh' (want on|off)".to_string())
        );
        assert!(CacheMode::parse("auto").is_err());
    }

    #[test]
    fn memory_cache_hits_and_stats() {
        let cache = Cache::in_memory();
        let key = key_of(&Json::Num(1.0), 1);
        let (v, hit) = cache.get_or_compute(key, || Json::Str("computed".into()));
        assert!(!hit);
        assert_eq!(*v, Json::Str("computed".into()));
        let (v2, hit2) = cache.get_or_compute(key, || panic!("must not recompute"));
        assert!(hit2);
        assert_eq!(v2, v);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn off_mode_bypasses() {
        let cache = Cache::new(None, CacheMode::Off);
        let key = key_of(&Json::Num(2.0), 1);
        let mut calls = 0;
        for _ in 0..3 {
            let (_, hit) = cache.get_or_compute(key, || {
                calls += 1;
                Json::Null
            });
            assert!(!hit);
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn disk_round_trip_and_corruption_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("bc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("unit".into()), 1);

        let warm = Cache::new(Some(dir.clone()), CacheMode::On);
        warm.get_or_compute(key, || Json::Num(42.0));

        // A second cache over the same dir hits from disk.
        let reread = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = reread.get_or_compute(key, || panic!("disk should hit"));
        assert!(hit);
        assert_eq!(*v, Json::Num(42.0));

        // Truncate the entry: the next cold cache must recompute, not error.
        let path = Cache::entry_path(&dir, &key);
        std::fs::write(&path, "{\"key\": \"trunc").unwrap();
        let cold = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = cold.get_or_compute(key, || Json::Num(43.0));
        assert!(!hit);
        assert_eq!(*v, Json::Num(43.0));
        assert!(!path.exists() || Json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_with_an_out_of_range_number_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("bc-cache-inf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("inf".into()), 1);
        Cache::new(Some(dir.clone()), CacheMode::On).get_or_compute(key, || Json::Num(42.0));

        // A well-formed envelope whose value holds a float past the f64
        // range: read as a hit, it would hand an infinity to the figure.
        let path = Cache::entry_path(&dir, &key);
        let planted = format!(
            "{{\"key\": \"{}\", \"compute_ms\": 1, \"value\": {{\"mean_us\": 1e999}}}}",
            key.hex()
        );
        std::fs::write(&path, planted).unwrap();

        let cold = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = cold.get_or_compute(key, || Json::Num(43.0));
        assert!(!hit, "an out-of-range number must be a miss");
        assert_eq!(*v, Json::Num(43.0));
        assert_eq!(cold.stats().hits, 0);
        let fresh = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = fresh.get_or_compute(key, || panic!("the recomputed entry must hit"));
        assert!(hit);
        assert_eq!(*v, Json::Num(43.0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deeply_nested_entry_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("bc-cache-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("deep".into()), 1);
        Cache::new(Some(dir.clone()), CacheMode::On).get_or_compute(key, || Json::Num(42.0));

        // A well-formed envelope whose value nests 200,000 arrays deep:
        // parsing it recursively would overflow the stack.
        let path = Cache::entry_path(&dir, &key);
        let depth = 200_000;
        let planted = format!(
            "{{\"key\": \"{}\", \"compute_ms\": 1, \"value\": {}{}}}",
            key.hex(),
            "[".repeat(depth),
            "]".repeat(depth)
        );
        std::fs::write(&path, planted).unwrap();

        let cold = Cache::new(Some(dir.clone()), CacheMode::On);
        let Fetch::Miss(guard) = cold.fetch(key) else {
            panic!("a too-deep entry must be a miss");
        };
        assert!(!path.exists(), "the bad entry is unlinked");
        guard.complete(Json::Num(43.0), 1.0);
        let fresh = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = fresh.get_or_compute(key, || panic!("the recomputed entry must hit"));
        assert!(hit);
        assert_eq!(*v, Json::Num(43.0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_on_one_key_store_one_whole_entry() {
        let dir = std::env::temp_dir().join(format!("bc-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("shared".into()), 1);
        // Big enough that the eight disk writes can overlap.
        let value = Json::Arr((0..50_000).map(|i| Json::Num(i as f64)).collect());
        let cache = Cache::new(Some(dir.clone()), CacheMode::On);
        // No thread can store before all eight have missed.
        let all_missed = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (v, hit) = cache.get_or_compute(key, || {
                        all_missed.wait();
                        value.clone()
                    });
                    assert!(!hit);
                    assert_eq!(*v, value);
                });
            }
        });
        assert_eq!(cache.stats().misses, 8, "misses are not coalesced");

        // Whichever write landed last, the entry is whole...
        let fresh = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = fresh.get_or_compute(key, || panic!("stored entry must hit"));
        assert!(hit);
        assert_eq!(*v, value);
        // ... every write had a temp file of its own ...
        let path = Cache::entry_path(&dir, &key);
        let shard = path.parent().unwrap();
        assert_ne!(Cache::tmp_path(shard, &key), Cache::tmp_path(shard, &key));
        // ... and renamed it away.
        let leftovers: Vec<_> = std::fs::read_dir(shard)
            .unwrap()
            .flatten()
            .filter(|f| f.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_guard_hands_off_to_waiter() {
        let cache = Cache::in_memory();
        let key = key_of(&Json::Str("abandoned".into()), 1);
        // The caller gives up without completing: the guard is discarded.
        let Fetch::Miss(_) = cache.fetch(key) else {
            panic!("first fetch must miss");
        };
        let (v, hit) = cache.get_or_compute(key, || Json::Num(9.0));
        assert!(!hit, "an abandoned miss must store nothing");
        assert_eq!(*v, Json::Num(9.0));
    }
}
