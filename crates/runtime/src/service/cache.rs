//! The two-tier content-addressed result cache behind the experiment
//! service.
//!
//! Because every result in this workspace is a pure function of its
//! [`TaskManifest`](crate::exec::TaskManifest) — job registry key, encoded
//! payload, and one seed per slot — and every backend gathers slots in
//! flat-index order, **the manifest's canonical wire encoding fully
//! determines the result bytes**. That makes results perfectly memoizable:
//! the cache key is a SHA-256 digest of the encoded manifest (prefixed with
//! the cache and wire format versions), and a cache hit is byte-identical
//! to a fresh run *by construction*, not by luck.
//!
//! Two tiers:
//!
//! * [`MemCache`] — a small in-memory LRU of decoded result blobs, for the
//!   "the process answered this seconds ago" case;
//! * [`DiskStore`] — one file per key under a cache directory (the daemon
//!   defaults to `results/cache/`), written atomically (temp file +
//!   rename) so a crashed writer can never leave a half-entry that later
//!   decodes as a result. Corrupt or truncated entries are treated as
//!   misses and removed.
//!
//! Deleting the cache directory is always safe and is the documented
//! invalidation step after any change to the simulation code itself (the
//! key covers the *request*, not the binary that answers it).

use crate::exec::{TaskManifest, WIRE_VERSION};
use crate::wire::{self, Reader, WireError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bumped whenever the blob layout or key derivation changes; part of the
/// hashed key prefix *and* the on-disk header, so stale entries from an
/// older format can never be served.
pub const CACHE_FORMAT_VERSION: u8 = 1;

/// Magic bytes opening every disk entry.
const DISK_MAGIC: &[u8; 4] = b"SPNC";

// --- cache key -----------------------------------------------------------

/// A content-addressed cache key: SHA-256 over the canonical wire encoding
/// of a task manifest (plus format/protocol version prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The key of `manifest`: a digest of its canonical encoding. Two
    /// manifests get the same key iff they encode to the same bytes —
    /// same job kind, payload, segments and per-slot seeds.
    pub fn of_manifest(manifest: &TaskManifest) -> Self {
        let mut buf = Vec::new();
        wire::put_u8(&mut buf, CACHE_FORMAT_VERSION);
        wire::put_u8(&mut buf, WIRE_VERSION);
        manifest.encode_into(&mut buf);
        CacheKey(sha256(&buf))
    }

    /// Deterministic trace ID for [`crate::obs`]: the key's first
    /// eight bytes as a little-endian `u64`, mapped away from the
    /// reserved "no trace" value `0`. Stable across re-runs of the same
    /// manifest on the same build, so traces are directly comparable.
    pub fn trace_id(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes")).max(1)
    }

    /// Lower-case hex rendering (the disk file name).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

// --- result blob ---------------------------------------------------------

/// Encode per-slot result bytes into one cacheable blob (slot count, then
/// one length-prefixed entry per slot, in flat-index order).
pub fn encode_blob(slots: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + slots.iter().map(|s| s.len() + 4).sum::<usize>());
    wire::put_u32(&mut buf, slots.len() as u32);
    for s in slots {
        wire::put_bytes(&mut buf, s);
    }
    buf
}

/// Decode a blob back into per-slot result bytes.
pub fn decode_blob(blob: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut r = Reader::new(blob);
    // Each slot is at least its 4-byte length prefix.
    let n = r.get_count(4, "slot list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_bytes()?.to_vec());
    }
    r.finish()?;
    Ok(out)
}

// --- in-memory LRU tier --------------------------------------------------

/// A bounded in-memory LRU over decoded result blobs. `capacity == 0`
/// disables the tier entirely.
#[derive(Debug)]
pub struct MemCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, (Arc<Vec<u8>>, u64)>,
}

impl MemCache {
    /// An empty cache holding at most `capacity` blobs.
    pub fn new(capacity: usize) -> Self {
        MemCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(blob, last)| {
            *last = tick;
            blob.clone()
        })
    }

    /// Insert `blob` under `key`, evicting the least-recently-used entry
    /// when over capacity.
    pub fn put(&mut self, key: CacheKey, blob: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(key, (blob, self.tick));
        while self.entries.len() > self.capacity {
            // Linear LRU scan: the cache is small (tens of entries), and
            // evictions are rarer than hits — not worth an ordered index.
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k)
                .expect("non-empty over-capacity cache");
            self.entries.remove(&oldest);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// --- disk tier -----------------------------------------------------------

/// The persistent cache tier: one `<hex key>.res` file per entry under a
/// cache directory, optionally held under a byte budget by evicting the
/// least-recently-used entries (mtime order; a read refreshes the mtime).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Distinguishes concurrent writers' temp files within one process.
    temp_seq: AtomicU64,
    /// Total-entry-bytes budget; `None` means unbounded.
    budget: Option<u64>,
    /// Entries evicted to honour the budget (monotonic).
    evicted: AtomicU64,
    /// Corrupt entries detected and deleted (monotonic).
    corrupt_deleted: AtomicU64,
}

/// What a [`DiskStore::gc`] sweep found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: u64,
    /// Corrupt/truncated/stale-format entries deleted.
    pub corrupt_deleted: u64,
    /// Healthy entries evicted to honour the byte budget (LRU first).
    pub evicted: u64,
    /// Entry bytes on disk before the sweep.
    pub bytes_before: u64,
    /// Entry bytes on disk after the sweep.
    pub bytes_after: u64,
}

impl DiskStore {
    /// A store rooted at `dir` (created on first write), unbounded.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskStore {
            dir: dir.into(),
            temp_seq: AtomicU64::new(0),
            budget: None,
            evicted: AtomicU64::new(0),
            corrupt_deleted: AtomicU64::new(0),
        }
    }

    /// Set (or clear) the size budget: after every write the store evicts
    /// least-recently-used entries until total entry bytes fit.
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Entries evicted for the budget since this store was opened.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Corrupt entries deleted since this store was opened.
    pub fn corrupt_deleted(&self) -> u64 {
        self.corrupt_deleted.load(Ordering::Relaxed)
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.res", key.hex()))
    }

    /// Load the blob stored under `key`. Missing, truncated or corrupt
    /// entries are a miss (`None`); corrupt files are deleted (and
    /// counted) so they are not re-parsed on every request. A hit
    /// refreshes the entry's mtime, which is the recency signal the
    /// budget eviction sorts by.
    pub fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let path = self.path_of(key);
        let bytes = std::fs::read(&path).ok()?;
        match Self::parse_entry(&bytes) {
            Some(blob) => {
                Self::touch(&path);
                Some(blob)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                self.corrupt_deleted.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Best-effort mtime refresh (LRU recency). Failure is harmless: the
    /// entry just looks older than it is.
    fn touch(path: &Path) {
        if let Ok(f) = std::fs::File::options().append(true).open(path) {
            let _ =
                f.set_times(std::fs::FileTimes::new().set_modified(std::time::SystemTime::now()));
        }
    }

    fn parse_entry(bytes: &[u8]) -> Option<Vec<u8>> {
        if bytes.len() < DISK_MAGIC.len() + 1 || &bytes[..4] != DISK_MAGIC {
            return None;
        }
        if bytes[4] != CACHE_FORMAT_VERSION {
            return None;
        }
        let blob = bytes[5..].to_vec();
        // The blob must at least decode structurally; a truncated write
        // that survived the header is still a miss.
        decode_blob(&blob).ok()?;
        Some(blob)
    }

    /// Persist `blob` under `key`, atomically: the entry is written to a
    /// temp file in the same directory and renamed into place, so readers
    /// only ever observe complete entries. Errors are returned (the caller
    /// typically logs and continues — a failed cache write never fails the
    /// job).
    pub fn put(&self, key: &CacheKey, blob: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let seq = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{}.{}.{}.tmp", key.hex(), std::process::id(), seq));
        let mut contents = Vec::with_capacity(5 + blob.len());
        contents.extend_from_slice(DISK_MAGIC);
        contents.push(CACHE_FORMAT_VERSION);
        contents.extend_from_slice(blob);
        std::fs::write(&tmp, &contents)?;
        match std::fs::rename(&tmp, self.path_of(key)) {
            Ok(()) => {
                self.enforce_budget(Some(key));
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Every `.res` entry as `(path, mtime, size)`, oldest first.
    fn entries_by_age(&self) -> Vec<(PathBuf, std::time::SystemTime, u64)> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries: Vec<(PathBuf, std::time::SystemTime, u64)> = dir
            .filter_map(|e| {
                let e = e.ok()?;
                let path = e.path();
                if path.extension().and_then(|x| x.to_str()) != Some("res") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((path, mtime, meta.len()))
            })
            .collect();
        entries.sort_by_key(|(_, mtime, _)| *mtime);
        entries
    }

    /// Evict least-recently-used entries until total entry bytes fit the
    /// budget. `protect` (the key just written) is never evicted — a blob
    /// larger than the whole budget must still land, or a hot oversized
    /// result would be recomputed forever.
    fn enforce_budget(&self, protect: Option<&CacheKey>) {
        let Some(budget) = self.budget else { return };
        let protect_path = protect.map(|k| self.path_of(k));
        let entries = self.entries_by_age();
        let mut total: u64 = entries.iter().map(|(_, _, size)| size).sum();
        for (path, _, size) in entries {
            if total <= budget {
                break;
            }
            if protect_path.as_deref() == Some(path.as_path()) {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(size);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Sweep the whole store: delete corrupt/stale-format entries, then
    /// enforce the byte budget (LRU first). Safe to run while a daemon is
    /// serving — entries are atomic files and a concurrent reader of a
    /// just-evicted key simply misses.
    pub fn gc(&self) -> GcReport {
        let mut report = GcReport::default();
        for (path, _, size) in self.entries_by_age() {
            report.scanned += 1;
            report.bytes_before += size;
            let healthy = std::fs::read(&path)
                .ok()
                .and_then(|bytes| Self::parse_entry(&bytes))
                .is_some();
            if !healthy && std::fs::remove_file(&path).is_ok() {
                self.corrupt_deleted.fetch_add(1, Ordering::Relaxed);
                report.corrupt_deleted += 1;
            }
        }
        let evicted_before = self.evicted();
        self.enforce_budget(None);
        report.evicted = self.evicted() - evicted_before;
        report.bytes_after = self.entries_by_age().iter().map(|(_, _, size)| size).sum();
        report
    }
}

// --- SHA-256 -------------------------------------------------------------
//
// A dependency-free implementation (FIPS 180-4): the offline vendor tree
// has no crypto crate, and the cache key must be collision-resistant —
// serving the wrong cached result on a key collision would silently break
// the byte-identity guarantee the whole service is built on.

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

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data || 0x80 || zeros || 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = Vec::with_capacity(data.len() + 72);
    msg.extend_from_slice(data);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::MulJob;
    use crate::grid::Segment;

    fn hex(d: &[u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        // FIPS 180-4 / NIST test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Two-block 896-bit vector.
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        // One million 'a' (the classic long vector).
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    fn manifest(seed_mix: u64) -> TaskManifest {
        let job = MulJob { factor: 3 };
        TaskManifest::for_job(
            &job,
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 3,
            }],
            &|p, r| seed_mix ^ ((p as u64) << 32) ^ r,
        )
    }

    #[test]
    fn cache_key_is_stable_and_content_sensitive() {
        let a = CacheKey::of_manifest(&manifest(1));
        let b = CacheKey::of_manifest(&manifest(1));
        let c = CacheKey::of_manifest(&manifest(2));
        assert_eq!(a, b, "same manifest must hash identically");
        assert_ne!(a, c, "a seed change must change the key");
        assert_eq!(a.hex().len(), 64);
        // Payload sensitivity.
        let mut m = manifest(1);
        m.payload.push(0);
        assert_ne!(CacheKey::of_manifest(&m), a);
    }

    #[test]
    fn blob_round_trips_including_empty_slots() {
        let slots = vec![vec![1u8, 2, 3], vec![], vec![0xFF; 100]];
        let blob = encode_blob(&slots);
        assert_eq!(decode_blob(&blob).unwrap(), slots);
        assert_eq!(
            decode_blob(&encode_blob(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
        // Truncated blob is an error, not a partial decode.
        assert!(decode_blob(&blob[..blob.len() - 1]).is_err());
    }

    /// A short blob declaring `u32::MAX` slots is rejected before any
    /// allocation sized from the declared count.
    #[test]
    fn blob_decode_rejects_slot_counts_that_overrun_the_buffer() {
        let mut blob = Vec::new();
        wire::put_u32(&mut blob, u32::MAX);
        wire::put_bytes(&mut blob, &[1, 2, 3]);
        let err = decode_blob(&blob).unwrap_err();
        assert!(
            err.0.contains("slot list of 4294967295 overruns buffer"),
            "{err}"
        );
    }

    #[test]
    fn mem_cache_evicts_least_recently_used() {
        let k: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::of_manifest(&manifest(i)))
            .collect();
        let mut c = MemCache::new(2);
        c.put(k[0], Arc::new(vec![0]));
        c.put(k[1], Arc::new(vec![1]));
        // Touch k0 so k1 is the LRU victim.
        assert!(c.get(&k[0]).is_some());
        c.put(k[2], Arc::new(vec![2]));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k[1]).is_none(), "LRU entry must be evicted");
        assert!(c.get(&k[0]).is_some());
        assert!(c.get(&k[2]).is_some());
        // Capacity 0 disables the tier.
        let mut off = MemCache::new(0);
        off.put(k[3], Arc::new(vec![3]));
        assert!(off.is_empty());
        assert!(off.get(&k[3]).is_none());
    }

    #[test]
    fn disk_store_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("svc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir);
        let key = CacheKey::of_manifest(&manifest(9));
        assert!(store.get(&key).is_none());

        let blob = encode_blob(&[vec![1, 2], vec![3]]);
        store.put(&key, &blob).unwrap();
        assert_eq!(store.get(&key).unwrap(), blob);

        // Corrupt the entry: must become a miss and be cleaned up.
        let path = dir.join(format!("{}.res", key.hex()));
        std::fs::write(&path, b"SPNC\x01garbage-that-is-not-a-blob").unwrap();
        assert!(store.get(&key).is_none());
        assert!(!path.exists(), "corrupt entry must be removed");

        // Wrong format version: miss.
        let mut stale = Vec::new();
        stale.extend_from_slice(b"SPNC");
        stale.push(CACHE_FORMAT_VERSION + 1);
        stale.extend_from_slice(&blob);
        std::fs::write(&path, &stale).unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.corrupt_deleted(), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn set_mtime(path: &Path, secs: u64) {
        let f = std::fs::File::options().append(true).open(path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(
            std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs),
        ))
        .unwrap();
    }

    #[test]
    fn budget_evicts_lru_entries_and_gc_reports() {
        let dir = std::env::temp_dir().join(format!("svc-cache-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let blob = encode_blob(&[vec![7u8; 64]]);
        let entry_size = (5 + blob.len()) as u64;
        // Fill unbounded, pinning mtimes so LRU order is unambiguous
        // regardless of filesystem timestamp granularity.
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| CacheKey::of_manifest(&manifest(100 + i)))
            .collect();
        {
            let unbounded = DiskStore::new(&dir);
            for (i, key) in keys.iter().enumerate() {
                unbounded.put(key, &blob).unwrap();
                set_mtime(&dir.join(format!("{}.res", key.hex())), 1_000 + i as u64);
            }
        }
        // A corrupt straggler for gc to clean up.
        let junk = dir.join("deadbeef.res");
        std::fs::write(&junk, b"not an entry").unwrap();

        let store = DiskStore::new(&dir).with_budget(Some(entry_size * 2));
        let report = store.gc();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.corrupt_deleted, 1);
        assert_eq!(report.evicted, 1, "one entry over budget");
        assert_eq!(report.bytes_after, entry_size * 2);
        assert!(!junk.exists());
        assert!(
            store.get(&keys[0]).is_none(),
            "the least-recently-used entry is the victim"
        );
        assert!(store.get(&keys[1]).is_some());
        assert!(store.get(&keys[2]).is_some());

        // A write over budget evicts, but never the entry just written.
        let fresh = CacheKey::of_manifest(&manifest(200));
        store.put(&fresh, &blob).unwrap();
        assert!(store.get(&fresh).is_some());
        assert_eq!(store.evicted(), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_refreshes_mtime_for_lru_recency() {
        let dir = std::env::temp_dir().join(format!("svc-cache-touch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir);
        let key = CacheKey::of_manifest(&manifest(300));
        store.put(&key, &encode_blob(&[vec![1]])).unwrap();
        let path = dir.join(format!("{}.res", key.hex()));
        set_mtime(&path, 1_000);
        let stale = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert!(store.get(&key).is_some());
        let touched = std::fs::metadata(&path).unwrap().modified().unwrap();
        assert!(touched > stale, "a hit must refresh the entry's mtime");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
