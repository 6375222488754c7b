//! The two-tier content-addressed result cache behind the experiment
//! service.
//!
//! Because every result in this workspace is a pure function of its
//! [`TaskManifest`](sim_core::exec::TaskManifest) — job registry key, encoded
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

use sim_core::key::CACHE_FORMAT_VERSION;
pub use sim_core::key::{sha256, CacheKey};
use sim_core::wire::{self, Reader, WireError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes opening every disk entry.
const DISK_MAGIC: &[u8; 4] = b"SPNC";

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::MulJob;
    use sim_core::exec::TaskManifest;
    use sim_core::grid::Segment;

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

    /// Hostile variants of the valid body `valid`: random bytes, the
    /// truncation to `cut` bytes, `valid` with the byte at `cut` flipped,
    /// and `valid` with the four bytes from `cut` on overwritten by
    /// `u32::MAX` (a huge length or count wherever one starts there).
    fn hostile(valid: &[u8], noise: &[u8], cut: usize, flip: u8) -> [Vec<u8>; 4] {
        let cut = cut % valid.len();
        let mut flipped = valid.to_vec();
        flipped[cut] ^= flip;
        let mut huge = valid.to_vec();
        huge.iter_mut().skip(cut).take(4).for_each(|b| *b = 0xFF);
        [noise.to_vec(), valid[..cut].to_vec(), flipped, huge]
    }

    fn slot_lists() -> [Vec<Vec<u8>>; 3] {
        [
            vec![],
            vec![vec![7; 9]],
            vec![vec![1, 2, 3], vec![], vec![0xAB; 40]],
        ]
    }

    // A blob reaches `decode_blob` from a disk entry another process wrote
    // and from worker replies; a disk entry reaches `DiskStore::get` from
    // a shared cache directory. On hostile bytes both must fail without
    // panicking, or return what re-encodes to exactly the bytes read (the
    // formats are canonical), so nothing decoded is larger than its input;
    // a `u32::MAX` count is refused by `Reader::get_count` before any
    // allocation. Every strict prefix of a valid blob is an error.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn decode_blob_survives_hostile_bodies(
            pick in 0usize..3,
            noise in proptest::collection::vec(0u8..255, 0..96),
            cut in 0usize..4096,
            flip in 1u8..255,
        ) {
            let slots = &slot_lists()[pick];
            let valid = encode_blob(slots);
            proptest::prop_assert_eq!(&decode_blob(&valid).unwrap(), slots);
            let [noise, truncated, flipped, huge] = hostile(&valid, &noise, cut, flip);
            proptest::prop_assert!(decode_blob(&truncated).is_err());
            for body in [&noise, &flipped, &huge] {
                if let Ok(decoded) = decode_blob(body) {
                    proptest::prop_assert_eq!(&encode_blob(&decoded), body);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn disk_get_survives_hostile_entries(
            pick in 0usize..3,
            noise in proptest::collection::vec(0u8..255, 0..96),
            cut in 0usize..4096,
            flip in 1u8..255,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "spn-cache-fuzz-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let store = DiskStore::new(&dir);
            let key = CacheKey::of_manifest(&manifest(0));
            let blob = encode_blob(&slot_lists()[pick]);
            store.put(&key, &blob).unwrap();
            let path = store.path_of(&key);
            let valid = std::fs::read(&path).unwrap();
            proptest::prop_assert_eq!(store.get(&key), Some(blob));
            let mut outcomes = Vec::new();
            for entry in hostile(&valid, &noise, cut, flip) {
                std::fs::write(&path, &entry).unwrap();
                let got = store.get(&key);
                outcomes.push((entry, got, path.exists()));
            }
            std::fs::remove_dir_all(&dir).unwrap();
            let corrupt = outcomes.iter().filter(|(_, got, _)| got.is_none()).count();
            proptest::prop_assert!(outcomes[1].1.is_none(), "a truncated entry is a miss");
            proptest::prop_assert_eq!(store.corrupt_deleted(), corrupt as u64);
            for (entry, got, kept) in outcomes {
                match got {
                    Some(blob) => {
                        proptest::prop_assert!(kept);
                        proptest::prop_assert_eq!(&entry[..5], &valid[..5]);
                        proptest::prop_assert_eq!(&encode_blob(&decode_blob(&blob).unwrap()), &entry[5..]);
                    }
                    None => proptest::prop_assert!(!kept, "a corrupt entry is deleted"),
                }
            }
        }
    }

    static SEQ: AtomicU64 = AtomicU64::new(0);

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
