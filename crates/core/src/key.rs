//! Content-addressed keys: a dependency-free SHA-256 and the manifest
//! key built on it.
//!
//! Every result in this workspace is a pure function of its
//! [`TaskManifest`] — job registry key, encoded payload, and one seed per
//! slot — so the digest of the manifest's canonical wire encoding (prefixed
//! with the key format and wire versions) names its result bytes. The
//! service's result cache files entries under it, and [`crate::obs`]
//! derives deterministic trace IDs from it.

use crate::exec::{TaskManifest, WIRE_VERSION};
use crate::wire;

/// Bumped whenever the result-blob layout or key derivation changes; part
/// of the hashed key prefix *and* the service's on-disk cache header, so
/// stale entries from an older format can never be served.
pub const CACHE_FORMAT_VERSION: u8 = 1;

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
}
