//! Deterministic corrupt-archive mutation suite.
//!
//! Three mutation families over one serialized CapsuleBox:
//!
//! 1. **truncation** at every cut point — `from_bytes` must return an error;
//! 2. **whole-file bit flips** — any single flipped bit must be caught by
//!    the CRC-32 trailer;
//! 3. **body corruption with a recomputed CRC** (bit flips and zero-fill),
//!    which sails past the checksum and exercises the structural
//!    validation behind it — opening, decompressing every capsule and
//!    querying must never panic, and a mutant that still opens must
//!    report the original line count (`total_lines` is load-bearing for
//!    the line index, so lying about it is not an acceptable outcome).
//!
//! All randomness is a seeded xorshift, so failures reproduce exactly.

use loggrep::wire::crc32;
use loggrep::{Archive, LogGrep, LogGrepConfig};

/// A log mixing real-pattern (block ids, IPs), nominal-pattern (enum-like
/// status tokens) and plain content, so the box contains every vector kind.
fn sample_log(lines: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..lines {
        let line = match i % 4 {
            0 => format!(
                "2021-01-{:02} INFO blk_17{:05} replicated to 11.187.{}.{}",
                i % 28 + 1,
                i,
                i % 250,
                (i * 7) % 250
            ),
            1 => format!(
                "T{} state: {}#16{:02}",
                100 + i,
                if i % 7 == 0 { "ERR" } else { "SUC" },
                i % 100
            ),
            2 => format!(
                "ERROR quota exceeded user:{} limit={}",
                ["alice", "bob", "carol"][i % 3],
                (i % 4) * 100
            ),
            _ => format!("write to file:/tmp/1FF8{:04X}.log code={}", i * 31 % 65536, i % 3),
        };
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

fn archive_bytes() -> (Vec<u8>, u32) {
    let raw = sample_log(240);
    let engine = LogGrep::new(LogGrepConfig::default());
    let boxed = engine.compress(&raw).unwrap();
    let lines = boxed.total_lines;
    (boxed.to_bytes(), lines)
}

/// Deterministic xorshift64* PRNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const QUERIES: &[&str] = &["read", "ERROR", "user:alice and limit=300", "blk_17", "SUC#16"];

/// Opens a mutant and, if it opens at all, drives every decode path that a
/// reader would hit. Returns whether it opened. Panics (failing the test)
/// only if a structurally-accepted mutant lies about its line count.
fn exercise(bytes: &[u8], original_lines: u32) -> bool {
    let Ok(archive) = Archive::from_bytes(bytes) else {
        return false;
    };
    assert_eq!(
        archive.total_lines(),
        original_lines,
        "mutant opened with a different line count"
    );
    let boxed = archive.capsule_box();
    for id in 0..boxed.capsules.len() as u32 {
        let _ = boxed.decompress_capsule(id);
    }
    for q in QUERIES {
        let _ = archive.query(q);
        // `explain` walks the same untrusted metadata without reading any
        // Capsule.
        let _ = archive.explain(q);
    }
    let _ = archive.reconstruct_all();
    true
}

#[test]
fn truncation_at_every_cut_is_an_error() {
    let (bytes, _) = archive_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Archive::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} bytes was accepted",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_are_caught_by_the_crc() {
    let (bytes, _) = archive_bytes();
    let mut rng = XorShift(0x1091_7bfe_dead_beef);
    let mut mutant = bytes.clone();
    // A sampled sweep keeps the quadratic CRC cost in check; the guarantee
    // is positional anyway (a single flipped bit always changes the CRC).
    for _ in 0..400 {
        let off = rng.below(bytes.len());
        let bit = 1u8 << rng.below(8);
        mutant[off] ^= bit;
        assert!(
            Archive::from_bytes(&mutant).is_err(),
            "bit flip at byte {off} mask {bit:#x} was accepted"
        );
        mutant[off] ^= bit;
    }
    assert_eq!(mutant, bytes, "mutation sweep must restore the original");
}

/// Replaces the 4-byte CRC trailer so the mutation is only visible to the
/// structural validators.
fn restamp(mutant: &mut [u8]) {
    let body_len = mutant.len() - 4;
    let crc = crc32(&mutant[..body_len]).to_le_bytes();
    mutant[body_len..].copy_from_slice(&crc);
}

#[test]
fn body_bit_flips_with_valid_crc_never_panic_or_lie() {
    let (bytes, lines) = archive_bytes();
    let mut rng = XorShift(0x5eed_0fc0_ffee);
    let mut opened = 0u32;
    for _ in 0..150 {
        let mut mutant = bytes.clone();
        let off = rng.below(bytes.len() - 4);
        mutant[off] ^= 1u8 << rng.below(8);
        restamp(&mut mutant);
        if exercise(&mutant, lines) {
            opened += 1;
        }
    }
    // Most flips land in the blob or a non-load-bearing field, so a decent
    // share of mutants must still open — otherwise `exercise` tested nothing.
    assert!(opened > 0, "no mutant survived validation; suite is vacuous");
}

#[test]
fn body_zero_fill_with_valid_crc_never_panics_or_lies() {
    let (bytes, lines) = archive_bytes();
    let mut rng = XorShift(0xfeed_face_cafe);
    for _ in 0..60 {
        let mut mutant = bytes.clone();
        let start = rng.below(bytes.len() - 4);
        let len = 1 + rng.below(64);
        let end = (start + len).min(bytes.len() - 4);
        mutant[start..end].fill(0);
        restamp(&mut mutant);
        exercise(&mutant, lines);
    }
}
