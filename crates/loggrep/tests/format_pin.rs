//! Format pin: the encoders' output and the archive bytes for a fixed
//! seeded log must not change.
//!
//! Decoder work (table-driven Huffman, the shared LZ77 copy kernel) must
//! leave every encoder byte-identical, so compression ratios cannot move
//! and archives written before such a change still decode. Each pinned
//! value is a 64-bit FNV-1a hash of the compressed bytes; the test also
//! checks the bytes decode back to the input. A deliberate format change
//! updates the pins in the same commit and says so.

use codec::{Codec, Deflate, FastLz, LzmaLite, Store};
use loggrep::{CapsuleBox, LogGrep, LogGrepConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sample() -> Vec<u8> {
    workloads::by_name("Log A").unwrap().generate(42, 96 * 1024)
}

#[test]
fn codec_output_is_pinned() {
    let raw = sample();
    let codecs: [(&dyn Codec, u64); 4] = [
        (&Store, 0xfae4_09d0_ab6e_b3d7),
        (&Deflate::default(), 0x1a26_e7be_d7f9_b33e),
        (&LzmaLite::default(), 0x7615_2ca2_8bd8_486b),
        (&FastLz::default(), 0x629f_c830_7e44_31a4),
    ];
    for (codec, pinned) in codecs {
        let packed = codec.compress(&raw);
        assert_eq!(codec.decompress(&packed).unwrap(), raw, "{}", codec.name());
        assert_eq!(fnv1a(&packed), pinned, "{} output changed", codec.name());
    }
}

#[test]
fn archive_bytes_are_pinned() {
    let raw = sample();
    let engine = LogGrep::new(LogGrepConfig::default());
    let bytes = engine.compress(&raw).unwrap().to_bytes();
    let archive = engine.open(CapsuleBox::from_bytes(&bytes).unwrap());
    let lines = archive.reconstruct_all().unwrap();
    assert_eq!(lines, loggrep::engine::split_lines(&raw));
    assert_eq!(
        fnv1a(&bytes),
        0x1443_b5d1_66ac_ca92,
        "archive bytes changed"
    );
}
