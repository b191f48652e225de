//! A DEFLATE-like codec: LZ77 over a 32 KiB window + canonical Huffman.
//!
//! This is the repository's stand-in for **gzip** (the `ggrep` baseline of
//! the paper compresses log blocks with gzip). The container format is our
//! own — a varint length header, two nibble-packed code-length tables, and a
//! single Huffman-coded block — but the length/distance alphabets and the
//! 32 KiB window are DEFLATE's, so ratio and speed land in gzip territory.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{self, Decoder, Encoder};
use crate::lz77::{self, Lz77Params, MatchFinder, Token};
use crate::varint;
use crate::{Codec, CodecError};

/// Number of literal/length symbols: 256 literals + end-of-block + 29 lengths.
const NUM_LITLEN: usize = 286;
/// End-of-block symbol.
const EOB: usize = 256;
/// Number of distance symbols.
const NUM_DIST: usize = 30;

/// Base match length for each length code (symbol 257 + i).
const LEN_BASE: [u32; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for each length code.
const LEN_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distance for each distance code.
const DIST_BASE: [u32; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for each distance code.
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Maps a match length (3..=258) to `(code_index, extra_bits_value)`.
#[inline]
fn length_code(len: u32) -> (usize, u32) {
    debug_assert!((3..=258).contains(&len));
    // Linear scan over 29 entries is fine; lengths are heavily skewed small.
    for i in (0..29).rev() {
        if len >= LEN_BASE[i] {
            return (i, len - LEN_BASE[i]);
        }
    }
    unreachable!("length below minimum")
}

/// Maps a distance (1..=32768) to `(code_index, extra_bits_value)`.
#[inline]
fn dist_code(dist: u32) -> (usize, u32) {
    debug_assert!((1..=32768).contains(&dist));
    for i in (0..30).rev() {
        if dist >= DIST_BASE[i] {
            return (i, dist - DIST_BASE[i]);
        }
    }
    unreachable!("distance below minimum")
}

/// The DEFLATE-like codec. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    params: Lz77Params,
}

impl Default for Deflate {
    fn default() -> Self {
        Self {
            params: Lz77Params::DEFLATE,
        }
    }
}

impl Deflate {
    /// Creates a codec with custom LZ77 parameters (window must stay within
    /// the 32 KiB distance alphabet).
    pub fn with_params(params: Lz77Params) -> Self {
        assert!(params.window <= 32 * 1024, "deflate window limit is 32 KiB");
        assert!(params.min_match >= 3 && params.max_match <= 258);
        Self { params }
    }
}

fn write_len_table(w: &mut BitWriter, lens: &[u32]) {
    for &l in lens {
        w.write_bits(l as u64, 4);
    }
}

fn read_len_table(r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>, CodecError> {
    (0..n).map(|_| Ok(r.read_bits(4)? as u32)).collect()
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 64);
        varint::put_uvarint(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let tokens = MatchFinder::new(input, self.params).tokenize();

        // Gather symbol frequencies.
        let mut litlen_freq = vec![0u64; NUM_LITLEN];
        let mut dist_freq = vec![0u64; NUM_DIST];
        for t in &tokens {
            match *t {
                Token::Literal(b) => litlen_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    litlen_freq[257 + length_code(len).0] += 1;
                    dist_freq[dist_code(dist).0] += 1;
                }
            }
        }
        litlen_freq[EOB] += 1;

        let litlen_lens = huffman::code_lengths(&litlen_freq);
        let dist_lens = huffman::code_lengths(&dist_freq);
        let litlen_enc = Encoder::from_lengths(&litlen_lens);
        let dist_enc = Encoder::from_lengths(&dist_lens);

        let mut w = BitWriter::new();
        write_len_table(&mut w, &litlen_lens);
        write_len_table(&mut w, &dist_lens);
        for t in &tokens {
            match *t {
                Token::Literal(b) => litlen_enc.encode(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (lc, lextra) = length_code(len);
                    litlen_enc.encode(&mut w, 257 + lc);
                    w.write_bits(lextra as u64, LEN_EXTRA[lc]);
                    let (dc, dextra) = dist_code(dist);
                    dist_enc.encode(&mut w, dc);
                    w.write_bits(dextra as u64, DIST_EXTRA[dc]);
                }
            }
        }
        litlen_enc.encode(&mut w, EOB);
        out.extend_from_slice(&w.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(input, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let (expected_len, consumed) = varint::get_uvarint(input)
            .ok_or_else(|| CodecError::new("deflate: truncated header"))?;
        let expected_len = expected_len as usize;
        if expected_len == 0 {
            return Ok(());
        }
        let mut r = BitReader::new(input.get(consumed..).unwrap_or_default());
        let litlen_lens = read_len_table(&mut r, NUM_LITLEN)?;
        let dist_lens = read_len_table(&mut r, NUM_DIST)?;
        let litlen_dec = Decoder::from_lengths(&litlen_lens)?;
        let dist_dec = Decoder::from_lengths(&dist_lens)?;

        // Cap the preallocation: the declared length is untrusted input.
        out.reserve(expected_len.min(1 << 20));
        // Every write is checked against the declared length before it
        // happens, so a hostile stream can never grow `out` past it.
        loop {
            let sym = litlen_dec.decode(&mut r)? as usize;
            if sym < 256 {
                if out.len() == expected_len {
                    return Err(CodecError::new("deflate: output exceeds declared length"));
                }
                out.push(sym as u8);
                continue;
            }
            if sym == EOB {
                break;
            }
            let lc = sym - 257;
            let (base, extra) = match (LEN_BASE.get(lc), LEN_EXTRA.get(lc)) {
                (Some(&b), Some(&e)) => (b, e),
                _ => return Err(CodecError::new("deflate: invalid length code")),
            };
            let len = (base + r.read_bits(extra)? as u32) as usize;
            let dc = dist_dec.decode(&mut r)? as usize;
            let (dbase, dextra) = match (DIST_BASE.get(dc), DIST_EXTRA.get(dc)) {
                (Some(&b), Some(&e)) => (b, e),
                _ => return Err(CodecError::new("deflate: invalid distance code")),
            };
            let dist = (dbase + r.read_bits(dextra)? as u32) as usize;
            if len > expected_len - out.len() {
                return Err(CodecError::new("deflate: output exceeds declared length"));
            }
            if !lz77::copy_match(out, dist, len) {
                return Err(CodecError::new("deflate: distance out of range"));
            }
        }
        if out.len() != expected_len {
            return Err(CodecError::new(format!(
                "deflate: length mismatch (declared {expected_len}, got {})",
                out.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = Deflate::default();
        let packed = c.compress(data);
        assert_eq!(c.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello hello hello hello");
        roundtrip(&vec![b'z'; 100_000]);
    }

    #[test]
    fn roundtrip_log_like_text() {
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(
                format!("2021-01-{:02} INFO write to file:/tmp/1FF8{:04X}.log ok\n", i % 28 + 1, i).as_bytes(),
            );
        }
        let c = Deflate::default();
        let packed = c.compress(&data);
        assert!(
            packed.len() * 8 < data.len(),
            "ratio too poor: {} -> {}",
            data.len(),
            packed.len()
        );
        assert_eq!(c.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        roundtrip(&data);
    }

    #[test]
    fn corrupt_input_is_error_not_panic() {
        let c = Deflate::default();
        let mut packed = c.compress(b"some compressible data some compressible data");
        // Flip bits across the buffer; decompression must never panic.
        for i in 0..packed.len() {
            packed[i] ^= 0xff;
            let _ = c.decompress(&packed);
            packed[i] ^= 0xff;
        }
        // Truncations too.
        for cut in 0..packed.len() {
            let _ = c.decompress(&packed[..cut]);
        }
    }

    /// `packed` with its varint length header replaced by `declared`.
    fn redeclare(packed: &[u8], declared: u64) -> Vec<u8> {
        let (_, consumed) = varint::get_uvarint(packed).unwrap();
        let mut out = Vec::new();
        varint::put_uvarint(&mut out, declared);
        out.extend_from_slice(&packed[consumed..]);
        out
    }

    #[test]
    fn overshooting_the_declared_length_fails_before_writing() {
        let c = Deflate::default();
        // One literal, then a single dist-1 match of length 99.
        let run = c.compress(&[b'x'; 100]);
        // Eight literals.
        let literals = c.compress(b"abcdefgh");
        for (packed, declared) in [(&run, 50), (&run, 2), (&literals, 4)] {
            let mut out = Vec::new();
            let err = c.decompress_into(&redeclare(packed, declared), &mut out);
            assert!(err.is_err(), "declared {declared}");
            assert!(
                out.len() <= declared as usize,
                "declared {declared}, wrote {}",
                out.len()
            );
        }
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3), (0, 0));
        assert_eq!(length_code(10), (7, 0));
        assert_eq!(length_code(11), (8, 0));
        assert_eq!(length_code(12), (8, 1));
        assert_eq!(length_code(258), (28, 0));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_code(1), (0, 0));
        assert_eq!(dist_code(4), (3, 0));
        assert_eq!(dist_code(5), (4, 0));
        assert_eq!(dist_code(6), (4, 1));
        assert_eq!(dist_code(32768), (29, 8191));
    }
}
