//! An LZMA-like codec: LZ77 over a 4 MiB window + adaptive range coding with
//! context modeling.
//!
//! This is the repository's stand-in for **LZMA/7-zip**, which the paper's
//! Packer uses as the second-stage compressor for Capsules (§3). The model
//! follows LZMA's structure in miniature:
//!
//! * a 3-state token context (`after literal` / `after match` / `after rep`),
//! * literals coded through 8 context-selected 8-bit trees (high 3 bits of
//!   the previous byte, LZMA's `lc = 3`),
//! * a repeat-distance slot (`rep0`) with an `is_rep` flag,
//! * LZMA's three-band length coding (3-bit / 4-bit / 8-bit trees), and
//! * distance slots (6-bit tree) with direct footer bits.
//!
//! It is slower than [`crate::Deflate`] and compresses better, which is the
//! relationship the paper's evaluation depends on.

use crate::lz77::{self, Lz77Params, MatchFinder, Token};
use crate::rangecoder::{BitTree, Prob, RangeDecoder, RangeEncoder};
use crate::varint;
use crate::{Codec, CodecError};

const MIN_MATCH: u32 = 2;
const NUM_STATES: usize = 3;
const STATE_LIT: usize = 0;
const STATE_MATCH: usize = 1;
const STATE_REP: usize = 2;
/// Number of literal contexts (high 3 bits of previous byte).
const LIT_CTX: usize = 8;

/// Match-length coder: LZMA's low/mid/high three-band scheme.
///
/// `len - MIN_MATCH` is coded as: `0..8` via a 3-bit tree, `8..24` via a
/// 4-bit tree, `24..280` via an 8-bit tree.
struct LenCoder {
    choice: Prob,
    choice2: Prob,
    low: BitTree,
    mid: BitTree,
    high: BitTree,
}

impl LenCoder {
    fn new() -> Self {
        Self {
            choice: Prob::default(),
            choice2: Prob::default(),
            low: BitTree::new(3),
            mid: BitTree::new(4),
            high: BitTree::new(8),
        }
    }

    fn encode(&mut self, enc: &mut RangeEncoder, len: u32) {
        let v = len - MIN_MATCH;
        if v < 8 {
            enc.encode_bit(&mut self.choice, 0);
            self.low.encode(enc, v);
        } else if v < 8 + 16 {
            enc.encode_bit(&mut self.choice, 1);
            enc.encode_bit(&mut self.choice2, 0);
            self.mid.encode(enc, v - 8);
        } else {
            enc.encode_bit(&mut self.choice, 1);
            enc.encode_bit(&mut self.choice2, 1);
            self.high.encode(enc, v - 24);
        }
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let v = if dec.decode_bit(&mut self.choice) == 0 {
            self.low.decode(dec)
        } else if dec.decode_bit(&mut self.choice2) == 0 {
            self.mid.decode(dec) + 8
        } else {
            self.high.decode(dec) + 24
        };
        v + MIN_MATCH
    }
}

/// Maps a zero-based distance value to its slot (LZMA's dist-slot scheme).
#[inline]
fn dist_slot(v: u32) -> u32 {
    if v < 4 {
        v
    } else {
        let bits = 31 - v.leading_zeros();
        (bits << 1) | ((v >> (bits - 1)) & 1)
    }
}

/// The LZMA-like codec. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct LzmaLite {
    params: Lz77Params,
}

impl Default for LzmaLite {
    fn default() -> Self {
        Self {
            params: Lz77Params::LZMA,
        }
    }
}

impl LzmaLite {
    /// Creates a codec with custom LZ77 parameters.
    pub fn with_params(params: Lz77Params) -> Self {
        assert!(params.min_match >= MIN_MATCH);
        assert!(params.max_match <= MIN_MATCH + 8 + 16 + 255);
        Self { params }
    }
}

/// All adaptive contexts, shared in shape between encoder and decoder.
struct Model {
    is_match: [Prob; NUM_STATES],
    is_rep: [Prob; NUM_STATES],
    literals: Vec<BitTree>,
    len: LenCoder,
    rep_len: LenCoder,
    dist_slot: BitTree,
}

impl Model {
    fn new() -> Self {
        Self {
            is_match: [Prob::default(); NUM_STATES],
            is_rep: [Prob::default(); NUM_STATES],
            literals: (0..LIT_CTX).map(|_| BitTree::new(8)).collect(),
            len: LenCoder::new(),
            rep_len: LenCoder::new(),
            dist_slot: BitTree::new(6),
        }
    }

    #[inline]
    fn lit_ctx(prev_byte: u8) -> usize {
        (prev_byte >> 5) as usize
    }
}

impl Codec for LzmaLite {
    fn name(&self) -> &'static str {
        "lzma-lite"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 3 + 64);
        varint::put_uvarint(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let tokens = MatchFinder::new(input, self.params).tokenize();

        let mut model = Model::new();
        let mut enc = RangeEncoder::new();
        let mut state = STATE_LIT;
        let mut rep0: u32 = 0; // Last match distance; 0 = none yet.
        let mut pos = 0usize;
        for t in &tokens {
            match *t {
                Token::Literal(b) => {
                    enc.encode_bit(&mut model.is_match[state], 0);
                    let prev = if pos == 0 { 0 } else { input[pos - 1] };
                    model.literals[Model::lit_ctx(prev)].encode(&mut enc, b as u32);
                    state = STATE_LIT;
                    pos += 1;
                }
                Token::Match { len, dist } => {
                    enc.encode_bit(&mut model.is_match[state], 1);
                    if dist == rep0 && rep0 != 0 {
                        enc.encode_bit(&mut model.is_rep[state], 1);
                        model.rep_len.encode(&mut enc, len);
                        state = STATE_REP;
                    } else {
                        enc.encode_bit(&mut model.is_rep[state], 0);
                        model.len.encode(&mut enc, len);
                        let v = dist - 1;
                        let slot = dist_slot(v);
                        model.dist_slot.encode(&mut enc, slot);
                        if slot >= 4 {
                            let nbits = (slot >> 1) - 1;
                            let base = (2 | (slot & 1)) << nbits;
                            enc.encode_direct(v - base, nbits);
                        }
                        rep0 = dist;
                        state = STATE_MATCH;
                    }
                    pos += len as usize;
                }
            }
        }
        out.extend_from_slice(&enc.finish());
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
            .ok_or_else(|| CodecError::new("lzma-lite: truncated header"))?;
        let expected_len = expected_len as usize;
        if expected_len == 0 {
            return Ok(());
        }
        let mut dec = RangeDecoder::new(input.get(consumed..).unwrap_or_default())?;
        let mut model = Model::new();
        let mut state = STATE_LIT;
        let mut rep0: u32 = 0;
        // Cap the preallocation: the declared length is untrusted input.
        out.reserve(expected_len.min(1 << 20));
        while out.len() < expected_len {
            if dec.overrun() {
                return Err(CodecError::new("lzma-lite: input exhausted"));
            }
            // lint:allow(no-panic-in-decode) — state is one of the STATE_* constants, all within the model arrays
            if dec.decode_bit(&mut model.is_match[state]) == 0 {
                let prev = out.last().copied().unwrap_or(0);
                // lint:allow(no-panic-in-decode) — lit_ctx reduces prev into the literal-table range
                let b = model.literals[Model::lit_ctx(prev)].decode(&mut dec);
                out.push(b as u8);
                state = STATE_LIT;
            } else {
                // lint:allow(no-panic-in-decode) — state is one of the STATE_* constants, all within the model arrays
                let (len, dist) = if dec.decode_bit(&mut model.is_rep[state]) == 1 {
                    let len = model.rep_len.decode(&mut dec);
                    state = STATE_REP;
                    (len, rep0)
                } else {
                    let len = model.len.decode(&mut dec);
                    let slot = model.dist_slot.decode(&mut dec);
                    let v = if slot < 4 {
                        slot
                    } else {
                        let nbits = (slot >> 1) - 1;
                        let base = (2 | (slot & 1)) << nbits;
                        base + dec.decode_direct(nbits)
                    };
                    rep0 = v + 1;
                    state = STATE_MATCH;
                    (len, v + 1)
                };
                let len = len as usize;
                if out.len() + len > expected_len {
                    return Err(CodecError::new("lzma-lite: output exceeds declared length"));
                }
                if !lz77::copy_match(out, dist as usize, len) {
                    return Err(CodecError::new("lzma-lite: distance out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deflate;

    fn roundtrip(data: &[u8]) {
        let c = LzmaLite::default();
        let packed = c.compress(data);
        assert_eq!(c.decompress(&packed).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"hello hello hello hello");
        roundtrip(&vec![b'q'; 200_000]);
    }

    #[test]
    fn roundtrip_log_like_text() {
        let mut data = Vec::new();
        for i in 0..3000 {
            data.extend_from_slice(
                format!("T{i} bk.{:02X}.{} read state: SUC#{:04}\n", i % 256, i % 16, i % 10000)
                    .as_bytes(),
            );
        }
        roundtrip(&data);
    }

    #[test]
    fn beats_deflate_on_structured_text() {
        // The central codec property the paper relies on: the LZMA stand-in
        // out-compresses the gzip stand-in on repetitive log text.
        let mut data = Vec::new();
        for i in 0..5000 {
            data.extend_from_slice(
                format!(
                    "2021-01-11 10:{:02}:{:02}.{:03} INFO /root/usr/admin/task{} done code=0\n",
                    i / 3600 % 60,
                    i % 60,
                    i % 1000,
                    i % 97
                )
                .as_bytes(),
            );
        }
        let lzma = LzmaLite::default().compress(&data);
        let defl = Deflate::default().compress(&data);
        assert!(
            lzma.len() < defl.len(),
            "lzma-lite ({}) should beat deflate ({})",
            lzma.len(),
            defl.len()
        );
    }

    #[test]
    fn roundtrip_pseudo_random() {
        let mut state = 0xdead_beefu32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 0xff) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn corrupt_input_is_error_not_panic() {
        let c = LzmaLite::default();
        let mut packed = c.compress(b"abcabcabcabc abcabcabcabc zzzz");
        for i in 0..packed.len() {
            packed[i] ^= 0x55;
            let _ = c.decompress(&packed);
            packed[i] ^= 0x55;
        }
        for cut in 0..packed.len() {
            let _ = c.decompress(&packed[..cut]);
        }
    }

    #[test]
    fn dist_slot_boundaries() {
        assert_eq!(dist_slot(0), 0);
        assert_eq!(dist_slot(1), 1);
        assert_eq!(dist_slot(2), 2);
        assert_eq!(dist_slot(3), 3);
        assert_eq!(dist_slot(4), 4);
        assert_eq!(dist_slot(5), 4);
        assert_eq!(dist_slot(6), 5);
        assert_eq!(dist_slot(7), 5);
        assert_eq!(dist_slot(8), 6);
        // Slot for the largest 4 MiB-window distance stays within the 6-bit tree.
        assert!(dist_slot((1 << 22) - 1) < 64);
    }
}
