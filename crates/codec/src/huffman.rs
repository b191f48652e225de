//! Canonical, length-limited Huffman coding.
//!
//! Code lengths are computed with a standard heap-built Huffman tree and then
//! clamped to [`MAX_CODE_LEN`] with a Kraft-sum repair pass, so the resulting
//! lengths always describe a valid prefix code. Codes are assigned
//! canonically (ordered by `(length, symbol)`), which lets the decoder be
//! reconstructed from the length table alone. The [`Decoder`] resolves
//! nearly every code with one lookup in a table indexed by the next ten
//! stream bits.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum code length in bits. Matches DEFLATE's limit.
pub const MAX_CODE_LEN: u32 = 15;

/// Computes length-limited Huffman code lengths for the given frequencies.
///
/// Symbols with frequency zero get length zero (no code). If only one symbol
/// has a nonzero frequency it is assigned length 1 so the decoder can always
/// make progress.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let mut lens = vec![0u32; n];
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match live.len() {
        0 => return lens,
        1 => {
            lens[live[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Node arena: leaves first, then internal nodes; parent links let us
    // read off depths without building an explicit tree structure.
    let mut parent: Vec<usize> = vec![usize::MAX; live.len()];
    let mut weights: Vec<u64> = live.iter().map(|&i| freqs[i]).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| Reverse((w, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((w1, a)) = heap.pop().expect("heap has >= 2 items");
        let Reverse((w2, b)) = heap.pop().expect("heap has >= 2 items");
        let id = weights.len();
        weights.push(w1.saturating_add(w2));
        parent.push(usize::MAX);
        parent[a] = id;
        parent[b] = id;
        heap.push(Reverse((weights[id], id)));
    }

    // Depth of each leaf = number of parent hops to the root.
    for (leaf, &sym) in live.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = leaf;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lens[sym] = depth;
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Clamps code lengths to `max` and repairs the Kraft sum so the lengths
/// still describe a complete-enough prefix code (sum of 2^-len <= 1).
fn limit_lengths(lens: &mut [u32], max: u32) {
    let unit = 1u64 << max; // Represent 2^-len as unit >> len.
    let mut kraft: u64 = lens
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| unit >> l.min(max))
        .sum();
    for l in lens.iter_mut() {
        if *l > max {
            *l = max;
        }
    }
    // Demote codes (increase length) until the Kraft inequality holds.
    while kraft > unit {
        // Find the longest code shorter than max and lengthen it.
        let victim = (0..lens.len())
            .filter(|&i| lens[i] > 0 && lens[i] < max)
            .max_by_key(|&i| lens[i])
            .expect("kraft overflow implies a code shorter than max exists");
        kraft -= unit >> lens[victim];
        lens[victim] += 1;
        kraft += unit >> lens[victim];
    }
}

/// Encoder table: canonical code bits (LSB-first as written to the stream)
/// and lengths per symbol.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lens: Vec<u32>,
}

impl Encoder {
    /// Builds the canonical encoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let codes = canonical_codes(lens);
        Self {
            codes,
            lens: lens.to_vec(),
        }
    }

    /// Writes the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `symbol` has no code (length 0).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lens[symbol];
        debug_assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol] as u64, len);
    }

    /// Length in bits of the code for `symbol` (0 = no code).
    pub fn len_of(&self, symbol: usize) -> u32 {
        self.lens[symbol]
    }
}

/// Assigns canonical codes from lengths. Codes are bit-reversed so they are
/// written LSB-first and each one is the low bits of its decode-table index.
fn canonical_codes(lens: &[u32]) -> Vec<u32> {
    let max = lens.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                reverse_bits(c, l)
            }
        })
        .collect()
}

#[inline]
fn reverse_bits(value: u32, nbits: u32) -> u32 {
    let mut v = value;
    let mut out = 0u32;
    for _ in 0..nbits {
        out = (out << 1) | (v & 1);
        v >>= 1;
    }
    out
}

/// Width in bits of the decoder's lookup table. Codes up to this long
/// (nearly every symbol of a log block) decode with one lookup.
const TABLE_BITS: u32 = 10;
/// Entries in the lookup table.
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// Decoder built from canonical code lengths.
///
/// Table-driven: the next `TABLE_BITS` (10) stream bits index a table whose
/// entries pack `symbol << 4 | code_len`, so one lookup decodes any code
/// no longer than the table. An entry of 0 means the code is longer (or
/// the bits are no code at all); those symbols finish with the canonical
/// `first_code`/`first_symbol` walk, resumed at bit `TABLE_BITS + 1` from
/// state precomputed at build time.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// The lookup table; its fixed size keeps every masked index in range.
    table: Box<[u32; TABLE_SIZE]>,
    /// count[l] = number of codes of length l.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// First canonical code of length `TABLE_BITS + 1`.
    long_first: u32,
    /// Index in `symbols` of the first code of length `TABLE_BITS + 1`.
    long_index: u32,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    ///
    /// # Errors
    ///
    /// Returns an error if the lengths oversubscribe the code space (which
    /// would make decoding ambiguous).
    pub fn from_lengths(lens: &[u32]) -> Result<Self, CodecError> {
        let max = lens.iter().copied().max().unwrap_or(0);
        if max > MAX_CODE_LEN {
            return Err(CodecError::new("huffman: code length exceeds limit"));
        }
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lens {
            // `l <= MAX_CODE_LEN` was checked above, so the slot exists.
            if l > 0 {
                if let Some(slot) = count.get_mut(l as usize) {
                    *slot += 1;
                }
            }
        }
        // Validate the Kraft sum.
        let unit = 1u64 << MAX_CODE_LEN;
        let kraft: u64 = (1..=MAX_CODE_LEN)
            .map(|l| u64::from(count.get(l as usize).copied().unwrap_or(0)) << (MAX_CODE_LEN - l))
            .sum();
        if kraft > unit {
            return Err(CodecError::new("huffman: oversubscribed code lengths"));
        }
        let mut symbols: Vec<u32> = (0..lens.len() as u32)
            .filter(|&s| lens.get(s as usize).is_some_and(|&l| l > 0))
            .collect();
        symbols.sort_by_key(|&s| (lens.get(s as usize).copied().unwrap_or(0), s));

        let mut table = Box::new([0u32; TABLE_SIZE]);
        for (sym, (&len, &code)) in lens.iter().zip(&canonical_codes(lens)).enumerate() {
            if len == 0 || len > TABLE_BITS {
                continue;
            }
            // Every index whose low `len` bits are this code decodes to it.
            let entry = ((sym as u32) << 4) | len;
            for slot in table.iter_mut().skip(code as usize).step_by(1 << len) {
                *slot = entry;
            }
        }
        // Canonical walk state after TABLE_BITS bits, for `decode_long`.
        let (mut long_first, mut long_index) = (0u32, 0u32);
        for &c in count.iter().take(TABLE_BITS as usize + 1).skip(1) {
            long_index += c;
            long_first = (long_first + c) << 1;
        }
        Ok(Self {
            table,
            count,
            symbols,
            long_first,
            long_index,
        })
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or an invalid code.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        // A peek of MAX_CODE_LEN bits always fits in a u32.
        let bits = r.peek_bits(MAX_CODE_LEN) as u32;
        let prefix = bits as usize % TABLE_SIZE;
        let entry = self.table.get(prefix).copied().unwrap_or(0);
        if entry == 0 {
            return self.decode_long(r, bits);
        }
        r.consume(entry & 0xf)?;
        Ok(entry >> 4)
    }

    /// Resolves a code longer than the table from the peeked `bits`,
    /// continuing the canonical walk at bit `TABLE_BITS + 1`.
    #[cold]
    fn decode_long(&self, r: &mut BitReader<'_>, bits: u32) -> Result<u32, CodecError> {
        // Code value, MSB-first semantics.
        let mut code = reverse_bits(bits % TABLE_SIZE as u32, TABLE_BITS);
        let (mut first, mut index) = (self.long_first, self.long_index);
        for len in TABLE_BITS + 1..=MAX_CODE_LEN {
            code = (code << 1) | ((bits >> (len - 1)) & 1);
            let count = self.count.get(len as usize).copied().unwrap_or(0);
            if code < first + count {
                r.consume(len)?;
                return self
                    .symbols
                    .get((index + (code - first)) as usize)
                    .copied()
                    .ok_or_else(|| CodecError::new("huffman: invalid code"));
            }
            index += count;
            first = (first + count) << 1;
        }
        Err(CodecError::new("huffman: invalid code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn roundtrip(freqs: &[u64], stream: &[usize]) {
        let lens = code_lengths(freqs);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    /// Reference decoder: the plain canonical walk, one bit per step and
    /// at most [`MAX_CODE_LEN`] steps per symbol. The table decoder must
    /// agree with it symbol for symbol.
    struct BitAtATime {
        count: Vec<u32>,
        symbols: Vec<u32>,
    }

    impl BitAtATime {
        fn new(lens: &[u32]) -> Self {
            let mut count = vec![0u32; MAX_CODE_LEN as usize + 1];
            for &l in lens {
                count[l as usize] += 1;
            }
            count[0] = 0;
            let mut symbols: Vec<u32> = (0..lens.len() as u32)
                .filter(|&s| lens[s as usize] > 0)
                .collect();
            symbols.sort_by_key(|&s| (lens[s as usize], s));
            Self { count, symbols }
        }

        fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
            let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
            for len in 1..=MAX_CODE_LEN as usize {
                code |= r.read_bits(1)? as u32;
                let count = self.count[len];
                if code < first + count {
                    return Ok(self.symbols[(index + code - first) as usize]);
                }
                index += count;
                first = (first + count) << 1;
                code <<= 1;
            }
            Err(CodecError::new("huffman: invalid code"))
        }
    }

    /// Decodes `bytes` until the first error, recording each symbol with
    /// the bits left after it; the final `None` marks the error.
    fn decode_until_err(
        mut decode: impl FnMut(&mut BitReader<'_>) -> Result<u32, CodecError>,
        bytes: &[u8],
    ) -> Vec<Option<(u32, usize)>> {
        let mut r = BitReader::new(bytes);
        let mut seen = Vec::new();
        while let Ok(sym) = decode(&mut r) {
            seen.push(Some((sym, r.remaining_bits())));
            // Every symbol consumes at least one bit.
            assert!(
                seen.len() <= bytes.len() * 8,
                "symbols decoded from no bits"
            );
        }
        seen.push(None);
        seen
    }

    /// Random length tables that satisfy the Kraft inequality: Huffman
    /// lengths of skewed frequencies (complete codes, often longer than the
    /// table), raw random lengths (usually incomplete codes), and
    /// single-symbol alphabets of every code length.
    fn random_length_tables(rng: &mut StdRng) -> Vec<Vec<u32>> {
        let mut tables = Vec::new();
        for _ in 0..60 {
            let n = rng.gen_range(2..300usize);
            let freqs: Vec<u64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        0
                    } else {
                        1u64 << rng.gen_range(0..40u32)
                    }
                })
                .collect();
            tables.push(code_lengths(&freqs));
        }
        let unit = 1u64 << MAX_CODE_LEN;
        for _ in 0..60 {
            let n = rng.gen_range(1..300usize);
            let mut kraft = 0u64;
            let lens: Vec<u32> = (0..n)
                .map(|_| {
                    let l = rng.gen_range(0..MAX_CODE_LEN + 1);
                    let weight = if l == 0 { 0 } else { unit >> l };
                    if kraft + weight > unit {
                        return 0;
                    }
                    kraft += weight;
                    l
                })
                .collect();
            tables.push(lens);
        }
        for len in 1..=MAX_CODE_LEN {
            let mut lens = vec![0u32; rng.gen_range(1..20usize)];
            let sym = rng.gen_range(0..lens.len());
            lens[sym] = len;
            tables.push(lens);
        }
        tables
    }

    #[test]
    fn table_decoder_matches_bit_at_a_time_reference() {
        let mut rng = StdRng::seed_from_u64(0x4855_4646);
        let (mut long_codes, mut truncations) = (0usize, 0usize);
        for lens in random_length_tables(&mut rng) {
            let dec = Decoder::from_lengths(&lens).unwrap();
            let reference = BitAtATime::new(&lens);
            let enc = Encoder::from_lengths(&lens);
            let live: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();

            let mut streams: Vec<Vec<u8>> = Vec::new();
            for _ in 0..if live.is_empty() { 0 } else { 4 } {
                let mut w = BitWriter::new();
                let count = rng.gen_range(1..40usize);
                let mut symbols = Vec::with_capacity(count);
                for _ in 0..count {
                    let sym = live[rng.gen_range(0..live.len())];
                    enc.encode(&mut w, sym);
                    symbols.push(sym as u32);
                }
                let bytes = w.finish();
                // The encoded symbols come back in order, and the last one
                // ends inside the final byte, so within the last TABLE_BITS
                // bits of the stream.
                let got = decode_until_err(|r| dec.decode(r), &bytes);
                let (last, left) = got[count - 1].unwrap();
                assert_eq!(last, symbols[count - 1]);
                assert!(
                    left < TABLE_BITS as usize,
                    "{left} bits left after the last symbol"
                );
                for (g, s) in got.iter().zip(&symbols) {
                    assert_eq!(g.map(|(sym, _)| sym), Some(*s));
                }
                streams.push(bytes);
            }
            // Arbitrary bytes: invalid codes when the code is incomplete.
            let mut noise = vec![0u8; rng.gen_range(1..24usize)];
            rng.fill_bytes(&mut noise);
            streams.push(noise);

            for bytes in &streams {
                for cut in 0..=bytes.len() {
                    let part = &bytes[..cut];
                    let want = decode_until_err(|r| reference.decode(r), part);
                    let got = decode_until_err(|r| dec.decode(r), part);
                    assert_eq!(got, want, "lens {lens:?}, stream {part:02x?}");
                    long_codes += got
                        .iter()
                        .flatten()
                        .filter(|(sym, _)| lens[*sym as usize] > TABLE_BITS)
                        .count();
                    truncations += 1;
                }
            }
        }
        assert!(
            long_codes > 100,
            "only {long_codes} codes longer than the table"
        );
        assert!(truncations > 1000, "only {truncations} truncated streams");
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[0, 5, 0], &[1, 1, 1, 1]);
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[3, 7], &[0, 1, 1, 0, 1]);
    }

    #[test]
    fn skewed_distribution() {
        let freqs = [1000, 500, 250, 125, 60, 30, 15, 7, 3, 1];
        let stream: Vec<usize> = (0..freqs.len()).cycle().take(200).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn lengths_are_limited() {
        // A Fibonacci-like distribution forces deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // Must still be a valid prefix code.
        assert!(Decoder::from_lengths(&lens).is_ok());
        let stream: Vec<usize> = (0..40).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn kraft_validation_rejects_bad_lengths() {
        // Three codes of length 1 oversubscribe the space.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn optimal_for_uniform() {
        let lens = code_lengths(&[1, 1, 1, 1]);
        assert!(lens.iter().all(|&l| l == 2));
    }

    #[test]
    fn empty_and_zero_freqs() {
        assert!(code_lengths(&[]).is_empty());
        assert_eq!(code_lengths(&[0, 0, 0]), vec![0, 0, 0]);
    }
}
