//! LZ77 match finding with hash chains and one-step lazy matching.
//!
//! Produces a token stream of literals and `(length, distance)` matches that
//! the [`crate::deflate`] and [`crate::lzma_lite`] codecs entropy-code, and
//! holds [`copy_match`], the match-copy kernel every LZ decoder shares.

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in bytes (>= MIN_MATCH of the parameterization).
        len: u32,
        /// Distance in bytes (1 = previous byte).
        dist: u32,
    },
}

/// Tuning parameters for the match finder.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Params {
    /// Sliding-window size in bytes; distances never exceed this.
    pub window: u32,
    /// Minimum emitted match length.
    pub min_match: u32,
    /// Maximum emitted match length.
    pub max_match: u32,
    /// Maximum hash-chain links followed per position.
    pub max_chain: u32,
    /// Enables one-step lazy matching (better ratio, slower).
    pub lazy: bool,
}

impl Lz77Params {
    /// DEFLATE-like parameters: 32 KiB window, matches 3..=258.
    pub const DEFLATE: Self = Self {
        window: 32 * 1024,
        min_match: 3,
        max_match: 258,
        max_chain: 64,
        lazy: true,
    };

    /// LZMA-like parameters: 4 MiB window, matches 2..=273, deep chains.
    pub const LZMA: Self = Self {
        window: 4 * 1024 * 1024,
        min_match: 2,
        max_match: 273,
        max_chain: 384,
        lazy: true,
    };

    /// Fast parameters: short chains, no lazy matching.
    pub const FAST: Self = Self {
        window: 64 * 1024,
        min_match: 4,
        max_match: 0xffff,
        max_chain: 8,
        lazy: false,
    };
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    // Multiplicative hash over 4 bytes; callers guarantee pos + 4 <= len.
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain match finder over a single buffer.
pub struct MatchFinder<'a> {
    data: &'a [u8],
    params: Lz77Params,
    /// head[h] = most recent position with hash h (+1; 0 = none).
    head: Vec<u32>,
    /// prev[pos & slot_mask] = previous position with the same hash (+1; 0 = none).
    prev: Vec<u32>,
    slot_mask: usize,
}

impl<'a> MatchFinder<'a> {
    /// Creates a match finder over `data` with the given parameters.
    pub fn new(data: &'a [u8], params: Lz77Params) -> Self {
        // Chain slots for the window, or for the whole input when that is
        // shorter: positions stay below `data.len()`, so `pos & slot_mask` picks
        // the same slot either way and the tokens do not change.
        let window = params.window.next_power_of_two() as usize;
        let slots = window.min(data.len()).next_power_of_two();
        Self {
            data,
            params,
            head: vec![0; HASH_SIZE],
            prev: vec![0; slots],
            slot_mask: slots - 1,
        }
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + 4 > self.data.len() {
            return;
        }
        let h = hash4(self.data, pos);
        self.prev[pos & self.slot_mask] = self.head[h];
        self.head[h] = pos as u32 + 1;
    }

    /// Finds the best match at `pos`, or `None`.
    #[inline]
    fn best_match(&self, pos: usize) -> Option<(u32, u32)> {
        let data = self.data;
        let n = data.len();
        if pos + 4 > n {
            return None;
        }
        let max_len = (self.params.max_match as usize).min(n - pos);
        if max_len < self.params.min_match as usize {
            return None;
        }
        let mut best_len = self.params.min_match as usize - 1;
        let mut best_dist = 0u32;
        let mut cand = self.head[hash4(data, pos)];
        let mut chain = self.params.max_chain;
        while cand != 0 && chain > 0 {
            let cpos = (cand - 1) as usize;
            let dist = pos - cpos;
            if dist > self.params.window as usize || dist == 0 {
                break;
            }
            // Quick reject: check the byte just past the current best.
            if best_len < max_len && data[cpos + best_len] == data[pos + best_len] {
                let len = common_prefix(data, cpos, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist as u32;
                    if len >= max_len {
                        break;
                    }
                }
            }
            cand = self.prev[cpos & self.slot_mask];
            chain -= 1;
        }
        if best_dist != 0 {
            Some((best_len as u32, best_dist))
        } else {
            None
        }
    }

    /// Tokenizes the whole buffer.
    pub fn tokenize(mut self) -> Vec<Token> {
        let data = self.data;
        let n = data.len();
        let mut tokens = Vec::with_capacity(n / 4 + 16);
        let mut pos = 0usize;
        while pos < n {
            let found = self.best_match(pos);
            match found {
                Some((len, dist)) => {
                    let mut take = (len, dist);
                    if self.params.lazy && pos + 1 < n {
                        // Peek one position ahead; if a strictly longer match
                        // starts there, emit a literal instead.
                        self.insert(pos);
                        if let Some((len2, dist2)) = self.best_match(pos + 1) {
                            if len2 > len {
                                tokens.push(Token::Literal(data[pos]));
                                pos += 1;
                                take = (len2, dist2);
                            }
                        }
                        tokens.push(Token::Match {
                            len: take.0,
                            dist: take.1,
                        });
                        // Insert positions covered by the match (cap the work
                        // for very long matches).
                        let end = pos + take.0 as usize;
                        let insert_end = end.min(pos + 64);
                        // `pos` may already be inserted; insert is idempotent
                        // enough for a heuristic finder.
                        for p in pos + 1..insert_end {
                            self.insert(p);
                        }
                        pos = end;
                    } else {
                        tokens.push(Token::Match { len, dist });
                        let end = pos + len as usize;
                        let insert_end = end.min(pos + 64);
                        for p in pos..insert_end {
                            self.insert(p);
                        }
                        pos = end;
                    }
                }
                None => {
                    self.insert(pos);
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
        }
        tokens
    }
}

/// Longest common prefix of the windows starting at `a` and `b`, capped at
/// `max`. Word-parallel via the shared SWAR kernel: the two windows are
/// plain overlapping-read slices, so comparing them eight bytes at a time
/// is safe even for self-referential matches (`b - a < 8`).
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let wa = data.get(a..data.len().min(a + max)).unwrap_or_default();
    let wb = data.get(b..data.len().min(b + max)).unwrap_or_default();
    strsearch::swar::common_prefix(wa, wb)
}

/// Appends an LZ77 match to `out`: `len` bytes starting `dist` bytes
/// behind its end. This is the one copy kernel every LZ decoder shares.
///
/// A match that does not overlap its own output (`dist >= len`) is a
/// single copy: [`append_prefix`] when it is at most 8 bytes, else one
/// `extend_from_within`. An overlapping one (`dist < len`) repeats the
/// last `dist` bytes; copying the whole run written so far doubles the
/// period each step, so a run of `len` bytes takes about
/// `log2(len / dist)` copies.
///
/// Returns `false`, appending nothing, if `dist` is zero or reaches
/// before the start of `out`. Callers bound `len` by the declared output
/// length before calling.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) -> bool {
    let Some(start) = out.len().checked_sub(dist) else {
        return false;
    };
    if dist == 0 {
        return false;
    }
    if len <= dist {
        // Eight bytes are readable at `start` exactly when `dist >= 8`.
        match out.get(start..).and_then(|s| s.first_chunk::<8>()) {
            Some(&word) if len <= 8 => append_prefix(out, &word, len),
            _ => out.extend_from_within(start..start + len),
        }
        return true;
    }
    out.reserve(len);
    let mut left = len;
    while left > 0 {
        // `out[start..]` is periodic with period `dist` and its length is a
        // multiple of `dist`, so appending a prefix of it continues the run.
        let chunk = (out.len() - start).min(left);
        out.extend_from_within(start..start + chunk);
        left -= chunk;
    }
    true
}

/// Appends the first `len` (at most 8) bytes of `word` to `out`.
///
/// With 8 bytes of spare capacity this is one fixed-size 8-byte store and
/// a truncate instead of a `memcpy` call. LZ streams of log columns are
/// mostly literal runs and matches of 1–8 bytes, where the call would
/// cost more than the copy.
#[inline]
pub(crate) fn append_prefix(out: &mut Vec<u8>, word: &[u8; 8], len: usize) {
    debug_assert!(len <= 8);
    let end = out.len() + len;
    if out.capacity() - out.len() >= 8 {
        out.extend_from_slice(word);
        out.truncate(end);
    } else {
        out.extend_from_slice(word.get(..len).unwrap_or(word));
    }
}

/// Expands a token stream back into bytes.
///
/// # Errors
///
/// Returns the number of bytes produced so far on an invalid distance.
pub fn expand_into(tokens: &[Token], out: &mut Vec<u8>) -> Result<(), usize> {
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                if !copy_match(out, dist as usize, len as usize) {
                    return Err(out.len());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], params: Lz77Params) {
        let tokens = MatchFinder::new(data, params).tokenize();
        let mut out = Vec::new();
        expand_into(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox again.";
        roundtrip(data, Lz77Params::DEFLATE);
        roundtrip(data, Lz77Params::LZMA);
        roundtrip(data, Lz77Params::FAST);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"aaaa"] {
            roundtrip(data, Lz77Params::DEFLATE);
        }
    }

    #[test]
    fn finds_repeats() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = MatchFinder::new(data, Lz77Params::DEFLATE).tokenize();
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match token: {tokens:?}"
        );
        let literals = tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(literals <= 6, "too many literals: {literals}");
    }

    #[test]
    fn overlapping_match_run() {
        // A run of a single byte compresses as an overlapping dist=1 match.
        let data = vec![b'x'; 1000];
        roundtrip(&data, Lz77Params::DEFLATE);
        let tokens = MatchFinder::new(&data, Lz77Params::DEFLATE).tokenize();
        assert!(tokens.len() < 20);
    }

    #[test]
    fn copy_match_agrees_with_byte_at_a_time_copy() {
        let seed = b"abcdefghijkl";
        // No spare capacity, and plenty: both paths of `append_prefix`.
        for spare in [0, 64] {
            for dist in 1..=seed.len() {
                for len in 0..40 {
                    let mut want = seed.to_vec();
                    let start = want.len() - dist;
                    for i in 0..len {
                        want.push(want[start + i]);
                    }
                    let mut got = Vec::with_capacity(seed.len() + spare);
                    got.extend_from_slice(seed);
                    assert!(copy_match(&mut got, dist, len));
                    assert_eq!(got, want, "spare {spare} dist {dist} len {len}");
                }
            }
        }
    }

    #[test]
    fn copy_match_rejects_bad_distance_without_writing() {
        let mut out = b"abc".to_vec();
        assert!(!copy_match(&mut out, 0, 5));
        assert!(!copy_match(&mut out, 4, 5));
        assert_eq!(out, b"abc");
    }

    #[test]
    fn expand_rejects_bad_distance() {
        let tokens = vec![Token::Match { len: 3, dist: 5 }];
        let mut out = Vec::new();
        assert!(expand_into(&tokens, &mut out).is_err());
    }

    #[test]
    fn roundtrip_pseudo_random() {
        // Deterministic xorshift noise: worst case for matching, must still
        // round-trip as (mostly) literals.
        let mut state = 0x1234_5678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 0xff) as u8
            })
            .collect();
        roundtrip(&data, Lz77Params::DEFLATE);
        roundtrip(&data, Lz77Params::LZMA);
    }
}
