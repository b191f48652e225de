//! LSB-first bit-level I/O, in the style used by DEFLATE.
//!
//! Bits are packed into bytes starting at the least-significant bit; multi-bit
//! values are written least-significant-bit first, so
//! `write_bits(0b101, 3)` followed by `write_bits(0b11, 2)` produces the byte
//! `0b000_11_101`.

use crate::CodecError;

/// Accumulates bits into a byte buffer, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits accumulated but not yet flushed into `bytes` (low bits valid).
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `value` (LSB first). `count <= 57`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count > 57` or `value` has bits set above
    /// `count`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 57, "bit run too long: {count}");
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {value:#x} does not fit in {count} bits"
        );
        self.acc |= value << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of complete bytes written so far (excluding pending bits).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc & 0xff) as u8);
        }
        self.bytes
    }
}

/// Reads bits from a byte buffer, LSB-first (mirror of [`BitWriter`]).
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte index to refill from.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up to more than 56 bits, or to every remaining
    /// bit near the end of the input. Called only with `nbits <= 56`.
    ///
    /// Away from the end this is one unaligned 8-byte load, plus one byte
    /// when that leaves exactly 56 bits buffered. The load may leave a few
    /// bits above `nbits`; they are genuine stream bits from a byte not yet
    /// counted, so OR-ing that byte in again later is harmless. Once the
    /// input is used up, every bit above `nbits` is zero.
    #[inline]
    fn refill(&mut self) {
        let word = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<8>());
        if let Some(word) = word {
            self.acc |= u64::from_le_bytes(*word) << self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        }
        while self.nbits <= 56 {
            let Some(&b) = self.bytes.get(self.pos) else { break };
            self.acc |= u64::from(b) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Returns the next `count` bits (LSB-first) without consuming them.
    /// Bits past the end of the input read as zero; [`Self::consume`]
    /// rejects them.
    #[inline]
    pub(crate) fn peek_bits(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 56);
        if self.nbits < count {
            self.refill();
        }
        self.acc & ((1u64 << count) - 1)
    }

    /// Consumes `count` bits, which a preceding [`Self::peek_bits`] of at
    /// least `count` bits has loaded.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `count` bits remain.
    #[inline]
    pub(crate) fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        if count > self.nbits {
            return Err(CodecError::new("bit stream truncated"));
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }

    /// Reads `count` bits (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `count` bits remain.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CodecError> {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::new("bit stream truncated"));
            }
        }
        let mask = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let value = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Ok(value)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Number of bits still available (including buffered padding bits).
    pub fn remaining_bits(&self) -> usize {
        self.nbits as usize + (self.bytes.len() - self.pos) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b0, 1),
            (0b101, 3),
            (0xdead, 16),
            (0x1f_ffff, 21),
            (0, 7),
            (1, 57),
            (0x123456789, 36),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // grouped as padding|write2|write1
    fn lsb_first_layout_matches_deflate_convention() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11, 2);
        let buf = w.finish();
        assert_eq!(buf, vec![0b000_11_101]);
    }

    #[test]
    fn truncation_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0xff, 8);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        r.read_bits(8).unwrap();
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn peek_reads_zeros_past_the_end_and_consume_rejects_them() {
        let mut r = BitReader::new(&[0b1010_1100]);
        assert_eq!(r.peek_bits(12), 0b1010_1100);
        r.consume(3).unwrap();
        assert_eq!(r.peek_bits(12), 0b1_0101);
        assert!(r.consume(6).is_err());
        r.consume(5).unwrap();
        assert_eq!(r.peek_bits(12), 0);
        assert!(r.consume(1).is_err());
    }

    #[test]
    fn peek_and_read_agree_across_refills() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut a = BitReader::new(&bytes);
        let mut b = BitReader::new(&bytes);
        for width in (1..=15).cycle().take(60) {
            let peeked = a.peek_bits(width);
            a.consume(width).unwrap();
            assert_eq!(peeked, b.read_bits(width).unwrap(), "width {width}");
            assert_eq!(a.remaining_bits(), b.remaining_bits());
        }
    }

    #[test]
    fn empty_reader_has_no_bits() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.remaining_bits(), 0);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn many_single_bits() {
        let mut w = BitWriter::new();
        let bits: Vec<bool> = (0..1000).map(|i| (i * 7) % 3 == 0).collect();
        for &b in &bits {
            w.write_bit(b);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &b in &bits {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }
}
