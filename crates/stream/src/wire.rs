//! The primitives of the v3 snapshot payload: LEB128 varints, zigzag
//! money, fixed little-endian words, tier bytes and varint columns.
//!
//! Writers append to a `Vec<u8>`. [`Reader`] is their total inverse: every
//! read is bounds-checked, a length is checked against the bytes that
//! remain before anything is allocated for it, and an overlong or
//! overflowing varint is an error, so each value has exactly one encoding.
//! Failures are [`SnapshotError::Parse`] naming the field being read.
//!
//! The field order built from these primitives is documented in
//! [`crate::checkpoint`].

use crate::checkpoint::SnapshotError;
use pricing::{Money, Tier};

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// Appends `value` as an unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends a count or length as a varint.
pub(crate) fn put_len(out: &mut Vec<u8>, n: usize) {
    put_varint(out, n as u64);
}

/// Appends `value` as eight little-endian bytes.
pub(crate) fn put_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an amount of money as a zigzag varint of its micro-dollars.
pub(crate) fn put_money(out: &mut Vec<u8>, money: Money) {
    let micros = money.micros();
    put_varint(out, ((micros << 1) ^ (micros >> 63)) as u64);
}

/// Appends a tier as its one-byte index.
pub(crate) fn put_tier(out: &mut Vec<u8>, tier: Tier) {
    out.push(tier as u8);
}

/// Appends a length-prefixed column of varints.
pub(crate) fn put_column(out: &mut Vec<u8>, values: &[u64]) {
    put_len(out, values.len());
    for &v in values {
        put_varint(out, v);
    }
}

/// A cursor over a v3 payload that never reads past its end.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

/// A payload decoding error naming the field being read.
fn malformed_field(what: &str, why: &str) -> SnapshotError {
    SnapshotError::Parse(format!("v3 payload: {what}: {why}"))
}

/// A decoded state that serving must not resume from.
pub(crate) fn invalid_state(why: &str) -> SnapshotError {
    SnapshotError::Invalid(why.to_owned())
}

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub(crate) fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader { rest: payload }
    }

    /// Takes the next `n` bytes.
    pub(crate) fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let (head, tail) =
            self.rest.split_at_checked(n).ok_or_else(|| malformed_field(what, "truncated"))?;
        self.rest = tail;
        Ok(head)
    }

    /// Takes one byte.
    pub(crate) fn take_byte(&mut self, what: &str) -> Result<u8, SnapshotError> {
        let (&b, tail) =
            self.rest.split_first().ok_or_else(|| malformed_field(what, "truncated"))?;
        self.rest = tail;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint, rejecting overlong encodings (a
    /// final zero byte after the first) and values beyond `u64`.
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, SnapshotError> {
        if let Some((&b, tail)) = self.rest.split_first() {
            if b < 0x80 {
                self.rest = tail;
                return Ok(u64::from(b));
            }
        }
        let mut value = 0u64;
        for (i, &b) in self.rest.iter().enumerate().take(MAX_VARINT_BYTES) {
            if i == MAX_VARINT_BYTES - 1 && b > 1 {
                return Err(malformed_field(what, "varint overflows u64"));
            }
            value |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if b == 0 {
                    return Err(malformed_field(what, "overlong varint"));
                }
                self.rest = self.rest.get(i + 1..).unwrap_or_default();
                return Ok(value);
            }
        }
        Err(malformed_field(what, "truncated varint"))
    }

    /// Reads a varint that must fit a `usize`.
    pub(crate) fn varint_usize(&mut self, what: &str) -> Result<usize, SnapshotError> {
        usize::try_from(self.varint(what)?).map_err(|_| malformed_field(what, "exceeds usize"))
    }

    /// Reads a varint that must fit a `u32` (a file id).
    pub(crate) fn varint_u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        u32::try_from(self.varint(what)?).map_err(|_| malformed_field(what, "exceeds u32"))
    }

    /// Reads the length of a sequence whose elements take at least
    /// `min_bytes` each, rejecting any length the remaining bytes cannot
    /// hold — so no caller allocates for elements that are not there.
    pub(crate) fn seq_len(&mut self, what: &str, min_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.varint_usize(what)?;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.rest.len() => Ok(n),
            _ => Err(malformed_field(what, "length exceeds the remaining bytes")),
        }
    }

    /// Reads eight little-endian bytes.
    pub(crate) fn word_le(&mut self, what: &str) -> Result<u64, SnapshotError> {
        let word: [u8; 8] =
            self.take_bytes(8, what)?.try_into().map_err(|_| malformed_field(what, "truncated"))?;
        Ok(u64::from_le_bytes(word))
    }

    /// Reads a zigzag varint as money.
    pub(crate) fn zigzag_money(&mut self, what: &str) -> Result<Money, SnapshotError> {
        let z = self.varint(what)?;
        Ok(Money::from_micros((z >> 1) as i64 ^ -((z & 1) as i64)))
    }

    /// Reads a tier byte, rejecting indices at or past `TIER_COUNT`.
    pub(crate) fn tier_byte(&mut self, what: &str) -> Result<Tier, SnapshotError> {
        let b = self.take_byte(what)?;
        Tier::from_index(usize::from(b))
            .ok_or_else(|| malformed_field(what, "tier byte out of range"))
    }

    /// Reads a presence byte: exactly 0 or 1.
    pub(crate) fn presence(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.take_byte(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(malformed_field(what, "presence byte is neither 0 nor 1")),
        }
    }

    /// Reads a column written by [`put_column`].
    pub(crate) fn varint_column(&mut self, what: &str) -> Result<Vec<u64>, SnapshotError> {
        let n = self.seq_len(what, 1)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.varint(what)?);
        }
        Ok(values)
    }

    /// Ends decoding: any byte left over is an error.
    pub(crate) fn expect_end(self) -> Result<(), SnapshotError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(malformed_field("end", "trailing bytes after the last field"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_edges_round_trip_and_have_one_encoding() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint("v").unwrap(), v);
            r.expect_end().unwrap();
        }
        // 0 padded to two bytes, and 1 padded likewise, are overlong.
        for overlong in [&[0x80, 0x00][..], &[0x81, 0x00]] {
            assert!(matches!(Reader::new(overlong).varint("v"), Err(SnapshotError::Parse(_))));
        }
        // Eleven bytes, or a tenth byte above 1, overflow u64.
        let mut too_long = vec![0xff; 9];
        too_long.push(0x02);
        assert!(Reader::new(&too_long).varint("v").is_err());
        assert!(Reader::new(&[0xff; 11]).varint("v").is_err());
        assert!(Reader::new(&[0x80]).varint("v").is_err(), "truncated");
    }

    #[test]
    fn lengths_beyond_the_remaining_bytes_are_rejected_before_allocating() {
        let mut out = Vec::new();
        put_len(&mut out, 1 << 40);
        assert!(Reader::new(&out).varint_column("c").is_err());
        let mut out = Vec::new();
        put_len(&mut out, 3);
        out.extend_from_slice(&[1, 2]);
        assert!(Reader::new(&out).seq_len("c", 1).is_err());
        assert!(Reader::new(&[3, 1, 2, 3]).seq_len("c", 2).is_err(), "3 elements of 2 bytes");
    }

    #[test]
    fn tiers_and_flags_reject_out_of_range_bytes() {
        assert_eq!(Reader::new(&[2]).tier_byte("t").unwrap(), Tier::Archive);
        assert!(Reader::new(&[3]).tier_byte("t").is_err());
        assert!(Reader::new(&[2]).presence("f").is_err());
        assert!(!Reader::new(&[0]).presence("f").unwrap());
        assert!(Reader::new(&[0, 0]).expect_end().is_err(), "trailing bytes");
    }

    proptest! {
        #[test]
        fn money_zigzag_round_trips(micros in any::<i64>()) {
            let mut out = Vec::new();
            put_money(&mut out, Money::from_micros(micros));
            let mut r = Reader::new(&out);
            prop_assert_eq!(r.zigzag_money("m").unwrap(), Money::from_micros(micros));
            prop_assert!(r.expect_end().is_ok());
        }
    }
}
