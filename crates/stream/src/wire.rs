//! The primitives of the v3 snapshot payload: LEB128 varints, zigzag
//! money, fixed little-endian words, tier bytes and varint columns.
//!
//! Writers append to a [`Sink`]: a plain `Vec<u8>`, or a [`DigestSink`]
//! that folds each byte into FNV-1a as it lands, so encoding a snapshot
//! also digests it. [`Reader`] is their total inverse: every read is
//! bounds-checked, a length is checked against the bytes that remain
//! before anything is allocated for it, and an overlong or overflowing
//! varint is an error, so each value has exactly one encoding. Failures
//! are [`SnapshotError::Parse`] naming the field being read. The reader
//! folds every byte it consumes into its own FNV-1a state, and
//! [`Reader::digest`] finishes it over the bytes left, so decoding a
//! payload also digests it, whatever the decode returned.
//!
//! The field order built from these primitives is documented in
//! [`crate::checkpoint`].

use crate::checkpoint::{SnapshotError, FNV_OFFSET, FNV_PRIME};
use pricing::{Money, Tier};

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// One FNV-1a step: `hash` continued over the byte `b`.
fn fnv_step(hash: u64, b: u8) -> u64 {
    (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a continued from `hash` over `bytes`.
pub(crate) fn fnv_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv_step(h, b))
}

/// Where the writers append.
pub(crate) trait Sink {
    /// Appends one byte.
    fn put_byte(&mut self, b: u8);
    /// Appends a run of bytes.
    fn put_bytes(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put_byte(&mut self, b: u8) {
        self.push(b);
    }

    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that appends to a buffer and digests, with FNV-1a, exactly the
/// bytes it appends: any bytes already in the buffer (a reserved header)
/// are not part of the digest.
pub(crate) struct DigestSink<'a> {
    out: &'a mut Vec<u8>,
    hash: u64,
}

impl<'a> DigestSink<'a> {
    /// A sink appending to `out`, with nothing digested yet.
    pub(crate) fn new(out: &'a mut Vec<u8>) -> DigestSink<'a> {
        DigestSink { out, hash: FNV_OFFSET }
    }

    /// The FNV-1a digest of every byte appended so far.
    pub(crate) fn digest(&self) -> u64 {
        self.hash
    }
}

impl Sink for DigestSink<'_> {
    fn put_byte(&mut self, b: u8) {
        self.hash = fnv_step(self.hash, b);
        self.out.push(b);
    }

    fn put_bytes(&mut self, bytes: &[u8]) {
        self.hash = fnv_fold(self.hash, bytes);
        self.out.extend_from_slice(bytes);
    }
}

/// Appends `value` as an unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut impl Sink, mut value: u64) {
    while value >= 0x80 {
        out.put_byte((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    out.put_byte(value as u8);
}

/// Appends a count or length as a varint.
pub(crate) fn put_len(out: &mut impl Sink, n: usize) {
    put_varint(out, n as u64);
}

/// Appends `value` as eight little-endian bytes.
pub(crate) fn put_u64_le(out: &mut impl Sink, value: u64) {
    out.put_bytes(&value.to_le_bytes());
}

/// Appends an amount of money as a zigzag varint of its micro-dollars.
pub(crate) fn put_money(out: &mut impl Sink, money: Money) {
    let micros = money.micros();
    put_varint(out, ((micros << 1) ^ (micros >> 63)) as u64);
}

/// Appends a tier as its one-byte index.
pub(crate) fn put_tier(out: &mut impl Sink, tier: Tier) {
    out.put_byte(tier as u8);
}

/// Appends a length-prefixed column of varints.
pub(crate) fn put_column(out: &mut impl Sink, values: &[u64]) {
    put_len(out, values.len());
    for &v in values {
        put_varint(out, v);
    }
}

/// A cursor over a v3 payload that never reads past its end, digesting
/// what it consumes.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    /// FNV-1a over exactly the bytes consumed so far, the payload up to
    /// `rest`, also after a read that stopped on an error.
    hash: u64,
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
        Reader { rest: payload, hash: FNV_OFFSET }
    }

    /// The FNV-1a digest of the whole payload: the running digest of the
    /// bytes consumed, finished over the bytes left. Equal to
    /// [`crate::fnv1a64`] of the payload after any sequence of reads.
    pub(crate) fn digest(self) -> u64 {
        fnv_fold(self.hash, self.rest)
    }

    /// Takes the next `n` bytes.
    pub(crate) fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let (head, tail) =
            self.rest.split_at_checked(n).ok_or_else(|| malformed_field(what, "truncated"))?;
        self.hash = fnv_fold(self.hash, head);
        self.rest = tail;
        Ok(head)
    }

    /// Takes one byte.
    pub(crate) fn take_byte(&mut self, what: &str) -> Result<u8, SnapshotError> {
        let (&b, tail) =
            self.rest.split_first().ok_or_else(|| malformed_field(what, "truncated"))?;
        self.hash = fnv_step(self.hash, b);
        self.rest = tail;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint, rejecting overlong encodings (a
    /// final zero byte after the first) and values beyond `u64`.
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, SnapshotError> {
        if let Some((&b, tail)) = self.rest.split_first() {
            if b < 0x80 {
                self.hash = fnv_step(self.hash, b);
                self.rest = tail;
                return Ok(u64::from(b));
            }
        }
        let (mut value, mut hash) = (0u64, self.hash);
        for (i, &b) in self.rest.iter().enumerate().take(MAX_VARINT_BYTES) {
            if i == MAX_VARINT_BYTES - 1 && b > 1 {
                return Err(malformed_field(what, "varint overflows u64"));
            }
            value |= u64::from(b & 0x7f) << (7 * i);
            hash = fnv_step(hash, b);
            if b < 0x80 {
                if b == 0 {
                    return Err(malformed_field(what, "overlong varint"));
                }
                self.hash = hash;
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

    /// Reads a column written by [`put_column`]. Runs of one-byte varints,
    /// most of a sketch's counters, are consumed in one tight loop; any
    /// longer varint goes through [`Reader::varint`].
    pub(crate) fn varint_column(&mut self, what: &str) -> Result<Vec<u64>, SnapshotError> {
        let n = self.seq_len(what, 1)?;
        let mut values = Vec::with_capacity(n);
        while values.len() < n {
            let (mut hash, mut run) = (self.hash, 0);
            for &b in self.rest.iter().take(n - values.len()) {
                if b >= 0x80 {
                    break;
                }
                hash = fnv_step(hash, b);
                values.push(u64::from(b));
                run += 1;
            }
            self.hash = hash;
            self.rest = self.rest.get(run..).unwrap_or_default();
            if values.len() < n {
                values.push(self.varint(what)?);
            }
        }
        Ok(values)
    }

    /// Ends decoding: any byte left over is an error.
    pub(crate) fn expect_end(&self) -> Result<(), SnapshotError> {
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
    use crate::checkpoint::fnv1a64;
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

    /// One reader call picked by `op` (`n` sizes the calls that take a
    /// size); whether it succeeded.
    fn read_one(r: &mut Reader<'_>, op: u8, n: usize) -> bool {
        match op {
            0 => r.varint("v").is_ok(),
            1 => r.take_byte("b").is_ok(),
            2 => r.take_bytes(n, "s").is_ok(),
            3 => r.word_le("w").is_ok(),
            4 => r.varint_column("c").is_ok(),
            5 => r.seq_len("l", n).is_ok(),
            6 => r.zigzag_money("m").is_ok(),
            7 => r.tier_byte("t").is_ok(),
            8 => r.varint_u32("u").is_ok(),
            _ => r.presence("p").is_ok(),
        }
    }

    /// Every writer, once per value, into any sink.
    fn put_each(out: &mut impl Sink, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            match i % 5 {
                0 => put_varint(out, v),
                1 => put_u64_le(out, v),
                2 => put_money(out, Money::from_micros(v as i64)),
                3 => put_tier(out, Tier::from_index(v as usize % pricing::TIER_COUNT).unwrap()),
                _ => put_column(out, &values[..i]),
            }
        }
    }

    #[test]
    fn digest_survives_errors_mid_varint_and_mid_column() {
        for (what, payload) in [
            ("column truncated inside its second varint", &[3, 5, 0x85, 0x80][..]),
            ("overlong varint mid-column", &[3, 5, 0x80, 0x00, 7]),
            ("column of three one-byte varints cut after two", &[3, 5, 6, 0x80]),
        ] {
            let mut r = Reader::new(payload);
            assert!(r.varint_column("c").is_err(), "{what}");
            assert!(r.rest.len() < payload.len() - 1, "{what}: stopped inside the column");
            assert_eq!(r.digest(), fnv1a64(payload), "{what}");
        }
        for (what, payload) in [
            ("truncated varint", &[0xff, 0xff][..]),
            ("varint overflowing u64", &[0xff; 11]),
            ("overlong varint", &[0x81, 0x00]),
        ] {
            let mut r = Reader::new(payload);
            assert!(r.varint("v").is_err(), "{what}");
            assert_eq!(r.digest(), fnv1a64(payload), "{what}");
        }
    }

    proptest! {
        /// After any sequence of reads, up to and including one that fails,
        /// the reader's running digest covers exactly the bytes it consumed,
        /// and the finished digest is the payload's.
        #[test]
        fn reader_digest_is_the_payload_digest_after_any_reads(
            raw in proptest::collection::vec((any::<u8>(), 0u8..4), 0..96),
            ops in proptest::collection::vec((0u8..10, 0usize..12), 0..24),
        ) {
            // Small bytes, continuation bytes, zeros and raw bytes, so
            // columns fit, varints run long, and encodings go overlong.
            let payload: Vec<u8> = raw
                .iter()
                .map(|&(b, kind)| match kind {
                    0 => b % 8,
                    1 => b | 0x80,
                    2 => 0,
                    _ => b,
                })
                .collect();
            let mut r = Reader::new(&payload);
            for &(op, n) in &ops {
                let ok = read_one(&mut r, op, n);
                let consumed = payload.len() - r.rest.len();
                prop_assert_eq!(r.hash, fnv1a64(&payload[..consumed]));
                if !ok {
                    break;
                }
            }
            prop_assert_eq!(r.digest(), fnv1a64(&payload));
        }

        /// A digest sink appends the bytes a plain buffer gets, after
        /// whatever the buffer held, and digests exactly those it appended.
        #[test]
        fn digest_sink_digests_exactly_what_it_appends(
            draws in proptest::collection::vec((any::<u64>(), 0u32..64), 0..40),
            prefix in 0usize..64,
        ) {
            let values: Vec<u64> = draws.iter().map(|&(v, shift)| v >> shift).collect();
            let mut plain = Vec::new();
            put_each(&mut plain, &values);
            let mut out = vec![0xaa; prefix];
            let mut sink = DigestSink::new(&mut out);
            put_each(&mut sink, &values);
            let digest = sink.digest();
            prop_assert_eq!(&out[prefix..], &plain[..]);
            prop_assert_eq!(digest, fnv1a64(&plain));
        }

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
