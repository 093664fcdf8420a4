//! The canonical byte codec for [`GProbeEvent`]s: journal frame payloads
//! and JSONL lines.
//!
//! [`encode_event`] writes exactly the bytes `serde_json::to_string`
//! produces for an event, without building the intermediate `Value` tree:
//!
//! * one externally-tagged object, `{"Kind":{"at":N,...}}`, fields in
//!   declaration order, no whitespace;
//! * integers (ticks, ids, counts, demand components) as plain unsigned
//!   decimals without sign or leading zeros;
//! * a demand as a bare integer at `D = 1` and as `[a,b,..]` otherwise;
//! * `Violation.message` as a JSON string whose only escapes are `\"`,
//!   `\\`, `\n`, `\r`, `\t` and lowercase `\u00xx` for the other control
//!   characters below U+0020; every other character is written raw;
//! * a [`DropReason`] as its variant name in quotes.
//!
//! [`decode_event`] is strict: it accepts only that canonical form, so
//! `decode_event(b) == Ok(e)` implies `encode_event(e) == b`. Any other
//! input — extra whitespace, reordered keys, leading zeros, a sign, an id
//! beyond `u32`, a demand of the wrong arity, a non-canonical escape — is
//! a [`DecodeError`], never a panic. The serde derive on `GProbeEvent`
//! remains as the independent oracle the tests compare against, and the
//! tolerant serde reader still parses user-supplied JSONL (`parse_jsonl`).

use dbp_core::bin::{BinId, BinTag};
use dbp_core::demand::Demand;
use dbp_core::item::ItemId;
use dbp_core::probe::{DropReason, GProbeEvent};
use dbp_core::time::Tick;
use std::fmt;

/// Why a payload is not a canonical event encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the payload where decoding stopped.
    pub offset: usize,
    /// What the canonical form holds at that offset.
    pub expected: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// Defines [`encode_event`] and [`decode_event`] from one field table, so
/// the two cannot disagree on names or order. Every variant starts with
/// `at: Tick`, which the table leaves implicit.
macro_rules! event_codec {
    ($($variant:ident { $($field:ident : $kind:ident),* $(,)? }),* $(,)?) => {
        /// Append the canonical encoding of `event` to `out` (see the
        /// module docs); byte-identical to `serde_json::to_string(event)`.
        pub fn encode_event<Sz: Demand>(event: &GProbeEvent<Sz>, out: &mut Vec<u8>) {
            match event {
                $(GProbeEvent::$variant { at, $($field),* } => {
                    out.extend_from_slice(
                        concat!("{\"", stringify!($variant), "\":{\"at\":").as_bytes(),
                    );
                    put::u64(out, &at.0);
                    $(
                        out.extend_from_slice(concat!(",\"", stringify!($field), "\":").as_bytes());
                        put::$kind(out, $field);
                    )*
                })*
            }
            out.extend_from_slice(b"}}");
        }

        /// Decode one canonical event encoding (see the module docs). Only
        /// the exact bytes [`encode_event`] writes are accepted.
        pub fn decode_event<Sz: Demand>(bytes: &[u8]) -> Result<GProbeEvent<Sz>, DecodeError> {
            let mut cur = Cursor { bytes, pos: 0 };
            cur.lit("{\"")?;
            let tag_start = cur.pos;
            let tag = cur.name();
            cur.lit("\":{\"at\":")?;
            let at = Tick(take::u64(&mut cur)?);
            let event = match tag {
                $(t if t == stringify!($variant).as_bytes() => {
                    $(
                        cur.lit(concat!(",\"", stringify!($field), "\":"))?;
                        let $field = take::$kind(&mut cur)?;
                    )*
                    GProbeEvent::$variant { at, $($field),* }
                })*
                _ => {
                    return Err(DecodeError {
                        offset: tag_start,
                        expected: "a known event kind",
                    })
                }
            };
            cur.lit("}}")?;
            cur.end()?;
            Ok(event)
        }

        /// A lower bound on the length of every canonical payload: each
        /// kind's fixed spelling plus one byte per field (no field
        /// encodes to fewer). The journal reader sizes its event buffer
        /// from it.
        pub(crate) const MIN_PAYLOAD_LEN: usize = {
            let lens = [$(
                concat!("{\"", stringify!($variant), "\":{\"at\":0}}").len()
                    $(+ concat!(",\"", stringify!($field), "\":").len() + 1)*
            ),*];
            let mut min = usize::MAX;
            let mut i = 0;
            while i < lens.len() {
                if lens[i] < min {
                    min = lens[i];
                }
                i += 1;
            }
            min
        };
    };
}

event_codec! {
    ItemArrived { item: item_id, size: demand },
    FitAttempt { item: item_id, bins_scanned: u32, open_bins: u32 },
    BinOpened { bin: bin_id, tag: bin_tag, item: item_id },
    ItemPlaced { item: item_id, bin: bin_id, level: demand },
    ItemDeparted { item: item_id, bin: bin_id, level: demand },
    BinClosed { bin: bin_id, open_ticks: u64 },
    Violation { message: text },
    BinCrashed { bin: bin_id, orphans: u32 },
    ProvisionFailed { item: item_id, attempt: u32 },
    RetryScheduled { item: item_id, attempt: u32, next: tick },
    DispatchRejected { item: item_id, bin: bin_id },
    ItemDropped { item: item_id, reason: drop_reason },
    ItemRedispatched { item: item_id, from: bin_id, to: bin_id, level: demand },
    RecoveryEnded { bin: bin_id, redispatched: u32, lost: u32 },
    ShardKilled { shard: u32, events_done: u64 },
    ShardRestarted { shard: u32, attempt: u32, replayed: u64 },
    ShardAbandoned { shard: u32, lost: u32, rerouted: u32 },
}

/// Every [`DropReason`] with its serde variant name.
const DROP_REASONS: [(DropReason, &str); 4] = [
    (DropReason::QueueFull, "\"QueueFull\""),
    (DropReason::QueueTimeout, "\"QueueTimeout\""),
    (DropReason::RetriesExhausted, "\"RetriesExhausted\""),
    (DropReason::CrashLost, "\"CrashLost\""),
];

/// Field writers, one per field kind of the codec table. [`put::u64`] and
/// [`put::text`] are public: `dbp-serve` writes its reply lines with them,
/// so the wire and the journal share one number and one string spelling.
pub mod put {
    use super::*;

    /// Append `v` as a plain unsigned decimal: no sign, no leading zeros.
    pub fn u64(out: &mut Vec<u8>, v: &u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = *v;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend_from_slice(&buf[i..]);
    }

    pub(super) fn u32(out: &mut Vec<u8>, v: &u32) {
        u64(out, &(*v as u64));
    }

    pub(super) fn tick(out: &mut Vec<u8>, v: &Tick) {
        u64(out, &v.0);
    }

    pub(super) fn item_id(out: &mut Vec<u8>, v: &ItemId) {
        u32(out, &v.0);
    }

    pub(super) fn bin_id(out: &mut Vec<u8>, v: &BinId) {
        u32(out, &v.0);
    }

    pub(super) fn bin_tag(out: &mut Vec<u8>, v: &BinTag) {
        u32(out, &v.0);
    }

    pub(super) fn demand<Sz: Demand>(out: &mut Vec<u8>, v: &Sz) {
        if Sz::DIMS == 1 {
            return u64(out, &v.component(0));
        }
        out.push(b'[');
        for d in 0..Sz::DIMS {
            if d > 0 {
                out.push(b',');
            }
            u64(out, &v.component(d));
        }
        out.push(b']');
    }

    /// Append `v` as a JSON string, escaped exactly as `serde_json`
    /// escapes it: `\"`, `\\`, `\n`, `\r`, `\t`, lowercase `\u00xx` for
    /// the other characters below U+0020, every other character raw.
    pub fn text(out: &mut Vec<u8>, v: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push(b'"');
        for &b in v.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0..=0x1F => {
                    out.extend_from_slice(b"\\u00");
                    out.push(HEX[(b >> 4) as usize]);
                    out.push(HEX[(b & 0xF) as usize]);
                }
                _ => out.push(b),
            }
        }
        out.push(b'"');
    }

    pub(super) fn drop_reason(out: &mut Vec<u8>, v: &DropReason) {
        let (_, name) = DROP_REASONS
            .iter()
            .find(|(r, _)| r == v)
            .expect("DROP_REASONS lists every reason");
        out.extend_from_slice(name.as_bytes());
    }
}

/// Field readers, one per field kind of the codec table.
mod take {
    use super::*;

    /// Up to this many decimal digits cannot overflow a `u64`
    /// (`10^19 - 1 < 2^64`), so they fold without an overflow check.
    const SAFE_DIGITS: usize = 19;

    #[inline(always)]
    pub(super) fn u64(cur: &mut Cursor<'_>) -> Result<u64, DecodeError> {
        let start = cur.pos;
        let rest = &cur.bytes[start..];
        let digit = |i: usize| match rest.get(i) {
            Some(&b @ b'0'..=b'9') => Some((b - b'0') as u64),
            _ => None,
        };
        let Some(mut v) = digit(0) else {
            return Err(cur.err("an unsigned decimal integer"));
        };
        if v == 0 {
            cur.pos += 1;
            return match digit(1) {
                Some(_) => Err(cur.err("no leading zero")),
                None => Ok(0),
            };
        }
        let mut i = 1;
        while i < SAFE_DIGITS {
            let Some(d) = digit(i) else { break };
            v = v * 10 + d;
            i += 1;
        }
        // A 20th digit and beyond take the checked path.
        while let Some(d) = digit(i) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(d))
                .ok_or(DecodeError {
                    offset: start,
                    expected: "an integer within u64",
                })?;
            i += 1;
        }
        cur.pos += i;
        Ok(v)
    }

    #[inline(always)]
    pub(super) fn u32(cur: &mut Cursor<'_>) -> Result<u32, DecodeError> {
        let start = cur.pos;
        u32::try_from(u64(cur)?).map_err(|_| DecodeError {
            offset: start,
            expected: "an integer within u32",
        })
    }

    #[inline(always)]
    pub(super) fn tick(cur: &mut Cursor<'_>) -> Result<Tick, DecodeError> {
        u64(cur).map(Tick)
    }

    #[inline(always)]
    pub(super) fn item_id(cur: &mut Cursor<'_>) -> Result<ItemId, DecodeError> {
        u32(cur).map(ItemId)
    }

    #[inline(always)]
    pub(super) fn bin_id(cur: &mut Cursor<'_>) -> Result<BinId, DecodeError> {
        u32(cur).map(BinId)
    }

    #[inline(always)]
    pub(super) fn bin_tag(cur: &mut Cursor<'_>) -> Result<BinTag, DecodeError> {
        u32(cur).map(BinTag)
    }

    #[inline(always)]
    pub(super) fn demand<Sz: Demand>(cur: &mut Cursor<'_>) -> Result<Sz, DecodeError> {
        /// Dimensionalities up to this decode without a heap allocation.
        const INLINE: usize = 8;
        let start = cur.pos;
        let mut inline = [0u64; INLINE];
        let mut heap: Vec<u64>;
        let components: &mut [u64] = if Sz::DIMS <= INLINE {
            &mut inline[..Sz::DIMS]
        } else {
            heap = vec![0; Sz::DIMS];
            &mut heap
        };
        if Sz::DIMS == 1 {
            components[0] = u64(cur)?;
        } else {
            cur.lit("[")?;
            for (d, c) in components.iter_mut().enumerate() {
                if d > 0 {
                    cur.lit(",")?;
                }
                *c = u64(cur)?;
            }
            cur.lit("]")?;
        }
        Sz::from_components(components).ok_or(DecodeError {
            offset: start,
            expected: "a demand of the reader's dimensionality",
        })
    }

    pub(super) fn text(cur: &mut Cursor<'_>) -> Result<String, DecodeError> {
        cur.lit("\"")?;
        let start = cur.pos;
        let mut out = Vec::new();
        loop {
            let run = cur.pos;
            while let Some(&b) = cur.bytes.get(cur.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                cur.pos += 1;
            }
            out.extend_from_slice(&cur.bytes[run..cur.pos]);
            match cur.bytes.get(cur.pos) {
                Some(b'"') => break,
                Some(b'\\') => {
                    cur.pos += 1;
                    out.push(escape(cur)?);
                }
                _ => return Err(cur.err("a string character, escape or closing quote")),
            }
        }
        cur.pos += 1;
        String::from_utf8(out).map_err(|_| DecodeError {
            offset: start,
            expected: "UTF-8 string contents",
        })
    }

    /// The byte a canonical escape stands for; `cur` is just past its
    /// backslash.
    fn escape(cur: &mut Cursor<'_>) -> Result<u8, DecodeError> {
        let hex = |b: &u8| match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        };
        let (byte, len) = match &cur.bytes[cur.pos..] {
            [b'"', ..] => (Some(b'"'), 1),
            [b'\\', ..] => (Some(b'\\'), 1),
            [b'n', ..] => (Some(b'\n'), 1),
            [b'r', ..] => (Some(b'\r'), 1),
            [b't', ..] => (Some(b'\t'), 1),
            [b'u', b'0', b'0', hi, lo, ..] => {
                let code = hex(hi).zip(hex(lo)).map(|(h, l)| (h << 4) | l);
                // Only controls without a short escape take the \u form.
                let code = code.filter(|&c| c < 0x20 && !matches!(c, b'\n' | b'\r' | b'\t'));
                (code, 5)
            }
            _ => (None, 0),
        };
        match byte {
            Some(byte) => {
                cur.pos += len;
                Ok(byte)
            }
            None => Err(DecodeError {
                offset: cur.pos - 1,
                expected: "a canonical escape (\\\" \\\\ \\n \\r \\t or \\u00xx below 0x20)",
            }),
        }
    }

    pub(super) fn drop_reason(cur: &mut Cursor<'_>) -> Result<DropReason, DecodeError> {
        let rest = &cur.bytes[cur.pos..];
        for (reason, name) in DROP_REASONS {
            if rest.starts_with(name.as_bytes()) {
                cur.pos += name.len();
                return Ok(reason);
            }
        }
        Err(cur.err("a drop reason name"))
    }
}

/// Read position in a payload being decoded.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, expected: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            expected,
        }
    }

    /// Consume exactly `lit`.
    #[inline(always)]
    fn lit(&mut self, lit: &'static str) -> Result<(), DecodeError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(lit))
        }
    }

    /// Consume an event-kind name: the ASCII letters up to the next byte
    /// that is not one.
    fn name(&mut self) -> &'a [u8] {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_alphabetic)
        {
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    fn end(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("the end of the payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every digit count from 0 to 21, with and without a leading zero,
    /// at the edge of `u64` and followed by short and long tails: the
    /// unchecked first 19 digits and the checked rest agree with
    /// `str::parse` and the canonical-form errors.
    #[test]
    fn numbers_decode_at_every_length() {
        let mut numbers: Vec<String> = vec![
            String::new(),
            u64::MAX.to_string(),
            "18446744073709551616".to_string(),
            "99999999999999999999".to_string(),
        ];
        for len in 1..=21 {
            numbers.push("9876543210".chars().cycle().take(len).collect());
            numbers.push(format!("1{}", "0".repeat(len - 1)));
            numbers.push(format!("0{}", "5".repeat(len - 1)));
        }
        for number in &numbers {
            for tail in ["", "}", "}}", ",\"item\":12}}", "]", "a1234567", "/:"] {
                let bytes = format!("{number}{tail}");
                let mut cur = Cursor {
                    bytes: bytes.as_bytes(),
                    pos: 0,
                };
                let got = take::u64(&mut cur).map(|v| (v, cur.pos));
                let want = if number.is_empty() {
                    Err((0, "an unsigned decimal integer"))
                } else if number.len() > 1 && number.starts_with('0') {
                    Err((1, "no leading zero"))
                } else {
                    match number.parse::<u64>() {
                        Ok(v) => Ok((v, number.len())),
                        Err(_) => Err((0, "an integer within u64")),
                    }
                };
                assert_eq!(got.map_err(|e| (e.offset, e.expected)), want, "{bytes:?}");
            }
        }
    }

    #[test]
    fn min_payload_len_bounds_the_shortest_payload() {
        let mut out = Vec::new();
        let empty = GProbeEvent::<dbp_core::item::Size>::Violation {
            at: Tick(0),
            message: String::new(),
        };
        encode_event(&empty, &mut out);
        // The empty message is two quotes where the bound counts one byte.
        assert_eq!(MIN_PAYLOAD_LEN, out.len() - 1);
    }
}
