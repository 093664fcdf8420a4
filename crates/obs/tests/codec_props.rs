//! Properties of the direct event codec and of the journal reader built
//! on it, checked against the serde derive as an independent oracle:
//!
//! * every one of the 17 event kinds at D ∈ {1, 2, 3}, with edge-valued
//!   integers and control or non-ASCII characters in `Violation` text,
//!   encodes to exactly `serde_json::to_string`'s bytes and decodes back;
//! * hostile payloads — whitespace, reordered keys, leading zeros, signs,
//!   overflowing ids, wrong arity, deep nesting, non-canonical escapes,
//!   truncations and random edits — are typed errors, never panics, and
//!   the decoder accepts a byte string only if it re-encodes to it;
//! * such a payload inside a CRC-valid frame fails the journal read, and
//!   a v2 journal with a bit flipped or cut at any byte offset reads to an
//!   error or a sound prefix.

use dbp_core::bin::{BinId, BinTag};
use dbp_core::demand::{Demand, VSize};
use dbp_core::item::{ItemId, Size};
use dbp_core::probe::{DropReason, GProbeEvent};
use dbp_core::time::Tick;
use dbp_obs::codec::{decode_event, encode_event};
use dbp_obs::journal::{
    crc32, parse_journal, FsyncPolicy, JournalWriter, JOURNAL_MAGIC, JOURNAL_MAGIC_V2,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// One raw draw: an edge class and a value.
type Raw = (u8, u64);

/// Field values for one generated event, biased towards the edges of
/// each field's range.
struct Fields<'a> {
    raw: &'a [Raw],
    next: usize,
}

impl Fields<'_> {
    fn draw(&mut self) -> Raw {
        let r = self.raw[self.next % self.raw.len()];
        self.next += 1;
        r
    }

    fn wide(&mut self) -> u64 {
        match self.draw() {
            (0, _) => 0,
            (1, _) => u64::MAX,
            (2, v) => v % 1000,
            (_, v) => v,
        }
    }

    fn narrow(&mut self) -> u32 {
        match self.draw() {
            (0, _) => 0,
            (1, _) => u32::MAX,
            (2, v) => (v % 1000) as u32,
            (_, v) => v as u32,
        }
    }

    fn demand<Sz: Demand>(&mut self) -> Sz {
        let components: Vec<u64> = (0..Sz::DIMS).map(|_| self.wide()).collect();
        Sz::from_components(&components).unwrap()
    }
}

/// Characters `Violation` text is drawn from: every escape the encoder
/// writes, control characters, and multi-byte UTF-8.
const TEXT_POOL: [char; 24] = [
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '€', '😀', '\u{2028}', '\u{fffd}', '{', '}', ':', ',',
];

/// Number of `GProbeEvent` kinds.
const KINDS: u8 = 17;

fn event<Sz: Demand>(kind: u8, raw: &[Raw], text: &str) -> GProbeEvent<Sz> {
    let f = &mut Fields { raw, next: 0 };
    let at = Tick(f.wide());
    match kind % KINDS {
        0 => GProbeEvent::ItemArrived {
            at,
            item: ItemId(f.narrow()),
            size: f.demand(),
        },
        1 => GProbeEvent::FitAttempt {
            at,
            item: ItemId(f.narrow()),
            bins_scanned: f.narrow(),
            open_bins: f.narrow(),
        },
        2 => GProbeEvent::BinOpened {
            at,
            bin: BinId(f.narrow()),
            tag: BinTag(f.narrow()),
            item: ItemId(f.narrow()),
        },
        3 => GProbeEvent::ItemPlaced {
            at,
            item: ItemId(f.narrow()),
            bin: BinId(f.narrow()),
            level: f.demand(),
        },
        4 => GProbeEvent::ItemDeparted {
            at,
            item: ItemId(f.narrow()),
            bin: BinId(f.narrow()),
            level: f.demand(),
        },
        5 => GProbeEvent::BinClosed {
            at,
            bin: BinId(f.narrow()),
            open_ticks: f.wide(),
        },
        6 => GProbeEvent::Violation {
            at,
            message: text.to_string(),
        },
        7 => GProbeEvent::BinCrashed {
            at,
            bin: BinId(f.narrow()),
            orphans: f.narrow(),
        },
        8 => GProbeEvent::ProvisionFailed {
            at,
            item: ItemId(f.narrow()),
            attempt: f.narrow(),
        },
        9 => GProbeEvent::RetryScheduled {
            at,
            item: ItemId(f.narrow()),
            attempt: f.narrow(),
            next: Tick(f.wide()),
        },
        10 => GProbeEvent::DispatchRejected {
            at,
            item: ItemId(f.narrow()),
            bin: BinId(f.narrow()),
        },
        11 => GProbeEvent::ItemDropped {
            at,
            item: ItemId(f.narrow()),
            reason: [
                DropReason::QueueFull,
                DropReason::QueueTimeout,
                DropReason::RetriesExhausted,
                DropReason::CrashLost,
            ][f.narrow() as usize % 4],
        },
        12 => GProbeEvent::ItemRedispatched {
            at,
            item: ItemId(f.narrow()),
            from: BinId(f.narrow()),
            to: BinId(f.narrow()),
            level: f.demand(),
        },
        13 => GProbeEvent::RecoveryEnded {
            at,
            bin: BinId(f.narrow()),
            redispatched: f.narrow(),
            lost: f.narrow(),
        },
        14 => GProbeEvent::ShardKilled {
            at,
            shard: f.narrow(),
            events_done: f.wide(),
        },
        15 => GProbeEvent::ShardRestarted {
            at,
            shard: f.narrow(),
            attempt: f.narrow(),
            replayed: f.wide(),
        },
        _ => GProbeEvent::ShardAbandoned {
            at,
            shard: f.narrow(),
            lost: f.narrow(),
            rerouted: f.narrow(),
        },
    }
}

fn encode<Sz: Demand>(event: &GProbeEvent<Sz>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event(event, &mut out);
    out
}

fn raws() -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec((0u8..4, 0u64..u64::MAX), 8)
}

fn texts() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TEXT_POOL.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| TEXT_POOL[i]).collect())
}

/// The strict-decoder contract on arbitrary bytes: the call returns
/// (no panic), an error points inside the input, and a success re-encodes
/// to exactly the input. Returns whether the bytes decoded.
fn decodes<Sz: Demand>(bytes: &[u8]) -> Result<bool, TestCaseError> {
    match decode_event::<Sz>(bytes) {
        Ok(event) => {
            prop_assert_eq!(
                encode(&event),
                bytes.to_vec(),
                "non-canonical bytes decoded: {:?}",
                String::from_utf8_lossy(bytes)
            );
            Ok(true)
        }
        Err(e) => {
            prop_assert!(e.offset <= bytes.len(), "{e} on {} bytes", bytes.len());
            Ok(false)
        }
    }
}

/// `bytes` must be refused.
fn refused<Sz: Demand>(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        !decodes::<Sz>(bytes)?,
        "{what} accepted: {:?}",
        String::from_utf8_lossy(bytes)
    );
    Ok(())
}

fn splice(bytes: &[u8], range: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    let mut out = bytes[..range.start].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[range.end..]);
    out
}

/// Fields decoded as `u32`.
const U32_KEYS: [&str; 13] = [
    "item",
    "bin",
    "tag",
    "bins_scanned",
    "open_bins",
    "orphans",
    "attempt",
    "from",
    "to",
    "redispatched",
    "lost",
    "shard",
    "rerouted",
];

/// A run of digits in a canonical encoding, outside any string, with the
/// key of the field it belongs to.
struct Number {
    range: std::ops::Range<usize>,
    key: String,
}

/// The integers of a canonical encoding, and the byte range of the
/// `Violation` message contents (`None` for other kinds).
fn anatomy(bytes: &[u8]) -> (Vec<Number>, Option<std::ops::Range<usize>>) {
    const MESSAGE: &[u8] = b"\"message\":\"";
    let text = bytes
        .windows(MESSAGE.len())
        .position(|w| w == MESSAGE)
        .map(|p| p + MESSAGE.len()..bytes.len() - 3);
    let mut numbers = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if text.as_ref().is_some_and(|t| t.contains(&i)) || !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        // The key is the quoted name before the last `":` ahead of the run.
        let head = &bytes[..start];
        let colon = head.iter().rposition(|&b| b == b':').unwrap();
        let open = head[..colon - 1].iter().rposition(|&b| b == b'"').unwrap();
        numbers.push(Number {
            range: start..i,
            key: String::from_utf8(head[open + 1..colon - 1].to_vec()).unwrap(),
        });
    }
    (numbers, text)
}

/// A v1/v2 journal holding `payloads` as CRC-valid frames.
fn journal_of(dims: usize, payloads: &[&[u8]]) -> Vec<u8> {
    let mut out = if dims == 1 {
        JOURNAL_MAGIC.to_vec()
    } else {
        let mut h = JOURNAL_MAGIC_V2.to_vec();
        h.push(dims as u8);
        h
    };
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(p).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

fn round_trips<Sz: Demand>(event: &GProbeEvent<Sz>) -> Result<(), TestCaseError> {
    let bytes = encode(event);
    let serde = serde_json::to_string(event).unwrap();
    prop_assert_eq!(std::str::from_utf8(&bytes).unwrap(), serde.as_str());
    prop_assert_eq!(decode_event::<Sz>(&bytes), Ok(event.clone()));
    Ok(())
}

fn hostile_payloads_are_refused<Sz: Demand>(
    event: &GProbeEvent<Sz>,
    edits: &[(usize, u8, u8)],
) -> Result<(), TestCaseError> {
    let bytes = encode(event);
    let (numbers, text) = anatomy(&bytes);
    // Insertion points inside the message text, both quotes' sides included.
    let in_text = |i: usize| text.as_ref().is_some_and(|t| t.start <= i && i <= t.end);

    // Whitespace anywhere outside the message text.
    for i in (0..=bytes.len()).filter(|&i| !in_text(i)) {
        for ws in [b" ", b"\n", b"\t", b"\r"] {
            refused::<Sz>(&splice(&bytes, i..i, ws), "whitespace")?;
        }
    }
    refused::<Sz>(&splice(&bytes, 2..2, b"X"), "unknown event kind")?;
    // Every proper prefix, and trailing bytes.
    for cut in 0..bytes.len() {
        refused::<Sz>(&bytes[..cut], "truncation")?;
    }
    for tail in [&b"x"[..], b"}", b"\0"] {
        refused::<Sz>(&[&bytes[..], tail].concat(), "trailing bytes")?;
    }
    // Reordered keys: the tolerant serde reader takes them, the codec not.
    let serde_json::Value::Map(mut outer) =
        serde_json::from_str(&String::from_utf8_lossy(&bytes)).unwrap()
    else {
        unreachable!("events encode as objects")
    };
    let serde_json::Value::Map(fields) = &mut outer[0].1 else {
        unreachable!("event bodies are objects")
    };
    fields.reverse();
    let reordered = serde_json::to_string(&serde_json::Value::Map(outer)).unwrap();
    prop_assert!(serde_json::from_str::<GProbeEvent<Sz>>(&reordered).is_ok());
    refused::<Sz>(reordered.as_bytes(), "reordered keys")?;

    // Number spellings.
    for n in &numbers {
        let r = n.range.clone();
        refused::<Sz>(&splice(&bytes, r.start..r.start, b"0"), "leading zero")?;
        for bad in [
            &b"-1"[..],
            b"+1",
            b"1.0",
            b"1e3",
            b"\"1\"",
            b"18446744073709551616",
        ] {
            refused::<Sz>(&splice(&bytes, r.clone(), bad), "number spelling")?;
        }
        let wide = splice(&bytes, r.clone(), b"4294967296");
        let is_u32 = U32_KEYS.contains(&n.key.as_str());
        prop_assert_eq!(
            decodes::<Sz>(&wide)?,
            !is_u32,
            "u32 overflow in {:?}",
            n.key
        );
        for depth in [64, 10_000] {
            let nested = [vec![b'['; depth], b"1".to_vec(), vec![b']'; depth]].concat();
            refused::<Sz>(&splice(&bytes, r.clone(), &nested), "deep nesting")?;
        }
    }
    // Wrong demand arity.
    for n in numbers
        .iter()
        .filter(|n| n.key == "size" || n.key == "level")
    {
        let r = n.range.clone();
        if Sz::DIMS == 1 {
            let boxed = [b"[", &bytes[r.clone()], b"]"].concat();
            refused::<Sz>(&splice(&bytes, r, &boxed), "boxed scalar demand")?;
        } else if bytes[r.start - 1] == b'[' {
            // The first component: drop the last one, or add one more.
            let close = r.start + bytes[r.start..].iter().position(|&b| b == b']').unwrap();
            let short = match bytes[r.start..close].iter().rposition(|&b| b == b',') {
                Some(comma) => splice(&bytes, r.start + comma..close, b""),
                None => unreachable!("D > 1 demands have a comma"),
            };
            refused::<Sz>(&short, "short demand")?;
            refused::<Sz>(&splice(&bytes, close..close, b",0"), "long demand")?;
            refused::<Sz>(
                &splice(&bytes, r.start - 1..close + 1, &bytes[r]),
                "bare demand",
            )?;
        }
    }
    // Non-canonical escapes and bytes inside the message text.
    if let Some(text) = &text {
        for bad in [
            &br"\x"[..],
            br"\u0041",
            br"\u001F",
            br"\u000a",
            br"\u000A",
            br"\u00zz",
            br"\/",
            br"\b",
            br"\f",
            b"\x01",
            b"\x1f",
            b"\xff",
            b"\xc3",
        ] {
            refused::<Sz>(&splice(&bytes, text.start..text.start, bad), "bad escape")?;
        }
    }
    // Random byte edits: whatever decodes is canonical.
    for &(pos, byte, op) in edits {
        let i = pos % (bytes.len() + 1);
        let edited = match op % 3 {
            0 if i < bytes.len() => splice(&bytes, i..i + 1, &[byte]),
            1 if i < bytes.len() => splice(&bytes, i..i + 1, b""),
            _ => splice(&bytes, i..i, &[byte]),
        };
        decodes::<Sz>(&edited)?;
    }

    // Inside CRC-valid frames, mid-file or final, the journal refuses.
    let ws = splice(&bytes, 1..1, b" ");
    for payloads in [
        [&bytes[..], &ws[..], &bytes[..]].as_slice(),
        [&bytes[..], reordered.as_bytes()].as_slice(),
    ] {
        let err = parse_journal::<Sz>(&journal_of(Sz::DIMS, payloads)).unwrap_err();
        prop_assert!(err.contains("undecodable event despite valid CRC"), "{err}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn codec_matches_serde_and_round_trips(
        kind in 0..KINDS,
        raw in raws(),
        text in texts(),
    ) {
        round_trips(&event::<Size>(kind, &raw, &text))?;
        round_trips(&event::<VSize<1>>(kind, &raw, &text))?;
        round_trips(&event::<VSize<2>>(kind, &raw, &text))?;
        round_trips(&event::<VSize<3>>(kind, &raw, &text))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_payloads_are_typed_errors(
        kind in 0..KINDS,
        raw in raws(),
        text in texts(),
        edits in proptest::collection::vec((0usize..200, 0u8..=255, 0u8..3), 16),
    ) {
        hostile_payloads_are_refused(&event::<Size>(kind, &raw, &text), &edits)?;
        hostile_payloads_are_refused(&event::<VSize<2>>(kind, &raw, &text), &edits)?;
        hostile_payloads_are_refused(&event::<VSize<3>>(kind, &raw, &text), &edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A v2 journal of every event kind, damaged at each byte offset by a
    /// bit flip or a cut, reads to an error or a prefix of what was
    /// written — never a panic and never an altered event.
    #[test]
    fn damaged_v2_journal_reads_to_an_error_or_a_sound_prefix(
        raw in raws(),
        text in texts(),
    ) {
        let events: Vec<GProbeEvent<VSize<3>>> =
            (0..KINDS).map(|k| event(k, &raw, &text)).collect();
        let dir = std::env::temp_dir().join("dbp_obs_codec_props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("v2_{}.wal", std::process::id()));
        let mut w = JournalWriter::create_dims(&path, FsyncPolicy::Never, 3).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        w.finish().unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(parse_journal::<VSize<3>>(&clean).unwrap().events, events.clone());

        for i in 0..clean.len() {
            let cut = parse_journal::<VSize<3>>(&clean[..i]);
            prop_assert!(
                matches!(&cut, Ok(c) if events.starts_with(&c.events)),
                "cut at {i}: {:?}", cut.err()
            );
            let mut flipped = clean.clone();
            flipped[i] ^= 1 << (i % 8);
            if let Ok(c) = parse_journal::<VSize<3>>(&flipped) {
                prop_assert!(
                    c.events.len() < events.len() && events.starts_with(&c.events),
                    "flip at {i} read {} events", c.events.len()
                );
            }
        }
    }
}
