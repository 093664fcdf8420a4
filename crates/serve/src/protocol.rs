//! Newline-delimited JSON wire protocol for the live dispatcher.
//!
//! Clients write one JSON object per line and read one JSON reply per
//! request, in order. The protocol is **online**: an arrival carries only
//! what the paper's dispatcher may see — an id, an event-time tick and a
//! size — never the departure time. Departures are separate messages.
//!
//! ```text
//! → {"op":"arrive","id":1,"at":0,"size":6}
//! ← {"ok":true,"id":1,"shard":0,"bin":0}
//! → {"op":"depart","id":1,"at":9}
//! ← {"ok":true,"id":1,"shard":0}
//! ```
//!
//! ## Vector demands
//!
//! A daemon compiled for `D`-dimensional demands (`dbp serve --dims D`)
//! accepts `"demand":[..]` arrays of exactly `D` components:
//!
//! ```text
//! → {"op":"arrive","id":1,"at":0,"demand":[125,90,220]}
//! ```
//!
//! At `D = 1` the scalar `"size"` spelling remains valid (back-compat) and
//! means `"demand":[size]`. A `demand` array whose length differs from the
//! daemon's `D` is refused with a typed `demand_arity: …` reason — never
//! truncated, never a panic — and the connection stays line-synchronized.
//!
//! Malformed lines get `{"ok":false,...,"reason":"..."}` and do not tear
//! the connection down; the stream stays line-synchronized.
//!
//! ## Codec
//!
//! Requests are read in one pass, without a `serde_json` value tree, when
//! the line has the plain request shape: one object, JSON whitespace
//! between any tokens, the keys `op`/`id`/`at`/`size`/`demand` each at
//! most once and in any order, `op` a string without escapes, and every
//! number an unsigned integer within `u64` without leading zeros (`demand`
//! an array of them). That covers the compact spelling above and the
//! `", "`/`": "` separators of Python's `json.dumps`.
//!
//! Every other line — escapes, unknown or repeated keys, `null`, nested
//! values, signs, fractions, exponents, leading zeros, overflow — goes to
//! `serde_json::from_str::<WireMsg>`, which defines what such a line
//! means and is the only source of `bad json: …` reasons. Both readers
//! feed one validation (arity, `size`/`demand` exclusivity, zero demand,
//! unknown op), so a line gets the same answer whichever reader took it.
//!
//! Replies are written by [`Reply::write_to`] straight into a byte buffer,
//! byte for byte what `serde_json::to_string` renders for the [`Reply`]
//! derive, with `dbp-obs`'s journal number and string writers. The serde
//! derives on [`WireMsg`] and [`Reply`] stay: they are the fallback reader
//! and the oracle the codec tests compare against.

use dbp_obs::codec::put;
use serde::{Deserialize, Serialize};

/// The largest demand dimensionality the daemon ships monomorphized
/// pipelines for ([`Request`] carries demands inline, so this is a wire
/// constant, not a config knob).
pub const MAX_DIMS: usize = 4;

/// One request line as it appears on the wire. `size`/`demand` are only
/// meaningful for `op == "arrive"` and are therefore optional at the serde
/// layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMsg {
    /// `"arrive"`, `"depart"` or `"ping"`.
    pub op: String,
    /// Client-chosen session id, unique among live sessions.
    pub id: u64,
    /// Event-time tick of the request. Ticks behind a shard's event-time
    /// horizon are clamped forward (event time never rewinds).
    #[serde(default)]
    pub at: u64,
    /// Scalar session size in resource units (arrivals only; valid only
    /// when the daemon runs one-dimensional).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub size: Option<u64>,
    /// Vector session demand (arrivals only); length must equal the
    /// daemon's dimensionality.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub demand: Option<Vec<u64>>,
}

/// A parsed, validated request. Demands are stored dimension-padded in a
/// fixed array (components at and beyond the daemon's dimensionality are
/// zero) so the type stays `Copy` across the shard queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A session arrival: place `id` with `demand` at event time `at`.
    Arrive {
        /// Client session id.
        id: u64,
        /// Event-time tick.
        at: u64,
        /// Per-dimension demand, zero-padded past the daemon's `D`.
        demand: [u64; MAX_DIMS],
    },
    /// A session departure: release `id` at event time `at`.
    Depart {
        /// Client session id.
        id: u64,
        /// Event-time tick.
        at: u64,
    },
    /// Liveness probe; answered without touching any shard.
    Ping {
        /// Echoed id.
        id: u64,
    },
}

impl Request {
    /// The session id the request concerns.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Arrive { id, .. } | Request::Depart { id, .. } | Request::Ping { id } => id,
        }
    }
}

/// Parse one wire line into a [`Request`] for a scalar (`D = 1`) daemon.
pub fn parse_line(line: &str) -> Result<Request, String> {
    parse_line_dims(line, 1)
}

/// Parse one wire line into a [`Request`] for a daemon running
/// `dims`-dimensional demands.
///
/// Arrivals must carry exactly one of `size` (scalar spelling, accepted
/// only at `dims == 1`) or `demand` (an array of exactly `dims` positive-sum
/// components). An arity mismatch is a **typed** rejection whose reason
/// starts with `demand_arity:` — the daemon never truncates or pads a
/// client's demand vector.
///
/// A one-pass reader takes every line in the plain request shape; any
/// other line goes through `serde_json` and the [`WireMsg`] derive (see
/// the module docs). Both feed one validation.
pub fn parse_line_dims(line: &str, dims: usize) -> Result<Request, String> {
    assert!(
        (1..=MAX_DIMS).contains(&dims),
        "daemon dims {dims} outside 1..={MAX_DIMS}"
    );
    if let Some(fields) = read_fields(line) {
        return fields.validate(dims);
    }
    let msg: WireMsg = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
    Fields {
        op: &msg.op,
        id: msg.id,
        at: msg.at,
        size: msg.size,
        demand: msg.demand.as_deref().map(WireDemand::from_slice),
    }
    .validate(dims)
}

/// A `demand` array as read off the wire: its length, and its first
/// [`MAX_DIMS`] components (a longer array is refused on its length alone).
#[derive(Default)]
struct WireDemand {
    len: usize,
    head: [u64; MAX_DIMS],
}

impl WireDemand {
    fn from_slice(components: &[u64]) -> WireDemand {
        let mut head = [0u64; MAX_DIMS];
        let n = components.len().min(MAX_DIMS);
        head[..n].copy_from_slice(&components[..n]);
        WireDemand {
            len: components.len(),
            head,
        }
    }
}

/// One request object's fields, from either reader, before validation.
#[derive(Default)]
struct Fields<'a> {
    op: &'a str,
    id: u64,
    at: u64,
    size: Option<u64>,
    demand: Option<WireDemand>,
}

impl Fields<'_> {
    /// The request these fields spell for a `dims`-dimensional daemon, or
    /// the reason it is refused.
    fn validate(self, dims: usize) -> Result<Request, String> {
        let Fields { op, id, at, .. } = self;
        match op {
            "arrive" => {
                let mut demand = [0u64; MAX_DIMS];
                match (self.size, self.demand) {
                    (Some(_), Some(_)) => {
                        return Err("arrive takes size or demand, not both".to_string())
                    }
                    (Some(size), None) => {
                        if dims != 1 {
                            return Err(format!(
                                "demand_arity: scalar size is 1-dimensional, daemon expects \
                                 {dims} components (send \"demand\":[..])"
                            ));
                        }
                        if size == 0 {
                            return Err("arrive needs a positive size".to_string());
                        }
                        demand[0] = size;
                    }
                    (None, Some(vec)) => {
                        if vec.len != dims {
                            return Err(format!(
                                "demand_arity: demand has {} components, daemon expects {dims}",
                                vec.len
                            ));
                        }
                        if vec.head[..dims].iter().all(|&c| c == 0) {
                            return Err("arrive needs a nonzero demand".to_string());
                        }
                        demand = vec.head;
                    }
                    (None, None) => return Err("arrive needs a size or demand".to_string()),
                }
                Ok(Request::Arrive { id, at, demand })
            }
            "depart" => Ok(Request::Depart { id, at }),
            "ping" => Ok(Request::Ping { id }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Read a request object in one pass, or `None` to hand the line to the
/// serde path. Accepted: JSON whitespace between tokens; the keys `op`,
/// `id`, `at`, `size` and `demand`, each at most once, in any order, with
/// `op` and `id` present; `op` a string without escapes; every number an
/// unsigned integer within `u64` without leading zeros; `demand` an array
/// of such integers. Nothing is allocated and nothing recurses.
fn read_fields(line: &str) -> Option<Fields<'_>> {
    const OP: u8 = 1;
    const ID: u8 = 2;
    const AT: u8 = 4;
    const SIZE: u8 = 8;
    const DEMAND: u8 = 16;
    let mut cur = Scan {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut fields = Fields::default();
    let mut seen = 0u8;
    cur.token(b'{')?;
    loop {
        let key = match cur.plain_str(line)? {
            "op" => OP,
            "id" => ID,
            "at" => AT,
            "size" => SIZE,
            "demand" => DEMAND,
            _ => return None,
        };
        if seen & key != 0 {
            return None;
        }
        seen |= key;
        cur.token(b':')?;
        match key {
            OP => fields.op = cur.plain_str(line)?,
            ID => fields.id = cur.uint()?,
            AT => fields.at = cur.uint()?,
            SIZE => fields.size = Some(cur.uint()?),
            _ => fields.demand = Some(cur.uint_array()?),
        }
        match cur.next()? {
            b',' => {}
            b'}' => break,
            _ => return None,
        }
    }
    cur.skip_ws();
    (cur.pos == line.len() && seen & (OP | ID) == OP | ID).then_some(fields)
}

/// A byte cursor over one request line for [`read_fields`]. Every reader
/// skips the JSON whitespace before its token.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    /// Skip JSON whitespace (the same four bytes `serde_json` skips).
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte that is not whitespace, consumed.
    fn next(&mut self) -> Option<u8> {
        self.skip_ws();
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Consume the byte `want` as the next token.
    fn token(&mut self, want: u8) -> Option<()> {
        (self.next()? == want).then_some(())
    }

    /// A string without escapes, borrowed from `line` (the `&str` these
    /// bytes came from; quotes are ASCII, so both ends are char
    /// boundaries).
    fn plain_str<'l>(&mut self, line: &'l str) -> Option<&'l str> {
        self.token(b'"')?;
        let start = self.pos;
        let end = start
            + self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')?;
        if self.bytes[end] == b'\\' {
            return None;
        }
        self.pos = end + 1;
        line.get(start..end)
    }

    /// An unsigned decimal within `u64` without leading zeros. Whatever
    /// follows the digits is left for the caller's next token check, so
    /// a sign, fraction or exponent sends the line to the serde path.
    fn uint(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        (digits == 1 || (digits > 1 && self.bytes[start] != b'0')).then_some(v)
    }

    /// `[` unsigned integers separated by commas `]`, possibly empty.
    fn uint_array(&mut self) -> Option<WireDemand> {
        let mut demand = WireDemand::default();
        self.token(b'[')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(demand);
        }
        loop {
            let c = self.uint()?;
            if let Some(slot) = demand.head.get_mut(demand.len) {
                *slot = c;
            }
            demand.len += 1;
            match self.next()? {
                b',' => {}
                b']' => return Some(demand),
                _ => return None,
            }
        }
    }
}

/// One reply line. `shard`/`bin` are present on successful placements,
/// `reason` on rejections and drops.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reply {
    /// Whether the request was served.
    pub ok: bool,
    /// The session id the reply concerns (0 for unparseable lines).
    pub id: u64,
    /// Shard that handled the request.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shard: Option<u64>,
    /// Bin the arrival was placed into.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub bin: Option<u64>,
    /// Why the request was not served.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reason: Option<String>,
}

impl Reply {
    /// A successful placement reply.
    pub fn placed(id: u64, shard: usize, bin: u64) -> Reply {
        Reply {
            ok: true,
            id,
            shard: Some(shard as u64),
            bin: Some(bin),
            reason: None,
        }
    }

    /// A successful non-placement reply (departure, ping).
    pub fn ok(id: u64, shard: Option<usize>) -> Reply {
        Reply {
            ok: true,
            id,
            shard: shard.map(|s| s as u64),
            bin: None,
            reason: None,
        }
    }

    /// A rejection or drop reply.
    pub fn refused(id: u64, reason: impl Into<String>) -> Reply {
        Reply {
            ok: false,
            id,
            shard: None,
            bin: None,
            reason: Some(reason.into()),
        }
    }

    /// Serialize to one wire line (no trailing newline); the bytes of
    /// [`Reply::write_to`]. The line is copied out of a scratch buffer
    /// into an allocation of its exact length, since callers may keep
    /// many lines.
    pub fn to_line(&self) -> String {
        let mut out = Vec::with_capacity(64);
        self.write_to(&mut out);
        std::str::from_utf8(&out)
            .expect("a reply line is UTF-8")
            .to_owned()
    }

    /// Append the reply's wire line (no trailing newline) to `out`: byte
    /// for byte what `serde_json::to_string(self)` writes, with no value
    /// tree in between.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self.ok {
            b"{\"ok\":true,\"id\":"
        } else {
            b"{\"ok\":false,\"id\":"
        });
        put::u64(out, &self.id);
        if let Some(shard) = &self.shard {
            out.extend_from_slice(b",\"shard\":");
            put::u64(out, shard);
        }
        if let Some(bin) = &self.bin {
            out.extend_from_slice(b",\"bin\":");
            put::u64(out, bin);
        }
        if let Some(reason) = &self.reason {
            out.extend_from_slice(b",\"reason\":");
            put::text(out, reason);
        }
        out.push(b'}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d1(size: u64) -> [u64; MAX_DIMS] {
        let mut d = [0u64; MAX_DIMS];
        d[0] = size;
        d
    }

    #[test]
    fn arrive_depart_ping_parse() {
        assert_eq!(
            parse_line(r#"{"op":"arrive","id":7,"at":3,"size":5}"#),
            Ok(Request::Arrive {
                id: 7,
                at: 3,
                demand: d1(5)
            })
        );
        assert_eq!(
            parse_line(r#"{"op":"depart","id":7,"at":9}"#),
            Ok(Request::Depart { id: 7, at: 9 })
        );
        assert_eq!(
            parse_line(r#"{"op":"ping","id":1}"#),
            Ok(Request::Ping { id: 1 })
        );
    }

    #[test]
    fn missing_at_defaults_to_zero() {
        assert_eq!(
            parse_line(r#"{"op":"arrive","id":2,"size":4}"#),
            Ok(Request::Arrive {
                id: 2,
                at: 0,
                demand: d1(4)
            })
        );
    }

    #[test]
    fn bad_lines_are_rejected_not_fatal() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"op":"arrive","id":3,"at":1}"#).is_err());
        assert!(parse_line(r#"{"op":"arrive","id":3,"at":1,"size":0}"#).is_err());
        assert!(parse_line(r#"{"op":"levitate","id":3}"#).is_err());
    }

    #[test]
    fn scalar_spelling_means_one_dimensional_demand() {
        // size at dims==1 and demand:[..] of length 1 parse identically.
        assert_eq!(
            parse_line(r#"{"op":"arrive","id":7,"at":3,"size":5}"#),
            parse_line_dims(r#"{"op":"arrive","id":7,"at":3,"demand":[5]}"#, 1),
        );
        // Mixing the spellings on one line is ambiguous, hence rejected.
        assert!(
            parse_line(r#"{"op":"arrive","id":7,"at":3,"size":5,"demand":[5]}"#)
                .unwrap_err()
                .contains("not both")
        );
    }

    #[test]
    fn vector_demands_parse_at_matching_dims() {
        assert_eq!(
            parse_line_dims(r#"{"op":"arrive","id":4,"at":2,"demand":[125,90,220]}"#, 3),
            Ok(Request::Arrive {
                id: 4,
                at: 2,
                demand: [125, 90, 220, 0]
            })
        );
        // All-zero vectors occupy nothing and are refused like size:0.
        assert!(
            parse_line_dims(r#"{"op":"arrive","id":4,"demand":[0,0,0]}"#, 3)
                .unwrap_err()
                .contains("nonzero")
        );
        // A single zero component is fine: a CPU-only workload has no GPU
        // footprint.
        assert!(parse_line_dims(r#"{"op":"arrive","id":4,"demand":[0,90,220]}"#, 3).is_ok());
    }

    #[test]
    fn arity_mismatches_are_typed_rejections() {
        // Too short, too long, and scalar-at-vector-daemon all carry the
        // demand_arity marker so clients can distinguish them from parse
        // noise; none of them truncates or pads.
        for (line, dims) in [
            (r#"{"op":"arrive","id":4,"demand":[125,90]}"#, 3),
            (r#"{"op":"arrive","id":4,"demand":[125,90,220,7]}"#, 3),
            (r#"{"op":"arrive","id":4,"size":125}"#, 3),
            (r#"{"op":"arrive","id":4,"demand":[125,90]}"#, 1),
        ] {
            let err = parse_line_dims(line, dims).unwrap_err();
            assert!(err.starts_with("demand_arity:"), "{line} -> {err}");
        }
    }

    #[test]
    fn replies_round_trip_and_omit_absent_fields() {
        let r = Reply::placed(7, 2, 3);
        let line = r.to_line();
        assert!(!line.contains("reason"), "{line}");
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);

        let d = Reply::refused(9, "queue_full");
        let line = d.to_line();
        assert!(!line.contains("bin"), "{line}");
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, d);
    }

    /// One hostile line for a `dims`-dimensional daemon: `kind` picks the
    /// attack, `bytes`/`depth`/`k` parameterize it.
    fn hostile_line(kind: u8, dims: usize, bytes: &[u8], depth: usize, k: u64) -> String {
        let ones = |n: usize| vec!["1"; n].join(",");
        match kind {
            0 => String::from_utf8_lossy(bytes).into_owned(),
            1 => format!(
                r#"{{"op":"arrive","id":1,"demand":[{}{}]}}"#,
                "1,".repeat(dims - 1),
                u128::from(u64::MAX) + 1 + u128::from(k)
            ),
            // Any arity in 0..=8 except `dims`.
            2 => format!(
                r#"{{"op":"arrive","id":1,"demand":[{}]}}"#,
                ones((dims + 1 + k as usize % 8) % 9)
            ),
            3 => format!(
                r#"{{"op":"arrive","id":1,"size":5,"demand":[{}]}}"#,
                ones(dims)
            ),
            _ => {
                let close = if k.is_multiple_of(2) {
                    "]".repeat(depth)
                } else {
                    String::new()
                };
                format!(
                    r#"{{"op":"arrive","id":1,"demand":{}{close}}}"#,
                    "[".repeat(depth)
                )
            }
        }
    }

    proptest! {
        /// Whatever arrives on the wire — random bytes, demands past
        /// `u64::MAX`, wrong arity, `size` beside `demand`, or 1 to 10^5
        /// levels of nesting — the parser answers `Ok` or `Err`; it never
        /// panics and never overflows the stack.
        #[test]
        fn hostile_lines_never_panic(
            kind in 0u8..5,
            dims in 1usize..=MAX_DIMS,
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            exp in 0u32..=5,
            mantissa in 1usize..10,
            k in 0u64..1_000,
        ) {
            let depth = (mantissa * 10usize.pow(exp)).min(100_000);
            let line = hostile_line(kind, dims, &bytes, depth, k);
            let parsed = parse_line_dims(&line, dims);
            match kind {
                0 => {}
                1 => prop_assert!(parsed.is_err(), "{line}"),
                2 => prop_assert!(
                    parsed.as_ref().is_err_and(|e| e.starts_with("demand_arity:")),
                    "{line} -> {parsed:?}"
                ),
                3 => prop_assert!(
                    parsed.as_ref().is_err_and(|e| e.contains("not both")),
                    "{line} -> {parsed:?}"
                ),
                _ => prop_assert!(parsed.is_err(), "depth {depth} -> {parsed:?}"),
            }
        }
    }

    /// The parent's `parse_line_dims` body, verbatim: the whole line
    /// through `serde_json` and the `WireMsg` derive. The oracle the
    /// one-pass reader is compared against.
    fn serde_oracle(line: &str, dims: usize) -> Result<Request, String> {
        let msg: WireMsg = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
        match msg.op.as_str() {
            "arrive" => {
                let mut demand = [0u64; MAX_DIMS];
                match (msg.size, msg.demand) {
                    (Some(_), Some(_)) => {
                        return Err("arrive takes size or demand, not both".to_string())
                    }
                    (Some(size), None) => {
                        if dims != 1 {
                            return Err(format!(
                                "demand_arity: scalar size is 1-dimensional, daemon expects {dims} \
                                 components (send \"demand\":[..])"
                            ));
                        }
                        if size == 0 {
                            return Err("arrive needs a positive size".to_string());
                        }
                        demand[0] = size;
                    }
                    (None, Some(vec)) => {
                        if vec.len() != dims {
                            return Err(format!(
                                "demand_arity: demand has {} components, daemon expects {dims}",
                                vec.len()
                            ));
                        }
                        if vec.iter().all(|&c| c == 0) {
                            return Err("arrive needs a nonzero demand".to_string());
                        }
                        demand[..dims].copy_from_slice(&vec);
                    }
                    (None, None) => return Err("arrive needs a size or demand".to_string()),
                }
                Ok(Request::Arrive {
                    id: msg.id,
                    at: msg.at,
                    demand,
                })
            }
            "depart" => Ok(Request::Depart {
                id: msg.id,
                at: msg.at,
            }),
            "ping" => Ok(Request::Ping { id: msg.id }),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    #[test]
    fn both_client_spellings_take_the_one_pass_reader() {
        // The benchmark's compact lines and Python's `json.dumps` default
        // separators, and a reordered, unevenly spaced line.
        for line in [
            r#"{"op":"arrive","id":1,"at":2,"size":5}"#,
            r#"{"op": "arrive", "id": 1, "at": 2, "size": 5}"#,
            r#"{"size": 5, "at": 2, "id": 1, "op": "arrive"}"#,
            r#"{"op": "arrive", "id": 1, "demand": [5, 0, 7]}"#,
            r#"{"op": "depart", "id": 1, "at": 9}"#,
            "\t{ \"op\" :\"ping\" ,\r\n\"id\":7 }  ",
        ] {
            assert!(read_fields(line).is_some(), "{line}");
        }
        // Everything else is the serde path's to read.
        for line in [
            r#"{"op":"\u0070ing","id":1}"#,
            r#"{"op":"ping\,"id":1}"#,
            r#"{"op":"ping","id":1,"x":{"y":[1]}}"#,
            r#"{"op":"ping","id":1,"id":2}"#,
            r#"{"op":"ping","id":01}"#,
            r#"{"op":"ping","id":18446744073709551616}"#,
            r#"{"op":"ping","id":-1}"#,
            r#"{"op":"ping","id":1.0}"#,
            r#"{"op":"ping","id":1e0}"#,
            r#"{"op":"arrive","id":1,"size":null}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"ping","id":1} x"#,
            r#"{"op":"arrive","id":1,"demand":[1,]}"#,
            "",
        ] {
            assert!(read_fields(line).is_none(), "{line}");
        }
    }

    /// Value spellings a generated line draws from. Integers cover leading
    /// zeros, `u64::MAX` and one past it, signs, fractions and exponents.
    const INTS: &[&str] = &[
        "0",
        "1",
        "7",
        "250",
        "00",
        "007",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "-3",
        "-0",
        "1.5",
        "1e3",
        "2E+1",
        "3.0e-1",
    ];
    /// `op` spellings: the three ops, an unknown one, escaped ones, an
    /// empty one and a non-ASCII one.
    const OPS: &[&str] = &[
        r#""arrive""#,
        r#""depart""#,
        r#""ping""#,
        r#""levitate""#,
        r#""\u0070ing""#,
        r#""arr\"ive""#,
        r#""""#,
        "\"p\u{ef}ng\"",
    ];
    /// Values of the wrong type for every known key.
    const ODD: &[&str] = &[
        "null",
        "true",
        r#"{"a":[1,{"b":null}]}"#,
        "[]",
        "[[1]]",
        r#""5""#,
    ];
    /// Keys beside the known five: unknown, escaped, differently cased.
    const KEYS: &[&str] = &["x", r#"\u006fp"#, "Op", "", "sizes"];
    /// Whitespace between tokens; mostly none, as compact clients send.
    const WS: &[&str] = &["", "", "", "", " ", "  ", "\t", "\n", "\r\n"];
    /// What a mutation may insert.
    const NOISE: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', '0', '9', '-', '.', 'e', ' ', 'a', '\u{e9}',
    ];

    /// A request line built from `picks`, a pool of random choices: a
    /// plausible request whose values, keys, key order and whitespace are
    /// then varied, and finally up to two characters deleted or inserted.
    fn generated_line(picks: &[usize]) -> String {
        let mut pool = picks.iter().copied().cycle();
        let mut pick = |n: usize| pool.next().expect("picks is nonempty") % n;
        // Mostly plain small integers; sometimes an edge spelling.
        let int = |pick: &mut dyn FnMut(usize) -> usize| {
            let edge = pick(3) == 0;
            INTS[pick(if edge { INTS.len() } else { 4 })].to_string()
        };
        let mut fields: Vec<(String, String)> = Vec::new();
        let odd_op = pick(4) == 0;
        fields.push((
            "op".into(),
            OPS[pick(if odd_op { OPS.len() } else { 3 })].into(),
        ));
        fields.push(("id".into(), int(&mut pick)));
        if pick(3) > 0 {
            fields.push(("at".into(), int(&mut pick)));
        }
        let spelling = pick(6);
        if spelling == 0 || spelling == 3 {
            fields.push(("size".into(), int(&mut pick)));
        }
        if spelling >= 2 {
            let arity = pick(7);
            let parts: Vec<String> = (0..arity).map(|_| int(&mut pick)).collect();
            fields.push(("demand".into(), format!("[{}]", parts.join(","))));
        }
        if pick(5) == 0 {
            let v = pick(fields.len());
            fields[v].1 = ODD[pick(ODD.len())].into();
        }
        if pick(6) == 0 {
            fields.push((KEYS[pick(KEYS.len())].into(), ODD[pick(ODD.len())].into()));
        }
        if pick(8) == 0 {
            let dup = fields[pick(fields.len())].clone();
            fields.push(dup);
        }
        if pick(8) == 0 {
            fields.swap_remove(pick(fields.len()));
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, pick(i + 1));
        }
        let mut ws = || WS[pick(WS.len())];
        let mut line = String::new();
        line.push_str(ws());
        line.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str(ws());
                line.push(',');
            }
            let (a, b, c) = (ws(), ws(), ws());
            line.push_str(&format!("{a}\"{key}\"{b}:{c}{value}"));
        }
        line.push_str(ws());
        line.push('}');
        line.push_str(ws());
        // Spread whitespace into arrays too, as `json.dumps` does.
        if pick(2) == 0 {
            line = line.replace(',', ", ");
        }
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..pick(3) {
            let at = pick(chars.len() + 1);
            match pick(4) {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 => chars.insert(at, NOISE[pick(NOISE.len())]),
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// One reply field value, biased towards the edges of `u64`.
    fn reply_number(raw: u64) -> u64 {
        match raw % 4 {
            0 => raw % 10,
            1 => u64::MAX - raw % 3,
            _ => raw,
        }
    }

    /// Characters a refusal reason draws from: everything `serde_json`
    /// escapes, U+007F, non-ASCII, and plain text.
    fn reason_char(i: u32) -> char {
        const EXTRA: &[char] = &[
            '"',
            '\\',
            '\u{7f}',
            '\u{e9}',
            '\u{20ac}',
            '\u{1f600}',
            'a',
            ' ',
            '/',
        ];
        if i < 0x20 {
            char::from_u32(i).expect("a control character")
        } else {
            EXTRA[(i - 0x20) as usize % EXTRA.len()]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The one-pass reader and the serde path agree on every line, at
        /// every daemon dimensionality: the same request or the same
        /// refusal, reason text included.
        #[test]
        fn reader_matches_the_serde_path(
            picks in proptest::collection::vec(0usize..1 << 20, 64),
        ) {
            let line = generated_line(&picks);
            for dims in 1..=MAX_DIMS {
                prop_assert_eq!(
                    parse_line_dims(&line, dims),
                    serde_oracle(&line, dims),
                    "{:?} at dims {}", line, dims
                );
            }
        }

        /// `Reply::to_line` writes exactly the derive's bytes for every
        /// combination of fields, whatever the reason holds.
        #[test]
        fn writer_matches_the_serde_derive(
            present in 0u8..16,
            numbers in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            reason in proptest::collection::vec(0u32..0x20 + 27, 0..24),
        ) {
            let (id, shard, bin) = numbers;
            let reply = Reply {
                ok: present & 1 != 0,
                id: reply_number(id),
                shard: (present & 2 != 0).then(|| reply_number(shard)),
                bin: (present & 4 != 0).then(|| reply_number(bin)),
                reason: (present & 8 != 0).then(|| reason.iter().map(|&i| reason_char(i)).collect()),
            };
            prop_assert_eq!(
                reply.to_line(),
                serde_json::to_string(&reply).expect("reply serializes"),
                "{:?}", reply
            );
        }
    }

    #[test]
    fn reply_bytes_are_pinned_per_shape() {
        assert_eq!(
            Reply::placed(7, 2, 3).to_line(),
            r#"{"ok":true,"id":7,"shard":2,"bin":3}"#
        );
        assert_eq!(
            Reply::ok(u64::MAX, Some(1)).to_line(),
            r#"{"ok":true,"id":18446744073709551615,"shard":1}"#
        );
        assert_eq!(Reply::ok(0, None).to_line(), r#"{"ok":true,"id":0}"#);
        assert_eq!(
            Reply::refused(9, "a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}\u{e9}").to_line(),
            "{\"ok\":false,\"id\":9,\"reason\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\u{7f}\u{e9}\"}"
        );
    }
}
