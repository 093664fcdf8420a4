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
pub fn parse_line_dims(line: &str, dims: usize) -> Result<Request, String> {
    assert!(
        (1..=MAX_DIMS).contains(&dims),
        "daemon dims {dims} outside 1..={MAX_DIMS}"
    );
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

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("reply serializes")
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
}
