//! Exporters: JSONL event logs, Prometheus text files, CSV — all written
//! atomically (temp file in the target directory, fsync, rename, then fsync
//! of the directory) so neither a crash mid-run nor a power loss right
//! after the rename leaves a truncated or missing artifact behind.

use crate::codec::encode_event;
use crate::metrics::MetricsRegistry;
use dbp_core::probe::ProbeEvent;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Write `bytes` to `path` atomically: the parent directory is created if
/// missing, content goes to a `.tmp` sibling first (flushed to stable
/// storage with fsync), then a rename makes it visible in one step, and
/// finally the parent directory itself is fsynced — without that last step
/// the rename lives only in the page cache, and a power loss could roll the
/// directory back to the old (or no) entry even though the data blocks were
/// synced.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = parent {
        // Directories cannot be opened for writing; a read handle is what
        // fsync-on-directory takes on Unix.
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Render events as JSONL: one externally-tagged JSON object per line,
/// e.g. `{"ItemPlaced":{"at":5,"item":1,"bin":0,"level":12}}`, at any
/// demand dimensionality. One-dimensional vector demands serialize as bare
/// integers, so a `VSize<1>` stream is byte-identical to the scalar
/// stream — the D=1 equivalence suite asserts exactly that. Each line is
/// the event's canonical encoding ([`encode_event`]), the same bytes a
/// journal frame carries.
pub fn events_to_jsonl<Sz: dbp_core::demand::Demand>(
    events: &[dbp_core::probe::GProbeEvent<Sz>],
) -> String {
    let mut out = Vec::new();
    for event in events {
        encode_event(event, &mut out);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the event codec writes UTF-8")
}

/// Parse a JSONL string back into events. Blank lines are skipped; the
/// error names the offending line (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<ProbeEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: ProbeEvent =
            serde_json::from_str(line).map_err(|e| format!("line {}: {:?}", i + 1, e))?;
        events.push(event);
    }
    Ok(events)
}

/// Write events to `path` as JSONL, atomically, at any demand
/// dimensionality.
pub fn write_jsonl<Sz: dbp_core::demand::Demand>(
    path: &Path,
    events: &[dbp_core::probe::GProbeEvent<Sz>],
) -> std::io::Result<()> {
    atomic_write(path, events_to_jsonl(events).as_bytes())
}

/// Read and parse a JSONL event log from disk.
pub fn read_jsonl(path: &Path) -> Result<Vec<ProbeEvent>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_jsonl(&text)
}

/// Write a registry to `path` in Prometheus text format, atomically.
pub fn write_prometheus(path: &Path, registry: &MetricsRegistry) -> std::io::Result<()> {
    atomic_write(path, registry.to_prometheus().as_bytes())
}

/// Serialize any value to pretty JSON and write it atomically.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    text.push('\n');
    atomic_write(path, text.as_bytes())
}

/// Read a JSON file and deserialize it.
pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {:?}", path.display(), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventLog;
    use dbp_core::prelude::*;

    fn sample_events() -> Vec<ProbeEvent> {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let mut log = EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        log.into_events()
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"BinClosed\":{\"at\":1,\"bin\":0,\"open_ticks\":1}}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn atomic_write_creates_dirs_and_file() {
        let dir = std::env::temp_dir().join("dbp_obs_test_export");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/events.jsonl");
        let events = sample_events();
        write_jsonl(&path, &events).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, events);
        // No temp file left behind.
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
