//! Write-ahead journal for engine event streams.
//!
//! ## On-disk format
//!
//! ```text
//! +----------------+----------------------------------------------+
//! | magic (8 B)    | "DBPWAL01"                                   |
//! +----------------+----------------------------------------------+
//! | frame 0        | len: u32 LE | crc: u32 LE | payload: len B   |
//! | frame 1        | ...                                          |
//! +----------------+----------------------------------------------+
//! ```
//!
//! Each frame's payload is one [`ProbeEvent`] in the same externally-tagged
//! single-line JSON the JSONL exporter emits, so `dbp trace` and every JSONL
//! consumer understand a decoded journal directly. `crc` is the CRC-32
//! (IEEE 802.3, reflected, polynomial `0xEDB88320`) of the payload bytes,
//! computed slicing-by-8. `len` is at most 2^24; the writer refuses an
//! event whose payload would be longer ([`std::io::ErrorKind::InvalidInput`],
//! nothing written), because the reader would take its frame for a torn
//! tail.
//!
//! ## Canonical payloads and the strict decoder
//!
//! Payloads are written and read by [`crate::codec`], never through a
//! `serde` value tree. The encoding is canonical — exactly the bytes
//! `serde_json::to_string` produces for the event:
//!
//! * `{"Kind":{"at":N,...}}`, fields in declaration order, no whitespace;
//! * integers as unsigned decimals without sign or leading zeros; ids and
//!   counts typed `u32` must fit in `u32`;
//! * demands as a bare integer at `D = 1`, as `[a,b,..]` of exactly `D`
//!   components otherwise;
//! * `Violation.message` with only the escapes `\"`, `\\`, `\n`, `\r`,
//!   `\t` and lowercase `\u00xx` for other control characters, every other
//!   character raw UTF-8;
//! * a drop reason as its quoted variant name, e.g. `"QueueFull"`.
//!
//! The decoder accepts only that form: a payload decodes to an event `e`
//! only if encoding `e` gives back the same bytes. A CRC-valid payload in
//! any other spelling — valid JSON or not — is an "undecodable event
//! despite valid CRC" error wherever it sits in the file, since no honest
//! append writes it. User-supplied JSONL files (`dbp trace`) are read
//! with the tolerant `serde_json` reader instead.
//!
//! ## Format v2 — vector demands
//!
//! Journals of multi-dimensional streams open with `"DBPWAL02"` followed
//! by one **dims byte** (the demand dimensionality, `2 ..= 255`); frames
//! are unchanged except that demand fields serialize as JSON arrays.
//! One-dimensional journals keep the v1 header and bare-number demands —
//! [`VSize<1>`](dbp_core::demand::VSize) serializes exactly like the
//! scalar [`Size`] — so every byte a scalar run journals is identical to
//! the same run at `D = 1`, and v1 journals replay unchanged. Readers check the file's dimensionality against the
//! requested demand type and reject mismatches with a typed arity error
//! instead of truncating or panicking.
//!
//! ## Torn-tail tolerance
//!
//! The writer appends frames sequentially and never seeks, so a crash —
//! including SIGKILL and power loss — can corrupt **only the final frame**:
//! a partial header, a partial payload, or a complete-looking frame whose
//! CRC fails because some of its sectors never hit the disk. The reader
//! therefore distinguishes two situations:
//!
//! * damage at the very end of the file → a *torn tail*: the sound prefix
//!   is returned together with a [`TornTail`] describing what was dropped
//!   (truncate-and-warn; **never** a panic);
//! * a bad CRC with more bytes after it → real mid-file corruption, which
//!   honest appends cannot produce → a hard error. So is a CRC-valid
//!   payload that does not decode, even in the final frame.
//!
//! ## Reading
//!
//! [`read_journal`] and [`parse_journal`] run one frame walk. It reads
//! the stream in fixed 256 KiB chunks and checks and decodes each frame
//! while the chunk holding it is still in cache. A frame that straddles a
//! chunk boundary moves to the front of the buffer before the next read;
//! a frame longer than a chunk grows the buffer for that frame only. The
//! reader's memory is one chunk plus the decoded events, whose vector is
//! reserved once from the file length over a lower bound on the frame
//! length. Whether a CRC-failing frame is the final one is learned by
//! reading past it.
//!
//! ## Durability policy
//!
//! The writer encodes each frame in place into one 64 KiB buffer and
//! hands the buffer to the file in one `write` once it fills, so a
//! journaled run pays about one syscall per thousand records.
//! [`FsyncPolicy`] decides when the buffer is also written out early and
//! forced to stable storage:
//!
//! * `Always` writes out and fsyncs each record before `append` returns,
//!   so neither a SIGKILL nor an OS crash loses a record whose append
//!   returned.
//! * `EveryN(n)` writes out and fsyncs every `n` records; `Never` never
//!   fsyncs and leaves flushing to the OS. A SIGKILL loses at most the
//!   unwritten buffer, under 64 KiB of trailing records; an OS crash may
//!   also lose what the OS had not flushed since the last fsync. Either
//!   way only a tail is lost: the file stays a sound prefix, possibly
//!   ending in a torn frame.
//!
//! [`JournalWriter::sync`], [`JournalWriter::finish`] and dropping the
//! writer (a panic unwinding through a shard, an interrupted run) write the
//! buffer out first.

use crate::codec::{decode_event, encode_event, MIN_PAYLOAD_LEN};
use crate::span::StageAggregator;
use dbp_core::demand::Demand;
use dbp_core::item::Size;
use dbp_core::probe::{GProbeEvent, Probe};

#[allow(unused_imports)] // doc links
use dbp_core::probe::ProbeEvent;
use dbp_core::span::{stage, SpanRecorder};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every scalar (one-dimensional) journal file
/// (format version 01).
pub const JOURNAL_MAGIC: &[u8; 8] = b"DBPWAL01";

/// Magic bytes opening a vector journal (format version 02); followed by
/// one dims byte before the first frame.
pub const JOURNAL_MAGIC_V2: &[u8; 8] = b"DBPWAL02";

/// Upper bound on a sane frame payload; a length field beyond this is
/// corruption, not a real record.
const MAX_FRAME_LEN: u32 = 1 << 24;

/// Bytes the reader asks the file for at a time (see "Reading" in the
/// module docs).
const READ_CHUNK_LEN: usize = 256 * 1024;

/// A lower bound on every frame's length: its header and
/// [`MIN_PAYLOAD_LEN`].
const MIN_FRAME_LEN: usize = 8 + MIN_PAYLOAD_LEN;

/// Bytes of encoded frames [`JournalWriter`] gathers before one `write`
/// hands them to the file (see "Durability policy" in the module docs).
const WRITE_BUFFER_LEN: usize = 64 * 1024;

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile
/// time: `table[0]` is the classic byte-at-a-time table, and `table[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the register with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of `bytes` — the checksum scheme of zip/PNG/ethernet.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When the journal writer forces records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsyncPolicy {
    /// Never fsync explicitly; the OS flushes on its own schedule. An OS
    /// crash may lose trailing records (a process crash does not).
    Never,
    /// Fsync after every record — maximum durability, maximum latency.
    Always,
    /// Fsync after every `n` records (`n ≥ 1`).
    EveryN(u32),
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `never`, `always`, or a positive integer `n`
    /// meaning [`FsyncPolicy::EveryN`]`(n)`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "never" => Ok(FsyncPolicy::Never),
            "always" => Ok(FsyncPolicy::Always),
            _ => match s.parse::<u32>() {
                Ok(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "invalid fsync policy {s:?}: expected `always`, `never`, or a positive count"
                )),
            },
        }
    }
}

/// `create_dir_all(dir)` says "File exists" when a component of `dir` is
/// a regular file; name the nearest existing ancestor that is not a
/// directory instead.
fn not_a_directory(dir: &Path) -> Option<std::io::Error> {
    let file = dir.ancestors().find(|a| a.exists())?;
    let msg = format!("{} is not a directory", file.display());
    (!file.is_dir()).then(|| std::io::Error::new(std::io::ErrorKind::NotADirectory, msg))
}

/// Appends length-prefixed, CRC-framed [`ProbeEvent`] records to a journal
/// file. See the module docs for the format and the durability policy.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    /// Frames not yet written to `file`, each encoded in place: header
    /// placeholder, payload, then the header patched over the placeholder.
    /// Written out once it holds `WRITE_BUFFER_LEN` bytes.
    buf: Vec<u8>,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    records: u64,
    /// Optional span recorder: when set, every append is wrapped in a
    /// `journal_append` span with policy-due fsyncs nested as
    /// `journal_fsync`. `None` (the default) keeps the write path free of
    /// clock reads.
    spans: Option<StageAggregator>,
}

impl JournalWriter {
    /// Create (truncating) a journal at `path`, writing the v1 magic
    /// header (one-dimensional demands). Parent directories are created as
    /// needed.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<JournalWriter> {
        JournalWriter::create_dims(path, policy, 1)
    }

    /// Create a journal for `dims`-dimensional demands: the v1 header when
    /// `dims == 1` (byte-identical to a scalar journal), the v2 header
    /// plus dims byte otherwise. The header reaches the file before this
    /// returns.
    ///
    /// # Panics
    /// Panics unless `1 ≤ dims ≤ 255`.
    pub fn create_dims(
        path: &Path,
        policy: FsyncPolicy,
        dims: usize,
    ) -> std::io::Result<JournalWriter> {
        assert!(
            (1..=255).contains(&dims),
            "journal dims must be in 1..=255, got {dims}"
        );
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(|e| not_a_directory(parent).unwrap_or(e))?;
        }
        let mut file = fs::File::create(path)?;
        if dims == 1 {
            file.write_all(JOURNAL_MAGIC)?;
        } else {
            file.write_all(&[&JOURNAL_MAGIC_V2[..], &[dims as u8]].concat())?;
        }
        Ok(JournalWriter {
            file,
            buf: Vec::with_capacity(WRITE_BUFFER_LEN),
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            records: 0,
            spans: None,
        })
    }

    /// Attach a span recorder: subsequent appends record `journal_append`
    /// spans with nested `journal_fsync` spans for policy-due syncs.
    pub fn set_spans(&mut self, spans: StageAggregator) {
        self.spans = Some(spans);
    }

    /// Detach and return the span recorder, if one was attached.
    pub fn take_spans(&mut self) -> Option<StageAggregator> {
        self.spans.take()
    }

    /// Append one event as a framed record, honoring the fsync policy.
    /// Generic over the demand type — the caller is responsible for
    /// matching the dimensionality declared in the header (the engine's
    /// journal plumbing pins both to the same `Sz`).
    ///
    /// An event whose payload would exceed the reader's frame cap (only a
    /// huge `Violation` message can) is refused with
    /// [`std::io::ErrorKind::InvalidInput`] and nothing is written: the
    /// reader would take such a frame for a torn tail, and a repair would
    /// then truncate every record after it.
    pub fn append<Sz: Demand>(&mut self, event: &GProbeEvent<Sz>) -> std::io::Result<()> {
        if let Some(sp) = &mut self.spans {
            sp.enter(stage::JOURNAL_APPEND);
        }
        let result = self.append_inner(event);
        if let Some(sp) = &mut self.spans {
            sp.exit();
        }
        result
    }

    fn append_inner<Sz: Demand>(&mut self, event: &GProbeEvent<Sz>) -> std::io::Result<()> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        encode_event(event, &mut self.buf);
        let len = self.buf.len() - start - 8;
        if len > MAX_FRAME_LEN as usize {
            self.buf.truncate(start);
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} event encodes to {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap",
                    event.kind()
                ),
            ));
        }
        let crc = crc32(&self.buf[start + 8..]);
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
        self.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
        };
        if due {
            self.sync()
        } else if self.buf.len() >= WRITE_BUFFER_LEN {
            self.write_out()
        } else {
            Ok(())
        }
    }

    /// Hand the buffered frames to the file in one `write_all`. The buffer
    /// is emptied even on error: a partial write cannot be retried without
    /// duplicating bytes.
    fn write_out(&mut self) -> std::io::Result<()> {
        let result = self.file.write_all(&self.buf);
        self.buf.clear();
        // Give back what one oversized frame grew; a no-op in steady state.
        self.buf.shrink_to(2 * WRITE_BUFFER_LEN);
        result
    }

    /// Write the buffered frames out and fsync the file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if let Some(sp) = &mut self.spans {
            sp.enter(stage::JOURNAL_FSYNC);
        }
        let result = self.write_out().and_then(|()| self.file.sync_all());
        if let Some(sp) = &mut self.spans {
            sp.exit();
        }
        result?;
        self.unsynced = 0;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write out, fsync, and close; returns the total record count.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.sync()?;
        Ok(self.records)
    }
}

impl Drop for JournalWriter {
    /// Crash-path safety net: a writer dropped without [`finish`]
    /// (a panic unwinding through a shard worker, an interrupted run)
    /// still writes its buffered frames out and fsyncs them, so the
    /// on-disk prefix is always `dbp recover`-clean. Errors are swallowed
    /// — there is no caller left to report them to, and [`finish`] remains
    /// the path that surfaces them.
    ///
    /// [`finish`]: JournalWriter::finish
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.sync();
        }
    }
}

/// A [`Probe`] that journals every event as it is emitted. I/O errors are
/// latched (the engine's probe seam cannot propagate them mid-run) and
/// surfaced by [`JournalProbe::finish`]; after the first error no further
/// writes are attempted.
#[derive(Debug)]
pub struct JournalProbe {
    writer: JournalWriter,
    error: Option<std::io::Error>,
}

impl JournalProbe {
    /// Journal to a fresh v1 (one-dimensional) file at `path`.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<JournalProbe> {
        JournalProbe::create_dims(path, policy, 1)
    }

    /// Journal to a fresh `dims`-dimensional file at `path` (see
    /// [`JournalWriter::create_dims`]).
    pub fn create_dims(
        path: &Path,
        policy: FsyncPolicy,
        dims: usize,
    ) -> std::io::Result<JournalProbe> {
        Ok(JournalProbe {
            writer: JournalWriter::create_dims(path, policy, dims)?,
            error: None,
        })
    }

    /// Wrap an existing writer (e.g. one positioned after a recovered
    /// prefix).
    pub fn from_writer(writer: JournalWriter) -> JournalProbe {
        JournalProbe {
            writer,
            error: None,
        }
    }

    /// Close the journal: the record count on success, the first latched
    /// I/O error otherwise.
    pub fn finish(self) -> std::io::Result<u64> {
        match self.error {
            Some(e) => Err(e),
            None => self.writer.finish(),
        }
    }

    /// Attach a span recorder to the underlying writer (see
    /// [`JournalWriter::set_spans`]).
    pub fn set_spans(&mut self, spans: StageAggregator) {
        self.writer.set_spans(spans);
    }

    /// Detach and return the underlying writer's span recorder, if any.
    pub fn take_spans(&mut self) -> Option<StageAggregator> {
        self.writer.take_spans()
    }
}

impl<Sz: Demand> Probe<Sz> for JournalProbe {
    fn record(&mut self, event: GProbeEvent<Sz>) {
        if self.error.is_none() {
            if let Err(e) = self.writer.append(&event) {
                self.error = Some(e);
            }
        }
    }
}

/// Description of a torn tail frame dropped by the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the start of the damaged frame — the length a repair
    /// should truncate the file to.
    pub sound_len: u64,
    /// What was wrong with the tail.
    pub reason: String,
}

/// Result of reading a journal: the decoded sound prefix, plus a
/// [`TornTail`] when the final frame was damaged. Generic over the demand
/// type; the scalar model uses the [`JournalContents`] alias.
#[derive(Debug)]
pub struct GJournalContents<Sz> {
    /// Events decoded from intact frames, in write order.
    pub events: Vec<GProbeEvent<Sz>>,
    /// Present when the file ends in a damaged frame (crash mid-append).
    pub torn: Option<TornTail>,
}

/// The scalar journal contents of the source paper's model.
pub type JournalContents = GJournalContents<Size>;

impl<Sz> GJournalContents<Sz> {
    /// Whether the journal ended cleanly (no torn tail).
    pub fn is_clean(&self) -> bool {
        self.torn.is_none()
    }
}

/// Decode the journal header: `(dims, header_len)`. A v1 magic is one
/// dimension; a v2 magic carries an explicit dims byte. A file too short
/// to hold its header is reported as a zero-length torn tail via `Ok(None)`;
/// a wrong magic (or a v2 dims byte of 0 or 1, which the writer never
/// emits) is a hard error.
fn parse_header(bytes: &[u8]) -> Result<Option<(usize, usize)>, String> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        return Ok(None);
    }
    let magic = &bytes[..JOURNAL_MAGIC.len()];
    if magic == JOURNAL_MAGIC {
        return Ok(Some((1, JOURNAL_MAGIC.len())));
    }
    if magic == JOURNAL_MAGIC_V2 {
        if bytes.len() < JOURNAL_MAGIC.len() + 1 {
            return Ok(None); // dims byte never made it to disk
        }
        let dims = bytes[JOURNAL_MAGIC.len()] as usize;
        if dims < 2 {
            return Err(format!(
                "v2 journal declares {dims} dimension(s); the writer only \
                 emits v2 headers for 2 or more"
            ));
        }
        return Ok(Some((dims, JOURNAL_MAGIC.len() + 1)));
    }
    Err(format!("not a journal: bad magic {magic:?}"))
}

/// The demand dimensionality a journal byte image declares (1 for v1).
pub fn journal_dims(bytes: &[u8]) -> Result<usize, String> {
    match parse_header(bytes)? {
        Some((dims, _)) => Ok(dims),
        None => Err("file shorter than the journal header".to_string()),
    }
}

/// The demand dimensionality a journal file declares, read from its
/// header alone.
pub fn peek_journal_dims(path: &Path) -> Result<usize, String> {
    let mut bytes = [0u8; 9];
    let n = fs::File::open(path)
        .and_then(|mut f| {
            let mut read = 0;
            while read < bytes.len() {
                let got = f.read(&mut bytes[read..])?;
                if got == 0 {
                    break;
                }
                read += got;
            }
            Ok(read)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    journal_dims(&bytes[..n])
}

/// A window onto a journal byte stream: `buf[pos..filled]` holds the
/// stream's bytes from offset `base + pos` on that the walk has not
/// consumed yet.
struct Window<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// Buffer length between frames; see [`READ_CHUNK_LEN`].
    chunk_len: usize,
}

impl<R: Read> Window<R> {
    fn new(src: R, chunk_len: usize) -> Window<R> {
        Window {
            src,
            buf: Vec::new(),
            pos: 0,
            filled: 0,
            base: 0,
            chunk_len,
        }
    }

    /// The unconsumed bytes in the buffer.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..self.filled]
    }

    /// Stream offset of the next unconsumed byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Buffer at least `n` unconsumed bytes, or every byte the stream has
    /// left if that is fewer; returns how many are buffered.
    #[inline(always)]
    fn fill(&mut self, n: usize) -> std::io::Result<usize> {
        let have = self.filled - self.pos;
        if have >= n {
            return Ok(have);
        }
        self.refill(n)
    }

    /// Move the unconsumed bytes to the front, size the buffer to one
    /// chunk (or to `n`, for a frame longer than a chunk; a later refill
    /// shrinks it back), and read until `n` bytes are buffered or the
    /// stream ends.
    #[inline(never)]
    fn refill(&mut self, n: usize) -> std::io::Result<usize> {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.base += self.pos as u64;
        self.filled -= self.pos;
        self.pos = 0;
        let len = n.max(self.chunk_len);
        self.buf.resize(len, 0);
        self.buf.shrink_to(len);
        while self.filled < n {
            match self.src.read(&mut self.buf[self.filled..]) {
                Ok(0) => break,
                Ok(got) => self.filled += got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.filled)
    }

    /// Consume everything the stream has left; returns how many bytes
    /// that was.
    fn drain(&mut self) -> std::io::Result<u64> {
        let buffered = (self.filled - self.pos) as u64;
        self.pos = self.filled;
        Ok(buffered + std::io::copy(&mut self.src, &mut std::io::sink())?)
    }
}

/// The journal reader: one pass over `src` in [`READ_CHUNK_LEN`] pieces
/// that checks each frame's framing and CRC and decodes its payload while
/// the chunk holding it is still in cache, applying the torn-tail versus
/// mid-file-corruption distinction of the module docs. `len_hint` (the
/// stream's length, if known) sizes the event buffer; `io_err` spells a
/// read error. Never panics.
fn walk<Sz: Demand>(
    src: impl Read,
    len_hint: u64,
    chunk_len: usize,
    io_err: impl Fn(std::io::Error) -> String,
) -> Result<GJournalContents<Sz>, String> {
    // A chunk never needs to outgrow the stream it reads.
    let hint = usize::try_from(len_hint).unwrap_or(usize::MAX);
    let mut w = Window::new(src, chunk_len.min(hint.max(MIN_FRAME_LEN)));
    w.fill(JOURNAL_MAGIC_V2.len() + 1).map_err(&io_err)?;
    let Some((dims, header_len)) = parse_header(w.buffered())? else {
        // Even the header is incomplete: a crash before the header sync.
        return Ok(GJournalContents {
            events: Vec::new(),
            torn: Some(TornTail {
                sound_len: 0,
                reason: "file shorter than the journal header".to_string(),
            }),
        });
    };
    if dims != Sz::DIMS {
        return Err(format!(
            "demand_arity: journal holds {dims}-dimensional demands, \
             reader expected {}",
            Sz::DIMS
        ));
    }
    w.pos += header_len;
    // At most one event per `MIN_FRAME_LEN` bytes: the buffer never
    // regrows. A length the allocator refuses (a sparse file) just skips
    // the hint.
    let mut events = Vec::new();
    let _ = events.try_reserve_exact(hint / MIN_FRAME_LEN);
    loop {
        let frame_start = w.offset();
        macro_rules! torn {
            ($($arg:tt)*) => {
                return Ok(GJournalContents {
                    events,
                    torn: Some(TornTail {
                        sound_len: frame_start,
                        reason: format!($($arg)*),
                    }),
                })
            };
        }
        let have = w.fill(8).map_err(&io_err)?;
        if have == 0 {
            return Ok(GJournalContents { events, torn: None });
        }
        if have < 8 {
            torn!("incomplete frame header ({have} of 8 bytes)");
        }
        let field = |at: usize| {
            let bytes = w.buffered()[at..at + 4].try_into();
            u32::from_le_bytes(bytes.expect("the frame header is buffered"))
        };
        let (len, crc) = (field(0), field(4));
        if len > MAX_FRAME_LEN {
            // A garbage length field. If real frames followed we could not
            // find them anyway (framing is sequential), so this is only
            // recoverable as a tail condition.
            torn!("frame length {len} exceeds the {MAX_FRAME_LEN} cap");
        }
        let frame_len = 8 + len as usize;
        let have = w.fill(frame_len).map_err(&io_err)?;
        if have < frame_len {
            torn!("incomplete frame payload ({} of {len} bytes)", have - 8);
        }
        let payload = &w.buffered()[8..frame_len];
        if crc32(payload) != crc {
            w.pos += frame_len;
            let following = w.drain().map_err(&io_err)?;
            if following == 0 {
                torn!("CRC mismatch in final frame");
            }
            return Err(format!(
                "CRC mismatch in frame at byte {frame_start} with {following} bytes following: \
                 mid-file corruption, refusing to replay"
            ));
        }
        events.push(decode_event::<Sz>(payload).map_err(|e| {
            format!("frame at byte {frame_start}: undecodable event despite valid CRC: {e}")
        })?);
        w.pos += frame_len;
    }
}

/// Decode a journal byte image into `Sz`-demand events. The file's
/// declared dimensionality must equal `Sz::DIMS` — a mismatch is a typed
/// `demand_arity` error, never a truncation. Mid-file corruption is an
/// `Err`; a damaged final frame is tolerated and reported via
/// [`GJournalContents::torn`]. Never panics on any input.
pub fn parse_journal<Sz: Demand>(bytes: &[u8]) -> Result<GJournalContents<Sz>, String> {
    walk(bytes, bytes.len() as u64, READ_CHUNK_LEN, |e| e.to_string())
}

/// Read and decode a journal file with `Sz`-demand events, one chunk at a
/// time. See [`parse_journal`] for the torn-tail / corruption / arity
/// contract.
pub fn read_journal_dims<Sz: Demand>(path: &Path) -> Result<GJournalContents<Sz>, String> {
    let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = fs::File::open(path).map_err(io_err)?;
    let len_hint = file.metadata().map_or(0, |m| m.len());
    walk(file, len_hint, READ_CHUNK_LEN, io_err)
}

/// Read and decode a scalar journal file. See [`parse_journal`] for the
/// torn-tail / corruption contract.
pub fn read_journal(path: &Path) -> Result<JournalContents, String> {
    read_journal_dims::<Size>(path)
}

/// Truncate a journal to the sound prefix its reader found, so that
/// subsequent appends produce a clean file. `torn` is the tail
/// [`parse_journal`] reported for this file; the cut is a frame-level
/// operation, so it works at any dimensionality.
pub fn repair_journal(path: &Path, torn: &TornTail) -> Result<(), String> {
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    file.set_len(torn.sound_len)
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("{}: truncate failed: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::prelude::*;

    fn sample_events() -> Vec<ProbeEvent> {
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let mut log = crate::recorder::EventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        log.into_events()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dbp_obs_journal_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn a_file_in_the_journal_path_is_named() {
        let blocker = tmpfile("not_a_dir");
        fs::write(&blocker, b"").unwrap();
        let err = JournalWriter::create_dims(&blocker.join("sub/x.wal"), FsyncPolicy::Never, 1)
            .expect_err("a journal under a regular file cannot be created");
        assert_eq!(err.kind(), std::io::ErrorKind::NotADirectory);
        assert_eq!(
            err.to_string(),
            format!("{} is not a directory", blocker.display())
        );
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bit-at-a-time CRC-32, the definition the table-driven code must
    /// reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ 0xEDB8_8320
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn oversized_record_is_refused_and_nothing_is_written() {
        let path = tmpfile("oversized.wal");
        let events = sample_events();
        let violation = |len: usize| ProbeEvent::Violation {
            at: Tick(0),
            message: "x".repeat(len),
        };
        let mut empty = Vec::new();
        encode_event(&violation(0), &mut empty);
        // The longest message whose frame the reader still accepts.
        let fits = MAX_FRAME_LEN as usize - empty.len();

        let mut w = JournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        w.append(&events[0]).unwrap();
        let err = w.append(&violation(fits + 1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(w.records(), 1);
        w.append(&violation(fits)).unwrap();
        for ev in &events[1..] {
            w.append(ev).unwrap();
        }
        w.finish().unwrap();

        let back = read_journal(&path).unwrap();
        assert!(back.is_clean());
        assert_eq!(back.events.len(), events.len() + 1);
        assert_eq!(back.events[0], events[0]);
        assert_eq!(back.events[1], violation(fits));
        assert_eq!(back.events[2..], events[1..]);

        // The refusal left no partial frame in the buffer: the file is
        // byte-identical to one whose writer never tried the oversized
        // event.
        let refused = fs::read(&path).unwrap();
        let mut w = JournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        w.append(&events[0]).unwrap();
        w.append(&violation(fits)).unwrap();
        for ev in &events[1..] {
            w.append(ev).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(fs::read(&path).unwrap(), refused);
        fs::remove_file(&path).unwrap();
    }

    /// Appends `n` copies of the sample stream's events, cycling.
    fn append_cycled(w: &mut JournalWriter, n: usize) -> Vec<ProbeEvent> {
        let events: Vec<ProbeEvent> = sample_events().into_iter().cycle().take(n).collect();
        for ev in &events {
            w.append(ev).unwrap();
        }
        events
    }

    #[test]
    fn dropped_writer_leaves_every_appended_record() {
        let path = tmpfile("dropped.wal");
        // Enough records to fill the write buffer a few times over and
        // leave a partly filled one behind at the drop.
        let mut w = JournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        let events = append_cycled(&mut w, 3 * WRITE_BUFFER_LEN / 40 + 7);
        assert!(fs::metadata(&path).unwrap().len() as usize > WRITE_BUFFER_LEN);
        drop(w);
        let back = read_journal(&path).unwrap();
        assert!(back.is_clean());
        assert_eq!(back.events, events);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_without_appends_leaves_a_valid_header() {
        for dims in [1, 3] {
            let path = tmpfile(&format!("empty_d{dims}.wal"));
            let w = JournalWriter::create_dims(&path, FsyncPolicy::Never, dims).unwrap();
            // The header is on disk before any append, finish or drop.
            assert_eq!(journal_dims(&fs::read(&path).unwrap()), Ok(dims));
            drop(w);
            let bytes = fs::read(&path).unwrap();
            let magic = if dims == 1 {
                &JOURNAL_MAGIC[..]
            } else {
                &JOURNAL_MAGIC_V2[..]
            };
            assert_eq!(&bytes[..8], magic);
            assert_eq!(bytes.len(), if dims == 1 { 8 } else { 9 });
            let w = JournalWriter::create_dims(&path, FsyncPolicy::Always, dims).unwrap();
            assert_eq!(w.finish().unwrap(), 0);
            assert_eq!(fs::read(&path).unwrap(), bytes);
            if dims == 1 {
                let back = read_journal(&path).unwrap();
                assert!(back.is_clean() && back.events.is_empty());
            } else {
                use dbp_core::demand::VSize;
                let back = read_journal_dims::<VSize<3>>(&path).unwrap();
                assert!(back.is_clean() && back.events.is_empty());
            }
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn frames_larger_than_the_write_buffer_round_trip() {
        let path = tmpfile("big_frame.wal");
        let events = sample_events();
        let big = |len: usize| ProbeEvent::Violation {
            at: Tick(7),
            message: "y".repeat(len),
        };
        for policy in [FsyncPolicy::Never, FsyncPolicy::EveryN(2)] {
            let mut w = JournalWriter::create(&path, policy).unwrap();
            let mut expected = Vec::new();
            for (k, ev) in events.iter().enumerate() {
                w.append(ev).unwrap();
                expected.push(ev.clone());
                if k % 3 == 0 {
                    let ev = big(WRITE_BUFFER_LEN + 1000 * k);
                    w.append(&ev).unwrap();
                    expected.push(ev);
                }
            }
            assert_eq!(w.finish().unwrap(), expected.len() as u64);
            let back = read_journal(&path).unwrap();
            assert!(back.is_clean());
            assert_eq!(back.events, expected);
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_read_round_trip() {
        let path = tmpfile("round_trip.wal");
        let events = sample_events();
        let mut w = JournalWriter::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        assert_eq!(w.finish().unwrap(), events.len() as u64);
        let back = read_journal(&path).unwrap();
        assert!(back.is_clean());
        assert_eq!(back.events, events);
    }

    #[test]
    fn journal_probe_captures_engine_stream() {
        let path = tmpfile("probe.wal");
        let events = sample_events();
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let mut probe = JournalProbe::create(&path, FsyncPolicy::Never).unwrap();
        simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        assert_eq!(probe.finish().unwrap(), events.len() as u64);
        assert_eq!(read_journal(&path).unwrap().events, events);
    }

    #[test]
    fn journal_spans_attribute_appends_and_fsyncs() {
        let path = tmpfile("spans.wal");
        let events = sample_events();
        let mut w = JournalWriter::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        w.set_spans(StageAggregator::new(0));
        for ev in &events {
            w.append(ev).unwrap();
        }
        let breakdown = w.take_spans().unwrap().finish();
        w.finish().unwrap();
        let appends = breakdown.get(stage::JOURNAL_APPEND).unwrap();
        assert_eq!(appends.count, events.len() as u64);
        let fsyncs = breakdown.get(stage::JOURNAL_FSYNC).unwrap();
        // EveryN(3): one fsync per full group of three appends.
        assert_eq!(fsyncs.count, events.len() as u64 / 3);
        // Fsync time nests inside append time.
        assert!(appends.total_ns >= fsyncs.total_ns);
        // The journal itself is untouched by instrumentation.
        assert_eq!(read_journal(&path).unwrap().events, events);
    }

    #[test]
    fn torn_tail_variants_truncate_and_never_panic() {
        let events = sample_events();
        let path = tmpfile("torn.wal");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.finish().unwrap();
        let clean = fs::read(&path).unwrap();

        // Chop the file at every possible byte boundary: the reader must
        // never error, never panic, and must return a prefix of the events.
        for cut in 0..clean.len() {
            let contents = parse_journal::<Size>(&clean[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut}: torn tail misdiagnosed as corruption: {e}")
            });
            assert!(
                events.starts_with(&contents.events),
                "cut at {cut}: decoded events are not a prefix"
            );
            if cut < clean.len() {
                // Unless the cut landed exactly on a frame boundary the
                // reader reports the tear.
                if contents.torn.is_none() {
                    assert!(contents.events.len() < events.len());
                }
            }
        }

        // Flipping a byte in the *final* frame's payload is a torn tail...
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let contents = parse_journal::<Size>(&flipped).unwrap();
        assert_eq!(contents.events.len(), events.len() - 1);
        let torn = contents.torn.unwrap();
        assert!(torn.reason.contains("CRC"), "{}", torn.reason);

        // ...and repair_journal truncates to the sound prefix.
        fs::write(&path, &flipped).unwrap();
        repair_journal(&path, &torn).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), torn.sound_len);
        let repaired = read_journal(&path).unwrap();
        assert!(repaired.is_clean());
        assert_eq!(repaired.events.len(), events.len() - 1);
    }

    #[test]
    fn midfile_corruption_is_rejected() {
        let events = sample_events();
        let path = tmpfile("midfile.wal");
        let mut w = JournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.finish().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte in the middle of the file (well past the
        // magic + first header, well before the final frame).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = parse_journal::<Size>(&bytes).unwrap_err();
        assert!(err.contains("corruption"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected_and_short_file_is_torn() {
        let err = parse_journal::<Size>(b"NOTAWAL0rest").unwrap_err();
        assert!(err.contains("magic"), "{err}");
        let short = parse_journal::<Size>(b"DBP").unwrap();
        assert!(short.events.is_empty());
        assert!(short.torn.is_some());
    }

    #[test]
    fn vector_journal_round_trips_with_v2_header() {
        use dbp_core::demand::VSize;
        let path = tmpfile("vector_v2.wal");
        let mut b = dbp_core::instance::GInstanceBuilder::new(VSize([10u64, 8, 6]));
        b.add(0, 40, VSize([6, 2, 3]));
        b.add(5, 25, VSize([6, 2, 3]));
        b.add(10, 35, VSize([4, 6, 3]));
        let inst = b.build().unwrap();
        let mut probe = JournalProbe::create_dims(&path, FsyncPolicy::Never, 3).unwrap();
        simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        let n = probe.finish().unwrap();
        assert!(n > 0);

        let bytes = fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], JOURNAL_MAGIC_V2);
        assert_eq!(bytes[8], 3, "dims byte");
        assert_eq!(journal_dims(&bytes).unwrap(), 3);
        assert_eq!(peek_journal_dims(&path).unwrap(), 3);

        let back = read_journal_dims::<VSize<3>>(&path).unwrap();
        assert!(back.is_clean());
        assert_eq!(back.events.len() as u64, n);
        // Replaying through a fresh in-memory log matches event for event.
        let mut log = crate::recorder::GEventLog::new();
        simulate_probed(&inst, &mut FirstFit::new(), &mut log);
        assert_eq!(back.events, log.into_events());
    }

    #[test]
    fn dims_one_journal_keeps_the_v1_bytes() {
        use dbp_core::demand::VSize;
        let scalar_path = tmpfile("d1_scalar.wal");
        let vector_path = tmpfile("d1_vector.wal");
        let mut b = InstanceBuilder::new(10);
        b.add(0, 40, 6);
        b.add(5, 25, 6);
        b.add(10, 35, 4);
        let inst = b.build().unwrap();
        let lifted = inst.map_demand(|s| VSize([s.raw()])).unwrap();

        let mut p = JournalProbe::create(&scalar_path, FsyncPolicy::Never).unwrap();
        simulate_probed(&inst, &mut FirstFit::new(), &mut p);
        p.finish().unwrap();
        let mut p = JournalProbe::create_dims(&vector_path, FsyncPolicy::Never, 1).unwrap();
        simulate_probed(&lifted, &mut FirstFit::new(), &mut p);
        p.finish().unwrap();

        let scalar_bytes = fs::read(&scalar_path).unwrap();
        let vector_bytes = fs::read(&vector_path).unwrap();
        assert_eq!(
            scalar_bytes, vector_bytes,
            "a D=1 vector journal must be byte-identical to the scalar journal"
        );
        // And the v1 file replays through the vector reader (back-compat).
        let back = read_journal_dims::<VSize<1>>(&vector_path).unwrap();
        assert_eq!(
            back.events.len(),
            read_journal(&scalar_path).unwrap().events.len()
        );
    }

    #[test]
    fn arity_mismatch_is_a_typed_error_and_repair_is_arity_blind() {
        use dbp_core::demand::VSize;
        let path = tmpfile("arity.wal");
        let mut b = dbp_core::instance::GInstanceBuilder::new(VSize([10u64, 8]));
        b.add(0, 40, VSize([6, 2]));
        b.add(5, 25, VSize([4, 6]));
        let inst = b.build().unwrap();
        let mut probe = JournalProbe::create_dims(&path, FsyncPolicy::Never, 2).unwrap();
        simulate_probed(&inst, &mut FirstFit::new(), &mut probe);
        probe.finish().unwrap();

        // Reading a 2-D journal as scalar (or as 3-D) is a typed error.
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("demand_arity"), "{err}");
        let err = read_journal_dims::<VSize<3>>(&path).unwrap_err();
        assert!(err.contains("demand_arity"), "{err}");

        // Repair never needs the arity: flip the final payload byte and
        // the v2 file truncates to its sound prefix.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let dropped = read_journal_dims::<VSize<2>>(&path).unwrap().torn.unwrap();
        assert!(dropped.reason.contains("CRC"), "{}", dropped.reason);
        repair_journal(&path, &dropped).unwrap();
        let repaired = read_journal_dims::<VSize<2>>(&path).unwrap();
        assert!(repaired.is_clean());
    }

    /// The whole-image reader the chunked walk replaced, kept as its
    /// oracle: framing, CRC and decode checked over one in-memory image.
    fn whole_image_parse<Sz: Demand>(bytes: &[u8]) -> Result<GJournalContents<Sz>, String> {
        let Some((dims, header_len)) = parse_header(bytes)? else {
            return Ok(GJournalContents {
                events: Vec::new(),
                torn: Some(TornTail {
                    sound_len: 0,
                    reason: "file shorter than the journal header".to_string(),
                }),
            });
        };
        if dims != Sz::DIMS {
            return Err(format!(
                "demand_arity: journal holds {dims}-dimensional demands, \
                 reader expected {}",
                Sz::DIMS
            ));
        }
        let mut events = Vec::new();
        let mut pos = header_len;
        loop {
            if pos == bytes.len() {
                return Ok(GJournalContents { events, torn: None });
            }
            let frame_start = pos;
            macro_rules! torn {
                ($($arg:tt)*) => {
                    return Ok(GJournalContents {
                        events,
                        torn: Some(TornTail {
                            sound_len: frame_start as u64,
                            reason: format!($($arg)*),
                        }),
                    })
                };
            }
            if bytes.len() - pos < 8 {
                torn!("incomplete frame header ({} of 8 bytes)", bytes.len() - pos);
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            pos += 8;
            if len > MAX_FRAME_LEN {
                torn!("frame length {len} exceeds the {MAX_FRAME_LEN} cap");
            }
            if bytes.len() - pos < len as usize {
                torn!(
                    "incomplete frame payload ({} of {len} bytes)",
                    bytes.len() - pos
                );
            }
            let payload = &bytes[pos..pos + len as usize];
            pos += len as usize;
            if crc32(payload) != crc {
                if pos == bytes.len() {
                    torn!("CRC mismatch in final frame");
                }
                return Err(format!(
                    "CRC mismatch in frame at byte {frame_start} with {} bytes following: \
                     mid-file corruption, refusing to replay",
                    bytes.len() - pos
                ));
            }
            events.push(decode_event::<Sz>(payload).map_err(|e| {
                format!("frame at byte {frame_start}: undecodable event despite valid CRC: {e}")
            })?);
        }
    }

    /// A reader that hands out at most three bytes per `read`, as a pipe
    /// or a slow device may.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(3);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    type Outcome<Sz> = Result<(Vec<GProbeEvent<Sz>>, Option<TornTail>), String>;

    fn outcome<Sz>(read: Result<GJournalContents<Sz>, String>) -> Outcome<Sz> {
        read.map(|c| (c.events, c.torn))
    }

    /// One event of a few frame shapes: short and medium frames, and a
    /// `Violation` whose message outgrows the smaller test chunks.
    fn mixed_event<Sz: Demand>(kind: u8, n: u64, text: &str) -> GProbeEvent<Sz> {
        let at = Tick(n);
        let id = (n % 1000) as u32;
        let size = Sz::from_components(&vec![n % 97 + 1; Sz::DIMS]).unwrap();
        match kind % 5 {
            0 => GProbeEvent::ItemArrived {
                at,
                item: ItemId(id),
                size,
            },
            1 => GProbeEvent::ItemPlaced {
                at,
                item: ItemId(id),
                bin: BinId(id / 3),
                level: size,
            },
            2 => GProbeEvent::BinClosed {
                at,
                bin: BinId(id),
                open_ticks: n,
            },
            3 => GProbeEvent::ItemDropped {
                at,
                item: ItemId(id),
                reason: dbp_core::probe::DropReason::QueueTimeout,
            },
            _ => GProbeEvent::Violation {
                at,
                message: text.to_string(),
            },
        }
    }

    /// The journal image of `events`, framed as the writer frames them;
    /// also the byte offset each frame starts at.
    fn image<Sz: Demand>(events: &[GProbeEvent<Sz>]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = if Sz::DIMS == 1 {
            JOURNAL_MAGIC.to_vec()
        } else {
            [&JOURNAL_MAGIC_V2[..], &[Sz::DIMS as u8]].concat()
        };
        let mut starts = Vec::new();
        for e in events {
            starts.push(bytes.len());
            let mut payload = Vec::new();
            encode_event(e, &mut payload);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        (bytes, starts)
    }

    /// Every damage the property applies to a clean image: none, a cut at
    /// `cut`, a bit flipped at `flip` anywhere, and one in the final frame.
    fn damaged(bytes: &[u8], starts: &[usize], cut: usize, flip: usize) -> Vec<Vec<u8>> {
        let mut out = vec![bytes.to_vec(), bytes[..cut % (bytes.len() + 1)].to_vec()];
        let mut flipped = bytes.to_vec();
        flipped[flip % bytes.len()] ^= 1 << (flip % 8);
        out.push(flipped);
        if let Some(&last) = starts.last() {
            let mut flipped = bytes.to_vec();
            flipped[last + flip % (bytes.len() - last)] ^= 1 << (flip % 8);
            out.push(flipped);
        }
        out
    }

    /// The chunked walk reads every damaged image exactly as the
    /// whole-image oracle does — events, torn-tail offset and reason, and
    /// error text — at every chunk length and whatever sizes `read` hands
    /// back.
    fn walk_matches_the_oracle<Sz: Demand>(
        draws: &[(u8, u64, usize)],
        cut: usize,
        flip: usize,
    ) -> Result<(), proptest::TestCaseError> {
        let events: Vec<GProbeEvent<Sz>> = draws
            .iter()
            .map(|&(k, n, len)| {
                let text: String = "ab\"\n\u{1}é".chars().cycle().take(len).collect();
                mixed_event(k, n, &text)
            })
            .collect();
        let (bytes, starts) = image(&events);
        // Chunks shorter than any frame, a boundary a few bytes into the
        // second frame, and the production length.
        let mut chunks = vec![1, 7, 8, 9, 64, READ_CHUNK_LEN];
        if let Some(&second) = starts.get(1) {
            chunks.push(second + 3);
        }
        for bytes in damaged(&bytes, &starts, cut, flip) {
            let oracle = outcome(whole_image_parse::<Sz>(&bytes));
            proptest::prop_assert_eq!(&outcome(parse_journal::<Sz>(&bytes)), &oracle);
            for &chunk in &chunks {
                let hint = bytes.len() as u64;
                let got = outcome(walk::<Sz>(&bytes[..], hint, chunk, |e| e.to_string()));
                proptest::prop_assert_eq!(&got, &oracle, "chunk {}", chunk);
                let got = outcome(walk::<Sz>(Trickle(&bytes), hint, chunk, |e| e.to_string()));
                proptest::prop_assert_eq!(&got, &oracle, "trickled, chunk {}", chunk);
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn chunked_walk_matches_the_whole_image_oracle(
            draws in proptest::collection::vec(
                (0u8..5, 0u64..u64::MAX, 0usize..150),
                0..12,
            ),
            cut in 0usize..4096,
            flip in 0usize..4096,
        ) {
            walk_matches_the_oracle::<Size>(&draws, cut, flip)?;
            walk_matches_the_oracle::<dbp_core::demand::VSize<2>>(&draws, cut, flip)?;
        }
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("64").unwrap(), FsyncPolicy::EveryN(64));
        assert!(FsyncPolicy::parse("0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
