//! Durable records: how every on-disk format (checkpoints, serve cache
//! entries and spool files, telemetry) reaches the disk and comes back.
//! Records are `\n`-terminated UTF-8 lines. This module owns the
//! mechanics; each caller keeps its own policy for damaged records
//! (DESIGN.md §7, "Durable records").

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// FNV-1a 64 over raw bytes: the content fingerprint behind program
/// hashes and cache keys, and the checksum of [`seal`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.finish()
}

/// [`fnv1a`] as a streaming sink: the bytes fed to it, in pieces or as
/// text through [`fmt::Write`], hash exactly as their concatenation
/// would, so a printer can be hashed without building its output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Appends one record: `line`, then `\n`, then `sync_data`. Once this
/// returns the record survives a kill; a kill during it leaves at most
/// an unterminated prefix.
pub fn append_record(file: &mut File, line: &str) -> io::Result<()> {
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_data()
}

/// One line of a record stream, without its `\n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// The line's text.
    pub text: &'a str,
}

/// How a record stream ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail<'a> {
    /// Every line is terminated (or the stream is empty).
    Complete,
    /// The final line has no `\n`: a kill mid-append, or a record that
    /// lost only its terminator.
    Unterminated(Line<'a>),
}

/// Splits a record stream into its `\n`-terminated lines (empty ones
/// included) and its tail status.
pub fn read_records(text: &str) -> (Vec<Line<'_>>, Tail<'_>) {
    let mut lines = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find('\n') {
        lines.push(Line { number: lines.len() + 1, text: &rest[..at] });
        rest = &rest[at + 1..];
    }
    let tail = match rest {
        "" => Tail::Complete,
        text => Tail::Unterminated(Line { number: lines.len() + 1, text }),
    };
    (lines, tail)
}

/// Closes `covered` with a checksum footer: `open` (e.g. `,"sum":"`),
/// the 16 lowercase hex digits of [`fnv1a`] over `covered`, then `"}`.
pub fn seal(covered: &str, open: &str) -> String {
    format!("{covered}{open}{:016x}\"}}", fnv1a(covered.as_bytes()))
}

/// Checks bytes written by [`seal`] (no line terminator) and returns
/// the covered bytes. Any truncation or bit flip is an error.
pub fn unseal<'a>(sealed: &'a [u8], open: &str) -> Result<&'a [u8], String> {
    let at = sealed
        .windows(open.len())
        .rposition(|w| w == open.as_bytes())
        .ok_or("missing checksum footer")?;
    let (covered, footer) = sealed.split_at(at);
    let sum = fnv1a(covered);
    if footer != format!("{open}{sum:016x}\"}}").as_bytes() {
        return Err(format!("checksum mismatch (computed {sum:016x})"));
    }
    Ok(covered)
}

/// Suffix of [`publish_atomic`]'s staging files, which a crash can leave.
pub const TMP_SUFFIX: &str = ".tmp";

/// `<path>.tmp`, where [`publish_atomic`] stages `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Replaces `path` with `bytes`: write [`tmp_path`], sync, rename, sync
/// the directory. A crash leaves the old file or the new one, plus at
/// most a stray `.tmp` — never a half-written `path`.
pub fn publish_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, path)?;
    // The rename is durable only once its directory entry is.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

/// The first half of `record`, cut back to a char boundary: what a
/// kill in the middle of writing it leaves on disk.
pub fn torn_prefix(record: &str) -> &str {
    &record[..record.floor_char_boundary(record.len() / 2)]
}

/// The `halt:<n>` fault's crash hook: writes the [`torn_prefix`] of
/// `record` to `file`, syncs it and aborts — a kill mid-write, minus
/// the scheduling race of a real SIGKILL.
pub fn crash_torn(file: &mut File, record: &str) -> ! {
    let _ = file.write_all(torn_prefix(record).as_bytes()).and_then(|()| file.sync_data());
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: &str = ",\"sum\":\"";

    fn scratch(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcpart-durable-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn streamed_fnv1a_matches_the_one_shot_hash() {
        use std::fmt::Write as _;
        let text = "func f(v0) {\n  op0: v1 = iconst -3\n}\n";
        let mut h = Fnv1a::default();
        for piece in text.split_inclusive(' ') {
            h.write_str(piece).expect("infallible");
        }
        assert_eq!(h.finish(), fnv1a(text.as_bytes()));
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
        // The published FNV-1a 64 test vector.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = scratch("append");
        let path = dir.join("log.jsonl");
        let mut file = File::create(&path).expect("create");
        for line in ["{\"a\":1}", "", "{\"b\":\"é\"}"] {
            append_record(&mut file, line).expect("append");
        }
        let text = fs::read_to_string(&path).expect("read");
        let (lines, tail) = read_records(&text);
        let lines: Vec<_> = lines.iter().map(|l| (l.number, l.text)).collect();
        assert_eq!(lines, [(1, "{\"a\":1}"), (2, ""), (3, "{\"b\":\"é\"}")]);
        assert_eq!(tail, Tail::Complete);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_yields_the_committed_prefix_and_tail() {
        let recs = ["{\"n\":1}", "{\"n\":22}", "{\"n\":333}"];
        let text: String = recs.iter().map(|r| format!("{r}\n")).collect();
        for cut in 0..=text.len() {
            let (lines, tail) = read_records(&text[..cut]);
            let committed = text[..cut].matches('\n').count();
            let got: Vec<_> = lines.iter().map(|l| l.text).collect();
            assert_eq!(got, recs[..committed], "cut at {cut}");
            let rest = &text[..cut][text[..cut].rfind('\n').map_or(0, |at| at + 1)..];
            let want = if rest.is_empty() {
                Tail::Complete
            } else {
                Tail::Unterminated(Line { number: committed + 1, text: rest })
            };
            assert_eq!(tail, want, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_record_is_rejected() {
        let sealed = seal("{\"run\":1,\"counters\":{\"admitted\":2}", OPEN);
        assert_eq!(
            unseal(sealed.as_bytes(), OPEN),
            Ok("{\"run\":1,\"counters\":{\"admitted\":2}".as_bytes())
        );
        for at in 0..sealed.len() {
            for bit in 0..8 {
                let mut bytes = sealed.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                assert!(unseal(&bytes, OPEN).is_err(), "flip of bit {bit} at byte {at} passed");
            }
        }
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed.as_bytes()[..cut], OPEN).is_err(), "truncation at {cut} passed");
        }
    }

    #[test]
    fn the_crash_hooks_torn_prefix_is_never_a_valid_record() {
        for covered in ["{}", "{\"k\":\"ü\"}", "{\"reason\":\"日本語のテキスト\",\"n\":12345}"]
        {
            let sealed = seal(covered, OPEN);
            let torn = torn_prefix(&sealed);
            assert!(torn.len() < sealed.len() && sealed.starts_with(torn));
            assert!(unseal(torn.as_bytes(), OPEN).is_err(), "torn {torn:?} unsealed");
            // Appended after a committed record, it reads back as an
            // unterminated tail, never as a committed line.
            let text = format!("{sealed}\n{torn}");
            let (lines, tail) = read_records(&text);
            assert_eq!(lines.len(), 1);
            assert_eq!(tail, Tail::Unterminated(Line { number: 2, text: torn }));
        }
    }

    #[test]
    fn publish_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = scratch("publish");
        let path = dir.join("latest.json");
        publish_atomic(&path, b"old\n").expect("publish");
        publish_atomic(&path, b"new\n").expect("republish");
        assert_eq!(fs::read(&path).expect("read"), b"new\n");
        assert_eq!(tmp_path(&path), dir.join("latest.json.tmp"));
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
