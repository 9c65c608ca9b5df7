//! Newline-delimited JSON framing, shared by every socket protocol in the
//! workspace.
//!
//! The sweep service (`numadag-serve`) proved this framing: every message is
//! one compact JSON value on one line (compact serialization never emits raw
//! newlines — string contents are escaped), so reading frames is reading
//! lines. This module hoists that layer out of the service so the
//! multi-process executor (`numadag-proc`) speaks the same wire format, and
//! hardens it against hostile or truncated input:
//!
//! * lines longer than an explicit limit are rejected as
//!   [`FrameError::Oversized`] instead of buffering without bound,
//! * EOF in the middle of a line is [`FrameError::Truncated`], distinct from
//!   the clean EOF between frames (`Ok(None)`),
//! * invalid UTF-8 is [`FrameError::InvalidUtf8`] instead of a panic or a
//!   lossy re-decode.
//!
//! A line decodes through [`from_line`], whose [`DecodeError`] says whether
//! the line is not JSON (the conversation's framing is lost) or is JSON its
//! type refused (the conversation goes on). No message is built as a tree.
//!
//! Integers cross the line exactly: the codec writes every integer type
//! in exact decimal and reads a plain integer back into its own type at any
//! length, so fingerprints, seeds and byte counters travel as plain JSON
//! numbers.

use std::io::{BufRead, Read, Write};

pub use serde::DecodeError;
use serde::{Deserialize, Serialize};

/// Default per-frame size limit: generous enough for a full-scale report or
/// trace payload embedded in one line, small enough to bound a hostile
/// connection's memory.
pub(crate) const DEFAULT_FRAME_LIMIT: usize = 64 * 1024 * 1024;

/// Why a frame could not be read. Every variant poisons the stream — the
/// connection died, holds unread line bytes, or does not speak the protocol —
/// so callers close it.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` io errors).
    Io(std::io::Error),
    /// The line exceeded the frame limit. The rest of the line is still in
    /// the stream, so the connection is unrecoverable — callers must close
    /// it after replying.
    Oversized {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The stream ended in the middle of a line (no terminating newline):
    /// the peer died mid-message.
    Truncated {
        /// Bytes of the incomplete line that were received.
        bytes: usize,
    },
    /// The line is not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Truncated { bytes } => {
                write!(f, "stream ended mid-frame after {bytes} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes a message to its one-line wire form (no trailing newline).
pub fn to_line(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("a String takes any JSON")
}

/// Decodes a message from its wire text — the inverse of [`to_line`], though
/// any JSON spelling of the value (a pretty-printed file) decodes too.
pub fn from_line<T: Deserialize>(line: &str) -> Result<T, DecodeError> {
    serde::decode(line)
}

/// Writes one frame: the compact one-line serialization plus the newline.
pub fn write_frame(writer: &mut impl Write, value: &impl Serialize) -> std::io::Result<()> {
    write_line(writer, to_line(value))
}

/// Writes an already-rendered one-line message as a frame. `line` must not
/// contain a raw newline.
fn write_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    debug_assert!(!line.contains('\n'), "a frame is exactly one line");
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Reads one frame with the `DEFAULT_FRAME_LIMIT`. `Ok(None)` is clean
/// EOF between frames; the returned line has its terminating newline (and
/// any `\r` before it) stripped.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    read_frame_with_limit(reader, DEFAULT_FRAME_LIMIT)
}

/// [`read_frame`] with an explicit per-line byte limit (newline excluded).
pub(crate) fn read_frame_with_limit(
    reader: &mut impl BufRead,
    limit: usize,
) -> Result<Option<String>, FrameError> {
    let mut buf = Vec::new();
    // Read at most limit+1 bytes: a line of exactly `limit` content bytes
    // plus its newline fits; anything longer trips the limit before the
    // buffer can grow unboundedly.
    let take_limit = (limit as u64).saturating_add(1);
    let n = reader
        .by_ref()
        .take(take_limit)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > limit {
        return Err(FrameError::Oversized { limit });
    } else {
        return Err(FrameError::Truncated { bytes: buf.len() });
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| FrameError::InvalidUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], limit: usize) -> Vec<Result<Option<String>, FrameError>> {
        let mut reader = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let result = read_frame_with_limit(&mut reader, limit);
            let stop = !matches!(result, Ok(Some(_)));
            out.push(result);
            if stop {
                break;
            }
        }
        out
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &"Stats".to_string()).unwrap();
        write_frame(&mut wire, &42u64).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Some("\"Stats\"".to_string())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Some("42".to_string()));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn crlf_line_endings_are_stripped() {
        let mut reader = BufReader::new(&b"\"ok\"\r\n"[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), Some("\"ok\"".to_string()));
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        let line = vec![b'x'; 100];
        let mut wire = line.clone();
        wire.push(b'\n');
        // Limit below the line length: rejected.
        let results = read_all(&wire, 10);
        assert!(
            matches!(results[0], Err(FrameError::Oversized { limit: 10 })),
            "{results:?}"
        );
        // Limit exactly the line length: accepted.
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame_with_limit(&mut reader, 100)
                .unwrap()
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn eof_mid_message_is_truncated_not_a_frame() {
        let results = read_all(b"{\"half\":", 1024);
        assert!(
            matches!(results[0], Err(FrameError::Truncated { bytes: 8 })),
            "{results:?}"
        );
        // Clean EOF after a complete frame is Ok(None), not an error.
        let results = read_all(b"\"done\"\n", 1024);
        assert!(matches!(results[0], Ok(Some(_))));
        assert!(matches!(results[1], Ok(None)));
    }

    #[test]
    fn invalid_utf8_is_a_structured_error() {
        let results = read_all(b"\xff\xfe\xfd\n", 1024);
        assert!(
            matches!(results[0], Err(FrameError::InvalidUtf8)),
            "{results:?}"
        );
    }

    #[test]
    fn every_frame_error_displays() {
        for err in [
            FrameError::Io(std::io::Error::other("boom")),
            FrameError::Oversized { limit: 7 },
            FrameError::Truncated { bytes: 3 },
            FrameError::InvalidUtf8,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    /// A derived struct with two plain fields, a `default` and an `Option`
    /// one, and a struct variant beside it.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Row {
        n: u64,
        #[serde(default)]
        d: u64,
        h: u64,
        o: Option<String>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Message {
        Row(Row),
        Move {
            x: f64,
            #[serde(default)]
            fast: bool,
        },
    }

    enum Want {
        Decodes(Message),
        Refused(&'static str),
        NotJson,
    }

    /// The rules a derived decoder keeps, for every kind of field: a
    /// repeated key keeps its first value, an unknown key's value is skipped
    /// however deep, and a line whose first field is refused but which is
    /// not JSON further on is not JSON — a worker drops the conversation on
    /// it instead of answering and reading on.
    #[test]
    fn derived_decoders_keep_first_values_skip_unknown_keys_and_class_broken_lines() {
        use Want::*;
        let row = |members: &str| format!(r#"{{"Row":{{{members}}}}}"#);
        let deep = r#"{"a":[[{"b":[1,{"c":"]}"}]}],{}],"d":null}"#;
        let good_row = || {
            Decodes(Message::Row(Row {
                n: 1,
                d: 2,
                h: 255,
                o: Some("x".to_string()),
            }))
        };
        let good_move = || Decodes(Message::Move { x: 1.5, fast: true });
        let rows = [
            (row(r#""n":1,"d":2,"h":255,"o":"x","n":7"#), good_row()),
            (row(r#""n":1,"d":2,"d":"two","h":255,"o":"x""#), good_row()),
            (row(r#""n":1,"d":2,"h":255,"h":3,"o":"x""#), good_row()),
            (row(r#""n":1,"d":2,"h":255,"o":"x","o":null"#), good_row()),
            (
                r#"{"Move":{"x":1.5,"fast":true,"x":"no"}}"#.to_string(),
                good_move(),
            ),
            (
                row(&format!(r#""u":{deep},"n":1,"d":2,"h":255,"o":"x""#)),
                good_row(),
            ),
            (
                format!(r#"{{"Move":{{"x":1.5,"u":{deep},"fast":true}}}}"#),
                good_move(),
            ),
            (
                row(r#""n":"1","d":2,"h":255,"o":"x""#),
                Refused("Row: Row.n: must be"),
            ),
            (row(r#""n":"1","d":2,"h":255,"o":"x"}"#), NotJson),
            (row(r#""d":"2","n":1,"h":255,"o":"x","#), NotJson),
            (row(r#""h":3,"n":1,"d":2,"o":"x" "y""#), NotJson),
            (row(r#""o":3,"n":1,"d":2,"h":255,"u":01"#), NotJson),
            (r#"{"Move":{"x":"1.5","fast":tru}}"#.to_string(), NotJson),
            (
                r#"{"Move":{"x":"1.5","fast":true}}"#.to_string(),
                Refused("Move.x: must be"),
            ),
        ];
        for (line, want) in rows {
            match (from_line::<Message>(&line), want) {
                (Ok(got), Decodes(want)) => assert_eq!(got, want, "{line}"),
                (Err(DecodeError::Refused(e)), Refused(says)) => {
                    assert!(e.starts_with(says), "{line}: {e}")
                }
                (Err(DecodeError::Syntax(e)), NotJson) => assert!(e.contains("at byte"), "{e}"),
                (got, _) => panic!("{line}: {got:?}"),
            }
        }
    }

    #[test]
    fn write_line_frames_exactly_what_to_line_rendered() {
        let tree = serde_json::from_str(r#"{"Report": {"job": 1, "text": "a\nb"}}"#).unwrap();
        assert_eq!(to_line(&tree), r#"{"Report":{"job":1,"text":"a\nb"}}"#);
        assert_eq!(to_line(&vec![1u8, 2]), "[1,2]");
        let mut wire = Vec::new();
        write_line(&mut wire, to_line(&tree)).unwrap();
        write_frame(&mut wire, &tree).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let (first, second) = text.split_once('\n').unwrap();
        assert_eq!(Some(first), second.strip_suffix('\n'));
    }
}
