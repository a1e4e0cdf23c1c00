//! The client side of the wire: line connections and answer signatures.
//!
//! Responses are checked by signature — row count plus an
//! order-independent hash of the rows — so the generator never builds a
//! JSON tree for a large answer and its own CPU stays small next to the
//! server's.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use bvq_server::exec::Answer;
use bvq_server::Json;

/// A line-oriented connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// Bytes of every line read so far, newlines included.
    pub bytes_in: u64,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            bytes_in: 0,
        })
    }

    /// Bounds how long [`Conn::recv`] blocks (`None`: forever).
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Reads one line (without its newline).
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.bytes_in += n as u64;
        Ok(self.line.trim_end())
    }

    /// Sends a line and returns the next line that is a response (has
    /// `"ok"`), handing every subscription frame before it to `frame`.
    pub fn call(&mut self, line: &str, mut frame: impl FnMut(&str)) -> io::Result<String> {
        self.send(line)?;
        loop {
            let got = self.recv()?;
            if is_frame(got) {
                frame(got);
            } else {
                return Ok(got.to_string());
            }
        }
    }
}

/// Whether a line is an unsolicited subscription delta frame.
pub fn is_frame(line: &str) -> bool {
    line.starts_with("{\"sub\":")
}

/// An answer's signature: row count and an order-independent hash.
/// Booleans hash their value, textual reports their text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Signature {
    /// Rows in the answer (0 for booleans and reports).
    pub rows: u64,
    /// Wrapping sum of per-row hashes.
    pub hash: u64,
}

impl Signature {
    /// Adds one row.
    pub fn add_row(&mut self, row: &[u64]) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash(row));
    }

    /// The signature of an in-process answer.
    pub fn of_answer(answer: &Answer) -> Signature {
        let mut sig = Signature::default();
        match answer {
            Answer::Rows(rel) => {
                for t in rel.iter() {
                    let row: Vec<u64> = t.as_slice().iter().map(|&e| u64::from(e)).collect();
                    sig.add_row(&row);
                }
            }
            Answer::Boolean(b) => sig.hash = boolean_hash(*b),
            Answer::Text(t) => sig.hash = text_hash(t),
        }
        sig
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn row_hash(row: &[u64]) -> u64 {
    mix(row
        .iter()
        .fold(0x51_7cc1_b727_220a, |h, &e| mix(h ^ e.wrapping_add(0x9e37))))
}

fn boolean_hash(b: bool) -> u64 {
    mix(u64::from(b) + 0xb001)
}

fn text_hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A decoded response header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok:true`: the answer's signature, and for a streamed answer the
    /// row count announced (rows follow on their own lines).
    Ok {
        /// The answer's signature (empty when streamed).
        sig: Signature,
        /// `Some(count)` for a stream header.
        stream: Option<u64>,
    },
    /// `ok:false` with the error code.
    Err(String),
}

/// Decodes a response line. The server always writes `rows` last, so a
/// row-carrying line splits into a small header, parsed as JSON, and a
/// row list scanned without building a tree.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let (head, rows) = match line.find(",\"rows\":") {
        Some(i) => (
            format!("{}}}", &line[..i]),
            Some(&line[i + 8..line.len() - 1]),
        ),
        None => (line.to_string(), None),
    };
    let json = Json::parse(&head).map_err(|e| format!("bad response `{}`: {e}", clip(line)))?;
    if !json.get("ok").is_some_and(Json::is_true) {
        let code = json
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("no error code");
        return Ok(Reply::Err(code.to_string()));
    }
    if json.get("stream").is_some_and(Json::is_true) {
        let count = json.get("count").and_then(Json::as_u64).unwrap_or(0);
        return Ok(Reply::Ok {
            sig: Signature::default(),
            stream: Some(count),
        });
    }
    let mut sig = Signature::default();
    if let Some(rows) = rows {
        scan_rows(rows, &mut sig)?;
    } else if let Some(b) = json.get("boolean").and_then(Json::as_bool) {
        sig.hash = boolean_hash(b);
    } else if let Some(t) = json.get("text").and_then(Json::as_str) {
        sig.hash = text_hash(t);
    }
    Ok(Reply::Ok { sig, stream: None })
}

/// Adds the rows of a `[[e, ...], ...]` list to `sig`.
pub fn scan_rows(list: &str, sig: &mut Signature) -> Result<(), String> {
    let bytes = list.as_bytes();
    let bad = || format!("bad row list `{}`", clip(list));
    if bytes.first() != Some(&b'[') || bytes.last() != Some(&b']') {
        return Err(bad());
    }
    let mut row: Vec<u64> = Vec::new();
    let mut num: Option<u64> = None;
    let mut depth = 0;
    for &b in bytes {
        match b {
            b'[' => {
                depth += 1;
                row.clear();
            }
            b'0'..=b'9' => {
                let digit = u64::from(b - b'0');
                let value = num
                    .unwrap_or(0)
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(digit));
                num = Some(value.ok_or_else(bad)?);
            }
            b',' | b']' => {
                if let Some(v) = num.take() {
                    row.push(v);
                }
                if b == b']' {
                    if depth == 2 {
                        sig.add_row(&row);
                    }
                    depth -= 1;
                }
            }
            _ => return Err(bad()),
        }
    }
    if depth != 0 {
        return Err(bad());
    }
    Ok(())
}

/// Adds the row of a streamed `{"row":[...]}` line to `sig`; `false`
/// when the line is the stream's `done` footer instead.
pub fn scan_stream_line(line: &str, sig: &mut Signature) -> Result<bool, String> {
    match line.strip_prefix("{\"row\":") {
        Some(rest) => {
            let row = rest
                .strip_suffix('}')
                .ok_or_else(|| clip(line).to_string())?;
            scan_rows(&format!("[{row}]"), sig)?;
            Ok(true)
        }
        None if line.starts_with("{\"done\":true") => Ok(false),
        None => Err(format!("unexpected stream line `{}`", clip(line))),
    }
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_relation::Relation;

    #[test]
    fn row_signatures_ignore_order_and_match_in_process_answers() {
        let rel = Relation::from_tuples(2, [[1u32, 2], [3, 4], [0, 7]]);
        let expected = Signature::of_answer(&Answer::Rows(rel));
        let line = r#"{"id":null,"ok":true,"language":"FO","cached":true,"k":2,"count":3,"rows":[[3,4],[0,7],[1,2]]}"#;
        assert_eq!(
            parse_reply(line),
            Ok(Reply::Ok {
                sig: expected,
                stream: None
            })
        );
        let mut swapped = Signature::default();
        scan_rows("[[4,3],[0,7],[1,2]]", &mut swapped).unwrap();
        assert_ne!(swapped, expected, "a different row set must differ");
    }

    #[test]
    fn streams_booleans_reports_and_errors_decode() {
        let header =
            r#"{"id":null,"ok":true,"language":"DATALOG","cached":false,"stream":true,"count":2}"#;
        assert_eq!(
            parse_reply(header),
            Ok(Reply::Ok {
                sig: Signature::default(),
                stream: Some(2)
            })
        );
        let mut sig = Signature::default();
        assert_eq!(scan_stream_line(r#"{"row":[5,6]}"#, &mut sig), Ok(true));
        assert_eq!(
            scan_stream_line(r#"{"done":true,"count":1}"#, &mut sig),
            Ok(false)
        );
        assert_eq!(sig.rows, 1);
        let b =
            parse_reply(r#"{"id":null,"ok":true,"language":"FP","cached":false,"boolean":true}"#);
        assert_eq!(
            b,
            Ok(Reply::Ok {
                sig: Signature::of_answer(&Answer::Boolean(true)),
                stream: None
            })
        );
        let t = parse_reply(r#"{"id":null,"ok":true,"text":"ESO^2 sentence: true\n"}"#);
        let expected = Signature::of_answer(&Answer::Text("ESO^2 sentence: true\n".into()));
        assert!(matches!(t, Ok(Reply::Ok { sig, .. }) if sig == expected));
        let e =
            parse_reply(r#"{"id":null,"ok":false,"error":{"code":"overloaded","message":"x"}}"#);
        assert_eq!(e, Ok(Reply::Err("overloaded".into())));
        assert!(parse_reply("{nope").is_err());
        assert!(is_frame(r#"{"sub":1,"epoch":2,"add":[],"del":[]}"#));
    }
}
