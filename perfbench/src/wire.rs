//! Request encoding and incremental reply parsing for the open-loop
//! generator. Binary frames use the server crate's public `bin_proto`
//! encoders and decoder; text frames are the documented line protocol.

use std::io;

use sprofile::Tuple;
use sprofile_server::bin_proto::{self, Reply};

/// Which wire encoding a connection speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Newline-delimited text.
    Text,
    /// Length-prefixed binary frames (`serve --proto bin`).
    Bin,
}

impl Proto {
    /// The `--proto` flag value.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Text => "text",
            Proto::Bin => "bin",
        }
    }
}

/// A read query in the reader mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `MODE`.
    Mode,
    /// `TOPK 10`.
    Top10,
    /// `MEDIAN`.
    Median,
    /// `FREQ <id>`.
    Freq(u32),
    /// `CAL <f>`.
    Cal(i64),
}

/// One request on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// A `BATCH` frame of tuples `[start, start + len)` of the stream.
    Frame { start: usize, len: usize },
    /// A single `ADD`/`RM` of stream tuple `idx` (a one-tuple frame in
    /// binary mode, which has no single-tuple opcode).
    Single { idx: usize },
    /// A read query.
    Query(Query),
}

impl Req {
    /// Tuples this request writes.
    pub fn tuples(self) -> usize {
        match self {
            Req::Frame { len, .. } => len,
            Req::Single { .. } => 1,
            Req::Query(_) => 0,
        }
    }

    /// Stream indices this request writes.
    pub fn range(self) -> std::ops::Range<usize> {
        match self {
            Req::Frame { start, len } => start..start + len,
            Req::Single { idx } => idx..idx + 1,
            Req::Query(_) => 0..0,
        }
    }
}

/// Appends the encoding of `req` to `out`.
pub fn encode(proto: Proto, req: Req, stream: &[Tuple], out: &mut Vec<u8>) {
    use std::io::Write as _;
    match (proto, req) {
        (Proto::Text, Req::Frame { start, len }) => {
            let _ = writeln!(out, "BATCH {len}");
            for t in &stream[start..start + len] {
                let _ = writeln!(out, "{} {}", if t.is_add { 'a' } else { 'r' }, t.object);
            }
        }
        (Proto::Text, Req::Single { idx }) => {
            let t = stream[idx];
            let _ = writeln!(out, "{} {}", if t.is_add { "ADD" } else { "RM" }, t.object);
        }
        (Proto::Text, Req::Query(q)) => {
            let _ = match q {
                Query::Mode => writeln!(out, "MODE"),
                Query::Top10 => writeln!(out, "TOPK 10"),
                Query::Median => writeln!(out, "MEDIAN"),
                Query::Freq(x) => writeln!(out, "FREQ {x}"),
                Query::Cal(f) => writeln!(out, "CAL {f}"),
            };
        }
        (Proto::Bin, Req::Frame { .. } | Req::Single { .. }) => {
            bin_proto::put_batch(out, &stream[req.range()]);
        }
        (Proto::Bin, Req::Query(q)) => match q {
            Query::Mode => bin_proto::put_simple(out, bin_proto::REQ_MODE),
            Query::Top10 => bin_proto::put_topk(out, 10),
            Query::Median => bin_proto::put_simple(out, bin_proto::REQ_MEDIAN),
            Query::Freq(x) => bin_proto::put_freq(out, x),
            Query::Cal(f) => bin_proto::put_cal(out, f),
        },
    }
}

/// Parses the reply to `req` from the front of `buf`. `Ok(None)` when
/// the reply is not complete yet; `Ok(Some((consumed, ok)))` when it is,
/// where `ok` is false for an `ERR` or a write acknowledged short.
pub fn parse_reply(proto: Proto, req: Req, buf: &[u8]) -> io::Result<Option<(usize, bool)>> {
    match proto {
        Proto::Bin => {
            let mut rest = buf;
            match bin_proto::read_reply(&mut rest) {
                Ok(reply) => {
                    let ok = match (req, reply) {
                        (_, Reply::Err(_)) => false,
                        (Req::Query(_), _) => true,
                        (_, Reply::Ok(n)) => n as usize == req.tuples(),
                        _ => false,
                    };
                    Ok(Some((buf.len() - rest.len(), ok)))
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
                Err(e) => Err(e),
            }
        }
        Proto::Text => {
            let Some(end) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let line = std::str::from_utf8(&buf[..end])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if line.starts_with("ERR") {
                return Ok(Some((end + 1, false)));
            }
            let ok = match req {
                Req::Frame { len, .. } => line == format!("OK {len}"),
                Req::Single { .. } => line == "OK",
                Req::Query(Query::Top10) => {
                    let n: usize = line
                        .strip_prefix("TOPK ")
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| bad(line))?;
                    // The header announces how many entry lines follow.
                    let mut pos = end + 1;
                    for _ in 0..n {
                        match buf[pos..].iter().position(|&b| b == b'\n') {
                            Some(e) => pos += e + 1,
                            None => return Ok(None),
                        }
                    }
                    return Ok(Some((pos, true)));
                }
                Req::Query(_) => true,
            };
            Ok(Some((end + 1, ok)))
        }
    }
}

fn bad(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply '{line}'"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<Tuple> {
        vec![Tuple::add(3), Tuple::remove(4), Tuple::add(5)]
    }

    #[test]
    fn text_frames_and_singles() {
        let mut out = Vec::new();
        encode(
            Proto::Text,
            Req::Frame { start: 0, len: 2 },
            &stream(),
            &mut out,
        );
        encode(Proto::Text, Req::Single { idx: 1 }, &stream(), &mut out);
        encode(Proto::Text, Req::Query(Query::Top10), &stream(), &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "BATCH 2\na 3\nr 4\nRM 4\nTOPK 10\n"
        );
    }

    #[test]
    fn text_replies_complete_only_with_every_line() {
        let top = Req::Query(Query::Top10);
        assert_eq!(
            parse_reply(Proto::Text, top, b"TOPK 2\n1 5\n").unwrap(),
            None
        );
        assert_eq!(
            parse_reply(Proto::Text, top, b"TOPK 2\n1 5\n2 4\nOK").unwrap(),
            Some((15, true))
        );
        let frame = Req::Frame { start: 0, len: 2 };
        assert_eq!(
            parse_reply(Proto::Text, frame, b"OK 2\n").unwrap(),
            Some((5, true))
        );
        assert_eq!(
            parse_reply(Proto::Text, frame, b"OK 1\n").unwrap(),
            Some((5, false))
        );
        assert_eq!(
            parse_reply(Proto::Text, frame, b"ERR x\n").unwrap(),
            Some((6, false))
        );
        assert_eq!(parse_reply(Proto::Text, frame, b"OK").unwrap(), None);
    }

    #[test]
    fn bin_replies_use_the_public_codec() {
        let frame = Req::Frame { start: 0, len: 3 };
        let mut buf = Vec::new();
        bin_proto::put_ok(&mut buf, 3);
        bin_proto::put_pair(&mut buf, Some((1, 2)));
        assert_eq!(parse_reply(Proto::Bin, frame, &buf[..3]).unwrap(), None);
        assert_eq!(
            parse_reply(Proto::Bin, frame, &buf).unwrap(),
            Some((5, true))
        );
        let mode = Req::Query(Query::Mode);
        assert_eq!(
            parse_reply(Proto::Bin, mode, &buf[5..]).unwrap(),
            Some((14, true))
        );
    }
}
