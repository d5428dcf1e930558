//! Drives one client connection, open loop or closed loop.
//!
//! Open loop: every request has an intended send time fixed before the
//! phase starts; the generator sends it then (or as soon after as it can,
//! recording how late), whether or not earlier replies have arrived, and
//! times each reply from the *intended* send time. A stall therefore
//! charges its wait to every request queued behind it.
//!
//! Closed loop: at most `window` requests in flight; the next goes out
//! when a reply comes back. Only used for the labelled peak metric.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sprofile::Tuple;

use crate::wire::{encode, parse_reply, Proto, Req};

/// How long the open-loop generator sleeps at most when it has nothing to
/// do; replies are observed up to about this much (plus timer slack)
/// late.
const POLL: Duration = Duration::from_micros(20);

/// One request with its intended send time (offset from phase start).
#[derive(Clone, Copy, Debug)]
pub struct Item {
    /// Intended send time, relative to the phase start.
    pub due: Duration,
    /// The request.
    pub req: Req,
}

/// What happened to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Never sent (the phase was cut short).
    Unsent,
    /// Sent, reply not seen.
    InFlight,
    /// Answered correctly.
    Acked,
    /// Answered with `ERR` or a short acknowledgement.
    Failed,
}

/// Everything one driven phase observed on one connection.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Write-request (intended send time in s, latency in µs from it).
    pub write_us: Vec<(f64, f64)>,
    /// Read-query (intended send time in s, latency in µs from it).
    pub read_us: Vec<(f64, f64)>,
    /// How late each request was sent (µs after its intended time).
    pub late_us: Vec<f64>,
    /// Per-item status, parallel to the driven items.
    pub status: Vec<Status>,
    /// The open-loop phase stopped sending because a reply was overdue.
    pub aborted: bool,
    /// From the last request's intended send time to the last reply
    /// (µs): the backlog left when sending stopped.
    pub tail_us: f64,
    /// First send to last reply.
    pub elapsed: Duration,
    /// Tuples acknowledged.
    pub acked_tuples: u64,
}

impl Outcome {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.status.iter().filter(|s| **s != Status::Unsent).count() as u64
    }

    /// Requests answered with an error, or never answered.
    pub fn failed(&self) -> u64 {
        self.status
            .iter()
            .filter(|s| matches!(s, Status::Failed | Status::InFlight))
            .count() as u64
    }
}

/// One client connection speaking `proto`.
pub struct Conn {
    stream: TcpStream,
    proto: Proto,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

impl Conn {
    /// Opens `n` connections back to back, the way a client pool does,
    /// then (binary) sends each the `BIN` upgrade, which servers of
    /// either native protocol accept.
    pub fn connect_all(addr: &str, proto: Proto, n: usize) -> io::Result<Vec<Conn>> {
        let streams = (0..n)
            .map(|_| TcpStream::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        streams
            .into_iter()
            .map(|mut stream| {
                stream.set_nodelay(true)?;
                if proto == Proto::Bin {
                    stream.write_all(b"BIN\n")?;
                    let mut reply = [0u8; 7];
                    stream.read_exact(&mut reply)?;
                    if &reply != b"OK BIN\n" {
                        return Err(io::Error::other("BIN upgrade refused"));
                    }
                }
                Ok(Conn {
                    stream,
                    proto,
                    inbuf: Vec::with_capacity(1 << 16),
                    outbuf: Vec::with_capacity(1 << 16),
                })
            })
            .collect()
    }

    fn record(out: &mut Outcome, item: Item, us: f64, ok: bool, idx: usize) {
        let req = item.req;
        let sample = (item.due.as_secs_f64(), us);
        if matches!(req, Req::Query(_)) {
            out.read_us.push(sample);
        } else {
            out.write_us.push(sample);
            if ok {
                out.acked_tuples += req.tuples() as u64;
            }
        }
        out.status[idx] = if ok { Status::Acked } else { Status::Failed };
    }

    /// Parses every complete reply at the front of the input buffer.
    fn parse_replies(
        &mut self,
        items: &[Item],
        inflight: &mut VecDeque<(usize, Instant)>,
        out: &mut Outcome,
        now: Instant,
    ) -> io::Result<bool> {
        let mut pos = 0;
        let mut progressed = false;
        while let Some(&(idx, t0)) = inflight.front() {
            match parse_reply(self.proto, items[idx].req, &self.inbuf[pos..])? {
                None => break,
                Some((used, ok)) => {
                    pos += used;
                    let us = now.saturating_duration_since(t0).as_nanos() as f64 / 1e3;
                    Self::record(out, items[idx], us, ok, idx);
                    inflight.pop_front();
                    progressed = true;
                }
            }
        }
        if pos == self.inbuf.len() {
            self.inbuf.clear();
        } else if pos > 0 {
            self.inbuf.drain(..pos);
        }
        Ok(progressed)
    }

    /// Reads whatever the socket has without blocking.
    fn read_available(&mut self) -> io::Result<bool> {
        let mut buf = [0u8; 1 << 16];
        let mut got = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `items` at their intended times from `start`. With
    /// `abort_after`, stops sending early if the oldest unanswered
    /// request is older than that (the offered rate is unsustainable);
    /// without it, sends every item. Then waits up to `drain` for the
    /// replies still owed, and fails if they do not come.
    pub fn open_loop(
        &mut self,
        tuples: &[Tuple],
        items: &[Item],
        start: Instant,
        abort_after: Option<Duration>,
        drain: Duration,
    ) -> io::Result<Outcome> {
        self.stream.set_nonblocking(true)?;
        let mut out = Outcome {
            status: vec![Status::Unsent; items.len()],
            ..Outcome::default()
        };
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut next = 0;
        let mut stop = false;
        let mut first_send: Option<Instant> = None;
        let mut last_reply = start;
        let mut send_done_at: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let mut progressed = false;
            while !stop && next < items.len() && start + items[next].due <= now {
                let due_at = start + items[next].due;
                out.late_us
                    .push(now.saturating_duration_since(due_at).as_nanos() as f64 / 1e3);
                encode(self.proto, items[next].req, tuples, &mut self.outbuf);
                inflight.push_back((next, due_at));
                out.status[next] = Status::InFlight;
                first_send.get_or_insert(now);
                next += 1;
                progressed = true;
            }
            if let (Some(&(_, t0)), Some(limit)) = (inflight.front(), abort_after) {
                if !stop && now.saturating_duration_since(t0) > limit {
                    stop = true;
                    out.aborted = true;
                }
            }
            if (stop || next == items.len()) && send_done_at.is_none() {
                send_done_at = Some(now);
            }
            if !self.outbuf.is_empty() {
                match self.stream.write(&self.outbuf) {
                    Ok(n) => {
                        self.outbuf.drain(..n);
                        progressed |= n > 0;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(e),
                }
            }
            if self.read_available()? {
                let seen = Instant::now();
                if self.parse_replies(items, &mut inflight, &mut out, seen)? {
                    last_reply = seen;
                    progressed = true;
                }
            }
            if let Some(done) = send_done_at {
                if inflight.is_empty() && self.outbuf.is_empty() {
                    break;
                }
                if now.saturating_duration_since(done) > drain {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("{} replies still owed after {drain:?}", inflight.len()),
                    ));
                }
            }
            if !progressed {
                let wait = match items.get(next) {
                    Some(item) if !stop => (start + item.due).saturating_duration_since(now),
                    _ => POLL,
                };
                std::thread::sleep(wait.min(POLL));
            }
        }
        out.elapsed = last_reply.saturating_duration_since(first_send.unwrap_or(start));
        if let Some(last) = items[..next].last() {
            out.tail_us = last_reply
                .saturating_duration_since(start + last.due)
                .as_nanos() as f64
                / 1e3;
        }
        Ok(out)
    }

    /// Sends `items` (their times ignored) keeping at most `window` in
    /// flight, until all are sent or `until` passes, then collects the
    /// outstanding replies.
    pub fn closed_loop(
        &mut self,
        tuples: &[Tuple],
        items: &[Item],
        window: usize,
        until: Instant,
    ) -> io::Result<Outcome> {
        self.stream.set_nonblocking(false)?;
        let mut out = Outcome {
            status: vec![Status::Unsent; items.len()],
            ..Outcome::default()
        };
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut next = 0;
        let first = Instant::now();
        let mut buf = [0u8; 1 << 16];
        loop {
            let now = Instant::now();
            while inflight.len() < window && next < items.len() && now < until {
                encode(self.proto, items[next].req, tuples, &mut self.outbuf);
                inflight.push_back((next, now));
                out.status[next] = Status::InFlight;
                next += 1;
            }
            if !self.outbuf.is_empty() {
                self.stream.write_all(&self.outbuf)?;
                self.outbuf.clear();
            }
            if inflight.is_empty() {
                break;
            }
            // Block until at least one reply is complete.
            while !self.parse_replies(items, &mut inflight, &mut out, Instant::now())? {
                let n = self.stream.read(&mut buf)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                self.inbuf.extend_from_slice(&buf[..n]);
            }
        }
        out.elapsed = first.elapsed();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A text server answering `OK` to every line.
    fn ok_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                line.unwrap();
                w.write_all(b"OK\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn lateness_and_latency_count_from_the_intended_send_time() {
        let (addr, server) = ok_server();
        let tuples = vec![Tuple::add(1); 3];
        let items: Vec<Item> = [0, 20, 80]
            .iter()
            .enumerate()
            .map(|(idx, ms)| Item {
                due: Duration::from_millis(*ms),
                req: Req::Single { idx },
            })
            .collect();
        let mut conn = Conn::connect_all(&addr, Proto::Text, 1).unwrap().remove(0);
        // The phase began 50 ms ago: the first two requests are already
        // ~50 and ~30 ms late, the third is due 30 ms from now.
        let start = Instant::now() - Duration::from_millis(50);
        let wait = Duration::from_secs(5);
        let out = conn.open_loop(&tuples, &items, start, None, wait).unwrap();
        assert_eq!(out.status, vec![Status::Acked; 3]);
        assert_eq!((out.attempted(), out.failed(), out.acked_tuples), (3, 0, 3));
        assert!(out.late_us[0] >= 50_000.0, "{:?}", out.late_us);
        assert!(out.late_us[1] >= 30_000.0, "{:?}", out.late_us);
        assert!(out.late_us[2] < 5_000.0, "{:?}", out.late_us);
        for ((_, latency), late) in out.write_us.iter().zip(&out.late_us) {
            assert!(latency >= late, "latency {latency} < lateness {late}");
        }
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn without_abort_a_stall_is_charged_not_dropped() {
        // A server that stalls 60 ms before it answers anything.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            let mut w = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                line.unwrap();
                w.write_all(b"OK\n").unwrap();
            }
        });
        let tuples = vec![Tuple::add(1); 40];
        let items: Vec<Item> = (0..40)
            .map(|idx| Item {
                due: Duration::from_millis(idx as u64),
                req: Req::Single { idx },
            })
            .collect();
        let mut conn = Conn::connect_all(&addr, Proto::Text, 1).unwrap().remove(0);
        let wait = Duration::from_secs(5);
        let out = conn
            .open_loop(&tuples, &items, Instant::now(), None, wait)
            .unwrap();
        // Every request went out and was answered; the first waited out
        // the stall from its intended send time.
        assert!(!out.aborted);
        assert_eq!(
            (out.attempted(), out.failed(), out.acked_tuples),
            (40, 0, 40)
        );
        assert!(out.write_us[0].1 >= 55_000.0, "{:?}", out.write_us[0]);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn an_overdue_reply_stops_the_open_loop() {
        // A server that reads but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            drop(stream);
        });
        let tuples = vec![Tuple::add(1); 100];
        let items: Vec<Item> = (0..100)
            .map(|idx| Item {
                due: Duration::from_millis(idx as u64),
                req: Req::Single { idx },
            })
            .collect();
        let mut conn = Conn::connect_all(&addr, Proto::Text, 1).unwrap().remove(0);
        let res = conn.open_loop(
            &tuples,
            &items,
            Instant::now(),
            Some(Duration::from_millis(10)),
            Duration::from_millis(50),
        );
        // Sending stopped ~10 ms in; the owed replies never came.
        assert!(res.is_err());
        server.join().unwrap();
    }
}
