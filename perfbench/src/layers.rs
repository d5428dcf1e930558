//! The traced run's per-layer replays: the workload's own generated
//! tuples pushed through each layer's public functions, with a span
//! around every call (or every chunk of sub-microsecond calls).

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sprofile::{BatchStrategy, SProfile, Tuple};
use sprofile_concurrent::ShardedProfile;
use sprofile_persist::{SyncPolicy, Wal, WalOptions};
use sprofile_replicate::{Applier, ApplierOptions, ApplierStats, ApplySink};
use sprofile_server::{bin_proto, protocol, Client, DurabilityConfig, Server, ServerConfig};

use crate::core::{self, mode_loop, CHUNK};
use crate::report::Metrics;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::wire::{encode, Proto, Query, Req};
use crate::workload::{dir_bytes, write_reqs, QueryMix, Spec};

/// Shards of the server's default sharded backend.
const SHARDS: usize = 8;

fn ns(tr: &Tracer, name: &str) -> f64 {
    tr.ns_per_call(name).unwrap_or(f64::NAN)
}

/// Runs every in-process layer replay over `tuples` and records the
/// per-layer metrics that do not need the live server.
pub fn replay(
    tr: &mut Tracer,
    spec: &Spec,
    seed: u64,
    tuples: &[Tuple],
    work: &Path,
    out: &mut Metrics,
) -> io::Result<()> {
    let m = spec.m;
    core_layer(tr, m, tuples, out);
    baselines_layer(tr, m, &tuples[..tuples.len() / 4], out);
    concurrent_layer(tr, m, tuples, out);
    codec_layer(tr, m, seed, tuples, out);
    persist_layer(tr, m, tuples, &work.join("persist"), out)?;
    replicate_layer(tr, m, tuples, &work.join("replicate"), out)?;
    Ok(())
}

fn core_layer(tr: &mut Tracer, m: u32, tuples: &[Tuple], out: &mut Metrics) {
    let mut p = SProfile::new(m);
    for chunk in tuples.chunks(CHUNK) {
        tr.span("core.update", chunk.len() as u64, || {
            for &t in chunk {
                p.apply(t);
            }
        });
    }
    let reps = (tuples.len() / CHUNK / 4).max(8);
    for _ in 0..reps {
        tr.span("core.mode_query", CHUNK as u64, || {
            for _ in 0..CHUNK {
                std::hint::black_box(p.mode());
            }
        });
        tr.span("core.median_query", CHUNK as u64, || {
            for _ in 0..CHUNK {
                std::hint::black_box(p.median());
            }
        });
        tr.span("core.topk10_query", 16, || {
            for _ in 0..16 {
                std::hint::black_box(p.top_k(10));
            }
        });
    }
    out.put("core.update_ns", ns(tr, "core.update"), "ns");
    out.put("core.mode_query_ns", ns(tr, "core.mode_query"), "ns");
    out.put("core.median_query_ns", ns(tr, "core.median_query"), "ns");
    out.put("core.topk10_query_ns", ns(tr, "core.topk10_query"), "ns");
    let (mut batches, mut rebuilds) = (0u64, 0u64);
    for (batch, name) in [
        (64, "core.apply_batch.b64"),
        (4096, "core.apply_batch.b4096"),
    ] {
        let mut p = SProfile::new(m);
        for chunk in tuples.chunks(batch) {
            batches += 1;
            rebuilds += u64::from(p.batch_strategy(chunk.len()) == BatchStrategy::Rebuild);
            tr.span(name, 1, || p.apply_batch(chunk));
        }
    }
    out.put(
        "core.apply_batch_ns.b64",
        ns(tr, "core.apply_batch.b64"),
        "ns/batch",
    );
    out.put(
        "core.apply_batch_ns.b4096",
        ns(tr, "core.apply_batch.b4096"),
        "ns/batch",
    );
    out.put(
        "core.rebuild_share",
        rebuilds as f64 / batches as f64,
        "fraction",
    );
}

fn baselines_layer(tr: &mut Tracer, m: u32, tuples: &[Tuple], out: &mut Metrics) {
    let mut p = SProfile::new(m);
    let ours_mode = core::timed(tuples, Some(tr), "core.mode_loop", |r| mode_loop(&mut p, r));
    let mut p = SProfile::new(m);
    let ours_median = core::timed(tuples, Some(tr), "core.median_loop", |r| {
        core::median_loop(&mut p, r)
    });
    let base = core::run_baselines(m, tuples, Some(tr));
    out.put(
        "baselines.heap.mode_update_ns",
        base.heap_mode.ns_per_tuple,
        "ns/tuple",
    );
    out.put(
        "baselines.treap.median_update_ns",
        base.treap_median.ns_per_tuple,
        "ns/tuple",
    );
    out.put(
        "baselines.avl.median_update_ns",
        base.avl_median.ns_per_tuple,
        "ns/tuple",
    );
    out.put(
        "baselines.speedup.heap",
        base.heap_mode.ns_per_tuple / ours_mode.ns_per_tuple,
        "x",
    );
    out.put(
        "baselines.speedup.treap",
        base.treap_median.ns_per_tuple / ours_median.ns_per_tuple,
        "x",
    );
}

/// Tracing overhead: the fig3 loop with a span per [`CHUNK`] tuples
/// against the same loop untraced, as a share of the untraced time.
pub fn trace_overhead(m: u32, tuples: &[Tuple]) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut p = SProfile::new(m);
        let t0 = Instant::now();
        for chunk in tuples.chunks(CHUNK) {
            mode_loop(&mut p, chunk);
        }
        plain.push(t0.elapsed().as_secs_f64());
        let mut p = SProfile::new(m);
        let mut tr = Tracer::default();
        let t0 = Instant::now();
        for chunk in tuples.chunks(CHUNK) {
            tr.span("core.mode_loop", chunk.len() as u64, || {
                mode_loop(&mut p, chunk)
            });
        }
        traced.push(t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&traced) / crate::stats::median(&plain) - 1.0
}

fn concurrent_layer(tr: &mut Tracer, m: u32, tuples: &[Tuple], out: &mut Metrics) {
    let sharded = ShardedProfile::new(m, SHARDS);
    for chunk in tuples.chunks(64) {
        tr.span("concurrent.apply.b64", chunk.len() as u64, || {
            sharded.apply_batch(chunk)
        });
    }
    let two = ShardedProfile::new(m, SHARDS);
    let (a, b) = tuples.split_at(tuples.len() / 2);
    tr.span("concurrent.apply.2threads", tuples.len() as u64, || {
        std::thread::scope(|s| {
            for half in [a, b] {
                let two = &two;
                s.spawn(move || {
                    for chunk in half.chunks(64) {
                        two.apply_batch(chunk);
                    }
                });
            }
        })
    });
    // The sharded MEDIAN merges every shard; fewer repetitions suffice.
    let reps = (tuples.len() / CHUNK / 32).max(8);
    for _ in 0..reps {
        tr.span("concurrent.query.mode", 16, || {
            for _ in 0..16 {
                std::hint::black_box(sharded.mode());
            }
        });
        tr.span("concurrent.query.median", 16, || {
            for _ in 0..16 {
                std::hint::black_box(sharded.median());
            }
        });
        tr.span("concurrent.query.topk10", 4, || {
            for _ in 0..4 {
                std::hint::black_box(sharded.top_k(10));
            }
        });
    }
    out.put(
        "concurrent.apply_ns_per_tuple.b64",
        ns(tr, "concurrent.apply.b64"),
        "ns/tuple",
    );
    out.put(
        "concurrent.apply_ns_per_tuple.2threads",
        ns(tr, "concurrent.apply.2threads"),
        "ns/tuple",
    );
    out.put(
        "concurrent.query_ns.mode",
        ns(tr, "concurrent.query.mode"),
        "ns",
    );
    out.put(
        "concurrent.query_ns.median",
        ns(tr, "concurrent.query.median"),
        "ns",
    );
    out.put(
        "concurrent.query_ns.topk10",
        ns(tr, "concurrent.query.topk10"),
        "ns",
    );
}

fn codec_layer(tr: &mut Tracer, m: u32, seed: u64, tuples: &[Tuple], out: &mut Metrics) {
    let reqs = write_reqs(0, tuples.len());
    // Text: every request's lines, split before timing.
    let mut text = Vec::new();
    for &req in &reqs {
        let mut buf = Vec::new();
        encode(Proto::Text, req, tuples, &mut buf);
        let s = String::from_utf8(buf).expect("text frames are utf-8");
        text.push((req.tuples(), s));
    }
    for (n, frame) in &text {
        let lines: Vec<&str> = frame.lines().collect();
        tr.span("server.codec.text.decode", *n as u64, || {
            let head = protocol::parse_request(lines[0]);
            std::hint::black_box(&head);
            for line in &lines[1..] {
                std::hint::black_box(protocol::parse_tuple_line(line).is_ok());
            }
        });
    }
    // Binary: the same requests as frames; decode header and tuples.
    for &req in &reqs {
        let mut frame = Vec::new();
        encode(Proto::Bin, req, tuples, &mut frame);
        tr.span("server.codec.bin.decode", req.tuples() as u64, || {
            let count = u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes"));
            let body = &frame[5..];
            debug_assert_eq!(count as usize * 5, body.len());
            for t in body.chunks_exact(5) {
                std::hint::black_box(bin_proto::get_tuple(t).is_ok());
            }
        });
    }
    // Replies: one per write request plus the reader's query mix, with
    // answers from a profile holding the stream.
    let mut p = SProfile::new(m);
    p.apply_all(tuples.iter().copied());
    let mut mix = QueryMix::new(m, seed);
    let replies: Vec<Req> = reqs
        .iter()
        .flat_map(|&r| [r, Req::Query(mix.next_query())])
        .collect();
    let mut buf = Vec::with_capacity(1 << 12);
    for chunk in replies.chunks(64) {
        buf.clear();
        tr.span("server.codec.bin.encode", chunk.len() as u64, || {
            for &r in chunk {
                bin_reply(&mut buf, r, &p);
            }
        });
        std::hint::black_box(&buf);
    }
    let mut text_buf = String::with_capacity(1 << 12);
    for chunk in replies.chunks(64) {
        text_buf.clear();
        tr.span("server.codec.text.encode", chunk.len() as u64, || {
            for &r in chunk {
                text_reply(&mut text_buf, r, &p);
            }
        });
        std::hint::black_box(&text_buf);
    }
    out.put(
        "server.codec.text.decode_ns_per_tuple",
        ns(tr, "server.codec.text.decode"),
        "ns/tuple",
    );
    out.put(
        "server.codec.text.encode_ns_per_reply",
        ns(tr, "server.codec.text.encode"),
        "ns/reply",
    );
    out.put(
        "server.codec.bin.decode_ns_per_tuple",
        ns(tr, "server.codec.bin.decode"),
        "ns/tuple",
    );
    out.put(
        "server.codec.bin.encode_ns_per_frame",
        ns(tr, "server.codec.bin.encode"),
        "ns/frame",
    );
}

/// The server's binary reply to `req`, through `bin_proto`'s encoders.
fn bin_reply(buf: &mut Vec<u8>, req: Req, p: &SProfile) {
    match req {
        Req::Frame { len, .. } => bin_proto::put_ok(buf, len as u32),
        Req::Single { .. } => bin_proto::put_ok(buf, 1),
        Req::Query(Query::Mode) => {
            bin_proto::put_pair(buf, p.mode().map(|e| (e.object, e.frequency)))
        }
        Req::Query(Query::Top10) => bin_proto::put_topk_reply(buf, &p.top_k(10)),
        Req::Query(Query::Median) => bin_proto::put_median(buf, p.median()),
        Req::Query(Query::Freq(x)) => bin_proto::put_freq_reply(buf, x, p.frequency(x)),
        Req::Query(Query::Cal(f)) => bin_proto::put_cal_reply(buf, p.count_at_least(f)),
    }
}

/// The text reply to `req` in the protocol's documented format. The
/// server renders these inside its connection state machine, which has
/// no public entry point, so this is the wire format's cost as the
/// benchmark renders it, not the server's own code.
fn text_reply(buf: &mut String, req: Req, p: &SProfile) {
    use std::fmt::Write as _;
    let _ = match req {
        Req::Frame { len, .. } => writeln!(buf, "OK {len}"),
        Req::Single { .. } => writeln!(buf, "OK"),
        Req::Query(Query::Mode) => match p.mode() {
            Some(e) => writeln!(buf, "MODE {} {}", e.object, e.frequency),
            None => writeln!(buf, "NONE"),
        },
        Req::Query(Query::Top10) => {
            let top = p.top_k(10);
            let _ = writeln!(buf, "TOPK {}", top.len());
            top.iter().try_for_each(|(o, f)| writeln!(buf, "{o} {f}"))
        }
        Req::Query(Query::Median) => match p.median() {
            Some(f) => writeln!(buf, "MEDIAN {f}"),
            None => writeln!(buf, "NONE"),
        },
        Req::Query(Query::Freq(x)) => writeln!(buf, "FREQ {x} {}", p.frequency(x)),
        Req::Query(Query::Cal(f)) => writeln!(buf, "CAL {}", p.count_at_least(f)),
    };
}

/// `Wal::append` under `SyncPolicy::Always`, one record per write
/// request of the workload's mix (64-tuple frames and single tuples).
fn persist_layer(
    tr: &mut Tracer,
    m: u32,
    tuples: &[Tuple],
    dir: &Path,
    out: &mut Metrics,
) -> io::Result<()> {
    let opts = WalOptions {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::Always,
        ..WalOptions::default()
    };
    let mut wal = Wal::open(opts, 1).map_err(io::Error::other)?;
    let reqs = write_reqs(0, tuples.len());
    // Enough appends for a p99 with ten samples beyond it.
    let appends = reqs.len().min(2000);
    let mut us = Vec::with_capacity(appends);
    let mut logged = 0u64;
    for &req in &reqs[..appends] {
        let t0 = Instant::now();
        tr.span("persist.append", 1, || wal.append(&tuples[req.range()]))
            .map_err(io::Error::other)?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        logged += req.tuples() as u64;
    }
    let fsyncs = wal.metrics().fsyncs();
    drop(wal);
    let s = Summary::of(&mut us).expect("appends were made");
    out.put("persist.append_us.p50", s.p50, "us");
    out.put("persist.append_us.p99", s.p99.unwrap_or(f64::NAN), "us");
    out.put(
        "persist.fsync_per_tuple",
        fsyncs as f64 / logged as f64,
        "fsync/tuple",
    );
    out.put(
        "persist.bytes_per_tuple",
        dir_bytes(dir)? as f64 / logged as f64,
        "B/tuple",
    );
    let t0 = Instant::now();
    let rec = tr
        .span("persist.recover", 1, || sprofile_persist::recover(dir, m))
        .map_err(io::Error::other)?;
    let secs = t0.elapsed().as_secs_f64();
    if rec.replayed_tuples != logged {
        return Err(io::Error::other(format!(
            "recovery replayed {} tuples, {logged} were logged",
            rec.replayed_tuples
        )));
    }
    out.put("persist.recover_s", secs, "s");
    Ok(())
}

/// Counts what a replica applies; keeps the profile it builds.
struct CountingSink {
    profile: SProfile,
    next: u64,
    tuples: Arc<AtomicU64>,
    window: Arc<Mutex<Option<(Instant, Instant)>>>,
}

impl ApplySink for CountingSink {
    fn position(&mut self) -> u64 {
        self.next
    }

    fn epoch(&mut self) -> u64 {
        0
    }

    fn adopt_epoch(&mut self, _epoch: u64) -> Result<(), String> {
        Ok(())
    }

    fn bootstrap(&mut self, lsn: u64, snapshot: &[u8]) -> Result<(), String> {
        self.profile = SProfile::from_snapshot_bytes(snapshot).map_err(|e| e.to_string())?;
        self.next = lsn + 1;
        Ok(())
    }

    fn apply(&mut self, lsn: u64, tuples: &[Tuple]) -> Result<(), String> {
        self.profile.apply_batch(tuples);
        self.next = lsn + 1;
        self.tuples
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        let mut w = self.window.lock().expect("sink window lock poisoned");
        let first = w.map_or(now, |(first, _)| first);
        *w = Some((first, now));
        Ok(())
    }
}

/// An in-process primary (WAL, no fsync, so replication is measured
/// alone) with one in-process applier attached while the workload's
/// tuples arrive in 64-tuple frames.
fn replicate_layer(
    tr: &mut Tracer,
    m: u32,
    tuples: &[Tuple],
    dir: &Path,
    out: &mut Metrics,
) -> io::Result<()> {
    let mut durability = DurabilityConfig::new(dir);
    durability.sync = SyncPolicy::Never;
    let config = ServerConfig {
        m,
        workers: 2,
        flush_every: 1,
        snapshot_dir: dir.to_path_buf(),
        wal: Some(durability),
        ..ServerConfig::default()
    };
    let server = Server::start(config, "127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let applied = Arc::new(AtomicU64::new(0));
    let window = Arc::new(Mutex::new(None));
    let stats = ApplierStats::new();
    let sink = CountingSink {
        profile: SProfile::new(m),
        next: 1,
        tuples: Arc::clone(&applied),
        window: Arc::clone(&window),
    };
    let applier = Applier::spawn(
        ApplierOptions::new(addr.clone()),
        Box::new(sink),
        Arc::clone(&stats),
    );
    let mut client = Client::connect(addr.as_str()).map_err(io::Error::other)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !stats.connected() {
        if Instant::now() > deadline {
            return Err(io::Error::other("in-process applier never attached"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut lag_max = 0u64;
    for chunk in tuples.chunks(64) {
        tr.span("replicate.primary_write", chunk.len() as u64, || {
            client.batch(chunk)
        })
        .map_err(io::Error::other)?;
        lag_max = lag_max.max(stats.lag_lsn());
    }
    let last_ack = Instant::now();
    let stats_line = client.stats().map_err(io::Error::other)?;
    let head = Client::stats_field(&stats_line, "repl_head_lsn").unwrap_or(u64::MAX);
    tr.enter("replicate.catchup", 1);
    while stats.applied_lsn() < head || applied.load(Ordering::Relaxed) < tuples.len() as u64 {
        if Instant::now() > deadline + Duration::from_secs(20) {
            return Err(io::Error::other("in-process applier never caught up"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    tr.exit();
    let catchup = last_ack.elapsed();
    applier.stop();
    let _ = client.quit();
    server.shutdown();
    let (first, last) = window
        .lock()
        .expect("sink window lock poisoned")
        .expect("tuples were applied");
    let span = last
        .saturating_duration_since(first)
        .as_secs_f64()
        .max(1e-6);
    out.put(
        "replicate.apply_tuples_per_s",
        applied.load(Ordering::Relaxed) as f64 / span,
        "tuples/s",
    );
    out.put("replicate.lag_lsn_max", lag_max as f64, "lsn");
    out.put("replicate.catchup_ms", catchup.as_secs_f64() * 1e3, "ms");
    Ok(())
}

/// Sequential `FREQ` round trips on an idle server: p50, p99 (µs).
pub fn idle_rtt(client: &mut Client, n: usize) -> io::Result<Summary> {
    let mut us = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        client.freq(i as u32 % 1024).map_err(io::Error::other)?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(Summary::of(&mut us).expect("n > 0"))
}
