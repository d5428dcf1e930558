//! The workloads and the server-side run they share.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sprofile::{SProfile, Tuple};
use sprofile_server::Client;
use sprofile_streamgen::{StreamConfig, StreamGenerator};

use crate::drive::{Conn, Item, Outcome, Status};
use crate::ladder::Ladder;
use crate::procs::ServerProc;
use crate::stats::Summary;
use crate::wire::{Proto, Query, Req};

/// A phase's latency is taken over windows of the phase of at least
/// 1000 samples each, at most this many (see [`Summary::windowed`]).
pub const WINDOWS: usize = 1000;

/// A ladder probe passes when the median window meets the latency
/// limit.
pub const GATE_Q: f64 = 0.5;

/// The reported latencies are the lower quartile over windows of each
/// window's percentile: a host stall only ever adds latency, and on a
/// shared host it hits whole stretches of a run, so the quieter windows
/// show the system's own latency.
pub const REPORT_Q: f64 = 0.25;

/// Write p99 limit for `sustained_tuples_per_s` (µs), and the backlog
/// a phase may leave before it counts as growing.
pub const LIMIT_US: f64 = 5_000.0;

/// Probes of a ladder rung before it counts as failed.
pub const PROBE_TRIES: usize = 2;

/// Tuples per `BATCH` frame; every 8th chunk goes as single writes
/// instead (the mix `sprofile loadgen` sends).
pub const FRAME: usize = 64;

/// The core loops' small universe: its profile (~0.5 MiB) fits in the
/// 4 MiB per-core L2 of the reference host.
pub const M_SMALL: u32 = 1 << 14;
/// The core loops' large universe: its profile is tens of MiB, many
/// times any per-core cache.
pub const M_LARGE: u32 = 1 << 21;

/// One workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Server universe size.
    pub m: u32,
    /// The stream the server is fed, built from the seed.
    pub stream: fn(u32, u64) -> StreamConfig,
    /// Whether the core loops also run the baselines and check their
    /// checksums against S-Profile's; such an in-process workload times
    /// profile construction as its set-up, not server spawns.
    pub baselines: bool,
    /// Wire protocol (`serve --proto`).
    pub proto: Proto,
    /// Reader-connection query rate (queries/s) under the `.hi` load.
    pub read_rate: f64,
    /// The `.lo` fixed offered rate (tuples/s).
    pub lo_rate: f64,
    /// The `.hi` fixed offered rate (tuples/s).
    pub hi_rate: f64,
    /// Rates the sustained-rate search may answer with.
    pub ladder: Ladder,
}

fn zipf(m: u32, seed: u64) -> StreamConfig {
    StreamConfig::zipf(m, 1.1, seed)
}

/// The streams the in-process core loops run on, on every workload:
/// the paper's Stream1 and Stream2 at both universes.
pub fn paper_streams(seed: u64) -> Vec<(String, u32, StreamConfig)> {
    let mut v = Vec::new();
    for m in [M_SMALL, M_LARGE] {
        v.push((format!("stream1/m={m}"), m, StreamConfig::stream1(m, seed)));
        v.push((format!("stream2/m={m}"), m, StreamConfig::stream2(m, seed)));
    }
    v
}

/// All workloads, by name.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "core_paper",
            // The server side runs the small universe: the sharded
            // backend's MEDIAN merges every shard, O(m) per query.
            m: M_SMALL,
            stream: StreamConfig::stream2,
            baselines: true,
            proto: Proto::Bin,
            read_rate: 2_000.0,
            lo_rate: 100_000.0,
            hi_rate: 500_000.0,
            ladder: Ladder {
                base: 50_000.0,
                step: 1.05,
                rungs: 110,
            },
        },
        Spec {
            name: "text_mixed",
            m: 1 << 16,
            stream: zipf,
            baselines: false,
            proto: Proto::Text,
            read_rate: 1_000.0,
            lo_rate: 50_000.0,
            hi_rate: 100_000.0,
            ladder: Ladder {
                base: 20_000.0,
                step: 1.05,
                rungs: 120,
            },
        },
    ]
}

/// Write requests for `n` tuples from stream index `start`: `FRAME`
/// sized frames, every 8th chunk as single writes.
pub fn write_reqs(start: usize, n: usize) -> Vec<Req> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut chunk = 0;
    while i < n {
        let len = FRAME.min(n - i);
        if chunk % 8 == 7 {
            out.extend((start + i..start + i + len).map(|idx| Req::Single { idx }));
        } else {
            out.push(Req::Frame {
                start: start + i,
                len,
            });
        }
        i += len;
        chunk += 1;
    }
    out
}

/// Schedules `reqs` as a Poisson process of chunks offering `rate`
/// tuples/s. A chunk is one frame, or a run of single writes sent back
/// to back (pipelined, as `sprofile loadgen` sends them); the gap before
/// it is exponential with mean (its tuples) / rate, so arrivals never
/// phase-lock with the server's timers.
pub fn schedule(reqs: &[Req], rate: f64, mix: &mut QueryMix) -> Vec<Item> {
    let single = |r: &Req| matches!(r, Req::Single { .. });
    let mut items = Vec::with_capacity(reqs.len());
    let (mut t, mut k) = (0.0, 0);
    while k < reqs.len() {
        let len = if single(&reqs[k]) {
            reqs[k..].iter().take_while(|r| single(r)).count()
        } else {
            1
        };
        let chunk = &reqs[k..k + len];
        t += mix.exp_gap(chunk.iter().map(|r| r.tuples()).sum::<usize>() as f64 / rate);
        let due = Duration::from_secs_f64(t);
        items.extend(chunk.iter().map(|&req| Item { due, req }));
        k += len;
    }
    items
}

/// Reader-connection queries, a Poisson process at `rate` per second,
/// for `secs`.
pub fn read_schedule(rate: f64, secs: f64, mix: &mut QueryMix) -> Vec<Item> {
    let mut items = Vec::new();
    let mut t = mix.exp_gap(1.0 / rate);
    while t < secs {
        items.push(Item {
            due: Duration::from_secs_f64(t),
            req: Req::Query(mix.next_query()),
        });
        t += mix.exp_gap(1.0 / rate);
    }
    items
}

/// The seeded choices of a run: the reader's cycle `MODE`, `TOPK 10`,
/// `MEDIAN`, `FREQ`, `CAL` (with `FREQ` objects and `CAL` thresholds),
/// and the arrival gaps.
pub struct QueryMix {
    state: u64,
    m: u32,
    turn: usize,
}

impl QueryMix {
    /// A mix over universe `m`.
    pub fn new(m: u32, seed: u64) -> QueryMix {
        QueryMix {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            m,
            turn: 0,
        }
    }

    fn rand(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next query of the cycle.
    pub fn next_query(&mut self) -> Query {
        self.turn += 1;
        match self.turn % 5 {
            1 => Query::Mode,
            2 => Query::Top10,
            3 => Query::Median,
            4 => Query::Freq((self.rand() % u64::from(self.m)) as u32),
            _ => Query::Cal(1 + (self.rand() % 4) as i64),
        }
    }

    /// An exponential gap with the given mean (s).
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        let u = ((self.rand() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -mean * u.ln()
    }

    /// A seeded object id (for sampled `FREQ` checks).
    pub fn object(&mut self) -> u32 {
        (self.rand() % u64::from(self.m)) as u32
    }
}

/// What one or more open-loop phases observed, merged over their
/// connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// Write (intended send time in s, latency in µs) samples.
    pub write_us: Vec<(f64, f64)>,
    /// Read samples, likewise.
    pub read_us: Vec<(f64, f64)>,
    /// Generator lateness (µs).
    pub late_us: Vec<f64>,
    /// Some connection stopped sending because a reply was overdue
    /// (only ladder probes may stop; see [`Bench::open_phase`]).
    pub aborted: bool,
    /// Replies were still owed more than the latency limit after the
    /// last request was due: the backlog was growing.
    pub growing: bool,
    /// Requests answered with an error or never answered.
    pub failed: u64,
    /// Tuples acknowledged per second over the phase.
    pub achieved: f64,
    /// Phases merged into this one.
    segments: usize,
}

impl Phase {
    /// Write latency, windowed (see [`WINDOWS`]), at quantile `q` over
    /// windows ([`GATE_Q`] or [`REPORT_Q`]).
    pub fn write(&self, q: f64) -> Option<Summary> {
        Summary::windowed(&mut self.write_us.clone(), WINDOWS, q)
    }

    /// Read latency, likewise.
    pub fn read(&self, q: f64) -> Option<Summary> {
        Summary::windowed(&mut self.read_us.clone(), WINDOWS, q)
    }

    /// Generator lateness.
    pub fn late(&self) -> Option<Summary> {
        Summary::of(&mut self.late_us.clone())
    }

    /// Appends a later phase at the same rate: its samples follow this
    /// one's in time order, so windows never straddle the two.
    pub fn extend(&mut self, other: Phase) {
        let offset = self.segments as f64 * 1e6;
        let shift = |v: Vec<(f64, f64)>| v.into_iter().map(move |(t, us)| (t + offset, us));
        self.write_us.extend(shift(other.write_us));
        self.read_us.extend(shift(other.read_us));
        self.late_us.extend(other.late_us);
        self.aborted |= other.aborted;
        self.growing |= other.growing;
        self.failed += other.failed;
        self.segments += 1;
    }
}

/// A live server under one workload, with its connections and the
/// offline oracle of every acknowledged tuple.
pub struct Bench<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The server.
    pub server: ServerProc,
    /// The writer connection, then the reader connection.
    conns: Vec<Conn>,
    feed: StreamGenerator,
    /// Every acknowledged tuple, applied offline.
    pub oracle: SProfile,
    /// Queries for reads and checks.
    pub queries: QueryMix,
    /// Requests sent in every phase so far.
    pub attempted: u64,
    /// Requests failed in every phase so far.
    pub failed: u64,
    /// Tuples acknowledged so far.
    pub acked_tuples: u64,
}

/// The sustained-rate search of a run. A bisection finds the highest
/// rung that passes; from there a staircase probes one rung at a time,
/// a rung up after a pass and a rung down after a failure, so it hovers
/// where the probes pass half the time. Its probes are spread over the
/// run, and the result is the median of the tuples/s acknowledged by
/// the probes that passed: a burst of host noise fails a few probes, and
/// one lucky probe cannot carry the result either.
#[derive(Debug, Default)]
pub struct Search {
    /// The rung the staircase probes next (None before the bisection).
    next: Option<usize>,
    /// Rungs the staircase probed, in order.
    pub rungs: Vec<usize>,
    /// Tuples/s acknowledged by each staircase probe that passed.
    passed: Vec<f64>,
}

impl Search {
    /// Records the outcome of a probe of the next rung (the tuples/s it
    /// acknowledged if it passed) and moves the staircase.
    pub fn step(&mut self, outcome: Option<f64>, rungs: usize) {
        let rung = self.next.expect("the search was started");
        self.rungs.push(rung);
        self.next = Some(match outcome {
            Some(achieved) => {
                self.passed.push(achieved);
                (rung + 1).min(rungs - 1)
            }
            None => rung.saturating_sub(1),
        });
    }

    /// Median tuples/s over the staircase probes that passed (0 if none
    /// did).
    pub fn rate(&self) -> f64 {
        if self.passed.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.passed)
        }
    }

    /// Staircase probes that passed.
    pub fn passes(&self) -> usize {
        self.passed.len()
    }
}

/// Connections: one writer, one reader.
pub const CONNS: usize = 2;

/// Spawns the workload's server on two workers; returns it with the
/// seconds from spawn until it answered.
pub fn start_server(bin: &Path, spec: &Spec) -> io::Result<(ServerProc, f64)> {
    let args: Vec<String> = ["--m", &spec.m.to_string(), "--workers", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    ServerProc::spawn(bin, &args, spec.proto)
}

impl<'a> Bench<'a> {
    /// Wraps a running server; opens the workload's connections.
    pub fn new(spec: &'a Spec, server: ServerProc, seed: u64) -> io::Result<Bench<'a>> {
        let conns = Conn::connect_all(&server.addr, spec.proto, CONNS)?;
        Ok(Bench {
            spec,
            server,
            conns,
            feed: (spec.stream)(spec.m, seed).generator(),
            oracle: SProfile::new(spec.m),
            queries: QueryMix::new(spec.m, seed),
            attempted: 0,
            failed: 0,
            acked_tuples: 0,
        })
    }

    fn take(&mut self, n: usize) -> Vec<Tuple> {
        (&mut self.feed).take(n).map(|e| e.to_tuple()).collect()
    }

    /// Folds a connection's outcome into the totals and the oracle.
    fn absorb(&mut self, tuples: &[Tuple], items: &[Item], out: &Outcome) {
        self.attempted += out.attempted();
        self.failed += out.failed();
        self.acked_tuples += out.acked_tuples;
        for (item, status) in items.iter().zip(&out.status) {
            if *status == Status::Acked {
                self.oracle
                    .apply_all(tuples[item.req.range()].iter().copied());
            }
        }
    }

    /// One open-loop phase: the writer offers `rate` tuples/s for
    /// `secs`; with `reads`, the reader runs its query rate. A
    /// fixed-rate phase (`probe` false) sends every scheduled request,
    /// however late the replies, so a stall shows in its latencies. A
    /// ladder probe stops sending once a reply is ten latency limits
    /// overdue: the rung has failed, and the rest would only queue.
    pub fn open_phase(
        &mut self,
        rate: f64,
        secs: f64,
        reads: bool,
        probe: bool,
    ) -> io::Result<Phase> {
        let spec = self.spec;
        let n = ((rate * secs) as usize).max(FRAME);
        let tuples = self.take(n);
        let writes = schedule(&write_reqs(0, n), rate, &mut self.queries);
        let reads = if reads {
            read_schedule(spec.read_rate, secs, &mut self.queries)
        } else {
            Vec::new()
        };
        let plans = [writes, reads];
        let abort_after = probe.then(|| Duration::from_secs_f64(LIMIT_US * 10.0 / 1e6));
        let drain = Duration::from_secs(20);
        let start = Instant::now() + Duration::from_millis(2);
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&plans)
                .map(|(conn, items)| {
                    let tuples = &tuples;
                    s.spawn(move || conn.open_loop(tuples, items, start, abort_after, drain))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        let mut phase = Phase {
            segments: 1,
            ..Phase::default()
        };
        let (mut acked, mut elapsed) = (0, Duration::ZERO);
        for (items, out) in plans.iter().zip(&outs) {
            acked += out.acked_tuples;
            elapsed = elapsed.max(out.elapsed);
            self.absorb(&tuples, items, out);
            phase.write_us.extend_from_slice(&out.write_us);
            phase.read_us.extend_from_slice(&out.read_us);
            phase.late_us.extend_from_slice(&out.late_us);
            phase.aborted |= out.aborted;
            phase.growing |= out.tail_us > LIMIT_US;
            phase.failed += out.failed();
        }
        phase.achieved = acked as f64 / elapsed.as_secs_f64().max(1e-9);
        let show = |s: Option<Summary>| {
            s.map_or("-".to_string(), |s| {
                format!(
                    "n={}/{} p50={:.0} p99={:.0?} range={:.0?}",
                    s.n, s.windows, s.p50, s.p99, s.p99_range
                )
            })
        };
        eprintln!(
            "perfbench: open {rate:.0}/s for {secs:.2}s: write {} | read {} | late {} | aborted={} growing={} failed={}",
            show(phase.write(GATE_Q)),
            show(phase.read(GATE_Q)),
            show(phase.late()),
            phase.aborted,
            phase.growing,
            phase.failed
        );
        Ok(phase)
    }

    /// Closed loop on every connection for `secs`, `window` requests in
    /// flight on each; returns acknowledged tuples per second.
    pub fn closed_phase(
        &mut self,
        secs: f64,
        cap_per_conn: usize,
        window: usize,
    ) -> io::Result<f64> {
        let k = self.conns.len();
        let tuples = self.take(cap_per_conn * k);
        let plans: Vec<Vec<Item>> = (0..k)
            .map(|c| {
                write_reqs(c * cap_per_conn, cap_per_conn)
                    .into_iter()
                    .map(|req| Item {
                        due: Duration::ZERO,
                        req,
                    })
                    .collect()
            })
            .collect();
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&plans)
                .map(|(conn, items)| {
                    let tuples = &tuples;
                    s.spawn(move || conn.closed_loop(tuples, items, window, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        let mut acked = 0;
        let mut elapsed = Duration::ZERO;
        for (items, out) in plans.iter().zip(&outs) {
            self.absorb(&tuples, items, out);
            acked += out.acked_tuples;
            elapsed = elapsed.max(out.elapsed);
        }
        Ok(acked as f64 / elapsed.as_secs_f64())
    }

    /// One probe of ladder rung `rung`: an open-loop phase at its rate
    /// with the reader running, for `secs` or long enough for 1200 write
    /// requests (a p99 with ten samples beyond it). It passes when the
    /// write p99 meets the limit with no growing backlog and no failures.
    /// The p99 is windowed: the median ([`GATE_Q`]) over the probe's
    /// ~1000-request windows of each window's p99. On a host whose vCPUs
    /// stall for milliseconds at a time, one stall lifts the p99 of a
    /// whole probe past the limit at any rate, so that p99 would measure
    /// the host. Returns the tuples/s acknowledged if it passed.
    fn probe(&mut self, rung: usize, secs: f64) -> io::Result<Option<f64>> {
        let rate = self.spec.ladder.rate(rung);
        let reqs_per_tuple = write_reqs(0, 8 * FRAME).len() as f64 / (8 * FRAME) as f64;
        let secs = secs.max(1200.0 / (rate * reqs_per_tuple));
        let p = self.open_phase(rate, secs, true, true)?;
        let p99 = p.write(GATE_Q).and_then(|w| w.p99).unwrap_or(f64::INFINITY);
        let passed = p99 <= LIMIT_US && !p.aborted && !p.growing && p.failed == 0;
        Ok(passed.then_some(p.achieved))
    }

    /// Starts the sustained-rate search: bisects the ladder for the
    /// highest rung that passes (a rung fails only after
    /// [`PROBE_TRIES`] failed probes), where the staircase then starts.
    pub fn sustained_start(&mut self, secs: f64, search: &mut Search) -> io::Result<()> {
        let mut err = None;
        let best = self.spec.ladder.bisect(|i| {
            if err.is_some() {
                return false;
            }
            for _ in 0..PROBE_TRIES {
                match self.probe(i, secs) {
                    Ok(Some(_)) => return true,
                    Ok(None) => {}
                    Err(e) => {
                        err = Some(e);
                        return false;
                    }
                }
            }
            false
        });
        match err {
            Some(e) => Err(e),
            None => {
                search.next = Some(best.unwrap_or(0));
                Ok(())
            }
        }
    }

    /// `steps` probes of the staircase (see [`Search`]).
    pub fn sustained_steps(
        &mut self,
        secs: f64,
        steps: usize,
        search: &mut Search,
    ) -> io::Result<()> {
        for _ in 0..steps {
            let rung = search.next.expect("the search was started");
            let outcome = self.probe(rung, secs)?;
            search.step(outcome, self.spec.ladder.rungs);
        }
        Ok(())
    }

    /// Makes each connection's buffered writes visible: a read on every
    /// connection is answered only after its pending writes are applied.
    pub fn barrier(&mut self) -> io::Result<()> {
        let items = [Item {
            due: Duration::ZERO,
            req: Req::Query(Query::Mode),
        }];
        for conn in &mut self.conns {
            conn.closed_loop(&[], &items, 1, Instant::now() + Duration::from_secs(1))?;
        }
        Ok(())
    }

    /// Compares the server's answers with the offline oracle.
    pub fn check(&mut self) -> io::Result<Vec<String>> {
        let mut client = self.server.client()?;
        let mut objects: Vec<u32> = (0..64).map(|_| self.queries.object()).collect();
        objects.push(self.oracle.mode().map_or(0, |e| e.object));
        let stats = client.stats().map_err(io::Error::other)?;
        let mut bad = check_against(&mut client, &self.oracle, &objects)?;
        let applied = Client::stats_field(&stats, "applied").unwrap_or(u64::MAX);
        if applied != self.acked_tuples {
            bad.push(format!(
                "applied={applied} but {} tuples were acknowledged",
                self.acked_tuples
            ));
        }
        Ok(bad)
    }

    /// Closes the load connections.
    pub fn close_conns(&mut self) {
        self.conns.clear();
    }
}

fn cerr(e: sprofile_server::ClientError) -> io::Error {
    io::Error::other(e)
}

/// `MODE`/`TOPK 10`/`MEDIAN`/`CAL`/`FREQ` (at `objects`) and the whole
/// frequency array (through a binary `SNAPSHOT`) against `oracle`.
pub fn check_against(
    client: &mut Client,
    oracle: &SProfile,
    objects: &[u32],
) -> io::Result<Vec<String>> {
    let mut bad = Vec::new();
    let mode = client.mode().map_err(cerr)?;
    let want = oracle.mode().map(|e| e.frequency);
    match mode {
        Some((obj, f)) if Some(f) == want && oracle.frequency(obj) == f => {}
        None if want.is_none() => {}
        got => bad.push(format!("MODE {got:?}, oracle mode frequency {want:?}")),
    }
    let top = client.top_k(10).map_err(cerr)?;
    if top != oracle.top_k(10) {
        bad.push(format!("TOPK 10 {top:?} != oracle {:?}", oracle.top_k(10)));
    }
    let median = client.median().map_err(cerr)?;
    if median != oracle.median() {
        bad.push(format!("MEDIAN {median:?} != oracle {:?}", oracle.median()));
    }
    for threshold in [1, 2, oracle.median().unwrap_or(0).max(1) + 1] {
        let got = client.count_at_least(threshold).map_err(cerr)?;
        if got != oracle.count_at_least(threshold) {
            bad.push(format!(
                "CAL {threshold} = {got} != oracle {}",
                oracle.count_at_least(threshold)
            ));
        }
    }
    for &x in objects {
        let got = client.freq(x).map_err(cerr)?;
        if got != oracle.frequency(x) {
            bad.push(format!(
                "FREQ {x} = {got} != oracle {}",
                oracle.frequency(x)
            ));
        }
    }
    let lost = lost_tuples(client, oracle)?;
    if lost != 0 {
        bad.push(format!(
            "{lost} tuples differ between the server's snapshot and the oracle"
        ));
    }
    Ok(bad)
}

/// Sum over objects of |server frequency − oracle frequency|, read
/// from a binary `SNAPSHOT` of the whole profile.
pub fn lost_tuples(client: &mut Client, oracle: &SProfile) -> io::Result<u64> {
    if client.proto() != sprofile_server::WireProto::Bin {
        client.upgrade_bin().map_err(cerr)?;
    }
    let bytes = client.snapshot_fetch().map_err(cerr)?;
    let server = SProfile::from_snapshot_bytes(&bytes).map_err(io::Error::other)?;
    if server.num_objects() != oracle.num_objects() {
        return Err(io::Error::other("snapshot universe differs"));
    }
    Ok((0..oracle.num_objects())
        .map(|x| server.frequency(x).abs_diff(oracle.frequency(x)))
        .sum())
}

/// A fresh scratch directory under the checkout's `.perfbench`.
pub fn work_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(".perfbench").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_eighth_chunk_goes_as_singles() {
        let reqs = write_reqs(0, 8 * FRAME + 10);
        assert_eq!(
            reqs.iter()
                .filter(|r| matches!(r, Req::Frame { .. }))
                .count(),
            8
        );
        assert_eq!(
            reqs.iter()
                .filter(|r| matches!(r, Req::Single { .. }))
                .count(),
            FRAME
        );
        assert_eq!(
            reqs.iter().map(|r| r.tuples()).sum::<usize>(),
            8 * FRAME + 10
        );
        assert_eq!(reqs[7], Req::Single { idx: 7 * FRAME });
    }

    #[test]
    fn staircase_hovers_at_the_threshold() {
        // Rungs below 40 pass, offering 1000 tuples/s per rung.
        let mut search = Search {
            next: Some(35),
            ..Search::default()
        };
        for _ in 0..12 {
            let rung = search.next.unwrap();
            search.step((rung < 40).then_some(1000.0 * rung as f64), 100);
        }
        assert_eq!(search.rungs[..7], [35, 36, 37, 38, 39, 40, 39]);
        // It then alternates 40 (fails) and 39 (passes).
        assert!(search.rungs[5..].iter().all(|&r| r == 39 || r == 40));
        // Passes at 35..=39, then three more at 39: the median of
        // 35, 36, 37, 38, 39, 39, 39, 39 (thousand tuples/s).
        assert_eq!(search.passes(), 8);
        assert_eq!(search.rate(), 38_500.0);
        // The staircase stays on the ladder.
        let mut top = Search {
            next: Some(9),
            ..Search::default()
        };
        top.step(Some(1.0), 10);
        assert_eq!(top.next, Some(9));
        let mut bottom = Search {
            next: Some(0),
            ..Search::default()
        };
        bottom.step(None, 10);
        assert_eq!((bottom.next, bottom.rate()), (Some(0), 0.0));
    }

    #[test]
    fn schedules_offer_the_rate() {
        let reqs = write_reqs(0, 4000 * FRAME);
        let mut q = QueryMix::new(100, 1);
        let items = schedule(&reqs, 64_000.0, &mut q);
        assert_eq!(items.len(), reqs.len());
        assert!(items.windows(2).all(|w| w[0].due <= w[1].due));
        // A run of singles shares one due time.
        let singles: Vec<&Item> = items
            .iter()
            .filter(|i| matches!(i.req, Req::Single { .. }))
            .take(FRAME)
            .collect();
        assert!(singles.iter().all(|i| i.due == singles[0].due));
        // 256 000 tuples at 64 000/s: about 4 s.
        let last = items.last().unwrap().due.as_secs_f64();
        assert!((last - 4.0).abs() < 0.2, "{last}");
        let reads = read_schedule(1000.0, 2.0, &mut q);
        assert!(
            (reads.len() as f64 - 2000.0).abs() < 200.0,
            "{}",
            reads.len()
        );
        assert!(reads.last().unwrap().due < Duration::from_secs(2));
    }
}
