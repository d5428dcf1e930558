//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <core_paper|text_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds `sprofile` from the checkout,
//! generates the workload's inputs from the seed, measures, checks every
//! answer against an offline `SProfile`, and prints as its last line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a
//! run with spans around every call into a layer) with `--trace 1`. The
//! line before it is the run's provenance. Exit status 1 on any
//! correctness mismatch or error. `perfbench/LEDGER.md` maps each
//! per-layer metric to the end-to-end metrics it should move.

mod core;
mod drive;
mod ladder;
mod layers;
mod procs;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sprofile::SProfile;

use crate::procs::{build_sprofile, ServerProc};
use crate::report::{Json, Metrics};
use crate::stats::{median, quantile, Summary};
use crate::trace::Tracer;
use crate::workload::{specs, start_server, work_dir, Bench, Spec, CONNS, M_LARGE, M_SMALL};

/// Tuples per core-loop repetition.
const CORE_REP: usize = 50_000;
/// Core-loop repetitions per sample point.
const CORE_ROUNDS: usize = 15;
/// Segments of the fixed-rate phases; a sample point follows each phase.
const SEGMENTS: usize = 5;
/// Staircase probes of the sustained-rate search after every segment
/// but the first, which the search's bisection follows.
const STAIR_STEPS: usize = 3;
/// Length of a sustained-rate probe, as a share of `--seconds`.
const PROBE_SHARE: f64 = 0.02;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run found.
struct Outcome {
    metrics: Metrics,
    provenance: Vec<(String, Json)>,
    mismatches: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a current directory");
    match run(&args, &root) {
        Ok(out) => {
            for m in &out.mismatches {
                eprintln!("perfbench: MISMATCH {m}");
            }
            let correct = out.mismatches.is_empty();
            let mut prov = out.provenance;
            prov.push(("mismatches".into(), Json::Num(out.mismatches.len() as f64)));
            println!(
                "{}",
                Json::Obj(vec![("provenance".into(), Json::Obj(prov))]).render()
            );
            let result = Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
                ("failed".into(), Json::Num(out.failed as f64)),
                ("metrics".into(), out.metrics.to_json()),
            ]);
            println!("{}", result.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `git rev-parse HEAD`, or, in a checkout that is not a git
/// repository, an FNV-1a digest of the workspace sources.
fn source_id(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(o) = git {
        if o.status.success() {
            return String::from_utf8_lossy(&o.stdout).trim().to_string();
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-fnv1a-{h:016x}")
}

fn run(args: &Args, root: &Path) -> io::Result<Outcome> {
    let spec = specs()
        .into_iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| io::Error::other(format!("unknown workload '{}'", args.workload)))?;
    if !root.join("crates").join("cli").is_dir() {
        return Err(io::Error::other("run from the repository root"));
    }
    let bin = build_sprofile(root)?;
    let name = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let work = work_dir(root, &name)?;
    let secs = args.seconds as f64;
    let started = Instant::now();
    let steal0 = cpu_steal();
    let mut prov = provenance(args, &spec, root);
    let mut mismatches = Vec::new();

    // In-process core loops on the paper's streams, sampled at ten
    // points of the run; the baselines' checksums once, here.
    let core_n = (100_000.0 * secs) as usize;
    let base_n = (2_000.0 * secs) as usize;
    let mut streams = Vec::new();
    for (label, m, cfg) in workload::paper_streams(args.seed) {
        let tuples = core::tuples(&cfg, core_n);
        if spec.baselines {
            let prefix = &tuples[..base_n];
            let bt = core::run_baselines(m, prefix, None);
            mismatches.extend(core::checksum_mismatches(&label, m, prefix, &bt));
        }
        streams.push((m, tuples));
    }
    let mut sampler = core::CoreSampler::new(streams, CORE_REP);
    prov.push(("core_tuples_per_stream".into(), Json::Num(core_n as f64)));
    prov.push((
        "baseline_tuples_per_stream".into(),
        Json::Num(base_n as f64),
    ));
    eprintln!(
        "perfbench: core set-up done at {:.1}s",
        started.elapsed().as_secs_f64()
    );

    let (server, setup_s) = setup(&bin, &spec)?;
    let mut tracer = args.trace.then(Tracer::default);
    let mut out = measure(
        args,
        &spec,
        server,
        &work,
        &mut tracer,
        &mut prov,
        &mut sampler,
    )?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, cpu_steal()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        prov.push(("host_steal_share".into(), Json::Num(share)));
    }
    prov.push((
        "core_reps_per_loop".into(),
        Json::Num(sampler.reps() as f64),
    ));
    // The gated core figures come from the cache-resident universe. The
    // large one lives in the host's shared last-level cache, where other
    // tenants' traffic moves it by a third from run to run; it is
    // reported beside them, and as per-layer metrics.
    let [core_mode, core_median, core_batch] = sampler.result(M_SMALL);
    let large = sampler.result(M_LARGE);
    let large_names = [
        "core.large.mode_update_ns",
        "core.large.median_update_ns",
        "core.large.batch_ns_per_tuple",
    ];
    for (name, ns) in large_names.into_iter().zip(large) {
        prov.push((name.into(), Json::Num(ns)));
        out.layer.put(name, ns, "ns/tuple");
    }
    mismatches.append(&mut out.mismatches);

    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("sustained_tuples_per_s", out.sustained, "tuples/s");
    e2e.put("peak_tuples_per_s", out.peak, "tuples/s");
    e2e.put("write_p50_us.lo", out.lo.p50, "us");
    e2e.put("write_p90_us.lo", out.lo.p90, "us");
    e2e.put("write_p50_us.hi", out.hi.p50, "us");
    e2e.put("write_p90_us.hi", out.hi.p90, "us");
    e2e.put("read_p50_us", out.read.p50, "us");
    e2e.put("read_p90_us", out.read.p90, "us");
    e2e.put("rss_mb", out.rss_mib, "MiB");
    e2e.put("core_mode_update_ns", core_mode, "ns/tuple");
    e2e.put("core_median_update_ns", core_median, "ns/tuple");
    e2e.put("core_batch_ns_per_tuple", core_batch, "ns/tuple");
    let metrics = if args.trace { out.layer } else { e2e };
    let missing = metrics.non_finite();
    if !missing.is_empty() {
        return Err(io::Error::other(format!(
            "metrics without a value: {}",
            missing.join(", ")
        )));
    }
    for sub in ["persist", "replicate"] {
        let _ = std::fs::remove_dir_all(work.join(sub));
    }
    Ok(Outcome {
        metrics,
        provenance: prov,
        mismatches,
        attempted: out.attempted,
        failed: out.failed,
    })
}

/// (steal, total) CPU time over all CPUs from `/proc/stat`, in ticks:
/// time the hypervisor ran something else while this host's vCPUs
/// wanted to run.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Host shape, fixed parameters and source of a run.
fn provenance(args: &Args, spec: &Spec, root: &Path) -> Vec<(String, Json)> {
    let num = Json::Num;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), num(nproc as f64)),
        ("server_workers".into(), num(2.0)),
        ("generator_threads".into(), num(CONNS as f64)),
        ("connections".into(), num(CONNS as f64)),
        ("proto".into(), Json::Str(spec.proto.name().into())),
        ("m".into(), num(f64::from(spec.m))),
        ("lo_rate_tuples_per_s".into(), num(spec.lo_rate)),
        ("hi_rate_tuples_per_s".into(), num(spec.hi_rate)),
        ("read_rate_per_s".into(), num(spec.read_rate)),
        ("write_p99_limit_us".into(), num(workload::LIMIT_US)),
        ("ladder_base".into(), num(spec.ladder.base)),
        ("ladder_step".into(), num(spec.ladder.step)),
        ("commit".into(), Json::Str(source_id(root))),
        ("build_profile".into(), Json::Str(profile.into())),
    ]
}

/// Set-up time: for a server workload, spawn to first answer, median
/// of seven spawns, the last of which serves the run; for the
/// in-process workload (the one with baselines), the median of fifteen
/// constructions of its two profiles (its server is spawned outside the
/// timing).
fn setup(bin: &Path, spec: &Spec) -> io::Result<(ServerProc, f64)> {
    if spec.baselines {
        let mut t = Vec::new();
        for _ in 0..15 {
            let t0 = Instant::now();
            let small = SProfile::new(M_SMALL);
            let large = SProfile::new(M_LARGE);
            t.push(t0.elapsed().as_secs_f64());
            std::hint::black_box((small, large));
        }
        let (s, _) = start_server(bin, spec)?;
        return Ok((s, median(&t)));
    }
    let mut t = Vec::new();
    for _ in 0..6 {
        let (s, secs) = start_server(bin, spec)?;
        t.push(secs);
        s.shutdown()?;
    }
    let (s, secs) = start_server(bin, spec)?;
    t.push(secs);
    Ok((s, median(&t)))
}

/// What the measured server phases found.
struct Measured {
    sustained: f64,
    peak: f64,
    /// Writes at the low and high rates, and reads (µs).
    lo: Summary,
    hi: Summary,
    read: Summary,
    rss_mib: f64,
    layer: Metrics,
    mismatches: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// A phase's summary, refused unless every window has a p99 with ten
/// samples beyond it; its sample counts and p99 go to the provenance.
fn need_p99(what: &str, s: Option<Summary>, prov: &mut Vec<(String, Json)>) -> io::Result<Summary> {
    let s = s.ok_or_else(|| io::Error::other(format!("{what}: no samples")))?;
    let p99 = s
        .p99
        .ok_or_else(|| io::Error::other(format!("{what}: {} samples, too few for a p99", s.n)))?;
    prov.push((format!("{what}_samples"), Json::Num(s.n as f64)));
    prov.push((format!("{what}_windows"), Json::Num(s.windows as f64)));
    prov.push((
        format!("{what}_beyond_p99_per_window"),
        Json::Num(s.beyond99 as f64),
    ));
    prov.push((format!("{what}_p99_us"), Json::Num(p99)));
    Ok(s)
}

fn traced<T>(tr: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, 1, f),
        None => f(),
    }
}

/// The server phases, the correctness checks, and (traced) the layer
/// replays. Phases take fixed shares of `--seconds`.
#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    spec: &Spec,
    server: ServerProc,
    work: &Path,
    tr: &mut Option<Tracer>,
    prov: &mut Vec<(String, Json)>,
    core: &mut core::CoreSampler,
) -> io::Result<Measured> {
    let secs = args.seconds as f64;
    let mut b = Bench::new(spec, server, args.seed)?;
    let mut mismatches = Vec::new();
    // The closed-loop peak and the core loops are sampled at a point
    // after every fixed-rate phase (the server idle during the core
    // loops). Host interference only ever slows a sample, so the core
    // loops report their fastest repetition and the peak its
    // second-fastest window (one window can catch a rare burst of host
    // speed). The peak's offered tuples/s per connection and requests
    // in flight on each: a pipeline deep enough to keep the server busy,
    // so the peak measures its throughput, not one round trip.
    let (per_s, depth) = (3_000_000.0, 32);
    let window = 0.01 * secs;
    let cap = (per_s * window) as usize;
    let mut peaks = Vec::new();
    let mut point = |b: &mut Bench<'_>, tr: &mut Option<Tracer>| -> io::Result<()> {
        traced(tr, "core.sample", || core.sample(CORE_ROUNDS));
        peaks.push(traced(tr, "server.phase.peak", || {
            b.closed_phase(window, cap, depth)
        })?);
        Ok(())
    };

    // The fixed-rate phases run in segments interleaved with the sample
    // points, so host noise in one stretch of the run moves few windows.
    traced(tr, "server.phase.warm", || {
        b.open_phase(spec.lo_rate, 0.03 * secs, true, false)
    })?;
    let (mut lo, mut hi) = (workload::Phase::default(), workload::Phase::default());
    let mut search = workload::Search::default();
    for segment in 0..SEGMENTS {
        let seg = secs / SEGMENTS as f64;
        lo.extend(traced(tr, "server.phase.lo", || {
            b.open_phase(spec.lo_rate, 0.2 * seg, false, false)
        })?);
        point(&mut b, tr)?;
        hi.extend(traced(tr, "server.phase.hi", || {
            b.open_phase(spec.hi_rate, 0.3 * seg, true, false)
        })?);
        point(&mut b, tr)?;
        traced(tr, "server.phase.ladder", || {
            if segment == 0 {
                b.sustained_start(PROBE_SHARE * secs, &mut search)
            } else {
                b.sustained_steps(PROBE_SHARE * secs, STAIR_STEPS, &mut search)
            }
        })?;
    }
    let sustained = search.rate();
    let rungs: Vec<String> = search.rungs.iter().map(|r| r.to_string()).collect();
    prov.push((
        "sustained_staircase_rungs".into(),
        Json::Str(rungs.join(" ")),
    ));
    prov.push((
        "sustained_staircase_passes".into(),
        Json::Num(search.passes() as f64),
    ));
    let mut sorted = peaks.clone();
    sorted.sort_by(f64::total_cmp);
    let peak = quantile(&sorted, 0.9);
    let windows: Vec<String> = peaks.iter().map(|p| format!("{p:.0}")).collect();
    prov.push((
        "peak_windows_tuples_per_s".into(),
        Json::Str(windows.join(" ")),
    ));
    b.barrier()?;
    mismatches.extend(b.check()?);

    let q = workload::REPORT_Q;
    let lo_w = need_p99("write_lo", lo.write(q), prov)?;
    let hi_w = need_p99("write_hi", hi.write(q), prov)?;
    let hi_r = need_p99("read_hi", hi.read(q), prov)?;
    let late99 = |p: &workload::Phase| p.late().and_then(|l| l.p99).unwrap_or(0.0);
    let late = late99(&lo).max(late99(&hi));
    let behind = late > 1000.0;
    if behind {
        eprintln!("perfbench: generator fell behind (late p99 {late:.0}us)");
    }
    prov.push(("gen_late_p99_us".into(), Json::Num(late)));
    prov.push(("generator_behind".into(), Json::Bool(behind)));
    // The fixed-rate phases send every request, so none stops early; a
    // backlog still owed past the limit at a phase's end is flagged.
    for (what, p) in [("lo", &lo), ("hi", &hi)] {
        if p.growing {
            eprintln!("perfbench: backlog grew in the .{what} phase");
        }
        prov.push((format!("{what}_backlog_growing"), Json::Bool(p.growing)));
    }
    prov.push(("peak_is_closed_loop".into(), Json::Bool(true)));
    prov.push(("peak_window".into(), Json::Num(depth as f64)));
    let stats = b.server.stats()?;
    let field = |k: &str| sprofile_server::Client::stats_field(&stats, k).unwrap_or(0) as f64;
    let rss_mib = b.server.peak_rss_mib()?;

    let rtt = match tr {
        Some(_) => Some(layers::idle_rtt(&mut b.server.client()?, 2000)?),
        None => None,
    };
    b.close_conns();
    let (attempted, failed) = (b.attempted, b.failed);
    b.server.shutdown()?;

    let mut layer = Metrics::default();
    if let Some(t) = tr.as_mut() {
        let n = (10_000.0 * secs) as usize;
        let tuples = core::tuples(&(spec.stream)(spec.m, args.seed), n);
        layers::replay(t, spec, args.seed, &tuples, work, &mut layer)?;
        let rtt = rtt.expect("traced runs measure the idle round trip");
        layer.put("server.net.rtt_us.p50", rtt.p50, "us");
        layer.put("server.net.rtt_us.p99", rtt.p99.unwrap_or(f64::NAN), "us");
        // Time per tuple at the closed-loop peak, less what the layers
        // charge a tuple on its way: decode, sharded apply, and its share
        // of reply encoding.
        let (decode, encode) = match spec.proto {
            wire::Proto::Text => (
                "server.codec.text.decode_ns_per_tuple",
                "server.codec.text.encode_ns_per_reply",
            ),
            wire::Proto::Bin => (
                "server.codec.bin.decode_ns_per_tuple",
                "server.codec.bin.encode_ns_per_frame",
            ),
        };
        let reqs_per_tuple = workload::write_reqs(0, 512).len() as f64 / 512.0;
        let charged = layer.get(decode).unwrap_or(f64::NAN)
            + layer
                .get("concurrent.apply_ns_per_tuple.b64")
                .unwrap_or(f64::NAN)
            + layer.get(encode).unwrap_or(f64::NAN) * reqs_per_tuple;
        layer.put(
            "server.net.residual_ns_per_tuple",
            1e9 / peak - charged,
            "ns/tuple",
        );
        layer.put(
            "server.stats.tuples_per_flush",
            field("applied") / field("flushes").max(1.0),
            "tuples/flush",
        );
        layer.put("server.stats.shed", field("shed"), "count");
        layer.put("server.stats.errors", field("errors"), "count");
        layer.put("gen.late_us.p99", late, "us");
        layer.put(
            "trace.overhead_share",
            layers::trace_overhead(spec.m, &tuples),
            "fraction",
        );
        let mut f = std::fs::File::create(work.join("spans.tsv"))?;
        t.write_to(&mut f)?;
    }
    Ok(Measured {
        sustained,
        peak,
        lo: lo_w,
        hi: hi_w,
        read: hi_r,
        rss_mib,
        layer,
        mismatches,
        attempted,
        failed,
    })
}
