//! The paper's measured loops, in process: update then mode query per
//! tuple (fig3), update then median query per tuple (fig6), and
//! `apply_batch` at two batch sizes, for S-Profile and the baselines.

use std::time::Instant;

use sprofile::{FrequencyProfiler, RankQueries, SProfile, Tuple};
use sprofile_baselines::{AvlProfiler, MaxHeapProfiler, TreapProfiler};
use sprofile_streamgen::StreamConfig;

use crate::stats::median;
use crate::trace::Tracer;

/// Batch sizes of the `apply_batch` loop.
pub const BATCHES: [usize; 2] = [64, 4096];

/// Timed repetitions per loop; a loop reports the median repetition.
const REPS: usize = 15;

/// Sub-microsecond calls are traced in chunks of this many.
pub const CHUNK: usize = 256;

/// The first `n` tuples of a stream.
pub fn tuples(cfg: &StreamConfig, n: usize) -> Vec<Tuple> {
    cfg.generator().take(n).map(|e| e.to_tuple()).collect()
}

fn apply<P: FrequencyProfiler + ?Sized>(p: &mut P, t: Tuple) {
    if t.is_add {
        p.add(t.object)
    } else {
        p.remove(t.object)
    }
}

/// fig3: one update, then a mode query, per tuple. Returns the sum of
/// the mode frequencies (the cross-structure checksum).
pub fn mode_loop<P: FrequencyProfiler + ?Sized>(p: &mut P, tuples: &[Tuple]) -> i64 {
    let mut sum = 0i64;
    for &t in tuples {
        apply(p, t);
        if let Some((_, f)) = p.mode() {
            sum = sum.wrapping_add(f);
        }
    }
    std::hint::black_box(sum)
}

/// fig6: one update, then a median query, per tuple.
pub fn median_loop<P: RankQueries + ?Sized>(p: &mut P, tuples: &[Tuple]) -> i64 {
    let mut sum = 0i64;
    for &t in tuples {
        apply(p, t);
        if let Some(f) = p.median_frequency() {
            sum = sum.wrapping_add(f);
        }
    }
    std::hint::black_box(sum)
}

/// A timed loop: median ns per tuple over the repetitions, and the
/// checksum over all of them.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Median over repetitions of ns per tuple.
    pub ns_per_tuple: f64,
    /// Wrapping sum of the loop's per-repetition checksums.
    pub checksum: i64,
}

/// Runs `body` over [`REPS`] consecutive slices of `tuples`, timing
/// each; with a tracer, each slice is one span of `name` covering its
/// tuples.
pub fn timed(
    tuples: &[Tuple],
    mut tracer: Option<&mut Tracer>,
    name: &'static str,
    mut body: impl FnMut(&[Tuple]) -> i64,
) -> Timed {
    let per = tuples.len().div_ceil(REPS).max(1);
    let mut ns = Vec::with_capacity(REPS);
    let mut checksum = 0i64;
    for rep in tuples.chunks(per) {
        let t0 = Instant::now();
        let sum = match tracer.as_deref_mut() {
            Some(t) => t.span(name, rep.len() as u64, || body(rep)),
            None => body(rep),
        };
        ns.push(t0.elapsed().as_nanos() as f64 / rep.len() as f64);
        checksum = checksum.wrapping_add(sum);
    }
    Timed {
        ns_per_tuple: median(&ns),
        checksum,
    }
}

/// S-Profile's fig3, fig6 and batch loops, sampled in rounds spread
/// over the whole run, so that a burst of host noise hits a few
/// repetitions rather than the result. Every stream keeps one profile
/// that all four loops update in turn (the update cost does not depend
/// on the frequencies), walking the stream's tuples and wrapping around.
pub struct CoreSampler {
    streams: Vec<Sampled>,
    per_rep: usize,
}

struct Sampled {
    m: u32,
    tuples: Vec<Tuple>,
    pos: usize,
    profile: SProfile,
    /// ns per tuple of every repetition: fig3, fig6, then each batch size.
    ns: [Vec<f64>; 4],
}

impl CoreSampler {
    /// A sampler over `(m, tuples)` streams, `per_rep` tuples per
    /// repetition.
    pub fn new(streams: Vec<(u32, Vec<Tuple>)>, per_rep: usize) -> CoreSampler {
        let streams = streams
            .into_iter()
            .map(|(m, tuples)| Sampled {
                m,
                tuples,
                pos: 0,
                profile: SProfile::new(m),
                ns: Default::default(),
            })
            .collect();
        CoreSampler { streams, per_rep }
    }

    /// `rounds` repetitions of every loop on every stream.
    pub fn sample(&mut self, rounds: usize) {
        for _ in 0..rounds {
            for s in &mut self.streams {
                let n = self.per_rep.min(s.tuples.len());
                // Each loop takes the next slice, so none runs on objects
                // the loop before it just brought into cache.
                let mut next = || {
                    if s.pos + n > s.tuples.len() {
                        s.pos = 0;
                    }
                    s.pos += n;
                    s.pos - n..s.pos
                };
                let ranges = [next(), next(), next(), next()];
                let p = &mut s.profile;
                for (k, range) in ranges.into_iter().enumerate() {
                    let rep = &s.tuples[range];
                    let t0 = Instant::now();
                    match k {
                        0 => {
                            mode_loop(p, rep);
                        }
                        1 => {
                            median_loop(p, rep);
                        }
                        _ => {
                            for chunk in rep.chunks(BATCHES[k - 2]) {
                                p.apply_batch(chunk);
                            }
                        }
                    }
                    s.ns[k].push(t0.elapsed().as_nanos() as f64 / n as f64);
                }
            }
        }
    }

    /// (fig3, fig6, batch) ns per tuple on the streams of universe `m`:
    /// per stream the fastest repetition — interference from the host
    /// only ever slows a repetition, and on a shared host it comes and
    /// goes over seconds, so the fastest of repetitions spread over the
    /// run is the loop's own cost — then the geometric mean over streams
    /// (and over both batch sizes for the batch loop).
    pub fn result(&self, m: u32) -> [f64; 3] {
        let mean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let per = |k: usize| -> Vec<f64> {
            self.streams
                .iter()
                .filter(|s| s.m == m)
                .map(|s| fastest(&s.ns[k]))
                .collect()
        };
        let mut batch = per(2);
        batch.extend(per(3));
        [mean(&per(0)), mean(&per(1)), mean(&batch)]
    }

    /// Repetitions per loop and stream so far.
    pub fn reps(&self) -> usize {
        self.streams.first().map_or(0, |s| s.ns[0].len())
    }
}

/// The baselines' loops on one stream: heap on fig3, treap and AVL on
/// fig6.
#[derive(Clone, Copy, Debug)]
pub struct BaselineTimes {
    /// Indexed max-heap, fig3 loop.
    pub heap_mode: Timed,
    /// Treap order-statistic tree, fig6 loop.
    pub treap_median: Timed,
    /// AVL order-statistic tree, fig6 loop.
    pub avl_median: Timed,
}

/// Runs the baselines over the same tuples S-Profile saw.
pub fn run_baselines(m: u32, tuples: &[Tuple], mut tracer: Option<&mut Tracer>) -> BaselineTimes {
    let mut heap = MaxHeapProfiler::new(m);
    let heap_mode = timed(
        tuples,
        tracer.as_deref_mut(),
        "baselines.heap.mode_update",
        |r| mode_loop(&mut heap, r),
    );
    drop(heap);
    let mut treap = TreapProfiler::new(m);
    let treap_median = timed(
        tuples,
        tracer.as_deref_mut(),
        "baselines.treap.median_update",
        |r| median_loop(&mut treap, r),
    );
    drop(treap);
    let mut avl = AvlProfiler::new(m);
    let avl_median = timed(tuples, tracer, "baselines.avl.median_update", |r| {
        median_loop(&mut avl, r)
    });
    BaselineTimes {
        heap_mode,
        treap_median,
        avl_median,
    }
}

/// Checksum disagreements between S-Profile (fig3 and fig6 loops on
/// fresh profiles over the same `tuples`) and each baseline.
pub fn checksum_mismatches(
    label: &str,
    m: u32,
    tuples: &[Tuple],
    base: &BaselineTimes,
) -> Vec<String> {
    let mode = mode_loop(&mut SProfile::new(m), tuples);
    let median = median_loop(&mut SProfile::new(m), tuples);
    let mut bad = Vec::new();
    for (name, theirs, ours) in [
        ("heap", base.heap_mode.checksum, mode),
        ("treap", base.treap_median.checksum, median),
        ("avl", base.avl_median.checksum, median),
    ] {
        if theirs != ours {
            bad.push(format!(
                "{label}: {name} checksum {theirs} != sprofile {ours}"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprofile_and_baselines_agree_on_a_paper_stream() {
        let m = 500;
        let t = tuples(&StreamConfig::stream2(m, 3), 20_000);
        let base = run_baselines(m, &t, None);
        assert!(checksum_mismatches("s2", m, &t, &base).is_empty());
        // A baseline fed other tuples disagrees.
        let other = run_baselines(m, &t[1..], None);
        assert_eq!(checksum_mismatches("s2", m, &t, &other).len(), 3);
    }

    #[test]
    fn sampler_rounds_wrap_around_the_stream() {
        let t = tuples(&StreamConfig::stream1(100, 1), 1000);
        let mut s = CoreSampler::new(vec![(100, t.clone()), (100, t)], 300);
        s.sample(2);
        s.sample(3);
        assert_eq!(s.reps(), 5);
        // 5 rounds × 4 loops × 300 tuples through a 1000-tuple stream,
        // three slices per pass.
        assert_eq!(s.streams[0].pos, 600);
        assert!(s.result(100).iter().all(|ns| *ns > 0.0));
        assert!(s.result(7).iter().all(|ns| ns.is_nan()));
    }

    #[test]
    fn traced_repetitions_cover_every_tuple() {
        let t = tuples(&StreamConfig::stream1(100, 1), 1000);
        let mut tracer = Tracer::default();
        let mut p = SProfile::new(100);
        timed(&t, Some(&mut tracer), "core.mode_loop", |r| {
            mode_loop(&mut p, r)
        });
        assert_eq!(tracer.totals()["core.mode_loop"].1, 1000);
    }
}
