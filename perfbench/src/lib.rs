//! Serving benchmark of the ONE-SA reproduction.
//!
//! Three workloads run through the public serving API — `onesa-core`'s
//! [`ServeEngine`] serving programs compiled by `onesa-nn` and executed
//! by `onesa-plan` — each as a closed loop driven by one client thread.
//! Every burst is staged behind `pause()`/`resume()` so it lands in one
//! admission window, which keeps coalescing and every modeled number
//! independent of host timing. See `README.md` next to this crate for
//! the workloads, the metrics and how the bounds were set.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use onesa_core::serve::{ServeEngine, ServeError, ServeSummary, ServedOutcome};
use onesa_sim::ArrayConfig;
use onesa_tensor::Tensor;

mod cnn;
mod layers;
mod lm;
mod mixed;
mod trace;

use trace::Tracer;

/// How many times an untraced run sets its workload up; `setup_s` is the
/// median of these.
pub(crate) const SETUPS: usize = 5;

/// CPWL granularity of every workload (the paper's default).
pub(crate) const GRANULARITY: f32 = 0.25;

/// Seed of every model's weights. The weights are part of the system
/// under test; only the inputs follow `--seed`.
pub(crate) const MODEL_SEED: u64 = 2027;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `SmallCnn` on 3×32×32 inputs, bursts of 4, 2 in-process shards.
    CnnCifar,
    /// `TinyCausalLm` decoding 8 sessions to full context on 1 shard.
    LmDecode,
    /// BERT programs, raw GEMMs and raw GELUs over 2 worker processes.
    MixedProcess,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CnnCifar,
        Workload::LmDecode,
        Workload::MixedProcess,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnCifar => "cnn_cifar",
            Workload::LmDecode => "lm_decode",
            Workload::MixedProcess => "mixed_process",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic to serve.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase in seconds (split in two halves,
    /// untraced then traced, when `trace` is set).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Executable spawned as a shard worker by `mixed_process` (it must
    /// call `onesa_core::net::worker_main` when given `--connect`).
    pub worker: PathBuf,
    /// Directory for the span file and the workers' sockets (keep it
    /// short: a Unix socket path is limited to about 100 bytes).
    pub out_dir: PathBuf,
    /// Flips the lowest bit of the first served output of the timed
    /// phase before it is checked (the self-tests use it to show that
    /// the checks catch a one-bit error).
    pub corrupt_one_output: bool,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// No check failed.
    pub correct: bool,
    /// Operations attempted: served requests plus the method checks.
    pub attempted: usize,
    /// Operations that failed or whose output did not check.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Vec<Metric>,
    /// Traced runs only: relative loss of `throughput_rps` under tracing.
    pub trace_overhead: Option<f64>,
}

impl Report {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the checks after the timed phase found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Checks {
    /// Checks made beyond the per-request comparisons (exact-mode
    /// agreement, interpolation bounds, session-table state).
    pub extra_attempted: usize,
    /// Mismatching requests plus failed extra checks.
    pub failed: usize,
}

/// One distinct served output as the checks see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Served {
    /// Which reference computation the output must equal.
    pub key: usize,
    /// Bit fingerprint of the served output.
    pub fingerprint: u64,
    /// Argmax of the served output (the decoded token on `lm_decode`).
    pub argmax: usize,
}

/// One block of whole rounds of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Block {
    /// Completed requests per second.
    pub rps: f64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 75th-percentile latency (µs).
    pub p75_us: f64,
}

/// Client-side record of one timed phase.
#[derive(Debug, Default)]
pub(crate) struct Record {
    /// Whole rounds served.
    pub rounds: usize,
    /// Requests attempted.
    pub requests: usize,
    /// Requests whose ticket resolved with an error.
    pub failed: usize,
    /// Throughput and latency percentiles of each block of whole rounds.
    pub blocks: Vec<Block>,
    /// Latencies (µs) of the open block that enter the percentiles.
    pub latency_us: Vec<f64>,
    /// Start of the open block and requests completed before it.
    block_start: Option<(Instant, usize)>,
    /// Keep `queue_us` and `exec_us` (traced phases only, so that an
    /// untraced run's memory does not grow with its request count).
    pub detail: bool,
    /// `ServedOutcome::queue_seconds` of every request, in µs.
    pub queue_us: Vec<f64>,
    /// Latency minus queue time of every request, in µs.
    pub exec_us: Vec<f64>,
    /// Sum of the requests' solo modeled cycles.
    pub cycles: u64,
    /// Distinct outputs to check, with how many requests returned each.
    pub outputs: BTreeMap<Served, usize>,
    /// Flip one bit of the next recorded output.
    pub corrupt_next: bool,
}

impl Record {
    /// Records one reply: `started` is the start of its burst, `timed`
    /// says whether its latency enters the percentiles. Returns the
    /// served output (possibly with one bit flipped, see
    /// [`Options::corrupt_one_output`]) or `None` if the request failed.
    pub(crate) fn record(
        &mut self,
        key: usize,
        started: Instant,
        reply: Result<ServedOutcome, ServeError>,
        timed: bool,
    ) -> Option<Tensor> {
        let latency = started.elapsed().as_secs_f64() * 1e6;
        self.requests += 1;
        let mut outcome = match reply {
            Ok(o) => o,
            Err(_) => {
                self.failed += 1;
                return None;
            }
        };
        if timed {
            self.latency_us.push(latency);
        }
        if self.detail {
            let queue = outcome.queue_seconds * 1e6;
            self.queue_us.push(queue);
            self.exec_us.push((latency - queue).max(0.0));
        }
        self.cycles += outcome.stats.cycles();
        if std::mem::take(&mut self.corrupt_next) {
            let v = &mut outcome.output.as_mut_slice()[0];
            *v = f32::from_bits(v.to_bits() ^ 1);
        }
        let served = Served {
            key,
            fingerprint: fingerprint(outcome.output.as_slice()),
            argmax: argmax(outcome.output.as_slice()),
        };
        *self.outputs.entry(served).or_default() += 1;
        Some(outcome.output)
    }

    /// Opens the first block.
    fn start(&mut self) {
        self.block_start = Some((Instant::now(), 0));
    }

    /// Closes the open block and opens the next.
    fn close_block(&mut self) {
        let (since, done) = self.block_start.expect("a block is open");
        let completed = self.requests - self.failed;
        self.blocks.push(Block {
            rps: (completed - done) as f64 / since.elapsed().as_secs_f64(),
            p50_us: percentile(&mut self.latency_us, 50.0),
            p75_us: percentile(&mut self.latency_us, 75.0),
        });
        self.latency_us.clear();
        self.block_start = Some((Instant::now(), completed));
    }

    /// Median over blocks of `f`.
    pub(crate) fn block_median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        median(&mut self.blocks.iter().map(f).collect::<Vec<_>>())
    }

    /// Requests whose output fails `ok`.
    pub(crate) fn count_failing(&self, ok: impl Fn(&Served) -> bool) -> usize {
        self.outputs
            .iter()
            .filter(|(s, _)| !ok(s))
            .map(|(_, n)| n)
            .sum()
    }

    /// Requests whose output fingerprint differs from `reference(key)`.
    pub(crate) fn mismatches(&self, reference: impl Fn(usize) -> u64) -> usize {
        self.count_failing(|s| s.fingerprint == reference(s.key))
    }
}

/// A workload's pool plus everything it serves.
pub(crate) trait Rig: Sized {
    /// Whole rounds served before timing starts (inside `setup_s`).
    const WARMUP_ROUNDS: usize;

    /// Rounds per block of the timed phase: the fewest whole rounds
    /// holding at least 400 requests.
    const BLOCK_ROUNDS: usize;

    /// Builds models and tables, compiles every program the workload
    /// serves, starts the pool and generates the inputs from `seed`.
    ///
    /// # Errors
    ///
    /// A pool that fails to start.
    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String>;

    /// Serves one whole round (a fixed set of bursts) into `rec`.
    fn round(&mut self, tr: &mut Tracer, rec: &mut Record);

    /// Process ids of the pool's worker processes (empty in-process).
    fn worker_pids(&self) -> Vec<u32>;

    /// Drains and stops the pool.
    ///
    /// # Errors
    ///
    /// A pool that does not drain.
    fn finish(&mut self) -> Result<ServeSummary, String>;

    /// Compares the recorded outputs with computations made apart from
    /// the serving path.
    fn check(&self, recs: &[&Record], summary: &ServeSummary) -> Checks;

    /// The requests of one representative round, as programs with their
    /// inputs, for the per-op ledger.
    fn ledger_requests(&self) -> Vec<layers::Replay>;
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Set-up failures (a pool or worker that does not start) and
/// non-finite metric values.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("out dir: {e}"))?;
    // The process backend makes its workers' Unix sockets under the
    // temporary directory; keep them inside the benchmark's directory.
    std::env::set_var("TMPDIR", &opts.out_dir);
    let report = match opts.workload {
        Workload::CnnCifar => drive::<cnn::Cnn>(opts),
        Workload::LmDecode => drive::<lm::Lm>(opts),
        Workload::MixedProcess => drive::<mixed::Mixed>(opts),
    }?;
    // JSON has no NaN or infinity.
    match report.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} measured {}", m.name, m.value)),
        None => Ok(report),
    }
}

fn drive<R: Rig>(opts: &Options) -> Result<Report, String> {
    let mut tr = Tracer::new(opts.trace);
    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut rig: Option<R> = None;
    for _ in 0..setups {
        if let Some(mut old) = rig.take() {
            let _ = old.finish()?;
        }
        let t0 = Instant::now();
        let mut r = R::setup(opts, &mut tr)?;
        let mut warm = Record::default();
        for _ in 0..R::WARMUP_ROUNDS {
            r.round(&mut Tracer::new(false), &mut warm);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one setup");

    if !opts.trace {
        let rec = timed(&mut rig, opts.seconds, &mut tr, opts.corrupt_one_output);
        let rss_mb = peak_rss_mb(&rig.worker_pids());
        let summary = rig.finish()?;
        let checks = rig.check(&[&rec], &summary);
        let failed = rec.failed + checks.failed;
        let metrics = end_to_end(&rec, &summary, median(&mut setup_s), rss_mb);
        return Ok(Report {
            correct: failed == 0,
            attempted: rec.requests + checks.extra_attempted,
            failed,
            metrics,
            trace_overhead: None,
        });
    }

    let plain = timed(&mut rig, opts.seconds / 2.0, &mut Tracer::new(false), false);
    let faults = minor_faults(&rig.worker_pids());
    let traced = timed(
        &mut rig,
        opts.seconds / 2.0,
        &mut tr,
        opts.corrupt_one_output,
    );
    let faults = minor_faults(&rig.worker_pids()) - faults;
    let summary = rig.finish()?;
    let checks = rig.check(&[&plain, &traced], &summary);
    let failed = plain.failed + traced.failed + checks.failed;
    let rps = |r: &Record| r.block_median(|b| b.rps);
    let overhead = 1.0 - rps(&traced) / rps(&plain);
    let mut metrics = layers::serving_metrics(&traced, &summary);
    metrics.push(layers::metric(
        "host.page_faults_per_request",
        faults as f64 / traced.requests as f64,
    ));
    metrics.extend(layers::ledger(&rig.ledger_requests()));
    metrics.extend(layers::probes(&opts.worker));
    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Report {
        correct: failed == 0,
        attempted: plain.requests + traced.requests + checks.extra_attempted,
        failed,
        metrics: layers::order(metrics),
        trace_overhead: Some(overhead),
    })
}

/// Serves whole rounds until `seconds` have passed (at least one).
fn timed<R: Rig>(rig: &mut R, seconds: f64, tr: &mut Tracer, corrupt: bool) -> Record {
    let mut rec = Record {
        corrupt_next: corrupt,
        detail: tr.is_on(),
        ..Record::default()
    };
    let t0 = Instant::now();
    rec.start();
    while rec.rounds == 0 || t0.elapsed().as_secs_f64() < seconds {
        rig.round(tr, &mut rec);
        rec.rounds += 1;
        if rec.rounds.is_multiple_of(R::BLOCK_ROUNDS) {
            rec.close_block();
        }
    }
    if rec.blocks.is_empty() {
        rec.close_block();
    }
    rec
}

/// End-to-end metric names with their units, in `BENCHMARK.json` order.
pub(crate) const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p75_us", "us"),
    ("modeled_cycles_per_request", "cycles"),
    ("modeled_array_cycles_per_request", "cycles"),
    ("modeled_uj_per_request", "uJ"),
    ("peak_rss_mb", "MB"),
];

fn end_to_end(rec: &Record, summary: &ServeSummary, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let clock_hz = ArrayConfig::default().clock_mhz * 1e6;
    // The makespan is a float sum over identical windows; rounding it
    // back to whole cycles makes the ratio independent of how many
    // rounds the run happened to fit.
    let makespan_cycles = (summary.report.batched_seconds * clock_hz).round();
    let values = [
        setup_s,
        rec.block_median(|b| b.rps),
        rec.block_median(|b| b.p50_us),
        rec.block_median(|b| b.p75_us),
        rec.cycles as f64 / rec.requests as f64,
        makespan_cycles / summary.report.requests as f64,
        significant(summary.modeled_joules_per_request() * 1e6, 9),
        rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

/// Rounds to `digits` significant digits. Modeled energy is a float
/// sum over a run-length-dependent number of identical windows; its
/// last bits carry summation order, not information.
pub(crate) fn significant(v: f64, digits: usize) -> f64 {
    format!("{:.*e}", digits - 1, v)
        .parse()
        .expect("formatted float parses")
}

/// Nearest-rank percentile (`q` in 0..=100); 0 for an empty sample.
pub(crate) fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median (nearest rank).
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// FNV-1a over the bit patterns of `values`.
pub(crate) fn fingerprint(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Index of the largest value (first on ties).
pub(crate) fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
}

/// Minor page faults so far of this process plus `workers`.
fn minor_faults(workers: &[u32]) -> u64 {
    let faults = |pid: &str| -> u64 {
        // Field 10 of /proc/<pid>/stat; the command name before it is
        // parenthesized and may contain spaces.
        std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                let rest = &s[s.rfind(')')? + 1..];
                rest.split_whitespace().nth(7)?.parse().ok()
            })
            .unwrap_or(0)
    };
    faults("self") + workers.iter().map(|p| faults(&p.to_string())).sum::<u64>()
}

/// Peak resident set (`VmHWM`) of this process plus `workers`, in MB.
fn peak_rss_mb(workers: &[u32]) -> f64 {
    let hwm_kb = |pid: &str| -> f64 {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0.0)
    };
    let kb = hwm_kb("self") + workers.iter().map(|p| hwm_kb(&p.to_string())).sum::<f64>();
    kb / 1024.0
}

/// Serves `burst` as one admission window: pause, submit everything,
/// resume. Returns the tickets in submission order with their keys.
pub(crate) fn staged<T>(
    pool: &ServeEngine,
    tr: &mut Tracer,
    parent: Option<usize>,
    burst: impl IntoIterator<Item = (usize, T)>,
    mut submit: impl FnMut(&ServeEngine, T) -> Result<onesa_core::serve::Ticket, ServeError>,
) -> Vec<(usize, Result<onesa_core::serve::Ticket, ServeError>)> {
    let s = tr.begin("pause", parent);
    pool.pause();
    tr.end(s);
    let tickets = burst
        .into_iter()
        .map(|(key, item)| {
            let s = tr.begin("submit", parent);
            let t = submit(pool, item);
            tr.end_request(s, t.as_ref().ok().map(|t| t.id()));
            (key, t)
        })
        .collect();
    let s = tr.begin("resume", parent);
    pool.resume();
    tr.end(s);
    tickets
}

/// Waits for every ticket of a burst started at `started`, recording
/// each reply; returns the served outputs in order.
pub(crate) fn collect(
    tr: &mut Tracer,
    parent: Option<usize>,
    rec: &mut Record,
    started: Instant,
    tickets: Vec<(usize, Result<onesa_core::serve::Ticket, ServeError>)>,
    timed: bool,
) -> Vec<Option<Tensor>> {
    tickets
        .into_iter()
        .map(|(key, ticket)| {
            let s = tr.begin("wait", parent);
            let id = ticket.as_ref().ok().map(|t| t.id());
            let reply = ticket.and_then(|t| t.wait());
            tr.end_request(s, id);
            rec.record(key, started, reply, timed)
        })
        .collect()
}
