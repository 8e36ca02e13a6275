//! Per-layer metrics of the traced run: the serving counters of the
//! traced phase, the per-op ledger, and kernel/layer timers that call
//! each crate's public functions at the shapes the served programs use.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use onesa_core::net::{WindowReply, WorkerHandle};
use onesa_core::plan::{wire, Compile, EvalMode, Op, OpNode, Operand, OptLevel, TableCache};
use onesa_core::serve::{ServeEngine, ServeSummary};
use onesa_core::{Parallelism, Program, Request, Transport};
use onesa_cpwl::ops::TableSet;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::{TinyBert, TinyCausalLm};
use onesa_sim::ArrayConfig;
use onesa_tensor::im2col::{im2col, Conv2dGeometry};
use onesa_tensor::quant::QuantTensor;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, parallel, Tensor};

use crate::{argmax, lm, median, mixed, percentile, Metric, Record, GRANULARITY, MODEL_SEED};

/// Op kinds of the ledger.
pub const KINDS: [&str; 8] = [
    "gemm",
    "nonlinear",
    "softmax",
    "layernorm",
    "im2col",
    "quantize",
    "elementwise",
    "layout",
];

/// Per-layer metric names with their units, in `BENCHMARK.json` order;
/// the ledger's `plan.op.<kind>.host_us` and `sim.op.<kind>.cycles`
/// follow them (see [`per_layer_names`]).
const LAYER_METRICS: [(&str, &str); 26] = [
    ("tensor.worker_count_ns", "ns"),
    ("tensor.gemm_ref_ns_per_mac", "ns"),
    ("tensor.gemm_blocked_ns_per_mac", "ns"),
    ("tensor.im2col_ns_per_elem", "ns"),
    ("tensor.quant_ns_per_elem", "ns"),
    ("tensor.mhp_ns_per_elem", "ns"),
    ("cpwl.table_build_ms", "ms"),
    ("cpwl.eval_ns_per_elem", "ns"),
    ("plan.run_overhead_us", "us"),
    ("plan.groups_per_request", "count"),
    ("plan.compile_ms", "ms"),
    ("plan.cache_hit_us", "us"),
    ("plan.wire_encode_us", "us"),
    ("plan.wire_decode_us", "us"),
    ("plan.wire_program_bytes", "bytes"),
    ("sim.op_stats_us", "us"),
    ("host.page_faults_per_request", "count"),
    ("serve.queue_us_p50", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.shard_occupancy", "ratio"),
    ("serve.prefill_p50_us", "us"),
    ("serve.session_call_us", "us"),
    ("net.spawn_ms", "ms"),
    ("net.window_rtt_us", "us"),
    ("net.full_sends", "count"),
    ("net.const_bytes_saved", "bytes"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(KINDS.iter().map(|k| (format!("plan.op.{k}.host_us"), "us")));
    out.extend(
        KINDS
            .iter()
            .map(|k| (format!("sim.op.{k}.cycles"), "cycles")),
    );
    out
}

/// Puts `metrics` in print order.
///
/// # Panics
///
/// If a per-layer metric is missing (a bug in this crate).
pub fn order(metrics: Vec<Metric>) -> Vec<Metric> {
    per_layer_names()
        .into_iter()
        .map(|(name, _)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .clone()
        })
        .collect()
}

/// A per-layer metric with the unit its name is listed with.
///
/// # Panics
///
/// If `name` is not a per-layer metric (a bug in this crate).
pub fn metric(name: impl Into<String>, value: f64) -> Metric {
    let name = name.into();
    let unit = per_layer_names()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .1;
    Metric { name, value, unit }
}

/// Counters of the traced phase and its pool.
pub fn serving_metrics(traced: &Record, summary: &ServeSummary) -> Vec<Metric> {
    let shards = summary.shards.len().max(1) as f64;
    let groups = summary.report.gemm_groups + summary.report.nonlinear_groups;
    vec![
        metric("serve.queue_us_p50", median(&mut traced.queue_us.clone())),
        metric("serve.exec_us_p50", median(&mut traced.exec_us.clone())),
        metric(
            "serve.shard_occupancy",
            summary.shards.iter().map(|s| s.occupancy).sum::<f64>() / shards,
        ),
        metric(
            "plan.groups_per_request",
            groups as f64 / summary.report.requests.max(1) as f64,
        ),
        metric("net.full_sends", summary.wire_cache.full_sends as f64),
        metric(
            "net.const_bytes_saved",
            summary.wire_cache.const_bytes_saved as f64,
        ),
    ]
}

// ---------------------------------------------------------------------
// per-op ledger
// ---------------------------------------------------------------------

/// A served request replayed op by op.
#[derive(Debug, Clone)]
pub enum Replay {
    /// One stateless program with its inputs.
    Program(Program, Vec<Tensor>),
    /// One decoding session: the prefill, then one decode step per
    /// program, each fed the token and session state the previous step
    /// produced.
    Session {
        /// Prefill program.
        prefill: Program,
        /// Prompt tokens.
        prompt: Vec<usize>,
        /// Decode programs, one per step, in context order.
        decode: Vec<Program>,
    },
}

/// The ledger's kind of an op.
pub fn kind(op: &Op) -> usize {
    match op {
        Op::Gemm { .. } => 0,
        Op::Nonlinear(_) | Op::AffineNonlinear { .. } => 1,
        Op::Softmax | Op::CausalSoftmax { .. } => 2,
        Op::LayerNorm { .. } => 3,
        Op::Im2col(_) | Op::Col2im { .. } => 4,
        Op::Quantize { .. } | Op::QuantizeRows => 5,
        Op::Add | Op::Affine { .. } | Op::Scale(_) | Op::Pool(_) => 6,
        Op::Transpose
        | Op::SliceCols { .. }
        | Op::ConcatCols
        | Op::Embed
        | Op::EmbedAt { .. }
        | Op::ConcatRows => 7,
    }
}

/// Host µs and modeled cycles per op kind, summed over requests.
#[derive(Debug, Default)]
struct Ledger {
    host_us: [f64; 8],
    cycles: [u64; 8],
    requests: usize,
}

/// How many times each one-op program runs; the median counts.
const REPLAY_RUNS: usize = 3;

/// One op of `program` as a program of its own, fed the values `slots`
/// hold for its operands.
fn one_op(program: &Program, node: &OpNode, slots: &[Tensor]) -> (Program, Vec<Tensor>) {
    let mut b = Program::builder("replay", program.mode());
    let mut inputs = Vec::new();
    let operands: Vec<Operand> = node
        .inputs
        .iter()
        .map(|&o| match o {
            Operand::Slot(s) => {
                inputs.push(slots[s].clone());
                b.input(slots[s].dims())
            }
            Operand::Const(c) => b.constant_shared(program.consts()[c].clone()),
        })
        .collect();
    b.push(node.op.clone(), &operands);
    (b.finish().expect("a served op validates alone"), inputs)
}

/// Replays `program` op by op into `ledger`; returns every slot value.
fn replay(
    program: &Program,
    inputs: Vec<Tensor>,
    tables: &mut TableCache,
    ledger: &mut Ledger,
) -> Vec<Tensor> {
    let stats = program
        .op_stats(&ArrayConfig::default())
        .expect("served program validates");
    let mut slots = inputs;
    for (node, st) in program.nodes().iter().zip(&stats) {
        let (p, ins) = one_op(program, node, &slots);
        let mut times = Vec::with_capacity(REPLAY_RUNS);
        let mut out = None;
        for _ in 0..REPLAY_RUNS {
            let t = Instant::now();
            let run = p
                .run(&ins, Parallelism::Sequential, tables)
                .expect("served op runs alone");
            times.push(t.elapsed().as_secs_f64() * 1e6);
            out = Some(run.output);
        }
        let k = kind(&node.op);
        ledger.host_us[k] += median(&mut times);
        ledger.cycles[k] += st.cycles();
        slots.push(out.expect("at least one run"));
    }
    ledger.requests += 1;
    slots
}

/// `plan.op.<kind>.host_us` and `sim.op.<kind>.cycles` per request.
pub fn ledger(requests: &[Replay]) -> Vec<Metric> {
    let mut tables = TableCache::new();
    tables.get(GRANULARITY).expect("paper granularity");
    let mut ledger = Ledger::default();
    for r in requests {
        match r {
            Replay::Program(p, inputs) => {
                replay(p, inputs.clone(), &mut tables, &mut ledger);
            }
            Replay::Session {
                prefill,
                prompt,
                decode,
            } => {
                let ids = TinyCausalLm::ids_tensor(prompt);
                let mut slots = replay(prefill, vec![ids], &mut tables, &mut ledger);
                let mut last = prefill;
                for p in decode {
                    let token = argmax(slots.last().expect("program output").as_slice());
                    let mut inputs = vec![TinyCausalLm::ids_tensor(&[token])];
                    inputs.extend(last.session_outputs().iter().map(|&s| slots[s].clone()));
                    slots = replay(p, inputs, &mut tables, &mut ledger);
                    last = p;
                }
            }
        }
    }
    let n = ledger.requests.max(1) as f64;
    let mut out = Vec::new();
    for (i, k) in KINDS.iter().enumerate() {
        out.push(metric(
            format!("plan.op.{k}.host_us"),
            ledger.host_us[i] / n,
        ));
        out.push(metric(
            format!("sim.op.{k}.cycles"),
            ledger.cycles[i] as f64 / n,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// kernel and layer timers
// ---------------------------------------------------------------------

/// Median over `samples` of the mean ns per call of `iters` calls.
fn ns_per_call(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut v)
}

/// Every timer that does not depend on the traced workload.
pub fn probes(worker: &Path) -> Vec<Metric> {
    let mut out = tensor_probes();
    out.extend(cpwl_probes());
    out.extend(plan_probes());
    out.extend(session_probe());
    out.extend(net_probe(worker));
    out
}

/// `onesa-tensor` kernels at the served shapes: the CNN's 8→8 3×3
/// convolution over 32×32 (im2col, INT16 boundary, the `[1024, 72] ×
/// [72, 8]` GEMM) and the LM's one-row MHP.
fn tensor_probes() -> Vec<Metric> {
    let mut rng = Pcg32::seed_from_u64(1);
    let geo = Conv2dGeometry {
        in_channels: 8,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let fmap = rng.randn(&[8, 32, 32], 1.0);
    let cols = im2col(&fmap, &geo).expect("geometry fits");
    let weight = rng.randn(&[geo.patch_len(), 8], 1.0);
    let macs = (cols.dims()[0] * cols.dims()[1] * 8) as f64;
    let row = rng.randn(&[1, 64], 1.0);
    let (k, b) = (rng.randn(&[1, 64], 1.0), rng.randn(&[1, 64], 1.0));
    vec![
        metric(
            "tensor.worker_count_ns",
            ns_per_call(11, 1000, || {
                black_box(black_box(Parallelism::Sequential).worker_count());
            }),
        ),
        metric(
            "tensor.gemm_ref_ns_per_mac",
            ns_per_call(11, 5, || {
                black_box(gemm::matmul(black_box(&cols), &weight).expect("shapes agree"));
            }) / macs,
        ),
        metric(
            "tensor.gemm_blocked_ns_per_mac",
            ns_per_call(11, 5, || {
                black_box(
                    parallel::matmul(black_box(&cols), &weight, Parallelism::Threads(1))
                        .expect("shapes agree"),
                );
            }) / macs,
        ),
        metric(
            "tensor.im2col_ns_per_elem",
            ns_per_call(11, 5, || {
                black_box(im2col(black_box(&fmap), &geo).expect("geometry fits"));
            }) / cols.len() as f64,
        ),
        metric(
            "tensor.quant_ns_per_elem",
            ns_per_call(11, 5, || {
                black_box(QuantTensor::quantize(black_box(&fmap)).dequantize());
            }) / fmap.len() as f64,
        ),
        metric(
            "tensor.mhp_ns_per_elem",
            ns_per_call(11, 200, || {
                black_box(
                    parallel::mhp(black_box(&row), &k, &b, Parallelism::Sequential)
                        .expect("same shapes"),
                );
            }) / row.len() as f64,
        ),
    ]
}

/// `onesa-cpwl`: table build and the public `TableSet` calls at BERT
/// shapes (GELU over the `[32, 64]` feed-forward, softmax over the
/// `[32, 32]` scores, layer norm over `[32, 32]` rows).
fn cpwl_probes() -> Vec<Metric> {
    let build_ms = ns_per_call(5, 1, || {
        black_box(TableSet::for_granularity(black_box(GRANULARITY)).expect("paper granularity"));
    }) / 1e6;
    let tables = TableSet::for_granularity(GRANULARITY).expect("paper granularity");
    let mut rng = Pcg32::seed_from_u64(2);
    let ff = rng.randn(&[32, 64], 1.0);
    let scores = rng.randn(&[32, 32], 1.0);
    let (gamma, beta) = (vec![1.0; 32], vec![0.0; 32]);
    let elems = (ff.len() + 2 * scores.len()) as f64;
    let eval = ns_per_call(11, 20, || {
        black_box(tables.gelu(black_box(&ff)).expect("matrix"));
        black_box(tables.softmax_rows(black_box(&scores)).expect("matrix"));
        black_box(
            tables
                .layernorm_rows(black_box(&scores), &gamma, &beta, 1e-5)
                .expect("matrix"),
        );
    }) / elems;
    vec![
        metric("cpwl.table_build_ms", build_ms),
        metric("cpwl.eval_ns_per_elem", eval),
    ]
}

/// `onesa-plan` (and `onesa-sim` costing) fixed costs: one `Program::run`
/// of a one-element op, a cold and a cached compile of the LM decode
/// step at context 32, its `op_stats`, and the wire round trip of the
/// BERT seq-32 program.
fn plan_probes() -> Vec<Metric> {
    let mut b = Program::builder("overhead", EvalMode::Exact);
    let x = b.input(&[1, 1]);
    b.push(Op::Scale(1.0), &[x]);
    let tiny = b.finish().expect("one-op program validates");
    let one = [Tensor::ones(&[1, 1])];
    let mut tables = TableCache::new();
    let run_us = ns_per_call(11, 200, || {
        black_box(
            tiny.run(black_box(&one), Parallelism::Sequential, &mut tables)
                .expect("runs"),
        );
    }) / 1e3;

    let mode = InferenceMode::cpwl(GRANULARITY).expect("paper granularity");
    const CTX: usize = 32;
    let mut cold_ms: Vec<f64> = (0..5)
        .map(|_| {
            let model = lm::model();
            let t = Instant::now();
            black_box(model.compiled_decode(&mode, CTX));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let model = lm::model();
    let decode = model.compiled_decode(&mode, CTX);
    let hit_us = ns_per_call(11, 200, || {
        black_box(model.compiled_decode(&mode, black_box(CTX)));
    }) / 1e3;
    let cfg = ArrayConfig::default();
    let op_stats_us = ns_per_call(11, 50, || {
        black_box(decode.op_stats(black_box(&cfg)).expect("validates"));
    }) / 1e3;

    let bert = TinyBert::new(MODEL_SEED, 64, mixed::SEQ, 4, 2);
    let program = bert
        .compile((&mode, mixed::SEQ))
        .and_then(|p| p.optimize(OptLevel::Standard))
        .expect("BERT compiles");
    let bytes = wire::encode_program(&program);
    let encode_us = ns_per_call(11, 20, || {
        black_box(wire::encode_program(black_box(&program)));
    }) / 1e3;
    let decode_us = ns_per_call(11, 20, || {
        black_box(wire::decode_program(black_box(&bytes)).expect("round trip"));
    }) / 1e3;
    vec![
        metric("plan.run_overhead_us", run_us),
        metric("plan.compile_ms", median(&mut cold_ms)),
        metric("plan.cache_hit_us", hit_us),
        metric("sim.op_stats_us", op_stats_us),
        metric("plan.wire_encode_us", encode_us),
        metric("plan.wire_decode_us", decode_us),
        metric("plan.wire_program_bytes", bytes.len() as f64),
    ]
}

/// The session calls of `lm_decode` on its own pool configuration:
/// time to first token of 8 prefills staged into one window, and the
/// mean cost of `open_session`, `session_context_rows` and
/// `close_session`.
fn session_probe() -> Vec<Metric> {
    const ROUNDS: usize = 8;
    let model = lm::model();
    let mode = InferenceMode::cpwl(GRANULARITY).expect("paper granularity");
    let prefill = model.compiled_prefill(&mode, lm::PROMPT);
    let pool = ServeEngine::start(lm::pool_config()).expect("pool starts");
    let ids = TinyCausalLm::ids_tensor(&(0..lm::PROMPT).collect::<Vec<_>>());
    let (mut ttft_us, mut call_us) = (Vec::new(), Vec::new());
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
    };
    for _ in 0..ROUNDS {
        let mut sessions = Vec::new();
        for _ in 0..lm::SESSIONS {
            timed(&mut || sessions.push(pool.open_session()));
        }
        let t0 = Instant::now();
        pool.pause();
        let tickets: Vec<_> = sessions
            .iter()
            .map(|&sid| {
                pool.submit_prefill(sid, Program::clone(&prefill), vec![ids.clone()], lm::PROMPT)
                    .expect("prefill submits")
            })
            .collect();
        pool.resume();
        for t in tickets {
            t.wait().expect("prefill serves");
            ttft_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        for &sid in &sessions {
            timed(&mut || {
                black_box(pool.session_context_rows(sid));
            });
        }
        for &sid in &sessions {
            timed(&mut || {
                black_box(pool.close_session(sid));
            });
        }
    }
    let _ = pool.finish().expect("probe pool drains");
    vec![
        metric("serve.prefill_p50_us", percentile(&mut ttft_us, 50.0)),
        metric(
            "serve.session_call_us",
            call_us.iter().sum::<f64>() / call_us.len() as f64,
        ),
    ]
}

/// `onesa-core` net: worker spawn plus handshake, and the round trip of
/// a one-request window carrying the BERT seq-32 program (after the
/// first window the weights ride the worker's cache).
fn net_probe(worker: &Path) -> Vec<Metric> {
    let cfg = ArrayConfig::default();
    let worker = worker.to_path_buf();
    let spawn = || {
        WorkerHandle::spawn(
            0,
            Transport::Unix,
            Some(&worker),
            &cfg,
            Parallelism::Sequential,
            GRANULARITY,
        )
        .expect("worker spawns")
    };
    let mut spawn_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let h = spawn();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            h.shutdown();
            ms
        })
        .collect();
    let mode = InferenceMode::cpwl(GRANULARITY).expect("paper granularity");
    let bert = TinyBert::new(MODEL_SEED, 64, mixed::SEQ, 4, 2);
    let program = bert
        .compile((&mode, mixed::SEQ))
        .and_then(|p| p.optimize(OptLevel::Standard))
        .expect("BERT compiles");
    let ids = TinyBert::ids_tensor(&(0..mixed::SEQ).map(|i| i % 64).collect::<Vec<_>>());
    let request = Request::program(program, vec![ids]);
    let mut handle = spawn();
    let mut rtt_us: Vec<f64> = (0..21)
        .map(|i| {
            let t = Instant::now();
            let reply = handle.run_window(&[(i, &request)]).expect("worker answers");
            assert!(matches!(reply, WindowReply::Done(_)), "probe window failed");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    handle.shutdown();
    vec![
        metric("net.spawn_ms", median(&mut spawn_ms)),
        metric("net.window_rtt_us", median(&mut rtt_us)),
    ]
}
