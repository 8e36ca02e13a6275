//! `mixed_process`: bursts of 16 requests through
//! `ShardBackend::Process` (2 worker processes over Unix sockets):
//! 8 `TinyBert` seq-32 classification programs, 4 raw GEMMs against one
//! shared 256×128 weight and 4 raw GELUs. The only workload through
//! `net`/`wire` and through `BatchEngine::run`'s raw-request coalescer.

use std::time::Instant;

use onesa_core::plan::{Compile, EvalMode, Op, OptLevel};
use onesa_core::serve::{
    AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ServeSummary, ShardBackend,
};
use onesa_core::{Parallelism, ProcessConfig, Program, Request, Transport};
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyBert;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};

use crate::layers::Replay;
use crate::trace::Tracer;
use crate::{collect, fingerprint, staged, Checks, Options, Record, Rig, GRANULARITY, MODEL_SEED};

/// BERT requests per burst.
pub const BERT: usize = 8;
/// Raw GEMM requests per burst.
pub const GEMMS: usize = 4;
/// Raw GELU requests per burst.
pub const GELUS: usize = 4;
/// BERT sequence length.
pub const SEQ: usize = 32;
/// Distinct bursts of inputs; rounds cycle through them.
pub const INPUT_SETS: usize = 4;
/// Shape of the shared GEMM weight.
pub const WEIGHT: [usize; 2] = [256, 128];
/// Rows of each GEMM's left operand.
pub const GEMM_ROWS: usize = 32;
/// Shape of each GELU input, drawn uniformly from the table range
/// [-4, 4] so the interpolation bound applies to every element.
pub const GELU_SHAPE: [usize; 2] = [32, 64];

const VOCAB: usize = 64;
const CLASSES: usize = 4;

/// Worst-case error of linear interpolation between exact samples
/// spaced `h` apart, `h²/8 · max|f″|`, for GELU (`max|f″| = f″(0) =
/// 2φ(0) = √(2/π)`), plus 1e-5 for the f32 rounding of the chord
/// parameters and of the multiply-add.
pub fn gelu_bound(h: f64) -> f64 {
    h * h / 8.0 * (2.0 / std::f64::consts::PI).sqrt() + 1e-5
}

/// GELU in f64 through a Taylor series of erf, accurate to ~1e-12 on
/// the table range.
pub fn gelu_f64(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let (mut term, mut sum) = (z, z);
    for n in 1..200 {
        term *= -z * z / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-18 {
            break;
        }
    }
    let erf = sum * 2.0 / std::f64::consts::PI.sqrt();
    0.5 * x * (1.0 + erf)
}

/// The `mixed_process` rig.
pub struct Mixed {
    bert: TinyBert,
    mode: InferenceMode,
    program: Program,
    pool: Option<ServeEngine>,
    weight: Tensor,
    seqs: Vec<Vec<usize>>,
    gemm_a: Vec<Tensor>,
    gelu_x: Vec<Tensor>,
    bursts: usize,
}

/// Keys: BERT inputs first, then GEMM inputs, then GELU inputs.
const GEMM_KEY: usize = INPUT_SETS * BERT;
const GELU_KEY: usize = GEMM_KEY + INPUT_SETS * GEMMS;

impl Rig for Mixed {
    const WARMUP_ROUNDS: usize = INPUT_SETS;
    const BLOCK_ROUNDS: usize = 25;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let bert = TinyBert::new(MODEL_SEED, VOCAB, SEQ, CLASSES, 2);
        let s = tr.begin("compile", None);
        let mode = InferenceMode::cpwl(GRANULARITY).map_err(|e| e.to_string())?;
        let program = bert
            .compile((&mode, SEQ))
            .and_then(|p| p.optimize(OptLevel::Standard))
            .map_err(|e| e.to_string())?;
        tr.end(s);
        let s = tr.begin("pool_start", None);
        let pool = ServeEngine::start(
            ServeConfig::uniform(2, ArrayConfig::default(), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo {
                    window: BERT + GEMMS + GELUS,
                })
                .with_routing(RoutePolicy::RoundRobin)
                .with_backend(ShardBackend::Process(ProcessConfig {
                    transport: Transport::Unix,
                    worker: Some(opts.worker.clone()),
                })),
        )
        .map_err(|e| e.to_string())?;
        tr.end(s);
        let mut rng = Pcg32::seed_from_u64(opts.seed);
        let weight = rng.randn(&WEIGHT, 1.0);
        let seqs = (0..INPUT_SETS * BERT)
            .map(|_| (0..SEQ).map(|_| rng.below(VOCAB as u32) as usize).collect())
            .collect();
        let gemm_a = (0..INPUT_SETS * GEMMS)
            .map(|_| rng.randn(&[GEMM_ROWS, WEIGHT[0]], 1.0))
            .collect();
        let gelu_x = (0..INPUT_SETS * GELUS)
            .map(|_| rng.rand_uniform(&GELU_SHAPE, -4.0, 4.0))
            .collect();
        Ok(Mixed {
            bert,
            mode,
            program,
            pool: Some(pool),
            weight,
            seqs,
            gemm_a,
            gelu_x,
            bursts: 0,
        })
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Record) {
        let started = Instant::now();
        let burst = tr.begin("burst", None);
        let set = self.bursts % INPUT_SETS;
        self.bursts += 1;
        let pool = self.pool.as_ref().expect("pool runs until finish");
        // Submission order makes round-robin routing give both shards
        // the same mix: 4 BERT, 2 GEMM and 2 GELU each.
        let bert = (set * BERT..(set + 1) * BERT).map(|k| {
            let ids = TinyBert::ids_tensor(&self.seqs[k]);
            (k, Request::program(self.program.clone(), vec![ids]))
        });
        let gemms = (set * GEMMS..(set + 1) * GEMMS).map(|k| {
            let r = Request::gemm(self.gemm_a[k].clone(), self.weight.clone());
            (GEMM_KEY + k, r)
        });
        let gelus = (set * GELUS..(set + 1) * GELUS).map(|k| {
            let r = Request::nonlinear(NonlinearFn::Gelu, self.gelu_x[k].clone());
            (GELU_KEY + k, r)
        });
        let tickets = staged(
            pool,
            tr,
            burst,
            bert.chain(gemms).chain(gelus),
            |pool, r| pool.submit(r),
        );
        collect(tr, burst, rec, started, tickets, true);
        tr.end(burst);
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.pool
            .as_ref()
            .map_or_else(Vec::new, |p| p.worker_pids().to_vec())
    }

    fn finish(&mut self) -> Result<ServeSummary, String> {
        let pool = self.pool.take().expect("finish runs once");
        pool.finish().map_err(|e| e.to_string())
    }

    fn check(&self, recs: &[&Record], _summary: &ServeSummary) -> Checks {
        let tables = self.mode.table_set().expect("CPWL mode has tables");
        let mut reference = Vec::with_capacity(GELU_KEY + INPUT_SETS * GELUS);
        reference.extend(
            self.seqs
                .iter()
                .map(|s| fingerprint(&self.bert.predict_direct(s, &self.mode))),
        );
        reference.extend(self.gemm_a.iter().map(|a| {
            let c = gemm::matmul(a, &self.weight).expect("GEMM shapes agree");
            fingerprint(c.as_slice())
        }));
        let bound = gelu_bound(f64::from(GRANULARITY));
        let mut out_of_bound = 0;
        for x in &self.gelu_x {
            let y = tables.gelu(x).expect("GELU over a matrix");
            reference.push(fingerprint(y.as_slice()));
            let worst = x
                .as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(&xi, &yi)| (f64::from(yi) - gelu_f64(f64::from(xi))).abs())
                .fold(0.0, f64::max);
            out_of_bound += usize::from(worst.is_nan() || worst > bound);
        }
        let failed: usize = recs.iter().map(|r| r.mismatches(|k| reference[k])).sum();
        Checks {
            extra_attempted: self.gelu_x.len(),
            failed: failed + out_of_bound,
        }
    }

    fn ledger_requests(&self) -> Vec<Replay> {
        // Raw requests replay as the one-op programs they execute as.
        let raw = EvalMode::Cpwl {
            granularity: GRANULARITY,
            quantize: false,
        };
        let one_op = |op: Op, a: &Tensor, consts: &[&Tensor]| {
            let mut b = Program::builder("raw", raw);
            let mut operands = vec![b.input(a.dims())];
            operands.extend(consts.iter().map(|&c| b.constant(c.clone())));
            b.push(op, &operands);
            let p = b.finish().expect("one-op program validates");
            Replay::Program(p, vec![a.clone()])
        };
        let mut out: Vec<Replay> = self.seqs[..BERT]
            .iter()
            .map(|s| Replay::Program(self.program.clone(), vec![TinyBert::ids_tensor(s)]))
            .collect();
        out.extend(self.gemm_a[..GEMMS].iter().map(|a| {
            let gemm = Op::Gemm {
                bias: None,
                sparsity: None,
            };
            one_op(gemm, a, &[&self.weight])
        }));
        out.extend(
            self.gelu_x[..GELUS]
                .iter()
                .map(|x| one_op(Op::Nonlinear(NonlinearFn::Gelu), x, &[])),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_gelu_matches_known_values() {
        assert!(gelu_f64(0.0).abs() < 1e-15);
        assert!((gelu_f64(1.0) - 0.841_344_746_068_543).abs() < 1e-12);
        assert!((gelu_f64(-1.0) + 0.158_655_253_931_457).abs() < 1e-12);
        assert!((gelu_f64(4.0) - 3.999_873_315_032_668).abs() < 1e-10);
    }

    #[test]
    fn interpolation_bound_at_paper_granularity() {
        let b = gelu_bound(0.25);
        assert!(b > 0.0062 && b < 0.0063, "{b}");
    }
}
