//! `cnn_cifar`: `SmallCnn` on 3×32×32 inputs (the paper's CIFAR-10
//! ResNet shape), CPWL at 0.25 with INT16 boundaries, bursts of 4 on a
//! 2-shard in-process pool. Host time goes to the GEMM and im2col
//! kernels of `onesa-tensor`.

use std::time::Instant;

use onesa_core::plan::{Compile, OptLevel};
use onesa_core::serve::{AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ServeSummary};
use onesa_core::{Parallelism, Program};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::SmallCnn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

use crate::layers::Replay;
use crate::trace::Tracer;
use crate::{
    argmax, collect, fingerprint, staged, Checks, Options, Record, Rig, GRANULARITY, MODEL_SEED,
};

/// Requests per burst (one admission window).
pub const BURST: usize = 4;
/// Distinct input images; bursts cycle through them.
pub const INPUTS: usize = 16;
/// Largest |logit| deviation of CPWL from exact-mode logits, per image:
/// the CNN bound at granularity 0.25 documented in
/// `docs/ARCHITECTURE.md` (measured ≈ 0.025, pinned with headroom).
pub const DEVIATION_BOUND: f32 = 0.1;
/// Least share of images whose CPWL top-1 class equals the exact one.
pub const TOP1_FLOOR: f64 = 0.85;

const CLASSES: usize = 10;

/// The `cnn_cifar` rig.
pub struct Cnn {
    model: SmallCnn,
    mode: InferenceMode,
    program: Program,
    pool: Option<ServeEngine>,
    inputs: Vec<Tensor>,
    bursts: usize,
}

impl Rig for Cnn {
    const WARMUP_ROUNDS: usize = INPUTS / BURST;
    const BLOCK_ROUNDS: usize = 100;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let model = SmallCnn::new(MODEL_SEED, 3, CLASSES);
        let s = tr.begin("compile", None);
        let mode = InferenceMode::cpwl(GRANULARITY).map_err(|e| e.to_string())?;
        let program = model
            .compile((&mode, (32, 32)))
            .and_then(|p| p.optimize(OptLevel::Standard))
            .map_err(|e| e.to_string())?;
        tr.end(s);
        let pool = ServeEngine::start(
            ServeConfig::uniform(2, ArrayConfig::default(), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: BURST })
                .with_routing(RoutePolicy::RoundRobin),
        )
        .map_err(|e| e.to_string())?;
        let mut rng = Pcg32::seed_from_u64(opts.seed);
        let inputs = (0..INPUTS).map(|_| rng.randn(&[3, 32, 32], 1.0)).collect();
        Ok(Cnn {
            model,
            mode,
            program,
            pool: Some(pool),
            inputs,
            bursts: 0,
        })
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Record) {
        let started = Instant::now();
        let burst = tr.begin("burst", None);
        let first = self.bursts * BURST;
        self.bursts += 1;
        let pool = self.pool.as_ref().expect("pool runs until finish");
        let keys = (first..first + BURST).map(|i| (i % INPUTS, i % INPUTS));
        let tickets = staged(pool, tr, burst, keys, |pool, k| {
            pool.submit_program(self.program.clone(), vec![self.inputs[k].clone()])
        });
        collect(tr, burst, rec, started, tickets, true);
        tr.end(burst);
    }

    fn worker_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    fn finish(&mut self) -> Result<ServeSummary, String> {
        let pool = self.pool.take().expect("finish runs once");
        pool.finish().map_err(|e| e.to_string())
    }

    fn check(&self, recs: &[&Record], _summary: &ServeSummary) -> Checks {
        let cpwl: Vec<Vec<f32>> = self
            .inputs
            .iter()
            .map(|x| self.model.logits_direct(x, &self.mode))
            .collect();
        let exact: Vec<Vec<f32>> = self
            .inputs
            .iter()
            .map(|x| self.model.logits_direct(x, &InferenceMode::Exact))
            .collect();
        let fingerprints: Vec<u64> = cpwl.iter().map(|l| fingerprint(l)).collect();
        let mut failed: usize = recs.iter().map(|r| r.mismatches(|k| fingerprints[k])).sum();
        let mut agree = 0;
        for (c, e) in cpwl.iter().zip(&exact) {
            let deviation = c
                .iter()
                .zip(e)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            failed += usize::from(deviation.is_nan() || deviation > DEVIATION_BOUND);
            agree += usize::from(argmax(c) == argmax(e));
        }
        failed += usize::from((agree as f64) < TOP1_FLOOR * INPUTS as f64);
        Checks {
            extra_attempted: INPUTS + 1,
            failed,
        }
    }

    fn ledger_requests(&self) -> Vec<Replay> {
        self.inputs[..BURST]
            .iter()
            .map(|x| Replay::Program(self.program.clone(), vec![x.clone()]))
            .collect()
    }
}
