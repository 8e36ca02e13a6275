//! `lm_decode`: `TinyCausalLm` (vocab 64, max_len 64, 2 layers, tied
//! head) with 8 sessions and 8-token prompts decoding to full context.
//! A round is one conversation: the 8 prefills form one window, then
//! each decode round's 8 steps form one window on a 1-shard pool.
//! Host time is per-op and per-call overhead on one-row tensors.

use std::sync::Arc;
use std::time::Instant;

use onesa_core::serve::{
    AdmissionPolicy, InterleavePolicy, RoutePolicy, ServeConfig, ServeEngine, ServeSummary,
    SessionId,
};
use onesa_core::{Parallelism, Program};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyCausalLm;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;

use crate::layers::Replay;
use crate::trace::Tracer;
use crate::{
    argmax, collect, fingerprint, staged, Checks, Options, Record, Rig, GRANULARITY, MODEL_SEED,
};

/// Concurrent decoding sessions.
pub const SESSIONS: usize = 8;
/// Prompt length.
pub const PROMPT: usize = 8;
/// Vocabulary size.
pub const VOCAB: usize = 64;
/// Longest context.
pub const MAX_LEN: usize = 64;
/// Transformer blocks.
pub const LAYERS: usize = 2;
/// Tokens generated per session: the prefill's token plus one per
/// decode step, until the sequence fills `MAX_LEN`.
pub const TOKENS: usize = MAX_LEN - PROMPT;
/// Distinct prompt sets; conversations cycle through them.
pub const PROMPT_SETS: usize = 4;

/// Builds the served model (also used by the layer probes).
pub fn model() -> TinyCausalLm {
    TinyCausalLm::new(MODEL_SEED, VOCAB, MAX_LEN, LAYERS, true)
}

/// The pool configuration of `lm_decode` (also used by the session
/// probe).
pub fn pool_config() -> ServeConfig {
    ServeConfig::uniform(1, ArrayConfig::default(), Parallelism::Sequential)
        .with_admission(AdmissionPolicy::Fifo {
            window: 2 * SESSIONS,
        })
        .with_routing(RoutePolicy::WeightAffinity)
        .with_interleave(InterleavePolicy::DecodeFirst)
}

/// The `lm_decode` rig.
pub struct Lm {
    model: TinyCausalLm,
    mode: InferenceMode,
    prefill: Arc<Program>,
    pool: Option<ServeEngine>,
    /// `prompts[set][session]`.
    prompts: Vec<Vec<Vec<usize>>>,
    conversations: usize,
}

/// Reference key of token `step` of `session` in prompt set `set`.
fn key(set: usize, session: usize, step: usize) -> usize {
    (set * SESSIONS + session) * TOKENS + step
}

impl Rig for Lm {
    const WARMUP_ROUNDS: usize = 1;
    const BLOCK_ROUNDS: usize = 1;

    fn setup(opts: &Options, tr: &mut Tracer) -> Result<Self, String> {
        let model = model();
        let mode = InferenceMode::cpwl(GRANULARITY).map_err(|e| e.to_string())?;
        let s = tr.begin("compile", None);
        let prefill = model.compiled_prefill(&mode, PROMPT);
        tr.end(s);
        for ctx in PROMPT..MAX_LEN - 1 {
            let s = tr.begin("compile", None);
            model.compiled_decode(&mode, ctx);
            tr.end(s);
        }
        let pool = ServeEngine::start(pool_config()).map_err(|e| e.to_string())?;
        let mut rng = Pcg32::seed_from_u64(opts.seed);
        let prompts = (0..PROMPT_SETS)
            .map(|_| {
                (0..SESSIONS)
                    .map(|_| {
                        (0..PROMPT)
                            .map(|_| rng.below(VOCAB as u32) as usize)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Ok(Lm {
            model,
            mode,
            prefill,
            pool: Some(pool),
            prompts,
            conversations: 0,
        })
    }

    fn round(&mut self, tr: &mut Tracer, rec: &mut Record) {
        let set = self.conversations % PROMPT_SETS;
        self.conversations += 1;
        let pool = self.pool.as_ref().expect("pool runs until finish");
        let conversation = tr.begin("conversation", None);
        let sessions: Vec<SessionId> = (0..SESSIONS)
            .map(|_| {
                let s = tr.begin("open_session", conversation);
                let sid = pool.open_session();
                tr.end(s);
                sid
            })
            .collect();

        let started = Instant::now();
        let burst = tr.begin("burst", conversation);
        let items = sessions
            .iter()
            .enumerate()
            .map(|(i, &sid)| (key(set, i, 0), (sid, &self.prompts[set][i])));
        let tickets = staged(pool, tr, burst, items, |pool, (sid, prompt)| {
            pool.submit_prefill(
                sid,
                Program::clone(&self.prefill),
                vec![TinyCausalLm::ids_tensor(prompt)],
                PROMPT,
            )
        });
        let mut next: Vec<usize> = collect(tr, burst, rec, started, tickets, false)
            .iter()
            .map(|o| o.as_ref().map_or(0, |t| argmax(t.as_slice())))
            .collect();
        tr.end(burst);

        for step in 1..TOKENS {
            let started = Instant::now();
            let burst = tr.begin("burst", conversation);
            let mut items = Vec::with_capacity(SESSIONS);
            for (i, &sid) in sessions.iter().enumerate() {
                let s = tr.begin("context_rows", burst);
                let ctx = pool.session_context_rows(sid).unwrap_or(PROMPT + step - 1);
                tr.end(s);
                let s = tr.begin("compile", burst);
                let program = self.model.compiled_decode(&self.mode, ctx);
                tr.end(s);
                items.push((key(set, i, step), (sid, program, next[i])));
            }
            let tickets = staged(pool, tr, burst, items, |pool, (sid, program, token)| {
                pool.submit_decode(
                    sid,
                    Program::clone(&program),
                    vec![TinyCausalLm::ids_tensor(&[token])],
                )
            });
            let outputs = collect(tr, burst, rec, started, tickets, true);
            for (n, o) in next.iter_mut().zip(&outputs) {
                *n = o.as_ref().map_or(0, |t| argmax(t.as_slice()));
            }
            tr.end(burst);
        }

        for sid in sessions {
            let s = tr.begin("close_session", conversation);
            pool.close_session(sid);
            tr.end(s);
        }
        tr.end(conversation);
    }

    fn worker_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    fn finish(&mut self) -> Result<ServeSummary, String> {
        let pool = self.pool.take().expect("finish runs once");
        pool.finish().map_err(|e| e.to_string())
    }

    fn check(&self, recs: &[&Record], summary: &ServeSummary) -> Checks {
        // References only for the prompt sets the timed phases served.
        let total = PROMPT_SETS * SESSIONS * TOKENS;
        let mut used = [false; PROMPT_SETS];
        for s in recs.iter().flat_map(|r| r.outputs.keys()) {
            used[s.key / (SESSIONS * TOKENS)] = true;
        }
        let mut tokens = vec![usize::MAX; total];
        let mut logits = vec![0u64; total];
        for (set, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            for (i, prompt) in self.prompts[set].iter().enumerate() {
                let stream = self.model.generate_direct(prompt, TOKENS, &self.mode);
                let mut seq = prompt.clone();
                for (step, &tok) in stream.iter().enumerate() {
                    let k = key(set, i, step);
                    logits[k] = fingerprint(&self.model.next_logits_direct(&seq, &self.mode));
                    tokens[k] = tok;
                    seq.push(tok);
                }
            }
        }
        let failed: usize = recs
            .iter()
            .map(|r| {
                r.count_failing(|s| s.fingerprint == logits[s.key] && s.argmax == tokens[s.key])
            })
            .sum();
        let s = summary.sessions;
        let clean = s.live == 0
            && s.opened == s.closed
            && s.evicted_deadline == 0
            && s.evicted_overflow == 0;
        Checks {
            extra_attempted: 1,
            failed: failed + usize::from(!clean),
        }
    }

    fn ledger_requests(&self) -> Vec<Replay> {
        vec![Replay::Session {
            prefill: Program::clone(&self.prefill),
            prompt: self.prompts[0][0].clone(),
            decode: (PROMPT..MAX_LEN - 1)
                .map(|ctx| Program::clone(&self.model.compiled_decode(&self.mode, ctx)))
                .collect(),
        }]
    }
}
