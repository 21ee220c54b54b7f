//! `exec_ode`: `Team::run` of the real SPMD programs of EPOL R=4 and
//! PABM(8,2) on BRUSS2D, in the paper's task-parallel layout over one
//! worker per core.
//!
//! Two sizes: n = 18 432 (grid 96), where barriers and redistribution
//! dominate, and n = 80 000 (grid 200), where the right-hand-side kernel
//! dominates.  One solve integrates a program's fixed step sequence; one
//! round solves all four programs.  The seed perturbs the initial value.
//! A plain sequential solve of the same steps is the baseline and the
//! correctness reference.

use crate::checks;
use crate::trace::{self, Tracer};
use crate::util::{self, median, quantile, Outcome, Rng};
use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskCtx, TaskFn, Team};
use pt_obs::{keys, TraceRecorder};
use pt_ode::pab::{startup, state_to_store, store_to_state, BlockState};
use pt_ode::{Bruss2d, Epol, OdeSystem, Pabm};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

const H: f64 = 1e-4;
/// A round with more stolen CPU time than this (ticks of 1/100 s, all
/// cores) is left out of `latency_ms`, if enough rounds remain.
const MAX_STEAL_TICKS: u64 = 1;
const MIN_CLEAN_ROUNDS: usize = 12;
/// Times the team and programs are built to measure set-up (1–2 s each),
/// at evenly spaced moments of the run: a shared host's speed changes in
/// phases of seconds, and builds made back to back all read one phase.
const SETUPS: usize = 5;

#[derive(Clone, Copy)]
enum Method {
    Epol,
    Pabm,
}

/// `(method, grid, steps)`: step counts give each solve a similar length.
const CONFIGS: [(Method, usize, usize); 4] = [
    (Method::Epol, 96, 20),
    (Method::Pabm, 96, 5),
    (Method::Epol, 200, 6),
    (Method::Pabm, 200, 2),
];

fn name(c: &(Method, usize, usize)) -> String {
    let m = match c.0 {
        Method::Epol => "epol_r4",
        Method::Pabm => "pabm_8_2",
    };
    format!("{m}.n{}", 2 * c.1 * c.1)
}

/// One program ready to solve: the initial store contents, the program
/// and the sequential reference's final state.
struct Solver {
    label: String,
    method: Method,
    steps: usize,
    sys: Bruss2d,
    program: Program,
    /// EPOL: the initial state; PABM: the startup block.
    y0: Vec<f64>,
    block0: Option<BlockState>,
}

impl Solver {
    fn store(&self) -> Arc<DataStore> {
        let store = DataStore::new();
        match &self.block0 {
            Some(b) => state_to_store(b, &store),
            None => {
                store.put("t", vec![0.0]);
                store.put("h", vec![H]);
                store.put("eta", self.y0.clone());
            }
        }
        store
    }

    fn final_state(&self, store: &DataStore) -> Vec<f64> {
        match self.block0 {
            Some(_) => store_to_state(store, 8).y,
            None => store.get("eta").expect("eta"),
        }
    }

    /// The plain sequential solve of the same steps.
    fn sequential(&self) -> Vec<f64> {
        match (&self.block0, self.method) {
            (Some(b), Method::Pabm) => {
                let pabm = Pabm::new(8, 2);
                let mut s = b.clone();
                for _ in 0..self.steps {
                    s = pabm.step(&self.sys, &s);
                }
                s.y
            }
            _ => {
                let epol = Epol::new(4);
                let mut y = self.y0.clone();
                let mut t = 0.0;
                for _ in 0..self.steps {
                    y = epol.step(&self.sys, t, &y, H);
                    t += H;
                }
                y
            }
        }
    }
}

/// `parts` contiguous worker ranges over `0..workers` (fewer when there
/// are fewer workers).
fn groups(workers: usize, parts: usize) -> Vec<Range<usize>> {
    let g = parts.min(workers).max(1);
    (0..g)
        .map(|i| (i * workers / g)..((i + 1) * workers / g))
        .collect()
}

fn build(seed: u64, workers: usize) -> (Team, Vec<Solver>) {
    let team = Team::new(workers);
    let mut rng = Rng::new(seed, 0x0DE);
    let solvers = CONFIGS
        .iter()
        .map(|c| {
            let (method, grid, steps) = *c;
            let sys = Bruss2d::new(grid);
            let mut y0 = sys.initial_value();
            for y in &mut y0 {
                *y *= 1.0 + 1e-3 * (rng.next_f64() - 0.5);
            }
            let shared: Arc<dyn OdeSystem> = Arc::new(sys.clone());
            let (program, block0) = match method {
                // R/2 groups: the paired micro-step chains of Fig. 6.
                Method::Epol => (
                    Epol::new(4).build_program(&shared, &groups(workers, 2)),
                    None,
                ),
                Method::Pabm => (
                    Pabm::new(8, 2).build_program(&shared, &groups(workers, 8)),
                    Some(startup(&sys, 0.0, &y0, H, 8)),
                ),
            };
            Solver {
                label: name(c),
                method,
                steps,
                sys,
                program,
                y0,
                block0,
            }
        })
        .collect();
    (team, solvers)
}

/// [`build`], adding the seconds it took to `times`.
fn timed_build(seed: u64, workers: usize, times: &mut Vec<f64>) -> (Team, Vec<Solver>) {
    let t0 = Instant::now();
    let built = build(seed, workers);
    times.push(util::secs(t0));
    built
}

/// One solve's wall seconds, per-step seconds, final state and the bytes
/// the program wrote into the store.
struct Solved {
    wall: f64,
    steps: Vec<f64>,
    state: Vec<f64>,
    bytes: u64,
}

/// Solve one program: `Team::run` once per step from the initial store.
fn solve(team: &Team, s: &Solver, opts: &RunOptions) -> Result<Solved, String> {
    let store = s.store();
    let before = store.bytes_written();
    let mut steps = Vec::with_capacity(s.steps);
    let t0 = Instant::now();
    for _ in 0..s.steps {
        let ts = Instant::now();
        team.run_with(&s.program, &store, opts)
            .map_err(|e| format!("{}: {e}", s.label))?;
        steps.push(util::secs(ts));
    }
    let wall = util::secs(t0);
    Ok(Solved {
        wall,
        steps,
        state: s.final_state(&store),
        bytes: store.bytes_written() - before,
    })
}

pub fn run(seed: u64, seconds: f64, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let (mut team, mut solvers) = timed_build(seed, workers, &mut setup_times);
    let references: Vec<Vec<f64>> = solvers.iter().map(Solver::sequential).collect();
    let opts = RunOptions::default();

    let mut round_s: Vec<f64> = Vec::new();
    let mut step_ms: Vec<f64> = Vec::new();
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); solvers.len()];
    let mut redist_first: Option<u64> = None;
    let mut worst = 0.0f64;
    let t_all = Instant::now();
    // Seconds spent rebuilding, which do not count as measuring.
    let mut rebuilding = 0.0;
    let measuring = |rebuilding: f64| util::secs(t_all) - rebuilding;
    let mut clean_s: Vec<f64> = Vec::new();
    // Measure for `seconds`, and longer (up to twice) while fewer than
    // `MIN_CLEAN_ROUNDS` rounds ran without steal.
    while round_s.is_empty()
        || measuring(rebuilding) < seconds
        || (clean_s.len() < MIN_CLEAN_ROUNDS && measuring(rebuilding) < 2.0 * seconds)
    {
        let steal0 = util::steal_ticks();
        let mut round = 0.0;
        let mut redist = 0;
        for (i, s) in solvers.iter().enumerate() {
            out.attempted += 1;
            match solve(&team, s, &opts) {
                Ok(done) => {
                    round += done.wall;
                    redist += done.bytes;
                    per_config[i].push(done.wall);
                    step_ms.extend(done.steps.iter().map(|s| s * 1e3));
                    match checks::check_state(&done.state, &references[i]) {
                        Ok(d) => worst = worst.max(d),
                        Err(e) => {
                            out.failed += 1;
                            out.check(&s.label, Err(e));
                        }
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(&s.label, Err(e));
                }
            }
        }
        match redist_first {
            None => redist_first = Some(redist),
            Some(first) => out.check(
                "exec.redist_bytes per round",
                checks::check_repeat("exec.redist_bytes", first, redist),
            ),
        }
        round_s.push(round);
        if util::steal_ticks() - steal0 <= MAX_STEAL_TICKS {
            clean_s.push(round);
        }
        let due = seconds * setup_times.len() as f64 / SETUPS as f64;
        if setup_times.len() < SETUPS && measuring(rebuilding) >= due {
            let t0 = Instant::now();
            drop((team, solvers));
            (team, solvers) = timed_build(seed, workers, &mut setup_times);
            rebuilding += util::secs(t0);
        }
    }

    // A solve integrates the four programs' fixed step sequences.  Noise
    // from other tenants of the host only ever slows a solve, and with two
    // workers on two cores one stalled core stalls both at the next
    // barrier: rounds during which the hypervisor stole CPU time are left
    // out (unless too few are left), and the lower quartile of the rest is
    // the steadier estimate of what the program costs.
    let measured = if clean_s.len() >= MIN_CLEAN_ROUNDS {
        &clean_s
    } else {
        &round_s
    };
    out.metric("setup_s", median(&setup_times), "s");
    out.info("setups", setup_times.len());
    out.metric("latency_ms", quantile(measured, 0.25) * 1e3, "ms");
    out.info("clean_rounds", clean_s.len());
    out.info("solve_p25_all_rounds_ms", quantile(&round_s, 0.25) * 1e3);
    out.info(
        "solves_per_s",
        round_s.len() as f64 / round_s.iter().sum::<f64>(),
    );
    out.metric(
        "peak_rss_mb",
        util::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    out.info("solve_s", median(&round_s));
    out.info("rounds", round_s.len());
    out.info("steps", step_ms.len());
    out.info("step_p50_ms", median(&step_ms));
    out.info("step_p99_ms", quantile(&step_ms, 0.99));
    out.info("solve_p99_ms", quantile(&round_s, 0.99) * 1e3);
    out.info("workers", workers);
    out.info("max_abs_diff_vs_sequential", worst);
    out.info("ode_rel_tolerance", checks::ODE_REL_TOL);
    out.info("exec.redist_bytes", redist_first.unwrap_or(0));
    for (s, t) in solvers.iter().zip(&per_config) {
        out.info(&format!("solve_ms.{}", s.label), median(t) * 1e3);
    }
    out.info(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// Median seconds of `reps` runs of a synthetic one-layer program whose
/// task body is `body`, over all workers.
fn probe(team: &Team, reps: usize, body: Arc<TaskFn>) -> f64 {
    let program = Program::single_layer(vec![GroupPlan::new(0..team.size(), vec![body])]);
    let store = DataStore::new();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            team.run(&program, &store).expect("probe program runs");
            util::secs(t0)
        })
        .collect();
    median(&times)
}

/// The traced run: rounds with the executor's recorder attached and a
/// span around every solve and step, synthetic probes of the executor's
/// layer, barrier and allgather costs, and the kernel baseline.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    workers: usize,
    epoch: Instant,
) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let (team, solvers) = build(seed, workers);
    let rounds = (seconds * 2.0).ceil() as usize;

    // Sequential baseline T1 (kernel share).
    let t0 = Instant::now();
    let mut seq_steps = 0;
    for s in &solvers {
        std::hint::black_box(s.sequential());
        seq_steps += s.steps;
    }
    let t1 = util::secs(t0);
    // Untraced and traced rounds alternate, so a change in the host's
    // speed during the run does not land on one side only.
    let plain = RunOptions::default();
    let recorder = Arc::new(TraceRecorder::for_team(workers));
    let opts = RunOptions::default().with_recorder(recorder.clone());
    let mut t = Tracer::new(epoch);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut redist = 0u64;
    let mut steps = 0u64;
    for r in 0..rounds {
        let mut round = 0.0;
        for s in &solvers {
            round += solve(&team, s, &plain).expect("untraced solve").wall;
        }
        plain_s.push(round);
        let mut round = 0.0;
        for s in &solvers {
            let store = s.store();
            let before = store.bytes_written();
            let root = t.begin("exec.solve", r as u64);
            for _ in 0..s.steps {
                t.span("exec.step", r as u64, || {
                    team.run_with(&s.program, &store, &opts)
                        .expect("traced solve")
                });
                steps += 1;
            }
            t.end(root);
            round += (t.spans[root].end_us - t.spans[root].start_us) / 1e6;
            if r == 0 {
                redist += store.bytes_written() - before;
            }
        }
        traced_s.push(round);
    }
    let snap = recorder.metrics().snapshot();
    let task_s = snap.histogram(keys::TASK_SECONDS).map_or(0.0, |h| h.sum);
    let wait_s = snap.histogram(keys::BARRIER_WAIT).map_or(0.0, |h| h.sum);
    let step_us: f64 = t
        .spans
        .iter()
        .filter(|s| s.name == "exec.step")
        .map(|s| s.end_us - s.start_us)
        .sum();

    // Synthetic probes.
    let layers = 100;
    let mut empty = Program::default();
    for _ in 0..layers {
        let nop: Arc<TaskFn> = Arc::new(|_: &TaskCtx| {});
        empty.push_layer(vec![GroupPlan::new(0..workers, vec![nop])]);
    }
    let store = DataStore::new();
    let overhead: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            team.run(&empty, &store).expect("empty program runs");
            util::secs(t0) / layers as f64
        })
        .collect();
    let barriers = 1000;
    let barrier_s = probe(
        &team,
        5,
        Arc::new(move |ctx: &TaskCtx| {
            for _ in 0..barriers {
                ctx.comm.barrier();
            }
        }),
    ) / barriers as f64;
    let n = 2 * 96 * 96;
    let gathers = 200;
    let allgather_s = probe(
        &team,
        5,
        Arc::new(move |ctx: &TaskCtx| {
            let local = vec![1.0; ctx.block_range(n).len()];
            let counts: Vec<usize> = (0..ctx.size)
                .map(|r| pt_exec::program::block_range(n, r, ctx.size).len())
                .collect();
            let mut full = vec![0.0; n];
            for _ in 0..gathers {
                ctx.comm.allgatherv(ctx.rank, &local, &counts, &mut full);
            }
            std::hint::black_box(&full);
        }),
    ) / gathers as f64;

    // Kernel: one full right-hand-side evaluation of the large system.
    let big = Bruss2d::new(200);
    let y = big.initial_value();
    let mut f = vec![0.0; big.dim()];
    let eval: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            big.eval(0.0, &y, &mut f);
            std::hint::black_box(&f);
            util::secs(t0)
        })
        .collect();

    let tp = median(&plain_s);
    let per_round = rounds.max(1) as f64;
    out.attempted = (rounds * solvers.len()) as u64;
    out.metric("exec.step_ms", step_us / 1e3 / steps.max(1) as f64, "ms");
    out.metric("exec.task_s", task_s / per_round, "s");
    out.metric("exec.barrier_wait_s", wait_s / per_round, "s");
    out.metric("exec.redist_bytes", redist as f64, "bytes");
    out.metric("exec.layer_overhead_us", median(&overhead) * 1e6, "us");
    out.metric("exec.barrier_us", barrier_s * 1e6, "us");
    out.metric("exec.allgather_us", allgather_s * 1e6, "us");
    out.metric(
        "exec.parallel_efficiency",
        t1 / (workers as f64 * tp),
        "ratio",
    );
    out.metric("ode.seq_step_ms", t1 * 1e3 / seq_steps as f64, "ms");
    out.metric("ode.eval_ms", median(&eval) * 1e3, "ms");
    // Computed, not measured: each component's state is read and its
    // derivative written once per evaluation.
    out.metric("ode.eval_bytes", (16 * big.dim()) as f64, "bytes");
    out.metric(
        "obs.overhead_frac",
        median(&traced_s) / tp.max(1e-12) - 1.0,
        "ratio",
    );

    // Accounting: a solve is its steps plus store set-up; a step's
    // worker-time is task time plus barrier wait plus the rest.
    let solve_us: f64 = trace::root_total_us(&t.spans, "exec.solve");
    let task_share = task_s * 1e6 / workers as f64 / solve_us.max(1e-9);
    let wait_share = wait_s * 1e6 / workers as f64 / solve_us.max(1e-9);
    let step_share = step_us / solve_us.max(1e-9);
    out.info(
        "accounting",
        serde::Value::Map(vec![
            ("exec.task".into(), serde::Value::Float(task_share)),
            ("exec.barrier_wait".into(), serde::Value::Float(wait_share)),
            (
                "exec.step_other".into(),
                serde::Value::Float(step_share - task_share - wait_share),
            ),
            (
                "exec.solve_other".into(),
                serde::Value::Float(1.0 - step_share),
            ),
        ]),
    );
    (out, t.spans)
}
