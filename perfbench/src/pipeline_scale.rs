//! `pipeline_scale`: the in-process one-shot pipeline over a seeded
//! sequence of large requests.
//!
//! Each request runs graph → `LayerScheduler::new` with default options
//! (so the automatic sweep-worker choice runs) → `MappingStrategy::mapping`
//! → `simulate_layered`, on JUROPA widened to P ∈ {4096, 16384, 65536}.
//! The requests are a fixed catalogue of BT-MZ, SP-MZ and EPOL graphs,
//! a quarter of them on machines whose trailing quarter of nodes is slow.
//! Every round runs the whole catalogue in a fresh seeded order, so each
//! round does the same work; the seed also picks the slow nodes' speed.

use crate::checks;
use crate::trace::{self, Tracer};
use crate::util::{self, mean, median, quantile, Outcome, Rng};
use pt_core::{LayerScheduler, LayeredSchedule, MappingStrategy};
use pt_cost::{CostModel, CostTable};
use pt_machine::{platforms, ClusterSpec};
use pt_mtask::TaskGraph;
use pt_nas::{bt_mz, sp_mz, Class};
use pt_obs::{Recorder, TraceRecorder};
use pt_ode::{Bruss2d, Epol};
use pt_sim::Simulator;
use std::sync::Arc;
use std::time::Instant;

/// Graphs of the catalogue: two time steps each.
const GRAPHS: [&str; 6] = [
    "bt-mz.C", "bt-mz.D", "bt-mz.E", "sp-mz.C", "sp-mz.D", "epol.R8",
];

/// `(graph, P, mapping, slow nodes)`; a quarter of the machines have
/// slow nodes, which turns on the heterogeneity-aware scheduler.  SP-MZ
/// class E (about 2 s per request) and slow-node machines for class D and
/// E graphs (seconds to minutes each) are left out to keep a round short.
const CATALOGUE: [(usize, usize, MappingStrategy, bool); 17] = [
    (0, 4096, MappingStrategy::Consecutive, false),
    (0, 16384, MappingStrategy::Scattered, false),
    (0, 65536, MappingStrategy::Consecutive, false),
    (0, 4096, MappingStrategy::Scattered, true),
    (1, 4096, MappingStrategy::Scattered, false),
    (1, 16384, MappingStrategy::Consecutive, false),
    (1, 65536, MappingStrategy::Scattered, false),
    (2, 65536, MappingStrategy::Consecutive, false),
    (3, 16384, MappingStrategy::Consecutive, false),
    (3, 65536, MappingStrategy::Scattered, true),
    (4, 4096, MappingStrategy::Consecutive, false),
    (4, 65536, MappingStrategy::Scattered, false),
    (5, 4096, MappingStrategy::Scattered, false),
    (5, 16384, MappingStrategy::Consecutive, false),
    (5, 65536, MappingStrategy::Scattered, false),
    (5, 65536, MappingStrategy::Consecutive, true),
    (5, 16384, MappingStrategy::Scattered, true),
];

/// Speeds the seed picks from for the slow nodes.
const SLOW_FACTORS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
/// Times the inputs are built again after every round to measure set-up
/// (10–20 ms each, mostly page faults).  The builds are spread over the
/// run, because a shared host's speed changes in phases longer than a
/// build: a set-up timed only at the start reads that moment's phase.
const SETUPS_PER_ROUND: usize = 3;

fn graph(name: &str) -> TaskGraph {
    match name {
        "bt-mz.C" => bt_mz(Class::C).step_graph(2),
        "bt-mz.D" => bt_mz(Class::D).step_graph(2),
        "bt-mz.E" => bt_mz(Class::E).step_graph(2),
        "sp-mz.C" => sp_mz(Class::C).step_graph(2),
        "sp-mz.D" => sp_mz(Class::D).step_graph(2),
        "epol.R8" => Epol::new(8).step_graph(&Bruss2d::new(500), 2),
        other => unreachable!("unknown graph {other}"),
    }
}

/// One request: a graph on a machine under a mapping.
struct Request {
    graph: usize,
    spec: ClusterSpec,
    cores: usize,
    mapping: MappingStrategy,
}

impl Request {
    fn label(&self) -> String {
        format!(
            "{} P={} {}{}",
            GRAPHS[self.graph],
            self.cores,
            self.mapping.name(),
            if self.spec.is_uniform() {
                ""
            } else {
                " slow-nodes"
            }
        )
    }
}

struct Inputs {
    graphs: Vec<TaskGraph>,
    requests: Vec<Request>,
}

fn build_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0x919E);
    let graphs = GRAPHS.iter().map(|g| graph(g)).collect();
    let requests = CATALOGUE
        .iter()
        .map(|&(graph, cores, mapping, slow)| {
            let mut spec = platforms::juropa().with_nodes(cores / 8);
            if slow {
                let factor = SLOW_FACTORS[rng.below(SLOW_FACTORS.len())];
                spec = spec.with_slow_nodes(cores / 8 / 4, factor);
            }
            Request {
                graph,
                spec,
                cores,
                mapping,
            }
        })
        .collect();
    Inputs { graphs, requests }
}

/// What one pipeline request produced.
struct Output {
    schedule: LayeredSchedule,
    makespan: f64,
    sim_tasks: usize,
}

/// The pipeline as a user runs it: default scheduler options.
fn pipeline(graph: &TaskGraph, req: &Request) -> Output {
    let model = CostModel::new(&req.spec);
    let schedule = LayerScheduler::new(&model).schedule(graph);
    let mapping = req.mapping.mapping(&req.spec, req.cores);
    let report = Simulator::new(&model).simulate_layered(graph, &schedule, &mapping);
    Output {
        schedule,
        makespan: report.makespan,
        sim_tasks: report.tasks.len(),
    }
}

/// The single-sweep-worker reference: makespan and exact cost-evaluation
/// count.
fn reference(graph: &TaskGraph, req: &Request) -> (f64, u64) {
    let model = CostModel::new(&req.spec);
    let table = CostTable::with_width(&model, graph.len(), req.cores);
    let schedule = LayerScheduler::new(&model)
        .with_sweep_workers(1)
        .schedule_on_with(&table, graph, req.cores);
    let mapping = req.mapping.mapping(&req.spec, req.cores);
    let report = Simulator::new(&model).simulate_layered(graph, &schedule, &mapping);
    (report.makespan, table.evaluations() as u64)
}

/// Each round's request order.
fn round_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Build the inputs, adding the seconds it took to `times`.
fn timed_build(seed: u64, times: &mut Vec<f64>) -> Inputs {
    let t0 = Instant::now();
    let inputs = std::hint::black_box(build_inputs(seed));
    times.push(util::secs(t0));
    inputs
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut inputs = timed_build(seed, &mut setup_times);
    let n = inputs.requests.len();
    let mut rng = Rng::new(seed, 0x0DE5);

    // Complete rounds until the time is up: every round is the same work.
    let mut per_request_ms: Vec<f64> = Vec::new();
    let mut round_mean_ms: Vec<f64> = Vec::new();
    let mut firsts: Vec<Option<Output>> = (0..n).map(|_| None).collect();
    let mut bad_repeats = vec![0u64; n];
    let mut sim_tasks_round = 0u64;
    let t_all = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || util::secs(t_all) < seconds {
        let mut tasks = 0u64;
        for i in round_order(&mut rng, n) {
            let req = &inputs.requests[i];
            let g = &inputs.graphs[req.graph];
            let t0 = Instant::now();
            let o = std::hint::black_box(pipeline(g, req));
            per_request_ms.push(util::secs(t0) * 1e3);
            tasks += o.sim_tasks as u64;
            match &firsts[i] {
                None => firsts[i] = Some(o),
                Some(first) => {
                    let repeat = checks::check_repeat(
                        "makespan bits",
                        first.makespan.to_bits(),
                        o.makespan.to_bits(),
                    )
                    .and(checks::check_repeat(
                        "sim.tasks",
                        first.sim_tasks as u64,
                        o.sim_tasks as u64,
                    ));
                    if repeat.is_err() {
                        bad_repeats[i] += 1;
                    }
                    out.check(&format!("repeat of {}", req.label()), repeat);
                }
            }
        }
        let done = &per_request_ms[per_request_ms.len() - n..];
        round_mean_ms.push(mean(done));
        if rounds == 0 {
            sim_tasks_round = tasks;
        } else {
            out.check(
                "sim.tasks per round",
                checks::check_repeat("sim.tasks", sim_tasks_round, tasks),
            );
        }
        rounds += 1;
        for _ in 0..SETUPS_PER_ROUND {
            drop(inputs);
            inputs = timed_build(seed, &mut setup_times);
        }
    }

    // Correctness, outside the timed region.  A request whose first
    // output fails the check failed in every round; otherwise its repeats
    // that differ from the first output failed.
    let mut evaluations = 0u64;
    for (i, req) in inputs.requests.iter().enumerate() {
        let g = &inputs.graphs[req.graph];
        let first = firsts[i].as_ref().expect("every request ran");
        let (ref_makespan, evals) = reference(g, req);
        evaluations += evals;
        let valid = checks::check_schedule(&first.schedule, first.makespan, ref_makespan);
        out.failed += if valid.is_err() {
            rounds as u64
        } else {
            bad_repeats[i]
        };
        out.check(&req.label(), valid);
    }

    let count = per_request_ms.len();
    out.attempted = count as u64;
    out.metric("setup_s", median(&setup_times), "s");
    out.info("setups", setup_times.len());
    // Every round is the same work, and noise from other tenants of the
    // host only ever slows one, so the lower quartile of the rounds' mean
    // request time is the steadier estimate of what the pipeline costs.
    out.metric("latency_ms", quantile(&round_mean_ms, 0.25), "ms");
    let busy_s = per_request_ms.iter().sum::<f64>() / 1e3;
    out.info("requests_per_s", count as f64 / busy_s);
    out.metric(
        "peak_rss_mb",
        util::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    out.info("pipeline_s", busy_s / count as f64);
    out.info("pipeline_p50_ms", median(&per_request_ms));
    out.info("pipeline_p99_ms", quantile(&per_request_ms, 0.99));
    out.info("rounds", rounds);
    out.info("requests", count);
    out.info("requests_per_round", n);
    out.info("core.cost_evaluations", evaluations);
    out.info("sim.tasks", sim_tasks_round);
    out.info("failed_frac", out.failed as f64 / count as f64);
    out
}

/// Names the scheduler's own pt-obs spans get in the benchmark's trace.
fn sched_span_name(name: &str) -> Option<&'static str> {
    match name {
        "chain_contraction" => Some("sched.chain_contraction"),
        "layer_partition" => Some("sched.layer_partition"),
        "g_sweep" => Some("core.sweep"),
        "lpt" => Some("core.lpt"),
        _ => None,
    }
}

/// One traced pipeline request: spans around the schedule, map and
/// simulate calls, with the scheduler's own sweep and LPT spans imported
/// under the schedule span.
fn traced_request(t: &mut Tracer, id: u64, graph: &TaskGraph, req: &Request) -> usize {
    let root = t.begin("pipeline.request", id);
    let model = CostModel::new(&req.spec);
    let recorder = Arc::new(TraceRecorder::with_capacity(1, 1 << 12));
    let offset = t.now_us() - recorder.now_us();
    let scheduler = LayerScheduler::new(&model).with_recorder(recorder.clone());
    let sched_span = t.begin("core.schedule", id);
    let schedule = scheduler.schedule(graph);
    t.end(sched_span);
    drop(scheduler);
    let mut recorder = Arc::try_unwrap(recorder).expect("scheduler released its recorder");
    for ev in recorder.drain() {
        if let Some(name) = sched_span_name(&ev.name) {
            t.insert(name, ev.ts_us + offset, ev.end_us() + offset, sched_span);
        }
    }
    let mapping = t.span("core.map", id, || req.mapping.mapping(&req.spec, req.cores));
    let report = t.span("sim.layered", id, || {
        Simulator::new(&model).simulate_layered(graph, &schedule, &mapping)
    });
    std::hint::black_box(report);
    t.end(root);

    // Layer probes outside the request: contraction, layering and the
    // per-layer scheduler on a shared table, called directly.
    let probe = t.begin("probe", id);
    let cg = t.span("mtask.contract", id, || {
        pt_mtask::ChainGraph::contract(graph)
    });
    let layers = t.span("mtask.layers", id, || pt_mtask::layers(&cg.graph));
    let table = CostTable::with_width(&model, cg.graph.len(), req.cores);
    let scheduler = LayerScheduler::new(&model);
    t.span("core.layer_sched", id, || {
        for layer in &layers {
            let tasks: Vec<_> = layer.iter().map(|&id| (id, cg.graph.task(id))).collect();
            std::hint::black_box(scheduler.schedule_layer_with(&table, &tasks, req.cores));
        }
    });
    t.end(probe);
    root
}

/// Total duration (ms) of spans named `name`, per request.
fn per_request_ms(spans: &[trace::Span], name: &str, requests: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_us - s.start_us)
        .sum::<f64>()
        / 1e3
        / requests.max(1) as f64
}

/// The traced run: one untraced round, then the same round with spans.
pub fn run_traced(seed: u64, epoch: Instant) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let inputs = build_inputs(seed);
    let mut rng = Rng::new(seed, 0x0DE5);
    let order = round_order(&mut rng, inputs.requests.len());

    let t0 = Instant::now();
    let mut sim_tasks = 0u64;
    for &i in &order {
        let req = &inputs.requests[i];
        sim_tasks += pipeline(&inputs.graphs[req.graph], req).sim_tasks as u64;
    }
    let plain = util::secs(t0);

    let mut t = Tracer::new(epoch);
    let mut traced_us = 0.0;
    let mut evaluations = 0u64;
    for (k, &i) in order.iter().enumerate() {
        let req = &inputs.requests[i];
        let g = &inputs.graphs[req.graph];
        let root = traced_request(&mut t, k as u64, g, req);
        traced_us += t.spans[root].end_us - t.spans[root].start_us;
        evaluations += reference(g, req).1;
    }
    let n = order.len();
    out.attempted = n as u64;
    out.metric(
        "mtask.contract_ms",
        per_request_ms(&t.spans, "mtask.contract", n),
        "ms",
    );
    out.metric(
        "mtask.layers_ms",
        per_request_ms(&t.spans, "mtask.layers", n),
        "ms",
    );
    out.metric(
        "core.schedule_ms",
        per_request_ms(&t.spans, "core.schedule", n),
        "ms",
    );
    out.metric(
        "core.layer_sched_ms",
        per_request_ms(&t.spans, "core.layer_sched", n),
        "ms",
    );
    out.metric(
        "core.sweep_ms",
        per_request_ms(&t.spans, "core.sweep", n),
        "ms",
    );
    out.metric("core.lpt_ms", per_request_ms(&t.spans, "core.lpt", n), "ms");
    out.metric("core.cost_evaluations", evaluations as f64, "count");
    out.metric("core.map_ms", per_request_ms(&t.spans, "core.map", n), "ms");
    out.metric(
        "sim.layered_ms",
        per_request_ms(&t.spans, "sim.layered", n),
        "ms",
    );
    out.metric("sim.tasks", sim_tasks as f64, "count");
    out.metric(
        "obs.overhead_frac",
        traced_us / 1e6 / plain.max(1e-9) - 1.0,
        "ratio",
    );
    out.info("requests", n);
    out.info("pipeline_s", plain / n.max(1) as f64);
    out.info("accounting", accounting_value(&t.spans, "pipeline.request"));
    (out, t.spans)
}

/// The self-time shares of the trees under `root`, as JSON.
pub fn accounting_value(spans: &[trace::Span], root: &str) -> serde::Value {
    serde::Value::Map(
        trace::accounting(spans, root)
            .into_iter()
            .map(|(k, v)| (k, serde::Value::Float(v)))
            .collect(),
    )
}
