//! `trace_run` — execute an example program with recording on and write the
//! observability artefacts:
//!
//! * `trace.json` — Chrome-trace JSON holding the *measured* executor
//!   timeline (worker rows), the scheduler phases, and the *simulated*
//!   timeline of the same program on the modelled cluster (node×core rows).
//!   Open it at <https://ui.perfetto.dev> or `chrome://tracing`.
//! * `metrics.json` — the counter/histogram snapshot of the run.
//! * `reconciliation.json` — per-task and per-layer prediction-error tables
//!   joining predicted (symbolic cost model), simulated (timeline) and
//!   measured (wall clock) task times; also printed as a text table.
//!
//! The program is the EPOL time-step graph of the paper's evaluation
//! (R = 4 stage chains on BRUSS2D), scheduled by the layer scheduler on a
//! 2-node CHiC machine model and executed by a worker-thread
//! [`Team`](pt_exec::Team) with task bodies that busy-wait for their
//! simulated durations — so measured times should reconcile with
//! simulated ones up to scheduling noise, and the prediction-error columns
//! exercise the full join.
//!
//! `--quick` shortens the run for CI (same artefacts, smaller durations).

use pt_bench::gate::repo_path;
use pt_bench::replay::{self, Replay};
use pt_core::{LayerScheduler, MappingStrategy};
use pt_cost::CostModel;
use pt_exec::{TaskCtx, TaskFn, EXEC_PID};
use pt_machine::platforms;
use pt_obs::{keys, Reconciliation, TraceProbe, TraceRecorder};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn busy_wait(dur: Duration) {
    let end = Instant::now() + dur;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // -- Model, graph, schedule (recorded) --------------------------------
    let spec = platforms::chic().with_nodes(2); // 2 nodes × 4 cores
    let p = spec.total_cores();
    let model = CostModel::new(&spec);
    let graph = pt_ode::Epol::new(4).step_graph(&pt_ode::Bruss2d::new(250), 1);

    let recorder = Arc::new(TraceRecorder::for_team(p));
    let sched = LayerScheduler::new(&model)
        .with_recorder(recorder.clone())
        .schedule_on(&graph, p);
    let mapping = MappingStrategy::Consecutive.mapping(&spec, p);

    // -- Simulated timeline ----------------------------------------------
    let sim = pt_sim::Simulator::new(&model);
    let report = sim.simulate_layered(&graph, &sched, &mapping);
    println!(
        "EPOL r=4: {} tasks, {} layers, simulated makespan {:.4}s",
        graph.len(),
        sched.layers.len(),
        report.makespan
    );

    // -- Execute with recording on: every task busy-waits for its
    //    simulated duration, scaled so the whole run fits the wall budget
    //    (0.25 s quick, 1 s full); rank 0 publishes a small array
    //    (re-distribution traffic). ---------------------------------------
    let replay = Replay::new(&sched, &report, if quick { 0.25 } else { 1.0 });
    let program = replay.program(|t, dur| {
        Arc::new(move |ctx: &TaskCtx| {
            busy_wait(dur);
            if ctx.rank == 0 {
                ctx.store.put(format!("out{}", t.0), vec![0.0; 64]);
            }
        }) as Arc<TaskFn>
    });
    let run = replay.run(&program, recorder);
    println!("executed in {:.4}s wall clock", run.wall.as_secs_f64());
    assert!(!run.events.is_empty(), "recording produced no events");

    // Measured per-task time: the envelope across the group's ranks.
    let measured = replay.measured(&run.spans, replay::envelope);
    println!(
        "recorded {} events ({} dropped), measured {} tasks",
        run.events.len(),
        run.recorder.dropped(),
        measured.len()
    );

    // -- trace.json: executor + scheduler + simulated rows -----------------
    let mut trace = pt_sim::chrome_trace(&graph, &sched, &report, &mapping, &spec);
    trace.name_process(EXEC_PID, "executor");
    for w in 0..p {
        trace.name_thread(EXEC_PID, w as u32, format!("worker{w}"));
    }
    trace.name_thread(EXEC_PID, p as u32, "driver");
    trace.name_process(pt_core::two_level::SCHED_PID, "scheduler");
    trace.name_thread(pt_core::two_level::SCHED_PID, 0, "phases");
    trace.extend(run.events);
    let trace_json = trace.to_json();
    std::fs::write(repo_path("trace.json"), &trace_json).expect("write trace.json");

    // -- metrics.json ------------------------------------------------------
    let snapshot = run.recorder.metrics().snapshot();
    let metrics_json = serde_json::to_string_pretty(&snapshot).expect("metrics serialise");
    std::fs::write(repo_path("metrics.json"), metrics_json).expect("write metrics.json");

    // -- reconciliation.json + table --------------------------------------
    let samples = pt_sim::reconcile_samples(&graph, &sched, &report, &model, &measured);
    let rec = Reconciliation::build(samples);
    std::fs::write(repo_path("reconciliation.json"), rec.to_json())
        .expect("write reconciliation.json");
    println!("\n{}", rec.render_table());

    // -- Self-validate the artefacts --------------------------------------
    let probe = TraceProbe::parse(&trace_json).expect("trace.json parses as Chrome trace");
    assert!(probe.event_count() > 0, "trace.json holds no events");
    let back: pt_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(repo_path("metrics.json")).unwrap())
            .expect("metrics.json parses");
    let summary = Summary {
        quick,
        tasks_run: back.counter(keys::TASKS_RUN).unwrap_or(0),
        redist_bytes: back.counter(keys::REDIST_BYTES).unwrap_or(0),
        compared: rec.compared,
        mean_abs_predicted_err: rec.mean_abs_predicted_err,
        barrier_wait_mean_s: back.histogram(keys::BARRIER_WAIT).map_or(0.0, |h| h.mean),
        cost_evaluations: back.counter(keys::COST_EVALUATIONS).unwrap_or(0),
        note: "open trace.json at https://ui.perfetto.dev",
    };
    assert!(summary.tasks_run > 0, "no task bodies recorded");
    assert!(rec.compared > 0, "reconciliation joined no tasks");
    let json = serde_json::to_string_pretty(&summary).expect("summary serialises");
    println!("{json}");
    println!(
        "wrote {} + metrics.json + reconciliation.json",
        repo_path("trace.json").display()
    );
}

/// The run's headline figures, printed last.
#[derive(Serialize)]
struct Summary {
    quick: bool,
    tasks_run: u64,
    redist_bytes: u64,
    compared: usize,
    mean_abs_predicted_err: f64,
    barrier_wait_mean_s: f64,
    cost_evaluations: u64,
    note: &'static str,
}
