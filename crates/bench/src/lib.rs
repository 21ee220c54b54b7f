//! Shared helpers for the figure/table harness binaries
//! (`cargo run -p pt-bench --release --bin <figN>`) and the Criterion
//! benches.
//!
//! The central entry point is [`pipeline::time_per_step`]: graph →
//! schedule → map → simulate, returning the simulated seconds per time
//! step — the quantity every figure of the paper's evaluation plots.
//! The gate binaries share [`gate`] (timer, retry loop, ceiling check,
//! report writer); the binaries that execute a schedule share [`replay`].

pub mod pipeline {
    use pt_core::hybrid::HybridConfig;
    use pt_core::{Amtha, Cpa, Cpr, DataParallel, LayerScheduler, MappingStrategy};
    use pt_cost::CostModel;
    use pt_machine::ClusterSpec;
    use pt_mtask::TaskGraph;
    use pt_sim::Simulator;

    /// Which scheduling algorithm to run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scheduler {
        /// The paper's layer-based scheduler (Algorithm 1) with the g-sweep.
        Layer,
        /// Layer-based with a fixed group count per layer.
        LayerFixed(usize),
        /// Pure data-parallel execution.
        DataParallel,
        /// CPA baseline.
        Cpa,
        /// CPR baseline.
        Cpr,
        /// AMTHA heterogeneous baseline (node-granular list mapping).
        Amtha,
    }

    impl Scheduler {
        /// Display label.
        pub fn label(&self) -> String {
            match self {
                Scheduler::Layer => "layer".into(),
                Scheduler::LayerFixed(g) => format!("layer(g={g})"),
                Scheduler::DataParallel => "dp".into(),
                Scheduler::Cpa => "CPA".into(),
                Scheduler::Cpr => "CPR".into(),
                Scheduler::Amtha => "AMTHA".into(),
            }
        }
    }

    /// Full pipeline: schedule `graph` (containing `steps` unrolled time
    /// steps) on `cores` cores of `machine`, map with `mapping`, simulate
    /// (optionally hybrid) and return seconds per time step.
    pub fn time_per_step(
        graph: &TaskGraph,
        machine: &ClusterSpec,
        cores: usize,
        scheduler: Scheduler,
        mapping: MappingStrategy,
        hybrid: Option<HybridConfig>,
        steps: usize,
    ) -> f64 {
        let spec = machine.with_cores(cores);
        let model = CostModel::new(&spec);
        let mut sim = Simulator::new(&model);
        if let Some(cfg) = hybrid {
            sim = sim.with_hybrid(cfg);
        }
        let map = mapping.mapping(&spec, cores);
        let makespan = match scheduler {
            Scheduler::Layer => {
                let s = LayerScheduler::new(&model).schedule(graph);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::LayerFixed(g) => {
                let s = LayerScheduler::new(&model)
                    .with_fixed_groups(g)
                    .schedule(graph);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::DataParallel => {
                let s = DataParallel::schedule(graph, cores);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::Cpa => {
                let s = Cpa::new(&model).schedule(graph);
                sim.simulate_flat(graph, &s, &map).makespan
            }
            Scheduler::Cpr => {
                let s = Cpr::new(&model).schedule(graph);
                sim.simulate_flat(graph, &s, &map).makespan
            }
            Scheduler::Amtha => {
                let s = Amtha::new(&model).schedule(graph);
                sim.simulate_layered(graph, &s, &map).makespan
            }
        };
        makespan / steps as f64
    }

    /// Sequential execution time of one time step (total work at one
    /// core's speed — the baseline of the paper's speedup plots).
    pub fn sequential_step(graph: &TaskGraph, machine: &ClusterSpec, steps: usize) -> f64 {
        machine.compute_time(graph.total_work()) / steps as f64
    }

    /// Write a Chrome-trace JSON of one layer-scheduled pipeline
    /// configuration to `path`: the scheduler's phase spans (g-sweep, LPT)
    /// plus the simulated node×core timeline under `mapping` — the
    /// drill-down companion to the aggregate tables the figure binaries
    /// print.  Open the file at <https://ui.perfetto.dev>.
    pub fn write_trace(
        graph: &TaskGraph,
        machine: &ClusterSpec,
        cores: usize,
        mapping: MappingStrategy,
        path: &str,
    ) -> Result<(), String> {
        let spec = machine.with_cores(cores);
        let model = CostModel::new(&spec);
        let recorder = std::sync::Arc::new(pt_obs::TraceRecorder::new(1));
        let scheduler = LayerScheduler::new(&model).with_recorder(recorder.clone());
        let sched = scheduler.schedule(graph);
        drop(scheduler); // releases its recorder handle
        let map = mapping.mapping(&spec, cores);
        let report = Simulator::new(&model).simulate_layered(graph, &sched, &map);
        let mut trace = pt_sim::chrome_trace(graph, &sched, &report, &map, &spec);
        trace.name_process(pt_core::two_level::SCHED_PID, "scheduler");
        trace.name_thread(pt_core::two_level::SCHED_PID, 0, "phases");
        let mut recorder =
            std::sync::Arc::try_unwrap(recorder).expect("scheduler released its recorder handle");
        trace.extend(recorder.drain());
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))
    }
}

/// JUROPA widened to exactly `p` cores (beyond 17664 this is a
/// hypothetical scale-out of the same node architecture).
pub fn juropa_p(p: usize) -> pt_machine::ClusterSpec {
    let cpn = 8;
    assert!(p.is_multiple_of(cpn));
    pt_machine::platforms::juropa().with_nodes(p / cpn)
}

/// The value following `name` on the command line (`--trace PATH` style),
/// if present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

pub mod het {
    //! The two-class JUROPA of `het_speedup` and `bench_het`, and the three
    //! schedulers both compare on it.

    use pt_cost::CostModel;
    use pt_machine::ClusterSpec;
    use pt_mtask::TaskGraph;
    use pt_sim::Simulator;

    /// Share of the nodes (the trailing ones) that run slow.
    const SLOW_FRACTION: f64 = 0.25;

    /// Number of slow nodes among `nodes`.
    pub fn slow_nodes(nodes: usize) -> usize {
        ((nodes as f64) * SLOW_FRACTION).round() as usize
    }

    /// JUROPA with exactly `p` cores whose trailing quarter of the nodes
    /// runs at `factor`× nominal speed.
    pub fn juropa_het(p: usize, factor: f64) -> ClusterSpec {
        let spec = super::juropa_p(p);
        spec.with_slow_nodes(slow_nodes(spec.nodes), factor)
    }

    /// `(het, blind, amtha)` simulated seconds per step of `graph` on
    /// `spec`: the layer scheduler's heterogeneity-aware path, the same
    /// scheduler forced onto the homogeneous path, and the AMTHA baseline,
    /// all with the consecutive mapping.
    pub fn run(graph: &TaskGraph, spec: &ClusterSpec, steps: usize) -> (f64, f64, f64) {
        let model = CostModel::new(spec);
        let sim = Simulator::new(&model);
        let map = pt_core::MappingStrategy::Consecutive.mapping(spec, spec.total_cores());

        let het = pt_core::LayerScheduler::new(&model).schedule(graph);
        assert!(het.validate().is_ok(), "invalid het schedule");
        let blind = pt_core::LayerScheduler::new(&model)
            .with_het_aware(false)
            .schedule(graph);
        assert!(blind.validate().is_ok(), "invalid blind schedule");
        let amtha = pt_core::Amtha::new(&model).schedule(graph);
        assert!(amtha.validate().is_ok(), "invalid AMTHA schedule");

        let s = steps as f64;
        (
            sim.simulate_layered(graph, &het, &map).makespan / s,
            sim.simulate_layered(graph, &blind, &map).makespan / s,
            sim.simulate_layered(graph, &amtha, &map).makespan / s,
        )
    }
}

pub mod gate {
    //! Plumbing shared by the benchmark gate binaries: one timer, one retry
    //! loop, one scale-ceiling check, one report writer and the zero-cost
    //! probe of the fail-slow machinery.

    use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskCtx, TaskFn, Team};
    use serde::Serialize;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Re-measurements a failing timing gate gets before it really fails.
    const RETRIES: usize = 4;

    /// `name` relative to the repository root.
    pub fn repo_path(name: &str) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
    }

    /// Write `report` as pretty JSON and print where it went.  A full run
    /// updates the committed baseline `<repo>/<file>`; a `--quick` run
    /// writes `<repo>/target/bench-quick/<file>` instead, so a smoke run
    /// never overwrites a baseline.
    pub fn write_report(file: &str, quick: bool, report: &impl Serialize) -> PathBuf {
        let dir = repo_path(if quick { "target/bench-quick" } else { "" });
        std::fs::create_dir_all(&dir).expect("create report directory");
        let path = dir.join(file);
        let json = serde_json::to_string_pretty(report).expect("report serialises");
        std::fs::write(&path, json + "\n").expect("write report");
        println!("wrote {}", path.display());
        path
    }

    /// `(median, min)` milliseconds per call of `f` over `reps` samples of
    /// `batch` back-to-back calls each, after one warm-up call.  A single
    /// 30 µs call is dominated by timer jitter, so microsecond-scale work
    /// needs `batch > 1`; the min across samples still rejects one-sided
    /// host load.
    pub fn time_ms<T>(reps: usize, batch: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
        std::hint::black_box(f());
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_secs_f64() * 1e3 / batch as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        (times[reps / 2], times[0])
    }

    /// The best of `first` and up to four re-measurements 750 ms
    /// apart, stopping once one is within `limit_ms`.  A shared host's
    /// load bursts inflate *every* sample of one run; a regression fails
    /// all attempts, a burst does not.
    pub fn retry(first: f64, limit_ms: f64, mut measure: impl FnMut() -> f64) -> f64 {
        let mut best = first;
        for attempt in 0..RETRIES {
            if best <= limit_ms {
                break;
            }
            println!("  gate retry {attempt}: min {best:.4} ms still over {limit_ms:.4} ms");
            std::thread::sleep(Duration::from_millis(750));
            best = best.min(measure());
        }
        best
    }

    /// Gate a scale case on its absolute wall-clock ceiling.
    pub fn assert_ceiling(case: &str, min_ms: f64, gate_ms: f64) {
        assert!(
            min_ms <= gate_ms,
            "scale regression: {case} took {min_ms:.2} ms (gate: {gate_ms} ms)"
        );
    }

    /// Run a trivial `layers`-layer program with default [`RunOptions`]
    /// and assert it spawned no deadline monitor: the fail-slow machinery
    /// (heartbeats, deadlines, hedging) is opt-in and zero-cost when
    /// disabled, and a change that silently turns the watchdog on fails
    /// the gates, not just a unit test.  Prints the wall-clock µs/layer.
    pub fn assert_monitor_free(layers: usize) {
        let team = Team::new(4);
        let task: Arc<TaskFn> = Arc::new(|_ctx: &TaskCtx| {});
        let program = Program {
            layers: vec![vec![GroupPlan::new(0..4, vec![task])]; layers],
        };
        let t0 = Instant::now();
        team.run_with(&program, &DataStore::new(), &RunOptions::default())
            .expect("trivial monitor-free run");
        let per_layer_us = t0.elapsed().as_secs_f64() * 1e6 / layers as f64;
        assert_eq!(
            team.monitors_spawned(),
            0,
            "default RunOptions must not spawn a deadline monitor"
        );
        println!("zero-cost probe: no monitor spawned, {per_layer_us:.1} us/layer");
    }
}

pub mod replay {
    //! Replay a layered schedule on a live [`Team`]: the measured side of
    //! the cost model's predicted-vs-measured check (the deviation
    //! discussion of the paper's Figs 13–19).  [`Replay::program`] turns a
    //! schedule and its simulated timeline into a [`Program`] whose bodies
    //! the caller supplies; [`Replay::run`] executes it with a recorder and
    //! decodes the `task` spans back to [`TaskId`]s, one `(start, end)` per
    //! rank; [`Replay::measured`] folds them into simulated seconds.

    use pt_core::LayeredSchedule;
    use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskFn, Team};
    use pt_mtask::TaskId;
    use pt_obs::{ArgValue, TraceEvent, TraceRecorder};
    use pt_sim::SimReport;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    /// Wall-clock `(start, end)` microseconds of each replayed task, one
    /// entry per rank of its group.
    pub type Spans = HashMap<TaskId, Vec<(f64, f64)>>;

    /// A schedule's simulated timeline, scaled to a wall-clock budget.
    pub struct Replay<'a> {
        sched: &'a LayeredSchedule,
        report: &'a SimReport,
        index: HashMap<TaskId, usize>,
        /// Wall seconds per simulated second.
        scale: f64,
    }

    /// What a recorded replay leaves behind.
    pub struct Recorded {
        /// Wall-clock time of the run.
        pub wall: Duration,
        /// The store the task bodies wrote.
        pub store: Arc<DataStore>,
        /// The drained recorder (its metrics remain).
        pub recorder: TraceRecorder,
        /// Every recorded event, scheduler phases included.
        pub events: Vec<TraceEvent>,
        /// The decoded `task` spans.
        pub spans: Spans,
    }

    impl<'a> Replay<'a> {
        /// Scale `report`'s timeline to take `wall_budget` seconds.
        pub fn new(sched: &'a LayeredSchedule, report: &'a SimReport, wall_budget: f64) -> Self {
            let scale = wall_budget / report.makespan.max(1e-9);
            let index = report.index();
            Replay {
                sched,
                report,
                index,
                scale,
            }
        }

        /// Scaled simulated duration of `t` (zero if the report lacks it).
        pub fn wall(&self, t: TaskId) -> Duration {
            let sim = |i: usize| self.report.tasks[i].finish - self.report.tasks[i].start;
            let secs = self.index.get(&t).map_or(0.0, |&i| sim(i).max(0.0));
            Duration::from_secs_f64(secs * self.scale)
        }

        /// The schedule as a program, one body per task from
        /// `body(task, scaled duration)`.
        pub fn program(&self, body: impl Fn(TaskId, Duration) -> Arc<TaskFn>) -> Program {
            let mut program = Program::default();
            for layer in &self.sched.layers {
                let groups = layer.assignments.iter().enumerate().map(|(g, tasks)| {
                    let bodies = tasks.iter().map(|&t| body(t, self.wall(t))).collect();
                    GroupPlan::new(layer.group_range(g), bodies)
                });
                program.push_layer(groups.collect());
            }
            program
        }

        /// Run `program` on a team of the schedule's width with `recorder`
        /// attached, then drain the recorder and decode its `task` spans.
        pub fn run(&self, program: &Program, recorder: Arc<TraceRecorder>) -> Recorded {
            let team = Team::new(self.sched.total_cores);
            let store = DataStore::new();
            let opts = RunOptions::default().with_recorder(recorder.clone());
            let wall = team
                .run_with(program, &store, &opts)
                .expect("replay executes");
            drop((team, opts)); // workers join, releasing their recorder handles
            let mut recorder = Arc::try_unwrap(recorder).expect("all recorder handles released");
            let events = recorder.drain();
            let mut spans = Spans::new();
            for ev in events.iter().filter(|e| e.cat == "task") {
                if let Some(t) = self.task_of(ev) {
                    spans.entry(t).or_default().push((ev.ts_us, ev.end_us()));
                }
            }
            Recorded {
                wall,
                store,
                recorder,
                events,
                spans,
            }
        }

        /// The scheduled task a `task` span ran, from its
        /// `layer`/`group`/`task_index` args.
        fn task_of(&self, ev: &TraceEvent) -> Option<TaskId> {
            let arg = |name: &str| {
                ev.args.iter().find_map(|(k, v)| match v {
                    ArgValue::U64(u) if *k == name => Some(*u as usize),
                    _ => None,
                })
            };
            let layer = self.sched.layers.get(arg("layer")?)?;
            let tasks = layer.assignments.get(arg("group")?)?;
            tasks.get(arg("task_index")?).copied()
        }

        /// Fold each task's per-rank spans into one duration (µs) and
        /// de-scale it to simulated seconds, the unit of the predicted and
        /// simulated columns of a reconciliation.
        pub fn measured(
            &self,
            spans: &Spans,
            fold: impl Fn(&[(f64, f64)]) -> f64,
        ) -> HashMap<TaskId, f64> {
            let secs = |s: &[(f64, f64)]| fold(s) / 1e6 / self.scale;
            spans.iter().map(|(&t, s)| (t, secs(s))).collect()
        }
    }

    /// Cross-rank envelope of one task's spans: first start to last end.
    pub fn envelope(spans: &[(f64, f64)]) -> f64 {
        let start = spans.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let end = spans.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
        end - start
    }
}

pub mod table {
    //! Minimal aligned-column table printing for the harness binaries.

    /// Print a header line followed by rows; first column is the label.
    pub fn print(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
        println!("\n# {title}");
        print!("{:<24}", "series");
        for c in columns {
            print!(" {c:>14}");
        }
        println!();
        for (label, values) in rows {
            print!("{label:<24}");
            for v in values {
                if v.is_nan() {
                    print!(" {:>14}", "-");
                } else if *v != 0.0 && v.abs() < 0.1 {
                    print!(" {:>14.6}", v);
                } else {
                    print!(" {:>14.3}", v);
                }
            }
            println!();
        }
    }
}

pub mod cases {
    //! The concrete systems and solver parameters used by the figures.

    use pt_ode::{Bruss2d, Schroed};

    /// Sparse BRUSS2D instance used by the time-per-step figures
    /// (n = 2·250² = 125 000).
    pub fn bruss_sparse() -> Bruss2d {
        Bruss2d::new(250)
    }

    /// Larger BRUSS2D for high core counts (n = 2·500² = 500 000).
    pub fn bruss_large() -> Bruss2d {
        Bruss2d::new(500)
    }

    /// Dense SCHROED instance (n = 36 000, quadratic evaluation cost);
    /// large enough that the group allgathers of a 512-core run stay in
    /// the ring regime, as on the paper's testbeds.
    pub fn schroed_dense() -> Schroed {
        Schroed::new(36_000)
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline::{sequential_step, time_per_step, Scheduler};
    use pt_core::MappingStrategy;
    use pt_machine::platforms;
    use pt_ode::{Epol, OdeSystem};

    #[test]
    fn pipeline_produces_positive_times() {
        let sys = pt_ode::Bruss2d::new(50);
        let g = Epol::new(4).step_graph(&sys, 1);
        let chic = platforms::chic();
        let t = time_per_step(
            &g,
            &chic,
            32,
            Scheduler::Layer,
            MappingStrategy::Consecutive,
            None,
            1,
        );
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn compute_bound_case_shows_speedup() {
        // The dense system makes evaluation cost quadratic, so the
        // parallel execution must beat the sequential one (this is the
        // regime of the paper's PABM speedup plots, Fig. 13/16).
        let sys = pt_ode::Schroed::new(800);
        let g = pt_ode::Irk::new(4, 3).step_graph(&sys, 1);
        let chic = platforms::chic();
        let t = time_per_step(
            &g,
            &chic,
            32,
            Scheduler::Layer,
            MappingStrategy::Consecutive,
            None,
            1,
        );
        let seq = sequential_step(&g, &chic, 1);
        assert!(
            seq / t > 4.0,
            "expected real speedup on 32 cores, got {}",
            seq / t
        );
    }

    #[test]
    fn schedulers_all_run() {
        let sys = pt_ode::Bruss2d::new(30);
        let g = Epol::new(4).step_graph(&sys, 1);
        let chic = platforms::chic();
        for s in [
            Scheduler::Layer,
            Scheduler::LayerFixed(2),
            Scheduler::DataParallel,
            Scheduler::Cpa,
            Scheduler::Cpr,
        ] {
            let t = time_per_step(&g, &chic, 16, s, MappingStrategy::Consecutive, None, 1);
            assert!(t > 0.0, "{s:?}");
        }
    }

    #[test]
    fn replay_runs_every_scheduled_task_once_per_rank() {
        use super::replay::{self, Replay};
        use pt_core::LayerScheduler;
        use pt_cost::CostModel;
        use pt_exec::{TaskCtx, TaskFn};
        use std::sync::Arc;

        let spec = platforms::chic().with_nodes(2);
        let p = spec.total_cores();
        let model = CostModel::new(&spec);
        let g = Epol::new(2).step_graph(&pt_ode::Bruss2d::new(20), 1);
        let sched = LayerScheduler::new(&model).schedule_on(&g, p);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, p);
        let report = pt_sim::Simulator::new(&model).simulate_layered(&g, &sched, &mapping);
        let replay = Replay::new(&sched, &report, 0.02);
        let program = replay
            .program(|_, dur| Arc::new(move |_: &TaskCtx| std::thread::sleep(dur)) as Arc<TaskFn>);
        assert!(program.validate().is_ok());
        assert_eq!(program.required_workers(), p);

        let run = replay.run(&program, Arc::new(pt_obs::TraceRecorder::for_team(p)));
        let mut scheduled = 0;
        for layer in &sched.layers {
            for (gi, tasks) in layer.assignments.iter().enumerate() {
                for t in tasks {
                    let spans = &run.spans[t];
                    assert_eq!(spans.len(), layer.group_sizes[gi], "{t:?}");
                    assert!(spans.iter().all(|(start, end)| start <= end));
                    scheduled += 1;
                }
            }
        }
        assert_eq!(run.spans.len(), scheduled);
        let measured = replay.measured(&run.spans, replay::envelope);
        assert!(measured.values().all(|&m| m >= 0.0 && m.is_finite()));
    }

    #[test]
    fn quick_reports_never_land_at_the_repo_root() {
        use super::gate::{repo_path, write_report};
        let file = "BENCH_gate_selftest.json";
        let path = write_report(file, true, &serde::Value::Bool(true));
        assert_eq!(path, repo_path("target/bench-quick").join(file));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "true\n");
        assert!(!repo_path(file).exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cases_have_expected_sizes() {
        use super::cases;
        assert_eq!(cases::bruss_sparse().dim(), 125_000);
        assert_eq!(cases::schroed_dense().dim(), 36_000);
    }
}
