//! Shared helpers for the figure/table harness binaries
//! (`cargo run -p pt-bench --release --bin <figN>`) and the Criterion
//! benches.
//!
//! The central entry point is [`pipeline::time_per_step`]: graph →
//! schedule → map → simulate, returning the simulated seconds per time
//! step — the quantity every figure of the paper's evaluation plots.

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

pub mod zero_cost {
    //! Shared probe asserting the fail-slow machinery (heartbeat board,
    //! deadline monitor, hedging) is pay-for-what-you-use: a run with
    //! default [`RunOptions`] (no deadline policy) must spawn zero monitor
    //! threads.  Called from inside the `bench_sched` and `bench_sim`
    //! gates so a future change that silently turns the watchdog on by
    //! default fails the benchmark gates, not just a unit test.

    use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskCtx, TaskFn, Team};
    use std::sync::Arc;

    /// Run a trivial many-layer program with default options and assert
    /// that no deadline monitor was spawned.  Returns the wall-clock
    /// microseconds per layer, for the gate binaries to print.
    pub fn assert_monitor_free(layers: usize) -> f64 {
        let team = Team::new(4);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|_ctx: &TaskCtx| {});
        let mut program = Program::single_layer(vec![GroupPlan::new(0..4, vec![task.clone()])]);
        for _ in 1..layers {
            program.push_layer(vec![GroupPlan::new(0..4, vec![task.clone()])]);
        }
        let t0 = std::time::Instant::now();
        team.run_with(&program, &store, &RunOptions::default())
            .expect("trivial monitor-free run");
        let per_layer_us = t0.elapsed().as_secs_f64() * 1e6 / layers as f64;
        assert_eq!(
            team.monitors_spawned(),
            0,
            "default RunOptions must not spawn a deadline monitor: the \
             fail-slow path is opt-in and zero-cost when disabled"
        );
        per_layer_us
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
    fn cases_have_expected_sizes() {
        use super::cases;
        assert_eq!(cases::bruss_sparse().dim(), 125_000);
        assert_eq!(cases::schroed_dense().dim(), 36_000);
    }
}
