//! Chrome-trace and reconciliation adapters for simulated timelines.
//!
//! The simulator predicts a full execution timeline; this module renders it
//! through the same sinks the executor's recorded events go through, so a
//! simulated and a real run of one program are directly comparable in
//! Perfetto — and joinable into the [`Reconciliation`] prediction-error
//! tables (the repo-native version of the paper's predicted-vs-measured
//! comparison, Figs 13–19).
//!
//! [`Reconciliation`]: pt_obs::Reconciliation

use crate::report::SimReport;
use pt_core::{LayeredSchedule, Mapping};
use pt_cost::CostModel;
use pt_machine::ClusterSpec;
use pt_mtask::{TaskGraph, TaskId};
use pt_obs::{ChromeTrace, TaskSample, TraceEvent};
use std::collections::HashMap;

/// Chrome-trace process rows for simulated timelines start here: node `n`
/// of the modelled cluster renders as process `SIM_PID_BASE + n`, each of
/// its cores as a thread row (`tid` = global core index).  Keeping
/// simulated rows disjoint from the executor's (`pt_exec::EXEC_PID` = 1)
/// lets one trace file hold both.
pub const SIM_PID_BASE: u32 = 1000;

/// Render a layered simulation onto the node×core grid as Chrome-trace
/// span events: one span per (task × physical core), plus one
/// re-distribution span per layer with a redistribution phase.
///
/// Timestamps are simulated seconds scaled to microseconds, starting at 0.
pub fn chrome_events(
    graph: &TaskGraph,
    sched: &LayeredSchedule,
    report: &SimReport,
    mapping: &Mapping,
    spec: &ClusterSpec,
) -> Vec<TraceEvent> {
    let index = report.index();
    let mut events = Vec::new();
    for (li, (layer, timing)) in sched.layers.iter().zip(&report.layers).enumerate() {
        if timing.redist > 0.0 {
            // The layer's re-distribution phase precedes its compute start
            // and occupies the whole machine (orthogonal exchanges are
            // machine-wide).
            for core in mapping.map_range(0..sched.total_cores) {
                let node = spec.label(core).node;
                events.push(TraceEvent::span(
                    format!("redist:L{li}"),
                    "redist",
                    SIM_PID_BASE + node as u32,
                    core.0 as u32,
                    (timing.start - timing.redist) * 1e6,
                    timing.redist * 1e6,
                    vec![("layer", li.into())],
                ));
            }
        }
        for (g, tasks) in layer.assignments.iter().enumerate() {
            let cores = mapping.map_range(layer.group_range(g));
            for &t in tasks {
                let Some(&i) = index.get(&t) else { continue };
                let tt = &report.tasks[i];
                for &core in &cores {
                    let node = spec.label(core).node;
                    events.push(TraceEvent::span(
                        graph.task(t).name.clone(),
                        "sim",
                        SIM_PID_BASE + node as u32,
                        core.0 as u32,
                        tt.start * 1e6,
                        (tt.finish - tt.start) * 1e6,
                        vec![
                            ("task", t.index().into()),
                            ("layer", li.into()),
                            ("group", g.into()),
                            ("comm_s", tt.comm_time.into()),
                        ],
                    ));
                }
            }
        }
    }
    events
}

/// [`chrome_events`] packaged as a ready-to-write [`ChromeTrace`] with the
/// node and core rows named after the modelled cluster.
pub fn chrome_trace(
    graph: &TaskGraph,
    sched: &LayeredSchedule,
    report: &SimReport,
    mapping: &Mapping,
    spec: &ClusterSpec,
) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    let mut named_nodes = std::collections::HashSet::new();
    for core in mapping.map_range(0..sched.total_cores.min(mapping.len())) {
        let label = spec.label(core);
        let pid = SIM_PID_BASE + label.node as u32;
        if named_nodes.insert(label.node) {
            trace.name_process(pid, format!("sim node{}", label.node));
        }
        trace.name_thread(pid, core.0 as u32, format!("core{}", core.0));
    }
    trace.extend(chrome_events(graph, sched, report, mapping, spec));
    trace
}

/// Join the three time sources into reconciliation samples, one per
/// scheduled task: `predicted` from the cost model's class-aware symbolic
/// estimate at the group width the scheduler chose, priced at the slowest
/// speed class in the group's symbolic core range (clamped to the physical
/// cores, as the heterogeneity-aware scheduler prices its groups),
/// `simulated` from the report's timeline, `measured` from the caller's
/// wall-clock map (e.g. built from an executor trace; pass an empty map
/// when no real run exists).  On a uniform machine every group is class 0,
/// whose price is the homogeneous `task_time_symbolic` bit for bit.
pub fn reconcile_samples(
    graph: &TaskGraph,
    sched: &LayeredSchedule,
    report: &SimReport,
    model: &CostModel<'_>,
    measured: &HashMap<TaskId, f64>,
) -> Vec<TaskSample> {
    let index = report.index();
    let physical = model.spec.total_cores();
    let mut samples = Vec::new();
    for (li, layer) in sched.layers.iter().enumerate() {
        for (g, tasks) in layer.assignments.iter().enumerate() {
            let width = layer.group_sizes[g];
            let range = layer.group_range(g);
            let class = model
                .classes()
                .slowest_in_range(range.start.min(physical), range.end.min(physical));
            for &t in tasks {
                let task = graph.task(t);
                samples.push(TaskSample {
                    task: t,
                    name: task.name.clone(),
                    layer: li,
                    predicted: Some(model.task_time_symbolic_class(task, width, class)),
                    simulated: index.get(&t).map(|&i| {
                        let tt = &report.tasks[i];
                        tt.finish - tt.start
                    }),
                    measured: measured.get(&t).copied(),
                });
            }
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use pt_core::{LayerScheduler, MappingStrategy};
    use pt_machine::platforms;
    use pt_mtask::{MTask, Spec};
    use pt_obs::Reconciliation;

    fn tiny() -> (pt_mtask::TaskGraph, pt_machine::ClusterSpec) {
        let g = Spec::seq(vec![
            Spec::parfor(0..2, |i| Spec::task(MTask::compute(format!("a{i}"), 1e9))),
            Spec::task(MTask::compute("b", 5e8)),
        ])
        .compile_flat();
        (g, platforms::chic().with_nodes(2))
    }

    #[test]
    fn simulated_timeline_renders_to_chrome_events() {
        let (g, spec) = tiny();
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let report = Simulator::new(&model).simulate_layered(&g, &sched, &mapping);
        let trace = chrome_trace(&g, &sched, &report, &mapping, &spec);
        assert!(!trace.events.is_empty());
        // Every span sits on a simulated node row and has a non-negative
        // duration within the makespan.
        for ev in &trace.events {
            assert!(ev.pid >= SIM_PID_BASE);
            assert!(ev.dur_us >= 0.0);
            assert!(ev.end_us() <= report.makespan * 1e6 + 1e-6);
        }
        // The export parses back.
        let probe = pt_obs::TraceProbe::parse(&trace.to_json()).unwrap();
        assert!(probe.event_count() > 0);
    }

    #[test]
    fn reconcile_samples_join_predicted_and_simulated() {
        let (g, spec) = tiny();
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let report = Simulator::new(&model).simulate_layered(&g, &sched, &mapping);
        let samples = reconcile_samples(&g, &sched, &report, &model, &HashMap::new());
        let scheduled: usize = sched
            .layers
            .iter()
            .map(|l| l.assignments.iter().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(samples.len(), scheduled);
        for s in &samples {
            assert!(s.predicted.is_some());
            assert!(s.simulated.is_some());
            assert!(s.measured.is_none());
        }
        let rec = Reconciliation::build(samples);
        assert_eq!(rec.compared, scheduled);
        // The symbolic estimate is an upper bound built from the same cost
        // terms the simulator charges; with a consecutive mapping on a
        // uniform machine they track each other closely.
        assert!(rec.mean_abs_predicted_err < 0.5);
    }

    #[test]
    fn reconcile_samples_price_slow_groups_at_their_class() {
        // EPOL R = 4 on 2-node CHiC with node 1 at half speed: a group on
        // node 1 is priced at the slow class, a group on node 0 at the
        // nominal (homogeneous) price.
        let spec = platforms::chic().with_nodes(2).with_slow_nodes(1, 0.5);
        let model = CostModel::new(&spec);
        let g = pt_ode::Epol::new(4).step_graph(&pt_ode::Bruss2d::new(250), 1);
        let p = spec.total_cores();
        let sched = LayerScheduler::new(&model).schedule_on(&g, p);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, p);
        let report = Simulator::new(&model).simulate_layered(&g, &sched, &mapping);
        let samples = reconcile_samples(&g, &sched, &report, &model, &HashMap::new());
        let predicted: HashMap<TaskId, f64> = samples
            .iter()
            .map(|s| (s.task, s.predicted.unwrap()))
            .collect();
        let slow = model.num_classes() - 1;
        let (mut on_slow, mut on_fast) = (0, 0);
        for layer in &sched.layers {
            for (gi, tasks) in layer.assignments.iter().enumerate() {
                let range = layer.group_range(gi);
                let width = layer.group_sizes[gi];
                for &t in tasks {
                    let task = g.task(t);
                    let nominal = model.task_time_symbolic(task, width);
                    if range.end > 4 {
                        on_slow += 1;
                        let slow_price = model.task_time_symbolic_class(task, width, slow);
                        assert!(slow_price > nominal, "{}", task.name);
                        assert_eq!(predicted[&t].to_bits(), slow_price.to_bits());
                    } else {
                        on_fast += 1;
                        assert_eq!(predicted[&t].to_bits(), nominal.to_bits());
                    }
                }
            }
        }
        assert!(
            on_slow > 0 && on_fast > 0,
            "{on_slow} slow / {on_fast} fast"
        );
    }
}
