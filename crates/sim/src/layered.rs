//! Simulation of layered schedules (the native output of the paper's
//! Algorithm 1): layers execute one after another; within a layer the
//! groups run concurrently (sharing node NICs); data re-distribution is
//! paid at layer boundaries, with the orthogonal exchanges of all producer
//! groups aggregated into one concurrent multi-allgather phase.

use crate::report::{GroupTiming, LayerTiming, SimReport, TaskTiming};
use crate::Simulator;
use pt_core::hybrid::{hybrid_task_time, ProcessLayout};
use pt_core::{LayeredSchedule, Mapping};
use pt_cost::CommContext;
use pt_machine::CoreId;
use pt_mtask::{CollectiveKind, MTask, RedistPattern, TaskGraph, TaskId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Where a group's collectives are priced: the layer's contention
/// context (numbered by its active-range signature, so equal signatures
/// share a number) and the group's symbolic core range.
type GroupKey = (usize, (usize, usize));

/// Per-run memo of un-multiplied collective prices, keyed by value: the
/// group, the useful width after `max_cores`, the op's kind and the bits of
/// its byte count.  The context and the mapped cores are functions of the
/// group key, so a hit returns exactly the `f64` a fresh
/// [`CostModel::comm_op_once`](pt_cost::CostModel::comm_op_once) would.
/// Single-core collectives are free and skip it.
type CommMemo =
    HashMap<(GroupKey, usize, CollectiveKind, u64), f64, BuildHasherDefault<WordHasher>>;

/// Multiply-rotate hash over whole words (the FxHash scheme): the memo's
/// keys are six integers, and at small group widths SipHash costs more
/// than the pricing it saves.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
    fn finish(&self) -> u64 {
        // The multiply mixes upwards; bring the well-mixed high bits down
        // to where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

/// Layer contexts by active-range signature, each with its number.
type ContextCache = HashMap<Vec<(usize, usize)>, (usize, std::rc::Rc<CommContext>)>;

impl Simulator<'_> {
    /// Simulate a layered schedule under a mapping.
    pub fn simulate_layered(
        &self,
        graph: &TaskGraph,
        sched: &LayeredSchedule,
        mapping: &Mapping,
    ) -> SimReport {
        self.simulate_layered_counted(graph, sched, mapping).0
    }

    /// [`simulate_layered`](Self::simulate_layered) plus the number of
    /// distinct collective pricings the run made (the memo's size).
    fn simulate_layered_counted(
        &self,
        graph: &TaskGraph,
        sched: &LayeredSchedule,
        mapping: &Mapping,
    ) -> (SimReport, usize) {
        let mut memo = CommMemo::default();
        let report = self.run_layers(graph, sched, mapping, |task, cores, ctx, key| {
            self.task_duration(task, cores, ctx, key, &mut memo)
        });
        (report, memo.len())
    }

    /// The layer loop, with each task's `(duration, comm share)` from
    /// `price(task, cores, ctx, group key)`.
    fn run_layers(
        &self,
        graph: &TaskGraph,
        sched: &LayeredSchedule,
        mapping: &Mapping,
        mut price: impl FnMut(&MTask, &[CoreId], &CommContext, GroupKey) -> (f64, f64),
    ) -> SimReport {
        assert!(
            mapping.len() >= sched.total_cores,
            "mapping covers {} cores, schedule needs {}",
            mapping.len(),
            sched.total_cores
        );
        let spec = self.model.spec;
        let mut report = SimReport::default();
        // Where each task ran: physical cores of its group.
        let mut placement: HashMap<TaskId, std::rc::Rc<Vec<CoreId>>> = HashMap::new();
        let mut now = 0.0f64;
        // Layers of iterative applications repeat the same group structure
        // over and over; share the mapped core sets by symbolic range and
        // the contention context by active-range signature instead of
        // rebuilding both every layer.
        let mut phys_cache: HashMap<(usize, usize), std::rc::Rc<Vec<CoreId>>> = HashMap::new();
        let mut ctx_cache: ContextCache = HashMap::new();

        for layer in &sched.layers {
            let mut ranges = Vec::with_capacity(layer.num_groups());
            let mut lo = 0;
            for &size in &layer.group_sizes {
                ranges.push((lo, lo + size));
                lo += size;
            }
            let phys: Vec<std::rc::Rc<Vec<CoreId>>> = ranges
                .iter()
                .map(|&(a, b)| {
                    phys_cache
                        .entry((a, b))
                        .or_insert_with(|| std::rc::Rc::new(mapping.map_range(a..b)))
                        .clone()
                })
                .collect();
            let signature: Vec<(usize, usize)> = layer
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, ts)| !ts.is_empty())
                .map(|(g, _)| ranges[g])
                .collect();
            let next_id = ctx_cache.len();
            let (ctx_id, ctx) = ctx_cache
                .entry(signature)
                .or_insert_with_key(|sig| {
                    let active: Vec<&[CoreId]> =
                        sig.iter().map(|r| phys_cache[r].as_slice()).collect();
                    (
                        next_id,
                        std::rc::Rc::new(CommContext::from_groups(spec, &active)),
                    )
                })
                .clone();
            let ctx = &*ctx;

            // --- Re-distribution phase -----------------------------------
            let redist = self.layer_redistribution(graph, layer, &phys, &placement, ctx);
            now += redist;
            report.total_redist += redist;

            // --- Compute phase -------------------------------------------
            let mut groups = Vec::with_capacity(layer.num_groups());
            let mut layer_busy = 0.0f64;
            for (g, tasks) in layer.assignments.iter().enumerate() {
                let cores = &phys[g];
                let mut cursor = now;
                for &t in tasks {
                    let (dur, comm) = price(graph.task(t), cores, ctx, (ctx_id, ranges[g]));
                    report.tasks.push(TaskTiming {
                        task: t,
                        start: cursor,
                        finish: cursor + dur,
                        comm_time: comm,
                    });
                    placement.insert(t, cores.clone());
                    cursor += dur;
                }
                let busy = cursor - now;
                layer_busy = layer_busy.max(busy);
                groups.push(GroupTiming {
                    group: g,
                    busy,
                    tasks: tasks.clone(),
                });
            }
            report.layers.push(LayerTiming {
                start: now,
                finish: now + layer_busy,
                redist,
                groups,
            });
            now += layer_busy;
        }
        report.makespan = now;
        report
    }

    /// Duration and communication share of one task on its mapped cores.
    /// The pure-MPI path prices each collective once per run through the
    /// memo; the hybrid path prices per task.
    fn task_duration(
        &self,
        task: &MTask,
        cores: &[CoreId],
        ctx: &CommContext,
        key: GroupKey,
        memo: &mut CommMemo,
    ) -> (f64, f64) {
        match &self.hybrid {
            Some(cfg) => {
                let layout = ProcessLayout::build(self.model.spec, cores, cfg);
                let total = hybrid_task_time(self.model, ctx, task, &layout, cfg);
                let capacity: f64 = layout
                    .processes
                    .iter()
                    .map(|p| 1.0 + (p.threads as f64 - 1.0) * cfg.thread_efficiency)
                    .sum();
                let capacity = match task.max_cores {
                    Some(cap) => capacity.min(cap as f64),
                    None => capacity,
                };
                let compute = self.model.spec.compute_time(task.work) / capacity.max(1.0);
                (total, (total - compute).max(0.0))
            }
            None => {
                let total = self.model.task_time_by(task, cores, |useful, op| {
                    if useful.len() < 2 {
                        return self.model.comm_op_once(ctx, useful, op);
                    }
                    *memo
                        .entry((key, useful.len(), op.kind, op.bytes.to_bits()))
                        .or_insert_with(|| self.model.comm_op_once(ctx, useful, op))
                });
                // Same capping and slowest-core division as task_time, so
                // the communication share stays exact on het machines.
                let compute = self.model.compute_share(task, cores);
                (total, (total - compute).max(0.0))
            }
        }
    }

    /// The per-task pricing the memo replaced, kept as the oracle for the
    /// bit-identity tests below (pure-MPI only; the hybrid path is not
    /// memoized).
    #[cfg(test)]
    fn task_duration_direct(
        &self,
        task: &MTask,
        cores: &[CoreId],
        ctx: &CommContext,
    ) -> (f64, f64) {
        assert!(self.hybrid.is_none());
        let total = self.model.task_time(ctx, task, cores);
        let compute = self.model.compute_share(task, cores);
        (total, (total - compute).max(0.0))
    }

    /// Re-distribution time paid before a layer can start: the aggregated
    /// orthogonal exchange plus the slowest of the remaining per-edge
    /// re-distributions (all phases overlap).
    fn layer_redistribution(
        &self,
        graph: &TaskGraph,
        layer: &pt_core::LayerSchedule,
        phys: &[std::rc::Rc<Vec<CoreId>>],
        placement: &HashMap<TaskId, std::rc::Rc<Vec<CoreId>>>,
        ctx: &CommContext,
    ) -> f64 {
        let mut worst = 0.0f64;
        // (producer task) -> contribution for the aggregated orthogonal set.
        // Ordered map: its iteration order feeds the total_bytes float sum,
        // and the simulated makespan must be bit-identical across runs and
        // threads (the serve cache verifies cached replies against fresh
        // computations). The participant order itself is harmless — the
        // cost model canonicalises each exchange set before pricing it.
        let mut ortho_sources: std::collections::BTreeMap<TaskId, (std::rc::Rc<Vec<CoreId>>, f64)> =
            std::collections::BTreeMap::new();
        let mut ortho_groups: Vec<std::rc::Rc<Vec<CoreId>>> = Vec::new();

        for (g, tasks) in layer.assignments.iter().enumerate() {
            let dst = &phys[g];
            let mut dst_in_ortho = false;
            // Incoming re-distributions serialise at the consumer group;
            // different groups receive concurrently (hence max over groups).
            let mut group_incoming = 0.0f64;
            for &t in tasks {
                for &p in graph.preds(t) {
                    let Some(src) = placement.get(&p) else {
                        continue; // unscheduled (structural) predecessor
                    };
                    let edge = *graph.edge(p, t).expect("edge exists");
                    match edge.pattern {
                        RedistPattern::Orthogonal => {
                            let q = src.len().max(1) as f64;
                            ortho_sources
                                .entry(p)
                                .or_insert_with(|| (src.clone(), edge.bytes / q));
                            if !dst_in_ortho {
                                dst_in_ortho = true;
                            }
                        }
                        _ => {
                            group_incoming += self.model.redist_time(ctx, &edge, src, dst);
                        }
                    }
                }
            }
            worst = worst.max(group_incoming);
            if dst_in_ortho {
                ortho_groups.push(dst.clone());
            }
        }

        if !ortho_sources.is_empty() {
            // Participants: all producer groups plus consumer groups
            // (deduplicated by identical core sets).
            let mut participants: Vec<std::rc::Rc<Vec<CoreId>>> = Vec::new();
            let push_unique =
                |g: &std::rc::Rc<Vec<CoreId>>, participants: &mut Vec<std::rc::Rc<Vec<CoreId>>>| {
                    if !participants.iter().any(|x| x.as_slice() == g.as_slice()) {
                        participants.push(g.clone());
                    }
                };
            for (src, _) in ortho_sources.values() {
                push_unique(src, &mut participants);
            }
            for g in &ortho_groups {
                push_unique(g, &mut participants);
            }
            let total_bytes: f64 = ortho_sources.values().map(|(_, b)| b).sum();
            let groups: Vec<&[CoreId]> = participants.iter().map(|g| g.as_slice()).collect();
            worst = worst.max(self.model.orthogonal_exchange(&groups, total_bytes));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use crate::{SimReport, Simulator};
    use pt_core::{
        DataParallel, LayerSchedule, LayerScheduler, LayeredSchedule, Mapping, MappingStrategy,
    };
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{CollectiveKind, CommOp, DataRef, EdgeData, MTask, Spec, TaskGraph, TaskId};
    use pt_nas::{bt_mz, sp_mz, Class};
    use pt_ode::{Bruss2d, Epol};

    #[test]
    fn layers_execute_back_to_back() {
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        g.add_ordering_edge(a, b);
        let sched = DataParallel::schedule(&g, 4);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert_eq!(rep.layers.len(), 2);
        assert!((rep.layers[0].finish - rep.layers[1].start).abs() < 1e-12);
        assert!((rep.makespan - 0.5).abs() < 1e-9);
    }

    #[test]
    fn redistribution_charged_between_groups() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        // Two producers on separate groups; the consumer joins both, so it
        // cannot be chain-contracted with either and must receive at least
        // one datum from a foreign group.
        let g = Spec::seq(vec![
            Spec::par(vec![
                Spec::task(MTask::compute("p0", 1e9)).defines([DataRef::replicated("A", 1e6)]),
                Spec::task(MTask::compute("p1", 1e9)).defines([DataRef::replicated("B", 1e6)]),
            ]),
            Spec::task(MTask::compute("c", 1e9)).uses(["A", "B"]),
        ])
        .compile_flat();
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 16);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert!(
            rep.total_redist > 0.0,
            "replicated data must be re-broadcast to the wider group"
        );
    }

    #[test]
    fn zero_comm_program_is_mapping_invariant() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(MTask::compute(format!("t{i}"), 1e9));
        }
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(8)
            .schedule(&g);
        let mut times = Vec::new();
        for s in MappingStrategy::all_for(&spec) {
            let mapping = s.mapping(&spec, 32);
            times.push(sim.simulate_layered(&g, &sched, &mapping).makespan);
        }
        for w in times.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12,
                "mapping must not matter without communication: {times:?}"
            );
        }
    }

    #[test]
    fn orthogonal_exchange_aggregates_across_groups() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        // 4 stages produce orthogonally exchanged vectors consumed by the
        // next step's stages.
        let k = 4;
        let bytes = 4e6;
        let g = Spec::seq(vec![
            Spec::parfor(0..k, |i| {
                Spec::task(MTask::compute(format!("s{i}"), 1e9))
                    .defines([DataRef::orthogonal(format!("V{i}"), bytes)])
            }),
            Spec::parfor(0..k, |i| {
                Spec::task(MTask::compute(format!("u{i}"), 1e9))
                    .uses((0..k).map(|j| format!("V{j}")))
                    .defines([DataRef::orthogonal(format!("W{i}"), bytes)])
            }),
        ])
        .compile_flat();
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(k)
            .schedule(&g);
        let m_cons = MappingStrategy::Consecutive.mapping(&spec, 32);
        let m_scat = MappingStrategy::Scattered.mapping(&spec, 32);
        let t_cons = sim.simulate_layered(&g, &sched, &m_cons);
        let t_scat = sim.simulate_layered(&g, &sched, &m_scat);
        assert!(t_cons.total_redist > 0.0);
        // Orthogonal traffic favours the scattered mapping (paper §3.4).
        assert!(
            t_scat.total_redist < t_cons.total_redist,
            "scattered {} vs consecutive {}",
            t_scat.total_redist,
            t_cons.total_redist
        );
    }

    /// The pre-memo run: every task priced by `CostModel::task_time`.
    fn simulate_direct(
        sim: &Simulator,
        g: &TaskGraph,
        sched: &LayeredSchedule,
        mapping: &Mapping,
    ) -> SimReport {
        sim.run_layers(g, sched, mapping, |task, cores, ctx, _| {
            sim.task_duration_direct(task, cores, ctx)
        })
    }

    fn assert_bit_equal(a: &SimReport, b: &SimReport, what: &str) {
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{what}: makespan"
        );
        assert_eq!(
            a.total_redist.to_bits(),
            b.total_redist.to_bits(),
            "{what}: total_redist"
        );
        assert_eq!(a.tasks.len(), b.tasks.len(), "{what}: tasks");
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.task, y.task, "{what}");
            assert_eq!(x.start.to_bits(), y.start.to_bits(), "{what}: {:?}", x.task);
            assert_eq!(
                x.finish.to_bits(),
                y.finish.to_bits(),
                "{what}: {:?}",
                x.task
            );
            assert_eq!(
                x.comm_time.to_bits(),
                y.comm_time.to_bits(),
                "{what}: {:?}",
                x.task
            );
        }
        assert_eq!(a.layers.len(), b.layers.len(), "{what}: layers");
        for (i, (x, y)) in a.layers.iter().zip(&b.layers).enumerate() {
            assert_eq!(x.start.to_bits(), y.start.to_bits(), "{what}: layer {i}");
            assert_eq!(x.finish.to_bits(), y.finish.to_bits(), "{what}: layer {i}");
            assert_eq!(x.redist.to_bits(), y.redist.to_bits(), "{what}: layer {i}");
            assert_eq!(x.groups.len(), y.groups.len(), "{what}: layer {i}");
            for (gx, gy) in x.groups.iter().zip(&y.groups) {
                assert_eq!(gx.busy.to_bits(), gy.busy.to_bits(), "{what}: layer {i}");
                assert_eq!(gx.tasks, gy.tasks, "{what}: layer {i}");
            }
        }
    }

    /// Small step graphs of the three workload families (two steps each).
    fn small_graph(kind: usize) -> TaskGraph {
        match kind {
            0 => Epol::new(4).step_graph(&Bruss2d::new(64), 2),
            1 => bt_mz(Class::A).step_graph(2),
            2 => sp_mz(Class::A).step_graph(2),
            3 => Epol::new(8).step_graph(&Bruss2d::new(128), 2),
            _ => bt_mz(Class::B).step_graph(2),
        }
    }

    proptest::proptest! {
        #[test]
        fn comm_memo_is_bit_identical_to_per_task_pricing(
            kind in 0usize..5,
            platform in 0usize..2,
            nodes in 2usize..17,
            slow in 0usize..3,
            strategy in 0usize..3,
        ) {
            let base = if platform == 0 { platforms::juropa() } else { platforms::chic() };
            let mut spec = base.with_nodes(nodes);
            if slow > 0 {
                spec = spec.with_slow_nodes(slow.min(nodes - 1), 0.5);
            }
            let model = CostModel::new(&spec);
            let sim = Simulator::new(&model);
            let g = small_graph(kind);
            let p = spec.total_cores();
            let sched = LayerScheduler::new(&model).schedule(&g);
            let mapping = match strategy {
                0 => MappingStrategy::Consecutive,
                1 => MappingStrategy::Scattered,
                _ => MappingStrategy::Mixed(2),
            }
            .mapping(&spec, p);
            let memo = sim.simulate_layered(&g, &sched, &mapping);
            let direct = simulate_direct(&sim, &g, &sched, &mapping);
            assert_bit_equal(
                &memo,
                &direct,
                &format!("kind {kind}, platform {platform}, {nodes} nodes, slow {slow}, mapping {strategy}"),
            );
        }
    }

    #[test]
    fn comm_memo_keys_on_context_and_useful_width() {
        // The same group range and op under two different layer contexts
        // (both groups active, then group 1 idle), and a task capped by
        // `max_cores` beside an uncapped one in the same group: each pair
        // must be priced separately, and so must two kinds of op of equal
        // size.
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let op = || vec![CommOp::allgather(1e6, 1.0)];
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::with_comm("a", 1e9, op()));
        let b = g.add_task(MTask::with_comm(
            "b",
            1e9,
            vec![
                CommOp::allgather(1e6, 1.0),
                CommOp::new(CollectiveKind::Allreduce, 1e6, 1.0),
            ],
        ));
        let c = g.add_task(MTask::with_comm("c", 1e9, op()));
        let d = g.add_task(MTask::with_comm("d", 1e9, op()).max_cores(2));
        let sched = LayeredSchedule {
            total_cores: 16,
            layers: vec![
                LayerSchedule {
                    group_sizes: vec![8, 8],
                    assignments: vec![vec![a], vec![b]],
                },
                LayerSchedule {
                    group_sizes: vec![8, 8],
                    assignments: vec![vec![c, d], vec![]],
                },
            ],
        };
        let mapping = MappingStrategy::Scattered.mapping(&spec, 16);
        let (report, pricings) = sim.simulate_layered_counted(&g, &sched, &mapping);
        assert_bit_equal(
            &report,
            &simulate_direct(&sim, &g, &sched, &mapping),
            "keys",
        );
        assert_eq!(pricings, 5);
        let comm = |t| report.task(t).unwrap().comm_time;
        assert!(comm(a) > comm(c), "shared NICs make layer 0 dearer");
        assert!(comm(c) > comm(d), "two cores gather less than eight");
    }

    /// `(distinct pricings, comm ops priced)` of one memoized run.
    fn pricing_counts(g: &TaskGraph, p: usize, strategy: MappingStrategy) -> (usize, usize) {
        let spec = platforms::juropa().with_nodes(p / 8);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let sched = LayerScheduler::new(&model).schedule(g);
        let mapping = strategy.mapping(&spec, p);
        let (report, pricings) = sim.simulate_layered_counted(g, &sched, &mapping);
        let ops = report.tasks.iter().map(|t| g.task(t.task).comm.len()).sum();
        assert_bit_equal(
            &report,
            &simulate_direct(&sim, g, &sched, &mapping),
            "counts",
        );
        (pricings, ops)
    }

    #[test]
    fn comm_memo_prices_each_distinct_collective_once() {
        // Deterministic work counters: a change that defeats the memo fails
        // here by count, not only on wall-clock time.
        let epol = Epol::new(8).step_graph(&Bruss2d::new(500), 2);
        let bt_c = bt_mz(Class::C).step_graph(2);
        for strategy in [MappingStrategy::Consecutive, MappingStrategy::Scattered] {
            assert_eq!(
                pricing_counts(&epol, 4096, strategy),
                (9, 74),
                "epol {strategy:?}"
            );
            assert_eq!(
                pricing_counts(&bt_c, 4096, strategy),
                (256, 512),
                "bt-mz C {strategy:?}"
            );
            // One core per zone: every collective is free and none is
            // memoized.
            assert_eq!(
                pricing_counts(&bt_c, 64, strategy),
                (0, 512),
                "bt-mz C P=64 {strategy:?}"
            );
        }
    }

    #[test]
    fn task_timings_cover_all_tasks() {
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1e9));
        let b = g.add_task(MTask::compute("b", 1e9));
        g.add_edge(a, b, EdgeData::replicated(8.0));
        let sched = DataParallel::schedule(&g, 8);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 8);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert!(rep.task(TaskId(0)).is_some());
        assert!(rep.task(TaskId(1)).is_some());
        assert!(rep.task(TaskId(1)).unwrap().start >= rep.task(TaskId(0)).unwrap().finish);
    }
}
