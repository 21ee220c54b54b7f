//! Collective communication and task execution cost model.

use crate::context::CommContext;
use pt_machine::{ClusterSpec, CommLevel, CoreId};
use pt_mtask::{CollectiveKind, CommOp, MTask};
use std::cell::RefCell;

/// Per-member block-size threshold above which the allgather uses the
/// ring algorithm (mirrors the large-message switch of MVAPICH/MPT, which
/// the paper identifies as the source of the consecutive-mapping
/// advantage, §4.4); below it the log-depth recursive doubling is used.
pub const DEFAULT_RING_THRESHOLD: f64 = 4.0 * 1024.0;

/// Message size above which a broadcast uses the scatter + allgather (van
/// de Geijn) algorithm instead of a binomial tree.
pub const DEFAULT_SAG_BCAST_THRESHOLD: f64 = 64.0 * 1024.0;

/// The distinct core-speed classes of a machine, precomputed for O(log n)
/// range queries.
///
/// Class indices are *descending* speeds: class 0 is the fastest (nominal,
/// factor `1.0` on every machine built from the presets), higher classes
/// are slower.  Homogeneous machines collapse to the single class `[1.0]`
/// and skip all per-core bookkeeping.
#[derive(Debug, Clone)]
pub struct SpeedClasses {
    /// Distinct core speeds, descending.
    speeds: Vec<f64>,
    /// Class index of every core (empty when uniform).
    class_of_core: Vec<u32>,
    /// Sorted core positions per class (empty when uniform).
    positions: Vec<Vec<u32>>,
}

impl SpeedClasses {
    /// Precompute the classes of a machine.
    pub fn build(spec: &ClusterSpec) -> SpeedClasses {
        if spec.is_uniform() {
            return SpeedClasses {
                speeds: vec![1.0],
                class_of_core: Vec::new(),
                positions: Vec::new(),
            };
        }
        let speeds = spec.speed_classes();
        let mut class_of_core = Vec::with_capacity(spec.total_cores());
        let mut positions = vec![Vec::new(); speeds.len()];
        for c in spec.all_cores() {
            let s = spec.core_speed(c);
            let k = speeds
                .iter()
                .position(|&v| v.to_bits() == s.to_bits())
                .expect("core speed is one of the machine's classes");
            class_of_core.push(k as u32);
            positions[k].push(c.0 as u32);
        }
        SpeedClasses {
            speeds,
            class_of_core,
            positions,
        }
    }

    /// `true` iff the machine has a single class.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.speeds.len() == 1
    }

    /// Number of classes (1 for homogeneous machines).
    #[inline]
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// `len() == 0` is impossible; provided for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Speed factor of a class.
    #[inline]
    pub fn speed(&self, class: usize) -> f64 {
        self.speeds[class]
    }

    /// Class of a core.
    #[inline]
    pub fn class_of(&self, core: CoreId) -> usize {
        if self.class_of_core.is_empty() {
            0
        } else {
            self.class_of_core[core.0] as usize
        }
    }

    /// The slowest (highest-index) class with a core in `lo..hi` — the
    /// class a *symbolic* candidate range must be priced at, since a
    /// data-parallel task finishes with its slowest core.  O(K log n).
    pub fn slowest_in_range(&self, lo: usize, hi: usize) -> usize {
        if self.class_of_core.is_empty() || lo >= hi {
            return 0;
        }
        for k in (0..self.positions.len()).rev() {
            let p = self.positions[k].partition_point(|&c| (c as usize) < lo);
            if p < self.positions[k].len() && (self.positions[k][p] as usize) < hi {
                return k;
            }
        }
        0
    }

    /// The slowest speed factor among the given cores (`1.0` when uniform).
    pub fn min_speed(&self, cores: &[CoreId]) -> f64 {
        if self.class_of_core.is_empty() {
            return 1.0;
        }
        let worst = cores.iter().map(|&c| self.class_of(c)).max().unwrap_or(0);
        self.speeds[worst]
    }
}

/// The mapping-aware cost model for one cluster.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    /// The platform.
    pub spec: &'a ClusterSpec,
    /// Allgather algorithm switch point (per-member block bytes).
    pub ring_threshold: f64,
    /// Precomputed core-speed classes of `spec`.
    classes: SpeedClasses,
}

impl<'a> CostModel<'a> {
    /// Model with default algorithm thresholds.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        CostModel {
            spec,
            ring_threshold: DEFAULT_RING_THRESHOLD,
            classes: SpeedClasses::build(spec),
        }
    }

    /// The machine's speed classes.
    #[inline]
    pub fn classes(&self) -> &SpeedClasses {
        &self.classes
    }

    /// `true` iff every core of the machine runs at nominal speed (the
    /// paper's homogeneous setting — all the fast paths key off this).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.classes.is_uniform()
    }

    /// Number of speed classes (1 for homogeneous machines).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Point-to-point transfer time between two cores under NIC contention.
    pub fn p2p(&self, ctx: &CommContext, a: CoreId, b: CoreId, bytes: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        let level = self.spec.level(a, b);
        let link = self.spec.link_at(level);
        if level == CommLevel::CrossNode {
            let na = self.spec.label(a).node;
            let nb = self.spec.label(b).node;
            let share = ctx.sharing(na).max(ctx.sharing(nb));
            let eff_bw = link.bytes_per_s.min(self.spec.nic_bytes_per_s / share);
            link.latency_s + bytes / eff_bw
        } else {
            link.transfer_time(bytes)
        }
    }

    /// Time of one communication *step* in which all the given core pairs
    /// transfer `bytes` simultaneously.
    ///
    /// Crossing flows that leave or enter the same node share that node's
    /// NIC: the effective bandwidth of a flow is
    /// `min(link, nic / (flows_on_src_nic · sharers), nic / (flows_on_dst_nic · sharers))`.
    /// This intra-collective contention is what makes a ring allgather over
    /// scattered cores slow — every rank sends cross-node at once — while a
    /// consecutive layout crosses each node boundary exactly once.
    ///
    /// The per-node flow counts live in a per-thread scratch sized to the
    /// largest machine the thread has priced and stamped per call, so a
    /// step costs O(pairs) however many nodes the machine has.
    pub fn step_time(&self, ctx: &CommContext, pairs: &[(CoreId, CoreId)], bytes: f64) -> f64 {
        FLOWS.with(|flows| {
            let flows = &mut *flows.borrow_mut();
            flows.begin(self.spec.nodes);
            for &(a, b) in pairs {
                if self.spec.level(a, b) == CommLevel::CrossNode {
                    flows.at(self.spec.label(a).node).out += 1.0;
                    flows.at(self.spec.label(b).node).inc += 1.0;
                }
            }
            let mut worst = 0.0f64;
            for &(a, b) in pairs {
                if a == b {
                    continue;
                }
                let level = self.spec.level(a, b);
                let link = self.spec.link_at(level);
                let t = if level == CommLevel::CrossNode {
                    let na = self.spec.label(a).node;
                    let nb = self.spec.label(b).node;
                    let nic = self.spec.nic_bytes_per_s;
                    let eff = link
                        .bytes_per_s
                        .min(nic / (flows.nodes[na].out * ctx.sharing(na)))
                        .min(nic / (flows.nodes[nb].inc * ctx.sharing(nb)));
                    link.latency_s + bytes / eff
                } else {
                    link.transfer_time(bytes)
                };
                worst = worst.max(t);
            }
            worst
        })
    }

    /// The per-call `nodes`-long formulation the scratch replaced, kept as
    /// the oracle for the bit-equality tests below.
    #[cfg(test)]
    fn step_time_dense(&self, ctx: &CommContext, pairs: &[(CoreId, CoreId)], bytes: f64) -> f64 {
        let mut out_flows = vec![0.0f64; self.spec.nodes];
        let mut in_flows = vec![0.0f64; self.spec.nodes];
        for &(a, b) in pairs {
            if self.spec.level(a, b) == CommLevel::CrossNode {
                out_flows[self.spec.label(a).node] += 1.0;
                in_flows[self.spec.label(b).node] += 1.0;
            }
        }
        let mut worst = 0.0f64;
        for &(a, b) in pairs {
            if a == b {
                continue;
            }
            let level = self.spec.level(a, b);
            let link = self.spec.link_at(level);
            let t = if level == CommLevel::CrossNode {
                let na = self.spec.label(a).node;
                let nb = self.spec.label(b).node;
                let nic = self.spec.nic_bytes_per_s;
                let eff = link
                    .bytes_per_s
                    .min(nic / (out_flows[na] * ctx.sharing(na)))
                    .min(nic / (in_flows[nb] * ctx.sharing(nb)));
                link.latency_s + bytes / eff
            } else {
                link.transfer_time(bytes)
            };
            worst = worst.max(t);
        }
        worst
    }

    /// Broadcast of `bytes` from `cores[0]` to the whole group.
    ///
    /// Small messages use a binomial tree over rank distances (round `k`
    /// pairs rank `i` with `i + 2^k`); large messages use the van de Geijn
    /// scatter + allgather scheme real MPI libraries switch to, whose
    /// allgather phase inherits the ring's mapping sensitivity.
    pub fn bcast(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let q = cores.len();
        if q <= 1 {
            return 0.0;
        }
        if bytes >= DEFAULT_SAG_BCAST_THRESHOLD && q > 4 {
            // Binomial scatter: the root first ships half the payload to
            // the far half, then the halves recurse (payload and reach
            // halve together).
            let mut time = 0.0;
            let mut reach = q.next_power_of_two() / 2;
            let mut chunk = bytes / 2.0;
            while reach >= 1 {
                let pairs: Vec<(CoreId, CoreId)> = (0..q)
                    .filter_map(|src| {
                        let dst = src + reach;
                        ((src / reach).is_multiple_of(2) && dst < q)
                            .then(|| (cores[src], cores[dst]))
                    })
                    .collect();
                if !pairs.is_empty() {
                    time += self.step_time(ctx, &pairs, chunk);
                }
                chunk /= 2.0;
                reach /= 2;
            }
            return time + self.allgather(ctx, cores, bytes);
        }
        let mut time = 0.0;
        let mut reach = 1usize;
        while reach < q {
            let pairs: Vec<(CoreId, CoreId)> = (0..reach.min(q))
                .filter_map(|src| {
                    let dst = src + reach;
                    (dst < q).then(|| (cores[src], cores[dst]))
                })
                .collect();
            time += self.step_time(ctx, &pairs, bytes);
            reach *= 2;
        }
        time
    }

    /// Allgather (*multi-broadcast*) over the group; `total_bytes` is the
    /// gathered volume (each member contributes `total_bytes / q`).
    ///
    /// Large totals use the ring algorithm: `q−1` steps in which every rank
    /// sends its current block to the next rank in rank order — under a
    /// consecutive mapping these neighbour links are almost all intra-node.
    /// Small totals use recursive doubling (log-depth, distance-doubling
    /// partners).
    pub fn allgather(&self, ctx: &CommContext, cores: &[CoreId], total_bytes: f64) -> f64 {
        let q = cores.len();
        if q <= 1 {
            return 0.0;
        }
        let block = total_bytes / q as f64;
        if block >= self.ring_threshold && q > 2 {
            self.allgather_ring(ctx, cores, block)
        } else {
            self.allgather_rd(ctx, cores, block)
        }
    }

    fn allgather_ring(&self, ctx: &CommContext, cores: &[CoreId], block: f64) -> f64 {
        let q = cores.len();
        // All q−1 steps use the same neighbour links simultaneously; each
        // step moves one block per rank to its successor.
        let pairs: Vec<(CoreId, CoreId)> = (0..q).map(|i| (cores[i], cores[(i + 1) % q])).collect();
        (q - 1) as f64 * self.step_time(ctx, &pairs, block)
    }

    fn allgather_rd(&self, ctx: &CommContext, cores: &[CoreId], block: f64) -> f64 {
        let q = cores.len();
        // Recursive doubling on ⌈log2 q⌉ rounds; non-power-of-two groups pay
        // an extra fix-up round (as in MPI implementations).
        let mut time = 0.0;
        let mut dist = 1usize;
        let mut chunk = block;
        while dist < q {
            let mut pairs = Vec::new();
            for i in 0..q {
                let j = i ^ dist;
                if j < q && j > i {
                    pairs.push((cores[i], cores[j]));
                    pairs.push((cores[j], cores[i]));
                }
            }
            time += self.step_time(ctx, &pairs, chunk);
            chunk *= 2.0;
            dist *= 2;
        }
        if !q.is_power_of_two() {
            // Fix-up: one extra exchange of the remainder blocks.
            let pairs: Vec<(CoreId, CoreId)> =
                (0..q).map(|i| (cores[i], cores[(i + 1) % q])).collect();
            time += self.step_time(ctx, &pairs, block);
        }
        time
    }

    /// Allreduce over the group: recursive-doubling exchange of the full
    /// vector per round.
    pub fn allreduce(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let q = cores.len();
        if q <= 1 {
            return 0.0;
        }
        let rounds = (q as f64).log2().ceil() as usize;
        let mut time = 0.0;
        let mut dist = 1usize;
        for _ in 0..rounds {
            let mut pairs = Vec::new();
            for i in 0..q {
                let j = i ^ dist;
                if j < q && j > i {
                    pairs.push((cores[i], cores[j]));
                    pairs.push((cores[j], cores[i]));
                }
            }
            let round = if pairs.is_empty() {
                // Non-power-of-two fallback: charge the worst group link.
                self.worst_link_time(ctx, cores, bytes)
            } else {
                self.step_time(ctx, &pairs, bytes)
            };
            time += round;
            dist *= 2;
        }
        time
    }

    /// Pure synchronisation: an 8-byte allreduce.
    pub fn barrier(&self, ctx: &CommContext, cores: &[CoreId]) -> f64 {
        self.allreduce(ctx, cores, 8.0)
    }

    /// Halo exchange with both rank neighbours.
    pub fn neighbor_exchange(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let q = cores.len();
        if q <= 1 {
            return 0.0;
        }
        let mut pairs = Vec::with_capacity(2 * (q - 1));
        for i in 0..q - 1 {
            pairs.push((cores[i], cores[i + 1]));
            pairs.push((cores[i + 1], cores[i]));
        }
        2.0 * self.step_time(ctx, &pairs, bytes)
    }

    /// Worst pairwise [`p2p`](Self::p2p) time within the group.
    ///
    /// `p2p` depends only on the `(node, processor)` labels of its
    /// endpoints: intra-processor and intra-node transfers are
    /// label-independent constants, and a cross-node transfer depends only
    /// on the two node ids (through NIC sharing).  So instead of the
    /// all-pairs max over `q²/2` pairs, dedup to one representative core
    /// per distinct node plus two intra-level flags — value-identical by
    /// construction (the test oracle below asserts bit-equality).
    fn worst_link_time(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let mut seen_core = std::collections::HashSet::new();
        let mut seen_label = std::collections::HashSet::new();
        let mut seen_node = std::collections::HashSet::new();
        // One representative core per distinct node.
        let mut node_reps: Vec<(usize, CoreId)> = Vec::new();
        let mut intra_proc = false;
        let mut intra_node = false;
        for &c in cores {
            // An exact duplicate core forms only pairs that an earlier
            // occurrence already forms (plus the zero-cost self pair).
            if !seen_core.insert(c.0) {
                continue;
            }
            let l = self.spec.label(c);
            if !seen_label.insert((l.node, l.processor)) {
                // Distinct core sharing a processor with an earlier one.
                intra_proc = true;
                continue;
            }
            if seen_node.insert(l.node) {
                node_reps.push((l.node, c));
            } else {
                // Distinct processor on an already-seen node.
                intra_node = true;
            }
        }
        let mut worst = 0.0f64;
        if intra_proc {
            worst = worst.max(
                self.spec
                    .link_at(CommLevel::SameProcessor)
                    .transfer_time(bytes),
            );
        }
        if intra_node {
            worst = worst.max(self.spec.link_at(CommLevel::SameNode).transfer_time(bytes));
        }
        // Cross-node: every representative pair travels the same inter-node
        // link, and `p2p` is monotone non-decreasing in the *larger* of the
        // two endpoints' NIC sharing factors.  The worst pair therefore
        // contains the max-sharing node, and pairing it with any other
        // representative evaluates the identical expression the dense
        // max-fold would have returned — one `p2p` call instead of the
        // former O(reps²) loop (the last quadratic factor of the
        // non-power-of-two allreduce fallback).
        if node_reps.len() >= 2 {
            let mut hot = 0usize;
            let mut hot_share = ctx.sharing(node_reps[0].0);
            for (i, &(n, _)) in node_reps.iter().enumerate().skip(1) {
                let s = ctx.sharing(n);
                if s > hot_share {
                    hot = i;
                    hot_share = s;
                }
            }
            let partner = usize::from(hot == 0);
            worst = worst.max(self.p2p(ctx, node_reps[hot].1, node_reps[partner].1, bytes));
        }
        worst
    }

    /// The dense node-representative loop the argmax fold replaced, kept as
    /// an oracle for the bit-equality tests below.
    #[cfg(test)]
    fn worst_link_time_rep_pairs(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let mut seen_core = std::collections::HashSet::new();
        let mut seen_label = std::collections::HashSet::new();
        let mut node_reps: Vec<(usize, CoreId)> = Vec::new();
        let mut intra_proc = false;
        let mut intra_node = false;
        for &c in cores {
            if !seen_core.insert(c.0) {
                continue;
            }
            let l = self.spec.label(c);
            if !seen_label.insert((l.node, l.processor)) {
                intra_proc = true;
                continue;
            }
            if node_reps.iter().any(|&(n, _)| n == l.node) {
                intra_node = true;
            } else {
                node_reps.push((l.node, c));
            }
        }
        let mut worst = 0.0f64;
        if intra_proc {
            worst = worst.max(
                self.spec
                    .link_at(CommLevel::SameProcessor)
                    .transfer_time(bytes),
            );
        }
        if intra_node {
            worst = worst.max(self.spec.link_at(CommLevel::SameNode).transfer_time(bytes));
        }
        for i in 0..node_reps.len() {
            for j in i + 1..node_reps.len() {
                worst = worst.max(self.p2p(ctx, node_reps[i].1, node_reps[j].1, bytes));
            }
        }
        worst
    }

    /// The original all-pairs formulation, kept as the oracle for the
    /// bit-equality tests of the deduplicated [`worst_link_time`].
    #[cfg(test)]
    fn worst_link_time_all_pairs(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..cores.len() {
            for j in i + 1..cores.len() {
                worst = worst.max(self.p2p(ctx, cores[i], cores[j], bytes));
            }
        }
        worst
    }

    /// Time of a single internal communication operation on a group.
    pub fn comm_op(&self, ctx: &CommContext, cores: &[CoreId], op: &CommOp) -> f64 {
        self.comm_op_once(ctx, cores, op) * op.count
    }

    /// Time of *one* execution of a communication operation (its `count`
    /// not applied).  It depends only on the context, the cores, `op.kind`
    /// and `op.bytes`, which is what lets a caller memoize it.
    pub fn comm_op_once(&self, ctx: &CommContext, cores: &[CoreId], op: &CommOp) -> f64 {
        match op.kind {
            CollectiveKind::Broadcast => self.bcast(ctx, cores, op.bytes),
            CollectiveKind::Allgather => self.allgather(ctx, cores, op.bytes),
            CollectiveKind::Allreduce => self.allreduce(ctx, cores, op.bytes),
            CollectiveKind::Barrier => self.barrier(ctx, cores),
            CollectiveKind::NeighborExchange => self.neighbor_exchange(ctx, cores, op.bytes),
        }
    }

    /// `T(M, q, mp)`: full execution time of an M-task on the given physical
    /// cores (the mapping pattern *is* the identity of those cores).
    pub fn task_time(&self, ctx: &CommContext, task: &MTask, cores: &[CoreId]) -> f64 {
        self.task_time_by(task, cores, |useful, op| self.comm_op_once(ctx, useful, op))
    }

    /// [`task_time`](Self::task_time) with the caller supplying
    /// [`comm_op_once`](Self::comm_op_once) for each op on the useful
    /// (capped) cores, e.g. from a memo.  Capping, the compute share and
    /// the order of the comm sum stay defined here only.
    pub fn task_time_by(
        &self,
        task: &MTask,
        cores: &[CoreId],
        mut once: impl FnMut(&[CoreId], &CommOp) -> f64,
    ) -> f64 {
        let useful = useful_cores(task, cores);
        if useful.is_empty() {
            return 0.0;
        }
        let comm: f64 = task.comm.iter().map(|op| once(useful, op) * op.count).sum();
        self.compute_share(task, cores) + comm
    }

    /// The compute part of [`task_time`](Self::task_time) on the same
    /// mapped cores: identical capping and slowest-core speed division, so
    /// simulators can subtract it from the total to report the
    /// communication share without re-deriving the speed logic.
    pub fn compute_share(&self, task: &MTask, cores: &[CoreId]) -> f64 {
        let useful = useful_cores(task, cores);
        if useful.is_empty() {
            return 0.0;
        }
        let mut compute = self.spec.compute_time(task.work) / useful.len() as f64;
        if !self.classes.is_uniform() {
            // Data-parallel work splits evenly, so the task finishes with
            // its slowest core.
            compute /= self.classes.min_speed(useful);
        }
        compute
    }

    /// Concurrent allgathers of several groups (the Multi-Allgather pattern
    /// of the Intel MPI benchmark, and the orthogonal exchange of the ODE
    /// solvers): every group runs its allgather at the same time, sharing
    /// node NICs.  Returns the slowest group's time.
    pub fn multi_allgather<G: AsRef<[CoreId]>>(&self, groups: &[G], total_bytes: f64) -> f64 {
        let ctx = CommContext::from_groups(self.spec, groups);
        groups
            .iter()
            .map(|g| self.allgather(&ctx, g.as_ref(), total_bytes))
            .fold(0.0, f64::max)
    }
}

/// The cores a task can use: the first `max_cores` of its group.
fn useful_cores<'c>(task: &MTask, cores: &'c [CoreId]) -> &'c [CoreId] {
    match task.max_cores {
        Some(cap) => &cores[..cores.len().min(cap)],
        None => cores,
    }
}

/// Crossing flows leaving and entering one node in the current step, valid
/// only while `call` is the current call's stamp.
#[derive(Clone, Copy, Default)]
struct NodeFlows {
    call: u32,
    out: f64,
    inc: f64,
}

/// Per-node crossing-flow counts of [`CostModel::step_time`].  An entry
/// counts only if it carries the current call's stamp, so no call has to
/// clear what an earlier one (or one that panicked half-way) left behind.
struct Flows {
    nodes: Vec<NodeFlows>,
    call: u32,
}

impl Flows {
    /// Start a step on a machine of `nodes` nodes: every entry reads as
    /// untouched.
    fn begin(&mut self, nodes: usize) {
        if self.nodes.len() < nodes {
            self.nodes.resize(nodes, NodeFlows::default());
        }
        self.call = self.call.wrapping_add(1);
        if self.call == 0 {
            self.nodes.fill(NodeFlows::default());
            self.call = 1;
        }
    }

    /// Node `n`'s counts, zeroed on their first use in this call.
    #[inline]
    fn at(&mut self, n: usize) -> &mut NodeFlows {
        let call = self.call;
        let e = &mut self.nodes[n];
        if e.call != call {
            *e = NodeFlows {
                call,
                out: 0.0,
                inc: 0.0,
            };
        }
        e
    }
}

thread_local! {
    /// Thread-local because the model itself is shared by the scheduler's
    /// sweep threads.
    static FLOWS: RefCell<Flows> = const {
        RefCell::new(Flows {
            nodes: Vec::new(),
            call: 0,
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;

    fn cores(ids: &[usize]) -> Vec<CoreId> {
        ids.iter().map(|&i| CoreId(i)).collect()
    }

    #[test]
    fn p2p_levels_are_ordered() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let bytes = 1e6;
        let same_proc = m.p2p(&ctx, CoreId(0), CoreId(1), bytes);
        let same_node = m.p2p(&ctx, CoreId(0), CoreId(2), bytes);
        let cross = m.p2p(&ctx, CoreId(0), CoreId(4), bytes);
        assert!(same_proc < same_node && same_node < cross);
        assert_eq!(m.p2p(&ctx, CoreId(3), CoreId(3), bytes), 0.0);
    }

    #[test]
    fn contention_slows_cross_node_only() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        let quiet = m.p2p(&ctx, CoreId(0), CoreId(4), 1e6);
        ctx.sharers[0] = 4.0;
        let busy = m.p2p(&ctx, CoreId(0), CoreId(4), 1e6);
        assert!(busy > quiet);
        let local_quiet = m.p2p(&ctx, CoreId(0), CoreId(1), 1e6);
        let ctx2 = CommContext::uniform(&spec);
        assert_eq!(local_quiet, m.p2p(&ctx2, CoreId(0), CoreId(1), 1e6));
    }

    #[test]
    fn collectives_are_zero_for_singletons() {
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let g = cores(&[3]);
        assert_eq!(m.bcast(&ctx, &g, 1e6), 0.0);
        assert_eq!(m.allgather(&ctx, &g, 1e6), 0.0);
        assert_eq!(m.allreduce(&ctx, &g, 1e6), 0.0);
    }

    #[test]
    fn ring_allgather_prefers_consecutive_mapping() {
        // 16 cores on 4 CHiC nodes: consecutive = ranks fill nodes;
        // scattered = round-robin over nodes.
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let consecutive: Vec<CoreId> = (0..16).map(CoreId).collect();
        let scattered: Vec<CoreId> = (0..16).map(|i| CoreId((i % 4) * 4 + i / 4)).collect();
        let big = 4.0 * 1024.0 * 1024.0;
        let t_cons = m.allgather(&ctx, &consecutive, big);
        let t_scat = m.allgather(&ctx, &scattered, big);
        assert!(
            t_cons < t_scat,
            "consecutive {t_cons} should beat scattered {t_scat}"
        );
    }

    #[test]
    fn small_allgather_uses_log_depth() {
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let group: Vec<CoreId> = (0..16).map(CoreId).collect();
        // With tiny messages, time should be close to rounds × latency, far
        // below the ring's 15 × latency.
        let t = m.allgather(&ctx, &group, 64.0);
        let ring_floor = 15.0 * spec.inter_node.latency_s;
        assert!(t < ring_floor);
    }

    #[test]
    fn bcast_grows_with_group_span() {
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let node_local = cores(&[0, 1, 2, 3]);
        let spread: Vec<CoreId> = (0..4).map(|i| CoreId(i * 4)).collect();
        let b = 1e5;
        assert!(m.bcast(&ctx, &node_local, b) < m.bcast(&ctx, &spread, b));
    }

    #[test]
    fn multi_allgather_concurrent_groups_consecutive_vs_scattered() {
        // Fig 14 (right) shape: 4 groups × 16 cores on 16 CHiC nodes.
        let spec = platforms::chic().with_nodes(16);
        let m = CostModel::new(&spec);
        let big = 1024.0 * 1024.0;
        // Consecutive: group g = cores of nodes 4g..4g+4.
        let consecutive: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..16).map(|i| CoreId(g * 16 + i)).collect())
            .collect();
        // Scattered: group g = core position g of every node slot.
        let scattered: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..16).map(|n| CoreId(n * 4 + g)).collect())
            .collect();
        let t_cons = m.multi_allgather(&consecutive, big);
        let t_scat = m.multi_allgather(&scattered, big);
        assert!(
            t_cons < t_scat,
            "group-based comm must favour consecutive ({t_cons} vs {t_scat})"
        );
    }

    #[test]
    fn multi_allgather_orthogonal_sets_favour_scattered_app_mapping() {
        // 64 orthogonal sets of 4 cores each on 64 CHiC nodes (256 cores).
        // Under a scattered *application* mapping, each orthogonal set is
        // node-local; under a consecutive application mapping each set
        // spans 4 nodes.
        let spec = platforms::chic().with_nodes(64);
        let m = CostModel::new(&spec);
        let big = 256.0 * 1024.0;
        // Orthogonal sets when the app used scattered mapping of 4 groups:
        // set j = the 4 cores of node j.
        let sets_scat_app: Vec<Vec<CoreId>> = (0..64)
            .map(|n| (0..4).map(|c| CoreId(n * 4 + c)).collect())
            .collect();
        // Orthogonal sets when the app used consecutive mapping of 4 groups
        // of 64 cores: set j = {j, j+64, j+128, j+192}.
        let sets_cons_app: Vec<Vec<CoreId>> = (0..64)
            .map(|j| (0..4).map(|g| CoreId(g * 64 + j)).collect())
            .collect();
        let t_scat_app = m.multi_allgather(&sets_scat_app, big);
        let t_cons_app = m.multi_allgather(&sets_cons_app, big);
        assert!(
            t_scat_app < t_cons_app,
            "orthogonal comm must favour scattered app mapping ({t_scat_app} vs {t_cons_app})"
        );
    }

    #[test]
    fn worst_link_time_dedup_is_bit_equal_to_all_pairs() {
        let spec = platforms::chic().with_nodes(8); // 32 cores, 2 procs/node
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let consecutive: Vec<CoreId> = (0..24).map(CoreId).collect();
        let scattered: Vec<CoreId> = (0..24).map(|i| CoreId((i % 8) * 4 + i / 8)).collect();
        let node_local = cores(&[0, 1, 2, 3]);
        let proc_local = cores(&[0, 1]);
        let with_dupes = cores(&[5, 5, 5, 9, 9, 0]);
        let singleton = cores(&[7]);
        let empty: Vec<CoreId> = vec![];
        for group in [
            &consecutive,
            &scattered,
            &node_local,
            &proc_local,
            &with_dupes,
            &singleton,
            &empty,
        ] {
            for bytes in [8.0, 4096.0, 1e6] {
                let fast = m.worst_link_time(&ctx, group, bytes);
                let slow = m.worst_link_time_all_pairs(&ctx, group, bytes);
                assert!(
                    fast.to_bits() == slow.to_bits(),
                    "dedup {fast} != all-pairs {slow} for {group:?} @ {bytes}B"
                );
            }
        }
    }

    #[test]
    fn worst_link_time_dedup_matches_under_contention() {
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        // Asymmetric NIC sharing: the cross-node max must still pick the
        // same value as the all-pairs scan.
        ctx.sharers[1] = 3.0;
        ctx.sharers[2] = 7.0;
        let group: Vec<CoreId> = (0..16).map(CoreId).collect();
        let fast = m.worst_link_time(&ctx, &group, 1e5);
        let slow = m.worst_link_time_all_pairs(&ctx, &group, 1e5);
        assert_eq!(fast.to_bits(), slow.to_bits());
    }

    #[test]
    fn worst_link_time_argmax_fold_matches_dense_rep_loop() {
        // The fold replaced the O(reps²) representative loop; sweep sharing
        // patterns (max share at the front, middle, back, tied, uniform)
        // and assert bit-equality against the retained dense oracle.
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let group: Vec<CoreId> = (0..32).map(CoreId).collect();
        let patterns: Vec<Vec<(usize, f64)>> = vec![
            vec![],
            vec![(0, 9.0)],
            vec![(3, 9.0)],
            vec![(7, 9.0)],
            vec![(1, 4.0), (6, 4.0)],
            vec![(0, 2.0), (2, 8.0), (5, 3.0)],
        ];
        for pat in patterns {
            let mut ctx = CommContext::uniform(&spec);
            for &(n, s) in &pat {
                ctx.sharers[n] = s;
            }
            for bytes in [8.0, 4096.0, 1e6] {
                let fast = m.worst_link_time(&ctx, &group, bytes);
                let dense = m.worst_link_time_rep_pairs(&ctx, &group, bytes);
                let all = m.worst_link_time_all_pairs(&ctx, &group, bytes);
                assert_eq!(
                    fast.to_bits(),
                    dense.to_bits(),
                    "pattern {pat:?} @ {bytes}B"
                );
                assert_eq!(fast.to_bits(), all.to_bits(), "pattern {pat:?} @ {bytes}B");
            }
        }
    }

    #[test]
    fn allreduce_non_power_of_two_is_bit_equal_to_all_pairs_fallback() {
        // The non-power-of-two allreduce charges `worst_link_time` for any
        // round whose recursive-doubling pairing comes up empty.  Rebuild
        // the round loop with the all-pairs oracle in that slot and assert
        // the production path (hashed node dedup + argmax fold) stays
        // bit-equal on non-power-of-two groups, consecutive and scattered,
        // under asymmetric NIC sharing.
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        ctx.sharers[2] = 5.0;
        ctx.sharers[6] = 3.0;
        let oracle = |group: &[CoreId], bytes: f64| -> f64 {
            let q = group.len();
            if q <= 1 {
                return 0.0;
            }
            let rounds = (q as f64).log2().ceil() as usize;
            let mut time = 0.0;
            let mut dist = 1usize;
            for _ in 0..rounds {
                let mut pairs = Vec::new();
                for i in 0..q {
                    let j = i ^ dist;
                    if j < q && j > i {
                        pairs.push((group[i], group[j]));
                        pairs.push((group[j], group[i]));
                    }
                }
                time += if pairs.is_empty() {
                    m.worst_link_time_all_pairs(&ctx, group, bytes)
                } else {
                    m.step_time(&ctx, &pairs, bytes)
                };
                dist *= 2;
            }
            time
        };
        for q in [3usize, 5, 6, 7, 12, 17, 24] {
            let consecutive: Vec<CoreId> = (0..q).map(CoreId).collect();
            let scattered: Vec<CoreId> = (0..q).map(|i| CoreId((i % 8) * 4 + i / 8)).collect();
            for group in [&consecutive, &scattered] {
                for bytes in [8.0, 4096.0, 1e6] {
                    let fast = m.allreduce(&ctx, group, bytes);
                    let slow = oracle(group, bytes);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "allreduce dedup {fast} != oracle {slow} for q={q} @ {bytes}B"
                    );
                    // The fallback's ingredient stays bit-equal on its own.
                    let w = m.worst_link_time(&ctx, group, bytes);
                    assert_eq!(
                        w.to_bits(),
                        m.worst_link_time_all_pairs(&ctx, group, bytes).to_bits()
                    );
                    assert_eq!(
                        w.to_bits(),
                        m.worst_link_time_rep_pairs(&ctx, group, bytes).to_bits()
                    );
                }
            }
        }
    }

    /// Random step pairs over the cores of `spec` (self pairs included).
    fn random_pairs(spec: &ClusterSpec, raw: &[(usize, usize)]) -> Vec<(CoreId, CoreId)> {
        let total = spec.total_cores();
        raw.iter()
            .map(|&(a, b)| (CoreId(a % total), CoreId(b % total)))
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn step_time_scratch_matches_dense_oracle(
            nodes in 1usize..48,
            raw in proptest::collection::vec((0usize..100_000, 0usize..100_000), 0..96),
            hot in proptest::collection::vec((0usize..48, 1u32..9), 0..6),
            size in 0usize..3,
        ) {
            let spec = platforms::juropa().with_nodes(nodes);
            let m = CostModel::new(&spec);
            let mut ctx = CommContext::uniform(&spec);
            for &(n, s) in &hot {
                ctx.sharers[n % nodes] = f64::from(s);
            }
            let pairs = random_pairs(&spec, &raw);
            let bytes = [8.0, 4096.0, 1e6][size];
            proptest::prop_assert_eq!(
                m.step_time(&ctx, &pairs, bytes).to_bits(),
                m.step_time_dense(&ctx, &pairs, bytes).to_bits()
            );
        }
    }

    #[test]
    fn step_time_scratch_survives_alternating_machine_sizes() {
        // One thread, the bigger machine first: the scratch is sized by the
        // 64-node machine and then reused by the 4-node one and back, so a
        // stale count or an undersized scratch would change a price.
        std::thread::spawn(|| {
            let big = platforms::juropa().with_nodes(64);
            let small = platforms::chic().with_nodes(4);
            let (mb, ms) = (CostModel::new(&big), CostModel::new(&small));
            let (cb, cs) = (CommContext::uniform(&big), CommContext::uniform(&small));
            for round in 0..50usize {
                let raw: Vec<(usize, usize)> = (0..40)
                    .map(|i| (i * 7 + round * 13, i * 31 + round * 5 + 1))
                    .collect();
                for (m, ctx) in [(&mb, &cb), (&ms, &cs)] {
                    let pairs = random_pairs(m.spec, &raw);
                    for bytes in [8.0, 1e6] {
                        assert_eq!(
                            m.step_time(ctx, &pairs, bytes).to_bits(),
                            m.step_time_dense(ctx, &pairs, bytes).to_bits(),
                            "round {round}, {} nodes @ {bytes}B",
                            m.spec.nodes
                        );
                    }
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn speed_classes_partition_the_machine() {
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let m = CostModel::new(&spec);
        assert!(!m.is_uniform());
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.classes().speed(0), 1.0);
        assert_eq!(m.classes().speed(1), 0.5);
        // Nodes 0..6 fast (cores 0..24), nodes 6..8 slow (cores 24..32).
        assert_eq!(m.classes().class_of(CoreId(0)), 0);
        assert_eq!(m.classes().class_of(CoreId(23)), 0);
        assert_eq!(m.classes().class_of(CoreId(24)), 1);
        assert_eq!(m.classes().slowest_in_range(0, 24), 0);
        assert_eq!(m.classes().slowest_in_range(0, 25), 1);
        assert_eq!(m.classes().slowest_in_range(24, 32), 1);
        assert_eq!(m.classes().min_speed(&[CoreId(0), CoreId(1)]), 1.0);
        assert_eq!(m.classes().min_speed(&[CoreId(0), CoreId(31)]), 0.5);
    }

    #[test]
    fn task_time_pays_for_the_slowest_core() {
        let spec = platforms::chic().with_nodes(2).with_slow_nodes(1, 0.5);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = pt_mtask::MTask::compute("t", 5.2e9); // 1 s nominal
                                                         // Two fast cores: 0.5 s.  One fast + one slow: the slow core halves
                                                         // throughput, so the even split finishes in 1.0 s.
        let fast = m.task_time(&ctx, &task, &[CoreId(0), CoreId(1)]);
        let mixed = m.task_time(&ctx, &task, &[CoreId(0), CoreId(4)]);
        assert!((fast - 0.5).abs() < 1e-9);
        assert!((mixed - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allgather_time_increases_with_bytes() {
        let spec = platforms::juropa().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let g: Vec<CoreId> = (0..32).map(CoreId).collect();
        let mut prev = 0.0;
        for kb in [1.0, 16.0, 64.0, 512.0, 4096.0] {
            let t = m.allgather(&ctx, &g, kb * 1024.0);
            assert!(t > prev, "allgather time must grow with message size");
            prev = t;
        }
    }
}
