//! Heterogeneity-aware scheduling benchmark gate.
//!
//! Runs the evaluation workloads on a *two-class* JUROPA variant — 25 % of
//! the nodes (the trailing quarter) clocked at 0.5× nominal speed — and
//! compares three schedulers on the same machine:
//!
//! * `het` — the layer scheduler with its heterogeneity-aware path
//!   (speed-equal group partition, slowest-class symbolic costs, adjusted
//!   LPT), which switches on automatically for a non-uniform machine.
//! * `blind` — the same scheduler forced onto the homogeneous path
//!   (`with_het_aware(false)`): the schedule a speed-oblivious Algorithm 1
//!   would produce, simulated on the real (het) machine.
//! * `AMTHA` — the node-granular heterogeneous list-mapping baseline.
//!
//! All three are simulated with the consecutive mapping and the simulated
//! makespan is deterministic, so the gate needs no retry loop: at every
//! (workload, P) point the het-aware schedule must be *strictly* faster
//! than the blind one.  AMTHA is reported alongside, not gated — it trades
//! malleability for node granularity and is not expected to win.
//!
//! Results land in `BENCH_het.json` at the repository root.  `--quick`
//! skips nothing (the grid is small): its JSON differs from a full run's
//! only in `"quick": true` and goes to `target/bench-quick/` (see
//! [`pt_bench::gate`]), so a CI smoke run leaves the baseline alone.

use pt_bench::het::{juropa_het, run, slow_nodes};
use serde::Serialize;

const CORE_COUNTS: [usize; 2] = [256, 1024];
const SLOW_FACTOR: f64 = 0.5;

#[derive(Serialize)]
struct Entry {
    graph: &'static str,
    tasks: usize,
    cores: usize,
    slow_nodes: usize,
    slow_factor: f64,
    /// Simulated seconds per time step, heterogeneity-aware scheduler.
    het_s: f64,
    /// Same machine, scheduler forced onto the homogeneous path.
    blind_s: f64,
    /// AMTHA node-granular baseline (reported, not gated).
    amtha_s: f64,
    /// `blind_s / het_s` — the gate requires > 1.
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    quick: bool,
    results: Vec<Entry>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let epol = pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), 2);
    let bt = pt_nas::bt_mz(pt_nas::Class::C).step_graph(2);

    let mut results = Vec::new();
    for (name, graph) in [("epol_r8", &epol), ("bt_mz_c", &bt)] {
        for p in CORE_COUNTS {
            let spec = juropa_het(p, SLOW_FACTOR);
            let slow_nodes = slow_nodes(spec.nodes);
            let (het_s, blind_s, amtha_s) = run(graph, &spec, 2);
            let speedup = blind_s / het_s;
            println!(
                "{name} P={p} ({slow_nodes} slow nodes @ {SLOW_FACTOR}x): \
                 het {het_s:.4} s, blind {blind_s:.4} s ({speedup:.3}x), \
                 AMTHA {amtha_s:.4} s"
            );
            results.push(Entry {
                graph: name,
                tasks: graph.len(),
                cores: p,
                slow_nodes,
                slow_factor: SLOW_FACTOR,
                het_s,
                blind_s,
                amtha_s,
                speedup,
            });
        }
    }

    // Gate: heterogeneity-awareness must strictly pay off at every point.
    // The makespans are simulated (deterministic), so a tie or a loss is a
    // real scheduling regression, not noise.
    for e in &results {
        assert!(
            e.het_s < e.blind_s,
            "het-aware scheduling lost to the blind path: {} P={} het {:.6} s \
             vs blind {:.6} s",
            e.graph,
            e.cores,
            e.het_s,
            e.blind_s
        );
    }

    let report = Report {
        benchmark: "het-aware vs speed-blind layer scheduling (simulated makespan)",
        machine: "juropa, trailing 25% of nodes at 0.5x",
        quick,
        results,
    };
    pt_bench::gate::write_report("BENCH_het.json", quick, &report);
}
