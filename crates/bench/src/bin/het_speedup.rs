//! Heterogeneity figure — what speed-awareness buys on a degraded machine.
//!
//! For each workload and core count, a two-class JUROPA variant clocks the
//! trailing 25 % of the nodes down to a sweep of slow factors (1.0 = the
//! homogeneous machine).  Three schedulers run on every point:
//!
//! * `het`   — the layer scheduler's heterogeneity-aware path (auto-on),
//! * `blind` — the same scheduler forced homogeneous
//!   (`with_het_aware(false)`), simulated on the degraded machine,
//! * `AMTHA` — the node-granular heterogeneous list-mapping baseline.
//!
//! Printed per workload: simulated milliseconds per time step for each
//! scheduler, plus the `blind / het` speedup row — the figure's headline.
//! At factor 1.0 the het path is inactive, so `het` and `blind` coincide
//! by construction (speedup exactly 1).
//!
//! ```text
//! cargo run -p pt-bench --release --bin het_speedup [-- --quick]
//! ```
//!
//! `--quick` drops to one core count and two slow factors for CI smoke
//! runs.

use pt_bench::het::{juropa_het, run};
use pt_bench::table;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let factors: &[f64] = if quick {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0]
    };
    let core_counts: &[usize] = if quick { &[256] } else { &[256, 1024] };

    let epol = pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), 2);
    let bt = pt_nas::bt_mz(pt_nas::Class::C).step_graph(2);

    let columns: Vec<String> = factors.iter().map(|f| format!("slow={f}")).collect();
    for (name, graph) in [("epol_r8", &epol), ("bt_mz_c", &bt)] {
        for &p in core_counts {
            let runs: Vec<_> = factors
                .iter()
                .map(|&f| run(graph, &juropa_het(p, f), 2))
                .collect();
            let row = |label: &str, f: fn(&(f64, f64, f64)) -> f64| {
                (label.to_string(), runs.iter().map(f).collect())
            };
            let rows = vec![
                row("het [ms/step]", |r| r.0 * 1e3),
                row("blind [ms/step]", |r| r.1 * 1e3),
                row("AMTHA [ms/step]", |r| r.2 * 1e3),
                row("blind / het", |r| r.1 / r.0),
            ];
            table::print(
                &format!(
                    "het_speedup: {name} on {p} JUROPA cores, trailing 25% of \
                     nodes at the column's speed factor"
                ),
                &columns,
                &rows,
            );
        }
    }
}
