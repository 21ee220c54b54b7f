//! The `ptsched serve` request grammar, rebuilt from the public crates.
//!
//! A [`ServeKey`] is one point of the request space (workload × platform ×
//! cores × mapping × steps × slow nodes).  It renders as the JSON line the
//! benchmark sends to a `ptsched serve` child, and it builds the
//! equivalent in-process [`ScheduleRequest`] for the cold reference
//! computation and the traced replay.  The graph and machine tables mirror
//! the ones `ptsched` documents for its one-shot flags and serve fields.

use pt_core::MappingStrategy;
use pt_machine::{platforms, ClusterSpec};
use pt_mtask::TaskGraph;
use pt_nas::{bt_mz, sp_mz, Class};
use pt_ode::{Bruss2d, Diirk, Epol, Irk, Pab, Pabm};
use pt_serve::ScheduleRequest;
use std::collections::HashMap;
use std::sync::Arc;

/// The slow-node speed factor every catalogue request with slow nodes
/// sends.
pub const SLOW_FACTOR: f64 = 0.5;

/// The graph `ptsched` builds for a workload name.
pub fn workload_graph(name: &str, steps: usize) -> TaskGraph {
    let sparse = Bruss2d::new(250);
    match name {
        "epol" => Epol::new(8).step_graph(&sparse, steps),
        "irk" => Irk::new(4, 3).step_graph(&sparse, steps),
        "diirk" => Diirk::new(4, 2).step_graph(&Bruss2d::new(80), steps, 2.0),
        "pab" => Pab::new(8).step_graph(&sparse, steps),
        "pabm" => Pabm::new(8, 2).step_graph(&sparse, steps),
        "sp-mz" => sp_mz(Class::B).step_graph(steps),
        "bt-mz" => bt_mz(Class::B).step_graph(steps),
        other => panic!("workload `{other}` is not in the catalogue"),
    }
}

pub fn platform(name: &str) -> ClusterSpec {
    match name {
        "chic" => platforms::chic(),
        "altix" => platforms::altix(),
        "juropa" => platforms::juropa(),
        other => panic!("platform `{other}` is not in the catalogue"),
    }
}

pub fn mapping(name: &str) -> MappingStrategy {
    match name {
        "consecutive" => MappingStrategy::Consecutive,
        "scattered" => MappingStrategy::Scattered,
        other => panic!("mapping `{other}` is not in the catalogue"),
    }
}

/// One request of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeKey {
    pub workload: &'static str,
    pub platform: &'static str,
    pub cores: usize,
    pub mapping: &'static str,
    pub steps: usize,
    pub slow_nodes: usize,
}

impl ServeKey {
    /// The request line sent to `ptsched serve`.
    pub fn line(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"platform\":\"{}\",\"cores\":{},\"mapping\":\"{}\",\
             \"steps\":{},\"slow_nodes\":{},\"slow_factor\":{}}}",
            self.workload,
            self.platform,
            self.cores,
            self.mapping,
            self.steps,
            self.slow_nodes,
            SLOW_FACTOR
        )
    }
}

/// Every request of the catalogue, in a fixed order: workload, machine,
/// steps, slow nodes, mapping (innermost).
///
/// Sizes stay small enough that a miss costs milliseconds: the serve path
/// is about caching and per-request overheads, the large scheduling cases
/// are the `pipeline_scale` workload's job.
pub fn catalogue() -> Vec<ServeKey> {
    const WORKLOADS: [&str; 7] = ["epol", "irk", "diirk", "pab", "pabm", "sp-mz", "bt-mz"];
    // (platform, cores, slow nodes when degraded)
    const MACHINES: [(&str, usize, usize); 4] = [
        ("chic", 64, 4),
        ("chic", 256, 16),
        ("altix", 128, 8),
        ("juropa", 512, 16),
    ];
    const MAPPINGS: [&str; 2] = ["consecutive", "scattered"];
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for (platform, cores, slow) in MACHINES {
            for steps in [1, 2] {
                for slow_nodes in [0, slow] {
                    for mapping in MAPPINGS {
                        out.push(ServeKey {
                            workload,
                            platform,
                            cores,
                            mapping,
                            steps,
                            slow_nodes,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Builds in-process requests for catalogue keys, sharing one graph per
/// (workload, steps) and one machine per (platform, cores, slow nodes) the
/// way `ptsched serve` does.
#[derive(Default)]
pub struct RequestBuilder {
    graphs: HashMap<(&'static str, usize), Arc<TaskGraph>>,
    machines: HashMap<(&'static str, usize, usize), Arc<ClusterSpec>>,
}

impl RequestBuilder {
    pub fn request(&mut self, key: &ServeKey) -> ScheduleRequest {
        let graph = self
            .graphs
            .entry((key.workload, key.steps))
            .or_insert_with(|| Arc::new(workload_graph(key.workload, key.steps)))
            .clone();
        let machine = self
            .machines
            .entry((key.platform, key.cores, key.slow_nodes))
            .or_insert_with(|| {
                let spec = platform(key.platform).with_cores(key.cores);
                Arc::new(if key.slow_nodes > 0 {
                    spec.with_slow_nodes(key.slow_nodes, SLOW_FACTOR)
                } else {
                    spec
                })
            })
            .clone();
        ScheduleRequest::new(graph, machine, mapping(key.mapping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_keys_are_distinct_and_valid() {
        let cat = catalogue();
        let distinct: std::collections::HashSet<_> = cat.iter().collect();
        assert_eq!(distinct.len(), cat.len());
        let mut b = RequestBuilder::default();
        let sigs: std::collections::HashSet<_> = cat
            .iter()
            .map(|k| {
                let r = b.request(k);
                assert!(r.validate().is_ok(), "{k:?}");
                r.signature()
            })
            .collect();
        assert_eq!(sigs.len(), cat.len(), "every key has its own signature");
    }

    #[test]
    fn request_lines_are_json() {
        for k in catalogue().iter().take(5) {
            let v: serde::Value = serde_json::from_str(&k.line()).expect("valid JSON");
            assert!(matches!(v, serde::Value::Map(_)));
        }
    }
}
