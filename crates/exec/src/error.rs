//! The executor's failure contract.
//!
//! Recoverable runtime conditions surface as [`ExecError`] values from
//! [`Team::run`](crate::Team::run); panics are reserved for documented
//! programmer contract violations (mismatched buffer lengths, out-of-range
//! ranks).  [`CollectiveAborted`] is the *unwind sentinel* used internally
//! to abort the infallible collective wrappers when a peer fails — the
//! runtime catches it and translates it into a typed error, so task code
//! written against the infallible API participates in recovery without
//! changes.

use std::fmt;

/// Why a [`Team::run`](crate::Team::run) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A task body panicked while executing `layer` in group `group`.
    TaskPanicked {
        /// Layer index within the program.
        layer: usize,
        /// Group index within the layer.
        group: usize,
        /// Rendering of the panic payload.
        payload: String,
    },
    /// A collective was torn down because a peer failed, and the failure
    /// could not be attributed to a specific task panic.
    CollectiveAborted {
        /// Layer index within the program.
        layer: usize,
        /// Group index within the layer.
        group: usize,
    },
    /// The program failed validation against this team (overlapping
    /// groups, or more workers required than the team has alive).
    InvalidProgram(String),
    /// A worker was permanently lost in `layer` and the run could not (or
    /// was not allowed to) continue on the survivors.
    WorkerLost {
        /// Layer index within the program.
        layer: usize,
        /// Physical worker index that was lost.
        worker: usize,
    },
    /// The global watchdog fired: an attempt exceeded its hard wall-clock
    /// bound (see
    /// [`DeadlinePolicy::global_timeout`](crate::DeadlinePolicy::global_timeout)),
    /// and every rank still running was demoted to break the wedge.
    WatchdogTimeout {
        /// Layer the attempt was in when the watchdog fired.
        layer: usize,
        /// Physical indices of the workers that were still running.
        stalled: Vec<usize>,
    },
}

impl ExecError {
    /// Layer the run failed in; `None` for
    /// [`InvalidProgram`](Self::InvalidProgram), which fails before any
    /// layer runs.
    pub fn layer(&self) -> Option<usize> {
        match self {
            ExecError::TaskPanicked { layer, .. }
            | ExecError::CollectiveAborted { layer, .. }
            | ExecError::WorkerLost { layer, .. }
            | ExecError::WatchdogTimeout { layer, .. } => Some(*layer),
            ExecError::InvalidProgram(_) => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TaskPanicked {
                layer,
                group,
                payload,
            } => write!(
                f,
                "task panicked in layer {layer}, group {group}: {payload}"
            ),
            ExecError::CollectiveAborted { layer, group } => {
                write!(f, "collective aborted in layer {layer}, group {group}")
            }
            ExecError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            ExecError::WorkerLost { layer, worker } => {
                write!(f, "worker {worker} lost in layer {layer}")
            }
            ExecError::WatchdogTimeout { layer, stalled } => {
                write!(
                    f,
                    "global watchdog fired in layer {layer}: workers {stalled:?} stopped making progress"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Unwind sentinel carried by the infallible collective wrappers when the
/// group communicator is poisoned.  The worker loop downcasts panic
/// payloads to this type to tell abort victims apart from genuine task
/// panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveAborted;

impl fmt::Display for CollectiveAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "collective aborted: a peer of the group failed")
    }
}
