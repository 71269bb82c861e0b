//! Typed runtime errors and component health.
//!
//! A failure-detection service must itself survive the failures it
//! detects: thread-spawn and socket errors surface as [`RuntimeError`]
//! values instead of panics, and supervised components report a
//! queryable [`Health`] instead of poisoning their owner.

use std::fmt;
use std::io;

/// An error from the runtime's OS-facing plumbing (thread spawns,
/// sockets). Pure state-machine code in `fd-core` never produces these;
/// they come from the layer that talks to the operating system.
#[derive(Debug)]
pub enum RuntimeError {
    /// An OS thread could not be spawned.
    Spawn {
        /// Name of the thread that failed to start.
        thread: &'static str,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A socket operation failed.
    Net {
        /// The operation that failed (e.g. `"bind"`, `"connect"`).
        op: &'static str,
        /// The underlying OS error.
        source: io::Error,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Spawn { thread, source } => {
                write!(f, "failed to spawn thread `{thread}`: {source}")
            }
            RuntimeError::Net { op, source } => {
                write!(f, "socket {op} failed: {source}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Spawn { source, .. } | RuntimeError::Net { source, .. } => Some(source),
        }
    }
}

/// Health of a supervised thread (the ticker, the control thread, a
/// receive pump).
///
/// A panic inside a supervised loop *degrades* it (the supervisor
/// restarts the loop, with the panic message retained) rather than
/// killing the monitor; exhausting the restart budget *stops* it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Operating normally.
    Healthy,
    /// Recovered from at least one failure; the most recent reason.
    Degraded {
        /// Human-readable description of the most recent failure.
        reason: String,
    },
    /// Permanently stopped (restart budget exhausted, or shut down).
    Stopped,
}

impl Health {
    /// Whether the component is fully healthy.
    pub fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }

    /// Whether the component is still running (healthy or degraded).
    pub fn is_running(&self) -> bool {
        !matches!(self, Health::Stopped)
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Health::Healthy => write!(f, "healthy"),
            Health::Degraded { reason } => write!(f, "degraded: {reason}"),
            Health::Stopped => write!(f, "stopped"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source() {
        let e = RuntimeError::Spawn { thread: "fd-monitor", source: io::Error::other("boom") };
        assert!(e.to_string().contains("fd-monitor"));
        assert!(e.source().is_some());
        let e = RuntimeError::Net { op: "bind", source: io::Error::other("nope") };
        assert!(e.to_string().contains("bind"));
    }

    #[test]
    fn health_predicates() {
        assert!(Health::Healthy.is_healthy());
        assert!(Health::Healthy.is_running());
        let d = Health::Degraded {
            reason: "panic".into(),
        };
        assert!(!d.is_healthy());
        assert!(d.is_running());
        assert!(!Health::Stopped.is_running());
        assert!(d.to_string().contains("panic"));
    }
}
