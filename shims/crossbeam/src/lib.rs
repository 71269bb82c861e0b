//! Offline stand-in for the `crossbeam` crate, reduced to two names.
//!
//! No workspace crate uses it: the workspace's channels are
//! `std::sync::mpsc`, and `ClusterMonitor::subscribe` returns an
//! `fd_cluster::Subscription`. The names exist only because
//! `benchmarks/fdqos-bench/src/workloads/detect.rs` imports the
//! subscriber's receiver as `crossbeam::channel::Receiver<MembershipEvent>`;
//! once that import names `fd_cluster::Subscription`, the shim goes.

pub mod channel {
    pub use std::sync::mpsc::RecvTimeoutError;

    /// `Receiver<MembershipEvent>` is `fd_cluster::Subscription`.
    pub type Receiver<T> = <T as Received>::By;

    /// Maps an item type to the receiver that delivers it.
    pub trait Received {
        type By;
    }

    impl Received for fd_cluster::MembershipEvent {
        type By = fd_cluster::Subscription;
    }
}
