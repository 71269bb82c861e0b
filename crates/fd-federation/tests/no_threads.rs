//! A manual monitor owns no thread, so neither does a federation of
//! them (eight threads a four-node federation used to park). The one
//! test of this binary: a sibling test's threads would show in the count.

use fd_cluster::{ClusterConfig, ClusterMonitor};
use fd_federation::{Federation, FederationConfig};

/// Threads in this process (Linux); `None` where /proc is unavailable,
/// which skips the test.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

#[test]
fn manual_monitors_and_a_federation_spawn_no_thread() {
    let Some(before) = thread_count() else { return };
    let monitors = [(); 8].map(|()| ClusterMonitor::manual(ClusterConfig::default()));
    let federation = Federation::spawn(FederationConfig::default()).expect("spawn");
    assert_eq!(federation.alive().len(), 4);
    assert_eq!(thread_count(), Some(before), "8 manual monitors and 4 federation nodes");
    // The count does see a thread when there is one.
    let spawned = ClusterMonitor::spawn(ClusterConfig::default()).expect("spawn");
    assert_eq!(thread_count(), Some(before + 2), "a spawned monitor's ticker and control thread");
    spawned.shutdown();
    monitors.iter().for_each(ClusterMonitor::shutdown);
}
