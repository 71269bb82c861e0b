//! Membership-event delivery, capture and structural validation.
//!
//! The cluster monitor publishes [`MembershipEvent`]s to each
//! [`Subscription`]
//! ([`ClusterMonitor::subscribe`](crate::ClusterMonitor::subscribe));
//! subscribers see them in emission order per peer. An [`EventLog`]
//! drains such a channel into an inspectable buffer and answers the
//! structural questions the statistical model-checking oracles (crate
//! `fd-smc`) ask of a run:
//!
//! * **No ghost events**: once a peer is `Removed`, no further event for
//!   it may appear — a stale timer or a late heartbeat resurrecting a
//!   deregistered peer is a lifecycle bug, whatever its timing.
//! * **Degrade/promote discipline**: per peer, `Degraded` and `Promoted`
//!   must strictly alternate starting with `Degraded` — a promotion
//!   without a preceding degradation (or a double degradation) means the
//!   control plane lost track of the peer's mode.
//!
//! Both checks are deliberately *order-insensitive across peers* and
//! make no assumption about event timing, so they hold regardless of
//! whether the monitor is driven deterministically
//! ([`record_at`](crate::ClusterMonitor::record_at) +
//! [`run_control_round`](crate::ClusterMonitor::run_control_round)) or
//! by the wall-clock background ticker.

use crate::monitor::{MembershipChange, MembershipEvent};
use crate::PeerId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// The receiving end of a monitor's event channel: a `std::sync::mpsc`
/// channel that holds at most the monitor's `event_capacity` untaken
/// events. The bound is counted beside an unbounded channel rather than
/// kept by `sync_channel`, which allocates and touches every slot up
/// front — 2 MiB for a 65 536-event subscription whose queue is almost
/// always empty; the unbounded channel allocates as events queue and
/// frees as they are taken.
#[derive(Debug)]
pub struct Subscription {
    rx: Receiver<MembershipEvent>,
    /// Events sent and not yet taken.
    queued: Arc<AtomicUsize>,
}

impl Subscription {
    /// Takes the next event if one is queued.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if none is, [`TryRecvError::Disconnected`]
    /// if none is and the monitor is gone.
    pub fn try_recv(&self) -> Result<MembershipEvent, TryRecvError> {
        self.taken(self.rx.try_recv())
    }

    /// Waits up to `timeout` for the next event.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if none came,
    /// [`RecvTimeoutError::Disconnected`] if none is queued and the
    /// monitor is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<MembershipEvent, RecvTimeoutError> {
        self.taken(self.rx.recv_timeout(timeout))
    }

    fn taken<E>(&self, got: Result<MembershipEvent, E>) -> Result<MembershipEvent, E> {
        if got.is_ok() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        got
    }
}

/// The monitor's end of a [`Subscription`].
#[derive(Debug)]
pub(crate) struct Publisher {
    tx: Sender<MembershipEvent>,
    queued: Arc<AtomicUsize>,
    capacity: usize,
}

impl Publisher {
    /// Queues `event` unless the subscription was dropped
    /// (`Disconnected`) or `capacity` events are untaken already (`Full`).
    pub fn try_send(&self, event: MembershipEvent) -> Result<(), TrySendError<MembershipEvent>> {
        if self.queued.load(Ordering::Relaxed) < self.capacity {
            self.queued.fetch_add(1, Ordering::Relaxed);
            return self.tx.send(event).map_err(|e| TrySendError::Disconnected(e.0));
        }
        // The subscription holds the only other reference to the count.
        if Arc::strong_count(&self.queued) == 1 {
            Err(TrySendError::Disconnected(event))
        } else {
            Err(TrySendError::Full(event))
        }
    }
}

/// A channel that holds at most `capacity` untaken events.
pub(crate) fn subscription(capacity: usize) -> (Publisher, Subscription) {
    let (tx, rx) = mpsc::channel();
    let queued = Arc::new(AtomicUsize::new(0));
    (Publisher { tx, queued: Arc::clone(&queued), capacity }, Subscription { rx, queued })
}

/// A drained, inspectable buffer of membership events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<MembershipEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log from already-collected events.
    #[cfg(test)]
    fn from_events(events: Vec<MembershipEvent>) -> Self {
        Self { events }
    }

    /// Appends one event.
    pub fn push(&mut self, event: MembershipEvent) {
        self.events.push(event);
    }

    /// Drains every event currently buffered in `rx` (non-blocking) and
    /// appends them; returns how many were taken.
    pub fn drain(&mut self, rx: &Subscription) -> usize {
        let mut n = 0;
        while let Ok(ev) = rx.try_recv() {
            self.events.push(ev);
            n += 1;
        }
        n
    }

    /// All captured events, in capture order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// The events concerning one peer, in capture order.
    pub fn for_peer(&self, peer: PeerId) -> Vec<&MembershipEvent> {
        self.events.iter().filter(|e| e.peer == peer).collect()
    }

    /// The first event for `peer` with the given change, if any — the
    /// natural query for takeover bounds ("when was the peer first
    /// re-trusted on the adopting node?").
    pub fn first(&self, peer: PeerId, change: MembershipChange) -> Option<&MembershipEvent> {
        self.events.iter().find(|e| e.peer == peer && e.change == change)
    }

    /// Events for `peer` observed *after* its first `Removed` event.
    /// A non-empty result is the "ghost event" lifecycle violation.
    pub fn ghost_events_after_remove(&self, peer: PeerId) -> Vec<&MembershipEvent> {
        let mut removed = false;
        let mut ghosts = Vec::new();
        for e in self.events.iter().filter(|e| e.peer == peer) {
            if removed {
                ghosts.push(e);
            } else if e.change == MembershipChange::Removed {
                removed = true;
            }
        }
        ghosts
    }

    /// Checks the degrade/promote discipline for `peer`: projected onto
    /// `{Degraded, Promoted}`, the event stream must alternate starting
    /// with `Degraded`. Returns `Err` with the offending event on the
    /// first violation.
    pub fn validate_degrade_promote(&self, peer: PeerId) -> Result<(), &MembershipEvent> {
        let mut degraded = false;
        for e in self.events.iter().filter(|e| e.peer == peer) {
            match e.change {
                MembershipChange::Degraded => {
                    if degraded {
                        return Err(e);
                    }
                    degraded = true;
                }
                MembershipChange::Promoted => {
                    if !degraded {
                        return Err(e);
                    }
                    degraded = false;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Every peer that appears in the log, deduplicated, in first-seen
    /// order.
    pub fn peers(&self) -> Vec<PeerId> {
        let mut seen = Vec::new();
        for e in &self.events {
            if !seen.contains(&e.peer) {
                seen.push(e.peer);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(peer: PeerId, at: f64, change: MembershipChange) -> MembershipEvent {
        MembershipEvent { peer, at, change }
    }

    #[test]
    fn drain_collects_everything_buffered() {
        let (tx, rx) = subscription(3);
        tx.try_send(ev(1, 0.0, MembershipChange::Added)).unwrap();
        tx.try_send(ev(2, 1.0, MembershipChange::Added)).unwrap();
        tx.try_send(ev(1, 2.0, MembershipChange::Trusted)).unwrap();
        let mut log = EventLog::new();
        assert_eq!(log.drain(&rx), 3);
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.for_peer(1).len(), 2);
        assert_eq!(log.peers(), vec![1, 2]);
        // Draining again picks up nothing new.
        assert_eq!(log.drain(&rx), 0);
    }

    #[test]
    fn a_subscription_holds_at_most_its_capacity() {
        let (tx, rx) = subscription(2);
        let e = ev(1, 0.0, MembershipChange::Added);
        assert!(tx.try_send(e).is_ok() && tx.try_send(e).is_ok());
        assert!(matches!(tx.try_send(e), Err(TrySendError::Full(_))));
        assert_eq!(rx.try_recv(), Ok(e));
        assert!(tx.try_send(e).is_ok(), "taking one event makes room for one");
        assert!(matches!(tx.try_send(e), Err(TrySendError::Full(_))));
        // Full and abandoned is disconnected, not full.
        drop(rx);
        assert!(matches!(tx.try_send(e), Err(TrySendError::Disconnected(_))));
        let (tx, rx) = subscription(2);
        drop(rx);
        assert!(matches!(tx.try_send(e), Err(TrySendError::Disconnected(_))));
    }

    #[test]
    fn ghost_events_flagged_only_after_remove() {
        let log = EventLog::from_events(vec![
            ev(7, 0.0, MembershipChange::Added),
            ev(7, 1.0, MembershipChange::Trusted),
            ev(7, 2.0, MembershipChange::Removed),
            ev(8, 2.5, MembershipChange::Added), // other peer: fine
            ev(7, 3.0, MembershipChange::Suspected), // ghost!
        ]);
        let ghosts = log.ghost_events_after_remove(7);
        assert_eq!(ghosts.len(), 1);
        assert_eq!(ghosts[0].change, MembershipChange::Suspected);
        assert!(log.ghost_events_after_remove(8).is_empty());
    }

    #[test]
    fn clean_lifecycle_has_no_ghosts() {
        let log = EventLog::from_events(vec![
            ev(1, 0.0, MembershipChange::Added),
            ev(1, 1.0, MembershipChange::Trusted),
            ev(1, 2.0, MembershipChange::Removed),
        ]);
        assert!(log.ghost_events_after_remove(1).is_empty());
    }

    #[test]
    fn degrade_promote_alternation_enforced() {
        let ok = EventLog::from_events(vec![
            ev(1, 0.0, MembershipChange::Added),
            ev(1, 1.0, MembershipChange::Degraded),
            ev(1, 2.0, MembershipChange::Promoted),
            ev(1, 3.0, MembershipChange::Degraded),
        ]);
        assert!(ok.validate_degrade_promote(1).is_ok());

        // Promotion with no preceding degradation.
        let bad = EventLog::from_events(vec![
            ev(1, 0.0, MembershipChange::Added),
            ev(1, 1.0, MembershipChange::Promoted),
        ]);
        assert_eq!(
            bad.validate_degrade_promote(1).unwrap_err().change,
            MembershipChange::Promoted
        );

        // Double degradation.
        let bad2 = EventLog::from_events(vec![
            ev(1, 1.0, MembershipChange::Degraded),
            ev(1, 2.0, MembershipChange::Degraded),
        ]);
        assert!(bad2.validate_degrade_promote(1).is_err());

        // Per-peer isolation: peer 2's degradation doesn't license
        // peer 1's promotion.
        let bad3 = EventLog::from_events(vec![
            ev(2, 0.0, MembershipChange::Degraded),
            ev(1, 1.0, MembershipChange::Promoted),
        ]);
        assert!(bad3.validate_degrade_promote(1).is_err());
        assert!(bad3.validate_degrade_promote(2).is_ok());
    }
}
