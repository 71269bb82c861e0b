//! Leader-level QoS: the Chen–Toueg–Aguilera metric vocabulary lifted
//! from detector outputs to leadership, after Reis & Vieira's QoS
//! analysis of asynchronous crash-recovery leader election.
//!
//! Where [`OnlineQos`] scores one detector's `Trust`/
//! `Suspect` signal against a single monitored process, [`LeaderQos`]
//! scores the *election layer built on top of it*: how long leaders
//! last, how quickly the system re-elects after a real crash, how often
//! leadership changes hands, and how often a demotion turns out to have
//! been a detector mistake rather than a crash.
//!
//! The tracker is fed a [`LeadershipState`] sample per observation (the
//! same push-driven idiom as `OnlineQos::observe`), the counts no state
//! sequence shows (`note_spurious_demotion`, `note_stale_candidacy`:
//! the elector's events), and the ground truth the elector cannot know
//! (`note_crash`). The *presence* of a leader is additionally run
//! through an embedded [`OnlineQos`] — `Trust` while any incumbent is
//! installed, `Suspect` while the cluster is leaderless — so the
//! paper's recurrence/duration/good-period machinery applies verbatim
//! to leaderless episodes.

use crate::online_qos::OnlineQos;
use crate::output::FdOutput;
use crate::online_qos::ObservedQos;
use fd_stats::OnlineStats;
use std::fmt;

/// What the election layer reports at one instant, as fed to
/// [`LeaderQos::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeadershipState {
    /// A leader is installed and currently trusted.
    Led {
        /// The installed leader.
        leader: u64,
    },
    /// An incumbent is being held (suspicion pending inside the
    /// hysteresis dwell, or no candidate meets the stability bar) but
    /// leadership is not confirmed healthy.
    Degraded {
        /// The incumbent being held.
        incumbent: u64,
    },
    /// No leader is installed.
    Vacant,
}

impl LeadershipState {
    /// The incumbent, if any (`Led` or `Degraded`).
    pub fn incumbent(self) -> Option<u64> {
        match self {
            LeadershipState::Led { leader } => Some(leader),
            LeadershipState::Degraded { incumbent } => Some(incumbent),
            LeadershipState::Vacant => None,
        }
    }
}

/// Online tracker for leader-level QoS.
///
/// Feed it the election layer's state at each observation point with
/// [`observe`](Self::observe), the elector's spurious demotions and
/// stale candidacies with
/// [`note_spurious_demotion`](Self::note_spurious_demotion) and
/// [`note_stale_candidacy`](Self::note_stale_candidacy), and ground
/// truth with [`note_crash`](Self::note_crash) (arms an election-latency
/// sample); read the aggregate with [`report`](Self::report).
#[derive(Debug, Clone)]
pub struct LeaderQos {
    origin: f64,
    at: f64,
    state: LeadershipState,
    /// Leader presence as a detector signal: Trust = some incumbent
    /// installed, Suspect = vacant.
    presence: OnlineQos,
    /// When the current incumbent took office.
    term_start: Option<f64>,
    /// When the most recent election completed.
    last_election_at: Option<f64>,
    /// Ground-truth leader-crash time awaiting the next election.
    pending_crash: Option<f64>,
    /// Time-in-state accumulators.
    led_time: f64,
    degraded_time: f64,
    vacant_time: f64,
    /// Completed leadership terms (seconds).
    duration: OnlineStats,
    /// Intervals between consecutive elections (seconds).
    recurrence: OnlineStats,
    /// Real-crash → next-election latencies (seconds).
    latency: OnlineStats,
    /// Worst observed crash→election latency (OnlineStats keeps no max).
    latency_max: f64,
    elections: u64,
    demotions: u64,
    spurious_demotions: u64,
    stale_candidacies: u64,
}

impl LeaderQos {
    /// A tracker starting at `start` with no leader installed.
    pub fn new(start: f64) -> Self {
        LeaderQos {
            origin: start,
            at: start,
            state: LeadershipState::Vacant,
            presence: OnlineQos::new(start, FdOutput::Suspect),
            term_start: None,
            last_election_at: None,
            pending_crash: None,
            led_time: 0.0,
            degraded_time: 0.0,
            vacant_time: 0.0,
            duration: OnlineStats::new(),
            recurrence: OnlineStats::new(),
            latency: OnlineStats::new(),
            latency_max: 0.0,
            elections: 0,
            demotions: 0,
            spurious_demotions: 0,
            stale_candidacies: 0,
        }
    }

    /// The current leadership state as last observed.
    pub fn state(&self) -> LeadershipState {
        self.state
    }

    /// Records the election layer's state at time `now` (must be
    /// monotone; earlier samples are clamped to the last seen time).
    ///
    /// Transitions are derived by diffing against the previous sample:
    /// a new incumbent counts an election (closing a recurrence
    /// interval, and an election-latency sample if a crash was armed);
    /// a lost incumbent counts a demotion and closes the term's
    /// duration sample.
    pub fn observe(&mut self, now: f64, state: LeadershipState) {
        let now = now.max(self.at);
        let dt = now - self.at;
        match self.state {
            LeadershipState::Led { .. } => self.led_time += dt,
            LeadershipState::Degraded { .. } => self.degraded_time += dt,
            LeadershipState::Vacant => self.vacant_time += dt,
        }
        let presence = if state.incumbent().is_some() { FdOutput::Trust } else { FdOutput::Suspect };
        self.presence.observe(now, presence);

        let prev = self.state.incumbent();
        let next = state.incumbent();
        if prev != next {
            if prev.is_some() {
                self.demotions += 1;
                if let Some(start) = self.term_start.take() {
                    self.duration.push(now - start);
                }
            }
            if next.is_some() {
                self.elections += 1;
                self.term_start = Some(now);
                if let Some(last) = self.last_election_at {
                    self.recurrence.push(now - last);
                }
                self.last_election_at = Some(now);
                if let Some(crashed_at) = self.pending_crash.take() {
                    let sample = (now - crashed_at).max(0.0);
                    self.latency.push(sample);
                    self.latency_max = self.latency_max.max(sample);
                }
            }
        }
        self.state = state;
        self.at = now;
    }

    /// Marks a ground-truth crash of the current leader at `now`: the
    /// next election closes an election-latency sample. A second crash
    /// before re-election keeps the earlier (worst-case) arm time.
    pub fn note_crash(&mut self, now: f64) {
        if self.pending_crash.is_none() {
            self.pending_crash = Some(now);
        }
    }

    /// Counts a demotion that was a detector mistake: the leader demoted
    /// for suspicion came back trusted under the same incarnation, so it
    /// was never down.
    pub fn note_spurious_demotion(&mut self) {
        self.spurious_demotions += 1;
    }

    /// Counts a candidacy rejected for presenting a stale incarnation.
    pub fn note_stale_candidacy(&mut self) {
        self.stale_candidacies += 1;
    }

    /// Leader presence scored by the paper's detector-level QoS
    /// machinery: good periods are led stretches, mistakes are
    /// leaderless episodes.
    pub fn presence(&self, now: f64) -> ObservedQos {
        self.presence.observed(now)
    }

    /// The aggregate leader-level QoS over `[origin, now]`.
    pub fn report(&self, now: f64) -> LeaderQosReport {
        let now = now.max(self.at);
        let window = (now - self.origin).max(0.0);
        let mut led = self.led_time;
        let mut degraded = self.degraded_time;
        let mut vacant = self.vacant_time;
        let dt = now - self.at;
        match self.state {
            LeadershipState::Led { .. } => led += dt,
            LeadershipState::Degraded { .. } => degraded += dt,
            LeadershipState::Vacant => vacant += dt,
        }
        let frac = |t: f64| if window > 0.0 { t / window } else { 0.0 };
        let mean_of = |s: &OnlineStats| if s.count() > 0 { Some(s.mean()) } else { None };
        // The open term contributes to mean duration only once closed;
        // report it separately so a long-lived stable leader shows up.
        let current_term = self.term_start.map(|start| now - start);
        LeaderQosReport {
            window,
            availability: frac(led + degraded),
            led_fraction: frac(led),
            degraded_fraction: frac(degraded),
            vacant_fraction: frac(vacant),
            elections: self.elections,
            demotions: self.demotions,
            spurious_demotions: self.spurious_demotions,
            stale_candidacies: self.stale_candidacies,
            spurious_demotion_rate: if self.demotions > 0 {
                self.spurious_demotions as f64 / self.demotions as f64
            } else {
                0.0
            },
            mean_leadership_duration: mean_of(&self.duration),
            mean_leadership_recurrence: mean_of(&self.recurrence),
            mean_election_latency: mean_of(&self.latency),
            max_election_latency: (self.latency.count() > 0).then_some(self.latency_max),
            current_term,
        }
    }
}

/// Point-in-time summary produced by [`LeaderQos::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderQosReport {
    /// Observation window length in seconds.
    pub window: f64,
    /// Fraction of the window with any incumbent installed (led or
    /// degraded).
    pub availability: f64,
    /// Fraction of the window fully led.
    pub led_fraction: f64,
    /// Fraction of the window in `Degraded` hold.
    pub degraded_fraction: f64,
    /// Fraction of the window with no leader at all.
    pub vacant_fraction: f64,
    /// Completed elections.
    pub elections: u64,
    /// Incumbents that lost leadership.
    pub demotions: u64,
    /// Suspicion demotions whose leader came back under the same
    /// incarnation (detector mistakes).
    pub spurious_demotions: u64,
    /// Candidacies rejected for stale incarnations.
    pub stale_candidacies: u64,
    /// `spurious_demotions / demotions` (0 when no demotions).
    pub spurious_demotion_rate: f64,
    /// Mean length of completed leadership terms, if any completed.
    pub mean_leadership_duration: Option<f64>,
    /// Mean interval between consecutive elections, if ≥ 2 happened.
    pub mean_leadership_recurrence: Option<f64>,
    /// Mean crash→re-election latency over armed crashes, if any.
    pub mean_election_latency: Option<f64>,
    /// Worst observed crash→re-election latency, if any.
    pub max_election_latency: Option<f64>,
    /// Age of the current (open) leadership term, if one is running.
    pub current_term: Option<f64>,
}

impl fmt::Display for LeaderQosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}s"),
            None => "n/a".to_string(),
        };
        write!(
            f,
            "window {:.1}s | avail {:.4} (led {:.4}, degraded {:.4}) | \
             elections {} demotions {} (spurious {} → rate {:.4}) stale {} | \
             duration {} recurrence {} latency {}",
            self.window,
            self.availability,
            self.led_fraction,
            self.degraded_fraction,
            self.elections,
            self.demotions,
            self.spurious_demotions,
            self.spurious_demotion_rate,
            self.stale_candidacies,
            opt(self.mean_leadership_duration),
            opt(self.mean_leadership_recurrence),
            opt(self.mean_election_latency),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_vacant_with_empty_report() {
        let q = LeaderQos::new(10.0);
        let r = q.report(20.0);
        assert_eq!(r.window, 10.0);
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.vacant_fraction, 1.0);
        assert_eq!(r.elections, 0);
        assert_eq!(r.mean_leadership_duration, None);
        assert_eq!(r.mean_election_latency, None);
    }

    #[test]
    fn election_and_demotion_counting() {
        let mut q = LeaderQos::new(0.0);
        q.observe(1.0, LeadershipState::Led { leader: 7 });
        q.observe(5.0, LeadershipState::Vacant);
        q.observe(6.0, LeadershipState::Led { leader: 9 });
        let r = q.report(10.0);
        assert_eq!(r.elections, 2);
        assert_eq!(r.demotions, 1);
        // Term of leader 7: 1.0 → 5.0.
        assert_eq!(r.mean_leadership_duration, Some(4.0));
        // Elections at 1.0 and 6.0.
        assert_eq!(r.mean_leadership_recurrence, Some(5.0));
        // Led 1..5 and 6..10 of a 10 s window.
        assert!((r.availability - 0.8).abs() < 1e-12);
        assert_eq!(r.current_term, Some(4.0));
    }

    #[test]
    fn crash_arms_election_latency() {
        let mut q = LeaderQos::new(0.0);
        q.observe(0.0, LeadershipState::Led { leader: 1 });
        q.note_crash(4.0);
        q.observe(5.0, LeadershipState::Vacant);
        q.observe(7.5, LeadershipState::Led { leader: 2 });
        let r = q.report(8.0);
        assert_eq!(r.mean_election_latency, Some(3.5));
        assert_eq!(r.max_election_latency, Some(3.5));
    }

    #[test]
    fn leader_swap_without_vacancy_counts_both_sides() {
        let mut q = LeaderQos::new(0.0);
        q.observe(0.0, LeadershipState::Led { leader: 1 });
        q.observe(3.0, LeadershipState::Led { leader: 2 });
        let r = q.report(4.0);
        assert_eq!(r.elections, 2);
        assert_eq!(r.demotions, 1);
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn degraded_time_is_split_out_but_counts_as_available() {
        let mut q = LeaderQos::new(0.0);
        q.observe(0.0, LeadershipState::Led { leader: 1 });
        q.observe(2.0, LeadershipState::Degraded { incumbent: 1 });
        q.observe(3.0, LeadershipState::Led { leader: 1 });
        let r = q.report(4.0);
        // Degraded hold of the same incumbent is neither a demotion nor
        // an election.
        assert_eq!(r.elections, 1);
        assert_eq!(r.demotions, 0);
        assert_eq!(r.availability, 1.0);
        assert!((r.degraded_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn spurious_rate_and_presence_reuse() {
        let mut q = LeaderQos::new(0.0);
        q.observe(0.0, LeadershipState::Led { leader: 1 });
        q.observe(2.0, LeadershipState::Vacant);
        q.note_spurious_demotion();
        q.observe(3.0, LeadershipState::Led { leader: 1 });
        q.observe(5.0, LeadershipState::Vacant);
        let r = q.report(6.0);
        assert_eq!(r.demotions, 2);
        assert_eq!(r.spurious_demotions, 1);
        assert!((r.spurious_demotion_rate - 0.5).abs() < 1e-12);
        // The embedded OnlineQos sees leaderless stretches as mistakes.
        let p = q.presence(6.0);
        assert_eq!(p.s_transitions, 2);
        assert!(p.recurrence.count() >= 1);
    }

    #[test]
    fn non_monotone_observation_is_clamped() {
        let mut q = LeaderQos::new(0.0);
        q.observe(5.0, LeadershipState::Led { leader: 1 });
        q.observe(3.0, LeadershipState::Vacant); // clamped to 5.0
        let r = q.report(5.0);
        assert_eq!(r.demotions, 1);
        assert!(r.window >= 5.0);
    }
}
