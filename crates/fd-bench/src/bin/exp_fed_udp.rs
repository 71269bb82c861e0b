//! E22 — federation gossip over real UDP under scripted link faults.
//!
//! Four monitor nodes gossip wire digest frames over genuine loopback UDP
//! sockets ([`GossipEndpoint`]: `fd-cluster` frame senders, the link-fault
//! stage heartbeats use), with per-directed-link fault scripts
//! from a [`MultiNodePlan`]: one direction of one gossip link is cut
//! mid-run (datagrams `0 → 1` vanish for 12 s), another link runs a
//! delay spike, and one node is killed outright near the end. The run
//! must show:
//!
//! * **no false suspicion of relay-reachable nodes** — while the cut is
//!   up, node 1 keeps trusting node 0 purely through the other nodes'
//!   kind-4 relay frames (`fd_fed_relayed_digests > 0`, link state
//!   `Relayed`, zero missing entries in any alive view outside the
//!   detection transient);
//! * **zero ghost membership events** — across every embedded monitor,
//!   nothing resurrects a removed peer, even with duplicated/delayed
//!   datagrams on the wire;
//! * **bounded takeover** — when node 3 actually dies, some survivor
//!   adopts its first peer within the monitor-of-monitors NFD-E bound
//!   `η + α + 2 s = 6 s`;
//! * **digest convergence within a bound** — the surviving views
//!   reconverge (every survivor knows every other survivor's partition
//!   at its current incarnation, jointly covering the peer universe) by
//!   the takeover settle point plus one full-refresh period;
//! * **observability** — the `fd_fed_*` series, including per-link
//!   `fd_fed_link_state{from,to}`, render through the Prometheus and
//!   JSON exporter formats.
//!
//! `--smoke` shrinks the fleet (4 × 240 peers) without changing any
//! bound. The report is written to `results/FED_UDP_report.json`; the
//! process exits nonzero if any check fails.

use fd_bench::Settings;
use fd_cluster::EventLog;
use fd_core::Heartbeat;
use fd_federation::{
    owner, FedChange, FedEvent, FedMetrics, FederationNode, GossipEndpoint, LinkState,
    NodeConfig, NodeId, BOOTSTRAP_GRACE, NODE_WATCH,
};
use fd_sim::MultiNodePlan;
use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const NODES: [NodeId; 4] = [0, 1, 2, 3];
const VICTIM: NodeId = 3;
/// Datagrams `CUT_FROM → CUT_TO` vanish for [`CUT_AT`, `CUT_HEAL`).
const CUT_FROM: NodeId = 0;
const CUT_TO: NodeId = 1;
const CUT_AT: f64 = 16.0;
const CUT_HEAL: f64 = 28.0;
const SPIKE: (NodeId, NodeId) = (1, 2);
const KILL_AT: f64 = 40.0;
const HORIZON: u64 = 64;
const FULL_REFRESH_EVERY: u64 = 8;

fn cfg() -> NodeConfig {
    NodeConfig { full_refresh_every: FULL_REFRESH_EVERY, ..NodeConfig::default() }
}

fn plan(seed: u64) -> MultiNodePlan {
    MultiNodePlan::new(seed)
        .cut_link_oneway(CUT_FROM, CUT_TO, CUT_AT, CUT_HEAL)
        .delay_spike_link(SPIKE.0, SPIKE.1, 20.0, 30.0, 0.4, 0.1)
        .kill_node(VICTIM, KILL_AT)
}

struct Slot {
    id: NodeId,
    node: Option<FederationNode>,
    transport: GossipEndpoint,
    metrics: Arc<FedMetrics>,
    log_rx: fd_cluster::Subscription,
    log: EventLog,
}

struct Outcome {
    peers: u64,
    victim_partition: usize,
    false_suspicions: u64,
    ghosts: usize,
    digests_sent: u64,
    relayed_digests: u64,
    relayed_link_ticks: u64,
    repair_requests: u64,
    repairs_served: u64,
    udp_sent: u64,
    udp_dropped: u64,
    udp_delayed: u64,
    udp_decode_rejects: u64,
    first_adopt_at: f64,
    takeover_bound: f64,
    converged_at: f64,
    convergence_deadline: f64,
    final_converged: bool,
    prom_series: usize,
    link_state_series: usize,
    json_fields: usize,
}

/// Every alive view knows every other alive node's partition at its
/// current incarnation (always 1: nobody restarts here), jointly
/// covering the registered universe.
fn converged(slots: &[Slot], universe: &[u64]) -> bool {
    let alive: Vec<(NodeId, u64)> =
        slots.iter().filter(|s| s.node.is_some()).map(|s| (s.id, 1)).collect();
    slots.iter().filter_map(|s| s.node.as_ref()).all(|node| node.view_covers(&alive, universe))
}

fn run(seed: u64, n_peers: u64) -> Outcome {
    let plan = plan(seed);
    let node_cfg = cfg();
    let takeover_bound = NODE_WATCH.eta + NODE_WATCH.alpha + 2.0;
    let grace = BOOTSTRAP_GRACE;

    let mut slots: Vec<Slot> = NODES
        .iter()
        .map(|&id| {
            let metrics = Arc::new(FedMetrics::new());
            let node = FederationNode::spawn(id, 1, &NODES, node_cfg, Arc::clone(&metrics))
                .expect("spawn node");
            let transport = GossipEndpoint::bind(id, Arc::clone(&metrics)).expect("bind");
            let log_rx = node.monitor().subscribe();
            Slot { id, node: Some(node), transport, metrics, log_rx, log: EventLog::new() }
        })
        .collect();
    GossipEndpoint::mesh(slots.iter_mut().map(|s| &mut s.transport), &plan).expect("mesh");

    // Rendezvous partition of the registered universe.
    let universe: Vec<u64> = (1..=n_peers).collect();
    for &peer in &universe {
        let own = owner(&NODES, peer).expect("nonempty node set");
        let i = NODES.iter().position(|&n| n == own).expect("member");
        slots[i].node.as_mut().expect("alive").assign_peer(peer).expect("assign");
    }
    let victim_partition =
        slots[VICTIM as usize].node.as_ref().expect("alive").owned_peers().len();
    assert!(victim_partition > 0, "rendezvous balance gives the victim a partition");

    let mut events: Vec<FedEvent> = Vec::new();
    let mut false_suspicions = 0u64;
    let mut relayed_link_ticks = 0u64;
    let mut converged_at = f64::INFINITY;
    let settle_at = KILL_AT + takeover_bound;
    let convergence_deadline = settle_at + FULL_REFRESH_EVERY as f64;

    for step in 1..=HORIZON {
        let now = step as f64;
        // Fault plan first: the crash lands between two gossip rounds.
        for s in slots.iter_mut() {
            if plan.is_node_crashed_at(s.id, now) && s.node.is_some() {
                s.log.drain(&s.log_rx);
                s.node = None;
            }
        }
        // Peer heartbeats reach whichever alive monitor owns them.
        for s in slots.iter_mut() {
            let Some(node) = s.node.as_mut() else { continue };
            for peer in node.owned_peers() {
                node.deliver(peer, now, 1, Heartbeat::new(step, now));
            }
        }
        // Gossip: the round is the node's, the slot only moves its bytes
        // (a killed node's socket is still drained).
        let mut pairs: Vec<_> =
            slots.iter_mut().map(|s| (s.node.as_mut(), &mut s.transport)).collect();
        GossipEndpoint::step(&mut pairs, now);
        for s in slots.iter_mut() {
            let Some(node) = s.node.as_mut() else { continue };
            node.advance(now);
            events.extend(node.rebalance(now));
            let me = s.id;
            s.metrics
                .set_link_states(node.link_states(now).into_iter().map(|(to, st)| ((me, to), st)));
            s.log.drain(&s.log_rx);
        }
        // Cut window, past the detection transient: node CUT_TO leans on
        // relays for CUT_FROM.
        if (CUT_AT + 3.0..CUT_HEAL).contains(&now) {
            let observer = slots[CUT_TO as usize].node.as_ref().expect("alive");
            if observer.link_state(CUT_FROM, now) == LinkState::Relayed {
                relayed_link_ticks += 1;
            }
        }
        // False-suspicion scan outside the detection transients: every
        // alive node must trust every alive node (the one-way cut is
        // relay-covered, the spike is within the NFD-E slack).
        let in_benign_window = now > grace + takeover_bound && now < KILL_AT;
        let in_survivor_window = now > KILL_AT + takeover_bound;
        if in_benign_window || in_survivor_window {
            let alive_ids: Vec<NodeId> =
                slots.iter().filter(|s| s.node.is_some()).map(|s| s.id).collect();
            for s in slots.iter() {
                let Some(node) = s.node.as_ref() else { continue };
                let seen = node.alive_nodes(now);
                false_suspicions +=
                    alive_ids.iter().filter(|n| !seen.contains(n)).count() as u64;
            }
        }
        if now >= settle_at && converged_at.is_infinite() && converged(&slots, &universe) {
            converged_at = now;
        }
    }

    let first_adopt_at = events
        .iter()
        .find(|e| {
            matches!(e.change, FedChange::PeerAdopted { from, .. } if from == VICTIM)
                && e.at > KILL_AT
        })
        .map_or(f64::INFINITY, |e| e.at);
    let ghosts: usize = slots
        .iter_mut()
        .map(|s| {
            s.log.drain(&s.log_rx);
            universe.iter().map(|&p| s.log.ghost_events_after_remove(p).len()).sum::<usize>()
        })
        .sum();

    // Observability: node CUT_TO saw relays, repairs and link-state
    // churn — its fd_fed_* series must render in both formats.
    let witness = &slots[CUT_TO as usize].metrics;
    let mut prom = String::new();
    fd_cluster::MetricsSource::prometheus(witness.as_ref(), &mut prom);
    let prom_series = prom.lines().filter(|l| l.starts_with("fd_fed_")).count();
    let link_state_series =
        prom.lines().filter(|l| l.starts_with("fd_fed_link_state{")).count();
    let json_fields = fd_cluster::MetricsSource::json_fields(witness.as_ref()).len();
    let sum = |f: fn(&FedMetrics) -> u64| slots.iter().map(|s| f(&s.metrics)).sum::<u64>();

    Outcome {
        peers: n_peers,
        victim_partition,
        false_suspicions,
        ghosts,
        digests_sent: sum(|m| m.digests_sent.load(Ordering::Relaxed)),
        relayed_digests: sum(|m| m.relayed_digests.load(Ordering::Relaxed)),
        relayed_link_ticks,
        repair_requests: sum(|m| m.repair_requests.load(Ordering::Relaxed)),
        repairs_served: sum(|m| m.repairs_served.load(Ordering::Relaxed)),
        udp_sent: sum(|m| m.udp_frames_sent.load(Ordering::Relaxed)),
        udp_dropped: sum(|m| m.udp_frames_dropped.load(Ordering::Relaxed)),
        udp_delayed: sum(|m| m.udp_frames_delayed.load(Ordering::Relaxed)),
        udp_decode_rejects: sum(|m| m.udp_decode_rejects.load(Ordering::Relaxed)),
        first_adopt_at,
        takeover_bound,
        converged_at,
        convergence_deadline,
        final_converged: converged(&slots, &universe),
        prom_series,
        link_state_series,
        json_fields,
    }
}

fn write_report(out: &Outcome, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/FED_UDP_report.json")?;
    writeln!(
        f,
        "{{\"experiment\":\"E22\",\"seed\":{},\"nodes\":{},\"peers\":{},\
         \"cut\":[{},{}],\"cut_window\":[{},{}],\"kill_at\":{},\
         \"victim_partition\":{},\"false_suspicions\":{},\"ghosts\":{},\
         \"digests_sent\":{},\"relayed_digests\":{},\"relayed_link_ticks\":{},\
         \"repair_requests\":{},\"repairs_served\":{},\
         \"udp_frames_sent\":{},\"udp_frames_dropped\":{},\
         \"udp_frames_delayed\":{},\"udp_decode_rejects\":{},\
         \"first_adopt_at\":{},\"takeover_bound\":{},\
         \"converged_at\":{},\"convergence_deadline\":{},\"final_converged\":{},\
         \"fed_prom_series\":{},\"link_state_series\":{},\"fed_json_fields\":{}}}",
        seed,
        NODES.len(),
        out.peers,
        CUT_FROM,
        CUT_TO,
        CUT_AT,
        CUT_HEAL,
        KILL_AT,
        out.victim_partition,
        out.false_suspicions,
        out.ghosts,
        out.digests_sent,
        out.relayed_digests,
        out.relayed_link_ticks,
        out.repair_requests,
        out.repairs_served,
        out.udp_sent,
        out.udp_dropped,
        out.udp_delayed,
        out.udp_decode_rejects,
        out.first_adopt_at,
        out.takeover_bound,
        out.converged_at,
        out.convergence_deadline,
        out.final_converged,
        out.prom_series,
        out.link_state_series,
        out.json_fields,
    )
}

fn main() {
    let settings = Settings::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_peers: u64 = if smoke { 240 } else { 2400 };

    println!(
        "E22 — federation gossip over real UDP ({} mode, {} nodes x {} peers, seed {})\n",
        if smoke { "smoke" } else { "full" },
        NODES.len(),
        n_peers,
        settings.seed
    );

    let out = run(settings.seed, n_peers);
    println!("victim partition       {:>8} peers", out.victim_partition);
    println!("false suspicions       {:>8}", out.false_suspicions);
    println!("ghost events           {:>8}", out.ghosts);
    println!("digests sent           {:>8} (frames x destinations)", out.digests_sent);
    println!(
        "relayed digests        {:>8} ({} relay-covered cut ticks)",
        out.relayed_digests, out.relayed_link_ticks
    );
    println!(
        "NACK repairs           {:>8} requested / {} served",
        out.repair_requests, out.repairs_served
    );
    println!(
        "udp frames             {:>8} sent, {} dropped, {} delayed, {} undecodable",
        out.udp_sent, out.udp_dropped, out.udp_delayed, out.udp_decode_rejects
    );
    println!(
        "first adoption at      {:>8.1} s (kill at {KILL_AT}, bound {} s)",
        out.first_adopt_at, out.takeover_bound
    );
    println!(
        "converged at           {:>8.1} s (deadline {} s)",
        out.converged_at, out.convergence_deadline
    );
    println!("fd_fed_* prom lines    {:>8} ({} link-state)", out.prom_series, out.link_state_series);

    write_report(&out, settings.seed).expect("write results/FED_UDP_report.json");
    println!("\nreport written to results/FED_UDP_report.json");

    let suspicion_ok = out.false_suspicions == 0;
    let relay_ok = out.relayed_digests > 0 && out.relayed_link_ticks > 0;
    let ghost_ok = out.ghosts == 0;
    let takeover_ok = out.first_adopt_at - KILL_AT <= out.takeover_bound;
    let convergence_ok =
        out.converged_at <= out.convergence_deadline && out.final_converged;
    let observability_ok =
        out.prom_series >= 14 && out.link_state_series >= 3 && out.json_fields >= 1;
    if !suspicion_ok || !relay_ok || !ghost_ok || !takeover_ok || !convergence_ok
        || !observability_ok
    {
        println!(
            "VERDICT: FAIL (suspicion {suspicion_ok}, relay {relay_ok}, ghosts {ghost_ok}, \
             takeover {takeover_ok}, convergence {convergence_ok}, \
             observability {observability_ok})"
        );
        std::process::exit(1);
    }
    println!("VERDICT: all federation-over-UDP checks pass");
}
