#!/usr/bin/env bash
# Every CI gate, in order; .github/workflows/ci.yml runs this file as one
# step. Run it before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release

# First after the build: fdqos-bench is outside the workspace, so nothing
# below compiles it, and a later gate failing must not hide its break.
echo "==> end-to-end benchmark smoke (fdqos-bench: every workload, self-checking)"
benchmarks/fdqos-bench/run.sh --smoke

# The smoke runs untraced; only a traced run replays the ingest path stage
# by stage, and that replay encodes MAX_BATCH-entry chunks itself.
echo "==> traced ingest probe (fdqos-bench flood_ingest --trace 1, self-checking)"
probe=$(cargo run --release --offline --quiet --manifest-path benchmarks/fdqos-bench/Cargo.toml -- \
    --workload flood_ingest --seed 1 --seconds 2 --trace 1 | tail -n 1)
if ! grep -q '"correct": true' <<<"$probe"; then
    echo "traced probe: flood_ingest is not correct: ${probe:0:200}" >&2
    exit 1
fi

echo "==> layering (one heartbeat wire; one ingest path from bytes; one gossip round; one §8.1 loop; one leader elector; one fault model; one scenario driver; no hidden knobs; no one-value config fields; no criterion; no parking_lot; no crossbeam; no parked threads; tier-1 and net.rs on scenario time)"
if grep -rn HEARTBEAT_MAGIC crates; then
    echo "layering: a second heartbeat wire format is back" >&2
    exit 1
fi
if grep -rln "encode_relay(\|receive_digest_via(" crates examples tests --include=*.rs \
    | grep -vxF -e crates/fd-cluster/src/wire.rs -e crates/fd-federation/src/node.rs \
        -e crates/fd-federation/tests/permutation.rs; then
    echo "layering: a second gossip round driver (FederationNode::outbound/handle is the round)" >&2
    exit 1
fi
if grep -rn "AdaptiveMonitor\|AdaptiveConfig\|fd_core::adaptive" crates src examples tests; then
    echo "layering: a second §8.1 adaptive loop (fd-cluster's control plane is the one loop)" >&2
    exit 1
fi
if grep -rn "LeaderElector\|TrustView\|Leadership\b" crates src examples tests; then
    echo "layering: a second leader elector (CrashRecoveryElector is the one elector)" >&2
    exit 1
fi
if grep -rn "ChannelModel\|GilbertElliott\|EpochChannel\|run_with_model\|FaultyLink" crates src examples tests; then
    echo "layering: a second simulator fault model (a FaultPlan through run_with_plan is the one)" >&2
    exit 1
fi
# Chaos scenario 6 replays stale floods and restarts from a snapshot: its
# own drive on purpose.
if [ -e tests/scenario ] || grep -rln "record_at_incarnated(" crates/fd-smc crates/fd-bench/src/bin \
    examples tests --include=*.rs | grep -vxF -e tests/chaos.rs; then
    echo "layering: a second scenario driver (fd_smc::drive steps every scripted monitor drive)" >&2
    exit 1
fi
if grep -rln "decode_batch_into(" crates src examples tests --include=*.rs \
    | grep -vxF -e crates/fd-cluster/src/wire.rs -e crates/fd-cluster/src/net.rs; then
    echo "layering: a second ingest path (ingest_frames is the one way bytes become heartbeats)" >&2
    exit 1
fi
if grep -n "record_at_incarnated(\|record_batch_at(" crates/fd-smc/src/drive.rs; then
    echo "layering: fd_smc::drive records around the wire (its deliveries go through ingest_frames)" >&2
    exit 1
fi
sleeps=$(grep -c "sleep(" crates/fd-cluster/src/net.rs || true)
if [ "$sleeps" -gt 5 ]; then
    echo "layering: net.rs has $sleeps sleep( sites, more than 5 (test what is not the socket" \
        "through ingest_frames or a ScriptedReceiver, in scenario time)" >&2
    exit 1
fi
if grep -rn "env::var" crates/*/src; then
    echo "layering: crates/*/src reads an environment variable (a setting is a config field, or" \
        "it is not a setting)" >&2
    exit 1
fi
if grep -n criterion Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; then
    echo "layering: a Cargo.toml names criterion (fdqos-bench and bench_baseline are the harnesses)" >&2
    exit 1
fi
if grep -n parking_lot Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml \
    || grep -rn parking_lot crates src tests examples shims --include=*.rs; then
    echo "layering: parking_lot is back (fd-cluster locks std::sync through its one unpoison helper)" >&2
    exit 1
fi
if grep -rnE 'pub (wheel_slots|gen_origin|max_ticker_restarts|max_restarts|max_pump_restarts|recv_batch|node_watch|bootstrap_grace|max_relay_hops|link_timeout|repair_backoff_base|repair_backoff_cap|sprt|confidence):' \
    crates; then
    echo "layering: a config field that every caller left at one value is back (it is a constant)" >&2
    exit 1
fi
if grep -n crossbeam Cargo.toml crates/*/Cargo.toml \
    || grep -rn crossbeam crates src tests examples --include=*.rs; then
    echo "layering: crossbeam is back (the workspace's channels are std::sync::mpsc)" >&2
    exit 1
fi
if grep -rn "tick: 3600.0\|period: 1e9" crates/fd-federation crates/fd-smc crates/fd-cluster/tests \
    crates/fd-bench/src/bin/exp_election.rs crates/fd-bench/src/bin/exp_scale.rs; then
    echo "layering: a deterministic driver parks threads (ClusterMonitor::manual has none)" >&2
    exit 1
fi
if grep -n "sleep(" tests/*.rs; then
    echo "layering: a façade test sleeps (drive ClusterMonitor::manual in scenario time)" >&2
    exit 1
fi

echo "==> public surface (a pub item nothing outside its file names is deleted, narrowed or allowlisted)"
tools/pub_scan.sh > target/pub_scan.txt
if ! awk '!/^#/ && NF {print $1, $2}' tools/pub_allowlist.txt | LC_ALL=C sort \
    | diff - target/pub_scan.txt; then
    echo "public surface: '>' is a pub item no other file names (delete it, narrow it, or" \
        "allowlist it with a reason); '<' is an allowlist entry the scan no longer prints" \
        "(drop it from tools/pub_allowlist.txt)" >&2
    exit 1
fi
if awk '!/^#/ && NF && NF < 3' tools/pub_allowlist.txt | grep .; then
    echo "public surface: an allowlist entry gives no reason" >&2
    exit 1
fi

echo "==> test (workspace)"
cargo test --workspace -q

echo "==> lock-free cell tests, optimised (their failure windows only open under --release)"
cargo test --release -q -p fd-cluster --lib registry::

echo "==> fd-sim and fd-stats tests, optimised (the hand-off interleaves tightest, and fates and samplers inline, under --release)"
cargo test --release -q -p fd-sim
cargo test --release -q -p fd-stats --lib

echo "==> clippy (whole workspace, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> docs (whole workspace, deny warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> E0–E16 seed-exact (each experiment prints its block of results/run_all_quick.txt byte for byte)"
for experiment in E0:exp_gof E1:exp_fig2_fig3 E2:exp_theorem1 E3:exp_config_known \
    E4:exp_config_unknown E5:exp_fig12 E6:exp_mistake_duration E7:exp_nfde_window \
    E8:exp_theorem5 E9:exp_optimality E10:exp_detection_time E11:exp_bounds E12:exp_adaptive \
    E13:exp_eta_gap E14:exp_burst E15:exp_ping E16:exp_phi; do
    tag=${experiment%%:*}
    bin=${experiment#*:}
    cargo run --release -q -p fd-bench --bin "$bin" > "target/seed_exact_$bin.txt"
    # A block runs from the line after its banner to the blank line and
    # rule run_all prints before the next banner.
    if ! awk -v banner="== $tag " 'index($0, banner) == 1 {getline; f=1; next} /^== /{f=0} f' \
        results/run_all_quick.txt | head -n -2 | diff - "target/seed_exact_$bin.txt"; then
        echo "$tag ($bin): its printed numbers moved (regenerate the transcript only on purpose)" >&2
        exit 1
    fi
done

echo "==> scenario-time examples (each asserts its bounds; two runs print the same bytes)"
for example in leader_failover cluster_monitor; do
    cargo run --release -q --example "$example" > "target/example_$example.txt"
    cargo run --release -q --example "$example" | diff "target/example_$example.txt" -
done

echo "==> chaos smoke"
cargo run --release -p fd-bench --bin exp_chaos

echo "==> restart-storm smoke"
cargo run --release -p fd-bench --bin exp_chaos -- --restart-storm

echo "==> cluster scale smoke (wheel sweep + mmsg datagram-plane sweep)"
cargo run --release -p fd-bench --bin exp_scale -- --smoke

echo "==> live QoS scrape smoke"
cargo run --release -p fd-bench --bin exp_qos_live -- --smoke

echo "==> adaptive control plane smoke"
cargo run --release -p fd-bench --bin exp_adaptive_cluster -- --smoke

echo "==> statistical model checking, full mode (exits nonzero on any Reject)"
cargo run --release -p fd-bench --bin exp_smc

echo "==> federation failover, full mode (takeover bound, coverage, fd_fed_* series)"
cargo run --release -p fd-bench --bin exp_federation

echo "==> federation-over-UDP smoke (one-way cut, relay routing, NACK repair)"
cargo run --release -p fd-bench --bin exp_fed_udp -- --smoke

echo "==> leader election, full mode (crash-recovery election, churn, fd_leader_* series)"
cargo run --release -p fd-bench --bin exp_election

echo "==> the full runs rewrite the SMC, federation and election reports byte-identically"
git diff --exit-code -- results/SMC_report.json results/FED_report.json results/ELECTION_report.json

echo "==> every SMC report decides"
if grep -l UNDECIDED results/*_report.json; then
    echo "an SMC report is UNDECIDED: its run cap is too low to decide" >&2
    exit 1
fi

echo "==> perf baselines (regression-gated against benchmarks/BENCH_reference.json)"
cargo run --release -p fd-bench --bin bench_baseline -- --smoke --check-against benchmarks/BENCH_reference.json

echo "CI green."
