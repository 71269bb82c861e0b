//! The in-process gossip fabric is seed-exact across changes to the
//! round driver: for seeds 1..=16 both federation scenarios must
//! reproduce, field for field, the records the commit *before* the
//! driver moved into `FederationNode::{outbound, handle}` produced.
//!
//! Each golden row spells out the fields an oracle reads and closes
//! with an FNV-1a fingerprint of the record's complete `Debug`
//! rendering (every event, both coverage maps), so a divergence the
//! summary does not show still fails. The rows were printed by the
//! reference commit's build of this file from a scratch clone
//! (`cargo test -p fd-smc --test fed_golden -- --ignored --nocapture`);
//! regenerating them in place would make the test vacuous.

use fd_smc::{run_federation_scenario, run_relay_scenario};

fn fingerprint(debug: &str) -> u64 {
    debug
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn failover_row(seed: u64) -> String {
    let r = run_federation_scenario(seed);
    format!(
        "seed {seed}: {} events, takeover {:?}, settle {}/{}, final {}/{}, converged {}, {:016x}",
        r.events.len(),
        r.first_takeover_at(),
        r.settle_coverage.orphans.len(),
        r.settle_coverage.duplicated.len(),
        r.final_coverage.orphans.len(),
        r.final_coverage.duplicated.len(),
        r.converged,
        fingerprint(&format!("{r:?}")),
    )
}

fn relay_row(seed: u64) -> String {
    let r = run_relay_scenario(seed);
    format!(
        "seed {seed}: cut {:?}@{}, {} false suspicions, converged {}, {} relayed, {:016x}",
        r.cut,
        r.cut_at,
        r.false_suspicions,
        r.converged,
        r.relayed_digests,
        fingerprint(&format!("{r:?}")),
    )
}

const FAILOVER_GOLDEN: [&str; 16] = [
    "seed 1: 10 events, takeover Some(15.0), settle 0/0, final 0/0, converged true, cfe06a1a496ace82",
    "seed 2: 27 events, takeover Some(20.0), settle 0/0, final 0/0, converged true, ff3a504851311b82",
    "seed 3: 19 events, takeover Some(22.0), settle 0/0, final 0/0, converged true, 0996f18fd1dc3df0",
    "seed 4: 10 events, takeover Some(17.0), settle 0/0, final 0/0, converged true, fda38a975c84cbbc",
    "seed 5: 57 events, takeover Some(15.0), settle 0/0, final 0/0, converged true, 71a8c3bfce31c44f",
    "seed 6: 30 events, takeover Some(18.0), settle 0/0, final 0/0, converged true, b197ab7f3f24cc70",
    "seed 7: 42 events, takeover Some(21.0), settle 0/0, final 0/0, converged true, e6d467b326caf107",
    "seed 8: 9 events, takeover Some(18.0), settle 0/0, final 0/0, converged true, 1728aab2a1fc3818",
    "seed 9: 9 events, takeover Some(16.0), settle 0/0, final 0/0, converged true, 90dfa03b46891cda",
    "seed 10: 20 events, takeover Some(15.0), settle 0/0, final 0/0, converged true, 0a064f3da29f68f4",
    "seed 11: 10 events, takeover Some(23.0), settle 0/0, final 0/0, converged true, f106a13f87e2ec70",
    "seed 12: 39 events, takeover Some(21.0), settle 0/0, final 0/0, converged true, 178bf1ab30cd4a5c",
    "seed 13: 12 events, takeover Some(20.0), settle 0/0, final 0/0, converged true, 542fd9843184930d",
    "seed 14: 3 events, takeover Some(20.0), settle 0/0, final 0/0, converged true, 492d0a734db6a117",
    "seed 15: 60 events, takeover Some(21.0), settle 0/0, final 0/0, converged true, 637982ac6eb4268e",
    "seed 16: 7 events, takeover Some(17.0), settle 0/0, final 0/0, converged true, 8a89c148a0329d46",
];

const RELAY_GOLDEN: [&str; 16] = [
    "seed 1: cut (0, 3)@4, 0 false suspicions, converged true, 1746 relayed, e1e922fd7017733e",
    "seed 2: cut (3, 0)@6, 0 false suspicions, converged true, 1758 relayed, a0983140f68a40de",
    "seed 3: cut (3, 2)@7, 0 false suspicions, converged true, 664 relayed, 2c4dbbc635915bbb",
    "seed 4: cut (1, 4)@4, 0 false suspicions, converged true, 1746 relayed, f02c7db6e07677e7",
    "seed 5: cut (0, 1)@6, 0 false suspicions, converged true, 660 relayed, 3fbffa1e0154bd50",
    "seed 6: cut (2, 3)@7, 0 false suspicions, converged true, 1764 relayed, fb2e356e05d4b4a8",
    "seed 7: cut (2, 0)@8, 0 false suspicions, converged true, 668 relayed, 2d24a67f8a97d66d",
    "seed 8: cut (1, 0)@6, 0 false suspicions, converged true, 660 relayed, 485a43867afa476f",
    "seed 9: cut (0, 4)@4, 0 false suspicions, converged true, 1746 relayed, b9e85fd25f283efd",
    "seed 10: cut (0, 3)@7, 0 false suspicions, converged true, 664 relayed, e0b21a869d6df39f",
    "seed 11: cut (4, 2)@5, 0 false suspicions, converged true, 1752 relayed, 008205c29bff3cc0",
    "seed 12: cut (3, 0)@8, 0 false suspicions, converged true, 1770 relayed, bdb6010f4c392471",
    "seed 13: cut (2, 1)@5, 0 false suspicions, converged true, 656 relayed, 3c3bff1aaf9d97e3",
    "seed 14: cut (3, 2)@7, 0 false suspicions, converged true, 1764 relayed, acc3b8c4bb0e3a53",
    "seed 15: cut (2, 0)@7, 0 false suspicions, converged true, 664 relayed, f1e710af8031a865",
    "seed 16: cut (1, 3)@4, 0 false suspicions, converged true, 652 relayed, 96fb8ba6c9f8b690",
];

#[test]
fn failover_scenario_reproduces_the_reference_records() {
    for (seed, want) in (1..=16u64).zip(FAILOVER_GOLDEN) {
        assert_eq!(failover_row(seed), want);
    }
}

#[test]
fn relay_scenario_reproduces_the_reference_records() {
    for (seed, want) in (1..=16u64).zip(RELAY_GOLDEN) {
        assert_eq!(relay_row(seed), want);
    }
}

#[test]
#[ignore = "prints the rows; run it on the reference commit only"]
fn print_golden_rows() {
    for seed in 1..=16u64 {
        println!("F    \"{}\",", failover_row(seed));
    }
    for seed in 1..=16u64 {
        println!("R    \"{}\",", relay_row(seed));
    }
}
