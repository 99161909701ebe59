//! Output checks behind `failed`: each workload's artifact digest at the
//! default seed, and invariants that hold for any seed.

use crate::workload::{Size, Workload};
use doe_traffic::StubPopulationReport;
use doe_vantage::reachability::ReachabilityReport;
use serde_json::Value;

/// The seed the reference digests were recorded at (the paper's year, as
/// in `repro`).
pub const DEFAULT_SEED: u64 = 2019;

/// FNV-1a digests of the compact artifact JSON (`figure3`, `table4`,
/// `stub-scale`) at [`DEFAULT_SEED`]. Outputs are shard-count invariant,
/// so one digest holds on any host.
const REFERENCE_DIGESTS: [(Workload, Size, u64); 6] = [
    (Workload::Campaign, Size::Full, 0x779e_d60a_208e_7013),
    (Workload::Reach, Size::Full, 0x5ebe_545f_3c0c_e5ca),
    (Workload::StubFleet, Size::Full, 0x4f16_b2c1_4b86_a8c4),
    (Workload::Campaign, Size::Smoke, 0xfd08_d311_ca33_0c43),
    (Workload::Reach, Size::Smoke, 0xf858_4079_7096_7660),
    (Workload::StubFleet, Size::Smoke, 0x0a33_00b9_c433_414b),
];

/// Open resolvers found may differ from the world's ground truth by this
/// share (the scanner's own test uses the same 5%).
const RESOLVER_TOLERANCE: f64 = 0.05;

/// 64-bit FNV-1a over the artifact's compact JSON text.
pub fn digest(artifact: &Value) -> u64 {
    let text = serde_json::to_string(artifact).expect("artifact JSON serialises");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compare the artifact with its reference digest. Seeds other than
/// [`DEFAULT_SEED`] have no reference and pass on invariants alone.
pub fn artifact(workload: Workload, size: Size, seed: u64, artifact: &Value) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let want = REFERENCE_DIGESTS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == size)
        .map(|&(_, _, d)| d)
        .expect("every workload and size has a reference digest");
    expect_digest(artifact, want)
}

fn expect_digest(artifact: &Value, want: u64) -> Result<(), String> {
    let got = digest(artifact);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "artifact digest {got:#018x}, reference {want:#018x}"
        ))
    }
}

/// One epoch's verified open resolvers against the world's ground truth
/// at that date, and the addresses probed against the address space.
#[derive(Debug, Clone, Copy)]
pub struct EpochTruth {
    /// Open DoT resolvers the scan verified.
    pub measured: usize,
    /// `World::online_dot_resolvers()` at the epoch's date.
    pub truth: usize,
    /// Addresses the sweep probed.
    pub probed: u64,
    /// Addresses in the scanned space.
    pub space: u64,
}

/// `campaign`: every address swept once, and open resolvers within 5% of
/// the ground truth in every epoch.
pub fn campaign(epochs: &[EpochTruth]) -> Result<(), String> {
    if epochs.is_empty() {
        return Err("campaign ran no epoch".into());
    }
    for (i, e) in epochs.iter().enumerate() {
        if e.probed != e.space {
            return Err(format!(
                "epoch {i}: probed {} of {} addresses",
                e.probed, e.space
            ));
        }
        let off = (e.measured as f64 - e.truth as f64).abs();
        if off > RESOLVER_TOLERANCE * e.truth as f64 {
            return Err(format!(
                "epoch {i}: {} open resolvers measured, {} online",
                e.measured, e.truth
            ));
        }
    }
    Ok(())
}

/// `reach`: the pool tested every client, and every resolver × transport
/// cell classified each of them exactly once.
pub fn reach(report: &ReachabilityReport, clients: usize) -> Result<(), String> {
    if report.clients_tested != clients {
        return Err(format!(
            "{} clients tested, {clients} expected",
            report.clients_tested
        ));
    }
    if report.matrix.is_empty() {
        return Err("empty reachability matrix".into());
    }
    for (resolver, row) in &report.matrix {
        for (transport, counts) in row {
            if counts.total() != clients {
                return Err(format!(
                    "{resolver}/{transport}: {} outcomes for {clients} clients",
                    counts.total()
                ));
            }
        }
    }
    Ok(())
}

/// `stub-fleet`: every query ends answered or failed, the profiles add up
/// to the fleet, and every scheduled event fired.
pub fn stub_fleet(report: &StubPopulationReport, clients: u64) -> Result<(), String> {
    if report.clients != clients {
        return Err(format!(
            "{} clients run, {clients} expected",
            report.clients
        ));
    }
    let t = &report.totals;
    if t.answered + t.failed != t.queries {
        return Err(format!(
            "{} answered + {} failed != {} queries",
            t.answered, t.failed, t.queries
        ));
    }
    let profile_queries: u64 = report.profiles.iter().map(|p| p.stats.queries).sum();
    let profile_clients: u64 = report.profiles.iter().map(|p| p.clients).sum();
    if profile_queries != t.queries || profile_clients != clients {
        return Err(format!(
            "profiles hold {profile_queries} queries of {} clients {profile_clients}",
            t.queries
        ));
    }
    for p in &report.profiles {
        if p.stats.answered + p.stats.failed != p.stats.queries {
            return Err(format!(
                "profile {}: answered + failed != queries",
                p.profile
            ));
        }
    }
    for (k, name) in netsim::SchedEvent::KIND_NAMES.iter().enumerate() {
        if report.sched.scheduled[k] != report.sched.fired[k] {
            return Err(format!(
                "{name}: {} scheduled, {} fired",
                report.sched.scheduled[k], report.sched.fired[k]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_protocols::machine::StubMachineStats;
    use doe_traffic::stubsim::ProfileSlice;
    use doe_traffic::SchedLoad;
    use doe_vantage::reachability::Counts;
    use doe_vantage::TransportKind;
    use serde_json::json;
    use std::collections::BTreeMap;

    fn stub_report() -> StubPopulationReport {
        let stats = |queries, failed| StubMachineStats {
            queries,
            answered: queries - failed,
            failed,
            ..StubMachineStats::default()
        };
        StubPopulationReport {
            clients: 4,
            totals: stats(8, 1),
            profiles: vec![
                ProfileSlice {
                    profile: "udp",
                    clients: 3,
                    stats: stats(6, 1),
                },
                ProfileSlice {
                    profile: "tcp",
                    clients: 1,
                    stats: stats(2, 0),
                },
            ],
            sched: SchedLoad {
                scheduled: [8, 7, 1, 2],
                fired: [8, 7, 1, 2],
                peak_outstanding: 2,
            },
        }
    }

    fn reach_report() -> ReachabilityReport {
        let mut matrix = BTreeMap::new();
        let mut row = BTreeMap::new();
        for transport in [TransportKind::Dns, TransportKind::Dot, TransportKind::Doh] {
            row.insert(
                transport,
                Counts {
                    correct: 7,
                    incorrect: 1,
                    failed: 2,
                },
            );
        }
        matrix.insert("Quad9".to_string(), row);
        ReachabilityReport {
            matrix,
            clients_tested: 10,
            interceptions: Vec::new(),
            forensics: Vec::new(),
        }
    }

    #[test]
    fn stub_check_rejects_one_flipped_count() {
        assert_eq!(stub_fleet(&stub_report(), 4), Ok(()));
        let mut answered = stub_report();
        answered.totals.answered += 1;
        assert!(stub_fleet(&answered, 4).is_err());
        let mut profile = stub_report();
        profile.profiles[1].stats.failed += 1;
        assert!(stub_fleet(&profile, 4).is_err());
        let mut fired = stub_report();
        fired.sched.fired[3] -= 1;
        assert!(stub_fleet(&fired, 4).is_err());
        assert!(stub_fleet(&stub_report(), 5).is_err());
    }

    #[test]
    fn reach_check_rejects_one_flipped_count() {
        assert_eq!(reach(&reach_report(), 10), Ok(()));
        let mut cell = reach_report();
        cell.matrix
            .get_mut("Quad9")
            .and_then(|row| row.get_mut(&TransportKind::Dot))
            .expect("cell exists")
            .failed += 1;
        assert!(reach(&cell, 10).is_err());
        assert!(reach(&reach_report(), 11).is_err());
    }

    #[test]
    fn campaign_check_holds_the_five_percent_line() {
        let epoch = |measured| EpochTruth {
            measured,
            truth: 2_000,
            probed: 500,
            space: 500,
        };
        assert_eq!(campaign(&[epoch(2_000), epoch(2_100)]), Ok(()));
        assert!(campaign(&[epoch(2_000), epoch(2_101)]).is_err());
        assert!(campaign(&[epoch(1_899)]).is_err());
        let mut short = epoch(2_000);
        short.probed -= 1;
        assert!(campaign(&[short]).is_err());
        assert!(campaign(&[]).is_err());
    }

    #[test]
    fn digest_check_rejects_a_perturbed_artifact_and_a_wrong_digest() {
        let artifact = json!({"clients": 4, "totals": {"queries": 8, "answered": 7}});
        let reference = digest(&artifact);
        assert_eq!(expect_digest(&artifact, reference), Ok(()));
        assert!(expect_digest(&artifact, reference ^ 1).is_err());
        let flipped = json!({"clients": 4, "totals": {"queries": 8, "answered": 6}});
        assert!(expect_digest(&flipped, reference).is_err());
    }

    #[test]
    fn digests_are_only_enforced_at_the_default_seed() {
        let artifact = json!({"n": 1});
        assert!(super::artifact(Workload::Reach, Size::Smoke, DEFAULT_SEED, &artifact).is_err());
        assert_eq!(
            super::artifact(Workload::Reach, Size::Smoke, DEFAULT_SEED + 1, &artifact),
            Ok(())
        );
    }
}
