//! The three workloads and one repetition of each: untraced through the
//! user-facing `experiments::run`, or traced through the public calls
//! into each layer that the study's cached leg makes.

use crate::check::{self, EpochTruth};
use crate::procfs;
use crate::trace::{object, Span, Tracer};
use doe_core::experiments;
use doe_core::{Study, StudyConfig};
use doe_scanner::campaign::{compact_space, full_space};
use doe_scanner::sweep::{syn_sweep_sharded, AddressSpace};
use doe_scanner::verify::verify_resolvers_sharded;
use doe_traffic::{build_stub_world, stub_population_sharded, StubPopulationConfig};
use doe_vantage::reachability::reachability_test_sharded;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use worldgen::{ClientInfo, ClientPool, World};

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-scale scan address space at the last scan epoch (Figure 3).
    Campaign,
    /// Table 4 reachability over both vantage pools at client scale 0.25.
    Reach,
    /// 500K event-driven stub clients on the scheduler (`stub-scale`).
    StubFleet,
}

/// How big a repetition is: the measured size, or a tiny one for the
/// benchmark's own smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Seconds-long inputs that exercise every code path of a workload.
    Smoke,
}

/// Study builds per repetition; `setup_s` is their median.
const SETUPS: usize = 5;

/// The campaign's scan epochs (the study's one-epoch mode scans the last).
const CAMPAIGN_EPOCHS: [usize; 1] = [9];

/// The sweep's target port.
const DOT_PORT: u16 = 853;

/// The resolver whose DoT failures trigger forensic probing (as in
/// `Study::reach_global`).
const FORENSICS_ON: &str = "Cloudflare";

/// `reach` may send at most this share of `campaign`'s sweep probes.
const REACH_PROBE_SHARE: f64 = 0.01;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::Reach, Workload::StubFleet];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Reach => "reach",
            Workload::StubFleet => "stub-fleet",
        }
    }

    /// The experiment whose artifact the workload produces.
    pub fn experiment(self) -> &'static str {
        match self {
            Workload::Campaign => "figure3",
            Workload::Reach => "table4",
            Workload::StubFleet => "stub-scale",
        }
    }

    /// What one work unit is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Campaign => "address swept",
            Workload::Reach => "vantage client tested",
            Workload::StubFleet => "stub client run",
        }
    }

    /// The study configuration for `seed`, with shards pinned to the
    /// host's available parallelism.
    pub fn config(self, seed: u64, size: Size) -> StudyConfig {
        let base = match size {
            Size::Full if self != Workload::StubFleet => StudyConfig::paper(seed),
            _ => StudyConfig::quick(seed),
        };
        let shards = shards();
        match (self, size) {
            (Workload::Campaign, _) => StudyConfig {
                epochs: CAMPAIGN_EPOCHS.len(),
                shards,
                ..base
            },
            (Workload::Reach, Size::Full) => StudyConfig {
                scale: 0.25,
                shards,
                ..base
            },
            (Workload::Reach, Size::Smoke) => StudyConfig {
                reach_stride: 25,
                shards,
                ..base
            },
            (Workload::StubFleet, Size::Full) => StudyConfig {
                sim_clients: 500_000,
                shards,
                ..base
            },
            (Workload::StubFleet, Size::Smoke) => StudyConfig {
                sim_clients: 2_000,
                shards,
                ..base
            },
        }
    }
}

impl Size {
    /// Parse a size name.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }

    /// The size's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// Worker threads for the sharded stages: one per available core.
pub fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The address space the campaign sweeps, as `Study::campaign` builds it.
fn scan_space(world: &World, config: &StudyConfig) -> AddressSpace {
    if config.full_sweep {
        full_space(world)
    } else {
        compact_space(world)
    }
}

/// The pool's clients the reachability test visits, as `Study` picks them.
fn reach_clients(pool: &ClientPool, config: &StudyConfig) -> Vec<ClientInfo> {
    pool.clients
        .iter()
        .step_by(config.reach_stride.max(1))
        .cloned()
        .collect()
}

fn verdict(result: Result<(), String>) -> (bool, String) {
    match result {
        Ok(()) => (true, String::new()),
        Err(detail) => (false, detail),
    }
}

/// One untraced repetition in a fresh process: build the study
/// [`SETUPS`] times, time `experiments::run` once, time it again with the
/// leg cached, then check the outputs.
pub fn run_untraced(workload: Workload, seed: u64, size: Size) -> Value {
    let config = workload.config(seed, size);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(Study::new(config.clone()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut study = built.expect("SETUPS > 0");

    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let result = experiments::run(&mut study, workload.experiment()).expect("known experiment");
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    let peak_rss_kib = procfs::vm_kib("VmHWM");
    black_box(&result);

    let t = Instant::now();
    let again = experiments::run(&mut study, workload.experiment()).expect("known experiment");
    let render_s = t.elapsed().as_secs_f64();

    let (units, invariants) = check_study(workload, &mut study, &config);
    let checked = invariants
        .and_then(|()| check::artifact(workload, size, seed, &result.json))
        .and_then(|()| {
            if again.json == result.json {
                Ok(())
            } else {
                Err("artifact changed when rendered from the cached leg".into())
            }
        });
    let (ok, detail) = verdict(checked);
    json!({
        "ok": ok,
        "detail": detail,
        "units": units,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_kib": peak_rss_kib,
        "render_s": render_s,
        "digest": format!("{:#018x}", check::digest(&result.json)),
    })
}

/// Work units of a finished study and the invariant check of its cached
/// leg.
fn check_study(
    workload: Workload,
    study: &mut Study,
    config: &StudyConfig,
) -> (u64, Result<(), String>) {
    match workload {
        Workload::Campaign => {
            let space = scan_space(&study.world, config).len();
            let epochs: Vec<_> = study
                .campaign()
                .epochs
                .iter()
                .map(|e| (e.date, e.open_resolvers, e.stats.probed))
                .collect();
            let truths: Vec<EpochTruth> = epochs
                .iter()
                .map(|&(date, measured, probed)| {
                    study.world.set_epoch(date);
                    EpochTruth {
                        measured,
                        truth: study.world.online_dot_resolvers(),
                        probed,
                        space,
                    }
                })
                .collect();
            (space * epochs.len() as u64, check::campaign(&truths))
        }
        Workload::Reach => {
            let global = reach_clients(&study.world.proxyrack, config).len();
            let cn = reach_clients(&study.world.zhima, config).len();
            let checked = check::reach(study.reach_global(), global)
                .and_then(|()| check::reach(study.reach_cn(), cn));
            ((global + cn) as u64, checked)
        }
        Workload::StubFleet => {
            let clients = config.sim_clients as u64;
            (clients, check::stub_fleet(study.stub_population(), clients))
        }
    }
}

/// Every per-layer metric with its unit, in report order. Metrics of a
/// layer a workload does not run read 0 on it.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("worldgen.build_s", "s"),
    ("worldgen.set_epoch_s", "s"),
    ("scanner.space_s", "s"),
    ("scanner.sweep.wall_s", "s"),
    ("scanner.sweep.probes", "count"),
    ("scanner.sweep.ns_per_probe", "ns"),
    ("scanner.sweep.open_ratio", "ratio"),
    ("scanner.sweep.cpu_eff", "ratio"),
    ("scanner.verify.wall_s", "s"),
    ("scanner.verify.sessions", "count"),
    ("scanner.verify.us_per_session", "us"),
    ("scanner.verify.resolver_ratio", "ratio"),
    ("scanner.verify.not_tls", "count"),
    ("scanner.verify.cpu_eff", "ratio"),
    ("netsim.tcp.connects", "count"),
    ("netsim.tcp.exchanges", "count"),
    ("netsim.udp.exchanges", "count"),
    ("netsim.bytes", "bytes"),
    ("netsim.path.retransmits", "count"),
    ("netsim.path.timeouts", "count"),
    ("netsim.path.resets", "count"),
    ("netsim.udp.drops", "count"),
    ("netsim.sched.events", "count"),
    ("netsim.sched.events.timer", "count"),
    ("netsim.sched.events.deliver", "count"),
    ("netsim.sched.events.idle_close", "count"),
    ("netsim.sched.events.retransmit", "count"),
    ("netsim.sched.peak_depth", "count"),
    ("netsim.sched.ns_per_event", "ns"),
    ("vantage.reach.wall_s", "s"),
    ("vantage.reach.global.wall_s", "s"),
    ("vantage.reach.cn.wall_s", "s"),
    ("vantage.reach.clients", "count"),
    ("vantage.reach.us_per_client", "us"),
    ("vantage.reach.exchanges_per_client", "count"),
    ("vantage.reach.failed_share", "ratio"),
    ("vantage.reach.forensics", "count"),
    ("vantage.reach.cpu_eff", "ratio"),
    ("traffic.stub_world_s", "s"),
    ("traffic.stubsim.wall_s", "s"),
    ("traffic.stubsim.queries", "count"),
    ("traffic.stubsim.reuse_ratio", "ratio"),
    ("traffic.stubsim.timeouts", "count"),
    ("traffic.stubsim.retransmits", "count"),
    ("traffic.stubsim.cpu_eff", "ratio"),
    ("traffic.stubsim.rss_bytes_per_client", "bytes"),
    ("tlssim.cert.valid", "count"),
    ("tlssim.cert.invalid", "count"),
    ("doe.dot.outcomes", "count"),
    ("doe.doh.outcomes", "count"),
    ("doe.dns.outcomes", "count"),
    ("core.render_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.uncovered_s", "s"),
    ("bench.uncovered_share", "ratio"),
];

/// `num / den`, 0 when nothing was done.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics a traced repetition measures directly.
type Layers = BTreeMap<&'static str, f64>;

/// CPU seconds per wall second per shard.
fn cpu_eff(span: &Span) -> f64 {
    ratio(span.cpu_s, span.wall_s() * shards() as f64)
}

/// The counts every workload shares, from the span whose registry saw
/// the workload's traffic; `sched_stage` is the span of the stage that runs
/// the scheduler.
fn shared_counts(layers: &mut Layers, counts: &Span, sched_stage: Option<&Span>) {
    let c = |key: &str| counts.counter(key) as f64;
    let family = |name: &str| counts.counter_family(name) as f64;
    layers.insert("netsim.tcp.connects", c("net.tcp.connect_us#count"));
    layers.insert("netsim.tcp.exchanges", c("net.tcp.exchange_us#count"));
    layers.insert("netsim.udp.exchanges", c("net.udp.exchange_us#count"));
    layers.insert("netsim.bytes", c("net.bytes.rx") + c("net.bytes.tx"));
    layers.insert("netsim.path.retransmits", c("net.path.retransmit"));
    layers.insert("netsim.path.timeouts", family("net.path.timeout"));
    layers.insert("netsim.path.resets", family("net.path.reset"));
    layers.insert("netsim.udp.drops", family("net.path.udp_drop"));
    let events = family("sched.event.fired");
    layers.insert("netsim.sched.events", events);
    for (kind, name) in [
        ("timer", "netsim.sched.events.timer"),
        ("deliver", "netsim.sched.events.deliver"),
        ("idle_close", "netsim.sched.events.idle_close"),
        ("retransmit", "netsim.sched.events.retransmit"),
    ] {
        layers.insert(name, c(&format!("sched.event.fired{{kind={kind}}}")));
    }
    layers.insert("netsim.sched.peak_depth", c("sched.queue.depth#max"));
    let sched_ns = sched_stage.map_or(0.0, |s| s.wall_s() * 1e9);
    layers.insert("netsim.sched.ns_per_event", ratio(sched_ns, events));
    layers.insert("scanner.sweep.probes", c("net.probe.sent"));
    layers.insert(
        "scanner.sweep.open_ratio",
        ratio(c("net.probe.open"), c("net.probe.sent")),
    );
    let sessions = c("stage.verify.session_us#count");
    layers.insert("scanner.verify.sessions", sessions);
    layers.insert(
        "scanner.verify.resolver_ratio",
        ratio(c("stage.verify.outcome{class=open_resolver}"), sessions),
    );
    layers.insert(
        "scanner.verify.not_tls",
        c("stage.verify.outcome{class=not_tls}"),
    );
    layers.insert("tlssim.cert.valid", c("stage.verify.cert{status=valid}"));
    layers.insert(
        "tlssim.cert.invalid",
        family("stage.verify.cert") - c("stage.verify.cert{status=valid}"),
    );
    for (transport, name) in [
        ("DoT", "doe.dot.outcomes"),
        ("DoH", "doe.doh.outcomes"),
        ("DNS", "doe.dns.outcomes"),
    ] {
        let n: u64 = counts
            .counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("stage.reach.result{")
                    && k.contains(&format!("transport={transport}}}"))
            })
            .map(|(_, v)| v)
            .sum();
        layers.insert(name, n as f64);
    }
}

/// One traced repetition in a fresh process: the calls the study's leg
/// makes, each inside a span, with the workload's outputs checked and the
/// layer split it was chosen for asserted.
pub fn run_traced(workload: Workload, seed: u64, size: Size) -> Value {
    let config = workload.config(seed, size);
    let shards = config.effective_shards();
    let mut tr = Tracer::new();
    let mut layers = Layers::new();

    let run = tr.begin("run", None);
    let setup = tr.begin("setup", None);
    let t = tr.begin("worldgen.build", None);
    let mut study = Study::new(config.clone());
    tr.end(t, None);
    tr.end(setup, None);

    let leg = tr.begin(workload.name(), Some(study.world.net.metrics()));
    let (units, checked) = match workload {
        Workload::Campaign => {
            let t = tr.begin("scanner.space", None);
            let space = scan_space(&study.world, &config);
            tr.end(t, None);
            let mut truths = Vec::new();
            for epoch in CAMPAIGN_EPOCHS {
                let world = &mut study.world;
                let e = tr.begin(format!("campaign.epoch{epoch}"), Some(world.net.metrics()));
                let t = tr.begin("worldgen.set_epoch", None);
                world.set_epoch(world.config.scan_date(epoch));
                tr.end(t, None);
                let sources = world.scanner_sources.clone();
                let t = tr.begin("scanner.sweep", Some(world.net.metrics()));
                let sweep = syn_sweep_sharded(
                    &mut world.net,
                    &sources,
                    &space,
                    DOT_PORT,
                    seed ^ ((epoch as u64) << 32),
                    shards,
                );
                tr.end(t, Some(world.net.metrics()));
                let store = world.trust_store.clone();
                let apex = world.probe.apex.to_string();
                let date = world.epoch();
                let t = tr.begin("scanner.verify", Some(world.net.metrics()));
                let observations = verify_resolvers_sharded(
                    &mut world.net,
                    &sources,
                    &sweep.open_addrs,
                    apex.trim_end_matches('.'),
                    world.probe.expected_a,
                    &store,
                    date,
                    &format!("e{epoch}"),
                    shards,
                );
                tr.end(t, Some(world.net.metrics()));
                tr.end(e, Some(world.net.metrics()));
                truths.push(EpochTruth {
                    measured: observations.open_resolvers(),
                    truth: world.online_dot_resolvers(),
                    probed: sweep.stats.probed,
                    space: space.len(),
                });
            }
            let units = space.len() * CAMPAIGN_EPOCHS.len() as u64;
            (units, check::campaign(&truths))
        }
        Workload::Reach => {
            let mut units = 0u64;
            let mut failed = 0usize;
            let mut outcomes = 0usize;
            let mut forensics = 0usize;
            let mut checked = Ok(());
            for (span, cn) in [("vantage.reach.global", false), ("vantage.reach.cn", true)] {
                let pool = if cn {
                    &study.world.zhima
                } else {
                    &study.world.proxyrack
                };
                let clients = reach_clients(pool, &config);
                let t = tr.begin(span, None);
                let report =
                    reachability_test_sharded(&mut study.world, &clients, FORENSICS_ON, shards);
                tr.end(t, None);
                units += clients.len() as u64;
                for counts in report.matrix.values().flat_map(|row| row.values()) {
                    failed += counts.failed;
                    outcomes += counts.total();
                }
                forensics += report.forensics.len();
                checked = checked.and_then(|()| check::reach(&report, clients.len()));
            }
            layers.insert("vantage.reach.clients", units as f64);
            layers.insert(
                "vantage.reach.failed_share",
                ratio(failed as f64, outcomes as f64),
            );
            layers.insert("vantage.reach.forensics", forensics as f64);
            (units, checked)
        }
        Workload::StubFleet => {
            let t = tr.begin("traffic.stub_world", None);
            let mut stubs = build_stub_world(config.seed ^ 0x57ab, config.metrics);
            tr.end(t, None);
            let clients = config.sim_clients;
            let rss_before = procfs::vm_kib("VmRSS");
            let t = tr.begin("traffic.stubsim", Some(stubs.net.metrics()));
            let report = stub_population_sharded(
                &mut stubs,
                &StubPopulationConfig {
                    clients,
                    ..StubPopulationConfig::default()
                },
                shards,
            );
            tr.end(t, Some(stubs.net.metrics()));
            let grown_kib = procfs::vm_kib("VmHWM").saturating_sub(rss_before);
            let t = tr.begin("telemetry.merge", None);
            study.world.net.metrics_mut().merge(stubs.net.metrics());
            tr.end(t, None);
            let totals = &report.totals;
            layers.insert("traffic.stubsim.queries", totals.queries as f64);
            layers.insert(
                "traffic.stubsim.reuse_ratio",
                ratio(totals.reused as f64, totals.queries as f64),
            );
            layers.insert("traffic.stubsim.timeouts", totals.timeouts as f64);
            layers.insert("traffic.stubsim.retransmits", totals.retransmits as f64);
            layers.insert(
                "traffic.stubsim.rss_bytes_per_client",
                ratio(grown_kib as f64 * 1024.0, clients as f64),
            );
            (clients as u64, check::stub_fleet(&report, clients as u64))
        }
    };
    tr.end(leg, Some(study.world.net.metrics()));
    tr.end(run, None);
    drop(study);

    let span = |name: &str| tr.get(name).cloned();
    let wall = |name: &str| span(name).map_or(0.0, |s| s.wall_s());
    let leg_index = tr.find(workload.name()).expect("leg span recorded");
    let leg = span(workload.name()).expect("leg span recorded");
    let stages_s = leg.wall_s() - tr.self_s(leg_index);
    let stage = match workload {
        Workload::Campaign | Workload::Reach => leg.clone(),
        Workload::StubFleet => span("traffic.stubsim").expect("stubsim span recorded"),
    };
    let sched_stage = match workload {
        Workload::Campaign => None,
        Workload::Reach | Workload::StubFleet => Some(&stage),
    };
    shared_counts(&mut layers, &stage, sched_stage);

    layers.insert("worldgen.build_s", wall("worldgen.build"));
    layers.insert("worldgen.set_epoch_s", wall("worldgen.set_epoch"));
    layers.insert("scanner.space_s", wall("scanner.space"));
    if let Some(sweep) = span("scanner.sweep") {
        layers.insert("scanner.sweep.wall_s", sweep.wall_s());
        layers.insert(
            "scanner.sweep.ns_per_probe",
            ratio(sweep.wall_s() * 1e9, sweep.counter("net.probe.sent") as f64),
        );
        layers.insert("scanner.sweep.cpu_eff", cpu_eff(&sweep));
    }
    if let Some(verify) = span("scanner.verify") {
        layers.insert("scanner.verify.wall_s", verify.wall_s());
        layers.insert(
            "scanner.verify.us_per_session",
            ratio(
                verify.wall_s() * 1e6,
                verify.counter("stage.verify.session_us#count") as f64,
            ),
        );
        layers.insert("scanner.verify.cpu_eff", cpu_eff(&verify));
    }
    if workload == Workload::Reach {
        let clients = units as f64;
        layers.insert("vantage.reach.wall_s", leg.wall_s());
        layers.insert("vantage.reach.global.wall_s", wall("vantage.reach.global"));
        layers.insert("vantage.reach.cn.wall_s", wall("vantage.reach.cn"));
        layers.insert(
            "vantage.reach.us_per_client",
            ratio(leg.wall_s() * 1e6, clients),
        );
        let exchanges = layers["netsim.tcp.exchanges"] + layers["netsim.udp.exchanges"];
        layers.insert(
            "vantage.reach.exchanges_per_client",
            ratio(exchanges, clients),
        );
        layers.insert("vantage.reach.cpu_eff", cpu_eff(&leg));
    }
    if workload == Workload::StubFleet {
        layers.insert("traffic.stub_world_s", wall("traffic.stub_world"));
        layers.insert("traffic.stubsim.wall_s", stage.wall_s());
        layers.insert("traffic.stubsim.cpu_eff", cpu_eff(&stage));
    }

    let checked = checked.and_then(|()| bypass(workload, &layers, seed, size));
    let (ok, detail) = verdict(checked);
    json!({
        "ok": ok,
        "detail": detail,
        "units": units,
        "leg_s": leg.wall_s(),
        "stages_s": stages_s,
        "layers": object(&layers),
        "spans": tr.to_json(),
    })
}

/// Assert the layer split each workload was chosen for.
fn bypass(workload: Workload, layers: &Layers, seed: u64, size: Size) -> Result<(), String> {
    let probes = layers["scanner.sweep.probes"];
    match workload {
        Workload::Campaign => {
            let events = layers["netsim.sched.events"];
            if events > 0.0 {
                return Err(format!("campaign fired {events} scheduler events"));
            }
        }
        Workload::StubFleet => {
            let sessions = layers["scanner.verify.sessions"];
            if probes > 0.0 || sessions > 0.0 {
                return Err(format!(
                    "stub-fleet sent {probes} sweep probes and ran {sessions} verify sessions"
                ));
            }
        }
        Workload::Reach => {
            // One sweep probe per address of the campaign's space.
            let config = Workload::Campaign.config(seed, size);
            let study = Study::new(config.clone());
            let campaign_probes = scan_space(&study.world, &config).len() as f64;
            if probes >= REACH_PROBE_SHARE * campaign_probes {
                return Err(format!(
                    "reach sent {probes} sweep probes, campaign sends {campaign_probes}"
                ));
            }
        }
    }
    Ok(())
}
