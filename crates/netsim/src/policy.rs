//! Path policies: the in-path devices and filters that the reachability
//! study attributes failures to (§4.2 of the paper).
//!
//! A [`PolicySet`] is an ordered rule list; the first rule whose matchers
//! accept a `(src, dst, port, proto)` tuple decides the path's fate:
//!
//! * [`PathDecision::Blackhole`] — silent drop: addresses used for internal
//!   routing, or censored destinations dropped without signalling.
//! * [`PathDecision::Reset`] — active refusal/injected RST: port-53
//!   filtering appliances and GFW-style connection resets.
//! * [`PathDecision::DivertTo`] — the connection terminates at a different
//!   host: IP-conflict squatters (routers/modems occupying 1.1.1.1) and
//!   TLS-interception middleboxes (which then proxy upstream themselves).
//! * [`PathDecision::Allow`] — hands-off.

use crate::geo::{Asn, CountryCode, Netblock};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Transport selector for rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoMatch {
    /// Either transport.
    Any,
    /// TCP only.
    Tcp,
    /// UDP only.
    Udp,
}

/// Matches the connection's source (the client side).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcMatch {
    /// Every source.
    Any,
    /// Sources in a given country.
    Country(CountryCode),
    /// Sources in a given AS.
    As(Asn),
    /// Sources inside a prefix.
    Block(Netblock),
    /// Sources inside any of the prefixes.
    Blocks(Vec<Netblock>),
}

impl SrcMatch {
    /// Does a source with these attributes match?
    pub fn matches(&self, ip: Ipv4Addr, country: CountryCode, asn: Asn) -> bool {
        match self {
            SrcMatch::Any => true,
            SrcMatch::Country(c) => *c == country,
            SrcMatch::As(a) => *a == asn,
            SrcMatch::Block(b) => b.contains(ip),
            SrcMatch::Blocks(bs) => bs.iter().any(|b| b.contains(ip)),
        }
    }
}

/// Matches the dialled destination address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DstMatch {
    /// Every destination.
    Any,
    /// A single address.
    Ip(Ipv4Addr),
    /// Any of a set of addresses.
    Ips(Vec<Ipv4Addr>),
    /// Destinations inside a prefix.
    Block(Netblock),
}

impl DstMatch {
    /// Does the dialled destination match?
    pub fn matches(&self, ip: Ipv4Addr) -> bool {
        match self {
            DstMatch::Any => true,
            DstMatch::Ip(a) => *a == ip,
            DstMatch::Ips(set) => set.contains(&ip),
            DstMatch::Block(b) => b.contains(ip),
        }
    }
}

/// Matches the dialled destination port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortMatch {
    /// Every port.
    Any,
    /// A single port.
    One(u16),
    /// Any of a set of ports.
    Set(Vec<u16>),
}

impl PortMatch {
    /// Does the dialled port match?
    pub fn matches(&self, port: u16) -> bool {
        match self {
            PortMatch::Any => true,
            PortMatch::One(p) => *p == port,
            PortMatch::Set(ps) => ps.contains(&port),
        }
    }
}

/// What happens to a matched path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathDecision {
    /// Continue normally.
    Allow,
    /// Silently drop everything: the client times out.
    Blackhole,
    /// Inject a reset: the client sees "connection refused/reset" after
    /// one round trip.
    Reset,
    /// Terminate the connection at this other host instead. The service
    /// there sees `PeerInfo::diverted = true` and the original destination.
    DivertTo(Ipv4Addr),
}

/// One ordered rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Reporting name ("GFW Google-DoH block", "AS27699 modem squat", ...).
    pub name: String,
    /// Source matcher.
    pub src: SrcMatch,
    /// Destination matcher.
    pub dst: DstMatch,
    /// Port matcher.
    pub port: PortMatch,
    /// Transport matcher.
    pub proto: ProtoMatch,
    /// Decision applied on match.
    pub decision: PathDecision,
}

impl PolicyRule {
    /// A rule matching everything, allowing it; chain builders to narrow.
    pub fn new(name: &str, decision: PathDecision) -> Self {
        PolicyRule {
            name: name.to_string(),
            src: SrcMatch::Any,
            dst: DstMatch::Any,
            port: PortMatch::Any,
            proto: ProtoMatch::Any,
            decision,
        }
    }

    /// Restrict the source.
    pub fn from_src(mut self, src: SrcMatch) -> Self {
        self.src = src;
        self
    }

    /// Restrict the destination.
    pub fn to_dst(mut self, dst: DstMatch) -> Self {
        self.dst = dst;
        self
    }

    /// Restrict the port.
    pub fn on_port(mut self, port: PortMatch) -> Self {
        self.port = port;
        self
    }

    /// Restrict the transport.
    pub fn over(mut self, proto: ProtoMatch) -> Self {
        self.proto = proto;
        self
    }

    /// Does the rule accept this flow? Cheap matchers first: the source
    /// test may walk a prefix list.
    fn accepts(
        &self,
        src_ip: Ipv4Addr,
        src_country: CountryCode,
        src_asn: Asn,
        dst_ip: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> bool {
        proto_ok(self.proto, is_tcp)
            && self.port.matches(port)
            && self.dst.matches(dst_ip)
            && self.src.matches(src_ip, src_country, src_asn)
    }
}

/// Whether a rule's transport matcher accepts a concrete transport.
fn proto_ok(rule: ProtoMatch, is_tcp: bool) -> bool {
    matches!(
        (rule, is_tcp),
        (ProtoMatch::Any, _) | (ProtoMatch::Tcp, true) | (ProtoMatch::Udp, false)
    )
}

/// Candidate rules by source, maintained by [`PolicySet::push`].
///
/// Prefix-scoped rules (`Block`/`Blocks`) are stabbed through a
/// segmentation of the address space: `starts` splits it into segments
/// that every rule prefix either covers whole or misses, and `covering`
/// lists, per segment, the covering rules in ascending rule order. All
/// other rules (`Any`/`Country`/`As`) are candidates for every source.
#[derive(Debug, Clone, Default)]
struct SourceIndex {
    /// Segment `k` spans `starts[k]..starts[k + 1]` (the last one runs to
    /// the end of the space). Empty until the first prefix rule; from then
    /// on `starts[0] == 0`.
    starts: Vec<u32>,
    /// Rules whose prefixes cover each segment, ascending.
    covering: Vec<Vec<usize>>,
    /// Rules matching sources by country, AS or not at all, ascending.
    general: Vec<usize>,
}

impl SourceIndex {
    fn index_rule(&mut self, rule: usize, src: &SrcMatch) {
        match src {
            SrcMatch::Any | SrcMatch::Country(_) | SrcMatch::As(_) => self.general.push(rule),
            SrcMatch::Block(block) => self.cover_block(rule, *block),
            SrcMatch::Blocks(blocks) => blocks.iter().for_each(|b| self.cover_block(rule, *b)),
        }
    }

    /// Add `rule` to every segment inside `block`, splitting the segments
    /// its edges cut. `rule` is the newest rule, so appending keeps each
    /// list ascending.
    fn cover_block(&mut self, rule: usize, block: Netblock) {
        if self.starts.is_empty() {
            self.starts.push(0);
            self.covering.push(Vec::new());
        }
        let first = u32::from(block.network());
        // Host bits all ones (a /32's host mask is empty).
        let last = first | u32::MAX.checked_shr(u32::from(block.len())).unwrap_or(0);
        let from = self.split_segment(first);
        if let Some(past) = last.checked_add(1) {
            self.split_segment(past);
        }
        let to = self.segment_of(last);
        for rules in &mut self.covering[from..=to] {
            // A `Blocks` rule may list overlapping prefixes.
            if rules.last() != Some(&rule) {
                rules.push(rule);
            }
        }
    }

    /// Make `at` a segment start; returns that segment's index.
    fn split_segment(&mut self, at: u32) -> usize {
        let k = self.segment_of(at);
        if self.starts[k] == at {
            return k;
        }
        let inherited = self.covering[k].clone();
        self.starts.insert(k + 1, at);
        self.covering.insert(k + 1, inherited);
        k + 1
    }

    /// Index of the segment holding `addr` (requires `starts` non-empty).
    fn segment_of(&self, addr: u32) -> usize {
        self.starts.partition_point(|&s| s <= addr) - 1
    }

    /// Prefix-scoped rules whose prefixes contain `addr`, ascending.
    fn covering(&self, addr: u32) -> &[usize] {
        if self.starts.is_empty() {
            return &[];
        }
        &self.covering[self.segment_of(addr)]
    }
}

/// Ordered set of rules; first match wins.
///
/// The ordered rule list is the single source of truth; a source index
/// built alongside it on [`PolicySet::push`] narrows each evaluation to
/// the rules whose source matcher can accept the flow's source.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    rules: Vec<PolicyRule>,
    index: SourceIndex,
}

impl PolicySet {
    /// Empty (allow-everything) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule (evaluated after all existing rules).
    pub fn push(&mut self, rule: PolicyRule) {
        self.index.index_rule(self.rules.len(), &rule.src);
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate the rules in evaluation order.
    pub fn iter(&self) -> impl Iterator<Item = &PolicyRule> {
        self.rules.iter()
    }

    /// Evaluate a path; returns the decision and the matching rule's name.
    ///
    /// Only the source index's candidates are tested, in rule order, so
    /// the first candidate that accepts is the first rule that accepts.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        &self,
        src_ip: Ipv4Addr,
        src_country: CountryCode,
        src_asn: Asn,
        dst_ip: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> (PathDecision, Option<&str>) {
        let mut general = self.index.general.iter().copied().peekable();
        let mut covering = self
            .index
            .covering(u32::from(src_ip))
            .iter()
            .copied()
            .peekable();
        loop {
            let candidate = match (general.peek(), covering.peek()) {
                (Some(&g), Some(&c)) if c < g => covering.next(),
                (Some(_), _) => general.next(),
                (None, _) => covering.next(),
            };
            let Some(i) = candidate else {
                return (PathDecision::Allow, None);
            };
            let rule = &self.rules[i];
            if rule.accepts(src_ip, src_country, src_asn, dst_ip, port, is_tcp) {
                return (rule.decision, Some(rule.name.as_str()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    #[test]
    fn first_match_wins() {
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("block-53", PathDecision::Reset)
                .on_port(PortMatch::One(53))
                .from_src(SrcMatch::Country(cc("ID"))),
        );
        set.push(PolicyRule::new("allow-all", PathDecision::Allow));
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("ID"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Reset);
        assert_eq!(name, Some("block-53"));
        // Same client, port 853: falls through to allow-all.
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("ID"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        assert_eq!(name, Some("allow-all"));
    }

    #[test]
    fn empty_set_allows() {
        let set = PolicySet::new();
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("US"),
            Asn(1),
            "8.8.8.8".parse().unwrap(),
            443,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        assert!(name.is_none());
    }

    #[test]
    fn censorship_rule_matches_country_and_dst_set() {
        let google_doh: Vec<Ipv4Addr> = vec!["216.58.192.10".parse().unwrap()];
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("gfw", PathDecision::Blackhole)
                .from_src(SrcMatch::Country(cc("CN")))
                .to_dst(DstMatch::Ips(google_doh.clone())),
        );
        let (d, _) = set.evaluate(
            "59.0.0.1".parse().unwrap(),
            cc("CN"),
            Asn(4134),
            google_doh[0],
            443,
            true,
        );
        assert_eq!(d, PathDecision::Blackhole);
        // Same dst from the US: allowed.
        let (d, _) = set.evaluate(
            "99.0.0.1".parse().unwrap(),
            cc("US"),
            Asn(7018),
            google_doh[0],
            443,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    #[test]
    fn divert_rule_for_conflict_squatter() {
        let modem: Ipv4Addr = "10.255.0.1".parse().unwrap();
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("modem-squat", PathDecision::DivertTo(modem))
                .from_src(SrcMatch::As(Asn(27699)))
                .to_dst(DstMatch::Ip("1.1.1.1".parse().unwrap())),
        );
        let (d, _) = set.evaluate(
            "177.0.0.9".parse().unwrap(),
            cc("BR"),
            Asn(27699),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::DivertTo(modem));
        // Different AS in the same country: unaffected.
        let (d, _) = set.evaluate(
            "177.0.0.9".parse().unwrap(),
            cc("BR"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    #[test]
    fn proto_and_block_matchers() {
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("udp-only", PathDecision::Blackhole)
                .over(ProtoMatch::Udp)
                .from_src(SrcMatch::Block(Netblock::new(
                    "10.1.0.0".parse().unwrap(),
                    16,
                ))),
        );
        let inside: Ipv4Addr = "10.1.2.3".parse().unwrap();
        let (d, _) = set.evaluate(
            inside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Blackhole);
        let (d, _) = set.evaluate(
            inside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        let outside: Ipv4Addr = "10.2.2.3".parse().unwrap();
        let (d, _) = set.evaluate(
            outside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    /// The linear first-match walk: the reference the source index is
    /// held to.
    fn linear_first_match(
        rules: &[PolicyRule],
        (src, country, asn): (Ipv4Addr, CountryCode, Asn),
        dst: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> (PathDecision, Option<&str>) {
        rules
            .iter()
            .find(|r| {
                proto_ok(r.proto, is_tcp)
                    && r.port.matches(port)
                    && r.dst.matches(dst)
                    && r.src.matches(src, country, asn)
            })
            .map_or((PathDecision::Allow, None), |r| {
                (r.decision, Some(r.name.as_str()))
            })
    }

    /// Random policy sets and flows over a small address universe (three
    /// /8s), so prefixes overlap and flows land on prefix edges.
    struct Gen(SmallRng);

    impl Gen {
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.0.gen_range(0..xs.len())]
        }

        fn addr(&mut self) -> Ipv4Addr {
            let top = self.pick(&[0u32, 10, 255]);
            Ipv4Addr::from(top << 24 | self.0.gen_range(0..1u32 << 24))
        }

        fn block(&mut self) -> Netblock {
            let len = self.pick(&[0u8, 1, 8, 9, 16, 20, 24, 31, 32]);
            Netblock::new(self.addr(), len)
        }

        fn country(&mut self) -> CountryCode {
            cc(self.pick(&["US", "CN", "DE"]))
        }

        fn port(&mut self) -> u16 {
            self.pick(&[53, 443, 853, 8080])
        }

        fn rule(&mut self, i: usize, near: &[Ipv4Addr]) -> PolicyRule {
            let decision = match self.0.gen_range(0..4) {
                0 => PathDecision::Allow,
                1 => PathDecision::Blackhole,
                2 => PathDecision::Reset,
                _ => PathDecision::DivertTo(self.addr()),
            };
            let src = match self.0.gen_range(0..6) {
                0 => SrcMatch::Any,
                1 => SrcMatch::Country(self.country()),
                2 => SrcMatch::As(Asn(self.0.gen_range(1..4))),
                3 => SrcMatch::Block(self.block()),
                _ => SrcMatch::Blocks((0..self.0.gen_range(0..4)).map(|_| self.block()).collect()),
            };
            let dst = match self.0.gen_range(0..4) {
                0 => DstMatch::Any,
                1 => DstMatch::Ip(self.pick(near)),
                2 => DstMatch::Ips(
                    (0..self.0.gen_range(0..3))
                        .map(|_| self.pick(near))
                        .collect(),
                ),
                _ => DstMatch::Block(self.block()),
            };
            let port = match self.0.gen_range(0..3) {
                0 => PortMatch::Any,
                1 => PortMatch::One(self.port()),
                _ => PortMatch::Set((0..self.0.gen_range(0..3)).map(|_| self.port()).collect()),
            };
            let proto = self.pick(&[ProtoMatch::Any, ProtoMatch::Tcp, ProtoMatch::Udp]);
            PolicyRule::new(&format!("rule-{i}"), decision)
                .from_src(src)
                .to_dst(dst)
                .on_port(port)
                .over(proto)
        }
    }

    /// Addresses on and just past every prefix edge the rules mention.
    fn edges(rules: &[PolicyRule]) -> Vec<Ipv4Addr> {
        let mut blocks = Vec::new();
        for r in rules {
            match &r.src {
                SrcMatch::Block(b) => blocks.push(*b),
                SrcMatch::Blocks(bs) => blocks.extend(bs),
                _ => {}
            }
        }
        let mut out = Vec::new();
        for b in blocks {
            let first = u32::from(b.network());
            let last = first.wrapping_add((b.size() - 1) as u32);
            for a in [first.wrapping_sub(1), first, last, last.wrapping_add(1)] {
                out.push(Ipv4Addr::from(a));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn index_agrees_with_linear_first_match(seed in any::<u64>()) {
            let mut g = Gen(SmallRng::seed_from_u64(seed));
            let near: Vec<Ipv4Addr> = (0..4).map(|_| g.addr()).collect();
            let n = g.0.gen_range(0..14);
            let rules: Vec<PolicyRule> = (0..n).map(|i| g.rule(i, &near)).collect();
            let mut set = PolicySet::new();
            for r in &rules {
                set.push(r.clone());
            }
            let mut srcs = edges(&rules);
            srcs.extend((0..32).map(|_| g.addr()));
            for src in srcs {
                let who = (src, g.country(), Asn(g.0.gen_range(1..4)));
                let dst = if g.0.gen_bool(0.5) { g.pick(&near) } else { g.addr() };
                let port = g.port();
                let is_tcp = g.0.gen_bool(0.5);
                prop_assert_eq!(
                    set.evaluate(src, who.1, who.2, dst, port, is_tcp),
                    linear_first_match(&rules, who, dst, port, is_tcp),
                    "src {} dst {} port {} tcp {}", src, dst, port, is_tcp
                );
            }
        }
    }

    #[test]
    fn port_set_matcher() {
        let m = PortMatch::Set(vec![443, 853]);
        assert!(m.matches(443));
        assert!(m.matches(853));
        assert!(!m.matches(53));
    }
}
