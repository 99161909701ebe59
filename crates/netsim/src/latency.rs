//! The latency model: inter-region base RTTs, per-country access quality,
//! anycast short-circuiting and lognormal jitter.
//!
//! The paper's performance study (§4.3, Figure 9, Table 7) is entirely
//! about *relative* latency — Do53 vs DoT vs DoH over identical paths — so
//! what matters here is that (a) paths have realistic magnitudes, (b) the
//! same path yields correlated samples across protocols, and (c) per-country
//! differences (e.g. Indonesia's noisy last mile) are expressible.

use crate::geo::{CountryCode, Region};
use crate::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Base one-way-pair RTTs between regions, in milliseconds.
///
/// Symmetric matrix indexed by [`Region::index`]. Values are coarse public
/// figures for inter-continental paths.
const REGION_RTT_MS: [[f64; 6]; 6] = [
    //            NA     SA     EU     AF     AS     OC
    /* NA */
    [18.0, 120.0, 90.0, 180.0, 185.0, 160.0],
    /* SA */ [120.0, 25.0, 190.0, 250.0, 280.0, 250.0],
    /* EU */ [90.0, 190.0, 16.0, 120.0, 180.0, 260.0],
    /* AF */ [180.0, 250.0, 120.0, 40.0, 200.0, 300.0],
    /* AS */ [185.0, 280.0, 180.0, 200.0, 45.0, 120.0],
    /* OC */ [160.0, 250.0, 260.0, 300.0, 120.0, 20.0],
];

/// Per-path latency characteristics attached to host pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Median last-mile access delay added per endpoint, ms.
    pub access_ms: f64,
    /// Multiplicative jitter sigma (lognormal scale; 0 = deterministic).
    pub jitter_sigma: f64,
    /// Probability that a single packet exchange is lost/retransmitted,
    /// charging one extra RTT.
    pub loss: f64,
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile {
            access_ms: 4.0,
            jitter_sigma: 0.08,
            loss: 0.002,
        }
    }
}

/// Endpoint description consumed by the model.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    /// Latency region of the endpoint.
    pub region: Region,
    /// Country, for per-country overrides.
    pub country: CountryCode,
    /// Anycast services are reached at the nearest point of presence
    /// regardless of where the "home" host sits.
    pub anycast: bool,
}

/// A flow's latency parameters, resolved once from its two endpoints and
/// destination port. Every round trip on the flow samples from it, so an
/// open connection never re-resolves its endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Path {
    /// Median round trip before jitter, ms: transit, both endpoints'
    /// access delays and the source country's penalty for the port.
    pub(crate) base_ms: f64,
    /// Lognormal jitter scale (the bottleneck endpoint's).
    pub(crate) sigma: f64,
    /// Per-exchange loss probability (the bottleneck endpoint's).
    pub(crate) loss: f64,
}

impl Path {
    /// Sample one round-trip time.
    ///
    /// Jitter is multiplicative lognormal so tails are one-sided (paths get
    /// slower, not faster-than-light).
    pub(crate) fn sample_rtt<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_millis_f64(self.base_ms * lognormal_factor(self.sigma, rng))
    }

    /// Roll whether one exchange is lost and retransmitted.
    pub(crate) fn lost<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.loss.clamp(0.0, 1.0))
    }
}

/// Dense slot of a two-letter country code in [`CountryTable`].
fn letter_index(country: CountryCode) -> Option<usize> {
    match *country.as_str().as_bytes() {
        [a @ b'A'..=b'Z', b @ b'A'..=b'Z'] => {
            Some(usize::from(a - b'A') * 26 + usize::from(b - b'A'))
        }
        _ => None,
    }
}

/// One country's overrides.
#[derive(Debug, Clone, Default)]
struct CountryLatency {
    /// Access profile; `None` falls back to the model's default.
    profile: Option<LatencyProfile>,
    /// Extra ms per round trip for clients in the country, by port.
    port_penalty_ms: Vec<(u16, f64)>,
}

/// Per-country overrides, indexed densely by two-letter code: a lookup is
/// one array read, no hashing.
#[derive(Debug, Clone)]
struct CountryTable {
    /// `entries` index plus one for each of the 26×26 codes; 0 = none.
    slots: Vec<u16>,
    entries: Vec<CountryLatency>,
}

impl Default for CountryTable {
    fn default() -> Self {
        CountryTable {
            slots: vec![0; 26 * 26],
            entries: Vec::new(),
        }
    }
}

impl CountryTable {
    fn overrides(&self, country: CountryCode) -> Option<&CountryLatency> {
        let slot = self.slots[letter_index(country)?].checked_sub(1)?;
        self.entries.get(usize::from(slot))
    }

    /// # Panics
    /// Panics unless `country` is two ASCII letters — overrides are keyed
    /// by ISO-3166 codes, which worldgen spells as constants.
    fn overrides_mut(&mut self, country: CountryCode) -> &mut CountryLatency {
        let i = letter_index(country)
            .unwrap_or_else(|| panic!("latency override for non-ISO code {country}"));
        if self.slots[i] == 0 {
            self.entries.push(CountryLatency::default());
            self.slots[i] = u16::try_from(self.entries.len()).expect("at most 26×26 countries");
        }
        let slot = usize::from(self.slots[i] - 1);
        &mut self.entries[slot]
    }
}

/// The deterministic-given-seed latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Default per-path profile.
    pub default_profile: LatencyProfile,
    /// Country-specific profile overrides (looked up for *both* endpoints;
    /// the worse access/jitter wins, modelling the bottleneck last mile)
    /// and per-port penalties: extra per-round-trip delay applied when the
    /// *client's* country slow-paths a destination port (DPI queueing /
    /// traffic engineering of DNS ports — what makes some countries'
    /// port-53 or port-853 paths slower than their port-443 paths,
    /// Figure 9 of the paper).
    countries: CountryTable,
    /// RTT to the nearest anycast PoP, per region, ms.
    pub anycast_pop_ms: [f64; 6],
    /// Bandwidth used to charge transmission time, bytes per millisecond.
    pub bytes_per_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            default_profile: LatencyProfile::default(),
            countries: CountryTable::default(),
            // Anycast PoPs are dense in NA/EU, sparser elsewhere.
            anycast_pop_ms: [8.0, 35.0, 8.0, 45.0, 30.0, 25.0],
            // ~10 Mbit/s residential downlink.
            bytes_per_ms: 1250.0,
        }
    }
}

impl LatencyModel {
    /// Register a country override.
    ///
    /// # Panics
    /// Panics unless `country` is two ASCII letters.
    pub fn set_country_profile(&mut self, country: CountryCode, profile: LatencyProfile) {
        self.countries.overrides_mut(country).profile = Some(profile);
    }

    /// Register a per-port penalty for clients in `country`.
    ///
    /// # Panics
    /// Panics unless `country` is two ASCII letters.
    pub fn set_port_penalty(&mut self, country: CountryCode, port: u16, extra_ms: f64) {
        let penalties = &mut self.countries.overrides_mut(country).port_penalty_ms;
        match penalties.iter_mut().find(|(p, _)| *p == port) {
            Some(entry) => entry.1 = extra_ms,
            None => penalties.push((port, extra_ms)),
        }
    }

    fn profile_in(&self, entry: Option<&CountryLatency>) -> LatencyProfile {
        entry
            .and_then(|e| e.profile)
            .unwrap_or(self.default_profile)
    }

    /// Resolve a flow's [`Path`]: the base RTT between two endpoints plus,
    /// with a `port`, the source country's penalty for it; the bottleneck
    /// endpoint's jitter and loss.
    pub(crate) fn path(&self, src: Endpoint, dst: Endpoint, port: Option<u16>) -> Path {
        let transit = if dst.anycast {
            self.anycast_pop_ms[src.region.index()]
        } else if src.anycast {
            self.anycast_pop_ms[dst.region.index()]
        } else {
            REGION_RTT_MS[src.region.index()][dst.region.index()]
        };
        let src_entry = self.countries.overrides(src.country);
        let ps = self.profile_in(src_entry);
        let pd = self.profile_in(self.countries.overrides(dst.country));
        let mut base_ms = transit + ps.access_ms + pd.access_ms;
        let penalty = src_entry
            .zip(port)
            .and_then(|(e, port)| e.port_penalty_ms.iter().find(|(p, _)| *p == port));
        if let Some(&(_, extra_ms)) = penalty {
            base_ms += extra_ms;
        }
        Path {
            base_ms,
            sigma: ps.jitter_sigma.max(pd.jitter_sigma),
            loss: ps.loss.max(pd.loss),
        }
    }

    /// Sample one round-trip time between two endpoints (no port
    /// penalty); see [`Path::sample_rtt`].
    pub fn sample_rtt<R: Rng + ?Sized>(
        &self,
        src: Endpoint,
        dst: Endpoint,
        rng: &mut R,
    ) -> SimDuration {
        self.path(src, dst, None).sample_rtt(rng)
    }

    /// Time to push `bytes` through the path, excluding propagation.
    pub fn transmission(&self, bytes: usize) -> SimDuration {
        SimDuration::from_millis_f64(bytes as f64 / self.bytes_per_ms)
    }
}

/// Sample `exp(sigma * Z)` with `Z ~ N(0,1)` via Box–Muller, normalised so
/// the *median* factor is 1.
fn lognormal_factor<R: Rng + ?Sized>(sigma: f64, rng: &mut R) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ep(cc: &str, anycast: bool) -> Endpoint {
        let country = CountryCode::new(cc);
        Endpoint {
            region: crate::geo::region_of(country),
            country,
            anycast,
        }
    }

    fn base_ms(m: &LatencyModel, src: Endpoint, dst: Endpoint) -> f64 {
        m.path(src, dst, None).base_ms
    }

    #[test]
    fn matrix_is_symmetric() {
        for (i, row) in REGION_RTT_MS.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, REGION_RTT_MS[j][i], "({i},{j})");
            }
        }
    }

    #[test]
    fn intercontinental_slower_than_local() {
        let m = LatencyModel::default();
        let local = base_ms(&m, ep("DE", false), ep("FR", false));
        let far = base_ms(&m, ep("DE", false), ep("AU", false));
        assert!(far > 2.0 * local, "far {far} vs local {local}");
    }

    #[test]
    fn anycast_short_circuits_distance() {
        let m = LatencyModel::default();
        let au_to_us_unicast = base_ms(&m, ep("AU", false), ep("US", false));
        let au_to_anycast = base_ms(&m, ep("AU", false), ep("US", true));
        assert!(au_to_anycast < au_to_us_unicast / 3.0);
    }

    #[test]
    fn country_profile_raises_access_delay() {
        let mut m = LatencyModel::default();
        let before = base_ms(&m, ep("ID", false), ep("US", true));
        m.set_country_profile(
            CountryCode::new("ID"),
            LatencyProfile {
                access_ms: 30.0,
                jitter_sigma: 0.4,
                loss: 0.02,
            },
        );
        let after = base_ms(&m, ep("ID", false), ep("US", true));
        assert!(after > before + 20.0);
        assert!(m.path(ep("ID", false), ep("US", true), None).loss >= 0.02);
    }

    #[test]
    fn port_penalty_follows_the_source_country() {
        let mut m = LatencyModel::default();
        m.set_port_penalty(CountryCode::new("ID"), 853, 40.0);
        m.set_port_penalty(CountryCode::new("ID"), 853, 25.0);
        let (id, us) = (ep("ID", false), ep("US", true));
        let base = base_ms(&m, id, us);
        assert_eq!(m.path(id, us, Some(853)).base_ms, base + 25.0);
        assert_eq!(m.path(id, us, Some(443)).base_ms, base);
        assert_eq!(m.path(us, id, Some(853)).base_ms, base_ms(&m, us, id));
    }

    #[test]
    #[should_panic(expected = "non-ISO")]
    fn overrides_need_two_letter_codes() {
        LatencyModel::default()
            .set_country_profile(CountryCode::new("4X"), LatencyProfile::default());
    }

    #[test]
    fn jitter_is_median_neutral_and_positive() {
        let m = LatencyModel::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let src = ep("US", false);
        let dst = ep("US", true);
        let base = base_ms(&m, src, dst);
        let mut samples: Vec<f64> = (0..2001)
            .map(|_| m.sample_rtt(src, dst, &mut rng).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - base).abs() / base < 0.05,
            "median {median} vs base {base}"
        );
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn determinism_under_same_seed() {
        let m = LatencyModel::default();
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..16)
                .map(|_| m.sample_rtt(ep("BR", false), ep("US", true), &mut rng))
                .collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..16)
                .map(|_| m.sample_rtt(ep("BR", false), ep("US", true), &mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn transmission_scales_with_bytes() {
        let m = LatencyModel::default();
        assert_eq!(m.transmission(0), SimDuration::ZERO);
        assert!(m.transmission(12_500) >= SimDuration::from_millis(9));
    }
}
