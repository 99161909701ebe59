//! Hosts: addressable endpoints with geo metadata and bound services.

use crate::geo::{region_of, Asn, CountryCode, Region};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Static description of a host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostMeta {
    /// The host's address.
    pub ip: Ipv4Addr,
    /// Country of the host.
    pub country: CountryCode,
    /// Latency region (derived from country unless overridden).
    pub region: Region,
    /// Autonomous system announcing the host's prefix.
    pub asn: Asn,
    /// Whether the address is anycast (reached at the nearest PoP).
    pub anycast: bool,
    /// Free-form label for reporting ("Cloudflare resolver", "MikroTik
    /// router", ...).
    pub label: String,
    /// Reverse-DNS name, if any (the paper checks PTR records of DoT
    /// clients, §5.2).
    pub rdns: Option<String>,
}

impl HostMeta {
    /// A host in the US with an unspecified AS; chain builder methods to
    /// refine.
    pub fn new(ip: Ipv4Addr) -> Self {
        let country = CountryCode::new("US");
        HostMeta {
            ip,
            country,
            region: region_of(country),
            asn: Asn(0),
            anycast: false,
            label: String::new(),
            rdns: None,
        }
    }

    /// Set the country (also updates the region).
    pub fn country(mut self, code: &str) -> Self {
        self.country = CountryCode::new(code);
        self.region = region_of(self.country);
        self
    }

    /// Set the AS number.
    pub fn asn(mut self, asn: u32) -> Self {
        self.asn = Asn(asn);
        self
    }

    /// Mark the address as anycast.
    pub fn anycast(mut self) -> Self {
        self.anycast = true;
        self
    }

    /// Attach a reporting label.
    pub fn label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Attach a reverse-DNS name.
    pub fn rdns(mut self, name: &str) -> Self {
        self.rdns = Some(name.to_string());
        self
    }
}

/// What a service learns about an incoming connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// The connecting client's address.
    pub src: Ipv4Addr,
    /// The destination the client *dialled* (before any diversion).
    pub original_dst: Ipv4Addr,
    /// The destination port the client dialled.
    pub original_port: u16,
    /// True if a path policy diverted this connection here — i.e. the
    /// client believes it is talking to `original_dst`.
    pub diverted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields_and_region() {
        let m = HostMeta::new(Ipv4Addr::new(1, 1, 1, 1))
            .country("cn")
            .asn(4134)
            .anycast()
            .label("resolver")
            .rdns("one.one.one.one");
        assert_eq!(m.country.as_str(), "CN");
        assert_eq!(m.region, Region::Asia);
        assert_eq!(m.asn, Asn(4134));
        assert!(m.anycast);
        assert_eq!(m.label, "resolver");
        assert_eq!(m.rdns.as_deref(), Some("one.one.one.one"));
    }

    #[test]
    fn default_host_is_us_unicast() {
        let m = HostMeta::new(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(m.country.as_str(), "US");
        assert!(!m.anycast);
        assert!(m.rdns.is_none());
    }
}
