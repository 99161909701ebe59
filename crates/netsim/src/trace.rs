//! Optional event tracing — the simulator's tcpdump.
//!
//! Disabled by default (measurement campaigns make millions of exchanges);
//! tests and the example binaries enable it to explain what a path did.

use crate::net::ProbeOutcome;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// What happened on a path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// TCP connection established.
    TcpConnect,
    /// TCP connection attempt refused or reset.
    TcpReset {
        /// Name of the policy rule responsible, if any.
        rule: Option<String>,
    },
    /// Connection attempt timed out (blackhole or dead address).
    Timeout {
        /// Name of the policy rule responsible, if any.
        rule: Option<String>,
    },
    /// A request/response exchange completed.
    Exchange {
        /// Bytes sent by the client.
        tx: usize,
        /// Bytes returned by the server.
        rx: usize,
    },
    /// A UDP datagram was answered.
    UdpExchange {
        /// Bytes sent.
        tx: usize,
        /// Bytes returned.
        rx: usize,
    },
    /// A UDP datagram got no answer.
    UdpDrop {
        /// Why: the responsible policy rule's name, `loss`, `no_answer`
        /// (the service stayed silent), or none for an unrouted address.
        rule: Option<String>,
    },
    /// ICMP port-unreachable: the host exists but nothing listens on the
    /// UDP port.
    UdpUnreachable,
    /// The path was diverted to another host by a policy rule.
    Diverted {
        /// Where the connection actually terminated.
        actual: Ipv4Addr,
        /// Name of the responsible rule.
        rule: String,
    },
    /// A ZMap-style SYN probe completed.
    SynProbe {
        /// What came back.
        outcome: ProbeOutcome,
    },
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetEvent {
    /// Client address.
    pub src: Ipv4Addr,
    /// Dialled destination address.
    pub dst: Ipv4Addr,
    /// Dialled destination port.
    pub port: u16,
    /// Virtual time the event cost.
    pub elapsed: SimDuration,
    /// The event.
    pub kind: EventKind,
}

/// A bounded in-memory event log.
///
/// Internally a ring buffer: once `cap` is reached every new record
/// evicts the oldest entry in O(1). (An earlier `Vec::remove(0)`
/// implementation made each post-cap record O(cap) — fatal once
/// event-driven runs push millions of trace-enabled exchanges.)
#[derive(Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: VecDeque<NetEvent>,
    cap: usize,
}

impl EventLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        EventLog {
            enabled: false,
            events: VecDeque::new(),
            cap: 0,
        }
    }

    /// An enabled log keeping at most `cap` events (oldest dropped).
    pub fn with_capacity(cap: usize) -> Self {
        EventLog {
            enabled: true,
            events: VecDeque::new(),
            cap,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled). Amortised O(1), including
    /// the at-capacity eviction.
    pub fn record(&mut self, event: NetEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.cap && self.cap > 0 {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> std::collections::vec_deque::Iter<'_, NetEvent> {
        self.events.iter()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Append another log's events (oldest first), respecting this log's
    /// capacity. Used to fold per-shard logs back together after a join.
    pub fn absorb(&mut self, other: EventLog) {
        for event in other.events {
            self.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(port: u16) -> NetEvent {
        NetEvent {
            src: "10.0.0.1".parse().unwrap(),
            dst: "1.1.1.1".parse().unwrap(),
            port,
            elapsed: SimDuration::from_millis(1),
            kind: EventKind::TcpConnect,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.record(ev(853));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = EventLog::with_capacity(2);
        log.record(ev(1));
        log.record(ev(2));
        log.record(ev(3));
        let ports: Vec<u16> = log.events().map(|e| e.port).collect();
        assert_eq!(ports, vec![2, 3]);
    }

    #[test]
    fn clear_empties() {
        let mut log = EventLog::with_capacity(8);
        log.record(ev(1));
        log.clear();
        assert!(log.is_empty());
    }

    /// Ring-buffer regression: sustained churn far past the cap keeps the
    /// oldest-first contract (a contiguous window ending at the newest
    /// record) and never grows beyond the cap. With the old
    /// `Vec::remove(0)` this loop was quadratic; it now completes in
    /// linear time even under `--release`-less test runs.
    #[test]
    fn sustained_churn_keeps_window_and_cap() {
        const CAP: usize = 1_000;
        const TOTAL: u16 = 50_000;
        let mut log = EventLog::with_capacity(CAP);
        for port in 0..TOTAL {
            log.record(ev(port));
        }
        assert_eq!(log.len(), CAP);
        let ports: Vec<u16> = log.events().map(|e| e.port).collect();
        let expected: Vec<u16> = (TOTAL - CAP as u16..TOTAL).collect();
        assert_eq!(
            ports, expected,
            "log must hold the newest CAP events, oldest first"
        );
        // The iterator is double-ended: the tail view used by `repro
        // --trace` sees the newest records.
        let newest: Vec<u16> = log.events().rev().take(2).map(|e| e.port).collect();
        assert_eq!(newest, vec![TOTAL - 1, TOTAL - 2]);
    }
}
