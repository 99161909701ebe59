//! Handshake codec corpus: the byte-identity oracle for the direct wire
//! codec in `tlssim::handshake`.
//!
//! * Every `good_*.hex` fixture was captured from the `serde_json` encoder
//!   the direct codec replaced. Each must decode to its message and encode
//!   back to the same bytes, so the wire format cannot drift.
//! * Every `bad_*.hex` fixture is a non-canonical or malformed payload
//!   (whitespace, reordered or unknown keys, non-canonical numbers and
//!   escapes, invalid UTF-8, nesting). Each must be a
//!   [`TlsError::ProtocolViolation`], as must every truncation of a good
//!   fixture and a deep run of `[`.
//! * Single-byte mutants of the good fixtures never panic, and a mutant
//!   that decodes re-encodes to itself: the decoder accepts exactly the
//!   canonical encoding.
//! * Generated messages round-trip through encode and decode, and every
//!   encoding is JSON that `serde_json` prints back byte for byte.

use proptest::prelude::*;
use tlssim::cert::{Certificate, KeyId, Signature};
use tlssim::handshake::{ClientHello, HandshakeMsg, ServerHello};
use tlssim::{DateStamp, TlsError};

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

macro_rules! fixture {
    ($name:literal) => {
        ($name, include_str!(concat!("fixtures/", $name, ".hex")))
    };
}

#[allow(clippy::too_many_arguments)]
fn cert(
    subject_cn: &str,
    san: &[&str],
    issuer_cn: &str,
    serial: u64,
    not_before: i64,
    not_after: i64,
    key: u64,
    signer: u64,
    digest: u64,
) -> Certificate {
    Certificate {
        subject_cn: subject_cn.into(),
        san: san.iter().map(|s| s.to_string()).collect(),
        issuer_cn: issuer_cn.into(),
        serial,
        not_before: DateStamp::from_days(not_before),
        not_after: DateStamp::from_days(not_after),
        key: KeyId(key),
        signature: Signature {
            signer: KeyId(signer),
            digest,
        },
    }
}

fn client_hello(
    sni: Option<&str>,
    alpn: &[&str],
    client_random: u64,
    ticket: Option<u64>,
) -> HandshakeMsg {
    HandshakeMsg::ClientHello(ClientHello {
        sni: sni.map(str::to_string),
        alpn: alpn.iter().map(|s| s.to_string()).collect(),
        client_random,
        ticket,
    })
}

/// The good fixtures with the messages they were captured from.
fn golden() -> Vec<((&'static str, &'static str), HandshakeMsg)> {
    vec![
        (fixture!("good_ch_bare"), client_hello(None, &[], 0, None)),
        (
            fixture!("good_ch_sni_dot"),
            client_hello(Some("dns.quad9.net"), &["dot"], 0x0123_4567_89ab_cdef, None),
        ),
        (
            fixture!("good_ch_sni_ticket_two_alpn"),
            client_hello(
                Some("cloudflare-dns.com"),
                &["h2", "http/1.1"],
                u64::MAX,
                Some(u64::MAX),
            ),
        ),
        (
            fixture!("good_ch_ticket_no_sni"),
            client_hello(None, &["dot"], 42, Some(0)),
        ),
        (
            fixture!("good_sh_fresh_chain"),
            HandshakeMsg::ServerHello(ServerHello {
                server_random: 9_223_372_036_854_775_808,
                alpn: Some("dot".into()),
                chain: vec![
                    cert(
                        "dns \"quoted\" \\back\u{1}\u{1f}\n\r\t\u{7f} é中🦀",
                        &["*.example.net", "dns.example.net"],
                        "Intermediate CA",
                        u64::MAX,
                        -1,
                        18_000,
                        u64::MAX,
                        2,
                        u64::MAX - 1,
                    ),
                    cert(
                        "Intermediate CA",
                        &[],
                        "Root CA",
                        2,
                        i64::MIN,
                        i64::MAX,
                        2,
                        1,
                        12_345,
                    ),
                    cert(
                        "Root CA",
                        &["root.example"],
                        "Root CA",
                        1,
                        -719_468,
                        2_932_896,
                        1,
                        1,
                        0,
                    ),
                ],
                ticket: Some(7),
                resumed: false,
            }),
        ),
        (
            fixture!("good_sh_resumed"),
            HandshakeMsg::ServerHello(ServerHello {
                server_random: 0,
                alpn: None,
                chain: vec![],
                ticket: None,
                resumed: true,
            }),
        ),
        (
            fixture!("good_alert"),
            HandshakeMsg::Alert("no_application_protocol".into()),
        ),
        (
            fixture!("good_alert_empty"),
            HandshakeMsg::Alert(String::new()),
        ),
        (fixture!("good_finished"), HandshakeMsg::Finished),
    ]
}

const ADVERSARIAL: &[(&str, &str)] = &[
    fixture!("bad_whitespace"),
    fixture!("bad_trailing_space"),
    fixture!("bad_reordered_keys"),
    fixture!("bad_unknown_key"),
    fixture!("bad_leading_zero"),
    fixture!("bad_u64_overflow"),
    fixture!("bad_negative_zero"),
    fixture!("bad_i64_underflow"),
    fixture!("bad_negative_u64"),
    fixture!("bad_u_escape"),
    fixture!("bad_u_escape_upper"),
    fixture!("bad_u_escape_del"),
    fixture!("bad_u_escape_newline"),
    fixture!("bad_short_escape"),
    fixture!("bad_solidus_escape"),
    fixture!("bad_raw_control"),
    fixture!("bad_invalid_utf8"),
    fixture!("bad_truncated_utf8"),
    fixture!("bad_nested_alert"),
    fixture!("bad_variant_case"),
    fixture!("bad_bool"),
    fixture!("bad_empty"),
];

fn assert_violation(name: &str, bytes: &[u8]) {
    match HandshakeMsg::decode(bytes) {
        Err(TlsError::ProtocolViolation(_)) => {}
        other => panic!(
            "{name}: expected a protocol violation for {:?}, got {other:?}",
            String::from_utf8_lossy(bytes)
        ),
    }
}

/// A decode that succeeds must be of exactly the canonical encoding; a
/// failure must be a protocol violation.
fn assert_canonical_or_violation(bytes: &[u8]) {
    match HandshakeMsg::decode(bytes) {
        Ok(msg) => assert_eq!(
            msg.encode(),
            bytes,
            "accepted a non-canonical payload {:?}",
            String::from_utf8_lossy(bytes)
        ),
        Err(TlsError::ProtocolViolation(_)) => {}
        Err(other) => panic!("wrong error variant {other:?}"),
    }
}

/// `bytes` are JSON exactly as `serde_json` prints it compactly: its
/// parser accepts them and its printer writes the same bytes back.
fn assert_compact_json(bytes: &[u8]) {
    let tree: serde_json::Value = serde_json::from_slice(bytes).expect("valid JSON");
    assert_eq!(serde_json::to_vec(&tree).unwrap(), bytes);
}

#[test]
fn golden_fixtures_decode_to_their_message_and_encode_back() {
    for ((name, hex), msg) in golden() {
        let bytes = parse_hex(hex);
        assert_eq!(
            HandshakeMsg::decode(&bytes).as_ref(),
            Ok(&msg),
            "{name} decode"
        );
        assert_eq!(msg.encode(), bytes, "{name} encode");
        assert_compact_json(&bytes);
    }
}

#[test]
fn adversarial_fixtures_are_protocol_violations() {
    for &(name, hex) in ADVERSARIAL {
        assert_violation(name, &parse_hex(hex));
    }
}

#[test]
fn every_truncation_is_a_protocol_violation() {
    for ((name, hex), _) in golden() {
        let bytes = parse_hex(hex);
        for len in 0..bytes.len() {
            assert_violation(name, &bytes[..len]);
        }
    }
}

#[test]
fn deep_nesting_is_a_protocol_violation_not_a_stack_overflow() {
    assert_violation("deep nesting", &[b'['; 200_000]);
}

/// Bytes worth splicing into a canonical payload: JSON punctuation,
/// digits, escape and keyword starts, control, DEL and non-ASCII bytes.
const SPLICE: &[u8] = b"\"\\,:[]{}019-+ .eEnNtfu\x00\x01\x1f\x7f\x80\xc3\xe4\xff";

#[test]
fn single_byte_mutants_decode_canonically_or_not_at_all() {
    for ((_, hex), _) in golden() {
        let bytes = parse_hex(hex);
        for at in 0..=bytes.len() {
            for &b in SPLICE {
                let mut inserted = bytes.clone();
                inserted.insert(at, b);
                assert_canonical_or_violation(&inserted);
                if at < bytes.len() {
                    let mut replaced = bytes.clone();
                    replaced[at] = b;
                    assert_canonical_or_violation(&replaced);
                }
            }
            if at < bytes.len() {
                let mut deleted = bytes.clone();
                deleted.remove(at);
                assert_canonical_or_violation(&deleted);
            }
        }
    }
}

/// Characters for generated strings: plain ASCII, every escape class the
/// encoder writes, DEL, and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '0', '.', '-', '/', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}',
    '\u{7f}', 'é', '中', '🦀',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..20, Just(u64::MAX)]
}

fn arb_days() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), -1000i64..1000, Just(i64::MIN), Just(i64::MAX)]
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), arb_string()).prop_map(|(some, s)| some.then_some(s))
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), arb_u64()).prop_map(|(some, n)| some.then_some(n))
}

fn arb_cert() -> impl Strategy<Value = Certificate> {
    (
        (
            arb_string(),
            proptest::collection::vec(arb_string(), 0..3),
            arb_string(),
        ),
        (arb_u64(), arb_days(), arb_days()),
        (arb_u64(), arb_u64(), arb_u64()),
    )
        .prop_map(
            |((subject_cn, san, issuer_cn), (serial, nb, na), (key, signer, digest))| Certificate {
                subject_cn,
                san,
                issuer_cn,
                serial,
                not_before: DateStamp::from_days(nb),
                not_after: DateStamp::from_days(na),
                key: KeyId(key),
                signature: Signature {
                    signer: KeyId(signer),
                    digest,
                },
            },
        )
}

fn arb_msg() -> impl Strategy<Value = HandshakeMsg> {
    prop_oneof![
        (
            arb_opt_string(),
            proptest::collection::vec(arb_string(), 0..3),
            arb_u64(),
            arb_opt_u64(),
        )
            .prop_map(|(sni, alpn, client_random, ticket)| {
                HandshakeMsg::ClientHello(ClientHello {
                    sni,
                    alpn,
                    client_random,
                    ticket,
                })
            }),
        (
            arb_u64(),
            arb_opt_string(),
            proptest::collection::vec(arb_cert(), 0..3),
            arb_opt_u64(),
            any::<bool>(),
        )
            .prop_map(|(server_random, alpn, chain, ticket, resumed)| {
                HandshakeMsg::ServerHello(ServerHello {
                    server_random,
                    alpn,
                    chain,
                    ticket,
                    resumed,
                })
            }),
        arb_string().prop_map(HandshakeMsg::Alert),
        Just(HandshakeMsg::Finished),
    ]
}

proptest! {
    #[test]
    fn generated_messages_round_trip(msg in arb_msg()) {
        let bytes = msg.encode();
        assert_compact_json(&bytes);
        prop_assert_eq!(HandshakeMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn multi_byte_mutants_decode_canonically_or_not_at_all(
        msg in arb_msg(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = msg.encode();
        for (at, b) in edits {
            let at = at as usize % bytes.len();
            bytes[at] = b;
        }
        assert_canonical_or_violation(&bytes);
    }
}
