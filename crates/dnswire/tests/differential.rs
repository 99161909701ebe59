//! Round-trip tests for the one decoder. `Message::decode` is
//! `MessageView::parse` followed by materialisation, so the two cannot
//! disagree on accept/reject; what is left to prove is that decoding is
//! faithful and stable:
//!
//! * a generated message, encoded, decodes back to itself (with the header
//!   counts filled in), and every view accessor agrees with it field by
//!   field — RDATA byte for byte;
//! * byte-flipped, truncated and random inputs never panic, and whatever
//!   they decode to re-encodes and re-decodes to itself.

use dnswire::view::{MessageView, NameRef};
use dnswire::{Header, Message, Name, Question, RData, RecordType, ResourceRecord, SoaData};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,20}[a-z0-9])?").expect("regex")
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("labels valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|b| RData::A(b.into())),
        any::<[u8; 16]>().prop_map(|b| RData::Aaaa(b.into())),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..3)
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
            |(mname, rname, serial, refresh)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry: 900,
                    expire: 86_400,
                    minimum: 60,
                })
            }
        ),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(
            (arb_name(), any::<u32>(), arb_rdata())
                .prop_map(|(n, ttl, rd)| ResourceRecord::new(n, ttl, rd)),
            0..5,
        ),
        proptest::collection::vec(
            (arb_name(), any::<u32>(), arb_rdata())
                .prop_map(|(n, ttl, rd)| ResourceRecord::new(n, ttl, rd)),
            0..3,
        ),
    )
        .prop_map(|(id, qname, answers, additional)| {
            let mut msg = Message::new(Header::new_query(id));
            msg.questions.push(Question::new(qname, RecordType::A));
            msg.answers = answers;
            msg.additional = additional;
            msg
        })
}

/// `msg` with the header counts that encoding writes.
fn with_counts(msg: &Message) -> Message {
    let mut expect = msg.clone();
    expect.header.qdcount = msg.questions.len() as u16;
    expect.header.ancount = msg.answers.len() as u16;
    expect.header.nscount = msg.authority.len() as u16;
    expect.header.arcount = msg.additional.len() as u16;
    expect
}

/// Owned `Name` vs lazily-resolved `NameRef`: same lowercased labels.
fn assert_name_eq(owned: &Name, view: NameRef<'_>) {
    let got: Vec<Vec<u8>> = view.label_iter().map(|l| l.to_ascii_lowercase()).collect();
    assert_eq!(got.as_slice(), owned.labels(), "name labels disagree");
    // Presentation comparison only holds for names whose labels survive
    // `Display` verbatim (byte flips can inject dots or non-graphic bytes,
    // which render escaped).
    let presentation_safe = owned.labels().iter().all(|l| {
        l.iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*')
    });
    if presentation_safe {
        assert!(view.eq_presentation(&owned.to_string()));
    }
}

/// Every field of the decoded message must be observable, equal, through
/// the view's borrowing accessors — header, questions, and all three record
/// sections. With `exact_rdata`, the raw RDATA must also equal the owned
/// RDATA re-encoded (true when the wire came from our encoder, which never
/// compresses inside RDATA).
fn assert_view_eq(owned: &Message, view: &MessageView<'_>, exact_rdata: bool) {
    assert_eq!(view.header(), &owned.header);
    assert_eq!(view.id(), owned.id());
    assert_eq!(view.rcode(), owned.rcode());

    let qs: Vec<_> = view.questions().collect();
    assert_eq!(qs.len(), owned.questions.len());
    for (v, o) in qs.iter().zip(owned.questions.iter()) {
        assert_name_eq(&o.qname, v.qname);
        assert_eq!(v.qtype, o.qtype);
        assert_eq!(v.qclass, o.qclass);
    }

    for (section, owned_rrs) in [
        (view.answers(), &owned.answers),
        (view.authority(), &owned.authority),
        (view.additional(), &owned.additional),
    ] {
        let vs: Vec<_> = section.collect();
        assert_eq!(vs.len(), owned_rrs.len());
        for (v, o) in vs.iter().zip(owned_rrs.iter()) {
            assert_name_eq(&o.name, v.name);
            assert_eq!(v.rtype, o.rtype);
            assert_eq!(v.class, o.class);
            assert_eq!(v.ttl, o.ttl);
            match &o.rdata {
                RData::A(addr) => assert_eq!(v.rdata_a(), Some(*addr)),
                RData::Aaaa(addr) => assert_eq!(v.rdata_bytes(), &addr.octets()[..]),
                RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => {
                    assert_name_eq(n, v.rdata_name().expect("name-bearing rdata"));
                }
                RData::Opaque(bytes) => assert_eq!(v.rdata_bytes(), &bytes[..]),
                RData::Soa(_) | RData::Mx { .. } | RData::Txt(_) => {}
            }
            if exact_rdata {
                let mut encoded = Vec::new();
                o.rdata.encode(&mut encoded).expect("decoded rdata encodes");
                assert_eq!(v.rdata_bytes(), &encoded[..]);
            }
        }
    }

    let first_a = owned.answers.iter().find_map(|rr| match rr.rdata {
        RData::A(addr) => Some(addr),
        _ => None,
    });
    assert_eq!(view.first_a_answer(), first_a);
}

/// Arbitrary bytes: decoding must not panic, and an accepted message must
/// agree with its view and survive re-encode → re-decode unchanged.
fn assert_decode_is_stable(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(decoded) = Message::decode(bytes) else {
        return Ok(());
    };
    let view = MessageView::parse(bytes).expect("decode accepted these bytes");
    assert_view_eq(&decoded, &view, false);
    // Re-encoding may compress differently; it may not change meaning.
    if let Ok(wire) = decoded.encode() {
        prop_assert_eq!(Message::decode(&wire), Ok(decoded));
    }
    Ok(())
}

proptest! {
    #[test]
    fn well_formed_messages_decode_to_themselves(msg in arb_message()) {
        let bytes = msg.encode().expect("encodable");
        let decoded = Message::decode(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &with_counts(&msg));
        let view = MessageView::parse(&bytes).expect("view decode");
        assert_view_eq(&decoded, &view, true);
    }

    #[test]
    fn byte_flipped_messages_decode_stably(
        msg in arb_message(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = msg.encode().expect("encodable");
        for (at, val) in flips {
            let at = at as usize % bytes.len();
            bytes[at] = val;
        }
        assert_decode_is_stable(&bytes)?;
    }

    #[test]
    fn truncated_messages_decode_stably(
        msg in arb_message(),
        keep in any::<u16>(),
    ) {
        let mut bytes = msg.encode().expect("encodable");
        bytes.truncate(keep as usize % (bytes.len() + 1));
        assert_decode_is_stable(&bytes)?;
    }

    #[test]
    fn random_bytes_decode_stably(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        assert_decode_is_stable(&bytes)?;
    }
}
