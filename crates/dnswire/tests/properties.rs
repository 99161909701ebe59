//! Property-based tests: the wire codec must round-trip every value it can
//! represent and never panic on hostile bytes.

use dnswire::{
    builder, FrameDecoder, Header, Message, Name, Question, RData, Rcode, RecordType,
    ResourceRecord, SoaData,
};
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
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..255), 0..4)
            .prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(|(id, qname, answers, additional)| {
            let mut msg = Message::new(Header::new_query(id));
            msg.questions.push(Question::new(qname, RecordType::A));
            msg.answers = answers;
            msg.additional = additional;
            msg
        })
}

proptest! {
    #[test]
    fn name_round_trips_uncompressed(name in arb_name()) {
        // An uncompressed name as the RDATA of a CNAME answer.
        let mut rdata = Vec::new();
        name.encode_uncompressed(&mut rdata);
        prop_assert_eq!(rdata.len(), name.wire_len());
        let mut wire = Vec::new();
        Header { ancount: 1, ..Header::new_query(1) }.encode(&mut wire);
        wire.extend_from_slice(&[0, 0, 5, 0, 1, 0, 0, 0, 0]); // root owner, CNAME, IN, ttl 0
        wire.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        wire.extend_from_slice(&rdata);
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(&back.answers[0].rdata, &RData::Cname(name));
    }

    #[test]
    fn name_parse_display_round_trips(name in arb_name()) {
        let shown = name.to_string();
        prop_assert_eq!(Name::parse(&shown).unwrap(), name);
    }

    #[test]
    fn message_round_trips(msg in arb_message()) {
        let bytes = msg.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(&back.questions, &msg.questions);
        prop_assert_eq!(&back.answers, &msg.answers);
        prop_assert_eq!(&back.additional, &msg.additional);
        prop_assert_eq!(back.id(), msg.id());
        // Re-encoding the decoded message is byte-stable.
        prop_assert_eq!(back.encode().unwrap(), bytes);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes); // may Err, must not panic
    }

    #[test]
    fn name_decode_never_panics(name in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes in the question-name position of a one-question
        // message, followed by QTYPE/QCLASS.
        let mut wire = Vec::new();
        Header { qdcount: 1, ..Header::new_query(1) }.encode(&mut wire);
        wire.extend_from_slice(&name);
        wire.extend_from_slice(&[0, 1, 0, 1]);
        let _ = Message::decode(&wire); // may Err, must not panic
    }

    #[test]
    fn framing_reassembles_any_chunking(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(dnswire::frame_message(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            out.extend(dec.drain_messages());
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.pending_len(), 0);
    }

    #[test]
    fn padding_always_hits_block(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        q.pad_to_block(block).unwrap();
        prop_assert_eq!(q.encode().unwrap().len() % block, 0);
    }

    #[test]
    fn padding_never_shrinks_and_is_minimal(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        // Attach the OPT up front so `unpadded` measures exactly what the
        // padding rule sees (pad_to_block would add a default OPT anyway).
        q.set_opt(dnswire::OptRecord::default());
        let unpadded = q.encode().unwrap().len();
        q.pad_to_block(block).unwrap();
        let padded = q.encode().unwrap().len();
        prop_assert!(padded >= unpadded, "padding must never shrink a message");
        prop_assert_eq!(padded, dnswire::pad_to_block(unpadded, block));
        // Minimality: at most one block beyond the unpadded size.
        prop_assert!(padded < unpadded + 4 + block);
        // Fixed edge: an exact multiple stays put instead of gaining a
        // whole extra block.
        if unpadded.is_multiple_of(block) {
            prop_assert_eq!(padded, unpadded);
        }
    }

    #[test]
    fn padding_option_round_trips(block in 16usize..512, name in arb_name()) {
        let mut q = Message::new(Header::new_query(1));
        q.questions.push(Question::new(name, RecordType::A));
        q.pad_to_block(block).unwrap();
        let wire = q.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        let sent = q.opt().and_then(|o| o.padding_len());
        let got = back.opt().and_then(|o| o.padding_len());
        prop_assert_eq!(got, sent, "padding option must survive a round trip");
        prop_assert_eq!(back.encode().unwrap().len(), wire.len());
        // Re-padding an already padded message is a fixed point.
        let mut again = back;
        again.pad_to_block(block).unwrap();
        prop_assert_eq!(again.encode().unwrap().len(), wire.len());
    }

    #[test]
    fn policy_padded_queries_hit_their_block(key in any::<u64>(), name in arb_name()) {
        use dnswire::PaddingPolicy;
        for policy in [
            PaddingPolicy::rfc8467(),
            PaddingPolicy::RandomBlock { query_block: 128, response_block: 468, max_extra: 3 },
            PaddingPolicy::ConstantRate { interval_us: 5_000, cell: 468 },
            PaddingPolicy::AdaptivePadding { burst_gap_us: 4_000, cell: 468 },
        ] {
            let block = policy.query_block(key).unwrap();
            let mut q = Message::new(Header::new_query(1));
            q.questions.push(Question::new(name.clone(), RecordType::A));
            q.pad_to_block(block).unwrap();
            prop_assert_eq!(q.encode().unwrap().len() % block, 0);
        }
        prop_assert_eq!(PaddingPolicy::None.query_block(key), None);
    }

    #[test]
    fn error_responses_echo_question(name in arb_name(), id in any::<u16>()) {
        let q = {
            let mut m = Message::new(Header::new_query(id));
            m.questions.push(Question::new(name, RecordType::Aaaa));
            m
        };
        let resp = builder::error_response(&q, Rcode::ServFail);
        prop_assert_eq!(resp.id(), id);
        prop_assert_eq!(&resp.questions, &q.questions);
        prop_assert_eq!(resp.rcode(), Rcode::ServFail);
    }
}
