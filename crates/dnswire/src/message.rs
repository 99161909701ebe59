//! Complete DNS messages: the four sections, encode with compression,
//! strict decode through [`MessageView`].

use crate::edns::OptRecord;
use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::name::{CompressionTable, Name};
use crate::rr::{RecordClass, RecordType, ResourceRecord};
use crate::view::MessageView;
use serde::{Deserialize, Serialize};

/// One entry of the question section.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub qclass: RecordClass,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    fn encode<'a>(&'a self, buf: &mut Vec<u8>, table: &mut CompressionTable<'a>) {
        self.qname.encode_compressed(buf, table);
        buf.extend_from_slice(&self.qtype.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qclass.to_u16().to_be_bytes());
    }
}

/// A full DNS message.
///
/// The header's section counts are recomputed on encode, so callers mutate
/// the `questions`/`answers`/... vectors freely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Message header (counts are advisory until encode).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authority: Vec<ResourceRecord>,
    /// Additional section (including any OPT record).
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// An empty message with the given header.
    pub fn new(header: Header) -> Self {
        Message {
            header,
            questions: Vec::new(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The transaction ID.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// First question, if any — the common single-question case.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The EDNS OPT record, decoded, if present in the additional section.
    pub fn opt(&self) -> Option<OptRecord> {
        self.additional
            .iter()
            .find(|rr| rr.rtype == RecordType::Opt)
            .and_then(|rr| OptRecord::from_record(rr).ok())
    }

    /// Attach (or replace) the EDNS OPT record.
    pub fn set_opt(&mut self, opt: OptRecord) {
        self.additional.retain(|rr| rr.rtype != RecordType::Opt);
        self.additional.push(opt.to_record());
    }

    /// Add EDNS padding so the encoded message length is a multiple of
    /// `block` (RFC 8467 policy, sized by [`crate::edns::pad_to_block`]).
    /// Requires an OPT record to already be attached (adds a default one
    /// if missing). A message already at an exact block multiple keeps no
    /// padding option — adding one would overshoot by a whole block.
    pub fn pad_to_block(&mut self, block: usize) -> Result<(), WireError> {
        let mut opt = self.opt().unwrap_or_default();
        opt.options
            .retain(|o| o.code != crate::edns::OPTION_PADDING);
        self.set_opt(opt.clone());
        let unpadded = self.encode()?.len();
        if let Some(pad) = OptRecord::padding_for(unpadded, block) {
            opt.options.push(crate::edns::EdnsOption::padding(pad));
            self.set_opt(opt);
        }
        Ok(())
    }

    /// Encode to wire bytes with name compression.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        for count in [
            self.questions.len(),
            self.answers.len(),
            self.authority.len(),
            self.additional.len(),
        ] {
            if count > u16::MAX as usize {
                return Err(WireError::CountOverflow);
            }
        }
        let mut header = self.header;
        header.qdcount = self.questions.len() as u16;
        header.ancount = self.answers.len() as u16;
        header.nscount = self.authority.len() as u16;
        header.arcount = self.additional.len() as u16;

        let mut buf = Vec::with_capacity(64);
        header.encode(&mut buf);
        let mut table = CompressionTable::new();
        for q in &self.questions {
            q.encode(&mut buf, &mut table);
        }
        for rr in self
            .answers
            .iter()
            .chain(self.authority.iter())
            .chain(self.additional.iter())
        {
            rr.encode(&mut buf, &mut table)?;
        }
        if buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(buf.len()));
        }
        Ok(buf)
    }

    /// Decode a complete message: one validation walk
    /// ([`MessageView::parse`]), then materialisation
    /// ([`MessageView::to_message`]).
    pub fn decode(msg: &[u8]) -> Result<Self, WireError> {
        MessageView::parse(msg).map(|view| view.to_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::rr::RData;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    #[test]
    fn query_encode_decode_round_trip() {
        let q = builder::query(0xabcd, "probe.dnsmeasure.example", RecordType::A).unwrap();
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.id(), 0xabcd);
        assert_eq!(back.questions.len(), 1);
        assert_eq!(
            back.question().unwrap().qname.to_string(),
            "probe.dnsmeasure.example."
        );
        // Counts were recomputed.
        assert_eq!(back.header.qdcount, 1);
    }

    #[test]
    fn response_with_all_sections_round_trips() {
        let q = builder::query(9, "www.example.com", RecordType::A).unwrap();
        let mut resp = builder::answer(
            &q,
            vec![ResourceRecord::new(
                Name::parse("www.example.com").unwrap(),
                60,
                RData::A(Ipv4Addr::new(93, 184, 216, 34)),
            )],
        );
        resp.authority.push(ResourceRecord::new(
            Name::parse("example.com").unwrap(),
            60,
            RData::Ns(Name::parse("ns1.example.com").unwrap()),
        ));
        resp.additional.push(ResourceRecord::new(
            Name::parse("ns1.example.com").unwrap(),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authority.len(), 1);
        assert_eq!(back.additional.len(), 1);
        assert_eq!(back, {
            let mut expect = resp.clone();
            expect.header.qdcount = 1;
            expect.header.ancount = 1;
            expect.header.nscount = 1;
            expect.header.arcount = 1;
            expect
        });
    }

    #[test]
    fn compression_shrinks_shared_suffixes() {
        let q = builder::query(1, "www.example.com", RecordType::A).unwrap();
        let mut resp = builder::answer(
            &q,
            vec![
                ResourceRecord::new(
                    Name::parse("www.example.com").unwrap(),
                    60,
                    RData::Cname(Name::parse("cdn.example.com").unwrap()),
                ),
                ResourceRecord::new(
                    Name::parse("cdn.example.com").unwrap(),
                    60,
                    RData::A(Ipv4Addr::new(198, 51, 100, 7)),
                ),
            ],
        );
        resp.header.id = 1;
        let compressed = resp.encode().unwrap();
        // The owner of the second record is a bare 2-byte pointer; the
        // message must round-trip despite that.
        let back = Message::decode(&compressed).unwrap();
        assert_eq!(back.answers[1].name.to_string(), "cdn.example.com.");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = builder::query(2, "x.example", RecordType::A).unwrap();
        let mut bytes = q.encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn opt_set_and_get() {
        let mut q = builder::query(3, "x.example", RecordType::A).unwrap();
        let opt = OptRecord {
            udp_payload: 1232,
            ..OptRecord::default()
        };
        q.set_opt(opt);
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.opt().unwrap().udp_payload, 1232);
    }

    #[test]
    fn padding_rounds_message_size() {
        let mut q = builder::query(4, "padded.example.com", RecordType::A).unwrap();
        q.pad_to_block(128).unwrap();
        let bytes = q.encode().unwrap();
        assert_eq!(bytes.len() % 128, 0, "len {} not padded", bytes.len());
        // Re-padding to the same block is stable.
        let mut again = Message::decode(&bytes).unwrap();
        again.pad_to_block(128).unwrap();
        assert_eq!(again.encode().unwrap().len(), bytes.len());
    }

    #[test]
    fn set_opt_replaces_existing() {
        let mut q = builder::query(5, "x.example", RecordType::A).unwrap();
        q.set_opt(OptRecord::default());
        q.set_opt(OptRecord {
            udp_payload: 512,
            ..OptRecord::default()
        });
        assert_eq!(q.additional.len(), 1);
        assert_eq!(q.opt().unwrap().udp_payload, 512);
    }

    #[test]
    fn hostile_garbage_never_panics() {
        // A few adversarial patterns; decode must return Err, not panic.
        let cases: Vec<Vec<u8>> = vec![vec![], vec![0; 5], vec![0xff; 12], {
            // qdcount says 1 but no question follows
            let mut h = Vec::new();
            Header {
                qdcount: 1,
                ..Header::new_query(1)
            }
            .encode(&mut h);
            h
        }];
        for case in cases {
            assert!(Message::decode(&case).is_err());
        }
    }

    /// The compression encoder this crate had before [`CompressionTable`]:
    /// every suffix cloned into a `HashMap<Name, u16>`. Kept only as the
    /// reference the table is checked against.
    fn reference_encode(msg: &Message) -> Vec<u8> {
        use std::collections::HashMap;
        fn name(n: &Name, buf: &mut Vec<u8>, table: &mut HashMap<Name, u16>) {
            let labels = n.labels();
            for i in 0..labels.len() {
                let suffix = Name::from_labels(&labels[i..]).unwrap();
                if let Some(&off) = table.get(&suffix) {
                    buf.extend_from_slice(&(0xc000 | off).to_be_bytes());
                    return;
                }
                if buf.len() <= 0x3fff {
                    table.insert(suffix, buf.len() as u16);
                }
                buf.push(labels[i].len() as u8);
                buf.extend_from_slice(&labels[i]);
            }
            buf.push(0);
        }
        let mut header = msg.header;
        header.qdcount = msg.questions.len() as u16;
        header.ancount = msg.answers.len() as u16;
        header.nscount = msg.authority.len() as u16;
        header.arcount = msg.additional.len() as u16;
        let mut buf = Vec::new();
        header.encode(&mut buf);
        let mut table = HashMap::new();
        for q in &msg.questions {
            name(&q.qname, &mut buf, &mut table);
            buf.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
        }
        let records = msg
            .answers
            .iter()
            .chain(&msg.authority)
            .chain(&msg.additional);
        for rr in records {
            name(&rr.name, &mut buf, &mut table);
            buf.extend_from_slice(&rr.rtype.to_u16().to_be_bytes());
            buf.extend_from_slice(&rr.class.to_u16().to_be_bytes());
            buf.extend_from_slice(&rr.ttl.to_be_bytes());
            let mut rdata = Vec::new();
            rr.rdata.encode(&mut rdata).unwrap();
            buf.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
            buf.extend_from_slice(&rdata);
        }
        buf
    }

    /// Names over a tiny label alphabet, so suffixes are shared and nested
    /// (`a.b.c`, `b.c`, `c`, `c.b.c`, ...). Zero labels is the root.
    fn arb_shared_name() -> impl Strategy<Value = Name> {
        const LABELS: &[&str] = &["a", "b", "c", "www", "example", "com"];
        proptest::collection::vec(0..LABELS.len(), 0..5)
            .prop_map(|picks| Name::from_labels(picks.iter().map(|&i| LABELS[i])).unwrap())
    }

    /// A TXT record of `len` bytes: padding that moves later names across
    /// the 14-bit pointer range.
    fn txt_pad(owner: Name, len: usize) -> ResourceRecord {
        let segments = vec![vec![b'x'; 255]; len / 255];
        ResourceRecord::new(owner, 0, RData::Txt(segments))
    }

    fn arb_shared_record() -> impl Strategy<Value = ResourceRecord> {
        prop_oneof![
            (arb_shared_name(), any::<[u8; 4]>()).prop_map(|(n, ip)| ResourceRecord::new(
                n,
                60,
                RData::A(ip.into())
            )),
            (arb_shared_name(), arb_shared_name()).prop_map(|(n, target)| ResourceRecord::new(
                n,
                60,
                RData::Cname(target)
            )),
            (arb_shared_name(), 0usize..9_000).prop_map(|(n, len)| txt_pad(n, len)),
        ]
    }

    proptest! {
        #[test]
        fn compression_matches_the_hashmap_reference(
            id in any::<u16>(),
            questions in proptest::collection::vec(arb_shared_name(), 0..4),
            answers in proptest::collection::vec(arb_shared_record(), 0..8),
            additional in proptest::collection::vec(arb_shared_record(), 0..4),
        ) {
            let mut msg = Message::new(Header::new_query(id));
            msg.questions = questions
                .into_iter()
                .map(|n| Question::new(n, RecordType::A))
                .collect();
            msg.answers = answers;
            msg.additional = additional;
            let Ok(bytes) = msg.encode() else {
                // Past 64 KiB: nothing to compare.
                return Ok(());
            };
            prop_assert_eq!(&bytes, &reference_encode(&msg));
            prop_assert_eq!(Message::decode(&bytes).map(|m| m.answers), Ok(msg.answers));
        }
    }

    #[test]
    fn suffix_first_seen_past_the_pointer_range_is_written_out_again() {
        let late = Name::parse("late.test").unwrap();
        let mut msg = Message::new(Header::new_query(1));
        msg.answers
            .push(txt_pad(Name::parse("pad.example").unwrap(), 17_000));
        msg.answers.push(ResourceRecord::new(
            late.clone(),
            1,
            RData::A([1; 4].into()),
        ));
        msg.answers.push(ResourceRecord::new(
            late.clone(),
            1,
            RData::A([2; 4].into()),
        ));
        // A suffix first seen early still compresses after the boundary.
        msg.answers.push(ResourceRecord::new(
            Name::parse("more.pad.example").unwrap(),
            1,
            RData::A([3; 4].into()),
        ));
        let bytes = msg.encode().unwrap();
        assert!(bytes.len() > 16 * 1024);
        assert_eq!(bytes, reference_encode(&msg));
        let full = b"\x04late\x04test\x00";
        let written = bytes.windows(full.len()).filter(|w| w == full).count();
        assert_eq!(written, 2, "an unreachable offset must not be pointed to");
        assert_eq!(Message::decode(&bytes).unwrap().answers, msg.answers);
    }
}
