//! Adversarial wire-format corpus: every fixture under `tests/fixtures/` is
//! a hand-built hostile message (truncations, compression-pointer abuse,
//! length overflows, misplaced OPT). Both entry points into the one
//! validation walk — owned [`Message::decode`] and borrowing
//! [`MessageView::parse`] — must return the expected typed [`WireError`] on
//! each, and must never panic.

use dnswire::view::MessageView;
use dnswire::{Message, WireError};

/// Parse a `.hex` fixture: whitespace-separated hex octets, `#` comments.
fn parse_hex(text: &str) -> Vec<u8> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .map(|tok| u8::from_str_radix(tok, 16).expect("fixture hex octet"))
        .collect()
}

struct Fixture {
    name: &'static str,
    hex: &'static str,
    expect: fn(&WireError) -> bool,
}

macro_rules! fixture {
    ($name:literal, $pat:pat) => {
        Fixture {
            name: $name,
            hex: include_str!(concat!("fixtures/", $name, ".hex")),
            expect: |e| matches!(e, $pat),
        }
    };
}

const FIXTURES: &[Fixture] = &[
    fixture!(
        "truncated_header",
        WireError::Truncated {
            expecting: "header"
        }
    ),
    fixture!(
        "truncated_question",
        WireError::Truncated {
            expecting: "name label length"
        }
    ),
    fixture!(
        "truncated_label",
        WireError::Truncated {
            expecting: "name label"
        }
    ),
    fixture!("forward_pointer", WireError::BadPointer(32)),
    fixture!("self_pointer", WireError::BadPointer(12)),
    fixture!("pointer_chain_loop", WireError::PointerLoop),
    fixture!("name_overflow", WireError::NameTooLong(257)),
    fixture!("bad_label_type", WireError::BadLabelType(0x40)),
    fixture!(
        "bad_rdata_a",
        WireError::BadRdataLength { rtype: 1, found: 3 }
    ),
    fixture!(
        "truncated_rdata",
        WireError::Truncated { expecting: "rdata" }
    ),
    fixture!(
        "truncated_rr_fixed",
        WireError::Truncated {
            expecting: "rr fixed fields"
        }
    ),
    fixture!("trailing_bytes", WireError::TrailingBytes(1)),
    fixture!("opt_in_answer", WireError::MisplacedOpt),
    fixture!("duplicate_opt", WireError::MisplacedOpt),
    fixture!(
        "txt_truncated_segment",
        WireError::Truncated {
            expecting: "txt segment"
        }
    ),
    fixture!(
        "mx_short_rdata",
        WireError::BadRdataLength {
            rtype: 15,
            found: 2
        }
    ),
    fixture!(
        "cname_overrun_rdata",
        WireError::BadRdataLength { rtype: 5, found: 2 }
    ),
];

#[test]
fn both_entry_points_reject_every_fixture_with_the_expected_error() {
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        let owned = Message::decode(&bytes).expect_err(fx.name);
        assert!(
            (fx.expect)(&owned),
            "{}: Message::decode returned unexpected {owned:?}",
            fx.name
        );
        let view = MessageView::parse(&bytes).expect_err(fx.name);
        assert_eq!(
            owned, view,
            "{}: entry points disagree on the error variant",
            fx.name
        );
    }
}

#[test]
fn every_fixture_prefix_is_handled_without_panicking() {
    // Each fixture, truncated at every possible length: still typed errors
    // from both entry points (or, for a prefix that happens to form a valid
    // message, acceptance by both).
    for fx in FIXTURES {
        let bytes = parse_hex(fx.hex);
        for keep in 0..bytes.len() {
            let prefix = &bytes[..keep];
            match (Message::decode(prefix), MessageView::parse(prefix)) {
                (Err(a), Err(b)) => assert_eq!(a, b, "{} prefix {keep}", fx.name),
                (Ok(_), Ok(_)) => {}
                (a, b) => panic!(
                    "{} prefix {keep}: entry points disagree ({a:?} vs {b:?})",
                    fx.name
                ),
            }
        }
    }
}
