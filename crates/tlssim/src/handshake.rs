//! Handshake messages, their wire codec, and timing constants.
//!
//! A handshake-record payload is canonical compact JSON, written and read
//! directly: struct fields in declaration order, an enum variant with data
//! as a one-key object (`{"Alert":"decode_error"}`), `Finished` as the
//! bare string `"Finished"`, `None` as `null`, integers in decimal, and
//! strings escaped as `serde_json` escapes them (`\"`, `\\`, `\n`, `\r`,
//! `\t`, other C0 controls as lower-case `\u00xx`, everything else raw).
//! The decoder accepts exactly what the encoder writes: `decode(b)` is
//! `Ok(m)` only when `encode(&m) == b`.

use crate::cert::{Certificate, KeyId, Signature};
use crate::date::DateStamp;
use crate::error::TlsError;
use netsim::SimDuration;

/// Client → server opening flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Server name indication (hostname), if the client knows one.
    pub sni: Option<String>,
    /// Offered ALPN protocols in preference order (`"dot"`, `"h2"`, ...).
    pub alpn: Vec<String>,
    /// Client nonce.
    pub client_random: u64,
    /// Resumption ticket from a previous session, if any.
    pub ticket: Option<u64>,
}

/// Server → client reply flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Server nonce.
    pub server_random: u64,
    /// Chosen ALPN protocol.
    pub alpn: Option<String>,
    /// Presented certificate chain (empty on resumption).
    pub chain: Vec<Certificate>,
    /// Fresh resumption ticket.
    pub ticket: Option<u64>,
    /// True if the server accepted the client's resumption ticket.
    pub resumed: bool,
}

/// Any handshake-record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMsg {
    /// Opening flight.
    ClientHello(ClientHello),
    /// Reply flight.
    ServerHello(ServerHello),
    /// Fatal failure, with a reason string (stands in for TLS alerts).
    Alert(String),
    /// Handshake completion exchange — the extra round trip a TLS 1.2
    /// handshake costs over TLS 1.3 (the deployed reality of 2019, which
    /// Table 7's no-reuse overheads reflect).
    Finished,
}

impl HandshakeMsg {
    /// Serialise to a handshake-record payload (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(match self {
            HandshakeMsg::ServerHello(sh) => 128 + 256 * sh.chain.len(),
            _ => 128,
        });
        match self {
            HandshakeMsg::ClientHello(ch) => {
                out.extend_from_slice(b"{\"ClientHello\":{\"sni\":");
                put_opt(&mut out, ch.sni.as_deref(), put_str);
                out.extend_from_slice(b",\"alpn\":");
                put_list(&mut out, &ch.alpn, |out, proto| put_str(out, proto));
                out.extend_from_slice(b",\"client_random\":");
                put_u64(&mut out, ch.client_random);
                out.extend_from_slice(b",\"ticket\":");
                put_opt(&mut out, ch.ticket, put_u64);
                out.extend_from_slice(b"}}");
            }
            HandshakeMsg::ServerHello(sh) => {
                out.extend_from_slice(b"{\"ServerHello\":{\"server_random\":");
                put_u64(&mut out, sh.server_random);
                out.extend_from_slice(b",\"alpn\":");
                put_opt(&mut out, sh.alpn.as_deref(), put_str);
                out.extend_from_slice(b",\"chain\":");
                put_list(&mut out, &sh.chain, put_cert);
                out.extend_from_slice(b",\"ticket\":");
                put_opt(&mut out, sh.ticket, put_u64);
                out.extend_from_slice(if sh.resumed {
                    b",\"resumed\":true}}"
                } else {
                    b",\"resumed\":false}}"
                });
            }
            HandshakeMsg::Alert(reason) => {
                out.extend_from_slice(b"{\"Alert\":");
                put_str(&mut out, reason);
                out.push(b'}');
            }
            HandshakeMsg::Finished => out.extend_from_slice(b"\"Finished\""),
        }
        out
    }

    /// Parse from a handshake-record payload. Anything other than the
    /// canonical encoding of a message is a protocol violation.
    pub fn decode(data: &[u8]) -> Result<Self, TlsError> {
        let mut r = Reader {
            bytes: data,
            pos: 0,
        };
        match r.message() {
            Some(msg) if r.pos == data.len() => Ok(msg),
            _ => Err(TlsError::ProtocolViolation(format!(
                "bad handshake message at offset {}",
                r.pos
            ))),
        }
    }
}

fn put_cert(out: &mut Vec<u8>, cert: &Certificate) {
    out.extend_from_slice(b"{\"subject_cn\":");
    put_str(out, &cert.subject_cn);
    out.extend_from_slice(b",\"san\":");
    put_list(out, &cert.san, |out, name| put_str(out, name));
    out.extend_from_slice(b",\"issuer_cn\":");
    put_str(out, &cert.issuer_cn);
    out.extend_from_slice(b",\"serial\":");
    put_u64(out, cert.serial);
    out.extend_from_slice(b",\"not_before\":");
    put_i64(out, cert.not_before.days());
    out.extend_from_slice(b",\"not_after\":");
    put_i64(out, cert.not_after.days());
    out.extend_from_slice(b",\"key\":");
    put_u64(out, cert.key.0);
    out.extend_from_slice(b",\"signature\":{\"signer\":");
    put_u64(out, cert.signature.signer.0);
    out.extend_from_slice(b",\"digest\":");
    put_u64(out, cert.signature.digest);
    out.extend_from_slice(b"}}");
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put(out, item);
    }
    out.push(b']');
}

fn put_opt<T>(out: &mut Vec<u8>, item: Option<T>, put: fn(&mut Vec<u8>, T)) {
    match item {
        Some(item) => put(out, item),
        None => out.extend_from_slice(b"null"),
    }
}

fn put_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn put_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    put_u64(out, n.unsigned_abs());
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A JSON string, escaped as `serde_json` escapes it.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x20.. => continue,
            _ => 0,
        };
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        if short == 0 {
            let (hi, lo) = (HEX[(b >> 4) as usize], HEX[(b & 0xf) as usize]);
            out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hi, lo]);
        } else {
            out.extend_from_slice(&[b'\\', short]);
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Reads the canonical encoding back. Every method returns `None` as soon
/// as the input departs from what [`HandshakeMsg::encode`] would write.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &[u8]) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn require(&mut self, lit: &[u8]) -> Option<()> {
        self.eat(lit).then_some(())
    }

    fn message(&mut self) -> Option<HandshakeMsg> {
        if self.eat(b"\"Finished\"") {
            return Some(HandshakeMsg::Finished);
        }
        if self.eat(b"{\"ClientHello\":{\"sni\":") {
            let sni = self.opt(Self::string)?;
            self.require(b",\"alpn\":")?;
            let alpn = self.list(Self::string)?;
            self.require(b",\"client_random\":")?;
            let client_random = self.u64()?;
            self.require(b",\"ticket\":")?;
            let ticket = self.opt(Self::u64)?;
            self.require(b"}}")?;
            return Some(HandshakeMsg::ClientHello(ClientHello {
                sni,
                alpn,
                client_random,
                ticket,
            }));
        }
        if self.eat(b"{\"ServerHello\":{\"server_random\":") {
            let server_random = self.u64()?;
            self.require(b",\"alpn\":")?;
            let alpn = self.opt(Self::string)?;
            self.require(b",\"chain\":")?;
            let chain = self.list(Self::cert)?;
            self.require(b",\"ticket\":")?;
            let ticket = self.opt(Self::u64)?;
            self.require(b",\"resumed\":")?;
            let resumed = if self.eat(b"true") {
                true
            } else {
                self.require(b"false")?;
                false
            };
            self.require(b"}}")?;
            return Some(HandshakeMsg::ServerHello(ServerHello {
                server_random,
                alpn,
                chain,
                ticket,
                resumed,
            }));
        }
        self.require(b"{\"Alert\":")?;
        let reason = self.string()?;
        self.require(b"}")?;
        Some(HandshakeMsg::Alert(reason))
    }

    fn cert(&mut self) -> Option<Certificate> {
        self.require(b"{\"subject_cn\":")?;
        let subject_cn = self.string()?;
        self.require(b",\"san\":")?;
        let san = self.list(Self::string)?;
        self.require(b",\"issuer_cn\":")?;
        let issuer_cn = self.string()?;
        self.require(b",\"serial\":")?;
        let serial = self.u64()?;
        self.require(b",\"not_before\":")?;
        let not_before = DateStamp::from_days(self.i64()?);
        self.require(b",\"not_after\":")?;
        let not_after = DateStamp::from_days(self.i64()?);
        self.require(b",\"key\":")?;
        let key = KeyId(self.u64()?);
        self.require(b",\"signature\":{\"signer\":")?;
        let signer = KeyId(self.u64()?);
        self.require(b",\"digest\":")?;
        let digest = self.u64()?;
        self.require(b"}}")?;
        Some(Certificate {
            subject_cn,
            san,
            issuer_cn,
            serial,
            not_before,
            not_after,
            key,
            signature: Signature { signer, digest },
        })
    }

    /// `null`, or one `item`.
    fn opt<T>(&mut self, item: fn(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.eat(b"null") {
            Some(None)
        } else {
            item(self).map(Some)
        }
    }

    /// `[]`, or `item`s separated by commas in brackets.
    fn list<T>(&mut self, item: fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.require(b"[")?;
        let mut items = Vec::new();
        if self.eat(b"]") {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(b"]") {
                return Some(items);
            }
            self.require(b",")?;
        }
    }

    /// `0`, or a non-zero digit followed by digits, within `u64`.
    fn u64(&mut self) -> Option<u64> {
        match *self.bytes.get(self.pos)? {
            b'0' => {
                self.pos += 1;
                return Some(0);
            }
            b'1'..=b'9' => {}
            _ => return None,
        }
        let mut n: u64 = 0;
        while let Some(&d) = self.bytes.get(self.pos).filter(|d| d.is_ascii_digit()) {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        Some(n)
    }

    /// A [`Self::u64`] magnitude, with a `-` sign if negative (never `-0`),
    /// within `i64`.
    fn i64(&mut self) -> Option<i64> {
        if self.eat(b"-") {
            match self.u64()? {
                0 => None,
                magnitude => 0i64.checked_sub_unsigned(magnitude),
            }
        } else {
            i64::try_from(self.u64()?).ok()
        }
    }

    /// A string with exactly the escapes [`put_str`] writes, valid UTF-8.
    fn string(&mut self) -> Option<String> {
        self.require(b"\"")?;
        let mut out = Vec::new();
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.extend_from_slice(&self.bytes[run..self.pos]);
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    // Escapes only add ASCII, so this validates every raw run.
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    let (unescaped, len) = match *self.bytes.get(self.pos + 1)? {
                        b'"' => (b'"', 2),
                        b'\\' => (b'\\', 2),
                        b'n' => (b'\n', 2),
                        b'r' => (b'\r', 2),
                        b't' => (b'\t', 2),
                        b'u' => (self.control_escape()?, 6),
                        _ => return None,
                    };
                    out.push(unescaped);
                    self.pos += len;
                }
                // A raw control byte: the encoder always escapes those.
                _ => return None,
            }
        }
    }

    /// The `00xx` after a `\u` at `pos`: a C0 control other than the three
    /// with short escapes, in lower-case hex.
    fn control_escape(&self) -> Option<u8> {
        let &[b'0', b'0', hi, lo] = self.bytes.get(self.pos + 2..self.pos + 6)? else {
            return None;
        };
        let nibble = |c: u8| HEX.iter().position(|&h| h == c);
        let code = (nibble(hi)? << 4 | nibble(lo)?) as u8;
        (code < 0x20 && !matches!(code, b'\n' | b'\r' | b'\t')).then_some(code)
    }
}

/// CPU-time costs charged for cryptographic operations.
///
/// These are what make encrypted DNS a few milliseconds slower than
/// clear-text DNS *with connection reuse* (Finding 3.1: average overheads
/// of 5–9 ms for DoT, 6–8 ms for DoH) — the paths are identical, so the
/// residual overhead is handshake amortisation plus per-record work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlsCosts {
    /// One-off asymmetric work at full handshake (key exchange + cert
    /// verification), charged to the connecting client.
    pub handshake: SimDuration,
    /// Work at resumption (ticket decryption only).
    pub resumption: SimDuration,
    /// Symmetric work per application-data exchange.
    pub per_exchange: SimDuration,
}

impl Default for TlsCosts {
    fn default() -> Self {
        TlsCosts {
            handshake: SimDuration::from_millis(9),
            resumption: SimDuration::from_millis(2),
            per_exchange: SimDuration::from_millis(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CaHandle, KeyId};
    use crate::date::DateStamp;

    #[test]
    fn client_hello_round_trip() {
        let ch = HandshakeMsg::ClientHello(ClientHello {
            sni: Some("cloudflare-dns.com".into()),
            alpn: vec!["dot".into()],
            client_random: 0xdead_beef,
            ticket: None,
        });
        let bytes = ch.encode();
        assert_eq!(HandshakeMsg::decode(&bytes).unwrap(), ch);
    }

    #[test]
    fn server_hello_with_chain_round_trips() {
        let ca = CaHandle::new("CA", KeyId(1), DateStamp::from_ymd(2019, 1, 1), 3650);
        let leaf = ca.issue(
            "dns.quad9.net",
            vec![],
            KeyId(2),
            1,
            DateStamp::from_ymd(2019, 1, 1),
            DateStamp::from_ymd(2020, 1, 1),
        );
        let sh = HandshakeMsg::ServerHello(ServerHello {
            server_random: 77,
            alpn: Some("dot".into()),
            chain: vec![leaf],
            ticket: Some(123),
            resumed: false,
        });
        let bytes = sh.encode();
        assert_eq!(HandshakeMsg::decode(&bytes).unwrap(), sh);
    }

    #[test]
    fn garbage_rejected() {
        assert!(HandshakeMsg::decode(b"not json").is_err());
    }

    #[test]
    fn default_costs_are_modest() {
        let c = TlsCosts::default();
        assert!(c.handshake > c.resumption);
        assert!(c.per_exchange < SimDuration::from_millis(10));
    }
}
