//! The signed envelope: how a message is sealed for its receivers and
//! opened by one of them, and which of its bytes the MACs cover. This is
//! the one module that computes or checks a MAC.

use bft_crypto::{Authenticator, CryptoCostModel, Digest, KeyTable, NodeId, DIGEST_LEN};
use simnet::Nanos;

use crate::codec::{Codec, CodecError, Reader};
use crate::messages::{request_digest, Message, SeqNum};

/// Bytes of one MAC entry of an envelope: the receiver, then its MAC.
pub(crate) const MAC_ENTRY_LEN: usize = 4 + DIGEST_LEN;

/// The wire tag of a REQUEST body.
const REQUEST_TAG: u8 = 0;

/// The wire tag of a PRE-PREPARE body.
const PRE_PREPARE_TAG: u8 = 1;

/// Bytes of a PRE-PREPARE's header: tag, view, sequence number and batch
/// digest, the fields before its batch.
pub(crate) const PRE_PREPARE_HEADER_LEN: usize = 1 + 8 + 8 + DIGEST_LEN;

/// Bytes of the smallest REQUEST body whose MACs cover its digest. Below
/// about 820 B, hashing the request before its MAC costs more than the
/// batch digest saves by folding that digest in.
pub(crate) const REQUEST_DIGEST_MAC_MIN: usize = 1024;

/// What the MACs of one body cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Covered {
    /// The body's first `n` bytes.
    Prefix(usize),
    /// The [`crate::Request::digest`] of a large REQUEST.
    Digest(Digest),
}

/// What the MACs of `body` cover, as in Castro and Liskov's PBFT:
/// - a PRE-PREPARE's header: the batch that follows is bound by the
///   header's digest, which every backup checks before it uses the batch;
/// - a REQUEST body of at least [`REQUEST_DIGEST_MAC_MIN`] bytes: the
///   request's digest, the one a batch digest folds, so a replica hashes
///   the request once;
/// - every other body whole.
pub(crate) fn covered(body: &[u8]) -> Covered {
    match body.first() {
        Some(&PRE_PREPARE_TAG) if body.len() >= PRE_PREPARE_HEADER_LEN => {
            Covered::Prefix(PRE_PREPARE_HEADER_LEN)
        }
        Some(&REQUEST_TAG) if body.len() >= REQUEST_DIGEST_MAC_MIN => {
            encoded_request_digest(body).map_or(Covered::Prefix(body.len()), Covered::Digest)
        }
        _ => Covered::Prefix(body.len()),
    }
}

/// The digest of the request an encoded REQUEST body holds, read in place;
/// `None` if the body is not one.
fn encoded_request_digest(body: &[u8]) -> Option<Digest> {
    let mut r = Reader::new(body.get(1..)?);
    let client = u32::read(&mut r).ok()?;
    let timestamp = u64::read(&mut r).ok()?;
    let len = r.count::<u8>().ok()?;
    let payload = r.take(len).ok()?;
    r.expect_end().ok()?;
    Some(request_digest(client, timestamp, payload))
}

impl Covered {
    /// The bytes each MAC is computed over, out of `body`.
    pub(crate) fn bytes<'a>(&'a self, body: &'a [u8]) -> &'a [u8] {
        match self {
            Covered::Prefix(n) => &body[..*n],
            Covered::Digest(d) => d.as_ref(),
        }
    }

    /// How many bytes each MAC covers.
    pub(crate) fn len(&self) -> usize {
        match self {
            Covered::Prefix(n) => *n,
            Covered::Digest(_) => DIGEST_LEN,
        }
    }

    /// The request digest this rule computed, if it covers one.
    pub(crate) fn digest(&self) -> Option<Digest> {
        match self {
            Covered::Prefix(_) => None,
            Covered::Digest(d) => Some(*d),
        }
    }

    /// What checking one MAC of a `body_len`-byte body costs: a covered
    /// digest is computed over the body first.
    pub(crate) fn verify_cost(&self, body_len: usize, crypto: &CryptoCostModel) -> Nanos {
        let hash = match self {
            Covered::Prefix(_) => Nanos::ZERO,
            Covered::Digest(_) => crypto.digest_cost(body_len),
        };
        hash + crypto.verify_cost(self.len())
    }
}

impl Message {
    /// Seals the message from the holder of `keys` towards `receivers`:
    /// its wire envelope, written once into one buffer (see [`Envelope`]).
    pub fn seal(&self, keys: &KeyTable, receivers: &[NodeId]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(keys, receivers.len(), |i| receivers[i], &mut out);
        out
    }

    /// [`Message::seal`] towards `count` receivers named by index, written
    /// over `out`'s contents: a sender that recycles its buffers (see
    /// [`SealBuffers`]) seals without allocating once one is large enough.
    /// Returns how many bytes each MAC covers.
    pub(crate) fn seal_into(
        &self,
        keys: &KeyTable,
        count: usize,
        receiver: impl Fn(usize) -> NodeId,
        out: &mut Vec<u8>,
    ) -> usize {
        let body_len = self.encoded_len();
        // Computed once for every receiver's MAC: it may be a digest.
        let mut cover = None;
        write_envelope(
            out,
            body_len,
            |out| self.write(out),
            keys.me(),
            count,
            |i, body| {
                let cover = cover.get_or_insert_with(|| covered(body));
                let r = receiver(i);
                (r, keys.mac(cover.bytes(body), r))
            },
        );
        cover
            .unwrap_or_else(|| covered(&out[4..4 + body_len]))
            .len()
    }
}

/// Spare buffers to seal into: a sender takes one, seals a message into it,
/// and puts it back once the transport has written it, so a steady stream
/// of messages reuses a few buffers instead of allocating one each.
#[derive(Debug, Default)]
pub(crate) struct SealBuffers(Vec<Vec<u8>>);

impl SealBuffers {
    /// Most buffers kept.
    const MAX_KEPT: usize = 16;
    /// Largest buffer kept: one grown by a state chunk or a catch-up burst
    /// is freed rather than held for good.
    const MAX_CAPACITY: usize = 64 * 1024;

    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.0.pop().unwrap_or_default()
    }

    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if self.0.len() < Self::MAX_KEPT && buf.capacity() <= Self::MAX_CAPACITY {
            self.0.push(buf);
        }
    }
}

/// The one envelope writer: `[body_len][body][sender][count]`, then
/// `count` `(receiver, mac)` entries, written over `out`'s contents, which
/// grows at most once, to exactly the envelope's length. `write_body`
/// appends the `body_len` body bytes, and `entry(i, body)` gives entry `i`,
/// its MAC computed over the body where it already sits in that buffer.
fn write_envelope(
    out: &mut Vec<u8>,
    body_len: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
    sender: NodeId,
    count: usize,
    mut entry: impl FnMut(usize, &[u8]) -> (NodeId, [u8; DIGEST_LEN]),
) {
    let len = 4 + body_len + 4 + 4 + count * MAC_ENTRY_LEN;
    out.clear();
    out.reserve_exact(len);
    (body_len as u32).write(out);
    write_body(out);
    debug_assert_eq!(out.len(), 4 + body_len, "body_len disagrees with the body");
    sender.write(out);
    (count as u32).write(out);
    for i in 0..count {
        let (receiver, mac) = entry(i, &out[4..4 + body_len]);
        receiver.write(out);
        mac.write(out);
    }
    debug_assert_eq!(out.len(), len, "envelope sized exactly");
}

/// A signed envelope read in place: its body and MAC entries are slices of
/// the buffer it arrived in, so opening one copies nothing but what the
/// decoded [`Message`] owns.
///
/// [`Envelope::parse`] checks the framing before any MAC is computed;
/// [`Envelope::open`] verifies this node's MAC and decodes the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<'a> {
    body: &'a [u8],
    sender: NodeId,
    /// The MAC entries, [`MAC_ENTRY_LEN`] bytes each.
    macs: &'a [u8],
}

impl<'a> Envelope<'a> {
    /// Reads the framing of `wire`: one bounds check per field, the codec's
    /// count check on the MAC list, and trailing bytes refused.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed framing.
    pub fn parse(wire: &'a [u8]) -> Result<Envelope<'a>, CodecError> {
        let mut r = Reader::new(wire);
        let body_len = r.count::<u8>()?;
        let body = r.take(body_len)?;
        let sender = NodeId::read(&mut r)?;
        let count = r.count::<(NodeId, [u8; DIGEST_LEN])>()?;
        let macs = r.take(count * MAC_ENTRY_LEN)?;
        r.expect_end()?;
        Ok(Envelope { body, sender, macs })
    }

    /// The encoded message body.
    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// What the body's MACs cover (see [`covered`]).
    pub(crate) fn covered(&self) -> Covered {
        covered(self.body)
    }

    /// The node whose keys made the MACs.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// The `(receiver, mac)` entries, in wire order.
    pub(crate) fn macs(&self) -> impl ExactSizeIterator<Item = (NodeId, &'a [u8; DIGEST_LEN])> {
        self.macs.chunks_exact(MAC_ENTRY_LEN).map(|entry| {
            let (receiver, mac) = entry
                .split_first_chunk()
                .expect("an entry starts with its receiver");
            (
                NodeId::from_le_bytes(*receiver),
                mac.try_into().expect("and ends with its MAC"),
            )
        })
    }

    /// Whether the first entry addressed to the holder of `keys` is the
    /// sender's MAC of `cover`: [`KeyTable::verify`]'s rule.
    fn verify(&self, keys: &KeyTable, cover: &Covered) -> bool {
        self.macs()
            .find(|(r, _)| *r == keys.me())
            .is_some_and(|(_, mac)| keys.verify_mac(cover.bytes(self.body), self.sender, mac))
    }

    /// Verifies the MAC for the holder of `keys` and decodes the body.
    ///
    /// # Errors
    ///
    /// A codec error for a malformed body; a failed verification is
    /// `Ok(None)`, so callers can count it as Byzantine behaviour rather
    /// than a local fault.
    pub fn open(&self, keys: &KeyTable) -> Result<Option<Message>, CodecError> {
        Ok(self.open_covered(keys)?.map(|(msg, _)| msg))
    }

    /// [`Envelope::open`], with what the MACs covered: a receiver charges
    /// its check by it and keeps a REQUEST's digest.
    pub(crate) fn open_covered(
        &self,
        keys: &KeyTable,
    ) -> Result<Option<(Message, Covered)>, CodecError> {
        let cover = self.covered();
        if !self.verify(keys, &cover) {
            return Ok(None);
        }
        Message::decode(self.body).map(|msg| Some((msg, cover)))
    }
}

/// An [`Envelope`] copied out of its buffer. The protocol seals with
/// [`Message::seal`] and opens envelopes in place; this owned form is for
/// tests and probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMessage {
    /// Encoded message body.
    pub body: Vec<u8>,
    /// MAC vector over the body's covered bytes (see [`Envelope`]).
    pub auth: Authenticator,
}

impl From<Envelope<'_>> for SignedMessage {
    fn from(envelope: Envelope<'_>) -> SignedMessage {
        SignedMessage {
            body: envelope.body.to_vec(),
            auth: Authenticator {
                sender: envelope.sender,
                macs: envelope.macs().map(|(r, mac)| (r, *mac)).collect(),
            },
        }
    }
}

impl SignedMessage {
    /// Authenticates `msg` from the holder of `keys` towards `receivers`.
    pub fn create(msg: &Message, keys: &KeyTable, receivers: &[u32]) -> SignedMessage {
        let wire = msg.seal(keys, receivers);
        Envelope::parse(&wire)
            .expect("a sealed envelope parses")
            .into()
    }

    /// Wire encoding: body, sender, MAC vector.
    pub fn encode(&self) -> Vec<u8> {
        let macs = &self.auth.macs;
        let mut out = Vec::new();
        write_envelope(
            &mut out,
            self.body.len(),
            |out| out.extend_from_slice(&self.body),
            self.auth.sender,
            macs.len(),
            |i, _| macs[i],
        );
        out
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<SignedMessage, CodecError> {
        Envelope::parse(buf).map(SignedMessage::from)
    }

    /// Peeks the agreement sequence number out of an encoded wire frame
    /// without decoding or verifying it — the cheap header inspection the
    /// COP transport demultiplexer uses to route a frame to its owning
    /// pipeline before MAC verification runs on that pipeline's core.
    ///
    /// Returns `Some(seq)` only for sequence-bearing agreement messages
    /// (PRE-PREPARE, PREPARE, COMMIT, CATCH-UP-REPLY); `None` for all other
    /// kinds and for frames too short to carry the claimed fields. A
    /// Byzantine header can only misroute its own frame to a different
    /// pipeline core; verification and full decoding still gate acceptance.
    pub fn peek_wire_seq(wire: &[u8]) -> Option<SeqNum> {
        let mut wire = Reader::new(wire);
        let body_len = wire.count::<u8>().ok()?;
        let mut body = Reader::new(wire.take(body_len).ok()?);
        let tag = u8::read(&mut body).ok()?;
        let mut field = || u64::read(&mut body).ok();
        match tag {
            // PRE-PREPARE / PREPARE / COMMIT: tag, view, seq.
            1..=3 => field().and_then(|_view| field()),
            // CATCH-UP-REPLY: tag, seq.
            9 => field(),
            _ => None,
        }
    }

    /// Verifies the MAC for the holder of `keys` and decodes the body.
    ///
    /// # Errors
    ///
    /// `None`-like error via `Result`: a codec error for malformed bodies;
    /// verification failure is reported as `Ok(None)` so callers can count
    /// it as Byzantine behaviour rather than a local fault.
    pub fn verify_and_decode(&self, keys: &KeyTable) -> Result<Option<Message>, CodecError> {
        if !keys.verify(covered(&self.body).bytes(&self.body), &self.auth) {
            return Ok(None);
        }
        Message::decode(&self.body).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{batch_digest, Request};

    fn req(c: u32, ts: u64) -> Request {
        Request {
            client: c,
            timestamp: ts,
            payload: vec![1, 2, 3],
        }
    }

    fn pre_prepare() -> Message {
        let batch = vec![req(10, 1), req(11, 2)];
        Message::PrePrepare {
            view: 1,
            seq: 2,
            digest: batch_digest(&batch),
            batch,
        }
    }

    #[test]
    fn a_pre_prepare_macs_its_header_and_everything_else_its_body() {
        let pp = pre_prepare().encode();
        assert_eq!(pp[0], PRE_PREPARE_TAG);
        assert_eq!(covered(&pp), Covered::Prefix(PRE_PREPARE_HEADER_LEN));
        // The header ends where the batch begins: its digest is the last
        // field before it.
        let Message::PrePrepare { digest, .. } = pre_prepare() else {
            unreachable!()
        };
        assert_eq!(
            &pp[PRE_PREPARE_HEADER_LEN - DIGEST_LEN..PRE_PREPARE_HEADER_LEN],
            digest.as_ref()
        );
        let request = Message::Request(req(9, 4)).encode();
        assert_eq!(covered(&request), Covered::Prefix(request.len()));
        // A body too short to hold a header is covered whole.
        assert_eq!(covered(&pp[..10]), Covered::Prefix(10));

        let keys = KeyTable::new(0, b"secret".to_vec());
        let mut wire = Vec::new();
        let len = pre_prepare().seal_into(&keys, 3, |i| i as NodeId + 1, &mut wire);
        assert_eq!(len, PRE_PREPARE_HEADER_LEN);
        assert_eq!(Envelope::parse(&wire).unwrap().covered().len(), len);
    }

    /// A REQUEST of `len` body bytes.
    fn request_of(len: usize) -> Request {
        Request {
            client: 9,
            timestamp: 4,
            payload: vec![7; len - 17],
        }
    }

    #[test]
    fn a_request_of_at_least_one_kib_macs_its_digest() {
        let below = Message::Request(request_of(REQUEST_DIGEST_MAC_MIN - 1)).encode();
        assert_eq!(below.len(), REQUEST_DIGEST_MAC_MIN - 1);
        assert_eq!(covered(&below), Covered::Prefix(below.len()));
        let large = request_of(REQUEST_DIGEST_MAC_MIN);
        let at = Message::Request(large.clone()).encode();
        assert_eq!(at.len(), REQUEST_DIGEST_MAC_MIN);
        assert_eq!(covered(&at), Covered::Digest(large.digest()));
        // A REQUEST tag on a body that is no request is covered whole.
        let mut cut = at.clone();
        cut.pop();
        cut.push(0);
        cut.push(0);
        assert_eq!(covered(&cut), Covered::Prefix(cut.len()));

        let keys = KeyTable::new(9, b"secret".to_vec());
        let mut wire = Vec::new();
        let len = Message::Request(large.clone()).seal_into(&keys, 4, |i| i as NodeId, &mut wire);
        assert_eq!(len, DIGEST_LEN);
        let envelope = Envelope::parse(&wire).unwrap();
        let (receiver, mac) = envelope.macs().nth(2).unwrap();
        assert_eq!(*mac, keys.mac(large.digest().as_ref(), receiver));
        let at_two = KeyTable::new(2, b"secret".to_vec());
        let opened = envelope.open_covered(&at_two).unwrap();
        assert_eq!(
            opened,
            Some((
                Message::Request(large.clone()),
                Covered::Digest(large.digest())
            ))
        );
    }

    #[test]
    fn checking_a_digest_mac_charges_the_hash_and_a_32_byte_mac() {
        let crypto = CryptoCostModel::default();
        let body = 4096 + 17;
        assert_eq!(
            Covered::Digest(Digest::ZERO).verify_cost(body, &crypto),
            crypto.digest_cost(body) + crypto.verify_cost(DIGEST_LEN)
        );
        assert_eq!(
            Covered::Prefix(100).verify_cost(body, &crypto),
            crypto.verify_cost(100)
        );
    }
}
