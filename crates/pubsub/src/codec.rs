//! Binary wire format for overlay packets.
//!
//! The simulator passes [`Packet`]s by value, but a deployment puts them on
//! UDP sockets; this codec defines that wire format. The layout is a
//! straightforward length-prefixed little-endian encoding:
//!
//! ```text
//! magic  u8 = 0xDC   version u8 = 2
//! id u64   topic u32   publisher u32   published_at_us u64   tag u64
//! seq u64
//! kind u8 (0 = data; 1 = nack: subscriber u32, missing_count u16, seq u64 ×n)
//! dest_count u16, dest u32 ×n
//! path_len   u16, node u32 ×n
//! route_flag u8 (0/1) [route_len u16, node u32 ×n]
//! payload_len u32, payload bytes
//! ```
//!
//! Decoding validates the header and every length, so a truncated or
//! corrupted datagram produces a typed [`DecodePacketError`] instead of a
//! garbage packet.
//!
//! ## Hostile-input discipline
//!
//! Every length prefix on the wire is attacker-controlled, so the decoder
//! never trusts one when sizing an allocation. Each length-prefixed read
//! follows the same two-step pattern:
//!
//! 1. validate the advertised element count against the bytes actually
//!    remaining ([`need`], with `saturating_mul` so a hostile count cannot
//!    overflow the byte math), then
//! 2. clamp the capacity hint to `count.min(remaining / elem_size)` anyway,
//!    so even if a future edit dropped the guard the allocation could never
//!    exceed the datagram length.
//!
//! A 10-byte datagram claiming `2^32` nodes therefore yields
//! `Truncated`, not a multi-gigabyte `Vec`. The analyzer rule `SAFE003`
//! enforces the clamp lexically: any `with_capacity`/`reserve` in a codec
//! file whose argument is not visibly clamped with `.min(..)` is flagged.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dcrd_net::NodeId;
use dcrd_sim::SimTime;
use std::fmt;

use crate::packet::{Packet, PacketBody, PacketId, PacketKind};
use crate::topic::TopicId;

const MAGIC: u8 = 0xDC;
const VERSION: u8 = 2;

/// Why a datagram failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodePacketError {
    /// The buffer ended before the advertised content.
    Truncated {
        /// Bytes still needed when the buffer ran out.
        needed: usize,
    },
    /// The first byte was not the DCRD magic.
    BadMagic(u8),
    /// Unsupported format version.
    BadVersion(u8),
    /// Bytes remained after the advertised content.
    TrailingBytes(usize),
    /// Unknown packet-kind discriminant.
    BadKind(u8),
    /// Route-presence flag other than 0 or 1. Rejected rather than
    /// interpreted so that every accepted datagram re-encodes to exactly
    /// the bytes it arrived as (canonical form — found by the byte
    /// fuzzer's round-trip oracle).
    BadRouteFlag(u8),
}

impl fmt::Display for DecodePacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodePacketError::Truncated { needed } => {
                write!(f, "packet truncated: {needed} more bytes needed")
            }
            DecodePacketError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            DecodePacketError::BadVersion(v) => write!(f, "unsupported packet version {v}"),
            DecodePacketError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
            DecodePacketError::BadKind(k) => write!(f, "unknown packet kind {k}"),
            DecodePacketError::BadRouteFlag(b) => write!(f, "bad route-presence flag {b}"),
        }
    }
}

impl std::error::Error for DecodePacketError {}

/// Largest sensible single-allocation hint while encoding. The buffer still
/// grows to fit genuinely large packets; the clamp only stops a corrupted
/// in-memory length from turning the *hint* into a giant eager allocation.
const MAX_ENCODE_HINT: usize = 1 << 20;

/// Encodes `packet` into a fresh buffer.
///
/// # Panics
///
/// Panics (debug builds) if a list field exceeds the wire format's `u16`
/// count range; release builds would otherwise silently truncate the count.
#[must_use]
pub fn encode_packet(packet: &Packet) -> Bytes {
    debug_assert!(packet.destinations.len() <= u16::MAX as usize);
    debug_assert!(packet.path.len() <= u16::MAX as usize);
    if let PacketKind::Nack { missing, .. } = &packet.kind {
        debug_assert!(missing.len() <= u16::MAX as usize);
    }
    if let Some(route) = &packet.route {
        debug_assert!(route.len() <= u16::MAX as usize);
    }
    let kind_len = match &packet.kind {
        PacketKind::Data => 0,
        PacketKind::Nack { missing, .. } => 6 + 8 * missing.len(),
    };
    let hint = 49
        + kind_len
        + 4 * (packet.destinations.len() + packet.path.len())
        + packet.route.as_ref().map_or(0, |r| 2 + 4 * r.len())
        + packet.payload.len();
    let mut buf = BytesMut::with_capacity(hint.min(MAX_ENCODE_HINT));
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(packet.id.raw());
    buf.put_u32_le(packet.topic.index() as u32);
    buf.put_u32_le(packet.publisher.index() as u32);
    buf.put_u64_le(packet.published_at.as_micros());
    buf.put_u64_le(packet.tag);
    buf.put_u64_le(packet.seq);
    match &packet.kind {
        PacketKind::Data => buf.put_u8(0),
        PacketKind::Nack {
            subscriber,
            missing,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(subscriber.index() as u32);
            buf.put_u16_le(missing.len() as u16);
            for &s in missing {
                buf.put_u64_le(s);
            }
        }
    }
    buf.put_u16_le(packet.destinations.len() as u16);
    for d in &packet.destinations {
        buf.put_u32_le(d.index() as u32);
    }
    buf.put_u16_le(packet.path.len() as u16);
    for n in &packet.path {
        buf.put_u32_le(n.index() as u32);
    }
    match &packet.route {
        Some(route) => {
            buf.put_u8(1);
            buf.put_u16_le(route.len() as u16);
            for n in route {
                buf.put_u32_le(n.index() as u32);
            }
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(packet.payload.len() as u32);
    buf.put_slice(&packet.payload);
    buf.freeze()
}

fn need(buf: &impl Buf, n: usize) -> Result<(), DecodePacketError> {
    if buf.remaining() < n {
        Err(DecodePacketError::Truncated {
            needed: n - buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Reads a length-prefixed node list whose advertised `count` came off the
/// wire. The count is validated against the remaining bytes *before* any
/// allocation, and the capacity hint is additionally clamped by the buffer
/// length so the guard and the clamp are each independently sufficient.
fn read_nodes(buf: &mut impl Buf, count: usize) -> Result<Vec<NodeId>, DecodePacketError> {
    need(buf, count.saturating_mul(4))?;
    let mut nodes = Vec::with_capacity(count.min(buf.remaining() / 4));
    for _ in 0..count {
        nodes.push(NodeId::new(buf.get_u32_le()));
    }
    Ok(nodes)
}

/// Reads a length-prefixed `u64` list (NACK missing-sequence numbers) under
/// the same validate-then-clamp discipline as [`read_nodes`].
fn read_seqs(buf: &mut impl Buf, count: usize) -> Result<Vec<u64>, DecodePacketError> {
    need(buf, count.saturating_mul(8))?;
    let mut seqs = Vec::with_capacity(count.min(buf.remaining() / 8));
    for _ in 0..count {
        seqs.push(buf.get_u64_le());
    }
    Ok(seqs)
}

/// Decodes one packet from `data`, requiring the buffer to contain exactly
/// one packet.
///
/// # Errors
///
/// Returns a [`DecodePacketError`] on bad magic/version, truncation, or
/// trailing bytes.
pub fn decode_packet(data: &[u8]) -> Result<Packet, DecodePacketError> {
    let mut buf = data;
    need(&buf, 2)?;
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(DecodePacketError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DecodePacketError::BadVersion(version));
    }
    need(&buf, 8 + 4 + 4 + 8 + 8 + 8 + 1)?;
    let id = PacketId::new(buf.get_u64_le());
    let topic = TopicId::new(buf.get_u32_le());
    let publisher = NodeId::new(buf.get_u32_le());
    let published_at = SimTime::from_micros(buf.get_u64_le());
    let tag = buf.get_u64_le();
    let seq = buf.get_u64_le();
    let kind = match buf.get_u8() {
        0 => PacketKind::Data,
        1 => {
            need(&buf, 4 + 2)?;
            let subscriber = NodeId::new(buf.get_u32_le());
            let count = buf.get_u16_le() as usize;
            let missing = read_seqs(&mut buf, count)?;
            PacketKind::Nack {
                subscriber,
                missing,
            }
        }
        k => return Err(DecodePacketError::BadKind(k)),
    };
    need(&buf, 2)?;
    let dest_count = buf.get_u16_le() as usize;
    let destinations = read_nodes(&mut buf, dest_count)?;
    need(&buf, 2)?;
    let path_len = buf.get_u16_le() as usize;
    let path = read_nodes(&mut buf, path_len)?;
    need(&buf, 1)?;
    let route = match buf.get_u8() {
        0 => None,
        b if b != 1 => return Err(DecodePacketError::BadRouteFlag(b)),
        _ => {
            need(&buf, 2)?;
            let len = buf.get_u16_le() as usize;
            Some(read_nodes(&mut buf, len)?)
        }
    };
    need(&buf, 4)?;
    let payload_len = buf.get_u32_le() as usize;
    need(&buf, payload_len)?;
    let payload = Bytes::copy_from_slice(&buf[..payload_len]);
    buf.advance(payload_len);
    if buf.has_remaining() {
        return Err(DecodePacketError::TrailingBytes(buf.remaining()));
    }
    Ok(Packet::from_body(
        PacketBody::new(id, topic, publisher, published_at, seq, payload),
        kind,
        destinations,
        path.into(),
        route,
        tag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_packet() -> Packet {
        Packet::from_body(
            PacketBody::new(
                PacketId::new(42),
                TopicId::new(3),
                NodeId::new(7),
                SimTime::from_millis(1234),
                11,
                Bytes::from_static(b"position report"),
            ),
            PacketKind::Data,
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(7), NodeId::new(5)].into(),
            Some(vec![NodeId::new(7), NodeId::new(5), NodeId::new(1)]),
            99,
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = sample_packet();
        let encoded = encode_packet(&p);
        let decoded = decode_packet(&encoded).expect("valid encoding");
        assert_eq!(decoded, p);
    }

    #[test]
    fn round_trip_minimal_packet() {
        let p = Packet::new(
            PacketId::new(0),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![],
        );
        let decoded = decode_packet(&encode_packet(&p)).expect("valid");
        assert_eq!(decoded, p);
        assert!(decoded.route.is_none());
        assert!(decoded.payload.is_empty());
    }

    #[test]
    fn round_trip_nack_packet() {
        let n = Packet::nack(
            PacketId::new(1 << 63),
            TopicId::new(4),
            NodeId::new(2),
            SimTime::from_millis(77),
            NodeId::new(9),
            vec![0, 4, 1000],
        );
        let decoded = decode_packet(&encode_packet(&n)).expect("valid");
        assert_eq!(decoded, n);
        assert!(decoded.is_nack());
    }

    #[test]
    fn bad_kind_rejected() {
        let bytes = encode_packet(&sample_packet()).to_vec();
        // The kind byte sits right after the fixed header (2 + 8+4+4+8+8+8).
        let mut bad = bytes;
        bad[42] = 7;
        assert_eq!(decode_packet(&bad), Err(DecodePacketError::BadKind(7)));
    }

    #[test]
    fn non_canonical_route_flag_rejected() {
        let bytes = encode_packet(&sample_packet()).to_vec();
        // Data kind, 2 dests, 2 path hops: the route flag sits at
        // 43 + (2 + 8) + (2 + 8) = 63.
        assert_eq!(bytes[63], 1);
        let mut bad = bytes;
        bad[63] = 0xff;
        assert_eq!(
            decode_packet(&bad),
            Err(DecodePacketError::BadRouteFlag(0xff))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_packet(&sample_packet()).to_vec();
        bytes[0] = 0xAB;
        assert_eq!(
            decode_packet(&bytes),
            Err(DecodePacketError::BadMagic(0xAB))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_packet(&sample_packet()).to_vec();
        bytes[1] = 9;
        assert_eq!(decode_packet(&bytes), Err(DecodePacketError::BadVersion(9)));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_packet(&sample_packet());
        for cut in 0..bytes.len() {
            let err = decode_packet(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, DecodePacketError::Truncated { .. }),
                "cut at {cut} produced {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_packet(&sample_packet()).to_vec();
        bytes.push(0);
        assert_eq!(
            decode_packet(&bytes),
            Err(DecodePacketError::TrailingBytes(1))
        );
    }

    /// The 42-byte fixed header (magic, version, id, topic, publisher,
    /// published_at, tag, seq) shared by the hostile-length tests below.
    fn fixed_header() -> BytesMut {
        let mut b = BytesMut::new();
        b.put_u8(MAGIC);
        b.put_u8(VERSION);
        b.put_u64_le(1); // id
        b.put_u32_le(0); // topic
        b.put_u32_le(0); // publisher
        b.put_u64_le(0); // published_at
        b.put_u64_le(0); // tag
        b.put_u64_le(0); // seq
        b
    }

    #[test]
    fn tiny_buffer_claiming_max_nack_count_is_rejected() {
        // A 49-byte datagram advertising 65535 missing-sequence entries
        // (524 KiB of content) must fail with `Truncated`, not allocate.
        let mut b = fixed_header();
        b.put_u8(1); // kind = NACK
        b.put_u32_le(3); // subscriber
        b.put_u16_le(u16::MAX); // claimed missing count, no entries follow
        assert_eq!(
            decode_packet(&b),
            Err(DecodePacketError::Truncated {
                needed: 8 * u16::MAX as usize
            })
        );
    }

    #[test]
    fn tiny_buffer_claiming_max_dest_count_is_rejected() {
        let mut b = fixed_header();
        b.put_u8(0); // kind = data
        b.put_u16_le(u16::MAX); // claimed destination count
        b.put_u32_le(7); // one lonely destination actually present
        assert_eq!(
            decode_packet(&b),
            Err(DecodePacketError::Truncated {
                needed: 4 * u16::MAX as usize - 4
            })
        );
    }

    #[test]
    fn tiny_buffer_claiming_four_gigabyte_payload_is_rejected() {
        // Overwrite a minimal packet's trailing payload length with
        // u32::MAX: the decoder must report the missing ~4 GiB instead of
        // eagerly allocating for it.
        let p = Packet::new(
            PacketId::new(0),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![],
        );
        let mut bytes = encode_packet(&p).to_vec();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_packet(&bytes),
            Err(DecodePacketError::Truncated {
                needed: u32::MAX as usize
            })
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(DecodePacketError::Truncated { needed: 4 }
            .to_string()
            .contains("4 more bytes"));
        assert!(DecodePacketError::BadMagic(7).to_string().contains("0x07"));
    }

    /// The header lists round-trip verbatim on both sides of the packet's
    /// inline list capacity (8 ids) and far beyond it.
    #[test]
    fn round_trips_header_lists_across_the_inline_boundary() {
        for n in [0u32, 8, 9, 300] {
            let dests: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            // A path with revisits: the ordered list must survive as is.
            let path: Vec<NodeId> = (0..n).map(|i| NodeId::new(i % 7)).collect();
            let p = Packet::from_body(
                PacketBody::new(
                    PacketId::new(u64::from(n)),
                    TopicId::new(1),
                    NodeId::new(2),
                    SimTime::from_millis(5),
                    3,
                    Bytes::new(),
                ),
                PacketKind::Data,
                dests.clone(),
                path.clone().into(),
                None,
                9,
            );
            let decoded = decode_packet(&encode_packet(&p)).expect("decodes");
            assert_eq!(decoded, p, "{n} entries");
            assert_eq!(decoded.destinations, dests);
            assert_eq!(decoded.path, path);
            // A forwarded copy of the decoded packet extends the same lists.
            let hop = NodeId::new(1000);
            let f = decoded.forward(hop, decoded.destinations.clone(), 0);
            assert_eq!(f.destinations, dests);
            assert_eq!(f.path.len(), path.len() + 1);
            assert_eq!(f.path.last(), Some(hop));
            assert!(path.iter().all(|&v| f.visited(v)) && f.visited(hop));
        }
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary_packets(
            id in 0u64..u64::MAX,
            topic in 0u32..1000,
            publisher in 0u32..1000,
            at in 0u64..u64::MAX / 2,
            tag in 0u64..u64::MAX,
            seq in 0u64..u64::MAX,
            nack in proptest::option::of((0u32..1000, proptest::collection::vec(0u64..10_000, 0..32))),
            dests in proptest::collection::vec(0u32..1000, 0..20),
            path in proptest::collection::vec(0u32..1000, 0..40),
            route in proptest::option::of(proptest::collection::vec(0u32..1000, 0..20)),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = Packet::from_body(
                PacketBody::new(
                    PacketId::new(id),
                    TopicId::new(topic),
                    NodeId::new(publisher),
                    SimTime::from_micros(at),
                    seq,
                    Bytes::from(payload),
                ),
                match nack {
                    None => PacketKind::Data,
                    Some((sub, missing)) => PacketKind::Nack {
                        subscriber: NodeId::new(sub),
                        missing,
                    },
                },
                dests.into_iter().map(NodeId::new).collect(),
                path.into_iter().map(NodeId::new).collect::<Vec<_>>().into(),
                route.map(|r| r.into_iter().map(NodeId::new).collect()),
                tag,
            );
            let decoded = decode_packet(&encode_packet(&p)).expect("round trip");
            prop_assert_eq!(decoded, p);
        }
    }
}
