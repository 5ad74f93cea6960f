//! The replication wire protocol: length-prefixed, CRC-framed, epoch-stamped.
//!
//! ```text
//! frame = tag u8 | epoch u64 | payload_len u32 | crc32(payload) u32 | payload
//! ```
//!
//! All integers little-endian, mirroring the WAL record framing — and for
//! `RECORD` frames the payload *is* the WAL record payload verbatim
//! (`version u64 | op tag | op body`), so the frame CRC the replica
//! verifies is byte-for-byte the record CRC it appends to its own log.
//! A CRC or framing violation surfaces as `InvalidData`; the connection is
//! torn down and the replica reconnects (TCP already retransmits, so a
//! persistent mismatch means a bug or a hostile peer, not line noise).
//!
//! Every frame header carries the sender's replication **epoch** (the
//! failover generation, bumped durably by `promote`). Stamping it on every
//! frame — not just the handshake — means a primary that was fenced
//! mid-stream is caught on its very next frame, and a replica that heard a
//! newer epoch elsewhere can reject a stale primary without waiting for a
//! reconnect.

use crate::durability::crc32;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Replica → primary: [`encode_hello`]'s payload — "I speak WAL format
/// `format`, hold everything through `start_version`, and (if `leader` is
/// non-empty) I am a fence probe announcing that leader".
pub(crate) const TAG_HELLO: u8 = 1;
/// Primary → replica: `primary_version u64 | plan u8` (records-only or
/// snapshot-first; see [`PLAN_RECORDS`] / [`PLAN_SNAPSHOT`]).
pub(crate) const TAG_HELLO_OK: u8 = 2;
/// Primary → replica: a complete `snap-<version>.rsnap` file, verbatim
/// (the payload is itself internally checksummed on top of the frame CRC).
pub(crate) const TAG_SNAPSHOT: u8 = 3;
/// Primary → replica: one WAL record payload, verbatim.
pub(crate) const TAG_RECORD: u8 = 4;
/// Primary → replica: `primary_version u64`, sent when the stream is idle
/// so the replica can distinguish "no writes" from "dead primary".
pub(crate) const TAG_HEARTBEAT: u8 = 5;
/// Replica → primary: `applied_version u64`, the newest version the
/// replica has durably applied. Never sent before the fsync'd append.
pub(crate) const TAG_ACK: u8 = 6;
/// Either direction: "you are fenced" / "I am fenced". Empty payload; the
/// authoritative epoch rides in the frame header. Sent by a node refusing
/// a handshake from a stale peer, and as the ack to a fence probe.
pub(crate) const TAG_FENCED: u8 = 7;
/// Both directions: namespace discovery. A replica opens a connection,
/// sends this with an empty payload, and the primary replies with the same
/// tag carrying [`encode_ns_list`] — the full set of tenant namespaces it
/// serves. Replicas poll this to mirror `create_namespace` /
/// `drop_namespace` lifecycle (per-namespace WAL streams only carry that
/// one tenant's mutations, so lifecycle needs its own channel).
pub(crate) const TAG_NS_LIST: u8 = 8;

/// Catch-up plan in `HELLO_OK`: the replica's WAL-covered tail suffices.
pub(crate) const PLAN_RECORDS: u8 = 0;
/// Catch-up plan in `HELLO_OK`: a snapshot frame precedes the tail.
pub(crate) const PLAN_SNAPSHOT: u8 = 1;

/// Upper bound on one frame's payload. Snapshots of multi-GB graphs ship
/// in a single frame, so this is generous; anything larger is garbage.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

/// Bytes in a frame header: `tag | epoch | len | crc`.
pub(crate) const FRAME_HEAD_LEN: usize = 1 + 8 + 4 + 4;

/// Upper bound on the leader-address field in a HELLO payload. Addresses
/// are `host:port` strings; anything longer is garbage, not a hostname.
pub(crate) const MAX_LEADER_LEN: usize = 256;

/// Upper bound on a namespace name on the wire (matches the durability
/// manifest's limit).
pub(crate) const MAX_NS_LEN: usize = 64;

/// How often an idle primary emits heartbeats. The replica's read deadline
/// is derived from this ([`client::READ_TIMEOUT`] = 10×), so a silent or
/// half-open primary is detected within a bounded number of missed beats.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(300);

/// One decoded frame.
#[derive(Debug)]
pub(crate) struct Frame {
    pub tag: u8,
    /// Sender's replication epoch at the moment the frame was written.
    pub epoch: u64,
    pub payload: Vec<u8>,
}

/// Writes one frame and flushes; returns the bytes put on the wire.
pub(crate) fn write_frame(w: &mut impl Write, tag: u8, epoch: u64, payload: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; FRAME_HEAD_LEN];
    head[0] = tag;
    head[1..9].copy_from_slice(&epoch.to_le_bytes());
    head[9..13].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[13..17].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(FRAME_HEAD_LEN as u64 + payload.len() as u64)
}

/// Reads and validates one frame. `InvalidData` on an oversized length or
/// CRC mismatch; other errors are plain transport failures (EOF, timeout).
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut head = [0u8; FRAME_HEAD_LEN];
    r.read_exact(&mut head)?;
    let tag = head[0];
    let epoch = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(head[9..13].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[13..17].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("replication frame length {len} exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "replication frame CRC mismatch",
        ));
    }
    Ok(Frame { tag, epoch, payload })
}

/// Parses a fixed 8-byte little-endian `u64` payload (heartbeats, acks).
pub(crate) fn parse_u64(payload: &[u8], what: &str) -> io::Result<u64> {
    let bytes: [u8; 8] = payload
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what} frame")))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Decoded HELLO payload (see [`encode_hello_ns`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Hello {
    pub format: u16,
    pub start_version: u64,
    /// Empty for a normal replica handshake. Non-empty marks a **fence
    /// probe**: "a leader at this address now owns a higher epoch" — the
    /// epoch itself rides in the frame header.
    pub leader: String,
    /// Tenant namespace this stream is for. Empty means `default`: a
    /// pre-namespace peer's HELLO has no namespace suffix and decodes to
    /// `""`, and a default-namespace HELLO is encoded without the suffix,
    /// so single-tenant clusters speak bytes identical to before
    /// namespaces existed.
    pub namespace: String,
}

/// Encodes a HELLO payload for the default namespace:
/// `format u16 | start_version u64 | leader_len u16 | leader utf8`.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn encode_hello(format: u16, start_version: u64, leader: &str) -> Vec<u8> {
    encode_hello_ns(format, start_version, leader, "")
}

/// Encodes a HELLO payload, optionally namespaced:
/// `format u16 | start_version u64 | leader_len u16 | leader utf8
///  [ns_len u16 | ns utf8]`.
/// The namespace suffix is omitted for `""`/`"default"`, keeping the bytes
/// identical to the pre-namespace protocol for single-tenant clusters.
pub(crate) fn encode_hello_ns(format: u16, start_version: u64, leader: &str, ns: &str) -> Vec<u8> {
    debug_assert!(leader.len() <= MAX_LEADER_LEN);
    debug_assert!(ns.len() <= MAX_NS_LEN);
    let mut buf = Vec::with_capacity(14 + leader.len() + ns.len());
    buf.extend_from_slice(&format.to_le_bytes());
    buf.extend_from_slice(&start_version.to_le_bytes());
    buf.extend_from_slice(&(leader.len() as u16).to_le_bytes());
    buf.extend_from_slice(leader.as_bytes());
    if !ns.is_empty() && ns != "default" {
        buf.extend_from_slice(&(ns.len() as u16).to_le_bytes());
        buf.extend_from_slice(ns.as_bytes());
    }
    buf
}

/// Parses a HELLO payload. `InvalidData` on truncation, an oversized or
/// short leader/namespace field, or non-UTF-8 bytes. A payload ending at
/// the leader (the pre-namespace format) decodes with `namespace: ""`.
pub(crate) fn parse_hello(payload: &[u8]) -> io::Result<Hello> {
    let bad = |detail: &str| io::Error::new(io::ErrorKind::InvalidData, format!("malformed hello frame: {detail}"));
    if payload.len() < 12 {
        return Err(bad("too short"));
    }
    let format = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes"));
    let start_version = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    let leader_len = u16::from_le_bytes(payload[10..12].try_into().expect("2 bytes")) as usize;
    if leader_len > MAX_LEADER_LEN {
        return Err(bad("leader address too long"));
    }
    if payload.len() < 12 + leader_len {
        return Err(bad("leader length disagrees with payload"));
    }
    let leader = std::str::from_utf8(&payload[12..12 + leader_len])
        .map_err(|_| bad("leader address is not UTF-8"))?
        .to_string();
    let rest = &payload[12 + leader_len..];
    let namespace = if rest.is_empty() {
        String::new()
    } else {
        if rest.len() < 2 {
            return Err(bad("dangling namespace suffix"));
        }
        let ns_len = u16::from_le_bytes(rest[0..2].try_into().expect("2 bytes")) as usize;
        if ns_len == 0 || ns_len > MAX_NS_LEN {
            return Err(bad("namespace length out of range"));
        }
        if rest.len() != 2 + ns_len {
            return Err(bad("namespace length disagrees with payload"));
        }
        std::str::from_utf8(&rest[2..])
            .map_err(|_| bad("namespace is not UTF-8"))?
            .to_string()
    };
    Ok(Hello { format, start_version, leader, namespace })
}

/// Encodes a NS_LIST payload: `count u16 | (len u16 | name utf8)*`.
pub(crate) fn encode_ns_list(names: &[String]) -> Vec<u8> {
    debug_assert!(names.len() <= u16::MAX as usize);
    let mut buf = Vec::with_capacity(2 + names.iter().map(|n| 2 + n.len()).sum::<usize>());
    buf.extend_from_slice(&(names.len() as u16).to_le_bytes());
    for name in names {
        debug_assert!(name.len() <= MAX_NS_LEN);
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    buf
}

/// Parses a NS_LIST payload. `InvalidData` on truncation, trailing bytes,
/// oversized names, or non-UTF-8.
pub(crate) fn parse_ns_list(payload: &[u8]) -> io::Result<Vec<String>> {
    let bad = |detail: &str| io::Error::new(io::ErrorKind::InvalidData, format!("malformed ns-list frame: {detail}"));
    if payload.len() < 2 {
        return Err(bad("too short"));
    }
    let count = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes")) as usize;
    let mut at = 2usize;
    let mut names = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        if payload.len() < at + 2 {
            return Err(bad("truncated name length"));
        }
        let len = u16::from_le_bytes(payload[at..at + 2].try_into().expect("2 bytes")) as usize;
        if len == 0 || len > MAX_NS_LEN {
            return Err(bad("name length out of range"));
        }
        at += 2;
        if payload.len() < at + len {
            return Err(bad("truncated name"));
        }
        let name = std::str::from_utf8(&payload[at..at + len])
            .map_err(|_| bad("name is not UTF-8"))?
            .to_string();
        at += len;
        names.push(name);
    }
    if at != payload.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_with_epoch() {
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, TAG_RECORD, 42, b"hello payload").unwrap();
        assert_eq!(n as usize, wire.len());
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.tag, TAG_RECORD);
        assert_eq!(frame.epoch, 42);
        assert_eq!(frame.payload, b"hello payload");
        // Empty-payload FENCED frame carries its epoch in the header alone.
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_FENCED, u64::MAX, &[]).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!((frame.tag, frame.epoch), (TAG_FENCED, u64::MAX));
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn corrupt_frames_are_invalid_data_not_panics() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_ACK, 3, &7u64.to_le_bytes()).unwrap();
        // Flip a payload bit: CRC mismatch.
        let mut flipped = wire.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let err = read_frame(&mut flipped.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Oversized length prefix.
        let mut oversized = wire.clone();
        oversized[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload is a plain transport error (torn stream).
        let cut = wire.len() - 2;
        assert!(read_frame(&mut wire[..cut].as_ref()).is_err());
    }

    #[test]
    fn parse_u64_validates_length() {
        assert_eq!(parse_u64(&42u64.to_le_bytes(), "ack").unwrap(), 42);
        assert!(parse_u64(b"short", "ack").is_err());
    }

    #[test]
    fn hello_roundtrips_and_rejects_malformed() {
        for leader in ["", "127.0.0.1:7001", &"x".repeat(MAX_LEADER_LEN)] {
            let payload = encode_hello(1, 99, leader);
            let hello = parse_hello(&payload).unwrap();
            assert_eq!(
                hello,
                Hello {
                    format: 1,
                    start_version: 99,
                    leader: leader.to_string(),
                    namespace: String::new(),
                }
            );
        }
        // Truncations at every prefix length are typed errors.
        let payload = encode_hello(1, 99, "10.0.0.1:7000");
        for len in 0..payload.len() {
            assert!(parse_hello(&payload[..len]).is_err(), "truncation to {len}");
        }
        // Leader length lies about the payload.
        let mut lying = encode_hello(1, 99, "abc");
        lying[10..12].copy_from_slice(&9u16.to_le_bytes());
        assert!(parse_hello(&lying).is_err());
        // Oversized leader claim.
        let mut huge = encode_hello(1, 99, "abc");
        huge[10..12].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(parse_hello(&huge).is_err());
        // Non-UTF-8 leader bytes.
        let mut bad_utf8 = encode_hello(1, 99, "ab");
        let n = bad_utf8.len();
        bad_utf8[n - 1] = 0xFF;
        assert!(parse_hello(&bad_utf8).is_err());
    }

    #[test]
    fn namespaced_hello_roundtrips_and_default_is_byte_identical() {
        // "" and "default" both encode to the pre-namespace bytes.
        assert_eq!(encode_hello_ns(1, 7, "h:1", ""), encode_hello(1, 7, "h:1"));
        assert_eq!(encode_hello_ns(1, 7, "h:1", "default"), encode_hello(1, 7, "h:1"));
        // A real namespace rides a suffix and round-trips.
        let payload = encode_hello_ns(2, 11, "10.0.0.1:7000", "tenant-a");
        let hello = parse_hello(&payload).unwrap();
        assert_eq!(
            hello,
            Hello {
                format: 2,
                start_version: 11,
                leader: "10.0.0.1:7000".to_string(),
                namespace: "tenant-a".to_string(),
            }
        );
        // Truncations inside the suffix are errors; truncation exactly at
        // the pre-namespace boundary decodes as the old format (harmless:
        // payloads arrive whole, CRC-validated).
        let old_len = payload.len() - 2 - "tenant-a".len();
        for len in old_len + 1..payload.len() {
            assert!(parse_hello(&payload[..len]).is_err(), "truncation to {len}");
        }
        assert_eq!(parse_hello(&payload[..old_len]).unwrap().namespace, "");
        // A lying namespace length is an error.
        let mut lying = payload.clone();
        let at = old_len;
        lying[at..at + 2].copy_from_slice(&64u16.to_le_bytes());
        assert!(parse_hello(&lying).is_err());
    }

    #[test]
    fn ns_list_roundtrips_and_rejects_malformed() {
        for names in [vec![], vec!["default".to_string()], vec!["a".to_string(), "tenant-b".to_string()]] {
            let payload = encode_ns_list(&names);
            assert_eq!(parse_ns_list(&payload).unwrap(), names);
        }
        let payload = encode_ns_list(&["default".to_string(), "t1".to_string()]);
        for len in 0..payload.len() {
            assert!(parse_ns_list(&payload[..len]).is_err(), "truncation to {len}");
        }
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(parse_ns_list(&trailing).is_err());
        let mut bad_utf8 = payload.clone();
        let n = bad_utf8.len();
        bad_utf8[n - 1] = 0xFF;
        assert!(parse_ns_list(&bad_utf8).is_err());
    }

    /// Deterministic fuzz: arbitrary byte soup, truncations of valid
    /// frames, and single-bit flips must all come back as typed errors —
    /// never a panic, never an absurd allocation. Mirrors the JSON codec
    /// fuzz test in the service crate; uses the crate's splitmix64 so no
    /// dependencies are pulled in.
    #[test]
    fn decoder_fuzz_never_panics() {
        use crate::walk_plan::splitmix64 as mix;
        // Pure garbage of many lengths.
        let mut state = 0xDEADBEEFu64;
        for round in 0..400u64 {
            let len = (mix(round) % 64) as usize;
            let mut bytes = Vec::with_capacity(len);
            for i in 0..len {
                state = mix(state ^ i as u64);
                bytes.push(state as u8);
            }
            let _ = read_frame(&mut bytes.as_slice()); // must not panic
            let _ = parse_hello(&bytes);
            let _ = parse_ns_list(&bytes);
            let _ = parse_u64(&bytes, "fuzz");
        }
        // Every truncation and every single-bit flip of a valid frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_HELLO, 7, &encode_hello(1, 5, "h:1")).unwrap();
        for len in 0..wire.len() {
            let _ = read_frame(&mut wire[..len].as_ref());
        }
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                if let Ok(frame) = read_frame(&mut bad.as_slice()) {
                    let _ = parse_hello(&frame.payload);
                }
            }
        }
    }
}
