//! Write-ahead log and snapshots.
//!
//! Durability in the simulated database: every mutation is appended to
//! a WAL as an encoded record; a snapshot compacts the log. The WAL is
//! an in-memory byte log with the same framing it would have on disk
//! (length-prefixed entries with a sequence number and checksum), so
//! recovery and truncation-corruption behaviour are testable.

use crate::codec::{decode, CodecError, Decoder, Encode};

/// One framed WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord<T> {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The logged operation.
    pub op: T,
}

impl<T: Encode> Encode for WalRecord<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.op.encode(out);
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(WalRecord {
            seq: u64::decode(input)?,
            op: T::decode(input)?,
        })
    }
}

/// An append-only log of encoded operations.
#[derive(Debug, Default, Clone)]
pub struct Wal {
    frames: Vec<Vec<u8>>,
    next_seq: u64,
    /// Sequence number the latest snapshot covers (frames before it
    /// have been compacted away).
    snapshot_seq: u64,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Append an operation; returns its sequence number.
    pub fn append<T: Encode>(&mut self, op: &T) -> Result<u64, CodecError> {
        let seq = self.next_seq;
        // A `WalRecord`'s bytes, written without cloning `op` into one.
        let mut bytes = Vec::new();
        seq.encode(&mut bytes);
        op.encode(&mut bytes);
        self.frames.push(frame(&bytes));
        self.next_seq += 1;
        Ok(seq)
    }

    /// Replay every entry at or after `from_seq`.
    pub fn replay<T: Encode>(&self, from_seq: u64) -> Result<Vec<WalRecord<T>>, CodecError> {
        let mut out = Vec::new();
        for f in &self.frames {
            let bytes = unframe(f)?;
            let rec: WalRecord<T> = decode(bytes)?;
            if rec.seq >= from_seq {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence covered by the last snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Compact: drop entries before `through_seq` (they are captured by
    /// a snapshot taken by the caller).
    pub fn compact<T: Encode>(&mut self, through_seq: u64) -> Result<(), CodecError> {
        let mut kept = Vec::new();
        for f in &self.frames {
            let bytes = unframe(f)?;
            let rec: WalRecord<T> = decode(bytes)?;
            if rec.seq >= through_seq {
                kept.push(f.clone());
            }
        }
        self.frames = kept;
        self.snapshot_seq = through_seq;
        Ok(())
    }

    /// Number of live frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames are retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Raw bytes as they would sit on disk (for corruption tests).
    pub fn raw_bytes(&self) -> Vec<u8> {
        self.frames.concat()
    }

    /// Recover from raw bytes, stopping cleanly at the first corrupt or
    /// truncated frame (standard WAL recovery semantics).
    pub fn recover<T: Encode>(bytes: &[u8]) -> (Wal, Vec<WalRecord<T>>) {
        let mut frames = Vec::new();
        let mut records = Vec::new();
        let mut rest = bytes;
        let mut next_seq = 0u64;
        // Ends at a truncated tail, a checksum mismatch, or a payload
        // that does not decode (a sequence number with no successor
        // included).
        while let Some(frame_bytes) = next_frame(rest) {
            let Ok(rec) = unframe(frame_bytes).and_then(decode::<WalRecord<T>>) else {
                break;
            };
            let Some(after) = rec.seq.checked_add(1) else {
                break;
            };
            next_seq = after;
            records.push(rec);
            frames.push(frame_bytes.to_vec());
            rest = &rest[frame_bytes.len()..];
        }
        (
            Wal {
                frames,
                next_seq,
                snapshot_seq: 0,
            },
            records,
        )
    }
}

/// Bytes ahead of a frame's payload: `len: u64 | crc: u32`.
const FRAME_HEADER: usize = 12;

/// Frame: `len: u64 | crc: u32 | payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The frame at the front of `bytes`, when its header is whole and the
/// payload length it declares fits in what follows. The length is
/// outside input: nothing is added to it or sliced by it unchecked.
fn next_frame(bytes: &[u8]) -> Option<&[u8]> {
    let len = u64::from_le_bytes(bytes.get(..8)?.try_into().expect("8 bytes"));
    let end = usize::try_from(len).ok()?.checked_add(FRAME_HEADER)?;
    bytes.get(..end)
}

/// The payload of exactly one frame, checksum verified.
fn unframe(frame: &[u8]) -> Result<&[u8], CodecError> {
    if next_frame(frame).map(<[u8]>::len) != Some(frame.len()) {
        return Err(CodecError("frame length mismatch".into()));
    }
    let crc = u32::from_le_bytes(frame[8..FRAME_HEADER].try_into().expect("4 bytes"));
    let payload = &frame[FRAME_HEADER..];
    if checksum(payload) != crc {
        return Err(CodecError("frame checksum mismatch".into()));
    }
    Ok(payload)
}

/// FNV-1a, plenty for corruption detection in the simulation.
fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Put(u64, String),
        Delete(u64),
    }

    impl Encode for Op {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Op::Put(id, v) => {
                    0u32.encode(out);
                    id.encode(out);
                    v.encode(out);
                }
                Op::Delete(id) => {
                    1u32.encode(out);
                    id.encode(out);
                }
            }
        }
        fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
            match input.variant()? {
                0 => Ok(Op::Put(u64::decode(input)?, String::decode(input)?)),
                1 => Ok(Op::Delete(u64::decode(input)?)),
                other => Err(CodecError(format!("invalid Op variant {other}"))),
            }
        }
    }

    #[test]
    fn append_and_replay() {
        let mut wal = Wal::new();
        wal.append(&Op::Put(1, "a".into())).unwrap();
        wal.append(&Op::Delete(1)).unwrap();
        let recs: Vec<WalRecord<Op>> = wal.replay(0).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].op, Op::Delete(1));
    }

    #[test]
    fn replay_from_offset() {
        let mut wal = Wal::new();
        for i in 0..5 {
            wal.append(&Op::Delete(i)).unwrap();
        }
        let recs: Vec<WalRecord<Op>> = wal.replay(3).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 3);
    }

    #[test]
    fn compact_drops_old_frames() {
        let mut wal = Wal::new();
        for i in 0..10 {
            wal.append(&Op::Delete(i)).unwrap();
        }
        wal.compact::<Op>(7).unwrap();
        assert_eq!(wal.len(), 3);
        assert_eq!(wal.snapshot_seq(), 7);
        let recs: Vec<WalRecord<Op>> = wal.replay(0).unwrap();
        assert_eq!(recs[0].seq, 7);
        // Sequence numbers keep increasing after compaction.
        assert_eq!(wal.append(&Op::Delete(99)).unwrap(), 10);
    }

    #[test]
    fn recovery_roundtrip() {
        let mut wal = Wal::new();
        wal.append(&Op::Put(1, "x".into())).unwrap();
        wal.append(&Op::Put(2, "y".into())).unwrap();
        let bytes = wal.raw_bytes();
        let (recovered, recs) = Wal::recover::<Op>(&bytes);
        assert_eq!(recs.len(), 2);
        assert_eq!(recovered.next_seq(), 2);
    }

    #[test]
    fn recovery_stops_at_truncation() {
        let mut wal = Wal::new();
        wal.append(&Op::Put(1, "x".into())).unwrap();
        wal.append(&Op::Put(2, "a-longer-value".into())).unwrap();
        let mut bytes = wal.raw_bytes();
        bytes.truncate(bytes.len() - 5); // torn write on the last frame
        let (_, recs) = Wal::recover::<Op>(&bytes);
        assert_eq!(recs.len(), 1, "only the intact frame survives");
        assert_eq!(recs[0].op, Op::Put(1, "x".into()));
    }

    #[test]
    fn recovery_stops_at_corruption() {
        let mut wal = Wal::new();
        wal.append(&Op::Put(1, "x".into())).unwrap();
        wal.append(&Op::Put(2, "y".into())).unwrap();
        let mut bytes = wal.raw_bytes();
        // Flip a payload byte in the first frame.
        bytes[13] ^= 0xFF;
        let (_, recs) = Wal::recover::<Op>(&bytes);
        assert!(recs.is_empty(), "corrupt first frame stops recovery");
    }

    #[test]
    fn empty_wal_recovers_empty() {
        let (wal, recs) = Wal::recover::<Op>(&[]);
        assert!(recs.is_empty());
        assert!(wal.is_empty());
        assert_eq!(wal.next_seq(), 0);
    }

    #[test]
    fn recovery_stops_at_a_hostile_frame_header() {
        let mut wal = Wal::new();
        wal.append(&Op::Put(1, "x".into())).unwrap();
        let second = wal.raw_bytes().len();
        wal.append(&Op::Put(2, "y".into())).unwrap();
        wal.append(&Op::Delete(1)).unwrap();
        for hostile in [u64::MAX, 1 << 40, u64::MAX - 11] {
            let mut bytes = wal.raw_bytes();
            bytes[second..second + 8].copy_from_slice(&hostile.to_le_bytes());
            let (recovered, recs) = Wal::recover::<Op>(&bytes);
            assert_eq!(recs.len(), 1, "the frame ahead of the bad header survives");
            assert_eq!(recs[0].op, Op::Put(1, "x".into()));
            assert_eq!(recovered.next_seq(), 1);
        }
    }

    #[test]
    fn recovery_rejects_a_sequence_number_with_no_successor() {
        let mut payload = Vec::new();
        WalRecord {
            seq: u64::MAX,
            op: Op::Delete(1),
        }
        .encode(&mut payload);
        let (wal, recs) = Wal::recover::<Op>(&frame(&payload));
        assert!(recs.is_empty());
        assert_eq!(wal.next_seq(), 0);
    }
}
