//! A write-ahead log for the history store.
//!
//! Production ingest tiers don't keep a HashMap in RAM and hope; every
//! accepted upload is appended to a durable log and the store is
//! rebuilt by replay after a restart. This module defines the on-disk
//! format and the replay path over byte buffers; `orsp-storage` owns the
//! real I/O (segment files, rotation, checkpoints, crash recovery) and
//! builds directly on these encode/decode primitives:
//!
//! ```text
//! file    := header record*
//! header  := magic:u32 "OWAL" | version:u8   (current version: 2)
//! record  := len:u32 | crc32:u32 | payload[len]
//! payload := tag:u8 | body                   (v2; v1 had no tag byte)
//! body    := history | token-spend           (selected by tag)
//! history := record_id[32] | entity:u64 | kind:u8 | start:i64
//!          | duration:i64 | distance:f64 | group:u16      (tag 0)
//! token-spend := ledger_key[32]                           (tag 1)
//! ```
//!
//! All integers little-endian. The CRC covers the payload, so bit rot is
//! caught; a truncated final record (crash mid-append) is detected and
//! reported as a typed [`WalFault`] carrying the record index and byte
//! offset — recovery code decides whether a fault is a tolerable crash
//! artifact (torn tail of the active segment) or real corruption.
//!
//! Version 1 segments (history records only, no tag byte) still replay:
//! a data directory written before the spend ledger became durable
//! recovers its histories and an empty spent-token set.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use orsp_types::{
    EntityId, Interaction, InteractionKind, OrspError, RecordId, SimDuration, Timestamp,
};

const MAGIC: u32 = 0x4F57_414C; // "OWAL"
const VERSION: u8 = 2;
const V1: u8 = 1;
/// v1 payload: a bare history body, no tag byte.
const V1_PAYLOAD_LEN: usize = 32 + 8 + 1 + 8 + 8 + 8 + 2;
/// v2 history payload: tag byte + history body.
const HISTORY_PAYLOAD_LEN: usize = 1 + V1_PAYLOAD_LEN;
/// v2 token-spend payload: tag byte + 32-byte ledger key.
const TOKEN_PAYLOAD_LEN: usize = 1 + 32;
const TAG_HISTORY: u8 = 0;
const TAG_TOKEN_SPEND: u8 = 1;

/// Bytes of the segment header (magic + version).
pub const WAL_HEADER_LEN: usize = 5;
/// On-disk bytes of one encoded history record (length + CRC + payload).
pub const WAL_RECORD_LEN: usize = 8 + HISTORY_PAYLOAD_LEN;
/// On-disk bytes of one encoded token-spend record.
pub const WAL_TOKEN_RECORD_LEN: usize = 8 + TOKEN_PAYLOAD_LEN;

const CRC32_TABLE: [u32; 256] = crc32_table();

/// Build the 256-entry CRC-32 (IEEE 802.3) lookup table at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3), table-driven: one lookup per byte instead of
/// eight shift/xor rounds. Both the WAL and the `orsp-net` wire codec
/// run this per byte on their hot paths. Identical outputs to the
/// bitwise form (kept as the oracle in the tests below).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One logged entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalEntry {
    /// The anonymous history id.
    pub record_id: RecordId,
    /// The entity the record concerns.
    pub entity: EntityId,
    /// The interaction.
    pub interaction: Interaction,
}

/// One accepted upload bound for the log: the history entry plus,
/// optionally, the spent-token ledger key that admitted it. Group
/// commit logs the pair adjacently so a single fsync covers both —
/// an acked upload's token can never be replayed after a crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalBatchItem {
    /// Ledger key of the token this upload spent, if the caller wants
    /// the spend durable alongside the history record.
    pub spend: Option<[u8; 32]>,
    /// The history entry.
    pub entry: WalEntry,
}

/// A sink for accepted appends: the durability hook the ingest tier
/// calls with every upload it admits, in admission order per record.
/// `orsp-storage`'s engine implements this over segmented on-disk logs;
/// tests implement it over plain vectors.
pub trait WalSink: Send + Sync {
    /// Durably log one accepted entry. An error means the entry may not
    /// survive a restart — callers surface it rather than swallow it.
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()>;

    /// Durably log one spent-token ledger key. The default is a no-op
    /// so vector-backed test sinks that only watch history records keep
    /// working; the storage engine overrides it with a real append.
    fn log_token_spend(&self, _key: &[u8; 32]) -> orsp_types::Result<()> {
        Ok(())
    }

    /// Durably log a whole commit group with (at most) one sync. The
    /// default preserves the single-entry path — it degrades to one
    /// `log_token_spend` + `log_append` per item in order, which is
    /// exactly what test sinks observing individual appends expect.
    /// The storage engine overrides this with one buffered write and
    /// one fsync per group.
    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        for item in items {
            if let Some(key) = &item.spend {
                self.log_token_spend(key)?;
            }
            self.log_append(&item.entry)?;
        }
        Ok(())
    }
}

fn kind_to_u8(kind: InteractionKind) -> u8 {
    match kind {
        InteractionKind::Visit => 0,
        InteractionKind::PhoneCall => 1,
        InteractionKind::Payment => 2,
        InteractionKind::OnlineUse => 3,
    }
}

fn kind_from_u8(v: u8) -> Option<InteractionKind> {
    Some(match v {
        0 => InteractionKind::Visit,
        1 => InteractionKind::PhoneCall,
        2 => InteractionKind::Payment,
        3 => InteractionKind::OnlineUse,
        _ => return None,
    })
}

/// The 5-byte segment header every WAL buffer starts with.
pub fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let m = MAGIC.to_le_bytes();
    [m[0], m[1], m[2], m[3], VERSION]
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode one history record exactly as [`WalWriter::append`] lays it
/// out: `len | crc | tag | body`.
pub fn encode_record(entry: &WalEntry) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(HISTORY_PAYLOAD_LEN);
    payload.put_u8(TAG_HISTORY);
    payload.put_slice(entry.record_id.as_bytes());
    payload.put_u64_le(entry.entity.raw());
    payload.put_u8(kind_to_u8(entry.interaction.kind));
    payload.put_i64_le(entry.interaction.start.as_seconds());
    payload.put_i64_le(entry.interaction.duration.as_seconds());
    payload.put_f64_le(entry.interaction.distance_travelled_m);
    payload.put_u16_le(entry.interaction.group_size);
    frame(&payload)
}

/// Encode one token-spend record: `len | crc | tag | ledger_key`.
pub fn encode_token_spend(key: &[u8; 32]) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(TOKEN_PAYLOAD_LEN);
    payload.put_u8(TAG_TOKEN_SPEND);
    payload.put_slice(key);
    frame(&payload)
}

/// Encode one batch item: its token-spend record (if any) followed by
/// its history record — the exact bytes group commit appends.
pub fn encode_batch_item(item: &WalBatchItem) -> Vec<u8> {
    let mut out = match &item.spend {
        Some(key) => encode_token_spend(key),
        None => Vec::with_capacity(WAL_RECORD_LEN),
    };
    out.extend_from_slice(&encode_record(&item.entry));
    out
}

/// Append-only WAL writer over an in-memory buffer.
pub struct WalWriter {
    buf: BytesMut,
    entries: u64,
}

impl Default for WalWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WalWriter {
    /// A fresh WAL with its header written.
    pub fn new() -> Self {
        let mut buf = BytesMut::with_capacity(4096);
        buf.put_slice(&wal_header());
        WalWriter { buf, entries: 0 }
    }

    /// Append one history entry.
    pub fn append(&mut self, entry: &WalEntry) {
        self.buf.put_slice(&encode_record(entry));
        self.entries += 1;
    }

    /// Append one token-spend record.
    pub fn append_token_spend(&mut self, key: &[u8; 32]) {
        self.buf.put_slice(&encode_token_spend(key));
        self.entries += 1;
    }

    /// Entries appended so far.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True iff no entries appended.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finish and take the encoded log.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Why replay stopped before the end of the buffer. Every variant names
/// the index of the record that failed (0-based, in append order) and
/// the byte offset of that record's length field within the buffer —
/// enough for an operator to find the damage with a hex dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The log ended mid-record: a crash during the final append. The
    /// tolerable fault — everything before the tear was recovered.
    TornTail {
        /// Index of the truncated record.
        index: u64,
        /// Byte offset where the truncated record starts.
        offset: u64,
    },
    /// A record's payload failed its CRC: bit rot or a torn overwrite.
    BadCrc {
        /// Index of the corrupt record.
        index: u64,
        /// Byte offset where the corrupt record starts.
        offset: u64,
    },
    /// A record announced an impossible length.
    BadLength {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
        /// The length it claimed.
        len: u32,
    },
    /// A record decoded but named an unknown interaction kind.
    BadKind {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
    },
    /// A v2 record's tag byte disagrees with its length, or names an
    /// unknown record type.
    BadTag {
        /// Index of the bad record.
        index: u64,
        /// Byte offset where the bad record starts.
        offset: u64,
    },
}

impl WalFault {
    /// Index of the record where replay stopped.
    pub fn index(&self) -> u64 {
        match *self {
            WalFault::TornTail { index, .. }
            | WalFault::BadCrc { index, .. }
            | WalFault::BadLength { index, .. }
            | WalFault::BadKind { index, .. }
            | WalFault::BadTag { index, .. } => index,
        }
    }

    /// Byte offset of the faulty record within the replayed buffer.
    pub fn offset(&self) -> u64 {
        match *self {
            WalFault::TornTail { offset, .. }
            | WalFault::BadCrc { offset, .. }
            | WalFault::BadLength { offset, .. }
            | WalFault::BadKind { offset, .. }
            | WalFault::BadTag { offset, .. } => offset,
        }
    }

    /// True for the one fault a crash legitimately produces.
    pub fn is_torn_tail(&self) -> bool {
        matches!(self, WalFault::TornTail { .. })
    }

    fn obs_name(&self) -> &'static str {
        match self {
            WalFault::TornTail { .. } => "wal_fault_torn_tail_total",
            WalFault::BadCrc { .. } => "wal_fault_bad_crc_total",
            WalFault::BadLength { .. } => "wal_fault_bad_length_total",
            WalFault::BadKind { .. } => "wal_fault_bad_kind_total",
            WalFault::BadTag { .. } => "wal_fault_bad_tag_total",
        }
    }
}

impl std::fmt::Display for WalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalFault::TornTail { index, offset } => {
                write!(f, "torn tail at record {index} (byte offset {offset})")
            }
            WalFault::BadCrc { index, offset } => {
                write!(f, "CRC mismatch at record {index} (byte offset {offset})")
            }
            WalFault::BadLength { index, offset, len } => {
                write!(f, "bad length {len} at record {index} (byte offset {offset})")
            }
            WalFault::BadKind { index, offset } => {
                write!(f, "unknown interaction kind at record {index} (byte offset {offset})")
            }
            WalFault::BadTag { index, offset } => {
                write!(f, "bad record tag at record {index} (byte offset {offset})")
            }
        }
    }
}

/// Replay result.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Entries recovered, in append order.
    pub entries: Vec<WalEntry>,
    /// Spent-token ledger keys recovered, in append order. Always empty
    /// for version-1 logs, which predate durable spends.
    pub spent_tokens: Vec<[u8; 32]>,
    /// Why replay stopped early, if it did. `None` means the buffer
    /// ended exactly on a record boundary (a clean log).
    pub fault: Option<WalFault>,
}

impl Replay {
    /// True when the log ended mid-record (crash during the last append).
    pub fn torn_tail(&self) -> bool {
        self.fault.map(|f| f.is_torn_tail()).unwrap_or(false)
    }

    /// True when every byte replayed cleanly.
    pub fn is_clean(&self) -> bool {
        self.fault.is_none()
    }
}

/// Replay a WAL buffer.
///
/// Header problems (too short, bad magic, unsupported version) are hard
/// errors — nothing can be recovered. Record-level problems stop the
/// replay and are reported as a typed [`WalFault`] with the failing
/// record's index and byte offset; everything before the fault is
/// recovered. Each fault increments a per-kind counter in the global
/// obs registry (`wal_fault_*_total`).
pub fn replay(data: &[u8]) -> orsp_types::Result<Replay> {
    let total = data.len();
    let mut data = data;
    if data.len() < WAL_HEADER_LEN {
        return Err(OrspError::InvalidConfig("WAL too short for header".into()));
    }
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(OrspError::InvalidConfig(format!("bad WAL magic {magic:#010x}")));
    }
    let version = data.get_u8();
    if version != VERSION && version != V1 {
        return Err(OrspError::InvalidConfig(format!("unsupported WAL version {version}")));
    }

    let mut entries = Vec::new();
    let mut spent_tokens = Vec::new();
    let mut fault = None;
    let mut index = 0u64;
    while !data.is_empty() {
        let offset = (total - data.len()) as u64;
        if data.len() < 8 {
            fault = Some(WalFault::TornTail { index, offset });
            break;
        }
        let len = data.get_u32_le() as usize;
        let crc = data.get_u32_le();
        let len_ok = if version == V1 {
            len == V1_PAYLOAD_LEN
        } else {
            len == HISTORY_PAYLOAD_LEN || len == TOKEN_PAYLOAD_LEN
        };
        if !len_ok {
            fault = Some(WalFault::BadLength { index, offset, len: len as u32 });
            break;
        }
        if data.len() < len {
            fault = Some(WalFault::TornTail { index, offset });
            break;
        }
        let payload = &data[..len];
        if crc32(payload) != crc {
            fault = Some(WalFault::BadCrc { index, offset });
            break;
        }
        let mut p = payload;
        // v1 payloads are bare history bodies; v2 leads with a tag byte
        // whose value must agree with the framed length.
        let tag = if version == V1 { TAG_HISTORY } else { p.get_u8() };
        let expected = match tag {
            TAG_HISTORY if version == V1 => V1_PAYLOAD_LEN,
            TAG_HISTORY => HISTORY_PAYLOAD_LEN,
            TAG_TOKEN_SPEND => TOKEN_PAYLOAD_LEN,
            _ => {
                fault = Some(WalFault::BadTag { index, offset });
                break;
            }
        };
        if len != expected {
            fault = Some(WalFault::BadTag { index, offset });
            break;
        }
        if tag == TAG_TOKEN_SPEND {
            let mut key = [0u8; 32];
            p.copy_to_slice(&mut key);
            spent_tokens.push(key);
            data.advance(len);
            index += 1;
            continue;
        }
        let mut record_id = [0u8; 32];
        p.copy_to_slice(&mut record_id);
        let entity = EntityId::new(p.get_u64_le());
        let Some(kind) = kind_from_u8(p.get_u8()) else {
            fault = Some(WalFault::BadKind { index, offset });
            break;
        };
        let start = Timestamp::from_seconds(p.get_i64_le());
        let duration = SimDuration::seconds(p.get_i64_le());
        let distance = p.get_f64_le();
        let group_size = p.get_u16_le();
        entries.push(WalEntry {
            record_id: RecordId::from_bytes(record_id),
            entity,
            interaction: Interaction {
                kind,
                start,
                duration,
                distance_travelled_m: distance,
                group_size,
            },
        });
        data.advance(len);
        index += 1;
    }
    if let Some(f) = fault {
        orsp_obs::global().counter(f.obs_name()).inc();
    }
    Ok(Replay { entries, spent_tokens, fault })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original bitwise CRC-32: the oracle the table-driven
    /// implementation must match bit for bit on every input.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn entry(n: u8, t: i64) -> WalEntry {
        WalEntry {
            record_id: RecordId::from_bytes([n; 32]),
            entity: EntityId::new(n as u64),
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::from_seconds(t),
                SimDuration::minutes(30),
                123.5,
            ),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn crc32_matches_bitwise_oracle_on_fixed_inputs() {
        for input in [
            &b""[..],
            b"a",
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
            &[0u8; 257],
            &[0xFFu8; 64],
        ] {
            assert_eq!(crc32(input), crc32_bitwise(input));
        }
    }

    #[test]
    fn round_trip() {
        let mut w = WalWriter::new();
        for i in 0..10 {
            w.append(&entry(i, i as i64 * 1_000));
        }
        assert_eq!(w.len(), 10);
        let bytes = w.finish();
        assert_eq!(bytes.len(), WAL_HEADER_LEN + 10 * WAL_RECORD_LEN);
        let r = replay(&bytes).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.entries.len(), 10);
        assert_eq!(r.entries[3], entry(3, 3_000));
    }

    #[test]
    fn empty_log_replays_empty() {
        let w = WalWriter::new();
        assert!(w.is_empty());
        let r = replay(&w.finish()).unwrap();
        assert!(r.entries.is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(replay(&[0u8; 16]).is_err());
        assert!(replay(&[]).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = WalWriter::new().finish().to_vec();
        bytes[4] = 99;
        assert!(matches!(replay(&bytes), Err(OrspError::InvalidConfig(_))));
    }

    #[test]
    fn corruption_reported_with_index_and_offset() {
        let mut w = WalWriter::new();
        w.append(&entry(1, 0));
        w.append(&entry(2, 1_000));
        let mut bytes = w.finish().to_vec();
        // Flip a bit in the *second* record's payload.
        let second_start = WAL_HEADER_LEN + WAL_RECORD_LEN;
        bytes[second_start + 20] ^= 0x40;
        let r = replay(&bytes).unwrap();
        assert_eq!(r.entries.len(), 1, "prefix before the corruption is recovered");
        assert_eq!(
            r.fault,
            Some(WalFault::BadCrc { index: 1, offset: second_start as u64 })
        );
        assert!(!r.torn_tail());
    }

    #[test]
    fn bad_length_reported() {
        let mut w = WalWriter::new();
        w.append(&entry(1, 0));
        let mut bytes = w.finish().to_vec();
        bytes[WAL_HEADER_LEN] = 0xEE; // clobber the length field
        let r = replay(&bytes).unwrap();
        assert!(r.entries.is_empty());
        assert!(matches!(r.fault, Some(WalFault::BadLength { index: 0, .. })));
    }

    #[test]
    fn bad_kind_reported() {
        let mut w = WalWriter::new();
        w.append(&entry(1, 0));
        let mut bytes = w.finish().to_vec();
        // Kind byte lives after len(4) + crc(4) + tag(1) + id(32) +
        // entity(8); refresh the CRC so only the kind check can fire.
        let kind_at = WAL_HEADER_LEN + 8 + 1 + 32 + 8;
        bytes[kind_at] = 200;
        let payload_start = WAL_HEADER_LEN + 8;
        let crc = crc32(&bytes[payload_start..payload_start + HISTORY_PAYLOAD_LEN]);
        bytes[WAL_HEADER_LEN + 4..WAL_HEADER_LEN + 8].copy_from_slice(&crc.to_le_bytes());
        let r = replay(&bytes).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(
            r.fault,
            Some(WalFault::BadKind { index: 0, offset: WAL_HEADER_LEN as u64 })
        );
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let mut w = WalWriter::new();
        w.append(&entry(1, 0));
        w.append(&entry(2, 1_000));
        let bytes = w.finish();
        // Crash mid-way through the second record.
        let torn = &bytes[..bytes.len() - 10];
        let r = replay(torn).unwrap();
        assert!(r.torn_tail());
        assert_eq!(r.fault.unwrap().index(), 1);
        assert_eq!(r.fault.unwrap().offset(), (WAL_HEADER_LEN + WAL_RECORD_LEN) as u64);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0], entry(1, 0));
    }

    #[test]
    fn token_spends_round_trip_interleaved_with_histories() {
        let mut w = WalWriter::new();
        w.append_token_spend(&[7u8; 32]);
        w.append(&entry(1, 0));
        w.append_token_spend(&[9u8; 32]);
        w.append(&entry(2, 1_000));
        assert_eq!(w.len(), 4);
        let bytes = w.finish();
        assert_eq!(
            bytes.len(),
            WAL_HEADER_LEN + 2 * WAL_RECORD_LEN + 2 * WAL_TOKEN_RECORD_LEN
        );
        let r = replay(&bytes).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.entries, vec![entry(1, 0), entry(2, 1_000)]);
        assert_eq!(r.spent_tokens, vec![[7u8; 32], [9u8; 32]]);
    }

    #[test]
    fn batch_item_encoding_is_spend_then_history() {
        let item = WalBatchItem { spend: Some([3u8; 32]), entry: entry(4, 0) };
        let mut expect = encode_token_spend(&[3u8; 32]);
        expect.extend_from_slice(&encode_record(&entry(4, 0)));
        assert_eq!(encode_batch_item(&item), expect);
        let bare = WalBatchItem { spend: None, entry: entry(4, 0) };
        assert_eq!(encode_batch_item(&bare), encode_record(&entry(4, 0)));
    }

    #[test]
    fn version_1_logs_still_replay_without_tokens() {
        // Hand-build a v1 buffer: old header byte, bare history payloads
        // with no tag.
        let e = entry(5, 2_000);
        let mut payload = Vec::with_capacity(V1_PAYLOAD_LEN);
        payload.extend_from_slice(e.record_id.as_bytes());
        payload.extend_from_slice(&e.entity.raw().to_le_bytes());
        payload.push(0); // Visit
        payload.extend_from_slice(&e.interaction.start.as_seconds().to_le_bytes());
        payload.extend_from_slice(&e.interaction.duration.as_seconds().to_le_bytes());
        payload.extend_from_slice(&e.interaction.distance_travelled_m.to_le_bytes());
        payload.extend_from_slice(&e.interaction.group_size.to_le_bytes());
        assert_eq!(payload.len(), V1_PAYLOAD_LEN);
        let mut bytes = wal_header().to_vec();
        bytes[4] = V1;
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let r = replay(&bytes).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.entries, vec![e]);
        assert!(r.spent_tokens.is_empty());
    }

    #[test]
    fn tag_length_mismatch_reported() {
        // A token-spend length with a history tag: valid frame length,
        // valid CRC, contradictory tag.
        let mut payload = vec![TAG_HISTORY];
        payload.extend_from_slice(&[0u8; 32]);
        assert_eq!(payload.len(), TOKEN_PAYLOAD_LEN);
        let mut bytes = wal_header().to_vec();
        bytes.extend_from_slice(&frame(&payload));
        let r = replay(&bytes).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(
            r.fault,
            Some(WalFault::BadTag { index: 0, offset: WAL_HEADER_LEN as u64 })
        );
        // An unknown tag with a plausible length fails the same way.
        let mut payload = vec![9u8];
        payload.extend_from_slice(&[0u8; 32]);
        let mut bytes = wal_header().to_vec();
        bytes.extend_from_slice(&frame(&payload));
        let r = replay(&bytes).unwrap();
        assert!(matches!(r.fault, Some(WalFault::BadTag { .. })));
    }

    proptest! {
        #[test]
        fn crc32_table_matches_bitwise_oracle(
            data in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }

        #[test]
        fn round_trip_prop(
            ids in proptest::collection::vec(0u8..=255, 1..40),
            starts in proptest::collection::vec(0i64..1_000_000_000, 1..40),
        ) {
            let mut w = WalWriter::new();
            let n = ids.len().min(starts.len());
            let mut originals = Vec::new();
            for i in 0..n {
                let e = entry(ids[i], starts[i]);
                w.append(&e);
                originals.push(e);
            }
            let r = replay(&w.finish()).unwrap();
            prop_assert_eq!(r.entries, originals);
            prop_assert!(r.is_clean());
        }

        /// The crash matrix in miniature: cut a random batch's encoding
        /// at *every* byte boundary. Below the header nothing recovers
        /// (hard error); past it, exactly the complete records before
        /// the cut come back, a torn tail is reported iff the cut is
        /// mid-record, and nothing ever panics.
        #[test]
        fn crash_cut_at_every_byte_recovers_prefix(
            ids in proptest::collection::vec(0u8..=255, 1..12),
        ) {
            let mut w = WalWriter::new();
            let mut originals = Vec::new();
            for (i, &id) in ids.iter().enumerate() {
                let e = entry(id, i as i64 * 500);
                w.append(&e);
                originals.push(e);
            }
            let bytes = w.finish();
            for cut in 0..=bytes.len() {
                let r = replay(&bytes[..cut]);
                if cut < WAL_HEADER_LEN {
                    prop_assert!(r.is_err(), "cut {cut}: header fragment must error");
                    continue;
                }
                let r = r.unwrap();
                let body = cut - WAL_HEADER_LEN;
                let whole = body / WAL_RECORD_LEN;
                let on_boundary = body % WAL_RECORD_LEN == 0;
                prop_assert_eq!(r.entries.len(), whole, "cut {}", cut);
                prop_assert_eq!(&r.entries[..], &originals[..whole]);
                if on_boundary {
                    prop_assert!(r.is_clean(), "cut {} is a record boundary", cut);
                } else {
                    let fault = r.fault.expect("mid-record cut must report a fault");
                    prop_assert!(fault.is_torn_tail());
                    prop_assert_eq!(fault.index(), whole as u64);
                    prop_assert_eq!(
                        fault.offset(),
                        (WAL_HEADER_LEN + whole * WAL_RECORD_LEN) as u64
                    );
                }
            }
        }
    }
}
