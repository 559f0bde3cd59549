//! Optional file-backed persistence for the reduction cache.
//!
//! A Red-QAOA service amortizes annealing across jobs through the in-memory
//! cache; this module amortizes it across *process restarts and co-located
//! workers*. The store is a single append-only file of
//! `(content hash, key, reduction)` records keyed by the same
//! [`CacheKey::content_hash`] the in-memory cache shards on. A record's
//! reduction is what a cache entry holds: the kept nodes and the warm
//! decision. Replay expands it through [`CacheKey::reduction`], the same
//! function a cache hit calls, so an entry loaded from disk is
//! indistinguishable (bitwise) from one the process computed itself.
//!
//! Robustness contract (pinned by `tests/engine_persist.rs`):
//!
//! * **Write-through is best-effort.** A failed append never fails the job;
//!   the computed reduction is still returned and cached in memory.
//! * **Appends are whole records.** Every handle opens the file in append
//!   mode and writes a record with one `write_all`, so engines that share a
//!   path interleave whole records and never overwrite each other's.
//! * **Loading is validating.** Every record must pass a checksum *and* a
//!   staleness check (the stored hash must equal the re-hashed decoded key —
//!   a record written by an incompatible option layout re-hashes
//!   differently and is dropped). Every key endpoint must lie below the
//!   key's node count. The kept nodes must be strictly increasing (the
//!   order `reduce` emits) and below the key's node count, the key's graph
//!   must induce a simple graph on them, and the warm-start decision must
//!   be one the key's options can produce at that size (`Warm` only at the
//!   size floor, a measured outcome only above it). Corrupt or stale
//!   records are skipped, not fatal, and counted
//!   ([`CacheStats::store_skipped`](super::CacheStats::store_skipped)).
//!   What no check can tell apart from a fresh reduction is another node
//!   set on which the key's graph induces the same reduced graph, or a
//!   search past the floor that kept warm seeding relabelled as one that
//!   reverted (or the reverse): the record holds exactly those two fields,
//!   and the mutation proptest bounds served values by them.
//! * **Torn tails self-heal.** A record truncated by a crash mid-append is
//!   cut off at open time, so the next append starts from a clean boundary.
//!
//! The format is deliberately plain (little-endian words, FNV-1a checksum,
//! no compression): reductions are small, and auditability beats density.

use super::cache::CacheKey;
use crate::reduction::{ReducedGraph, WarmDecision};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// File magic: "Red-Qaoa Persistent Store".
const MAGIC: [u8; 4] = *b"RQPS";
/// Format version; bumped on any layout change so old files are rewritten,
/// not misparsed, and on any change to what a key reduces to, so a store
/// never replays a reduction a fresh anneal would no longer produce
/// (version 2: the search anneals its size floor first; version 3: a record
/// holds the kept nodes and the warm decision alone).
const VERSION: u32 = 3;
/// Upper bound on a single record's key/value payload (sanity check against
/// interpreting corrupt length fields as multi-gigabyte allocations).
const MAX_SECTION_LEN: usize = 1 << 24;
/// Bound on the parent nodes a record's mapping may name. Replay expands a
/// record through [`CacheKey::induced_graph`], which indexes the mapping
/// with one `u32` per parent node up to the largest kept one, so this caps
/// that table at `MAX_SECTION_LEN` bytes whatever node count a crafted key
/// claims. An honest record of a parent that large already fails the
/// mapping-length check under the default `min_size_fraction` (0.65): its
/// mapping would exceed `MAX_SECTION_LEN / 8` nodes.
const MAX_MAPPED_NODE: usize = MAX_SECTION_LEN / 4;

/// An open persistent store: an append-mode handle behind a mutex (appends
/// are single `write_all` calls, so concurrent workers interleave whole
/// records, never bytes).
#[derive(Debug)]
pub(super) struct PersistentStore {
    file: Mutex<File>,
}

/// What opening a store found: every valid record, and how many were
/// dropped ([`CacheStats::store_skipped`](super::CacheStats::store_skipped)).
#[derive(Default)]
pub(super) struct Replay {
    pub(super) records: Vec<(CacheKey, ReducedGraph)>,
    pub(super) skipped: u64,
}

impl PersistentStore {
    /// Opens (creating if absent) the store at `path` and returns it along
    /// with every valid record found. A missing, empty, or wrong-header file
    /// is (re)initialized; corrupt or stale records are skipped; a torn tail
    /// is truncated away.
    pub(super) fn open(path: &Path) -> std::io::Result<(Self, Replay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (records, mut skipped, good_len) = if header_ok(&buf) {
            let (records, skipped, body_len) = parse_records(&buf[HEADER_LEN..]);
            (records, skipped, HEADER_LEN + body_len)
        } else {
            (Vec::new(), 0, 0)
        };
        if good_len < buf.len() {
            // A torn tail (crashed mid-append) or a foreign file: cut back
            // to the last whole record, or to nothing.
            skipped += 1;
            file.set_len(good_len as u64)?;
        }
        if good_len == 0 {
            // Appends land at the end, so this header starts the file.
            file.write_all(&[MAGIC, VERSION.to_le_bytes()].concat())?;
        }
        let store = Self {
            file: Mutex::new(file),
        };
        Ok((store, Replay { records, skipped }))
    }

    /// Appends one record. Callers treat failures as telemetry, not errors
    /// (write-through is best-effort; see the module docs).
    pub(super) fn append(&self, key: &CacheKey, value: &ReducedGraph) -> std::io::Result<()> {
        let record = encode_record(key, value);
        let mut file = self.file.lock().expect("store mutex");
        file.write_all(&record)
    }
}

const HEADER_LEN: usize = 8;
/// Per-record prefix: hash u64, key_len u32, val_len u32, checksum u64.
const RECORD_PREFIX_LEN: usize = 24;

fn header_ok(buf: &[u8]) -> bool {
    buf.len() >= HEADER_LEN && buf[..4] == MAGIC && buf[4..8] == VERSION.to_le_bytes()
}

/// FNV-1a over raw bytes (the record checksum; distinct from
/// [`CacheKey::content_hash`], which hashes semantic words).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_record(key: &CacheKey, value: &ReducedGraph) -> Vec<u8> {
    frame_record(key.content_hash(), &encode_key(key), &encode_value(value))
}

/// Frames encoded key and value sections as one record: the prefix (hash,
/// section lengths, FNV-1a checksum of both sections), then the sections.
fn frame_record(hash: u64, key_bytes: &[u8], val_bytes: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_PREFIX_LEN + key_bytes.len() + val_bytes.len());
    record.extend_from_slice(&hash.to_le_bytes());
    record.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    record.extend_from_slice(&(val_bytes.len() as u32).to_le_bytes());
    record.extend_from_slice(&[0; 8]); // checksum, filled in below
    record.extend_from_slice(key_bytes);
    record.extend_from_slice(val_bytes);
    let checksum = fnv1a(&record[RECORD_PREFIX_LEN..]);
    record[16..RECORD_PREFIX_LEN].copy_from_slice(&checksum.to_le_bytes());
    record
}

/// Parses the record region of a store file. Returns every record that
/// passes the checksum, staleness, and decode checks, the number of records
/// that failed them, and the byte length of the whole-record prefix
/// (anything past it is a torn tail). Records with intact framing but bad
/// content are skipped *and counted into the prefix* — corruption
/// quarantines one record, not the file.
fn parse_records(body: &[u8]) -> (Vec<(CacheKey, ReducedGraph)>, u64, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    let mut offset = 0;
    while body.len() - offset >= RECORD_PREFIX_LEN {
        let hash = read_u64(body, offset);
        let key_len = read_u32(body, offset + 8) as usize;
        let val_len = read_u32(body, offset + 12) as usize;
        let checksum = read_u64(body, offset + 16);
        if key_len > MAX_SECTION_LEN || val_len > MAX_SECTION_LEN {
            // Framing itself is garbage: nothing downstream is trustworthy.
            break;
        }
        let payload_start = offset + RECORD_PREFIX_LEN;
        let Some(payload_end) = payload_start.checked_add(key_len + val_len) else {
            break;
        };
        if payload_end > body.len() {
            // Torn tail: the record was never fully written.
            break;
        }
        let payload = &body[payload_start..payload_end];
        offset = payload_end;
        match decode_record(hash, checksum, payload, key_len) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    (records, skipped, offset)
}

/// Decodes one whole record's payload (`key_len` bytes of key section, then
/// the value section), or `None` if it is corrupt or stale.
fn decode_record(
    hash: u64,
    checksum: u64,
    payload: &[u8],
    key_len: usize,
) -> Option<(CacheKey, ReducedGraph)> {
    if fnv1a(payload) != checksum {
        return None; // flipped bits inside one record
    }
    let key = decode_key(&payload[..key_len])?;
    // Staleness check: a record written under a different option layout
    // (or a hash collision in framing) re-hashes differently.
    if key.content_hash() != hash {
        return None;
    }
    let value = decode_value(&payload[key_len..], &key)?;
    Some((key, value))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn encode_key(key: &CacheKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + key.edges.len() * 16 + 14 * 8);
    out.extend_from_slice(&(key.nodes as u64).to_le_bytes());
    out.extend_from_slice(&(key.edges.len() as u64).to_le_bytes());
    for &(u, v) in &key.edges {
        out.extend_from_slice(&u64::from(u).to_le_bytes());
        out.extend_from_slice(&u64::from(v).to_le_bytes());
    }
    for &word in key.option_bits.iter() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

/// Decodes a key section. Every edge endpoint must lie below the key's
/// node count (so within `u32`, the width a key holds it at) before it is
/// narrowed: an out-of-range endpoint is corruption, never a truncated
/// index.
fn decode_key(bytes: &[u8]) -> Option<CacheKey> {
    let mut cursor = Cursor::new(bytes);
    let nodes = cursor.u64()?;
    let edge_count = cursor.u64()? as usize;
    if edge_count > MAX_SECTION_LEN / 16 {
        return None;
    }
    let mut endpoint = || {
        let node = cursor.u64()?;
        if node >= nodes {
            return None;
        }
        u32::try_from(node).ok()
    };
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let u = endpoint()?;
        let v = endpoint()?;
        edges.push((u, v));
    }
    let nodes = usize::try_from(nodes).ok()?;
    let mut option_bits = [0u64; 14];
    for word in &mut option_bits {
        *word = cursor.u64()?;
    }
    if !cursor.finished() {
        return None;
    }
    Some(CacheKey::from_parts(nodes, edges, Arc::new(option_bits)))
}

/// A reduction's record: the kept nodes, then the warm decision's byte.
fn encode_value(value: &ReducedGraph) -> Vec<u8> {
    let nodes = &value.subgraph.nodes;
    let mut out = Vec::with_capacity(9 + nodes.len() * 8);
    out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    for &node in nodes {
        out.extend_from_slice(&(node as u64).to_le_bytes());
    }
    out.push(match value.warm_decision {
        WarmDecision::Cold => 0,
        WarmDecision::Warm => 1,
        WarmDecision::MeasuredKept => 2,
        WarmDecision::MeasuredReverted => 3,
    });
    out
}

/// Decodes a reduction of the graph `key` describes. The kept nodes must be
/// strictly increasing (the order `reduce` emits) and below `key.nodes` and
/// [`MAX_MAPPED_NODE`]; their count is checked against the key and against
/// the section's length before anything is allocated, so a crafted count
/// cannot drive an allocation. The warm decision must be one the key's
/// options permit at that size ([`CacheKey::permits`]). The reduction is
/// then expanded from the key ([`CacheKey::reduction`]), so a record can
/// only serve what a fresh reduction keeping those nodes would.
fn decode_value(bytes: &[u8], key: &CacheKey) -> Option<ReducedGraph> {
    let mut cursor = Cursor::new(bytes);
    let kept = cursor.u64()? as usize;
    // The section is the count, one word per kept node and the decision
    // byte, so its length alone bounds the count.
    let section_len = kept.checked_mul(8).and_then(|words| words.checked_add(9));
    if kept > key.nodes || section_len != Some(bytes.len()) {
        return None;
    }
    let nodes: Vec<usize> = (0..kept)
        .map(|_| Some(cursor.u64()? as usize))
        .collect::<Option<_>>()?;
    let increasing = nodes.windows(2).all(|pair| pair[0] < pair[1]);
    let out_of_range = |&top: &usize| top >= key.nodes.min(MAX_MAPPED_NODE);
    if !increasing || nodes.last().is_some_and(out_of_range) {
        return None;
    }
    let warm_decision = match cursor.u8()? {
        0 => WarmDecision::Cold,
        1 => WarmDecision::Warm,
        2 => WarmDecision::MeasuredKept,
        3 => WarmDecision::MeasuredReverted,
        _ => return None,
    };
    if !key.permits(warm_decision, kept) {
        return None;
    }
    key.reduction(nodes, warm_decision)
}

/// Minimal bounds-checked reader over a byte slice (`std::io::Cursor` on
/// `&[u8]` exists but drags in `io::Error` for what is a pure
/// `Option`-shaped parse).
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.at.checked_add(8)?;
        let word = read_u64(self.bytes.get(self.at..end)?, 0);
        self.at = end;
        Some(word)
    }

    fn u8(&mut self) -> Option<u8> {
        let byte = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(byte)
    }

    /// True when every byte was consumed (trailing garbage fails decode).
    fn finished(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{reduce, ReductionOptions};
    use graphlib::generators::{connected_gnp, cycle, path};
    use graphlib::subgraph::induced_subgraph;
    use graphlib::Graph;
    use mathkit::rng::seeded;
    use proptest::{prop_assert, prop_assert_eq};

    /// A 9-cycle's key and the reduction to nodes `0..6`, on which the
    /// cycle induces a 6-node path.
    fn sample() -> (CacheKey, ReducedGraph) {
        let key = CacheKey::new(&cycle(9).unwrap(), &ReductionOptions::default());
        let value = key.reduction((0..6).collect(), WarmDecision::Cold).unwrap();
        assert_eq!(value.graph(), &path(6).unwrap());
        (key, value)
    }

    /// A file of the current header followed by `records`.
    fn store_file(records: &[&[u8]]) -> Vec<u8> {
        let mut file = [MAGIC, VERSION.to_le_bytes()].concat();
        for record in records {
            file.extend_from_slice(record);
        }
        file
    }

    /// Writes `bytes` to a temporary file named after `name`, opens it as a
    /// store, and returns what opening found and the file's bytes after.
    fn open_temp(name: &str, bytes: &[u8]) -> (Replay, Vec<u8>) {
        let path = std::env::temp_dir().join(format!(
            "red_qaoa_persist_{name}_{}.rqps",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let opened = std::panic::catch_unwind(|| PersistentStore::open(&path));
        let after = std::fs::read(&path);
        let _ = std::fs::remove_file(&path);
        let (_, replay) = opened
            .expect("opening a store never panics")
            .expect("opening a store is Ok");
        (replay, after.unwrap())
    }

    #[test]
    fn records_round_trip_bitwise() {
        let (key, value) = sample();
        let body = encode_record(&key, &value);
        let (records, skipped, consumed) = parse_records(&body);
        assert_eq!((skipped, consumed), (0, body.len()));
        assert_eq!(records, vec![(key, value)]);
    }

    #[test]
    fn record_bytes_are_pinned() {
        // The v3 layout, recorded: a layout change that does not bump
        // `VERSION` would misparse every existing store, so it must fail
        // here first.
        let (key, value) = sample();
        let record = encode_record(&key, &value);
        assert_eq!(record.len(), 24 + 272 + 57, "prefix, key, value sections");
        assert_eq!(fnv1a(&record), 0xfd36_4365_d8d9_3b8e);
    }

    #[test]
    fn a_flipped_byte_skips_only_that_record() {
        let (key, value) = sample();
        let mut body = encode_record(&key, &value);
        let good = encode_record(&key, &value);
        // Corrupt one payload byte of the first record.
        let target = RECORD_PREFIX_LEN + 3;
        body[target] ^= 0xFF;
        body.extend_from_slice(&good);
        let (records, skipped, consumed) = parse_records(&body);
        assert_eq!(records.len(), 1, "second record survives");
        assert_eq!((skipped, consumed), (1, body.len()));
    }

    #[test]
    fn a_torn_tail_stops_at_the_last_whole_record() {
        let (key, value) = sample();
        let mut body = encode_record(&key, &value);
        let whole = body.len();
        body.extend_from_slice(&encode_record(&key, &value)[..10]);
        let (records, skipped, consumed) = parse_records(&body);
        assert_eq!(records.len(), 1);
        assert_eq!(consumed, whole, "tail excluded from the good prefix");
        assert_eq!(skipped, 0, "opening counts the cut tail, not the parse");
        let (replay, healed) = open_temp("torn", &store_file(&[&body]));
        assert_eq!((replay.records.len(), replay.skipped), (1, 1));
        assert_eq!(healed.len(), HEADER_LEN + whole, "the tail is cut off");
    }

    #[test]
    fn a_stale_hash_is_dropped() {
        let (key, value) = sample();
        let mut body = encode_record(&key, &value);
        // Rewrite the stored content hash (checksum still passes: it only
        // covers the payload) — the staleness check must reject it.
        body[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let (records, skipped, consumed) = parse_records(&body);
        assert!(records.is_empty());
        assert_eq!((skipped, consumed), (1, body.len()));
    }

    #[test]
    fn garbage_framing_stops_parsing() {
        let mut body = vec![0xA5u8; 200];
        // Absurd key_len: framing untrustworthy, parse must stop at 0.
        body[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let (records, skipped, consumed) = parse_records(&body);
        assert!(records.is_empty());
        assert_eq!((skipped, consumed), (0, 0));
    }

    /// Raw value-section bytes with the given kept-node count, kept nodes
    /// and a `Cold` decision (no validation — for crafting hostile
    /// records).
    fn raw_value(count: u64, kept: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for word in std::iter::once(&count).chain(kept) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.push(0);
        out
    }

    /// Frames `value` under `key` with a valid checksum and content hash, so
    /// only the value checks stand between the record and the cache.
    fn hostile_record(key: &CacheKey, value: &[u8]) -> Vec<u8> {
        frame_record(key.content_hash(), &encode_key(key), value)
    }

    #[test]
    fn reductions_inconsistent_with_their_key_are_corrupt() {
        let (key, _) = sample(); // a 9-node key
        let ten: Vec<u64> = (0..10).collect();
        let cases = [
            ("more kept nodes than the key", raw_value(10, &ten)),
            ("fewer kept nodes than the count", raw_value(3, &[0, 1])),
            (
                "more kept nodes than the count",
                raw_value(3, &[0, 1, 2, 3]),
            ),
            ("a duplicate kept node", raw_value(3, &[0, 4, 4])),
            ("a kept node outside the key", raw_value(3, &[0, 1, 9])),
            (
                // The cycle induces the same 6-node path on the reversed
                // labels, but `reduce` lists its nodes in increasing order.
                "kept nodes out of increasing order",
                raw_value(6, &[5, 4, 3, 2, 1, 0]),
            ),
        ];
        for (what, value) in cases {
            let (records, skipped, consumed) = parse_records(&hostile_record(&key, &value));
            assert!(records.is_empty(), "{what}: record must be rejected");
            assert_eq!(skipped, 1, "{what}: counted");
            assert!(consumed > 0, "{what}: framing is intact, parsing goes on");
        }
        // Consistent kept nodes decode to what the key induces on them: the
        // 9-cycle's single edge 8–0 on nodes {0, 4, 8}.
        let (records, _, _) = parse_records(&hostile_record(&key, &raw_value(3, &[0, 4, 8])));
        assert_eq!(records.len(), 1);
        let served = &records[0].1;
        assert_eq!(served.subgraph.nodes, vec![0, 4, 8]);
        assert_eq!(served.graph(), &Graph::from_edges(3, &[(0, 2)]).unwrap());
    }

    #[test]
    fn a_crafted_node_count_cannot_drive_allocation_at_open() {
        // Records whose checksum and content hash are valid but whose
        // reduced node count is astronomically large. The graph allocates
        // one CSR offset per node, so the count must be rejected (it
        // exceeds the key's nodes, or the mapping bytes present) before
        // anything is built; each record is skipped as corrupt.
        let (key, value) = sample();
        let huge = 1u64 << 40;
        // A zero `min_size_fraction` puts the huge key's size floor at its
        // three-node `min_size`.
        let mut words = *key.option_bits;
        words[3] = 0.0f64.to_bits();
        let huge_key = CacheKey::from_parts(huge as usize, key.edges.clone(), Arc::new(words));
        // A short list of kept nodes whose top node is huge: expanding it
        // indexes one slot per parent node up to that top, so the top must
        // be rejected first. A warm stop at the three-node floor is what
        // the huge key permits, so only the bound stops the record.
        let mut far_nodes = raw_value(3, &[0, 1, huge - 1]);
        *far_nodes.last_mut().unwrap() = 1;
        let file = store_file(&[
            // More kept nodes than the key has.
            &hostile_record(&key, &raw_value(huge, &[])),
            // A count the huge key allows, without the bytes to back it.
            &hostile_record(&huge_key, &raw_value(huge, &[0, 1])),
            &hostile_record(&huge_key, &far_nodes),
            &encode_record(&key, &value),
        ]);
        let (replay, _) = open_temp("hostile", &file);
        assert_eq!(
            replay.records,
            vec![(key, value)],
            "only the honest record loads"
        );
        assert_eq!(replay.skipped, 3);
    }

    #[test]
    fn warm_decisions_the_key_cannot_produce_are_corrupt() {
        // The 9-node sample key runs the default measured policy below its
        // 16-node gate, so a fresh reduction anneals cold: every other
        // decision byte is a record that no reduction under the key wrote.
        let (key, value) = sample();
        let mut bytes = encode_value(&value);
        for (byte, served) in [(0u8, true), (1, false), (2, false), (3, false), (4, false)] {
            *bytes.last_mut().unwrap() = byte;
            let (records, _, consumed) = parse_records(&hostile_record(&key, &bytes));
            assert_eq!(records.len(), usize::from(served), "decision byte {byte}");
            assert!(consumed > 0);
        }
    }

    #[test]
    fn a_floor_reduction_relabelled_as_measured_is_skipped() {
        // An 18-node graph is warm-started, and this reduction stops at its
        // 12-node floor. A measured outcome means the search went past the
        // floor, so the relabelled record (checksum and hash recomputed)
        // is one no reduction under the key wrote.
        let graph = connected_gnp(18, 0.35, &mut seeded(101)).unwrap();
        let options = ReductionOptions::default();
        let key = CacheKey::new(&graph, &options);
        let fresh = reduce(&graph, &options, &mut seeded(11)).unwrap();
        assert_eq!(fresh.warm_decision, WarmDecision::Warm);
        assert_eq!(fresh.subgraph.nodes.len(), 12);
        for warm_decision in [WarmDecision::MeasuredKept, WarmDecision::MeasuredReverted] {
            let forged = ReducedGraph {
                warm_decision,
                ..fresh.clone()
            };
            let (records, _, consumed) = parse_records(&encode_record(&key, &forged));
            assert!(records.is_empty(), "{warm_decision:?} at the floor");
            assert!(consumed > 0);
        }
        let (records, _, _) = parse_records(&encode_record(&key, &fresh));
        assert_eq!(records, vec![(key, fresh)]);
    }

    #[test]
    fn key_endpoints_outside_the_key_are_corrupt() {
        // A one-edge key section over `nodes` nodes, with the sample's
        // option words.
        let options = *sample().0.option_bits;
        let raw_key = |nodes: u64, (u, v): (u64, u64)| {
            let mut out = Vec::new();
            for word in [nodes, 1, u, v].into_iter().chain(options) {
                out.extend_from_slice(&word.to_le_bytes());
            }
            out
        };
        let cases = [
            ("an endpoint equal to the node count", 9, (0, 9)),
            ("an endpoint above the node count", 9, (12, 3)),
            ("an endpoint above u32::MAX", 1 << 40, (0, 1 << 33)),
            (
                "an endpoint that would narrow into range",
                1 << 40,
                ((1 << 32) + 1, 2),
            ),
        ];
        for (what, nodes, edge) in cases {
            assert!(decode_key(&raw_key(nodes, edge)).is_none(), "{what}");
        }
        let key = decode_key(&raw_key(9, (0, 8))).expect("in-range key decodes");
        assert_eq!(key.edges, vec![(0, 8)]);
        assert_eq!(encode_key(&key), raw_key(9, (0, 8)), "byte format");
    }

    /// One honest record per warm-start gate — the default gate above the
    /// graph (a cold reduction), warm starts off (`usize::MAX`), and the
    /// gate at 0 (a warm reduction) — each holding a fresh `reduce` of its
    /// random graph.
    struct HonestRecord {
        graph: Graph,
        key: CacheKey,
        fresh: ReducedGraph,
        bytes: Vec<u8>,
    }

    fn honest_records() -> &'static [HonestRecord] {
        static RECORDS: std::sync::OnceLock<Vec<HonestRecord>> = std::sync::OnceLock::new();
        RECORDS.get_or_init(|| {
            let policies = [
                ReductionOptions::default(),
                ReductionOptions {
                    warm_min_nodes: usize::MAX,
                    ..ReductionOptions::default()
                },
                ReductionOptions {
                    warm_min_nodes: 0,
                    ..ReductionOptions::default()
                },
            ];
            policies
                .iter()
                .zip(10u64..)
                .map(|(options, seed)| {
                    let graph = connected_gnp(seed as usize, 0.4, &mut seeded(seed)).unwrap();
                    let key = CacheKey::new(&graph, options);
                    let fresh = reduce(&graph, options, &mut seeded(seed + 100)).unwrap();
                    let bytes = encode_record(&key, &fresh);
                    HonestRecord {
                        graph,
                        key,
                        fresh,
                        bytes,
                    }
                })
                .collect()
        })
    }

    /// Re-frames a record whose sections were edited: the content hash of
    /// its key section (when that still decodes) and the checksum of its
    /// payload (when the length fields still fit the record) are
    /// recomputed, so the edit reaches the decoder instead of the framing
    /// checks.
    fn refresh_framing(record: &mut [u8]) {
        let key_len = read_u32(record, 8) as usize;
        let val_len = read_u32(record, 12) as usize;
        let Some(payload) = record.get(RECORD_PREFIX_LEN..RECORD_PREFIX_LEN + key_len + val_len)
        else {
            return;
        };
        let checksum = fnv1a(payload);
        let hash = decode_key(&payload[..key_len]).map(|key| key.content_hash());
        record[16..RECORD_PREFIX_LEN].copy_from_slice(&checksum.to_le_bytes());
        if let Some(hash) = hash {
            record[..8].copy_from_slice(&hash.to_le_bytes());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]

        /// Mutated stores: one record of three takes a bit flip in its
        /// payload (framing recomputed), a bit flip anywhere (framing left
        /// as is), a length-field edit (framing recomputed), or the file is
        /// cut short. Opening never fails or panics. A record whose
        /// framing was left alone serves nothing but an honest record, and
        /// a payload flip never costs the other records.
        ///
        /// What a forged record with recomputed framing can still carry is
        /// bounded by what the decoder checks: for an honest key it serves
        /// exactly the fresh reduced graph and ratios; only the node labels
        /// (another node set on which the key's graph induces that same
        /// graph) or the warm-start telemetry (another decision the key's
        /// options allow at that size) could differ, since no check short of re-running
        /// the reduction can tell those apart.
        #[test]
        fn mutated_stores_open_and_serve_only_fresh_reductions(
            target in 0usize..3,
            kind in 0usize..4,
            at in 0usize..1_000_000,
            bit in 0u32..8,
            amount in 1u32..48,
        ) {
            let honest = honest_records();
            let mut records: Vec<Vec<u8>> = honest.iter().map(|r| r.bytes.clone()).collect();
            let record = &mut records[target];
            let payload_len = record.len() - RECORD_PREFIX_LEN;
            match kind {
                0 => {
                    record[RECORD_PREFIX_LEN + at % payload_len] ^= 1 << bit;
                    refresh_framing(record);
                }
                1 => {
                    let len = record.len();
                    record[at % len] ^= 1 << bit;
                }
                2 => {
                    let field = if bit % 2 == 0 { 8 } else { 12 };
                    let old = read_u32(record, field);
                    let new = if bit < 4 {
                        old.wrapping_add(amount)
                    } else {
                        old.saturating_sub(amount)
                    };
                    record[field..field + 4].copy_from_slice(&new.to_le_bytes());
                    refresh_framing(record);
                }
                _ => {}
            }
            let mut file = store_file(&records.iter().map(Vec::as_slice).collect::<Vec<_>>());
            let cut = if kind == 3 { at % (file.len() + 1) } else { file.len() };
            file.truncate(cut);
            let name = format!("mutated_{target}_{kind}_{at}_{bit}_{amount}");
            let loaded = open_temp(&name, &file).0.records;

            let framing_kept = kind == 1 || kind == 3;
            for (key, value) in &loaded {
                let Some(source) = honest.iter().find(|r| &r.key == key) else {
                    prop_assert!(!framing_kept, "a record with stale framing was served");
                    continue;
                };
                let fresh = &source.fresh;
                if framing_kept {
                    prop_assert!(value == fresh, "an honest key served a stale value");
                    continue;
                }
                prop_assert!(value.subgraph.graph == fresh.subgraph.graph);
                prop_assert_eq!(value.and_ratio.to_bits(), fresh.and_ratio.to_bits());
                prop_assert_eq!(value.node_reduction.to_bits(), fresh.node_reduction.to_bits());
                prop_assert_eq!(value.edge_reduction.to_bits(), fresh.edge_reduction.to_bits());
                let relabelled = induced_subgraph(&source.graph, &value.subgraph.nodes).unwrap();
                prop_assert!(relabelled.graph == value.subgraph.graph);
                prop_assert!(key.permits(value.warm_decision, value.subgraph.nodes.len()));
            }
            let served = |r: &HonestRecord| loaded.iter().any(|(k, v)| k == &r.key && v == &r.fresh);
            for (i, source) in honest.iter().enumerate() {
                let whole_before_cut =
                    HEADER_LEN + records[..=i].iter().map(Vec::len).sum::<usize>() <= cut;
                let intact = match kind {
                    0 => i != target,
                    3 => whole_before_cut,
                    _ => false,
                };
                prop_assert!(!intact || served(source), "honest record {} was lost", i);
            }
        }
    }

    #[test]
    fn header_check_rejects_foreign_files() {
        assert!(!header_ok(b""));
        assert!(!header_ok(b"RQPS"));
        assert!(!header_ok(b"NOPE\x03\x00\x00\x00"));
        assert!(!header_ok(b"RQPS\x02\x00\x00\x00"), "past version");
        assert!(!header_ok(b"RQPS\x04\x00\x00\x00"), "future version");
        assert!(header_ok(b"RQPS\x03\x00\x00\x00"));
    }

    #[test]
    fn an_older_version_store_is_rewritten_not_replayed() {
        // Version 1 stores hold reductions of the search before it annealed
        // its size floor first, and version 2 stores a layout this decoder
        // does not read; a record under either header is never replayed,
        // even one whose bytes would decode today.
        let (key, value) = sample();
        for version in [1u8, 2] {
            let mut file = vec![b'R', b'Q', b'P', b'S', version, 0, 0, 0];
            file.extend_from_slice(&encode_record(&key, &value));
            let (replay, rewritten) = open_temp(&format!("v{version}"), &file);
            assert!(replay.records.is_empty(), "no v{version} record replays");
            assert_eq!(replay.skipped, 1, "the dropped file counts once");
            assert_eq!(rewritten, b"RQPS\x03\x00\x00\x00");
        }
    }
}
