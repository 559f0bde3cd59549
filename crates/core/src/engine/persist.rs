//! Optional file-backed persistence for the reduction cache.
//!
//! A Red-QAOA service amortizes annealing across jobs through the in-memory
//! cache; this module amortizes it across *process restarts and co-located
//! workers*. The store is a single append-only file of
//! `(content hash, key, reduction)` records keyed by the same
//! [`CacheKey::content_hash`] the in-memory cache shards on — so an entry
//! loaded from disk is indistinguishable (bitwise) from one the process
//! computed itself.
//!
//! Robustness contract (pinned by `tests/engine_persist.rs`):
//!
//! * **Write-through is best-effort.** A failed append never fails the job;
//!   the computed reduction is still returned and cached in memory.
//! * **Loading is validating.** Every record must pass a checksum *and* a
//!   staleness check (the stored hash must equal the re-hashed decoded key —
//!   a record written by an incompatible option layout re-hashes
//!   differently and is dropped). A key whose two retired warm-start words
//!   (the policy code and temperature fraction of the four-policy search)
//!   hold anything but today's constants is stale too: no request builds
//!   such a key again. Every key endpoint must lie below the key's node
//!   count. Its reduction must also agree with its key: an in-range mapping
//!   in the strictly increasing order `reduce` emits, exactly the edges the
//!   key's graph induces on that mapping, node and edge reductions and an
//!   AND ratio that recompute to the stored bits, and a warm-start decision
//!   the key's options can produce at the mapping's size (`Warm` only at
//!   the size floor, a measured outcome only above it). Corrupt or stale
//!   records are skipped, not fatal. What no check can tell apart from a
//!   fresh reduction is another node set on which the key's graph induces
//!   the same reduced graph, or a search past the floor that kept warm
//!   seeding relabelled as one that reverted (or the reverse); the mutation
//!   proptest bounds served values by exactly that.
//! * **Torn tails self-heal.** A record truncated by a crash mid-append is
//!   cut off at open time, so the next append starts from a clean boundary.
//!
//! The format is deliberately plain (little-endian words, FNV-1a checksum,
//! no compression): reductions are small, and auditability beats density.

use super::cache::{induced_edges, CacheKey};
use crate::reduction::{reduction_fractions, ReducedGraph, WarmDecision};
use graphlib::metrics::and_ratio_of_counts;
use graphlib::subgraph::Subgraph;
use graphlib::Graph;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// File magic: "Red-Qaoa Persistent Store".
const MAGIC: [u8; 4] = *b"RQPS";
/// Format version; bumped on any layout change so old files are rewritten,
/// not misparsed, and on any change to what a key reduces to, so a store
/// never replays a reduction a fresh anneal would no longer produce
/// (version 2: the search anneals its size floor first).
const VERSION: u32 = 2;
/// Upper bound on a single record's key/value payload (sanity check against
/// interpreting corrupt length fields as multi-gigabyte allocations).
const MAX_SECTION_LEN: usize = 1 << 24;
/// Bound on the parent nodes a record's mapping may name. Replay checks a
/// record through [`induced_edges`], which indexes the mapping with one
/// `u32` per parent node up to the largest kept one, so this caps that
/// table at `MAX_SECTION_LEN` bytes whatever node count a crafted key
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

impl PersistentStore {
    /// Opens (creating if absent) the store at `path` and returns it along
    /// with every valid record found. A missing, empty, or wrong-header file
    /// is (re)initialized; corrupt or stale records are skipped; a torn tail
    /// is truncated away.
    pub(super) fn open(path: &Path) -> std::io::Result<(Self, Vec<(CacheKey, ReducedGraph)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (loaded, good_len) = if header_ok(&buf) {
            let (records, body_len) = parse_records(&buf[HEADER_LEN..]);
            (records, HEADER_LEN + body_len)
        } else {
            (Vec::new(), 0)
        };
        if good_len == 0 {
            // Empty or foreign file: rewrite the header from scratch.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.write_all(&header)?;
        } else if good_len < buf.len() {
            // Torn tail (crashed mid-append): cut back to the last whole
            // record so future appends land on a clean boundary.
            file.set_len(good_len as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok((
            Self {
                file: Mutex::new(file),
            },
            loaded,
        ))
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
/// passes the checksum, staleness, and decode checks, plus the byte length
/// of the whole-record prefix (anything past it is a torn tail). Records
/// with intact framing but bad content are skipped *and counted into the
/// prefix* — corruption quarantines one record, not the file.
fn parse_records(body: &[u8]) -> (Vec<(CacheKey, ReducedGraph)>, usize) {
    let mut records = Vec::new();
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
        if fnv1a(payload) != checksum {
            continue; // flipped bits inside one record: skip it
        }
        let Some(key) = decode_key(&payload[..key_len]) else {
            continue;
        };
        // Staleness check: a record written under a different option layout
        // (or a hash collision in framing) re-hashes differently.
        if key.content_hash() != hash {
            continue;
        }
        let Some(value) = decode_value(&payload[key_len..], &key) else {
            continue;
        };
        records.push((key, value));
    }
    (records, offset)
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
/// index. A key with retired warm-start words is stale
/// ([`CacheKey::has_current_warm_words`]).
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
    let key = CacheKey::from_parts(nodes, edges, Arc::new(option_bits));
    key.has_current_warm_words().then_some(key)
}

fn encode_value(value: &ReducedGraph) -> Vec<u8> {
    let graph = &value.subgraph.graph;
    let edges = graph.edges();
    let mut out = Vec::with_capacity(32 + edges.len() * 16 + value.subgraph.nodes.len() * 8);
    out.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (u, v) in edges {
        out.extend_from_slice(&(u as u64).to_le_bytes());
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out.extend_from_slice(&(value.subgraph.nodes.len() as u64).to_le_bytes());
    for &node in &value.subgraph.nodes {
        out.extend_from_slice(&(node as u64).to_le_bytes());
    }
    out.extend_from_slice(&value.and_ratio.to_bits().to_le_bytes());
    out.extend_from_slice(&value.node_reduction.to_bits().to_le_bytes());
    out.extend_from_slice(&value.edge_reduction.to_bits().to_le_bytes());
    out.push(match value.warm_decision {
        WarmDecision::Cold => 0,
        WarmDecision::Warm => 1,
        WarmDecision::MeasuredKept => 2,
        WarmDecision::MeasuredReverted => 3,
    });
    out
}

/// Decodes a reduction of the graph `key` describes. The reduced graph is
/// built last, after its mapping has been read and checked: the mapping
/// must hold one parent node `< key.nodes` (and `<` [`MAX_MAPPED_NODE`])
/// per reduced node, strictly increasing (the order `reduce` emits), so
/// the node count is bounded both by the key and by the bytes actually
/// present, and a crafted count cannot drive the allocation. The warm
/// decision must be one the key's options permit at the mapping's size
/// ([`CacheKey::permits`]).
/// The built graph must then carry exactly the edges the key's graph
/// induces on the mapping, the stored node and edge reductions must be
/// the bits [`reduction_fractions`] recomputes, and the stored AND ratio
/// the bits [`and_ratio_of_counts`] recomputes from the key's counts (the
/// key's graph is never built: a crafted key's node count is unbounded),
/// so a record can only serve what a fresh reduction to that subgraph
/// would.
fn decode_value(bytes: &[u8], key: &CacheKey) -> Option<ReducedGraph> {
    let key_nodes = key.nodes;
    let mut cursor = Cursor::new(bytes);
    let node_count = cursor.u64()? as usize;
    if node_count > key_nodes {
        return None;
    }
    let edge_count = cursor.u64()? as usize;
    if edge_count > MAX_SECTION_LEN / 16 {
        return None;
    }
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let u = cursor.u64()? as usize;
        let v = cursor.u64()? as usize;
        edges.push((u, v));
    }
    let mapping_len = cursor.u64()? as usize;
    if mapping_len != node_count || mapping_len > MAX_SECTION_LEN / 8 {
        return None;
    }
    let mut nodes = Vec::with_capacity(mapping_len);
    for _ in 0..mapping_len {
        nodes.push(cursor.u64()? as usize);
    }
    let increasing = nodes.windows(2).all(|pair| pair[0] < pair[1]);
    let out_of_range = |&top: &usize| top >= key_nodes.min(MAX_MAPPED_NODE);
    if !increasing || nodes.last().is_some_and(out_of_range) {
        return None;
    }
    let and_ratio = f64::from_bits(cursor.u64()?);
    let node_reduction = f64::from_bits(cursor.u64()?);
    let edge_reduction = f64::from_bits(cursor.u64()?);
    let warm_decision = match cursor.u8()? {
        0 => WarmDecision::Cold,
        1 => WarmDecision::Warm,
        2 => WarmDecision::MeasuredKept,
        3 => WarmDecision::MeasuredReverted,
        _ => return None,
    };
    if !cursor.finished() || !key.permits(warm_decision, mapping_len) {
        return None;
    }
    let graph = Graph::from_edges(node_count, &edges).ok()?;
    let mut stored = graph.edges();
    stored.sort_unstable();
    if stored != induced_edges(key, &nodes) {
        return None;
    }
    let (nodes_cut, edges_cut) = reduction_fractions(key.nodes, key.edges.len(), &graph);
    let and = and_ratio_of_counts(
        (key.nodes, key.edges.len()),
        (graph.node_count(), graph.edge_count()),
    );
    if nodes_cut.to_bits() != node_reduction.to_bits()
        || edges_cut.to_bits() != edge_reduction.to_bits()
        || and.to_bits() != and_ratio.to_bits()
    {
        return None;
    }
    Some(ReducedGraph {
        subgraph: Subgraph { graph, nodes },
        and_ratio,
        node_reduction,
        edge_reduction,
        warm_decision,
    })
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
    use graphlib::metrics::and_ratio;
    use graphlib::subgraph::induced_subgraph;
    use mathkit::rng::seeded;
    use proptest::{prop_assert, prop_assert_eq};

    /// A 9-cycle's key and the reduction to nodes `0..6`, on which the
    /// cycle induces a 6-node path.
    fn sample() -> (CacheKey, ReducedGraph) {
        let graph = cycle(9).unwrap();
        let key = CacheKey::new(&graph, &ReductionOptions::default());
        let value = ReducedGraph {
            subgraph: Subgraph {
                nodes: (0..6).collect(),
                graph: path(6).unwrap(),
            },
            and_ratio: and_ratio(&graph, &path(6).unwrap()),
            node_reduction: 1.0 - 6.0 / 9.0,
            edge_reduction: 1.0 - 5.0 / 9.0,
            warm_decision: WarmDecision::Cold,
        };
        (key, value)
    }

    #[test]
    fn records_round_trip_bitwise() {
        let (key, value) = sample();
        let body = encode_record(&key, &value);
        let (records, consumed) = parse_records(&body);
        assert_eq!(consumed, body.len());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, key);
        assert_eq!(records[0].1, value);
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
        let (records, consumed) = parse_records(&body);
        assert_eq!(records.len(), 1, "second record survives");
        assert_eq!(consumed, body.len());
    }

    #[test]
    fn a_torn_tail_stops_at_the_last_whole_record() {
        let (key, value) = sample();
        let mut body = encode_record(&key, &value);
        let whole = body.len();
        body.extend_from_slice(&encode_record(&key, &value)[..10]);
        let (records, consumed) = parse_records(&body);
        assert_eq!(records.len(), 1);
        assert_eq!(consumed, whole, "tail excluded from the good prefix");
    }

    #[test]
    fn a_stale_hash_is_dropped() {
        let (key, value) = sample();
        let mut body = encode_record(&key, &value);
        // Rewrite the stored content hash (checksum still passes: it only
        // covers the payload) — the staleness check must reject it.
        body[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let (records, consumed) = parse_records(&body);
        assert!(records.is_empty());
        assert_eq!(consumed, body.len());
    }

    #[test]
    fn garbage_framing_stops_parsing() {
        let mut body = vec![0xA5u8; 200];
        // Absurd key_len: framing untrustworthy, parse must stop at 0.
        body[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let (records, consumed) = parse_records(&body);
        assert!(records.is_empty());
        assert_eq!(consumed, 0);
    }

    /// Raw value-section bytes with the given node count, edges and
    /// mapping (no validation — for crafting hostile records). The node and
    /// edge reductions are the ones those counts give against the sample's
    /// 9-node, 9-edge key.
    fn raw_value(node_count: u64, edges: &[(u64, u64)], mapping: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&node_count.to_le_bytes());
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for &(u, v) in edges {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(mapping.len() as u64).to_le_bytes());
        for &node in mapping {
            out.extend_from_slice(&node.to_le_bytes());
        }
        let node_reduction = 1.0 - node_count as f64 / 9.0;
        let edge_reduction = 1.0 - edges.len() as f64 / 9.0;
        let and = and_ratio_of_counts((9, 9), (node_count as usize, edges.len()));
        for ratio in [and, node_reduction, edge_reduction] {
            out.extend_from_slice(&ratio.to_bits().to_le_bytes());
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
        let ring: Vec<(u64, u64)> = (0..3).map(|i| (i, (i + 1) % 3)).collect();
        let path_edges: Vec<(u64, u64)> = (0..5).map(|i| (i, i + 1)).collect();
        let cases = [
            (
                "more reduced nodes than the key",
                raw_value(10, &[], &[0; 10]),
            ),
            (
                "mapping shorter than the graph",
                raw_value(3, &ring, &[0, 1]),
            ),
            (
                "mapping longer than the graph",
                raw_value(3, &ring, &[0, 1, 2, 3]),
            ),
            ("duplicate mapping index", raw_value(3, &ring, &[0, 4, 4])),
            (
                "mapping index outside the key",
                raw_value(3, &ring, &[0, 1, 9]),
            ),
            (
                // The cycle induces the same 6-node path on the reversed
                // labels, but `reduce` lists its nodes in increasing order.
                "mapping out of increasing order",
                raw_value(6, &path_edges, &[5, 4, 3, 2, 1, 0]),
            ),
        ];
        for (what, value) in cases {
            let (records, consumed) = parse_records(&hostile_record(&key, &value));
            assert!(records.is_empty(), "{what}: record must be rejected");
            assert!(consumed > 0, "{what}: framing is intact, parsing goes on");
        }
        // The same layout with a consistent mapping decodes: the 9-cycle
        // induces the single edge 8–0 on nodes {0, 4, 8}.
        let (records, _) = parse_records(&hostile_record(&key, &raw_value(3, &ring, &[0, 4, 8])));
        assert!(records.is_empty(), "a ring is not what the key induces");
        let (records, _) =
            parse_records(&hostile_record(&key, &raw_value(3, &[(0, 2)], &[0, 4, 8])));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.subgraph.nodes, vec![0, 4, 8]);
    }

    #[test]
    fn records_that_disagree_with_a_fresh_reduce_are_corrupt() {
        // Crafted records whose checksum and content hash are valid but
        // whose reduction is not the one a fresh `reduce` of the key's
        // graph gives: the store must serve the fresh value or nothing.
        let graph = connected_gnp(12, 0.4, &mut seeded(5)).unwrap();
        let options = ReductionOptions::default();
        let key = CacheKey::new(&graph, &options);
        let fresh = reduce(&graph, &options, &mut seeded(6)).unwrap();
        let sub = &fresh.subgraph;
        let n = sub.graph.node_count();
        let edges = sub.graph.edges();
        assert!(edges.len() >= 2 && edges.len() < n * (n - 1) / 2);
        let missing = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| !sub.graph.has_edge(a, b))
            .unwrap();
        let with_graph = |edges: &[(usize, usize)]| ReducedGraph {
            subgraph: Subgraph {
                graph: Graph::from_edges(n, edges).unwrap(),
                nodes: sub.nodes.clone(),
            },
            ..fresh.clone()
        };
        let mut added = edges.clone();
        added.push(missing);
        let mut swapped = fresh.clone();
        swapped.subgraph.nodes.swap(0, n - 1);
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let cases = [
            ("an induced edge dropped", with_graph(&edges[1..])),
            ("a non-induced edge added", with_graph(&added)),
            ("two mapping entries swapped", swapped),
            (
                "node reduction off by one ulp",
                ReducedGraph {
                    node_reduction: next_up(fresh.node_reduction),
                    ..fresh.clone()
                },
            ),
            (
                "edge reduction off by one ulp",
                ReducedGraph {
                    edge_reduction: next_up(fresh.edge_reduction),
                    ..fresh.clone()
                },
            ),
            (
                "AND ratio off by one ulp",
                ReducedGraph {
                    and_ratio: next_up(fresh.and_ratio),
                    ..fresh.clone()
                },
            ),
        ];
        for (what, value) in &cases {
            assert_ne!(value, &fresh, "{what}: the crafted value differs");
            let record = hostile_record(&key, &encode_value(value));
            let (records, consumed) = parse_records(&record);
            assert!(
                records.iter().all(|(_, served)| served == &fresh),
                "{what}: a value that differs from a fresh reduce was served"
            );
            assert!(records.is_empty(), "{what}: record must be rejected");
            assert_eq!(consumed, record.len(), "{what}: framing is intact");
        }
        // The honest record serves exactly the fresh value.
        let (records, _) = parse_records(&encode_record(&key, &fresh));
        assert_eq!(records, vec![(key, fresh)]);
    }

    #[test]
    fn a_crafted_node_count_cannot_drive_allocation_at_open() {
        // Records whose checksum and content hash are valid but whose
        // reduced node count is astronomically large. The graph allocates
        // one adjacency list per node, so the count must be rejected (it
        // exceeds the key's nodes, or the mapping bytes present) before
        // anything is built; each record is skipped as corrupt.
        let (key, value) = sample();
        let huge = 1u64 << 40;
        // A zero `min_size_fraction` puts the huge key's size floor at its
        // three-node `min_size`.
        let mut words = *key.option_bits;
        words[3] = 0.0f64.to_bits();
        let huge_key = CacheKey::from_parts(huge as usize, key.edges.clone(), Arc::new(words));
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&VERSION.to_le_bytes());
        body.extend_from_slice(&hostile_record(&key, &raw_value(huge, &[], &[])));
        body.extend_from_slice(&hostile_record(&huge_key, &raw_value(huge, &[], &[0, 1])));
        // Mapping length claims the huge count but the bytes are absent.
        let mut truncated_mapping = raw_value(huge, &[], &[]);
        let mapping_at = 16;
        truncated_mapping[mapping_at..mapping_at + 8].copy_from_slice(&huge.to_le_bytes());
        body.extend_from_slice(&hostile_record(&huge_key, &truncated_mapping));
        // A short mapping whose top node is huge: checking its induced
        // edges indexes one slot per parent node up to that top, so the
        // top must be rejected first. A warm stop at the three-node floor
        // is what the huge key permits, so only the bound stops the record.
        let mut far_mapping = raw_value(3, &[], &[0, 1, huge - 1]);
        *far_mapping.last_mut().unwrap() = 1;
        body.extend_from_slice(&hostile_record(&huge_key, &far_mapping));
        body.extend_from_slice(&encode_record(&key, &value));
        let path = std::env::temp_dir().join(format!(
            "red_qaoa_persist_hostile_{}.rqps",
            std::process::id()
        ));
        std::fs::write(&path, &body).unwrap();
        let opened = PersistentStore::open(&path);
        let _ = std::fs::remove_file(&path);
        let (_, loaded) = opened.expect("opening a store with hostile records is Ok");
        assert!(
            loaded.iter().all(|(k, _)| k.nodes != huge_key.nodes),
            "nothing served for the hostile key"
        );
        assert_eq!(loaded, vec![(key, value)], "only the honest record loads");
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
            let (records, consumed) = parse_records(&hostile_record(&key, &bytes));
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
            let (records, consumed) = parse_records(&encode_record(&key, &forged));
            assert!(records.is_empty(), "{warm_decision:?} at the floor");
            assert!(consumed > 0);
        }
        let (records, _) = parse_records(&encode_record(&key, &fresh));
        assert_eq!(records, vec![(key, fresh)]);
    }

    #[test]
    fn a_retired_policy_record_is_skipped_and_a_default_one_replays() {
        // The same cold reduction stored twice: under the default key, and
        // under a key whose policy word holds the retired `Off` code. Only
        // that word tells them apart, so it alone skips the second record.
        let (key, value) = sample();
        let mut words = *key.option_bits;
        words[4] = 0;
        let retired = CacheKey::from_parts(key.nodes, key.edges.clone(), Arc::new(words));
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&encode_record(&retired, &value));
        file.extend_from_slice(&encode_record(&key, &value));
        let path = std::env::temp_dir().join(format!(
            "red_qaoa_persist_retired_{}.rqps",
            std::process::id()
        ));
        std::fs::write(&path, &file).unwrap();
        let opened = PersistentStore::open(&path).map(|(_, loaded)| loaded);
        let _ = std::fs::remove_file(&path);
        let loaded = opened.unwrap();
        assert_eq!(loaded.len(), 1, "the retired record is skipped");
        let (replayed_key, replayed) = &loaded[0];
        assert_eq!(replayed_key.content_hash(), key.content_hash());
        assert_eq!(encode_value(replayed), encode_value(&value), "bit for bit");
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
            let mut file = Vec::new();
            file.extend_from_slice(&MAGIC);
            file.extend_from_slice(&VERSION.to_le_bytes());
            for record in &records {
                file.extend_from_slice(record);
            }
            let cut = if kind == 3 { at % (file.len() + 1) } else { file.len() };
            file.truncate(cut);
            let path = std::env::temp_dir().join(format!(
                "red_qaoa_persist_mutated_{}_{target}_{kind}_{at}_{bit}_{amount}.rqps",
                std::process::id()
            ));
            std::fs::write(&path, &file).unwrap();
            let opened = std::panic::catch_unwind(|| PersistentStore::open(&path));
            let _ = std::fs::remove_file(&path);
            let opened = opened.map_err(|_| "opening a mutated store panicked");
            let (_, loaded) = opened.unwrap().expect("opening a mutated store is Ok");

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
        assert!(!header_ok(b"NOPE\x02\x00\x00\x00"));
        assert!(!header_ok(b"RQPS\x01\x00\x00\x00"), "past version");
        assert!(!header_ok(b"RQPS\x03\x00\x00\x00"), "future version");
        assert!(header_ok(b"RQPS\x02\x00\x00\x00"));
    }

    #[test]
    fn a_version_1_store_is_rewritten_not_replayed() {
        // Version 1 stores hold reductions of the search before it annealed
        // its size floor first; replaying them would make a warm engine
        // disagree with a cold one.
        let (key, value) = sample();
        let mut file = b"RQPS\x01\x00\x00\x00".to_vec();
        file.extend_from_slice(&encode_record(&key, &value));
        let path =
            std::env::temp_dir().join(format!("red_qaoa_persist_v1_{}.rqps", std::process::id()));
        std::fs::write(&path, &file).unwrap();
        let opened = PersistentStore::open(&path).map(|(_, loaded)| loaded);
        let rewritten = std::fs::read(&path);
        let _ = std::fs::remove_file(&path);
        assert!(opened.unwrap().is_empty(), "no v1 record is replayed");
        assert_eq!(rewritten.unwrap(), b"RQPS\x02\x00\x00\x00");
    }
}
