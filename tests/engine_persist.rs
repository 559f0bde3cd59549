//! Integration tests for the engine's file-backed persistent reduction
//! store (`EngineBuilder::persist_path`): round-trips across engine
//! instances must be bitwise-identical and counted as cache hits, and a
//! corrupted store file must degrade to recomputation, never to a failure.

use graphlib::generators::connected_gnp;
use mathkit::rng::seeded;
use red_qaoa::engine::{Engine, Job, ReduceJob};
use std::fs;
use std::path::PathBuf;

/// A fresh path under the cargo-managed tmpdir (wiped between test runs,
/// unique per test name so tests can run concurrently).
fn store_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(format!("{name}.rqps"));
    let _ = fs::remove_file(&path);
    path
}

fn test_graph(seed: u64) -> graphlib::Graph {
    connected_gnp(12, 0.4, &mut seeded(seed)).unwrap()
}

#[test]
fn reductions_round_trip_through_the_store_bitwise_and_count_as_hits() {
    let path = store_path("round_trip");
    let graphs: Vec<_> = (0..3).map(test_graph).collect();

    // First engine: cold — every reduction is a miss, written through.
    let writer = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    let mut cold = Vec::new();
    for graph in &graphs {
        let out = writer
            .run(&Job::Reduce(ReduceJob::new(graph.clone())), 1)
            .unwrap();
        cold.push(out.as_reduced().unwrap().clone());
    }
    assert_eq!(writer.cache_stats().misses, 3);
    drop(writer);

    // Second engine, same path: the store warms the cache at build time, so
    // every request is a hit and the results are bitwise-identical.
    let reader = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    let stats = reader.cache_stats();
    assert_eq!(stats.entries, 3, "store warmed the cache");
    assert_eq!((stats.store_replayed, stats.store_skipped), (3, 0));
    for (graph, expected) in graphs.iter().zip(&cold) {
        let out = reader
            .run(&Job::Reduce(ReduceJob::new(graph.clone())), 99)
            .unwrap();
        assert_eq!(out.as_reduced().unwrap(), expected, "bitwise round-trip");
    }
    let stats = reader.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 0), "all served from disk");
}

#[test]
fn a_corrupt_store_file_is_skipped_not_fatal() {
    let path = store_path("corrupt");
    let graph = test_graph(7);

    let writer = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    let expected = writer
        .run(&Job::Reduce(ReduceJob::new(graph.clone())), 1)
        .unwrap();
    drop(writer);

    // Flip bytes in the middle of the record payload.
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    bytes[mid + 1] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();

    // The engine must still build, drop the bad record, and recompute the
    // bitwise-identical reduction (content-derived substream).
    let reader = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    let stats = reader.cache_stats();
    assert_eq!(stats.entries, 0, "bad record dropped");
    assert_eq!(
        (stats.store_replayed, stats.store_skipped),
        (0, 1),
        "and counted"
    );
    let out = reader.run(&Job::Reduce(ReduceJob::new(graph)), 1).unwrap();
    assert_eq!(out, expected, "recomputed bitwise-identically");
    assert_eq!(reader.cache_stats().misses, 1);
}

#[test]
fn engines_sharing_a_store_keep_each_others_records() {
    // Two engines open one path before either writes, as a co-located
    // worker fleet does, and each computes a different reduction. Both
    // records must survive the other's append.
    let path = store_path("shared");
    let graphs = [
        connected_gnp(30, 0.3, &mut seeded(1)).unwrap(),
        test_graph(2),
    ];
    let engines: Vec<Engine> = (0..2)
        .map(|_| {
            Engine::builder()
                .threads(1)
                .persist_path(&path)
                .build()
                .unwrap()
        })
        .collect();
    let computed: Vec<_> = engines
        .iter()
        .zip(&graphs)
        .map(|(engine, graph)| {
            engine
                .run(&Job::Reduce(ReduceJob::new(graph.clone())), 1)
                .unwrap()
        })
        .collect();
    drop(engines);

    let reader = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    let stats = reader.cache_stats();
    assert_eq!((stats.store_replayed, stats.store_skipped), (2, 0));
    assert_eq!(stats.entries, 2, "both records replayed");
    for (graph, expected) in graphs.iter().zip(&computed) {
        let out = reader
            .run(&Job::Reduce(ReduceJob::new(graph.clone())), 2)
            .unwrap();
        assert_eq!(&out, expected);
    }
    assert_eq!(reader.cache_stats().hits, 2);
}

#[test]
fn garbage_and_truncated_store_files_are_recovered() {
    // Total garbage: reinitialized, engine builds and works.
    let path = store_path("garbage");
    fs::write(&path, b"this is not a store file at all").unwrap();
    let engine = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    assert_eq!(engine.cache_stats().entries, 0);
    engine
        .run(&Job::Reduce(ReduceJob::new(test_graph(3))), 1)
        .unwrap();
    drop(engine);

    // Torn tail (crash mid-append): the whole record survives, the tail is
    // healed, and appends keep working afterwards.
    let mut bytes = fs::read(&path).unwrap();
    let whole = bytes.len();
    bytes.extend_from_slice(&bytes.clone()[..10]);
    fs::write(&path, &bytes).unwrap();
    let engine = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    assert_eq!(engine.cache_stats().entries, 1, "whole record kept");
    engine
        .run(&Job::Reduce(ReduceJob::new(test_graph(4))), 1)
        .unwrap();
    drop(engine);
    assert!(fs::read(&path).unwrap().len() > whole, "append after heal");

    // And the healed file loads both records.
    let engine = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    assert_eq!(engine.cache_stats().entries, 2);
}

#[test]
fn an_unopenable_persist_path_names_the_field() {
    let missing_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("no_such_dir")
        .join("store.rqps");
    let err = Engine::builder()
        .persist_path(&missing_dir)
        .build()
        .unwrap_err();
    assert_eq!(err.field(), Some("persist_path"));
}

#[test]
fn persistence_and_capacity_zero_still_write_through() {
    // With the in-memory cache disabled the store still records misses, so
    // a later engine WITH a cache starts warm.
    let path = store_path("cap_zero");
    let graph = test_graph(5);
    let writer = Engine::builder()
        .threads(1)
        .cache_capacity(0)
        .persist_path(&path)
        .build()
        .unwrap();
    let expected = writer
        .run(&Job::Reduce(ReduceJob::new(graph.clone())), 1)
        .unwrap();
    drop(writer);

    let reader = Engine::builder()
        .threads(1)
        .persist_path(&path)
        .build()
        .unwrap();
    assert_eq!(reader.cache_stats().entries, 1);
    let out = reader.run(&Job::Reduce(ReduceJob::new(graph)), 2).unwrap();
    assert_eq!(out, expected);
    assert_eq!(reader.cache_stats().hits, 1);
}
