//! Replication-bandwidth benchmark: the acceptance gate for the
//! read-replica sync protocol's steady state.
//!
//! Starts a real primary (`paris-server` catalog over TCP) with two
//! movies pairs, then drives a `paris-replica` sync engine against it
//! and asserts the transfer accounting:
//!
//!   1. the **first** sync downloads every pair (bytes transferred ==
//!      the catalog's total file size);
//!   2. **steady-state** polls of an unchanged catalog transfer **zero
//!      snapshot bytes and zero manifest bytes** (the conditional
//!      manifest poll is a `304`);
//!   3. after one pair changes, exactly that pair's bytes are
//!      re-transferred — unchanged pairs still cost nothing.
//!
//! Prints the per-phase accounting and fails (exit 1, via assert) if
//! any invariant is violated.

use std::time::Instant;

use paris_core::{AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig};
use paris_datagen::movies::{generate, MoviesConfig};
use paris_replica::SyncEngine;
use paris_server::{Server, ServerConfig};

fn movies_snapshot(scale: usize, seed: u64) -> AlignedPairSnapshot {
    let pair = generate(&MoviesConfig {
        num_movies: scale,
        seed,
        ..Default::default()
    });
    let owned = {
        let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
        OwnedAlignment::from_result(&result)
    };
    AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned)
}

fn file_size(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let root = std::env::temp_dir().join("paris_sync_bandwidth_bench");
    std::fs::remove_dir_all(&root).ok();
    let primary_dir = root.join("primary");
    let mirror_dir = root.join("mirror");
    std::fs::create_dir_all(&primary_dir).expect("create primary dir");

    println!("dataset: movies, scale {scale} (two pairs)");
    let a_path = primary_dir.join("movies-a.snap");
    let b_path = primary_dir.join("movies-b.snap");
    MappedPairSnapshot::save_v2(&movies_snapshot(scale, 42), &a_path).expect("save a");
    MappedPairSnapshot::save_v2(&movies_snapshot(scale, 43), &b_path).expect("save b");
    let catalog_bytes = file_size(&a_path) + file_size(&b_path);
    println!("catalog size: {catalog_bytes} bytes");

    let server = Server::bind_catalog(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        catalog_dir: Some(primary_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind primary");
    let handle = server.spawn().expect("spawn primary");
    let upstream = format!("http://{}", handle.addr());

    let mut engine = SyncEngine::new(&upstream, &mirror_dir).expect("sync engine");

    // Phase 1: cold mirror — everything transfers, exactly once.
    let t0 = Instant::now();
    let cold = engine.sync_once().expect("cold sync");
    println!(
        "cold sync:         {} pairs, {} snapshot bytes, {} manifest bytes, {:.3}s",
        cold.updated.len(),
        cold.snapshot_bytes,
        cold.manifest_bytes,
        t0.elapsed().as_secs_f64(),
    );
    assert_eq!(cold.updated.len(), 2, "both pairs must transfer: {cold:?}");
    assert!(cold.failed.is_empty(), "{cold:?}");
    assert_eq!(
        cold.snapshot_bytes, catalog_bytes,
        "cold transfer must move exactly the catalog's bytes"
    );

    // Phase 2: steady state — THE GATE. Unchanged pairs re-transfer
    // zero snapshot bytes, and the conditional manifest poll costs zero
    // body bytes too.
    for round in 1..=5 {
        let t = Instant::now();
        let poll = engine.sync_once().expect("steady-state sync");
        println!(
            "steady poll {round}:     {} unchanged, {} snapshot bytes, {} manifest bytes, {:.4}s",
            poll.unchanged,
            poll.snapshot_bytes,
            poll.manifest_bytes,
            t.elapsed().as_secs_f64(),
        );
        assert_eq!(poll.unchanged, 2, "{poll:?}");
        assert!(
            poll.updated.is_empty() && poll.failed.is_empty(),
            "{poll:?}"
        );
        assert_eq!(
            poll.snapshot_bytes, 0,
            "GATE: an unchanged pair must transfer 0 snapshot bytes"
        );
        assert_eq!(
            poll.manifest_bytes, 0,
            "GATE: an unchanged catalog must be a manifest-only 304 poll"
        );
    }

    // Phase 3: change one pair; only its bytes move.
    MappedPairSnapshot::save_v2(&movies_snapshot(scale, 44), &a_path).expect("update a");
    let updated_size = file_size(&a_path);
    let delta = engine.sync_once().expect("delta sync");
    println!(
        "after update:      {} updated, {} snapshot bytes (changed file: {updated_size})",
        delta.updated.len(),
        delta.snapshot_bytes,
    );
    assert_eq!(delta.updated, vec!["movies-a".to_owned()], "{delta:?}");
    assert_eq!(delta.unchanged, 1, "{delta:?}");
    assert_eq!(
        delta.snapshot_bytes, updated_size,
        "only the changed pair's bytes may move"
    );

    // And the mirror really is byte-identical to the primary.
    for name in ["movies-a.snap", "movies-b.snap"] {
        let primary = std::fs::read(primary_dir.join(name)).expect("read primary");
        let mirror = std::fs::read(mirror_dir.join(name)).expect("read mirror");
        assert_eq!(primary, mirror, "{name} must be byte-identical");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
    println!("PASS: unchanged pairs transfer 0 bytes; changed pairs transfer exactly their file");
}
