//! Snapshot round-tripping on real generated data: build → align →
//! snapshot → load must preserve statistics, alignments, and query
//! answers exactly; corrupt or truncated files must be rejected.

use paris_repro::datagen::{movies, persons, MoviesConfig, PersonsConfig};
use paris_repro::kb::snapshot::{SnapshotError, SnapshotKind};
use paris_repro::kb::snapshot_v2::save_kb_v2;
use paris_repro::kb::{Kb, KbStats, MappedKbSnapshot, SnapshotArena};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, ParisConfig,
};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("paris_it_{name}"))
}

fn load_kb(path: &std::path::Path) -> Result<Kb, SnapshotError> {
    MappedKbSnapshot::open(path).map(|snap| snap.kb().to_kb())
}

#[test]
fn kb_snapshot_preserves_stats_and_queries() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 60,
        ..Default::default()
    });
    let path = temp_path("kb_roundtrip.snap");
    save_kb_v2(&pair.kb1, &path).unwrap();
    let loaded = load_kb(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(KbStats::of(&loaded), KbStats::of(&pair.kb1));

    // Every entity answers the same lookups.
    for e in pair.kb1.entities() {
        assert_eq!(loaded.kind(e), pair.kb1.kind(e));
        assert_eq!(loaded.term(e), pair.kb1.term(e));
        assert_eq!(loaded.facts(e), pair.kb1.facts(e));
        assert_eq!(loaded.types_of(e), pair.kb1.types_of(e));
    }
    for r in pair.kb1.directed_relations() {
        assert_eq!(loaded.functionality(r), pair.kb1.functionality(r));
        assert_eq!(loaded.num_pairs(r), pair.kb1.num_pairs(r));
    }
    for &c in pair.kb1.classes() {
        assert_eq!(loaded.members(c), pair.kb1.members(c));
        assert_eq!(loaded.superclasses(c), pair.kb1.superclasses(c));
    }
}

#[test]
fn aligned_pair_snapshot_preserves_alignment_and_answers() {
    let pair = movies::generate(&MoviesConfig {
        num_movies: 120,
        ..Default::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();

    let expected_pairs = result.instance_pairs();
    let expected_rel_12 = result.relation_alignments_1to2(0.3);
    let expected_rel_21 = result.relation_alignments_2to1(0.3);
    let expected_sameas = result.sameas_triples(0.4);
    let sample_iris: Vec<String> = expected_pairs
        .iter()
        .take(20)
        .filter_map(|&(x, _, _)| pair.kb1.iri(x).map(|i| i.as_str().to_owned()))
        .collect();
    let expected_answers: Vec<_> = sample_iris
        .iter()
        .map(|iri| result.instance_alignment_by_iri(iri))
        .collect();

    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    let snap = AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned);
    let path = temp_path("pair_roundtrip.snap");
    MappedPairSnapshot::save_v2(&snap, &path).unwrap();
    let loaded = MappedPairSnapshot::open(&path).unwrap().hydrate();
    std::fs::remove_file(&path).ok();

    // Stats of both KBs survive.
    assert_eq!(KbStats::of(&loaded.kb1), KbStats::of(&snap.kb1));
    assert_eq!(KbStats::of(&loaded.kb2), KbStats::of(&snap.kb2));

    // The alignment is bit-identical.
    assert_eq!(loaded.alignment.instance_pairs(&loaded.kb1), expected_pairs);
    assert_eq!(
        loaded
            .alignment
            .relation_alignments_1to2(&loaded.kb1, &loaded.kb2, 0.3),
        expected_rel_12
    );
    assert_eq!(
        loaded.alignment.num_instance_pairs(),
        snap.alignment.num_instance_pairs()
    );
    let rel_21_loaded: Vec<_> = loaded.alignment.subrelations.alignments_2to1().collect();
    let rel_21_orig: Vec<_> = snap.alignment.subrelations.alignments_2to1().collect();
    assert_eq!(rel_21_loaded, rel_21_orig);
    assert!(rel_21_orig.iter().filter(|&&(_, _, p)| p >= 0.3).count() == expected_rel_21.len());

    // Query answers are identical, one by one.
    for (iri, expected) in sample_iris.iter().zip(&expected_answers) {
        assert_eq!(
            loaded
                .alignment
                .instance_alignment_by_iri(&loaded.kb1, &loaded.kb2, iri)
                .as_ref(),
            expected.as_ref(),
            "{iri}"
        );
    }

    // The owl:sameAs rendering (what the CLI emits) also matches.
    let loaded_sameas: Vec<_> = loaded
        .alignment
        .instance_pairs(&loaded.kb1)
        .into_iter()
        .filter(|&(_, _, p)| p >= 0.4)
        .filter_map(|(x, x2, _)| Some((loaded.kb1.iri(x)?.clone(), loaded.kb2.iri(x2)?.clone())))
        .collect();
    let expected_sameas: Vec<_> = expected_sameas
        .into_iter()
        .map(|t| {
            let obj = t.object.as_iri().expect("sameAs object is an IRI").clone();
            (t.subject, obj)
        })
        .collect();
    assert_eq!(loaded_sameas, expected_sameas);
}

#[test]
fn corrupt_and_truncated_snapshots_are_rejected() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 20,
        ..Default::default()
    });
    let path = temp_path("corruption.snap");
    save_kb_v2(&pair.kb1, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Corrupt header: bad magic.
    let mut bad = pristine.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(load_kb(&path), Err(SnapshotError::BadMagic)));

    // Unsupported version.
    let mut bad = pristine.clone();
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        load_kb(&path),
        Err(SnapshotError::UnsupportedVersion(7))
    ));

    // Flipped section byte: checksum failure.
    let mut bad = pristine.clone();
    let mid = pristine.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        load_kb(&path),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Truncation at several points must never panic, always error.
    for frac in [0.1, 0.5, 0.99] {
        let cut = (pristine.len() as f64 * frac) as usize;
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(load_kb(&path).is_err(), "truncated at {cut} bytes");
    }

    // And the pristine file still loads (sanity check on the fixture).
    std::fs::write(&path, &pristine).unwrap();
    assert!(load_kb(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn kind_confusion_is_rejected() {
    let pair = persons::generate(&PersonsConfig {
        num_persons: 10,
        ..Default::default()
    });
    let kb_path = temp_path("kind_kb.snap");
    save_kb_v2(&pair.kb1, &kb_path).unwrap();

    // A single-KB snapshot is not an aligned pair…
    assert!(MappedPairSnapshot::open(&kb_path).is_err());

    // …and an aligned pair is not a single KB.
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    let pair_path = temp_path("kind_pair.snap");
    MappedPairSnapshot::save_v2(
        &AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned),
        &pair_path,
    )
    .unwrap();
    assert!(load_kb(&pair_path).is_err());

    // The arena exposes the kind for dispatchers.
    assert_eq!(
        SnapshotArena::open(&kb_path).unwrap().kind(),
        SnapshotKind::Kb
    );
    assert_eq!(
        SnapshotArena::open(&pair_path).unwrap().kind(),
        SnapshotKind::AlignedPair
    );
    std::fs::remove_file(&kb_path).ok();
    std::fs::remove_file(&pair_path).ok();
}

/// Property test: flipping a *random* byte anywhere in a snapshot image
/// must make the open fail cleanly with a checksum/structure error.
/// Never a panic, never a silently wrong image. Every byte is covered by
/// either a validated header field or a section checksum, so there is no
/// flippable byte that legitimately opens.
#[test]
fn random_byte_flips_fail_cleanly() {
    use rand::{RngExt, SeedableRng};

    let pair = movies::generate(&MoviesConfig {
        num_movies: 40,
        ..Default::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    let snap = AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned);

    let image = MappedPairSnapshot::encode(&snap);
    assert!(
        MappedPairSnapshot::from_bytes(image.clone()).is_ok(),
        "pristine image opens"
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC7_10F1);
    for trial in 0..256 {
        let offset = rng.random_range(0..image.len());
        let bit = 1u8 << rng.random_range(0..8u32);
        let mut corrupted = image.clone();
        corrupted[offset] ^= bit;
        let err = MappedPairSnapshot::from_bytes(corrupted)
            .err()
            .unwrap_or_else(|| {
                panic!("trial {trial}: flip of bit {bit:#x} at byte {offset} opened silently")
            });
        // The error renders (no panic) and is one of the clean kinds.
        assert!(!err.to_string().is_empty());
    }

    // Random truncations fail cleanly too.
    for _ in 0..64 {
        let cut = rng.random_range(0..image.len());
        assert!(
            MappedPairSnapshot::from_bytes(image[..cut].to_vec()).is_err(),
            "cut {cut}"
        );
    }
}
