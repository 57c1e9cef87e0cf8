//! Snapshot-load benchmark: the acceptance check for the serving
//! subsystem's startup path.
//!
//! Measures, on a generated `movies` pair:
//!   1. the *cold* path a batch run pays every time — parse both
//!      N-Triples files and run the full alignment;
//!   2. the *snapshot* path `paris serve` pays once at startup — open
//!      the aligned-pair snapshot in place.
//!
//! Prints the speedup and fails (exit 1) if the snapshot load is not at
//! least 10× faster than re-parsing + re-aligning.

use std::time::{Duration, Instant};

use paris_bench::timing::fmt_duration;
use paris_core::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, PairImage, ParisConfig,
};
use paris_datagen::movies::{generate, MoviesConfig};
use paris_kb::{export, kb_from_file};

fn min_time(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("at least one run")
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(MoviesConfig::default().num_movies);
    let dir = std::env::temp_dir().join("paris_snapshot_bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let left_nt = dir.join("left.nt");
    let right_nt = dir.join("right.nt");
    let snap_path = dir.join("pair.snap");

    println!("dataset: movies, scale {scale}");
    let pair = generate(&MoviesConfig {
        num_movies: scale,
        ..Default::default()
    });
    std::fs::write(&left_nt, export::to_ntriples(&pair.kb1)).expect("write left.nt");
    std::fs::write(&right_nt, export::to_ntriples(&pair.kb2)).expect("write right.nt");

    // Cold path: parse + align, as `paris align` does on every run.
    let cold = min_time(3, || {
        let kb1 = kb_from_file("left", &left_nt).expect("parse left");
        let kb2 = kb_from_file("right", &right_nt).expect("parse right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        std::hint::black_box(result.instance_pairs().len());
    });
    println!("parse + align (min of 3):      {}", fmt_duration(cold));

    // Produce the snapshot once (not timed against the cold path).
    {
        let kb1 = kb_from_file("left", &left_nt).expect("parse left");
        let kb2 = kb_from_file("right", &right_nt).expect("parse right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        let owned = OwnedAlignment::from_result(&result);
        drop(result);
        MappedPairSnapshot::save_v2(&AlignedPairSnapshot::new(kb1, kb2, owned), &snap_path)
            .expect("write snapshot");
    }
    let bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
    println!("snapshot size:                 {bytes} bytes");

    // Snapshot path: what `paris serve` pays at startup. Loads are a few
    // milliseconds, so scheduler noise dominates a small sample — take
    // the min over more runs than the (much longer) cold path.
    let load = min_time(10, || {
        let image = PairImage::load(&snap_path).expect("load snapshot");
        std::hint::black_box(image.num_instance_pairs());
    });
    println!("snapshot load (min of 10):     {}", fmt_duration(load));

    let speedup = cold.as_secs_f64() / load.as_secs_f64();
    println!("speedup:                       {speedup:.1}×");

    std::fs::remove_dir_all(&dir).ok();
    if speedup < 10.0 {
        eprintln!("FAIL: snapshot load must be ≥ 10× faster than parse + align");
        std::process::exit(1);
    }
    println!("PASS: ≥ 10× faster than re-parsing + re-aligning");
}
