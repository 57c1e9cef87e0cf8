//! Exact allocation counts for two serving costs: opening an image maps
//! it (a decode would allocate the file again), and a warm request costs
//! a fixed number of allocation calls. Each bound is the value measured
//! before this test existed: an improvement passes, added work fails.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use paris_repro::datagen::{movies, MoviesConfig};
use paris_repro::paris::{
    AlignedPairSnapshot, Aligner, MappedPairSnapshot, OwnedAlignment, PairImage, ParisConfig,
};
use paris_repro::server::{Server, ServerConfig, DEFAULT_TRACE_BUFFER};

/// Bytes an open may allocate, whatever the file size: 8.4 KiB in 155
/// calls on the 1.6 MiB image below, with room for the three scoped
/// validation threads an open spawns on ≥ 4 cores.
const OPEN_BYTES: usize = 16 << 10;
/// Allocation calls per untraced request (the client makes none).
const UNTRACED_CALLS: usize = 50;
/// What span recording may add per request (3, plus the ring's growth).
const TRACING_CALLS: usize = 4;
/// Warm requests per measurement.
const MEASURED: usize = 400;

/// Allocation calls for [`MEASURED`] warm keep-alive `request`s; the
/// client reuses its buffers. The tail sampler is off: which request is
/// slowest, and so which spans it copies, is a matter of timing.
fn request_allocs(
    path: &Path,
    request: &[u8],
    trace_buffer: usize,
    runs: Option<PathBuf>,
) -> usize {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 1,
        trace_buffer,
        trace_pinned: 0,
        run_history: runs,
        ..ServerConfig::default()
    };
    let handle = Server::bind_image(PairImage::load(path).unwrap(), config)
        .unwrap()
        .spawn()
        .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::with_capacity(1 << 14, stream);
    let (mut line, mut body) = (String::with_capacity(256), Vec::with_capacity(1 << 14));
    let mut exchange = || {
        writer.write_all(request).unwrap();
        let mut content_length = 0;
        while {
            line.clear();
            reader.read_line(&mut line).unwrap();
            line != "\r\n"
        } {
            let (name, value) = line.split_once(':').unwrap_or_default();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
        body.resize(content_length, 0);
        reader.read_exact(&mut body).unwrap();
        assert!(body.starts_with(b"{\"data\":"), "{line}");
    };
    (0..50).for_each(|_| exchange());
    let ((), allocs) = common::count_allocs(|| (0..MEASURED).for_each(|_| exchange()));
    drop((reader, writer));
    handle.shutdown();
    allocs.calls
}

#[test]
fn serving_allocates_a_pinned_amount() {
    let _serial = common::serial();
    let pair = movies::generate(&MoviesConfig {
        num_movies: 800,
        ..MoviesConfig::default()
    });
    let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let iri = pair.kb1.iri(result.instance_pairs()[0].0).unwrap();
    let request = format!("GET /v1/pairs/default/sameas?iri={iri} HTTP/1.1\r\nHost: t\r\n\r\n");
    let owned = OwnedAlignment::from_result(&result);
    drop(result);
    let dir = std::env::temp_dir().join(format!("paris-alloc-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("movies.snap");
    MappedPairSnapshot::save_v2(&AlignedPairSnapshot::new(pair.kb1, pair.kb2, owned), &path)
        .unwrap();

    let (image, open) = common::count_allocs(|| PairImage::load(&path).unwrap());
    assert!(!cfg!(unix) || image.is_mapped(), "open must map the file");
    assert!(
        open.bytes <= OPEN_BYTES,
        "opening the image allocated {open:?} (bound {OPEN_BYTES} B)"
    );
    drop(image);

    let request = request.as_bytes();
    let untraced = request_allocs(&path, request, 0, None);
    let traced = request_allocs(&path, request, DEFAULT_TRACE_BUFFER, None);
    let runs = Some(dir.join("runs.jsonl"));
    let with_history = request_allocs(&path, request, DEFAULT_TRACE_BUFFER, runs);
    std::fs::remove_dir_all(&dir).ok();
    let per = |calls: usize| calls as f64 / MEASURED as f64;
    assert!(
        untraced <= UNTRACED_CALLS * MEASURED,
        "an untraced request costs {} allocation calls (bound {UNTRACED_CALLS})",
        per(untraced)
    );
    assert!(
        traced.saturating_sub(untraced) <= TRACING_CALLS * MEASURED,
        "tracing adds {} allocation calls per request (bound {TRACING_CALLS})",
        per(traced) - per(untraced)
    );
    assert_eq!(
        with_history, traced,
        "the run history is off the request path"
    );
}
