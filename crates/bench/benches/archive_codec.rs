//! Archive codec microbenchmarks: what every `.gar` save and load pays.
//!
//! - `store_to_bytes` / `store_from_bytes`: a whole store encoded to and
//!   decoded from the v3 binary format, frames and checksums included,
//!   on two stores: `matrix_giraph_hash-ec`, the committed 2-job matrix
//!   fixture (572 KB), and `fig5`, the Giraph and PowerGraph dg1000
//!   archives that `fig5 --archive-out` writes;
//! - `crc32c`: the frame checksum over 1 MiB; MB/s = 1.048576 / median
//!   in ms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use granula::experiment::{dg1000, Platform};
use granula_archive::{crc32c, store_from_bytes, store_to_bytes, ArchiveStore};

fn matrix_store() -> ArchiveStore {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/matrix/matrix_giraph_hash-ec.gar"
    );
    ArchiveStore::load(path).expect("committed fixture loads")
}

fn fig5_store() -> ArchiveStore {
    let mut store = ArchiveStore::new();
    for platform in [Platform::Giraph, Platform::PowerGraph] {
        store
            .add(dg1000(platform).report.archive)
            .expect("distinct job ids");
    }
    store
}

fn archive_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("archive_codec");
    group.sample_size(15);
    for (label, store) in [
        ("matrix_giraph_hash-ec", matrix_store()),
        ("fig5", fig5_store()),
    ] {
        let bytes = store_to_bytes(&store);
        println!("{label}: {} jobs, {} bytes", store.len(), bytes.len());
        group.bench_with_input(BenchmarkId::new("store_to_bytes", label), &store, |b, s| {
            b.iter(|| store_to_bytes(s))
        });
        group.bench_with_input(
            BenchmarkId::new("store_from_bytes", label),
            &bytes,
            |b, bytes| b.iter(|| store_from_bytes(bytes).expect("valid store")),
        );
    }
    let data: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    group.bench_with_input(BenchmarkId::new("crc32c", "1MiB"), &data, |b, d| {
        b.iter(|| crc32c(d))
    });
    group.finish();
}

criterion_group!(benches, archive_codec);
criterion_main!(benches);
