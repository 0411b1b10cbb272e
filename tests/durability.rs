//! Property tests of the durability subsystem end to end: a durable
//! [`Runtime`] must recover **bit-identically** from snapshot + WAL
//! replay for both task families, tolerate a torn log tail by truncating
//! to an acknowledged prefix, refuse sealed-segment corruption and spec
//! mismatches loudly, and the paged item store must stay in lockstep
//! with the in-RAM reference while keeping residency under its budget.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hdc::serve::Radians;
use hdc::{
    Basis, BinaryHypervector, DurabilityConfig, Enc, HdcError, ItemStore, Model, PagedStore,
    Pipeline, ResidentStore, Runtime, RuntimeConfig,
};
use hdc_store::{crc32, WalRecord, SEGMENT_MAGIC};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fresh scratch directory per case; proptest cases within one test run
/// sequentially but the test binary runs tests in parallel threads.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "hdc-durability-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn classify(seed: u64) -> Model<Radians> {
    Pipeline::builder(128)
        .seed(seed)
        .classes(3)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .unwrap()
}

fn regress(seed: u64) -> Model<Radians> {
    Pipeline::builder(128)
        .seed(seed)
        .regression(0.0, 24.0, 24)
        .basis(Basis::Circular { m: 24, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .unwrap()
}

fn durable(dir: &Path, segment_bytes: u64, snapshot_every: u64) -> RuntimeConfig {
    RuntimeConfig {
        durability: Some(DurabilityConfig {
            segment_bytes,
            snapshot_every,
            ..DurabilityConfig::new(dir)
        }),
        ..RuntimeConfig::default()
    }
}

/// A deterministic labelled stream: hours on the daily circle.
fn stream(seed: u64, n: usize) -> Vec<(Radians, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let hour = rng.random_range(0.0..24.0);
            (
                Radians::periodic(hour, 24.0),
                rng.random_range(0usize..3),
                hour,
            )
        })
        .collect()
}

fn probes() -> Vec<Radians> {
    (0..48)
        .map(|i| Radians::periodic(f64::from(i) / 2.0, 24.0))
        .collect()
}

/// The file name of the log segment whose first record is `first_seq`.
fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// A version-2 segment with plain record payloads (header codec byte 0),
/// as builds before the adaptive-only writer logged them.
fn raw_segment(first_seq: u64, spec_digest: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&2u16.to_be_bytes());
    bytes.extend_from_slice(&first_seq.to_be_bytes());
    bytes.extend_from_slice(&spec_digest.to_be_bytes());
    bytes.push(0);
    for record in records {
        let payload = record.encode().unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_be_bytes());
        bytes.extend_from_slice(&payload);
    }
    bytes
}

/// The log segments under `dir`, oldest first (hex names sort by seq).
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("wal-") && name.ends_with(".log"))
        })
        .collect();
    found.sort();
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Classification crash-recovery: a second life recovers every
    /// acknowledged fit and answers bit-identically to a reference model
    /// fed the same stream — with and without background snapshots in
    /// the mix.
    #[test]
    fn classification_recovery_is_bit_identical(
        seed in 0u64..1_000,
        n in 1usize..40,
        snap in 0u64..2,
    ) {
        let dir = scratch_dir("cls");
        let snapshot_every = snap * 5;
        let observations = stream(seed, n);

        let runtime = Runtime::spawn(classify(seed), durable(&dir, 1 << 22, snapshot_every)).unwrap();
        let handle = runtime.handle();
        for (hour, label, _) in &observations {
            handle.fit(hour, *label).unwrap();
        }
        runtime.shutdown();

        let runtime = Runtime::spawn(classify(seed), durable(&dir, 1 << 22, snapshot_every)).unwrap();
        let handle = runtime.handle();
        let recovered: Vec<usize> = probes()
            .iter()
            .map(|hour| handle.predict("k", hour).unwrap().label)
            .collect();
        let (_, learner) = runtime.shutdown();
        prop_assert_eq!(learner.observed(), n, "every acked fit must replay");

        let mut reference = classify(seed);
        for (hour, label, _) in &observations {
            reference.fit(hour, *label).unwrap();
        }
        let expected: Vec<usize> = probes().iter().map(|hour| reference.predict(hour)).collect();
        prop_assert_eq!(recovered, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The regression twin of the property above: recovered value
    /// predictions are bit-exact `f64`s, not merely close.
    #[test]
    fn regression_recovery_is_bit_identical(
        seed in 0u64..1_000,
        n in 1usize..40,
        snap in 0u64..2,
    ) {
        let dir = scratch_dir("reg");
        let snapshot_every = snap * 5;
        let observations = stream(seed, n);

        let runtime = Runtime::spawn(regress(seed), durable(&dir, 1 << 22, snapshot_every)).unwrap();
        let handle = runtime.handle();
        for (hour, _, value) in &observations {
            handle.fit_value(hour, *value).unwrap();
        }
        runtime.shutdown();

        let runtime = Runtime::spawn(regress(seed), durable(&dir, 1 << 22, snapshot_every)).unwrap();
        let handle = runtime.handle();
        let recovered: Vec<f64> = probes()
            .iter()
            .map(|hour| handle.predict_value("k", hour).unwrap().value)
            .collect();
        let (_, learner) = runtime.shutdown();
        prop_assert_eq!(learner.observed(), n, "every acked fit must replay");

        let mut reference = regress(seed);
        for (hour, _, value) in &observations {
            reference.fit_value(hour, *value).unwrap();
        }
        let expected: Vec<f64> = probes().iter().map(|hour| reference.predict_value(hour)).collect();
        // Bit-exact equality, deliberately not an epsilon comparison.
        prop_assert_eq!(recovered, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn tail — the crash landed mid-write — silently truncates the
    /// *last* segment to its longest valid prefix; recovery then equals a
    /// reference model fed exactly that prefix of the stream.
    #[test]
    fn torn_tail_recovers_an_exact_prefix(
        seed in 0u64..1_000,
        n in 8usize..32,
        cut in 1u64..200,
    ) {
        let dir = scratch_dir("torn");
        let observations = stream(seed, n);

        let runtime = Runtime::spawn(classify(seed), durable(&dir, 512, 0)).unwrap();
        let handle = runtime.handle();
        for (hour, label, _) in &observations {
            handle.fit(hour, *label).unwrap();
        }
        runtime.shutdown();

        // Tear the tail: chop `cut` bytes off the newest segment (maybe
        // the whole file, maybe into its header — all must be tolerated).
        let last = segments(&dir).pop().unwrap();
        let len = std::fs::metadata(&last).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
        file.set_len(len.saturating_sub(cut)).unwrap();
        drop(file);

        let runtime = Runtime::spawn(classify(seed), durable(&dir, 512, 0)).unwrap();
        let handle = runtime.handle();
        let recovered: Vec<usize> = probes()
            .iter()
            .map(|hour| handle.predict("k", hour).unwrap().label)
            .collect();
        let (_, learner) = runtime.shutdown();
        let retained = learner.observed();
        prop_assert!(retained <= n);

        let mut reference = classify(seed);
        for (hour, label, _) in &observations[..retained] {
            reference.fit(hour, *label).unwrap();
        }
        let expected: Vec<usize> = probes().iter().map(|hour| reference.predict(hour)).collect();
        prop_assert_eq!(recovered, expected, "recovery must equal the retained prefix");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Damage anywhere in a *sealed* segment — a flipped byte in a frame
    /// header, CRC or payload — must refuse recovery loudly instead of
    /// serving a silently wrong model.
    #[test]
    fn sealed_segment_corruption_is_loud(
        seed in 0u64..1_000,
        offset in 0usize..10_000,
    ) {
        let dir = scratch_dir("seal");
        let observations = stream(seed, 24);

        let runtime = Runtime::spawn(classify(seed), durable(&dir, 128, 0)).unwrap();
        let handle = runtime.handle();
        for (hour, label, _) in &observations {
            handle.fit(hour, *label).unwrap();
        }
        runtime.shutdown();

        let sealed = segments(&dir);
        prop_assert!(sealed.len() >= 2, "need at least one sealed segment");
        let target = &sealed[0];
        let mut bytes = std::fs::read(target).unwrap();
        // Flip one byte past the 23-byte segment header, inside the frames.
        let header = 23;
        prop_assert!(bytes.len() > header);
        let index = header + offset % (bytes.len() - header);
        bytes[index] ^= 0xff;
        std::fs::write(target, &bytes).unwrap();

        prop_assert!(matches!(
            Runtime::spawn(classify(seed), durable(&dir, 128, 0)),
            Err(HdcError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Raw segments from older builds — one sealed, one active — replay
    /// next to the adaptive segments this build writes, bit-identically
    /// to a reference fed the whole stream. No append lands in a raw
    /// segment: the first one starts a fresh adaptive segment, and an
    /// active raw segment holding only a header is replaced under its own
    /// name rather than sealed.
    #[test]
    fn mixed_codec_segments_replay_bit_identically(
        seed in 0u64..1_000,
        n1 in 4usize..20,
        n2 in 4usize..20,
    ) {
        let observations = stream(seed, n1 + n2);
        let model = classify(seed);
        let digest = model.spec().hash64();
        let records: Vec<WalRecord> = observations[..n1]
            .iter()
            .map(|(hour, label, _)| WalRecord::Fit { hv: model.encode(hour), label: *label as u64 })
            .collect();
        // The active raw segment holds records, then only a header.
        for split in [n1 / 2, n1] {
            let dir = scratch_dir("mixed");
            std::fs::create_dir_all(&dir).unwrap();
            let sealed = raw_segment(0, digest, &records[..split]);
            let active = raw_segment(split as u64, digest, &records[split..]);
            std::fs::write(dir.join(segment_name(0)), &sealed).unwrap();
            std::fs::write(dir.join(segment_name(split as u64)), &active).unwrap();

            // Small segments force the appends to rotate.
            let runtime = Runtime::spawn(classify(seed), durable(&dir, 600, 0)).unwrap();
            let handle = runtime.handle();
            for (hour, label, _) in &observations[n1..] {
                handle.fit(hour, *label).unwrap();
            }
            runtime.shutdown();

            let files = segments(&dir);
            prop_assert_eq!(std::fs::read(&files[0]).unwrap(), sealed);
            let appended = if split < n1 {
                prop_assert_eq!(std::fs::read(&files[1]).unwrap(), active);
                &files[2..]
            } else {
                &files[1..]
            };
            prop_assert_eq!(
                appended[0].file_name().and_then(|name| name.to_str()),
                Some(&*segment_name(n1 as u64)),
                "the first append starts a fresh segment"
            );
            for path in appended {
                prop_assert_eq!(std::fs::read(path).unwrap()[22], 1, "adaptive header codec");
            }

            let runtime = Runtime::spawn(classify(seed), durable(&dir, 600, 0)).unwrap();
            let handle = runtime.handle();
            let recovered: Vec<usize> = probes()
                .iter()
                .map(|hour| handle.predict("k", hour).unwrap().label)
                .collect();
            let (_, learner) = runtime.shutdown();
            prop_assert_eq!(learner.observed(), n1 + n2, "every acked fit must replay");

            let mut reference = classify(seed);
            for (hour, label, _) in &observations {
                reference.fit(hour, *label).unwrap();
            }
            let expected: Vec<usize> = probes().iter().map(|hour| reference.predict(hour)).collect();
            prop_assert_eq!(recovered, expected);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// N concurrent durable writers under the group-commit scheduler:
    /// every acknowledged fit is recovered, and the recovered model
    /// answers bit-identically to a reference fed each writer's stream
    /// (the centroid fold is integer-commutative, so writer interleaving
    /// cannot matter).
    #[test]
    fn concurrent_writers_recover_every_acked_fit(
        seed in 0u64..1_000,
        writers in 2usize..5,
        per_writer in 1usize..16,
    ) {
        let dir = scratch_dir("writers");
        let config = || RuntimeConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..RuntimeConfig::default()
        };
        let streams: Vec<Vec<(Radians, usize, f64)>> = (0..writers)
            .map(|w| stream(seed.wrapping_add(w as u64), per_writer))
            .collect();

        let runtime = Runtime::spawn(classify(seed), config()).unwrap();
        let handle = runtime.handle();
        std::thread::scope(|scope| {
            for observations in &streams {
                let handle = handle.clone();
                scope.spawn(move || {
                    for (hour, label, _) in observations {
                        handle.fit(hour, *label).unwrap();
                    }
                });
            }
        });
        runtime.shutdown();

        let runtime = Runtime::spawn(classify(seed), config()).unwrap();
        let handle = runtime.handle();
        let recovered: Vec<usize> = probes()
            .iter()
            .map(|hour| handle.predict("k", hour).unwrap().label)
            .collect();
        let (_, learner) = runtime.shutdown();
        prop_assert_eq!(
            learner.observed(),
            writers * per_writer,
            "every acked fit from every writer must replay"
        );

        let mut reference = classify(seed);
        for observations in &streams {
            for (hour, label, _) in observations {
                reference.fit(hour, *label).unwrap();
            }
        }
        let expected: Vec<usize> = probes().iter().map(|hour| reference.predict(hour)).collect();
        prop_assert_eq!(recovered, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn write to the paged item plane — the crash chopped the tail
    /// of `pages.dat` — is healed by WAL replay: every acknowledged
    /// insert reads back bit-identically after recovery, because under the
    /// default policy the paged files share the WAL's commit boundary and
    /// the log re-applies inserts idempotently.
    #[test]
    fn paged_torn_write_is_healed_by_replay(
        seed in 0u64..1_000,
        keys in 4usize..16,
        cut in 1u64..300,
    ) {
        let dir = scratch_dir("paged-torn");
        let config = || RuntimeConfig {
            durability: Some(DurabilityConfig {
                page_cache: Some(2),
                ..DurabilityConfig::new(&dir)
            }),
            ..RuntimeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let expected: Vec<(String, BinaryHypervector)> = (0..keys)
            .map(|i| (format!("k{i:03}"), BinaryHypervector::random(128, &mut rng)))
            .collect();

        let runtime = Runtime::spawn(classify(seed), config()).unwrap();
        let handle = runtime.handle();
        for (key, hv) in &expected {
            handle.insert(key.clone(), hv.clone()).unwrap();
        }
        runtime.shutdown();

        // Tear the page file's tail — a slot write the crash interrupted.
        // A torn slot can lose any suffix of the slot region but never
        // the 32-byte header, which was written (and synced) at creation.
        let pages = dir.join("items").join("pages.dat");
        let len = std::fs::metadata(&pages).unwrap().len();
        let cut = cut.min(len - 32);
        let file = std::fs::OpenOptions::new().write(true).open(&pages).unwrap();
        file.set_len(len - cut).unwrap();
        drop(file);

        // Recovery replays the log over the torn plane, then flushes it
        // on graceful shutdown.
        let runtime = Runtime::spawn(classify(seed), config()).unwrap();
        runtime.shutdown();

        let mut reopened = PagedStore::open(dir.join("items"), 128, 2).unwrap();
        prop_assert_eq!(reopened.entries().unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The paged item store is observationally identical to the in-RAM
    /// reference under arbitrary insert/remove/get interleavings, across
    /// a reopen, and never holds more than `budget` entries resident.
    #[test]
    fn paged_store_matches_resident_store(
        seed in 0u64..10_000,
        ops in 1usize..120,
        budget in 1usize..6,
    ) {
        let dir = scratch_dir("paged");
        let mut paged = PagedStore::open(dir.join("items"), 64, budget).unwrap();
        let mut resident = ResidentStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ops {
            let key = format!("k{}", rng.random_range(0u32..20));
            match rng.random_range(0u8..4) {
                0 | 1 => {
                    let hv = BinaryHypervector::random(64, &mut rng);
                    prop_assert_eq!(
                        paged.insert(&key, &hv).unwrap(),
                        resident.insert(&key, &hv).unwrap()
                    );
                }
                2 => {
                    prop_assert_eq!(
                        paged.remove(&key).unwrap(),
                        resident.remove(&key).unwrap()
                    );
                }
                _ => {
                    prop_assert_eq!(
                        paged.get(&key).unwrap(),
                        resident.get(&key).unwrap()
                    );
                }
            }
            prop_assert!(paged.resident() <= budget, "cache budget violated");
            prop_assert_eq!(paged.len(), resident.len());
            prop_assert_eq!(paged.contains(&key), resident.contains(&key));
        }
        prop_assert_eq!(paged.entries().unwrap(), resident.entries().unwrap());

        // Reopen from disk: the bind log + pages must reproduce the map.
        paged.flush().unwrap();
        drop(paged);
        let mut reopened = PagedStore::open(dir.join("items"), 64, budget).unwrap();
        prop_assert_eq!(reopened.entries().unwrap(), resident.entries().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A segment header announcing a codec this build does not know must
/// refuse recovery loudly — from a newer build or plain corruption, the
/// records cannot be trusted, so they must never be silently skipped.
#[test]
fn unknown_wal_codec_is_loud_end_to_end() {
    let dir = scratch_dir("codec");
    let runtime = Runtime::spawn(classify(7), durable(&dir, 1 << 22, 0)).unwrap();
    runtime
        .handle()
        .fit(&Radians::periodic(4.0, 24.0), 1)
        .unwrap();
    runtime.shutdown();

    let target = &segments(&dir)[0];
    let mut bytes = std::fs::read(target).unwrap();
    // Byte 22 of a v2 header is the codec byte; 99 is not a codec.
    bytes[22] = 99;
    std::fs::write(target, &bytes).unwrap();

    match Runtime::spawn(classify(7), durable(&dir, 1 << 22, 0)) {
        Err(HdcError::Storage(message)) => {
            assert!(
                message.contains("codec"),
                "the refusal must name the codec: {message}"
            )
        }
        Err(other) => panic!("expected a storage error, got {other:?}"),
        Ok(_) => panic!("unknown codec must refuse recovery"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable directory written by one task family must refuse a runtime
/// of the other — the spec digest covers the task.
#[test]
fn cross_task_digest_mismatch_is_loud() {
    let dir = scratch_dir("digest");
    let runtime = Runtime::spawn(classify(3), durable(&dir, 1 << 22, 0)).unwrap();
    runtime
        .handle()
        .fit(&Radians::periodic(4.0, 24.0), 1)
        .unwrap();
    runtime.shutdown();
    assert!(matches!(
        Runtime::spawn(regress(3), durable(&dir, 1 << 22, 0)),
        Err(HdcError::Storage(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
