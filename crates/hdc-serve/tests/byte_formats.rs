//! Golden bytes of the durable formats: the `PipelineSpec` canonical
//! encoding (whose FNV-1a digest stamps every WAL segment header), a
//! `Snapshot`, and one write-ahead-log record of each tag — both as a raw
//! payload and as a whole adaptive-codec segment file.
//!
//! A silent change to any of these bytes orphans every existing log and
//! snapshot, so they may change only together with a format version bump.

use hdc_core::BinaryHypervector;
use hdc_serve::{Basis, Enc, FieldSpec, Pipeline, PipelineSpec, Radians, SyncPolicy};
use hdc_store::{Wal, WalConfig, WalRecord};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// A 70-bit hypervector with a fixed, irregular bit pattern (the last word
/// is partial, so the clean-tail rule is exercised too).
fn fixed_hv(salt: u64) -> BinaryHypervector {
    let words = vec![0x0123_4567_89ab_cdef ^ salt, 0x2a ^ (salt & 0x3f)];
    BinaryHypervector::from_words(70, words)
}

fn record_spec() -> PipelineSpec {
    Pipeline::builder(70)
        .seed(7)
        .classes(3)
        .basis(Basis::Circular { m: 8, r: 0.25 })
        .encoder(Enc::record(vec![
            FieldSpec::scalar(-1.0, 1.0),
            FieldSpec::angle(),
            FieldSpec::categorical(4),
        ]))
        .spec()
}

fn records() -> Vec<WalRecord> {
    vec![
        WalRecord::Insert {
            key: "station-7".into(),
            hv: fixed_hv(1),
        },
        WalRecord::Remove { key: "gone".into() },
        WalRecord::Fit {
            hv: fixed_hv(2),
            label: 2,
        },
        WalRecord::FitValue {
            hv: fixed_hv(3),
            value: -12.75,
        },
    ]
}

const SPEC_HEX: &str = concat!(
    "0001000000000000004600000000000000070200000000000000083fd0000000",
    "000000040000000300bff00000000000003ff000000000000001020000000000",
    "000004000000000000000003",
);
const SPEC_DIGEST: u64 = 0xc2ce_82f5_a635_6257;
const SNAPSHOT_HEX: &str = concat!(
    "48444353000100010000000000000046000000000000000b0100000000000000",
    "0600000000000000000101000000000000000040380000000000000000000000",
    "00000601000000000000000200000000000000020000000200000002fffffffe",
    "00000002fffffffe000000000000000200000000000000000000000000000002",
    "0000000200000002fffffffe0000000200000000000000000000000000000000",
    "00000002fffffffefffffffe0000000200000000000000000000000000000000",
    "fffffffe00000002fffffffe0000000000000002fffffffe0000000200000000",
    "fffffffefffffffe0000000200000000fffffffe000000020000000000000002",
    "0000000200000002000000000000000000000000000000000000000000000000",
    "fffffffefffffffefffffffefffffffefffffffe0000000000000002fffffffe",
    "00000002fffffffe00000000fffffffe00000002fffffffefffffffe00000000",
    "0000000000000000fffffffe00000000",
);
const RECORD_HEX: [&str; 4] = [
    "01000000000000000973746174696f6e2d37000000460123456789abcdee000000000000002b",
    "020000000000000004676f6e65",
    "030000000000000002000000460123456789abcded0000000000000028",
    "04c029800000000000000000460123456789abcdec0000000000000029",
];
const SEGMENT_HEX: &str = concat!(
    "4844435700020000000000000000c2ce82f5a635625701000000276ce71ef400",
    "01000000000000000973746174696f6e2d37000000460123456789abcdee0000",
    "00000000002b0000000e67bbfa1500020000000000000004676f6e6500000011",
    "6206e4480303000000000000000246000400003e000000000f4bd6e3340304c0",
    "29800000000000460002013f00000016a745295d030100000000000000097374",
    "6174696f6e2d374600000000000e67bbfa1500020000000000000004676f6e65",
    "0000000d0225f004030300000000000000024601000000000d832d86e60304c0",
    "29800000000000460200",
);

#[test]
fn spec_bytes_and_digest_are_pinned() {
    let spec = record_spec();
    assert_eq!(hex(&spec.to_bytes()), SPEC_HEX);
    assert_eq!(spec.hash64(), SPEC_DIGEST);
}

#[test]
fn snapshot_bytes_are_pinned() {
    let mut model = Pipeline::builder(70)
        .seed(11)
        .regression(0.0, 24.0, 6)
        .basis(Basis::Level { m: 6, r: 0.0 })
        .encoder(Enc::angle())
        .build()
        .expect("valid pipeline");
    let hours = [Radians::periodic(3.0, 24.0), Radians::periodic(17.0, 24.0)];
    model
        .fit_value_batch(&hours, &[3.0, 17.0])
        .expect("valid training set");
    assert_eq!(hex(&model.snapshot().to_bytes()), SNAPSHOT_HEX);
}

#[test]
fn wal_record_bytes_are_pinned() {
    for (record, expected) in records().iter().zip(RECORD_HEX) {
        assert_eq!(hex(&record.encode().expect("encodable")), expected);
    }
}

#[test]
fn adaptive_wal_segment_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("hdc-byte-formats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let (mut wal, replayed) =
        Wal::open(&dir, record_spec().hash64(), config, 0).expect("fresh log");
    assert!(replayed.is_empty());
    // Twice: the second round compresses against the first (delta codec).
    for record in records().iter().chain(&records()) {
        wal.append(record).expect("append");
    }
    drop(wal);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("log dir")
        .map(|entry| entry.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one segment");
    let bytes = std::fs::read(&files[0]).expect("segment");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(hex(&bytes), SEGMENT_HEX);
}
