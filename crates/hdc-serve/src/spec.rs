//! The serializable pipeline spec: a pipeline as a **value**.
//!
//! [`PipelineSpec`] is the plain-data description of a whole HDC pipeline —
//! dimensionality, seed, [`Basis`] family, [`EncSpec`] encoder and
//! [`Task`] — that can be constructed, inspected, compared, hashed
//! ([`hash64`](PipelineSpec::hash64)), written to disk
//! ([`to_bytes`](PipelineSpec::to_bytes)) and rebuilt into a live
//! [`Model`](crate::Model) ([`build`](PipelineSpec::build)). The fluent
//! [`Pipeline::builder`](crate::Pipeline::builder) is a thin typed layer
//! that produces exactly this value; snapshots embed it so a warm restart
//! reconstructs encoders bit-identically from `(spec, seed)` alone.
//!
//! Because every constructor in the workspace is deterministic per seed,
//! the spec *is* the pipeline: two builds of the same spec produce
//! bit-identical encoders, label tables and (untrained) heads.

use std::hash::Hasher;

use hdc_basis::BasisKind;
use hdc_core::HdcError;
use hdc_encode::{
    AngleEncoder, CategoricalEncoder, FeatureRecordEncoder, FieldSpec, Radians, ScalarEncoder,
    SequenceEncoder,
};
use rand::rngs::StdRng;

use crate::pipeline::DynEncoder;
use hdc_store::codec::{self, Cursor};

/// The basis-hypervector family a pipeline quantizes through, with its size
/// `m` and (where applicable) the §5.2 randomness hyperparameter `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Basis {
    /// Uncorrelated random-hypervectors (paper §3.1).
    Random {
        /// Number of basis hypervectors.
        m: usize,
    },
    /// Interpolation-based level-hypervectors (paper §4.3).
    Level {
        /// Number of levels.
        m: usize,
        /// Randomness `r ∈ [0, 1]`; `0.0` is Algorithm 1.
        r: f64,
    },
    /// Circular-hypervectors (paper §5.1) — the wrap-correct choice for
    /// angles, hours, seasons and ring positions.
    Circular {
        /// Number of sectors.
        m: usize,
        /// Randomness `r ∈ [0, 1]`.
        r: f64,
    },
}

impl Basis {
    /// The [`BasisKind`] selector this maps onto.
    #[must_use]
    pub fn kind(self) -> BasisKind {
        match self {
            Basis::Random { .. } => BasisKind::Random,
            Basis::Level { r, .. } => BasisKind::Level { randomness: r },
            Basis::Circular { r, .. } => BasisKind::Circular { randomness: r },
        }
    }

    /// The basis size `m`.
    #[must_use]
    pub fn m(self) -> usize {
        match self {
            Basis::Random { m } | Basis::Level { m, .. } | Basis::Circular { m, .. } => m,
        }
    }
}

/// The task family a pipeline learns: multi-class classification (the
/// paper's Table 1 EMG workload) or regression over a real-valued label
/// (the paper's Table 2 Beijing workload). Plain data, carried inside
/// [`PipelineSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Task {
    /// Nearest-class-vector classification over `classes` labels.
    Classification {
        /// Number of classes.
        classes: usize,
    },
    /// Associative regression: labels are quantized into `levels` grid
    /// points over `[low, high]` by an invertible level encoder and read
    /// back with the integer (mean-vector) readout.
    Regression {
        /// Lower bound of the label range.
        low: f64,
        /// Upper bound of the label range.
        high: f64,
        /// Number of label quantization levels (`>= 2`).
        levels: usize,
    },
}

impl Task {
    /// The family name, for diagnostics ([`HdcError::TaskMismatch`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Task::Classification { .. } => "classification",
            Task::Regression { .. } => "regression",
        }
    }

    /// `true` for [`Task::Classification`].
    #[must_use]
    pub fn is_classification(self) -> bool {
        matches!(self, Task::Classification { .. })
    }

    /// `true` for [`Task::Regression`].
    #[must_use]
    pub fn is_regression(self) -> bool {
        matches!(self, Task::Regression { .. })
    }
}

/// The encoder half of a [`PipelineSpec`], as plain data — one variant per
/// workload encoder of `hdc-encode`. The typed [`Enc`](crate::Enc)
/// constructors produce these; [`SpecInput::build_encoder`] turns them back
/// into live encoders.
#[derive(Debug, Clone, PartialEq)]
pub enum EncSpec {
    /// A scalar pipeline over `[low, high]` (input type `f64`).
    Scalar {
        /// Lower bound of the encoded interval.
        low: f64,
        /// Upper bound of the encoded interval.
        high: f64,
    },
    /// An angle pipeline over `[0, 2π)` (input type [`Radians`]).
    Angle,
    /// A categorical pipeline over `n` symbols (input type `usize`).
    Categorical {
        /// Number of symbols.
        n: usize,
    },
    /// A sequence pipeline over an alphabet of `n` symbols (input type
    /// `[usize]`).
    Sequence {
        /// Alphabet size.
        n: usize,
    },
    /// A record pipeline over raw `f64` feature rows (input type `[f64]`).
    Record {
        /// One [`FieldSpec`] per feature position.
        fields: Vec<FieldSpec>,
    },
}

impl EncSpec {
    /// The variant name, for diagnostics ([`HdcError::SpecMismatch`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EncSpec::Scalar { .. } => "Scalar",
            EncSpec::Angle => "Angle",
            EncSpec::Categorical { .. } => "Categorical",
            EncSpec::Sequence { .. } => "Sequence",
            EncSpec::Record { .. } => "Record",
        }
    }

    /// The basis family used when a spec never chose one explicitly: each
    /// encoder picks the family that is correct for its input structure —
    /// level for linear scalars (so the interval's ends never wrap),
    /// circular otherwise — so a defaulted pipeline never quantizes a
    /// linear range through a wrapping basis or vice versa.
    #[must_use]
    pub fn default_basis(&self) -> Basis {
        match self {
            EncSpec::Scalar { .. } => Basis::Level { m: 16, r: 0.0 },
            _ => Basis::Circular { m: 16, r: 0.0 },
        }
    }
}

/// An input type a pipeline spec can be built for: the bridge between the
/// runtime-data [`EncSpec`] and the compile-time input type `X` of a
/// [`Model<X>`](crate::Model). Implemented for exactly the five workload
/// input types (`f64`, [`Radians`], `usize`, `[usize]`, `[f64]`); building
/// a spec whose encoder variant does not match the requested input type
/// fails with [`HdcError::SpecMismatch`] instead of producing a model that
/// would encode garbage.
pub trait SpecInput: Sync {
    /// The [`EncSpec`] variant name this input type requires (diagnostics).
    const ENC_NAME: &'static str;

    /// Builds the live encoder for `spec` behind the type-erased
    /// [`DynEncoder`] seam.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::SpecMismatch`] if `spec` is not this input
    /// type's variant, and propagates invalid encoder/basis parameters.
    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<Self>>, HdcError>;
}

fn mismatch<T>(expected: &'static str, found: &EncSpec) -> Result<T, HdcError> {
    Err(HdcError::SpecMismatch {
        expected,
        found: found.name(),
    })
}

impl SpecInput for f64 {
    const ENC_NAME: &'static str = "Scalar";

    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<f64>>, HdcError> {
        match *spec {
            EncSpec::Scalar { low, high } => Ok(Box::new(ScalarEncoder::with_kind(
                low,
                high,
                basis.m(),
                dim,
                basis.kind(),
                rng,
            )?)),
            ref other => mismatch(Self::ENC_NAME, other),
        }
    }
}

impl SpecInput for Radians {
    const ENC_NAME: &'static str = "Angle";

    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<Radians>>, HdcError> {
        match spec {
            EncSpec::Angle => {
                let set = basis.kind().build(basis.m(), dim, rng)?;
                Ok(Box::new(AngleEncoder::from_basis(set.as_ref())?))
            }
            other => mismatch(Self::ENC_NAME, other),
        }
    }
}

impl SpecInput for usize {
    const ENC_NAME: &'static str = "Categorical";

    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        _basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<usize>>, HdcError> {
        match *spec {
            EncSpec::Categorical { n } => Ok(Box::new(CategoricalEncoder::new(n, dim, rng)?)),
            ref other => mismatch(Self::ENC_NAME, other),
        }
    }
}

impl SpecInput for [usize] {
    const ENC_NAME: &'static str = "Sequence";

    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        _basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<[usize]>>, HdcError> {
        match *spec {
            EncSpec::Sequence { n } => Ok(Box::new(SequenceEncoder::new(n, dim, rng)?)),
            ref other => mismatch(Self::ENC_NAME, other),
        }
    }
}

impl SpecInput for [f64] {
    const ENC_NAME: &'static str = "Record";

    fn build_encoder(
        spec: &EncSpec,
        dim: usize,
        basis: Basis,
        rng: &mut StdRng,
    ) -> Result<Box<dyn DynEncoder<[f64]>>, HdcError> {
        match spec {
            EncSpec::Record { fields } => Ok(Box::new(FeatureRecordEncoder::new(
                fields,
                basis.m(),
                dim,
                basis.kind(),
                rng,
            )?)),
            other => mismatch(Self::ENC_NAME, other),
        }
    }
}

/// Version tag of the canonical spec encoding (bumped on layout changes;
/// [`PipelineSpec::from_bytes`] rejects unknown versions).
pub const SPEC_VERSION: u16 = 1;

/// A complete pipeline as plain data: everything needed to rebuild a
/// bit-identical (untrained) [`Model`](crate::Model) — and therefore the
/// header every [`Snapshot`](crate::Snapshot) carries.
///
/// ```
/// use hdc_serve::{Basis, EncSpec, PipelineSpec, Radians, Task};
///
/// let spec = PipelineSpec {
///     dim: 2_048,
///     seed: 7,
///     basis: Basis::Circular { m: 24, r: 0.0 },
///     encoder: EncSpec::Angle,
///     task: Task::Classification { classes: 2 },
/// };
/// // The spec is a value: hash it, persist it, rebuild from it.
/// let bytes = spec.to_bytes();
/// assert_eq!(PipelineSpec::from_bytes(&bytes)?, spec);
/// assert_eq!(spec.hash64(), PipelineSpec::from_bytes(&bytes)?.hash64());
/// let model = spec.clone().build::<Radians>()?;
/// assert_eq!(model.dim(), 2_048);
/// # Ok::<(), hdc_serve::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Hypervector dimensionality `d`.
    pub dim: usize,
    /// Seed of the pipeline's deterministic RNG (basis draws, label table).
    pub seed: u64,
    /// The basis family value encoders quantize through.
    pub basis: Basis,
    /// The encoder specification (fixes the model's input type).
    pub encoder: EncSpec,
    /// The task family (fixes the model's prediction type).
    pub task: Task,
}

impl PipelineSpec {
    /// A spec with the conventional defaults for `encoder`: seed `0`, the
    /// encoder's [`default_basis`](EncSpec::default_basis), and two-class
    /// classification. Adjust fields directly — they are public data.
    #[must_use]
    pub fn new(dim: usize, encoder: EncSpec) -> Self {
        let basis = encoder.default_basis();
        Self {
            dim,
            seed: 0,
            basis,
            encoder,
            task: Task::Classification { classes: 2 },
        }
    }

    /// Builds the live [`Model`](crate::Model) this spec describes, for
    /// input type `X`. Equivalent to
    /// [`Pipeline::from_spec`](crate::Pipeline::from_spec).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::SpecMismatch`] if `X` is not the input type of
    /// [`encoder`](Self::encoder), and [`HdcError`] for invalid dimension,
    /// basis, encoder or task parameters.
    pub fn build<X: ?Sized + SpecInput>(self) -> Result<crate::Model<X>, HdcError> {
        crate::Pipeline::from_spec(self)
    }

    /// The canonical binary encoding: versioned, big-endian, unique per
    /// spec value — the byte string [`hash64`](Self::hash64) digests and
    /// snapshots embed.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        codec::put_u16(&mut buf, SPEC_VERSION);
        codec::put_u64(&mut buf, self.dim as u64);
        codec::put_u64(&mut buf, self.seed);
        match self.basis {
            Basis::Random { m } => {
                buf.push(0);
                codec::put_u64(&mut buf, m as u64);
            }
            Basis::Level { m, r } => {
                buf.push(1);
                codec::put_u64(&mut buf, m as u64);
                codec::put_f64(&mut buf, r);
            }
            Basis::Circular { m, r } => {
                buf.push(2);
                codec::put_u64(&mut buf, m as u64);
                codec::put_f64(&mut buf, r);
            }
        }
        match &self.encoder {
            EncSpec::Scalar { low, high } => {
                buf.push(0);
                codec::put_f64(&mut buf, *low);
                codec::put_f64(&mut buf, *high);
            }
            EncSpec::Angle => buf.push(1),
            EncSpec::Categorical { n } => {
                buf.push(2);
                codec::put_u64(&mut buf, *n as u64);
            }
            EncSpec::Sequence { n } => {
                buf.push(3);
                codec::put_u64(&mut buf, *n as u64);
            }
            EncSpec::Record { fields } => {
                buf.push(4);
                codec::put_u32(&mut buf, fields.len() as u32);
                for field in fields {
                    match *field {
                        FieldSpec::Scalar { low, high } => {
                            buf.push(0);
                            codec::put_f64(&mut buf, low);
                            codec::put_f64(&mut buf, high);
                        }
                        FieldSpec::Angle => buf.push(1),
                        FieldSpec::Categorical { n } => {
                            buf.push(2);
                            codec::put_u64(&mut buf, n as u64);
                        }
                    }
                }
            }
        }
        match self.task {
            Task::Classification { classes } => {
                buf.push(0);
                codec::put_u64(&mut buf, classes as u64);
            }
            Task::Regression { low, high, levels } => {
                buf.push(1);
                codec::put_f64(&mut buf, low);
                codec::put_f64(&mut buf, high);
                codec::put_u64(&mut buf, levels as u64);
            }
        }
        buf
    }

    /// Decodes a canonical spec encoding.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::Snapshot`] for truncated input, an unknown
    /// version, an unknown tag, trailing bytes, or counts that exceed this
    /// platform's address space.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HdcError> {
        let mut cursor = Cursor::new(bytes);
        let spec = Self::read_from(&mut cursor)?;
        cursor
            .finish()
            .map_err(|e| HdcError::Snapshot(e.to_string()))?;
        Ok(spec)
    }

    /// Reads one spec from a cursor positioned at its first byte (used by
    /// the snapshot format, which appends trainer state after the spec).
    pub(crate) fn read_from(cursor: &mut Cursor<'_>) -> Result<Self, HdcError> {
        fn snap(e: std::io::Error) -> HdcError {
            HdcError::Snapshot(e.to_string())
        }
        fn index(value: u64, what: &str) -> Result<usize, HdcError> {
            usize::try_from(value)
                .map_err(|_| HdcError::Snapshot(format!("{what} {value} exceeds usize")))
        }
        let version = cursor.u16().map_err(snap)?;
        if version != SPEC_VERSION {
            return Err(HdcError::Snapshot(format!(
                "unsupported spec version {version}"
            )));
        }
        let dim = index(cursor.u64().map_err(snap)?, "dim")?;
        let seed = cursor.u64().map_err(snap)?;
        let basis = match cursor.take(1).map_err(snap)?[0] {
            0 => Basis::Random {
                m: index(cursor.u64().map_err(snap)?, "basis size")?,
            },
            1 => Basis::Level {
                m: index(cursor.u64().map_err(snap)?, "basis size")?,
                r: cursor.f64().map_err(snap)?,
            },
            2 => Basis::Circular {
                m: index(cursor.u64().map_err(snap)?, "basis size")?,
                r: cursor.f64().map_err(snap)?,
            },
            tag => return Err(HdcError::Snapshot(format!("unknown basis tag {tag}"))),
        };
        let encoder = match cursor.take(1).map_err(snap)?[0] {
            0 => EncSpec::Scalar {
                low: cursor.f64().map_err(snap)?,
                high: cursor.f64().map_err(snap)?,
            },
            1 => EncSpec::Angle,
            2 => EncSpec::Categorical {
                n: index(cursor.u64().map_err(snap)?, "symbol count")?,
            },
            3 => EncSpec::Sequence {
                n: index(cursor.u64().map_err(snap)?, "alphabet size")?,
            },
            4 => {
                let count = cursor.u32().map_err(snap)? as usize;
                let mut fields = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    fields.push(match cursor.take(1).map_err(snap)?[0] {
                        0 => FieldSpec::Scalar {
                            low: cursor.f64().map_err(snap)?,
                            high: cursor.f64().map_err(snap)?,
                        },
                        1 => FieldSpec::Angle,
                        2 => FieldSpec::Categorical {
                            n: index(cursor.u64().map_err(snap)?, "category count")?,
                        },
                        tag => return Err(HdcError::Snapshot(format!("unknown field tag {tag}"))),
                    });
                }
                EncSpec::Record { fields }
            }
            tag => return Err(HdcError::Snapshot(format!("unknown encoder tag {tag}"))),
        };
        let task = match cursor.take(1).map_err(snap)?[0] {
            0 => Task::Classification {
                classes: index(cursor.u64().map_err(snap)?, "class count")?,
            },
            1 => Task::Regression {
                low: cursor.f64().map_err(snap)?,
                high: cursor.f64().map_err(snap)?,
                levels: index(cursor.u64().map_err(snap)?, "level count")?,
            },
            tag => return Err(HdcError::Snapshot(format!("unknown task tag {tag}"))),
        };
        Ok(Self {
            dim,
            seed,
            basis,
            encoder,
            task,
        })
    }

    /// A stable 64-bit digest of the canonical encoding (FNV-1a): cheap
    /// identity for caching, shard-compatibility checks and snapshot
    /// headers. Equal specs always hash equal; the digest is stable across
    /// processes and platforms (it hashes [`to_bytes`](Self::to_bytes),
    /// not in-memory layout).
    #[must_use]
    pub fn hash64(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in self.to_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// `Hasher`-compatibility: a spec can key standard hash maps through its
/// Spec identity **is** the canonical encoding: `PartialEq`/`Eq`/`Hash`
/// all compare [`to_bytes`](PipelineSpec::to_bytes), so the three agree
/// with each other and with [`hash64`](PipelineSpec::hash64) even though
/// the struct contains `f64` fields. Under bit-level identity `-0.0` and
/// `0.0` are *different* specs (they build different encoders' metadata)
/// and a NaN bound equals itself — which is what lets a spec key standard
/// hash maps.
impl PartialEq for PipelineSpec {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for PipelineSpec {}

/// See the [`PartialEq`] impl: hashes the canonical encoding, consistent
/// with equality.
impl std::hash::Hash for PipelineSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.to_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_specs() -> Vec<PipelineSpec> {
        vec![
            PipelineSpec::new(256, EncSpec::Angle),
            PipelineSpec {
                dim: 10_000,
                seed: 42,
                basis: Basis::Circular { m: 24, r: 0.25 },
                encoder: EncSpec::Record {
                    fields: vec![
                        FieldSpec::scalar(0.0, 1.0),
                        FieldSpec::angle(),
                        FieldSpec::categorical(7),
                    ],
                },
                task: Task::Regression {
                    low: -1.0,
                    high: 1.0,
                    levels: 32,
                },
            },
            PipelineSpec {
                dim: 65,
                seed: 3,
                basis: Basis::Random { m: 8 },
                encoder: EncSpec::Sequence { n: 5 },
                task: Task::Classification { classes: 4 },
            },
            PipelineSpec {
                dim: 512,
                seed: 9,
                basis: Basis::Level { m: 16, r: 1.0 },
                encoder: EncSpec::Scalar {
                    low: -40.0,
                    high: 60.0,
                },
                task: Task::Classification { classes: 2 },
            },
            PipelineSpec {
                dim: 128,
                seed: 1,
                basis: Basis::Circular { m: 12, r: 0.0 },
                encoder: EncSpec::Categorical { n: 11 },
                task: Task::Regression {
                    low: 0.0,
                    high: 100.0,
                    levels: 21,
                },
            },
        ]
    }

    #[test]
    fn every_spec_round_trips_through_bytes() {
        for spec in sample_specs() {
            let bytes = spec.to_bytes();
            let decoded = PipelineSpec::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, spec);
            assert_eq!(decoded.hash64(), spec.hash64());
        }
    }

    #[test]
    fn distinct_specs_have_distinct_encodings_and_hashes() {
        let specs = sample_specs();
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.to_bytes(), b.to_bytes());
                assert_ne!(a.hash64(), b.hash64());
            }
        }
        // A one-field difference changes the digest.
        let base = specs[0].clone();
        let mut tweaked = base.clone();
        tweaked.seed += 1;
        assert_ne!(base.hash64(), tweaked.hash64());
    }

    #[test]
    fn malformed_spec_bytes_are_rejected() {
        let bytes = sample_specs()[1].to_bytes();
        // Truncation anywhere fails.
        for cut in 0..bytes.len() {
            assert!(
                PipelineSpec::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(0);
        assert!(PipelineSpec::from_bytes(&long).is_err());
        // Unknown version fails.
        let mut wrong = bytes.clone();
        wrong[0] = 0xFF;
        assert!(matches!(
            PipelineSpec::from_bytes(&wrong),
            Err(HdcError::Snapshot(_))
        ));
        // Unknown tags fail (basis tag sits right after version+dim+seed).
        let mut bad_tag = bytes;
        bad_tag[18] = 9;
        assert!(PipelineSpec::from_bytes(&bad_tag).is_err());
    }

    #[test]
    fn task_and_enc_names_are_stable() {
        assert_eq!(Task::Classification { classes: 3 }.name(), "classification");
        assert!(Task::Classification { classes: 3 }.is_classification());
        let regression = Task::Regression {
            low: 0.0,
            high: 1.0,
            levels: 8,
        };
        assert_eq!(regression.name(), "regression");
        assert!(regression.is_regression());
        assert_eq!(EncSpec::Angle.name(), "Angle");
        assert_eq!(EncSpec::Record { fields: vec![] }.name(), "Record");
    }

    #[test]
    fn default_basis_is_per_encoder() {
        assert_eq!(
            EncSpec::Scalar {
                low: 0.0,
                high: 1.0
            }
            .default_basis(),
            Basis::Level { m: 16, r: 0.0 }
        );
        assert_eq!(
            EncSpec::Angle.default_basis(),
            Basis::Circular { m: 16, r: 0.0 }
        );
    }

    #[test]
    fn identity_is_bitwise_so_eq_hash_and_bytes_agree() {
        use std::collections::HashMap;
        use std::hash::{DefaultHasher, Hash, Hasher};

        fn digest(spec: &PipelineSpec) -> u64 {
            let mut hasher = DefaultHasher::new();
            spec.hash(&mut hasher);
            hasher.finish()
        }
        let a = PipelineSpec {
            dim: 128,
            seed: 0,
            basis: Basis::Level { m: 8, r: 0.0 },
            encoder: EncSpec::Scalar {
                low: 0.0,
                high: 1.0,
            },
            task: Task::Classification { classes: 2 },
        };
        // -0.0 is a *different* spec under bit-level identity — equality,
        // Hash, hash64 and to_bytes all agree on that.
        let mut b = a.clone();
        b.encoder = EncSpec::Scalar {
            low: -0.0,
            high: 1.0,
        };
        assert_ne!(a, b);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(a.hash64(), b.hash64());
        // And equal specs key hash maps (Eq + consistent Hash).
        let mut cache: HashMap<PipelineSpec, &str> = HashMap::new();
        cache.insert(a.clone(), "hit");
        assert_eq!(cache.get(&a.clone()), Some(&"hit"));
        assert_eq!(cache.get(&b), None);
    }

    #[test]
    fn building_the_wrong_input_type_is_a_spec_mismatch() {
        let spec = PipelineSpec::new(256, EncSpec::Angle);
        assert!(matches!(
            spec.build::<f64>(),
            Err(HdcError::SpecMismatch {
                expected: "Scalar",
                found: "Angle"
            })
        ));
    }
}
