//! Core hypervector arithmetic for hyperdimensional computing (HDC).
//!
//! Hyperdimensional computing represents information as very wide random
//! vectors (*hypervectors*, typically ~10,000 bits) and computes with three
//! dimension-independent operations:
//!
//! * **binding** (`⊗`) — element-wise XOR; associates two pieces of
//!   information and is its own inverse,
//! * **bundling** (`⊕`) — element-wise majority; superimposes a set of
//!   hypervectors into one that stays similar to every member,
//! * **permutation** (`Π`) — cyclic bit rotation; encodes order.
//!
//! This crate provides the packed binary hypervector type used throughout the
//! workspace, integer accumulators for exact majority bundling (and a
//! bit-sliced [`BitSlicedBundle`] for a sample's or a batch's bundle), a
//! bipolar (±1) model for ablations, similarity search helpers and an associative
//! item memory. For batched pipelines it adds a contiguous
//! [`HypervectorBatch`] arena whose rows are borrowed [`HvRef`]/[`HvMut`]
//! views, and the word-slice [`kernels`] that every hot path — owned or
//! batched — compiles down to.
//!
//! # Example
//!
//! ```
//! use hdc_core::{BinaryHypervector, MajorityAccumulator};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let a = BinaryHypervector::random(10_000, &mut rng);
//! let b = BinaryHypervector::random(10_000, &mut rng);
//!
//! // Random hypervectors are quasi-orthogonal: distance ≈ 0.5.
//! assert!((a.normalized_hamming(&b) - 0.5).abs() < 0.05);
//!
//! // Binding is self-inverse: a ⊗ (a ⊗ b) = b.
//! let bound = a.bind(&b);
//! assert_eq!(bound.bind(&a), b);
//!
//! // A bundle stays similar to its members.
//! let mut acc = MajorityAccumulator::new(10_000);
//! acc.push(&a);
//! acc.push(&b);
//! let sum = acc.finalize_random(&mut rng);
//! assert!(sum.normalized_hamming(&a) < 0.3);
//! ```

// `deny` rather than `forbid`: the SIMD kernel backends in
// `kernels::{x86, neon}` opt back in with a module-level
// `#![allow(unsafe_code)]` for `target_feature` intrinsics behind safe
// wrappers (the dispatch layer's detection is the safety contract).
// Everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod batch;
mod binary;
mod bipolar;
mod bundle;
mod error;
pub mod kernels;
mod memory;
pub mod ops;
pub mod similarity;

pub use accumulator::{MajorityAccumulator, TieBreak};
pub use batch::{HvMut, HvRef, HypervectorBatch};
pub use binary::{BinaryHypervector, Bits};
pub use bipolar::{BipolarAccumulator, BipolarHypervector};
pub use bundle::BitSlicedBundle;
pub use error::HdcError;
pub use memory::ItemMemory;

/// The hypervector dimensionality used by the paper and by all experiment
/// harnesses in this workspace (`d ≈ 10,000`, paper §2).
pub const DEFAULT_DIMENSION: usize = 10_000;
