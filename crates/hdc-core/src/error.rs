use std::error::Error;
use std::fmt;

/// Errors produced by fallible hyperdimensional-computing constructors.
///
/// Hot-path arithmetic (binding, Hamming distance, …) panics on dimension
/// mismatch instead — see the `# Panics` sections of the respective methods —
/// while configuration-time constructors (basis sets, encoders, models)
/// return `Result<_, HdcError>` so applications can surface invalid
/// parameters gracefully.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HdcError {
    /// Two hypervectors (or a hypervector and an accumulator) with different
    /// dimensionalities were combined.
    DimensionMismatch {
        /// The dimensionality expected by the receiver.
        expected: usize,
        /// The dimensionality that was supplied.
        found: usize,
    },
    /// A hypervector dimensionality of zero was requested.
    InvalidDimension(usize),
    /// A basis set with fewer members than the construction supports was
    /// requested (e.g. a level set needs at least two levels).
    InvalidBasisSize {
        /// The requested number of basis hypervectors.
        requested: usize,
        /// The minimum supported by the construction.
        minimum: usize,
    },
    /// The randomness hyperparameter `r` lies outside `[0, 1]` or is NaN.
    InvalidRandomness(f64),
    /// A scalar encoder was configured with an empty or inverted interval.
    InvalidInterval {
        /// Lower bound of the interval.
        low: f64,
        /// Upper bound of the interval.
        high: f64,
    },
    /// A batch of encoded samples and a per-sample slice (e.g. labels)
    /// disagree in length.
    BatchLengthMismatch {
        /// Number of rows in the batch.
        rows: usize,
        /// Number of per-sample values supplied.
        labels: usize,
    },
    /// An operation that needs at least one input received none.
    EmptyInput,
    /// An encoder input names a symbol outside its alphabet: a categorical
    /// index or sequence symbol `>= symbols`, or a categorical record
    /// value that does not round to one.
    SymbolOutOfRange {
        /// The offending value as given.
        value: f64,
        /// The alphabet size.
        symbols: usize,
    },
    /// A model was asked to train on a label outside its configured range.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The number of classes the model was configured with.
        classes: usize,
    },
    /// A request was sent to a serving runtime that has already shut down
    /// (its work queue is closed, so the request can never be answered).
    ServiceUnavailable,
    /// A task-specific operation was invoked on a pipeline configured for
    /// the other task family (e.g. `predict_value` on a classification
    /// pipeline, or `fit` with a class label on a regression pipeline).
    TaskMismatch {
        /// The task family the operation requires.
        expected: &'static str,
        /// The task family the pipeline is configured for.
        found: &'static str,
    },
    /// A pipeline spec's encoder does not produce the input type it was
    /// asked to build for (e.g. loading an angle-pipeline snapshot as a
    /// `Model<f64>`).
    SpecMismatch {
        /// The encoder spec the input type requires.
        expected: &'static str,
        /// The encoder spec that was found.
        found: &'static str,
    },
    /// A snapshot could not be read, written or parsed (I/O failure, bad
    /// magic/version, truncated or internally inconsistent state).
    Snapshot(
        /// Human-readable reason.
        String,
    ),
    /// Durable storage (write-ahead log, snapshot manifest or paged item
    /// memory) could not be read or written: I/O failure, bad magic or
    /// version, a CRC mismatch in a sealed segment, or a spec digest that
    /// does not match the recovering model.
    Storage(
        /// Human-readable reason.
        String,
    ),
    /// A network operation against a remote serving process exceeded its
    /// configured deadline (connect, read or write timeout).
    Timeout {
        /// The operation that timed out (e.g. `"connect"`, `"predict"`).
        operation: &'static str,
    },
    /// A transport-level failure talking to a remote serving process:
    /// connection refused or reset, a malformed frame, or a server-side
    /// error relayed over the wire.
    Transport(
        /// Human-readable reason.
        String,
    ),
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HdcError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            HdcError::InvalidDimension(dim) => {
                write!(f, "invalid hypervector dimension {dim}; must be at least 1")
            }
            HdcError::InvalidBasisSize { requested, minimum } => write!(
                f,
                "invalid basis size {requested}; this construction needs at least {minimum}"
            ),
            HdcError::InvalidRandomness(r) => {
                write!(f, "randomness hyperparameter {r} is outside [0, 1]")
            }
            HdcError::InvalidInterval { low, high } => {
                write!(
                    f,
                    "invalid interval [{low}, {high}]; bounds must be finite and low < high"
                )
            }
            HdcError::BatchLengthMismatch { rows, labels } => write!(
                f,
                "batch of {rows} rows does not match {labels} per-sample values"
            ),
            HdcError::EmptyInput => write!(f, "operation requires at least one input"),
            HdcError::SymbolOutOfRange { value, symbols } => {
                write!(f, "symbol {value} out of range for {symbols} symbols")
            }
            HdcError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            HdcError::ServiceUnavailable => {
                write!(f, "serving runtime has shut down; request not processed")
            }
            HdcError::TaskMismatch { expected, found } => {
                write!(
                    f,
                    "task mismatch: operation requires a {expected} pipeline, found {found}"
                )
            }
            HdcError::SpecMismatch { expected, found } => {
                write!(
                    f,
                    "spec mismatch: input type requires a {expected} encoder spec, found {found}"
                )
            }
            HdcError::Snapshot(ref reason) => write!(f, "snapshot error: {reason}"),
            HdcError::Storage(ref reason) => write!(f, "storage error: {reason}"),
            HdcError::Timeout { operation } => {
                write!(f, "timed out waiting for {operation} on a remote shard")
            }
            HdcError::Transport(ref reason) => write!(f, "transport error: {reason}"),
        }
    }
}

impl Error for HdcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let messages = [
            HdcError::DimensionMismatch {
                expected: 4,
                found: 8,
            }
            .to_string(),
            HdcError::InvalidDimension(0).to_string(),
            HdcError::InvalidBasisSize {
                requested: 1,
                minimum: 2,
            }
            .to_string(),
            HdcError::InvalidRandomness(1.5).to_string(),
            HdcError::InvalidInterval {
                low: 2.0,
                high: 1.0,
            }
            .to_string(),
            HdcError::BatchLengthMismatch { rows: 4, labels: 3 }.to_string(),
            HdcError::EmptyInput.to_string(),
            HdcError::SymbolOutOfRange {
                value: 7.0,
                symbols: 5,
            }
            .to_string(),
            HdcError::LabelOutOfRange {
                label: 9,
                classes: 3,
            }
            .to_string(),
            HdcError::ServiceUnavailable.to_string(),
            HdcError::TaskMismatch {
                expected: "regression",
                found: "classification",
            }
            .to_string(),
            HdcError::SpecMismatch {
                expected: "Angle",
                found: "Scalar",
            }
            .to_string(),
            HdcError::Snapshot("truncated header".into()).to_string(),
            HdcError::Storage("torn segment header".into()).to_string(),
            HdcError::Timeout {
                operation: "connect",
            }
            .to_string(),
            HdcError::Transport("connection reset by peer".into()).to_string(),
        ];
        for message in messages {
            assert!(!message.is_empty());
            assert!(
                !message.ends_with('.'),
                "no trailing punctuation: {message}"
            );
            assert!(message.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn Error> = Box::new(HdcError::EmptyInput);
        assert!(err.source().is_none());
    }
}
