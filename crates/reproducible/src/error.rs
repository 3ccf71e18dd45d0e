use std::error::Error;
use std::fmt;

/// Errors from the reproducible-statistics algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReproducibleError {
    /// The sample was empty.
    EmptySample,
    /// A sample value was outside the declared domain `[0, 2^bits)`.
    ValueOutOfDomain {
        /// The offending value.
        value: u128,
        /// The declared domain bits.
        bits: u32,
    },
    /// The domain exceeds the supported width.
    DomainTooWide {
        /// Requested bits.
        bits: u32,
    },
    /// An accuracy / reproducibility / probability parameter was outside
    /// its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The sample is too long for the solver's `u32` rank codes.
    SampleTooLarge {
        /// Sample length.
        len: usize,
    },
}

impl fmt::Display for ReproducibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproducibleError::EmptySample => write!(f, "sample is empty"),
            ReproducibleError::ValueOutOfDomain { value, bits } => {
                write!(f, "sample value {value} outside domain of {bits} bits")
            }
            ReproducibleError::DomainTooWide { bits } => {
                write!(f, "domain of {bits} bits exceeds the supported maximum")
            }
            ReproducibleError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is out of range")
            }
            ReproducibleError::SampleTooLarge { len } => {
                write!(f, "sample of {len} values exceeds the supported length")
            }
        }
    }
}

impl Error for ReproducibleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for err in [
            ReproducibleError::EmptySample,
            ReproducibleError::ValueOutOfDomain { value: 9, bits: 3 },
            ReproducibleError::DomainTooWide { bits: 200 },
            ReproducibleError::InvalidParameter {
                name: "tau",
                value: -1.0,
            },
            ReproducibleError::SampleTooLarge { len: 1 << 31 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReproducibleError>();
    }
}
