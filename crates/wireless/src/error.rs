//! Error types for the wireless substrate.

use std::fmt;

/// Errors produced while constructing or evaluating the wireless substrate.
///
/// All public fallible functions of this crate return `Result<_, WirelessError>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WirelessError {
    /// A physical parameter was non-positive or non-finite where a strictly
    /// positive finite value is required (e.g. bandwidth, power, distance).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The provided value.
        value: f64,
    },
    /// A deployment area was requested with a non-positive side length.
    InvalidArea {
        /// The requested side length in metres.
        side_m: f64,
    },
    /// A backhaul link was requested between a server and itself, or between
    /// server indices that do not exist.
    InvalidLink {
        /// Source edge-server index.
        from: usize,
        /// Destination edge-server index.
        to: usize,
        /// Number of edge servers in the topology.
        servers: usize,
    },
    /// A coverage or allocation query referenced a user or server index
    /// outside the topology.
    IndexOutOfRange {
        /// Description of the entity being indexed ("user" or "server").
        entity: &'static str,
        /// The offending index.
        index: usize,
        /// The number of entities available.
        len: usize,
    },
    /// A per-entity input slice had the wrong length (e.g. one position
    /// per user).
    LengthMismatch {
        /// Description of the entity the slice is indexed by.
        entity: &'static str,
        /// The slice's length.
        got: usize,
        /// The number of entities.
        expected: usize,
    },
}

impl fmt::Display for WirelessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WirelessError::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter {name}")
            }
            WirelessError::InvalidArea { side_m } => {
                write!(f, "invalid deployment area side length {side_m} m")
            }
            WirelessError::InvalidLink { from, to, servers } => {
                write!(
                    f,
                    "invalid backhaul link {from} -> {to} in a topology of {servers} servers"
                )
            }
            WirelessError::IndexOutOfRange { entity, index, len } => {
                write!(f, "{entity} index {index} out of range (len {len})")
            }
            WirelessError::LengthMismatch {
                entity,
                got,
                expected,
            } => write!(f, "got {got} entries for {expected} {entity}s"),
        }
    }
}

impl std::error::Error for WirelessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WirelessError::InvalidParameter {
            name: "bandwidth",
            value: -1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("bandwidth"));
        assert!(msg.contains("-1"));

        let e = WirelessError::InvalidArea { side_m: 0.0 };
        assert!(e.to_string().contains("0"));

        let e = WirelessError::InvalidLink {
            from: 1,
            to: 1,
            servers: 4,
        };
        assert!(e.to_string().contains("1 -> 1"));

        let e = WirelessError::IndexOutOfRange {
            entity: "user",
            index: 9,
            len: 3,
        };
        assert!(e.to_string().contains("user"));

        let e = WirelessError::LengthMismatch {
            entity: "user",
            got: 2,
            expected: 3,
        };
        assert_eq!(e.to_string(), "got 2 entries for 3 users");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WirelessError>();
    }
}
