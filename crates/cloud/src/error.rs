//! Error type for cloud platform operations.

use std::error::Error;
use std::fmt;

use fpga_fabric::{DrcViolation, FabricError};

use crate::{AfiId, DeviceId};

/// Errors produced by the cloud provider and sessions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CloudError {
    /// No free device is available in the region right now.
    ///
    /// The paper notes hitting exactly this limit on AWS, which is what
    /// makes the flash attack cheap.
    CapacityExhausted,
    /// A rent call failed transiently — the control plane refused *this*
    /// request, not because the region is empty. Retrying shortly is the
    /// correct response (injected by hostile-cloud fault plans).
    TransientCapacity,
    /// The session does not own the device it tried to use.
    SessionRevoked,
    /// The design failed the platform's design rule checks.
    DesignRejected(Vec<DrcViolation>),
    /// A fabric-level failure while loading or running.
    Fabric(FabricError),
    /// The referenced AFI does not exist in the marketplace.
    UnknownAfi(AfiId),
    /// The referenced device does not exist.
    UnknownDevice(DeviceId),
    /// The AFI is sealed and its internals are not available to renters.
    AfiSealed(AfiId),
}

impl CloudError {
    /// Whether a resilient campaign should treat this error as retryable.
    ///
    /// Capacity problems clear as other tenants release; a revoked session
    /// means the device was preempted and can be reacquired. Design
    /// rejections, fabric errors, and unknown ids are programming or
    /// configuration errors — retrying cannot fix them.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::CapacityExhausted | Self::TransientCapacity | Self::SessionRevoked
        )
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CapacityExhausted => {
                f.write_str("no F1 capacity available in this region right now")
            }
            Self::TransientCapacity => {
                f.write_str("rent request failed transiently; retry shortly")
            }
            Self::SessionRevoked => f.write_str("session no longer owns a device"),
            Self::DesignRejected(v) => {
                write!(
                    f,
                    "design rejected by platform rule checks ({} violations)",
                    v.len()
                )
            }
            Self::Fabric(e) => write!(f, "fabric error: {e}"),
            Self::UnknownAfi(id) => write!(f, "AFI {id} not found in the marketplace"),
            Self::UnknownDevice(id) => write!(f, "device {id} not found"),
            Self::AfiSealed(id) => {
                write!(
                    f,
                    "AFI {id} is sealed; design internals are not exposed to renters"
                )
            }
        }
    }
}

impl Error for CloudError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FabricError> for CloudError {
    fn from(e: FabricError) -> Self {
        Self::Fabric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<CloudError>();
    }
}
