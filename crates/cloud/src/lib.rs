//! Cloud FPGA platform simulator (AWS-F1-like).
//!
//! Models the *platform* half of the paper's threat models: a provider
//! owning a pool of [`fpga_fabric::FpgaDevice`]s, tenants renting them
//! through sessions, a marketplace distributing sealed third-party designs
//! (AFIs), a design rule checker gating what tenants may load, and the
//! provider's **scrub-on-release** — which clears every digital artifact
//! and, as the paper shows, none of the analog ones.
//!
//! Key behaviours reproduced:
//!
//! * **Wipe-resistance** — releasing an instance scrubs the device
//!   ([`fpga_fabric::FpgaDevice::wipe`]); a later tenant of the same
//!   device can still read BTI imprints.
//! * **DRC gate** — designs with combinational loops (ring-oscillator
//!   sensors) are rejected at load time; the TDC design passes
//!   (paper Section 7).
//! * **Device reacquisition** — the attacker's Assumption 2: a
//!   [`FlashAttack`](Provider::rent_all) checks out all free capacity so
//!   the victim's released board must come back to the attacker (the
//!   campaign layer recognizes the die by its per-route silicon delays).
//! * **Launch-rate control** — the Section 8.2 provider mitigation:
//!   quarantining returned devices for hours before re-renting them, so
//!   imprints relax away.
//! * **Hostile-cloud mode** — a seeded, deterministic [`FaultPlan`]
//!   injecting the operational adversity of real multi-week campaigns:
//!   transient rent failures, session preemption, device swaps on
//!   reacquisition, spurious scrubs, and thermal transients; every
//!   injected fault lands in the [`RentalLedger`].
//!
//! # Example
//!
//! ```
//! use cloud::{Provider, ProviderConfig, TenantId};
//!
//! let mut provider = Provider::new(ProviderConfig::aws_f1_like(4, 42));
//! let victim = TenantId::new("victim");
//! let session = provider.rent(victim.clone())?;
//! let device_id = session.device_id();
//! provider.release(session)?;        // scrub happens here
//! // Attacker floods the pool and must end up holding the victim device.
//! let attacker = TenantId::new("attacker");
//! let sessions = provider.rent_all(attacker)?;
//! assert!(sessions.iter().any(|s| s.device_id() == device_id));
//! # Ok::<(), cloud::CloudError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod afi;
mod error;
mod faults;
mod ledger;
mod provider;
mod session;
mod tenant;

pub use afi::{Afi, AfiId, Marketplace};
pub use error::CloudError;
pub use faults::{FaultKind, FaultPlan, FaultState, ScheduledFault};
pub use ledger::{FaultRecord, RentalLedger, RentalRecord};
pub use provider::{DeviceId, Provider, ProviderConfig};
pub use session::Session;
pub use tenant::TenantId;
