//! Umbrella crate for the HyperLoop reproduction workspace.
//!
//! Re-exports every subsystem so that root-level integration tests and
//! examples can reach the whole stack through one dependency. See the
//! individual crates for documentation:
//!
//! * [`hyperloop`] — the paper's contribution (group-based NIC offload
//!   primitives).
//! * [`baseline`] — the Naïve-RDMA comparator.
//! * [`testbed`] — multi-node cluster composition.
//! * [`rnicsim`], [`nvmsim`], [`netsim`], [`cpusched`], [`simcore`] —
//!   substrates.
//! * [`kvstore`], [`docstore`], [`walog`], [`ycsb`] — applications and
//!   workloads.

pub use baseline;
pub use cpusched;
pub use docstore;
pub use hyperloop;
pub use hyperloop_bench;
pub use kvstore;
pub use netsim;
pub use nvmsim;
pub use rnicsim;
pub use simcore;
pub use testbed;
pub use walog;
pub use ycsb;

/// The README's Rust snippets, compiled and run as doctests so they keep
/// up with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
