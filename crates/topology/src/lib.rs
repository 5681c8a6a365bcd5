//! # topology — data-centre topology builders
//!
//! Builders for the network fabrics used by the MMPTCP reproduction:
//!
//! * [`fattree`] — k-ary FatTree with configurable over-subscription (the
//!   paper's 512-server, 4:1 topology is [`fattree::FatTreeConfig::paper`]),
//!   single-homed ([`fattree::build`]) or with every host attached to two
//!   edge switches ([`fattree::build_dual_homed`], the roadmap's
//!   burst-tolerance extension) — one builder, one wiring;
//! * [`vl2`] — simplified VL2-style Clos;
//! * [`dumbbell`] — classic transport-validation topology;
//! * [`parallel`] — two endpoints joined by `p` equal-cost paths.
//!
//! Every builder returns a [`BuiltTopology`]: the [`netsim::Network`] graph
//! plus the metadata transports and metrics need (host list, link tiers and a
//! [`built::PathModel`] for MMPTCP's topology-aware duplicate-ACK threshold). They
//! all assemble it through the crate-private `fabric` helper, which is also
//! where what fixes a fabric's identity is written down.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod built;
pub mod dumbbell;
mod fabric;
pub mod fattree;
pub mod parallel;
pub mod vl2;

pub use built::{BuiltTopology, LinkTier};
pub use dumbbell::DumbbellConfig;
pub use fattree::{FatTreeConfig, LinkFailureSpec};
pub use parallel::ParallelPathConfig;
pub use vl2::Vl2Config;
