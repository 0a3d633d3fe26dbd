//! # mxp-msgsim — an MPI-like runtime with simulated time
//!
//! Stands in for Spectrum MPI (Summit) and Cray MPICH (Frontier). Ranks
//! exchange **real messages** over one of two interchangeable hosts —
//! OS threads ([`WorldSpec::run`]) or fiber continuations under a
//! discrete-event scheduler ([`WorldSpec::run_event`], which hosts full
//! Summit/Frontier rank counts in one process) — while every rank carries
//! a **simulated clock** advanced by a LogGP-style cost model fed from
//! `mxp-netsim`:
//!
//! * `send` charges the sender an overhead plus per-byte injection time and
//!   stamps the message with its arrival time (`sender clock + latency`);
//! * `recv` advances the receiver to `max(own clock, arrival)` — the
//!   difference is the *communication wait* the paper plots in Fig. 10;
//! * `charge` accounts local computation (e.g. a GPU kernel time from
//!   `mxp-gpusim`).
//!
//! Because arrival times are pure functions of sender state, the simulated
//! clocks are **deterministic** regardless of host scheduling — the thread
//! and event hosts produce bit-identical clocks and solutions — and
//! communication/computation overlap (the paper's look-ahead, §IV-B)
//! *emerges*: a receiver that computes before it receives simply finds the
//! panel already arrived.
//!
//! The same driver code therefore runs in two fidelities: **functional**
//! (payloads carry live matrix panels; small N) and **timing** (payloads are
//! `()`-like markers with declared byte counts; Summit/Frontier scale).
//!
//! ```
//! use mxp_msgsim::{BcastAlgo, Group, WorldSpec};
//! use mxp_netsim::frontier_network;
//!
//! // Four ranks broadcast a payload with the Ring2M algorithm while
//! // simulated clocks track the cost.
//! let world = WorldSpec::cluster(2, 2, frontier_network());
//! let results = world.run::<Vec<u8>, _, _>(|mut comm| {
//!     let mut group = Group::new(comm.rank(), (0..4).collect(), 1).unwrap();
//!     let msg = (comm.rank() == 0).then(|| vec![7u8; 16]);
//!     let got = group.bcast(&mut comm, 0, msg, 1 << 20, BcastAlgo::Ring2M);
//!     (got, comm.now())
//! });
//! assert!(results.iter().all(|(v, t)| v == &vec![7u8; 16] && *t > 0.0));
//! ```
//!
//! Point-to-point traffic is blocking. [`collectives`] implements the
//! paper's §IV-B communicator choices — library broadcast (binomial and
//! pipelined), non-blocking broadcast with per-vendor progress semantics
//! (split-phase [`Group::ibcast`] / [`Group::ibcast_join`], the one
//! non-blocking operation), and the Ring1 / Ring1M / Ring2M rings, which
//! one loop runs as pipelined chains of point-to-point sends — plus an
//! all-reduce and a barrier built from the same primitives.

#![deny(missing_docs)]

pub mod collectives;
mod event;
pub mod fault;
pub mod fiber;
mod group;
mod hash;
mod world;

pub use collectives::{BcastAlgo, BcastInfo, BcastRequest, CollectiveTuning};
pub use event::{last_event_stats, EventStats};
pub use fault::{LinkFault, LinkScope};
pub use group::Group;
pub use world::{Comm, RecvInfo, WorldSpec};
