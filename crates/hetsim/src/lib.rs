//! # hetsim — deterministic heterogeneous-cluster emulation
//!
//! This crate is the substrate under the `datacutter` reproduction of
//! Beynon et al., *"Efficient Manipulation of Large Datasets on
//! Heterogeneous Storage Systems"* (IPDPS 2002). The paper's experiments
//! ran on four physical Linux clusters at the University of Maryland; this
//! crate replaces that hardware with a **discrete-event emulation**:
//!
//! * a [`Simulation`] engine with thread-backed cooperative processes,
//!   threadless handlers and a deterministic virtual clock ([`engine`]),
//! * virtual-time channels and semaphores ([`sync`]),
//! * cost-charging resources — CPUs with processor-sharing contention and
//!   background load, FIFO disks, and network links ([`resources`]),
//! * cluster topologies with per-host NICs and inter-cluster backbones
//!   ([`topology`]), including presets for the paper's Red / Blue / Rogue /
//!   Deathstar testbed ([`presets`]).
//!
//! Application code (filters, schedulers) is ordinary imperative Rust that
//! runs on real threads; only *time* is virtual. Runs are bit-for-bit
//! reproducible: events are ordered by `(virtual time, sequence number)`
//! and exactly one process executes at any instant.

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod load;
mod pool;
pub mod presets;
pub mod resources;
pub mod sync;
pub mod time;
pub mod topology;

pub use engine::{Env, ProcessId, RunStats, SimError, Simulation, Step, Waker};
pub use fault::{splitmix64, DiskFaultKind, FaultPlan};
pub use load::{drive_load, spawn_load_generator, LoadProfile};
pub use resources::{Cpu, Disk, Link};
pub use sync::{channel, Barrier, DeadlineRecv, Receiver, Semaphore, SendError, Sender};
pub use time::{SimDuration, SimTime};
pub use topology::{
    ClusterId, ClusterSpec, Host, HostId, HostSpec, HostUtilization, Topology, TopologyBuilder,
    Transfer,
};
