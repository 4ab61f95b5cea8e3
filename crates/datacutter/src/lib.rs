//! # datacutter — a filter-stream component framework with transparent
//! copies
//!
//! A Rust reproduction of the DataCutter component framework as described
//! in Beynon et al., *"Efficient Manipulation of Large Datasets on
//! Heterogeneous Storage Systems"* (IPDPS 2002):
//!
//! * applications decompose into **filters** with `init` / `process` /
//!   `finalize` callbacks ([`filter`]),
//! * filters communicate over unidirectional **streams** moving fixed-size
//!   buffers ([`buffer`]),
//! * a filter may run as multiple **transparent copies** across hosts; all
//!   copies on one host form a *copy set* sharing a demand-balanced queue
//!   ([`graph`], [`runtime`]),
//! * producers distribute buffers between copy sets under one of three
//!   **writer policies** — round robin, weighted round robin, or a
//!   demand-driven sliding window with acknowledgments ([`policy`]),
//! * every run yields per-copy and per-stream [`metrics`].
//!
//! Execution is substrate-pluggable (see [`runtime`]): by default a run
//! executes on the `hetsim` emulated cluster, where computation, disk
//! reads, buffer transfers, and DD acknowledgments are all charged to the
//! virtual clock, so heterogeneity (CPU speed, background load, slow
//! links, skewed data) shapes pipeline behaviour exactly as in the paper's
//! testbed — deterministically. The same graph also runs natively on real
//! OS threads via `Run::new(graph).executor(NativeExecutor::new())`.
//!
//! ```
//! use datacutter::{DataBuffer, Filter, FilterCtx, FilterError, GraphBuilder,
//!                  Placement, Run, WritePolicy};
//! use hetsim::{ClusterSpec, HostSpec, HostId, SimDuration, TopologyBuilder};
//!
//! struct Produce;
//! impl Filter for Produce {
//!     fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
//!         for i in 0..4u32 {
//!             ctx.write(0, DataBuffer::new(i, 1024));
//!         }
//!         Ok(())
//!     }
//! }
//! struct Consume;
//! impl Filter for Consume {
//!     fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
//!         while let Some(b) = ctx.read(0) {
//!             ctx.compute(SimDuration::from_millis(b.downcast::<u32>() as u64));
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let mut b = TopologyBuilder::new();
//! let c = b.add_cluster(ClusterSpec { name: "c".into(),
//!     nic_bandwidth_bps: 1e8, nic_latency: SimDuration::from_micros(50) });
//! let h0 = b.add_host(c, HostSpec { name: "h0".into(), cores: 1, speed: 1.0,
//!     mem_mb: 256, disks: 1, disk_bandwidth_bps: 3e7,
//!     disk_seek: SimDuration::from_millis(5) });
//! let h1 = b.add_host(c, HostSpec { name: "h1".into(), cores: 1, speed: 1.0,
//!     mem_mb: 256, disks: 1, disk_bandwidth_bps: 3e7,
//!     disk_seek: SimDuration::from_millis(5) });
//! let topo = b.build();
//!
//! let mut g = GraphBuilder::new();
//! let p = g.add_filter("produce", Placement::on_host(h0, 1), |_| Produce);
//! let q = g.add_filter("consume", Placement::on_host(h1, 2), |_| Consume);
//! g.connect(p, q, WritePolicy::demand_driven());
//! let report = Run::new(g.build()).go(&topo).unwrap();
//! assert_eq!(report.stream(datacutter::StreamId(0)).total_buffers(), 4);
//! ```

#![warn(missing_docs)]
// The whole crate hosts the delivery path and the panic-containment and
// recovery machinery it runs under; an `unwrap`/`expect` anywhere here
// is an uncontained panic path, so the banned-method list in the
// workspace `clippy.toml` is an error (test modules opt out).
#![deny(clippy::disallowed_methods)]

pub mod budget;
pub mod buffer;
pub mod context;
pub mod fault;
pub mod filter;
pub mod graph;
pub mod metrics;
pub mod policy;
pub mod runtime;
pub mod storage;

pub use budget::{MemoryBudget, SpillRing, SpillTicket, StreamOoc};
pub use buffer::{
    BufferSlab, DataBuffer, SpillCodec, ACK_WIRE_BYTES, BUFFER_OVERHEAD_BYTES, SPILL_STUB_BYTES,
};
pub use context::FilterCtx;
pub use fault::{FaultOptions, RunError};
pub use filter::{CopyInfo, Filter, FilterError, FilterFactory};
pub use graph::{AppGraph, FilterId, GraphBuilder, Placement, StreamId, DEFAULT_QUEUE_CAPACITY};
pub use hetsim::DiskFaultKind;
pub use metrics::{CopyCounters, CopyReport, FaultReport, OocReport, RunReport, StreamReport};
pub use policy::{CopySetInfo, DemandState, WritePolicy};
pub use runtime::{ExecutorChoice, NativeExecutor, Run, SimExecutor, TaskedExecutor};
pub use storage::{
    backoff_delay, open_frame, seal_frame, StorageCtl, StorageError, StorageEvent,
    DEFAULT_STORAGE_RETRY_BUDGET,
};
