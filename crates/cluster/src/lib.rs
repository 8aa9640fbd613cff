//! # gpsim-cluster
//!
//! A discrete-event cluster simulator: the substrate standing in for the
//! DAS5 cluster the Granula paper ran on.
//!
//! Platforms compile a job into an [`ActivityGraph`] — a DAG of activities
//! (compute, disk I/O, network transfers, fixed latencies) bound to cluster
//! nodes — and the [`sim::Simulation`] executes it under **max-min fair
//! sharing** of every resource (node cores, disk bandwidth, NIC bandwidth,
//! shared-filesystem server bandwidth). The simulator produces, for every
//! activity, its start/end time, and for every node a per-second
//! resource-usage trace ([`UsageTrace`]) — exactly the two kinds of data
//! (platform logs and environment logs) the Granula monitoring stage
//! consumes.
//!
//! Also provided: the HDFS-like distributed file system ([`fs`]), which
//! decomposes a logical read or write into disk and network activities.

pub mod activity;
pub mod fault;
pub mod fs;
pub mod intern;
pub mod resources;
#[doc(hidden)]
pub mod sched;
pub mod sim;
pub mod topology;
pub mod trace;

pub use activity::{ActivityGraph, ActivityId, ActivityKind, ActivityRef};
pub use fault::{DegradedChannel, FaultEvent, FaultPlan, NodeCrash, Slowdown};
pub use intern::Symbol;
pub use sim::{ActivityResult, RefillMode, SimError, SimResult, Simulation};
pub use topology::{ClusterSpec, NodeId, NodeSpec};
pub use trace::UsageTrace;
