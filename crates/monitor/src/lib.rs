//! # granula-monitor
//!
//! The Granula **monitoring** stage (paper §3.3, P2).
//!
//! Two types of performance data are collected while platform jobs run:
//!
//! 1. **platform logs** reveal the internal operations of the platform —
//!    modelled here as a stream of [`LogEvent`]s in a small text grammar that
//!    instrumented platforms emit and [`event::parse_line`] recovers;
//! 2. **environment logs** reveal the performance impact on the underlying
//!    cluster — modelled as [`ResourceSample`] time series per node.
//!
//! The crate also owns the machinery that turns distributed, interleaved,
//! possibly skewed and lossy logs back into one coherent
//! [`granula_model::OperationTree`]: clock-skew correction
//! ([`clock::SkewCorrector`]), model-driven filtering ([`filter::EventFilter`])
//! and assembly ([`assemble::Assembler`]).
//!
//! ```
//! use granula_monitor::Assembler;
//!
//! let logs = [
//!     "INFO some ordinary platform logging",
//!     "GRANULA 0 node01 client START Job-0@Job-0",
//!     "GRANULA 9000000 node01 client END Job-0@Job-0",
//! ];
//! let outcome = Assembler::new().assemble_lines(logs);
//! assert!(outcome.warnings.is_empty());
//! assert_eq!(outcome.tree.len(), 1);
//! ```

pub mod assemble;
pub mod clock;
pub mod collect;
pub mod env;
pub mod event;
pub mod filter;

pub use assemble::{Assembler, AssemblyOutcome, AssemblyWarning};
pub use clock::SkewCorrector;
pub use collect::{collect_dir, write_env_logs, write_logs, CollectStats, MAX_LINE};
pub use env::{EnvLog, NodeUsage, ResourceKind, ResourceSample};
pub use event::{parse_line, EventPayload, LogEvent};
pub use filter::EventFilter;
