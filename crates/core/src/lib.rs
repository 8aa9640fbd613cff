//! # granula
//!
//! Granula: a fine-grained performance-analysis system for Big Data
//! (graph-processing) platforms — a Rust reproduction of
//! *"Granula: Toward Fine-grained Performance Analysis of Large-scale Graph
//! Processing Platforms"* (Ngai, Hegeman, Heldens, Iosup, 2017).
//!
//! Granula facilitates the complex, end-to-end process of fine-grained
//! performance **modeling**, **monitoring**, **archiving** and
//! **visualization** (the four sub-processes of paper Figure 2, implemented
//! by [`process::EvaluationProcess`]). Analysts build performance models
//! incrementally — domain, system, implementation levels — and Granula
//! automates the repetitive work: filtering monitored events against the
//! model, assembling distributed logs into an operation tree, deriving
//! metrics by rule, mapping environment resource data onto operations, and
//! rendering the archives.
//!
//! This crate ties the substrates together and ships:
//!
//! * a model library for the simulated Giraph and PowerGraph platforms
//!   ([`models`], mirroring paper Figure 4),
//! * the end-to-end evaluation process ([`process`]),
//! * domain-level metrics and cross-platform comparison ([`metrics`],
//!   paper §3.4 and Figure 5),
//! * the platform-diversity registry ([`registry`], paper Table 1),
//! * the calibrated dg1000/DAS5 experiment setup ([`calibration`],
//!   [`experiment`]) used to regenerate the paper's figures: one
//!   experiment path, [`run_experiment_on`], runs any [`Engine`] (a
//!   platform and its knobs) on a cluster under a fault plan and
//!   evaluates the run; [`run_experiment`] is its default-knob,
//!   fault-free form on the DAS5-like cluster,
//! * a performance-regression harness ([`regression`], paper §6).

pub mod analysis;
pub mod benchmark;
pub mod calibration;
pub mod datasets;
pub mod experiment;
pub mod metrics;
pub mod models;
pub mod process;
pub mod registry;
pub mod regression;

pub use analysis::{diagnose, find_choke_points, ChokePoint, ChokePointConfig, FailureReport};
pub use benchmark::{BenchmarkReport, BenchmarkRow, BenchmarkSuite};
pub use experiment::{run_experiment, run_experiment_on, ExperimentResult, Platform};
pub use gpsim_platforms::Engine;
pub use metrics::{DomainBreakdown, Phase};
pub use process::{EvaluationProcess, EvaluationReport};
