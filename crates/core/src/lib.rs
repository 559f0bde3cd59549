//! **Red-QAOA**: efficient variational optimization through circuit reduction.
//!
//! This crate is the Rust implementation of the paper's contribution
//! (ASPLOS 2024). Red-QAOA replaces the noise-sensitive QAOA
//! parameter-optimization loop on a large input graph `G` with the same loop
//! on a *distilled* graph `G'` whose energy landscape is nearly identical.
//! The distilled graph is found by a simulated-annealing search that matches
//! the Average Node Degree (AND) of `G` (Algorithm 1), wrapped in a binary
//! search over the subgraph size so the smallest acceptable graph is used.
//! Once parameters converge on `G'` they are transferred back to `G` for the
//! final solution-finding step.
//!
//! Module map:
//!
//! * [`engine`] — the batched, session-oriented front door: a validated
//!   [`engine::Engine`] owning thread policy and a content-hash reduction
//!   cache, running typed jobs one-shot or in deterministic batches. Its
//!   [`engine::OptimizeJob`] is the end-to-end Red-QAOA loop (reduce →
//!   optimize on `G'` → transfer → refine on `G`). The modules below are
//!   the low-level layer it is built from.
//! * [`annealing`] — Algorithm 1: simulated-annealing subgraph search with
//!   constant and adaptive cooling (exposed stagnation knobs), cold and
//!   warm-seeded entry points.
//! * [`sa_state`] — the incremental move evaluator behind the annealer:
//!   O(deg) AND deltas, deduplicated boundary proposals, and
//!   neighborhood-limited connectivity with zero steady-state allocations.
//! * [`reduction`] — the search for the smallest subgraph size that keeps
//!   the AND ratio (the size floor first, then a warm-startable binary
//!   search above it), the node/edge-reduction bookkeeping, and the
//!   deterministic parallel [`reduction::reduce_pool`] over graph slices.
//! * [`mse`] — ideal and noisy energy-landscape comparisons between the
//!   original and reduced graphs (the paper's headline metric).
//! * [`pipeline`] — the noisy Red-QAOA pipeline (Figures 19–20): optimize
//!   the reduced and the full circuit under the same noise, then re-score
//!   both ideally on `G`.
//! * [`transfer`] — the optimize-small, score-big transfer protocol behind
//!   [`engine::OptimizeJob`] (with its refine step), and the
//!   parameter-transfer baseline built on random regular surrogate graphs
//!   (Section 5.6 / Figure 21).
//! * [`throughput`] — the multi-programming throughput model (Figure 25).
//!
//! # Example
//!
//! ```
//! use graphlib::generators::connected_gnp;
//! use red_qaoa::reduction::{reduce, ReductionOptions};
//!
//! let mut rng = mathkit::rng::seeded(7);
//! let graph = connected_gnp(12, 0.35, &mut rng).unwrap();
//! let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).unwrap();
//! assert!(reduced.subgraph.graph.node_count() <= graph.node_count());
//! assert!(reduced.and_ratio >= 0.7 - 1e-9);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annealing;
pub mod engine;
pub mod mse;
pub mod pipeline;
pub mod reduction;
pub mod sa_state;
pub mod throughput;
pub mod transfer;

/// Errors produced by the Red-QAOA engine.
///
/// Configuration errors carry the name of the offending field and the value
/// that was rejected, so a failed [`engine::EngineBuilder::build`] or options
/// builder call can be traced to one concrete input without re-running
/// anything. Batched jobs ([`engine::Engine::run_batch`]) wrap per-job
/// failures in [`RedQaoaError::Job`] so the caller knows *which* job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedQaoaError {
    /// The input graph cannot be reduced (too small, edgeless, or empty).
    GraphNotReducible(&'static str),
    /// A configuration field was outside its documented domain.
    InvalidParameter {
        /// Name of the offending configuration field.
        field: &'static str,
        /// The rejected value, rendered for the error message.
        value: String,
        /// The documented domain the value violated.
        reason: &'static str,
    },
    /// A dataset, batch, or fit had no usable input left after filtering.
    EmptyInput(&'static str),
    /// A batched job failed; carries the job's index within the batch.
    Job {
        /// Index of the failed job in the submitted batch.
        index: usize,
        /// The underlying failure.
        source: Box<RedQaoaError>,
    },
    /// A job panicked; carries the panic message. The engine reports it
    /// like any other job failure, so the batch's other jobs still run.
    JobPanicked(String),
    /// An error bubbled up from the graph substrate.
    Graph(graphlib::GraphError),
    /// An error bubbled up from the QAOA library.
    Qaoa(qaoa::QaoaError),
}

impl RedQaoaError {
    /// Builds an [`RedQaoaError::InvalidParameter`] for `field`, rendering
    /// the offending `value` into the message.
    pub fn invalid_parameter(
        field: &'static str,
        value: impl std::fmt::Display,
        reason: &'static str,
    ) -> Self {
        RedQaoaError::InvalidParameter {
            field,
            value: value.to_string(),
            reason,
        }
    }

    /// Wraps an error with the index of the batched job that produced it.
    pub fn for_job(index: usize, source: RedQaoaError) -> Self {
        RedQaoaError::Job {
            index,
            source: Box::new(source),
        }
    }

    /// The name of the offending configuration field, when the error is a
    /// validation failure (possibly wrapped in a [`RedQaoaError::Job`]).
    pub fn field(&self) -> Option<&'static str> {
        match self {
            RedQaoaError::InvalidParameter { field, .. } => Some(field),
            RedQaoaError::Job { source, .. } => source.field(),
            _ => None,
        }
    }
}

impl std::fmt::Display for RedQaoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedQaoaError::GraphNotReducible(what) => write!(f, "graph not reducible: {what}"),
            RedQaoaError::InvalidParameter {
                field,
                value,
                reason,
            } => {
                write!(f, "invalid parameter `{field}` = {value}: {reason}")
            }
            RedQaoaError::EmptyInput(what) => write!(f, "empty input: {what}"),
            RedQaoaError::Job { index, source } => write!(f, "job {index}: {source}"),
            RedQaoaError::JobPanicked(message) => write!(f, "job panicked: {message}"),
            RedQaoaError::Graph(e) => write!(f, "graph error: {e}"),
            RedQaoaError::Qaoa(e) => write!(f, "qaoa error: {e}"),
        }
    }
}

impl std::error::Error for RedQaoaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RedQaoaError::Job { source, .. } => Some(source.as_ref()),
            RedQaoaError::Graph(e) => Some(e),
            RedQaoaError::Qaoa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<graphlib::GraphError> for RedQaoaError {
    fn from(e: graphlib::GraphError) -> Self {
        RedQaoaError::Graph(e)
    }
}

impl From<qaoa::QaoaError> for RedQaoaError {
    fn from(e: qaoa::QaoaError) -> Self {
        RedQaoaError::Qaoa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_and_convert() {
        let e: RedQaoaError = graphlib::GraphError::SelfLoop(1).into();
        assert!(e.to_string().contains("graph error"));
        let e: RedQaoaError = qaoa::QaoaError::DegenerateGraph.into();
        assert!(e.to_string().contains("qaoa error"));
        assert!(!RedQaoaError::GraphNotReducible("x").to_string().is_empty());
        assert!(!RedQaoaError::EmptyInput("y").to_string().is_empty());
    }

    #[test]
    fn invalid_parameter_names_field_and_value() {
        let e = RedQaoaError::invalid_parameter("and_ratio_threshold", 1.5, "must be in (0, 1]");
        assert_eq!(e.field(), Some("and_ratio_threshold"));
        let message = e.to_string();
        assert!(message.contains("and_ratio_threshold"), "{message}");
        assert!(message.contains("1.5"), "{message}");
        assert!(message.contains("(0, 1]"), "{message}");
    }

    #[test]
    fn job_errors_carry_the_index_and_inner_error() {
        let inner = RedQaoaError::invalid_parameter("min_size", 0, "must be at least 2");
        let e = RedQaoaError::for_job(3, inner.clone());
        assert_eq!(e.field(), Some("min_size"));
        assert!(e.to_string().starts_with("job 3:"), "{e}");
        use std::error::Error;
        assert_eq!(e.source().map(|s| s.to_string()), Some(inner.to_string()));
    }
}
