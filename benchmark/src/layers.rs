//! Every call the benchmark makes into the program, one call site per
//! layer call. Each wraps a public entry point of `ugraph`, `reliability`,
//! `core` or `server` in a benchmark-side span, so a traced run splits
//! time by layer without instrumenting the program. An API change in a
//! layer (for instance folding the `_threads`/`_streamed` estimator twins
//! into one entry point) changes one line here.

use chameleon_core::{
    anonymity_check, AdversaryKnowledge, AnonymityReport, Chameleon, ChameleonConfig, Method,
    ObfuscationResult,
};
use chameleon_reliability::{avg_reliability_discrepancy, EnsembleStream, WorldEnsemble};
use chameleon_server::protocol::{self, Request};
use chameleon_server::JobSpec;
use chameleon_stats::alloc_guard::BudgetExceeded;
use chameleon_ugraph::builder::DedupPolicy;
use chameleon_ugraph::{io, NodeId, UncertainGraph};
use std::path::Path;

pub fn read_graph(path: &Path) -> Result<UncertainGraph, String> {
    let _span = chameleon_obs::span!("bench.io.read");
    io::read_file(path, DedupPolicy::KeepFirst).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_graph(graph: &UncertainGraph, path: &Path) -> Result<(), String> {
    let _span = chameleon_obs::span!("bench.io.write");
    io::write_file(graph, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The edge-list text the daemon protocol carries inline.
pub fn graph_text(graph: &UncertainGraph) -> String {
    let mut out = Vec::new();
    io::write_text(graph, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("edge-list text is ASCII")
}

pub fn parse_graph_text(text: &str) -> Result<UncertainGraph, String> {
    io::read_text(text.as_bytes(), DedupPolicy::KeepFirst).map_err(|e| e.to_string())
}

pub fn anonymize(
    graph: &UncertainGraph,
    config: &ChameleonConfig,
    seed: u64,
) -> Result<ObfuscationResult, String> {
    let _span = chameleon_obs::span!("bench.core.anonymize");
    Chameleon::new(config.clone())
        .anonymize(graph, Method::Rsme, seed)
        .map_err(|e| e.to_string())
}

/// The independent privacy audit of a release: the adversary knows the
/// input's expected degrees.
pub fn audit(release: &UncertainGraph, input: &UncertainGraph, k: usize) -> AnonymityReport {
    anonymity_check(release, &AdversaryKnowledge::expected_degrees(input), k)
}

/// Mean per-pair reliability discrepancy of `release` against `input`
/// over a fixed world count, seed and pair set.
pub fn discrepancy(
    input: &UncertainGraph,
    release: &UncertainGraph,
    worlds: usize,
    seed: u64,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> f64 {
    let a = WorldEnsemble::sample_seeded(input, worlds, seed, threads);
    let b = WorldEnsemble::sample_seeded(release, worlds, seed, threads);
    avg_reliability_discrepancy(&a, &b, pairs).avg
}

pub fn sample_stream<'g>(
    graph: &'g UncertainGraph,
    worlds: usize,
    seed: u64,
    threads: usize,
    strip: usize,
) -> Result<EnsembleStream<'g>, BudgetExceeded> {
    let _span = chameleon_obs::span!("bench.reliability.sample");
    EnsembleStream::sample(graph, worlds, seed, threads, strip)
}

pub fn pair_reliability(
    stream: &EnsembleStream<'_>,
    pairs: &[(NodeId, NodeId)],
) -> Result<Vec<f64>, BudgetExceeded> {
    let _span = chameleon_obs::span!("bench.reliability.pairs");
    stream.reliability_many(pairs)
}

/// The in-RAM pair reliabilities the streamed ones must equal bit for bit.
pub fn dense_reliability(
    graph: &UncertainGraph,
    worlds: usize,
    seed: u64,
    threads: usize,
    pairs: &[(NodeId, NodeId)],
) -> Vec<f64> {
    WorldEnsemble::sample_seeded(graph, worlds, seed, threads).reliability_many(pairs)
}

pub fn parse_request(line: &str) -> Result<Request, String> {
    protocol::parse_request(line).map_err(|(_, msg)| msg)
}

/// Runs a job spec in-process, as a daemon worker would on a cache miss.
pub fn execute_job(spec: &JobSpec) -> Result<String, String> {
    spec.execute(&chameleon_core::CancelToken::new())
        .map_err(|e| format!("{e:?}"))
}

/// The reply line a daemon sends for `result`.
pub fn ok_reply(id: &str, cached: bool, result: &str) -> String {
    protocol::ok_response(Some(id), cached, result)
}
