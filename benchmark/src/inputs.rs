//! Seeded inputs and the sizes each workload runs at.
//!
//! Every input is a pure function of the workload seed. Where a workload
//! fixes a privacy property of its inputs (anonymize-mix: none is already
//! private; service-mix misses: all are), candidates are drawn from
//! successive derived seeds until one has it; the property is decided by
//! the input's own anonymity check, never by how the program handles it.

use crate::layers;
use chameleon_datasets::synth;
use chameleon_stats::SeedSequence;
use chameleon_ugraph::UncertainGraph;

/// Engine threads for every in-process run: the two cores the benchmark
/// is sized for.
pub const ENGINE_THREADS: usize = 2;

/// Candidates tried before an input property is declared unreachable.
const MAX_DRAWS: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Brightkite,
    Dblp,
    Ppi,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Brightkite, Kind::Dblp, Kind::Ppi];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Brightkite => "brightkite",
            Kind::Dblp => "dblp",
            Kind::Ppi => "ppi",
        }
    }

    pub fn generate(self, nodes: usize, seed: u64) -> UncertainGraph {
        match self {
            Kind::Brightkite => synth::brightkite_like(nodes, seed),
            Kind::Dblp => synth::dblp_like(nodes, seed),
            Kind::Ppi => synth::ppi_like(nodes, seed),
        }
    }
}

/// A generated input and the ε̂ its own expected degrees give it.
pub struct Input {
    pub graph: UncertainGraph,
    pub eps_hat: f64,
}

/// Draws `kind` graphs from seeds derived from `(seq, label)` until one is
/// (`private`) or is not (`!private`) already (k, ε)-obfuscated.
pub fn draw(
    seq: &SeedSequence,
    label: &str,
    kind: Kind,
    nodes: usize,
    k: usize,
    epsilon: f64,
    private: bool,
) -> Result<Input, String> {
    for attempt in 0..MAX_DRAWS {
        let graph = kind.generate(nodes, seq.derive_indexed(label, attempt));
        let eps_hat = layers::audit(&graph, &graph, k).eps_hat;
        if (eps_hat <= epsilon) == private {
            return Ok(Input { graph, eps_hat });
        }
    }
    Err(format!(
        "{label}: no {} input (private={private}) at k={k} eps={epsilon} in {MAX_DRAWS} draws",
        kind.name()
    ))
}

/// Sizes and rates. `full` is the benchmark; `small` keeps every code
/// path and check but finishes in seconds, for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Scale {
    // anonymize-mix
    pub anon_nodes: usize,
    pub anon_per_kind: usize,
    /// Target (k, ε) per kind (brightkite, dblp, ppi).
    pub anon_k: [usize; 3],
    pub anon_epsilon: [f64; 3],
    pub anon_worlds: usize,
    // service-mix
    pub hit_nodes: usize,
    pub hit_graphs_per_backend: usize,
    pub hit_k: usize,
    pub hit_epsilon: f64,
    pub miss_nodes: (usize, usize),
    pub miss_k: usize,
    pub miss_epsilon: f64,
    pub rate_per_s: f64,
    pub miss_share: f64,
    /// Requests per closed-loop burst, two per backend of them misses
    /// drawn from a ladder of this many (even) graph sizes per backend.
    pub burst: usize,
    pub burst_pool_per_backend: usize,
    // utility audit
    pub disc_worlds: usize,
    pub disc_pairs: usize,
    /// Worlds per strip when anonymize-mix's audit streams its ensembles.
    pub disc_strip: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            anon_nodes: 2000,
            anon_per_kind: 6,
            anon_k: [100; 3],
            // dblp-like graphs at k=100 cannot always reach ε=0.01 (their
            // best reachable ε̂ is 0.011–0.014); 0.025 keeps every seed
            // feasible while the inputs still need noise.
            anon_epsilon: [0.01, 0.025, 0.01],
            anon_worlds: 1000,
            hit_nodes: 2000,
            hit_graphs_per_backend: 2,
            hit_k: 100,
            hit_epsilon: 0.01,
            miss_nodes: (200, 400),
            miss_k: 5,
            miss_epsilon: 0.05,
            // Measured at 24/s: workers 0.36–0.42 busy (20/s: 0.43 on a slower
            // period of the same host).
            rate_per_s: 24.0,
            miss_share: 0.1,
            burst: 40,
            burst_pool_per_backend: 8,
            disc_worlds: 200,
            disc_pairs: 500,
            disc_strip: 64,
        }
    }

    pub fn small() -> Self {
        Self {
            anon_nodes: 300,
            anon_per_kind: 1,
            anon_k: [60, 30, 60],
            anon_epsilon: [0.005, 0.005, 0.01],
            anon_worlds: 100,
            hit_nodes: 300,
            hit_graphs_per_backend: 1,
            hit_k: 60,
            hit_epsilon: 0.005,
            miss_nodes: (60, 100),
            miss_k: 5,
            miss_epsilon: 0.05,
            rate_per_s: 20.0,
            miss_share: 0.1,
            burst: 8,
            burst_pool_per_backend: 2,
            disc_worlds: 100,
            disc_pairs: 100,
            disc_strip: 64,
        }
    }
}
