//! One GenObf trial as a delta over the input graph (DESIGN.md §6d, §6e).
//!
//! A GenObf trial is a deterministic function of `(graph, selection, σ,
//! ρ)` where ρ is the trial's random tape: the candidate selection plus,
//! per candidate, a white-noise coin, a magnitude uniform, and (for the
//! unguided strategy) a sign bit. Crucially σ only enters *after* the tape
//! — the truncated-normal draw is inverse-CDF sampling, `r = F⁻¹_σ(u)` —
//! so one recorded tape can be re-evaluated at any σ.
//!
//! * [`TrialTape`] holds that randomness, drawn in the order the trial
//!   consumes it, and turns it into one perturbed probability per
//!   candidate at a given σ.
//! * [`TrialOverlay`] is the trial's graph without the graph: a
//!   probability per input edge plus the injected edges. The anonymity
//!   check reads each vertex's incident probabilities straight from it, in
//!   the order `add_edge` would have produced, so the report is
//!   bit-identical to checking the materialized graph. Only the search's
//!   final winner is ever materialized.
//! * [`TrialPlan`] is the incremental search's trial (§6d): a tape
//!   recorded once, re-evaluated per σ probe against a degree-pmf cache in
//!   which only vertices incident to candidates are rebuilt.
//!
//! The plain search draws a fresh tape per trial and checks its overlay in
//! full; the incremental search records call 0's tapes and reuses them.
//! Both evaluate through the same tape and overlay code, so call 0 is
//! bit-identical with the toggle on or off.

use crate::anonymity::{
    anonymity_check_cached, check_dense, check_streamed, AdversaryKnowledge, AnonymityReport,
    DegreePmfCache, IncidentProbs,
};
use crate::candidate::{select_candidates, CandidateEdge, EdgeLookup, VertexSampler};
use crate::config::ChameleonConfig;
use crate::perturb::PerturbStrategy;
use chameleon_stats::TruncatedNormal;
use chameleon_ugraph::{NodeId, UncertainGraph};
use rand::Rng;

/// One trial's randomness: its candidates and, per candidate, the draws
/// that the perturbation transforms at a given σ.
#[derive(Debug, Clone)]
pub(crate) struct TrialTape {
    candidates: Vec<CandidateEdge>,
    /// Per-candidate selection weight `Q^e` and its trial aggregates —
    /// kept separate (not pre-divided) so σ_e is the exact float
    /// expression `σ·Q^e / mean(Q^e)`.
    q_edge: Vec<f64>,
    q_sum: f64,
    q_mean: f64,
    /// White-noise coin uniform per candidate.
    coin: Vec<f64>,
    /// Magnitude uniform per candidate: the white-noise value itself, or
    /// the quantile fed to the truncated normal's inverse CDF.
    value: Vec<f64>,
    /// Unguided-strategy sign per candidate (empty for max-entropy).
    sign_up: Vec<bool>,
}

impl TrialTape {
    /// Draws the per-candidate randomness from `rng` in the order of paper
    /// Algorithm 3 lines 17–23: per candidate a white-noise coin, one
    /// magnitude uniform (both noise branches consume exactly one), and
    /// for the unguided strategy a sign.
    pub(crate) fn draw<R: Rng + ?Sized>(
        candidates: Vec<CandidateEdge>,
        selection: &[f64],
        strategy: PerturbStrategy,
        rng: &mut R,
    ) -> Self {
        // Noise budgets (σ(e) ∝ Q^e, mean σ(e) = σ; §V-E).
        let q_edge: Vec<f64> = candidates
            .iter()
            .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]))
            .collect();
        let q_sum: f64 = q_edge.iter().sum();
        let q_mean = if q_sum > 0.0 {
            q_sum / candidates.len() as f64
        } else {
            1.0
        };
        let mut coin = Vec::with_capacity(candidates.len());
        let mut value = Vec::with_capacity(candidates.len());
        let mut sign_up = Vec::new();
        for _ in &candidates {
            coin.push(rng.gen::<f64>());
            value.push(rng.gen::<f64>());
            if strategy == PerturbStrategy::Unguided {
                sign_up.push(rng.gen::<bool>());
            }
        }
        Self {
            candidates,
            q_edge,
            q_sum,
            q_mean,
            coin,
            value,
            sign_up,
        }
    }

    /// The trial's candidates: surviving input edges by id, then injected
    /// pairs in draw order.
    pub(crate) fn candidates(&self) -> &[CandidateEdge] {
        &self.candidates
    }

    /// Writes every candidate's perturbed probability at `sigma` into
    /// `overlay`: `r` is the white-noise value or the truncated normal's
    /// quantile of the magnitude uniform, then the strategy's rule.
    pub(crate) fn perturb_into(
        &self,
        sigma: f64,
        strategy: PerturbStrategy,
        white_noise: f64,
        overlay: &mut TrialOverlay<'_>,
    ) {
        let mut added = 0;
        for (i, cand) in self.candidates.iter().enumerate() {
            let sigma_e = if self.q_sum > 0.0 {
                (sigma * self.q_edge[i] / self.q_mean).clamp(1e-9, 3.0)
            } else {
                sigma.clamp(1e-9, 3.0)
            };
            let r = if self.coin[i] < white_noise {
                self.value[i]
            } else {
                TruncatedNormal::half_unit(sigma_e.max(1e-9)).inverse_cdf(self.value[i])
            };
            let up = self.sign_up.get(i).copied().unwrap_or(true);
            let p = strategy.apply_signed(cand.p, r, up);
            match cand.existing {
                Some(e) => overlay.probs[e as usize] = p,
                None => {
                    overlay.added_p[added] = p;
                    added += 1;
                }
            }
        }
    }
}

/// A trial's perturbed graph as a delta over the input graph.
#[derive(Debug, Clone)]
pub(crate) struct TrialOverlay<'g> {
    base: &'g UncertainGraph,
    /// Probability of every input edge in the trial graph.
    probs: Vec<f64>,
    /// Injected edges in candidate order (the order `add_edge` appends
    /// them) and their probabilities.
    added: Vec<(NodeId, NodeId)>,
    added_p: Vec<f64>,
    /// Per vertex, the injected edges incident to it, ascending (CSR:
    /// `added_at[added_off[v]..added_off[v + 1]]` index `added`).
    added_off: Vec<u32>,
    added_at: Vec<u32>,
}

impl<'g> TrialOverlay<'g> {
    /// The overlay of `base` for `candidates`, with every probability
    /// still at its input value (injected edges at 0).
    pub(crate) fn new(base: &'g UncertainGraph, candidates: &[CandidateEdge]) -> Self {
        let added: Vec<(NodeId, NodeId)> = candidates
            .iter()
            .filter(|c| c.existing.is_none())
            .map(|c| (c.u, c.v))
            .collect();
        let n = base.num_nodes();
        let mut added_off = vec![0u32; n + 1];
        for &(u, v) in &added {
            added_off[u as usize + 1] += 1;
            added_off[v as usize + 1] += 1;
        }
        for v in 0..n {
            added_off[v + 1] += added_off[v];
        }
        let mut fill = added_off.clone();
        let mut added_at = vec![0u32; 2 * added.len()];
        for (i, &(u, v)) in added.iter().enumerate() {
            for w in [u, v] {
                added_at[fill[w as usize] as usize] = i as u32;
                fill[w as usize] += 1;
            }
        }
        Self {
            base,
            probs: base.edges().iter().map(|e| e.p).collect(),
            added_p: vec![0.0; added.len()],
            added,
            added_off,
            added_at,
        }
    }

    /// Anonymity check of the trial graph (paper Algorithm 3 line 24):
    /// the dense check, or the strip-streamed one when `strip_worlds` is
    /// set — each bit-identical to checking the materialized graph.
    pub(crate) fn check(
        &self,
        knowledge: &AdversaryKnowledge,
        cfg: &ChameleonConfig,
        threads: usize,
    ) -> AnonymityReport {
        if cfg.strip_worlds > 0 {
            check_streamed(self, knowledge, cfg.k, cfg.strip_worlds, threads)
        } else {
            check_dense(self, knowledge, cfg.k, threads)
        }
    }

    /// Builds the trial graph: the input with every probability replaced,
    /// then the injected edges appended in candidate order — the same
    /// graph, edge ids and adjacency order as cloning the input and
    /// perturbing it in place.
    pub(crate) fn materialize(&self) -> UncertainGraph {
        let _s = chameleon_obs::span!("genobf.clone");
        let mut g = self.base.clone();
        for (e, &p) in self.probs.iter().enumerate() {
            g.set_prob(e as u32, p).expect("edge exists");
        }
        for (&(u, v), &p) in self.added.iter().zip(&self.added_p) {
            g.add_edge(u, v, p).expect("candidate was a non-edge");
        }
        g
    }
}

impl IncidentProbs for TrialOverlay<'_> {
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Input adjacency first, then injected edges in candidate order:
    /// exactly the adjacency `add_edge` builds.
    fn incident_probs(&self, v: NodeId) -> Vec<f64> {
        let adj = self.base.neighbors(v);
        let extra = &self.added_at
            [self.added_off[v as usize] as usize..self.added_off[v as usize + 1] as usize];
        let mut out = Vec::with_capacity(adj.len() + extra.len());
        out.extend(adj.iter().map(|&(_, e)| self.probs[e as usize]));
        out.extend(extra.iter().map(|&i| self.added_p[i as usize]));
        out
    }
}

/// One GenObf trial's recorded tape and overlay, re-evaluable at any σ
/// against a degree-pmf cache (the incremental search, §6d).
#[derive(Debug, Clone)]
pub(crate) struct TrialPlan<'g> {
    tape: TrialTape,
    overlay: TrialOverlay<'g>,
    /// Vertices incident to a candidate: the only pmfs a probe changes.
    touched: Vec<NodeId>,
    /// Degree pmfs: base-graph values for untouched vertices (shared with
    /// every probe), overwritten per probe for touched vertices.
    cache: DegreePmfCache,
}

impl<'g> TrialPlan<'g> {
    /// Records one trial's tape from `rng`, consuming draws in exactly the
    /// order the plain trial does: candidate selection first, then coin,
    /// value and (unguided only) sign per candidate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record<R: Rng + ?Sized>(
        graph: &'g UncertainGraph,
        lookup: &EdgeLookup,
        sampler: &VertexSampler,
        cfg: &ChameleonConfig,
        strategy: PerturbStrategy,
        selection: &[f64],
        base_cache: &DegreePmfCache,
        rng: &mut R,
    ) -> Self {
        let candidates = select_candidates(graph, lookup, sampler, cfg.size_multiplier, rng);
        let tape = TrialTape::draw(candidates, selection, strategy, rng);
        let overlay = TrialOverlay::new(graph, tape.candidates());
        let mut seen = vec![false; graph.num_nodes()];
        let mut touched = Vec::new();
        for cand in tape.candidates() {
            for w in [cand.u, cand.v] {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    touched.push(w);
                }
            }
        }
        Self {
            tape,
            overlay,
            touched,
            cache: base_cache.clone(),
        }
    }

    /// True when the trial selected no candidates (degenerate; the plain
    /// trial reports `(1.0, None)` for such a trial).
    pub(crate) fn is_degenerate(&self) -> bool {
        self.tape.candidates().is_empty()
    }

    /// Re-evaluates the tape at `sigma`: recomputes every candidate's
    /// perturbed probability, refreshes the touched degree pmfs, and runs
    /// the cached anonymity check. Bit-identical to checking the
    /// materialized trial graph directly.
    pub(crate) fn check_at_sigma(
        &mut self,
        sigma: f64,
        strategy: PerturbStrategy,
        knowledge: &AdversaryKnowledge,
        cfg: &ChameleonConfig,
    ) -> AnonymityReport {
        debug_assert!(!self.is_degenerate());
        self.tape
            .perturb_into(sigma, strategy, cfg.white_noise, &mut self.overlay);
        for &v in &self.touched {
            self.cache
                .set_from_probs(v, &self.overlay.incident_probs(v));
        }
        chameleon_obs::counter!("genobf.pmf_overlays").add(self.touched.len() as u64);
        anonymity_check_cached(&self.cache, knowledge, cfg.k)
    }

    /// The trial graph at the most recent [`TrialPlan::check_at_sigma`].
    pub(crate) fn overlay(&self) -> &TrialOverlay<'g> {
        &self.overlay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::{anonymity_check, anonymity_check_streamed, anonymity_check_threads};
    use crate::perturb::draw_noise;
    use chameleon_stats::SeedSequence;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn setup() -> (UncertainGraph, Vec<f64>, VertexSampler, EdgeLookup) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generators::gnm(30, 55, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, rng.gen::<f64>()).unwrap();
        }
        let selection: Vec<f64> = (0..30).map(|i| 0.05 + 0.03 * i as f64).collect();
        let sampler = VertexSampler::new(&selection, &HashSet::new());
        let lookup = EdgeLookup::new(&g);
        (g, selection, sampler, lookup)
    }

    /// The reference trial: clone the input, perturb it in place with the
    /// noise drawn live, as GenObf trials did before overlays.
    #[allow(clippy::too_many_arguments)]
    fn reference_trial(
        graph: &UncertainGraph,
        lookup: &EdgeLookup,
        sampler: &VertexSampler,
        cfg: &ChameleonConfig,
        strategy: PerturbStrategy,
        selection: &[f64],
        sigma: f64,
        rng: &mut StdRng,
    ) -> UncertainGraph {
        let candidates = select_candidates(graph, lookup, sampler, cfg.size_multiplier, rng);
        let q_edge: Vec<f64> = candidates
            .iter()
            .map(|c| 0.5 * (selection[c.u as usize] + selection[c.v as usize]))
            .collect();
        let q_sum: f64 = q_edge.iter().sum();
        let q_mean = if q_sum > 0.0 {
            q_sum / candidates.len() as f64
        } else {
            1.0
        };
        let mut perturbed = graph.clone();
        for (cand, &qe) in candidates.iter().zip(&q_edge) {
            let sigma_e = if q_sum > 0.0 {
                (sigma * qe / q_mean).clamp(1e-9, 3.0)
            } else {
                sigma.clamp(1e-9, 3.0)
            };
            let r = draw_noise(sigma_e, cfg.white_noise, rng);
            let p_new = strategy.apply(cand.p, r, rng);
            match cand.existing {
                Some(e) => perturbed.set_prob(e, p_new).unwrap(),
                None => {
                    perturbed.add_edge(cand.u, cand.v, p_new).unwrap();
                }
            }
        }
        perturbed
    }

    #[test]
    fn plan_replays_the_reference_trial_bit_for_bit() {
        let (g, selection, sampler, lookup) = setup();
        let cfg = ChameleonConfig::builder()
            .k(3)
            .white_noise(0.05)
            .num_world_samples(10)
            .build();
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let base_cache = DegreePmfCache::build(&g, &knowledge, 1);
        for strategy in [PerturbStrategy::MaxEntropy, PerturbStrategy::Unguided] {
            for sigma in [0.05, 0.3, 1.7] {
                let seq = SeedSequence::new(11);
                let mut rng_ref = seq.rng_indexed2("genobf-trial", 0, 0);
                let expect = reference_trial(
                    &g,
                    &lookup,
                    &sampler,
                    &cfg,
                    strategy,
                    &selection,
                    sigma,
                    &mut rng_ref,
                );
                let mut rng_plan = seq.rng_indexed2("genobf-trial", 0, 0);
                let mut plan = TrialPlan::record(
                    &g,
                    &lookup,
                    &sampler,
                    &cfg,
                    strategy,
                    &selection,
                    &base_cache,
                    &mut rng_plan,
                );
                let report = plan.check_at_sigma(sigma, strategy, &knowledge, &cfg);
                let got = plan.overlay().materialize();
                // Graphs agree bit for bit (edge order, endpoints, probs).
                assert_eq!(expect.num_edges(), got.num_edges());
                for (a, b) in expect.edges().iter().zip(got.edges()) {
                    assert_eq!((a.u, a.v), (b.u, b.v));
                    assert_eq!(a.p.to_bits(), b.p.to_bits(), "({},{})", a.u, a.v);
                }
                // Cached check agrees with the direct check of the
                // materialized graph bit for bit.
                let direct = anonymity_check(&expect, &knowledge, cfg.k);
                assert_eq!(report.unobfuscated, direct.unobfuscated);
                assert_eq!(report.eps_hat.to_bits(), direct.eps_hat.to_bits());
                for (omega, h) in &direct.entropy_by_omega {
                    assert_eq!(h.to_bits(), report.entropy_by_omega[omega].to_bits());
                }
            }
        }
    }

    #[test]
    fn one_plan_re_evaluates_across_many_sigmas() {
        // The core incremental property: a single recorded tape checked at
        // several σ values matches freshly perturbed graphs driven by the
        // same RNG stream — in any probe order, including revisits.
        let (g, selection, sampler, lookup) = setup();
        let cfg = ChameleonConfig::builder().k(2).white_noise(0.01).build();
        let strategy = PerturbStrategy::MaxEntropy;
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        let base_cache = DegreePmfCache::build(&g, &knowledge, 1);
        let seq = SeedSequence::new(77);
        let mut plan = TrialPlan::record(
            &g,
            &lookup,
            &sampler,
            &cfg,
            strategy,
            &selection,
            &base_cache,
            &mut seq.rng_indexed2("genobf-trial", 0, 0),
        );
        for sigma in [1.0, 0.25, 2.0, 0.25, 0.7] {
            let report = plan.check_at_sigma(sigma, strategy, &knowledge, &cfg);
            let expect = reference_trial(
                &g,
                &lookup,
                &sampler,
                &cfg,
                strategy,
                &selection,
                sigma,
                &mut seq.rng_indexed2("genobf-trial", 0, 0),
            );
            let got = plan.overlay().materialize();
            for (a, b) in expect.edges().iter().zip(got.edges()) {
                assert_eq!(a.p.to_bits(), b.p.to_bits());
            }
            let direct = anonymity_check(&expect, &knowledge, cfg.k);
            assert_eq!(report.unobfuscated, direct.unobfuscated);
            assert_eq!(report.eps_hat.to_bits(), direct.eps_hat.to_bits());
        }
    }

    /// The plain trial: a fresh tape perturbed into an overlay and checked
    /// in full.
    #[allow(clippy::too_many_arguments)]
    fn plain_trial<'g>(
        g: &'g UncertainGraph,
        lookup: &EdgeLookup,
        sampler: &VertexSampler,
        cfg: &ChameleonConfig,
        strategy: PerturbStrategy,
        selection: &[f64],
        sigma: f64,
        rng: &mut StdRng,
    ) -> TrialOverlay<'g> {
        let candidates = select_candidates(g, lookup, sampler, cfg.size_multiplier, rng);
        let tape = TrialTape::draw(candidates, selection, strategy, rng);
        let mut overlay = TrialOverlay::new(g, tape.candidates());
        tape.perturb_into(sigma, strategy, cfg.white_noise, &mut overlay);
        overlay
    }

    #[test]
    fn overlay_check_equals_the_checks_of_the_materialized_graph() {
        let (g, selection, sampler, lookup) = setup();
        let knowledge = AdversaryKnowledge::expected_degrees(&g);
        for strategy in [PerturbStrategy::MaxEntropy, PerturbStrategy::Unguided] {
            for (c, sigma) in [(2.0, 0.05), (0.6, 0.4), (3.0, 1.2)] {
                let cfg = ChameleonConfig::builder()
                    .k(3)
                    .size_multiplier(c)
                    .white_noise(0.05)
                    .build();
                let seq = SeedSequence::new(19);
                let mut rng = seq.rng_indexed2("genobf-trial", 1, 2);
                let overlay = plain_trial(
                    &g, &lookup, &sampler, &cfg, strategy, &selection, sigma, &mut rng,
                );
                let expect = reference_trial(
                    &g,
                    &lookup,
                    &sampler,
                    &cfg,
                    strategy,
                    &selection,
                    sigma,
                    &mut seq.rng_indexed2("genobf-trial", 1, 2),
                );
                let got = overlay.materialize();
                assert_eq!(expect.num_edges(), got.num_edges());
                for (a, b) in expect.edges().iter().zip(got.edges()) {
                    assert_eq!((a.u, a.v, a.p.to_bits()), (b.u, b.v, b.p.to_bits()));
                }
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(expect.neighbors(v), got.neighbors(v));
                    let a: Vec<u64> = expect
                        .incident_probs(v)
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    let b: Vec<u64> = IncidentProbs::incident_probs(&overlay, v)
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    assert_eq!(a, b, "incident order of vertex {v}");
                }
                let same = |x: &AnonymityReport, y: &AnonymityReport| {
                    assert_eq!(x.unobfuscated, y.unobfuscated);
                    assert_eq!(x.eps_hat.to_bits(), y.eps_hat.to_bits());
                    assert_eq!(x.entropy_by_omega.len(), y.entropy_by_omega.len());
                    for (omega, h) in &x.entropy_by_omega {
                        assert_eq!(h.to_bits(), y.entropy_by_omega[omega].to_bits());
                    }
                };
                for threads in [1, 3] {
                    let direct = anonymity_check_threads(&expect, &knowledge, cfg.k, threads);
                    same(&overlay.check(&knowledge, &cfg, threads), &direct);
                    for strip in [1usize, 7, 64] {
                        let streamed = ChameleonConfig {
                            strip_worlds: strip,
                            ..cfg.clone()
                        };
                        let direct =
                            anonymity_check_streamed(&expect, &knowledge, cfg.k, strip, threads);
                        same(&overlay.check(&knowledge, &streamed, threads), &direct);
                    }
                }
            }
        }
    }
}
