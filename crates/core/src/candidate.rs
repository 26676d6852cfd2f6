//! Candidate-edge selection (paper Algorithm 3, lines 9–16).
//!
//! The perturbation set `E_C` starts as the full edge set `E`. Vertices
//! `u, v ∈ V \ H` are then drawn repeatedly from the selection distribution
//! `Q`; if `(u, v)` is an existing edge it is *removed* from `E_C` with
//! probability `p(e)` (strongly-present edges are spared), otherwise the
//! absent edge is *added* (a fresh uncertain edge will be injected). The
//! loop stops when `|E_C| = c·|E|`; since random pairs in a sparse graph
//! are almost surely non-edges, the set grows quickly and retains most of
//! `E` (the paper notes exactly this).
//!
//! The loop runs about twenty attempts per candidate, so its bookkeeping
//! is flat (DESIGN.md §6e): existing edges are found by binary search in a
//! sorted adjacency ([`EdgeLookup`], built once per anonymize run), removed
//! edges are one bit each, and added pairs live in a u64-keyed
//! open-addressing set. Vertex draws go through a guide table that returns
//! exactly the index a binary search over the cumulative weights would.

use chameleon_ugraph::{BitSet, EdgeId, NodeId, UncertainGraph};
use rand::Rng;
use std::collections::HashSet;

/// One candidate for perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEdge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// The existing edge id, or `None` for a newly injected edge.
    pub existing: Option<EdgeId>,
    /// Current probability (0 for injected edges).
    pub p: f64,
}

/// Weighted vertex sampler over `V \ H` with probabilities ∝ `Q^v`.
///
/// A draw `x = U·total` maps to the first index whose cumulative weight is
/// at least `x`. A guide table over `len` equal-width buckets of
/// `[0, total)` stores, per bucket, the first index whose cumulative
/// weight falls in that bucket or a later one; the draw starts there and
/// scans forward. Bucketing is monotone, so no earlier index can qualify,
/// and the scan lands on the index `binary_search_by` returns in its `Err`
/// branch. When the scan meets a cumulative weight *equal* to `x` (a run
/// of zero weights makes ties), the draw falls back to that binary search,
/// whose `Ok` index among the ties is what earlier releases used.
#[derive(Debug, Clone)]
pub struct VertexSampler {
    nodes: Vec<NodeId>,
    cumulative: Vec<f64>,
    total: f64,
    /// `guide[b]`: first index `i` with `bucket(cumulative[i]) >= b`.
    guide: Vec<u32>,
    /// Buckets per unit of cumulative weight (`len / total`).
    scale: f64,
}

impl VertexSampler {
    /// Builds a sampler over the vertices NOT in `excluded`, weighting
    /// vertex `v` by `weights[v]` (must be non-negative; all-zero weights
    /// fall back to uniform).
    ///
    /// # Panics
    /// Panics if every vertex is excluded or `weights` is empty.
    pub fn new(weights: &[f64], excluded: &HashSet<NodeId>) -> Self {
        let mut nodes = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (v, &w) in weights.iter().enumerate() {
            let v = v as NodeId;
            if excluded.contains(&v) {
                continue;
            }
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            nodes.push(v);
            total += w;
            cumulative.push(total);
        }
        assert!(!nodes.is_empty(), "no candidate vertices remain");
        if total <= 0.0 {
            // Uniform fallback.
            total = nodes.len() as f64;
            for (i, c) in cumulative.iter_mut().enumerate() {
                *c = (i + 1) as f64;
            }
        }
        let mut sampler = Self {
            guide: Vec::with_capacity(nodes.len()),
            scale: nodes.len() as f64 / total,
            nodes,
            cumulative,
            total,
        };
        let mut i = 0;
        for b in 0..sampler.nodes.len() {
            while i < sampler.cumulative.len() && sampler.bucket(sampler.cumulative[i]) < b {
                i += 1;
            }
            sampler.guide.push(i as u32);
        }
        sampler
    }

    /// Number of sampleable vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no vertices are available (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Guide bucket of a cumulative weight; non-decreasing in `x`.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.nodes.len() - 1)
    }

    /// Draws one vertex.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let x = rng.gen::<f64>() * self.total;
        let cumulative = &self.cumulative;
        let mut i = self.guide[self.bucket(x)] as usize;
        while i < cumulative.len() && cumulative[i] < x {
            i += 1;
        }
        if i < cumulative.len() && cumulative[i] == x {
            i = match cumulative.binary_search_by(|c| c.partial_cmp(&x).expect("no NaN")) {
                Ok(i) | Err(i) => i,
            };
        }
        self.nodes[i.min(self.nodes.len() - 1)]
    }
}

/// Sorted-adjacency (CSR) edge lookup over a fixed graph: each vertex's
/// neighbours in ascending order beside their edge ids, so finding an
/// edge is a binary search in one row. Build it once per graph; GenObf
/// builds it once per anonymize run and shares it across every trial.
#[derive(Debug, Clone)]
pub struct EdgeLookup {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    edge_ids: Vec<EdgeId>,
}

impl EdgeLookup {
    /// Indexes the edges of `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut rows: Vec<(NodeId, EdgeId)> = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for v in 0..n as NodeId {
            let start = rows.len();
            rows.extend_from_slice(graph.neighbors(v));
            rows[start..].sort_unstable_by_key(|&(w, _)| w);
            offsets.push(rows.len());
        }
        Self {
            offsets,
            neighbors: rows.iter().map(|&(w, _)| w).collect(),
            edge_ids: rows.iter().map(|&(_, e)| e).collect(),
        }
    }

    /// The edge between `a` and `b`, searched in the shorter row.
    #[inline]
    pub fn find(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let row = |v: NodeId| self.offsets[v as usize]..self.offsets[v as usize + 1];
        let (ra, rb) = (row(a), row(b));
        let (range, key) = if ra.len() <= rb.len() {
            (ra, b)
        } else {
            (rb, a)
        };
        let start = range.start;
        self.neighbors[range]
            .binary_search(&key)
            .ok()
            .map(|i| self.edge_ids[start + i])
    }
}

/// Insert-only open-addressing set of normalized vertex pairs, each packed
/// into one u64 key (`u < v`, so the all-ones word never occurs and marks
/// an empty slot). Kept at most half full.
struct PairSet {
    slots: Vec<u64>,
    len: usize,
}

impl PairSet {
    const EMPTY: u64 = u64::MAX;

    fn with_capacity(expected: usize) -> Self {
        Self {
            slots: vec![Self::EMPTY; (2 * expected).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// Fibonacci hashing: the top bits of `key · 2⁶⁴/φ`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Inserts `key`; false when it was already present.
    fn insert(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                Self::EMPTY => break,
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
        self.slots[i] = key;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let doubled = vec![Self::EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.len = 0;
            for k in old.into_iter().filter(|&k| k != Self::EMPTY) {
                self.insert(k);
            }
        }
        true
    }
}

/// Builds the candidate set `E_C` (paper Algorithm 3 lines 9–16).
///
/// `target_size = c·|E|` rounded; the loop is capped at a generous attempt
/// budget so adversarial weight configurations cannot hang (on budget
/// exhaustion the current set is returned — the algorithm is randomized
/// anyway and GenObf copes with any candidate set).
///
/// Output order: surviving original edges by id, then injected pairs in
/// the order they were drawn. `lookup` must index `graph`.
pub fn select_candidates<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    lookup: &EdgeLookup,
    sampler: &VertexSampler,
    size_multiplier: f64,
    rng: &mut R,
) -> Vec<CandidateEdge> {
    let m = graph.num_edges();
    let n = graph.num_nodes();
    let target = ((m as f64 * size_multiplier).round() as usize)
        .min(n * n.saturating_sub(1) / 2)
        .max(1.min(m));
    // E_C ← E: every original edge is a member until removed.
    let mut removed = BitSet::new(m);
    let mut kept = m;
    let mut added_set = PairSet::with_capacity(target.saturating_sub(m));
    let mut added: Vec<(NodeId, NodeId)> = Vec::new();
    let attempt_budget = 200 * target + 10_000;
    let mut attempts = 0usize;
    while kept + added.len() != target && attempts < attempt_budget {
        attempts += 1;
        let a = sampler.sample(rng);
        let b = sampler.sample(rng);
        if a == b {
            continue;
        }
        let (u, v) = if a < b { (a, b) } else { (b, a) };
        if let Some(e) = lookup.find(u, v) {
            // Existing edge: drop from E_C with probability p(e).
            if !removed.get(e as usize) && rng.gen::<f64>() < graph.prob(e) {
                removed.set(e as usize, true);
                kept -= 1;
            }
        } else if kept + added.len() < target && added_set.insert((u as u64) << 32 | v as u64) {
            added.push((u, v));
        }
    }
    chameleon_obs::counter!("genobf.candidate_attempts").add(attempts as u64);
    let mut out = Vec::with_capacity(kept + added.len());
    for (id, e) in graph.edges().iter().enumerate() {
        if !removed.get(id) {
            out.push(CandidateEdge {
                u: e.u,
                v: e.v,
                existing: Some(id as EdgeId),
                p: e.p,
            });
        }
    }
    out.extend(added.into_iter().map(|(u, v)| CandidateEdge {
        u,
        v,
        existing: None,
        p: 0.0,
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_ugraph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler_uniform(n: usize) -> VertexSampler {
        VertexSampler::new(&vec![1.0; n], &HashSet::new())
    }

    #[test]
    fn sampler_respects_weights() {
        let weights = vec![0.0, 10.0, 0.0, 0.0];
        let s = VertexSampler::new(&weights, &HashSet::new());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 1);
        }
    }

    #[test]
    fn sampler_excludes_h() {
        let weights = vec![1.0; 5];
        let excluded: HashSet<NodeId> = [0u32, 2].into_iter().collect();
        let s = VertexSampler::new(&weights, &excluded);
        assert_eq!(s.len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!(!excluded.contains(&v));
        }
    }

    #[test]
    fn sampler_zero_weights_fall_back_to_uniform() {
        let s = VertexSampler::new(&[0.0, 0.0, 0.0], &HashSet::new());
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            seen.insert(s.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn sampler_weight_proportionality() {
        let s = VertexSampler::new(&[1.0, 3.0], &HashSet::new());
        let mut rng = StdRng::seed_from_u64(3);
        let n = 8000;
        let ones = (0..n).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac={frac}");
    }

    #[test]
    #[should_panic]
    fn sampler_rejects_total_exclusion() {
        let excluded: HashSet<NodeId> = [0u32, 1].into_iter().collect();
        let _ = VertexSampler::new(&[1.0, 1.0], &excluded);
    }

    #[test]
    fn candidates_reach_target_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnm(40, 60, &mut rng);
        let s = sampler_uniform(40);
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 2.0, &mut rng);
        assert_eq!(cands.len(), 120);
    }

    #[test]
    fn candidates_mostly_retain_original_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(60, 80, &mut rng);
        let s = sampler_uniform(60);
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 2.0, &mut rng);
        let existing = cands.iter().filter(|c| c.existing.is_some()).count();
        // "the resulting set E_c includes most of edges in E"
        assert!(existing as f64 > 0.8 * 80.0, "existing={existing}");
    }

    #[test]
    fn injected_candidates_have_zero_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnm(30, 40, &mut rng);
        let s = sampler_uniform(30);
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 1.5, &mut rng);
        for c in cands.iter().filter(|c| c.existing.is_none()) {
            assert_eq!(c.p, 0.0);
            assert!(!g.has_edge(c.u, c.v));
            assert!(c.u < c.v);
        }
    }

    #[test]
    fn shrinking_multiplier_below_one() {
        // c < 1: E_C must shrink below |E| by removing existing edges.
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generators::gnm(20, 40, &mut rng);
        for e in 0..g.num_edges() as u32 {
            g.set_prob(e, 0.9).unwrap(); // high p → removals frequent
        }
        let s = sampler_uniform(20);
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 0.5, &mut rng);
        assert_eq!(cands.len(), 20);
        assert!(cands.iter().all(|c| c.existing.is_some()));
    }

    #[test]
    fn candidates_have_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::gnm(25, 30, &mut rng);
        let s = sampler_uniform(25);
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 3.0, &mut rng);
        let set: HashSet<(u32, u32)> = cands.iter().map(|c| (c.u, c.v)).collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng_g = StdRng::seed_from_u64(9);
        let g = generators::gnm(25, 30, &mut rng_g);
        let s = sampler_uniform(25);
        let a = select_candidates(
            &g,
            &EdgeLookup::new(&g),
            &s,
            2.0,
            &mut StdRng::seed_from_u64(10),
        );
        let b = select_candidates(
            &g,
            &EdgeLookup::new(&g),
            &s,
            2.0,
            &mut StdRng::seed_from_u64(10),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn high_weight_vertices_attract_injections() {
        // Nodes 0 and 1 carry nearly all the weight: injected edges should
        // overwhelmingly touch them.
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnm(30, 20, &mut rng);
        let mut weights = vec![0.01; 30];
        weights[0] = 100.0;
        weights[1] = 100.0;
        let s = VertexSampler::new(&weights, &HashSet::new());
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 2.0, &mut rng);
        let injected: Vec<_> = cands.iter().filter(|c| c.existing.is_none()).collect();
        assert!(!injected.is_empty());
        let touching = injected.iter().filter(|c| c.u <= 1 || c.v <= 1).count();
        assert!(
            touching as f64 > 0.9 * injected.len() as f64,
            "{touching}/{}",
            injected.len()
        );
    }

    // ---- Reference implementation: the selection as it was before the
    // flat bookkeeping (SipHash sets, `find_edge` through the graph's hash
    // index, a plain binary search per vertex draw). The flat selection
    // must agree with it draw for draw.

    fn reference_sample<R: Rng + ?Sized>(s: &VertexSampler, rng: &mut R) -> NodeId {
        let x = rng.gen::<f64>() * s.total;
        let idx = match s
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(s.nodes.len() - 1),
        };
        s.nodes[idx]
    }

    fn reference_select<R: Rng + ?Sized>(
        graph: &UncertainGraph,
        sampler: &VertexSampler,
        size_multiplier: f64,
        rng: &mut R,
    ) -> Vec<CandidateEdge> {
        let m = graph.num_edges();
        let n = graph.num_nodes();
        let target = ((m as f64 * size_multiplier).round() as usize)
            .min(n * n.saturating_sub(1) / 2)
            .max(1.min(m));
        let mut members: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(target * 2);
        let mut added: Vec<(NodeId, NodeId)> = Vec::new();
        for e in graph.edges() {
            members.insert((e.u, e.v));
        }
        let attempt_budget = 200 * target + 10_000;
        let mut attempts = 0usize;
        while members.len() != target && attempts < attempt_budget {
            attempts += 1;
            let a = reference_sample(sampler, rng);
            let b = reference_sample(sampler, rng);
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            if let Some(e) = graph.find_edge(a, b) {
                if members.contains(&key) && rng.gen::<f64>() < graph.prob(e) {
                    members.remove(&key);
                }
            } else if members.len() < target && !members.contains(&key) {
                members.insert(key);
                added.push(key);
            }
        }
        let mut out = Vec::with_capacity(members.len());
        for (id, e) in graph.edges().iter().enumerate() {
            if members.contains(&(e.u, e.v)) {
                out.push(CandidateEdge {
                    u: e.u,
                    v: e.v,
                    existing: Some(id as EdgeId),
                    p: e.p,
                });
            }
        }
        for &(u, v) in &added {
            if members.contains(&(u, v)) {
                out.push(CandidateEdge {
                    u,
                    v,
                    existing: None,
                    p: 0.0,
                });
            }
        }
        out
    }

    /// Replays a fixed script of 64-bit words, so a test can make a draw
    /// land exactly on a cumulative weight.
    struct Scripted(Vec<u64>);

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    /// The u64 word `gen::<f64>()` maps to exactly `k / 2^53`.
    fn word_for(k: u64) -> u64 {
        k << 11
    }

    #[test]
    fn guide_table_ties_fall_back_to_the_binary_search() {
        // Zero weights make runs of equal cumulative values: 1,1,1,2,2,4.
        let s = VertexSampler::new(&[1.0, 0.0, 0.0, 1.0, 0.0, 2.0], &HashSet::new());
        let unit = 1u64 << 53;
        // x = U·4 for U = k/8: lands on every cumulative value and between.
        for k in 0..8u64 {
            let w = word_for(k * unit / 8);
            let got = s.sample(&mut Scripted(vec![w]));
            let expect = reference_sample(&s, &mut Scripted(vec![w]));
            assert_eq!(got, expect, "U = {k}/8");
        }
        // The largest draw strictly below 1.
        let w = word_for(unit - 1);
        assert_eq!(
            s.sample(&mut Scripted(vec![w])),
            reference_sample(&s, &mut Scripted(vec![w]))
        );
    }

    #[test]
    fn guide_table_matches_the_binary_search_on_skewed_weights() {
        let mut weights = vec![1e-9; 500];
        weights[3] = 1e6;
        weights[250] = 0.0;
        weights[499] = 3.0;
        let excluded: HashSet<NodeId> = [7u32, 8, 400].into_iter().collect();
        let s = VertexSampler::new(&weights, &excluded);
        let mut a = StdRng::seed_from_u64(12);
        let mut b = StdRng::seed_from_u64(12);
        for _ in 0..20_000 {
            assert_eq!(s.sample(&mut a), reference_sample(&s, &mut b));
        }
    }

    #[test]
    fn edge_lookup_agrees_with_the_hash_index() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::gnm(40, 300, &mut rng);
        let lookup = EdgeLookup::new(&g);
        for a in 0..40u32 {
            for b in 0..40u32 {
                assert_eq!(lookup.find(a, b), g.find_edge(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn pair_set_grows_and_dedups() {
        let mut set = PairSet::with_capacity(0);
        for i in 0..1000u64 {
            assert!(set.insert(i << 32 | (i + 1)));
        }
        for i in 0..1000u64 {
            assert!(!set.insert(i << 32 | (i + 1)));
        }
        assert_eq!(set.len, 1000);
        assert!(2 * set.len <= set.slots.len());
    }

    /// Runs both selections from one seed and compares the candidates and
    /// the generator state they leave behind.
    fn assert_matches_reference(
        g: &UncertainGraph,
        s: &VertexSampler,
        c: f64,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng_new = StdRng::seed_from_u64(seed);
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let got = select_candidates(g, &EdgeLookup::new(g), s, c, &mut rng_new);
        let expect = reference_select(g, s, c, &mut rng_ref);
        if got.len() != expect.len() {
            return Err(format!("{} vs {} candidates", got.len(), expect.len()));
        }
        for (x, y) in got.iter().zip(&expect) {
            if (x.u, x.v, x.existing, x.p.to_bits()) != (y.u, y.v, y.existing, y.p.to_bits()) {
                return Err(format!("{x:?} vs {y:?}"));
            }
        }
        if rng_new.gen::<u64>() != rng_ref.gen::<u64>() {
            return Err("generator states differ after selection".into());
        }
        Ok(())
    }

    #[test]
    fn attempt_budget_exhaustion_matches_the_reference() {
        // K5 at p = 0: nothing can be removed and nothing added, so c < 1
        // never reaches its target and the loop runs out its budget.
        let mut g = UncertainGraph::with_nodes(5);
        for u in 0..5u32 {
            for v in u + 1..5 {
                g.add_edge(u, v, 0.0).unwrap();
            }
        }
        let s = sampler_uniform(5);
        assert_matches_reference(&g, &s, 0.5, 14).unwrap();
        // Two sampleable vertices joined by a certain-to-stay edge.
        let excluded: HashSet<NodeId> = [0u32, 1, 2].into_iter().collect();
        let s = VertexSampler::new(&[1.0; 5], &excluded);
        assert_matches_reference(&g, &s, 0.3, 15).unwrap();
        let cands = select_candidates(&g, &EdgeLookup::new(&g), &s, 0.3, &mut rng_for(15));
        assert_eq!(cands.len(), 10, "nothing removable: E_C stays E");
    }

    fn rng_for(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]
        #[test]
        fn flat_selection_matches_the_reference(
            n in 2usize..28,
            density in 0.0f64..1.0,
            c in 0.1f64..3.5,
            zero_share in 0.0f64..0.9,
            excluded_share in 0.0f64..0.6,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_m = n * (n - 1) / 2;
            let m = (density * max_m as f64) as usize;
            let mut g = generators::gnm(n, m, &mut rng);
            for e in 0..g.num_edges() as EdgeId {
                // Include certain and impossible edges.
                let p = match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen::<f64>(),
                };
                g.set_prob(e, p).unwrap();
            }
            // Zero weights create tied cumulative values.
            let weights: Vec<f64> = (0..n)
                .map(|_| if rng.gen::<f64>() < zero_share { 0.0 } else { rng.gen::<f64>() })
                .collect();
            let mut excluded: HashSet<NodeId> = (0..n as NodeId)
                .filter(|_| rng.gen::<f64>() < excluded_share)
                .collect();
            if excluded.len() == n {
                excluded.remove(&0);
            }
            let s = VertexSampler::new(&weights, &excluded);
            let outcome = assert_matches_reference(&g, &s, c, seed ^ 0x5eed);
            proptest::prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }
}
