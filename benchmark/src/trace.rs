//! Reads the program's `chameleon_obs` spans and counters (and the
//! benchmark's own `bench.*` spans) around traced calls.

use crate::report::Report;
use std::collections::BTreeMap;

/// Span and counter totals summed over several traced regions.
#[derive(Debug, Default)]
pub struct Totals {
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Totals {
    /// Runs `f` with recording on, starting from zeroed metrics, and adds
    /// what it recorded. Recording is off again afterwards.
    pub fn capture<R>(&mut self, f: impl FnOnce() -> R) -> R {
        chameleon_obs::reset();
        chameleon_obs::set_enabled(true);
        let out = f();
        chameleon_obs::set_enabled(false);
        let snap = chameleon_obs::snapshot();
        for (name, s) in snap.spans {
            let e = self.spans.entry(name).or_default();
            e.0 += s.count;
            e.1 += s.total_ns;
        }
        for (name, v) in snap.counters {
            *self.counters.entry(name).or_default() += v;
        }
        out
    }

    pub fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e9)
    }

    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Per-release split of `releases` traced single-threaded anonymizations.
/// At one engine thread the spans nest exactly, so the residual is the
/// release time no leaf span covers. `anonymize_s` is their summed wall
/// time. `genobf.clone` is part of `genobf.perturb` and
/// `ensemble.analyze_worlds` part of `ensemble.sample_seeded`, so neither
/// is subtracted twice.
pub fn core_split(report: &mut Report, t: &Totals, releases: usize, anonymize_s: f64) {
    let n = releases.max(1) as f64;
    let sample = t.span_s("ensemble.sample_seeded");
    let analyze = t.span_s("ensemble.analyze_worlds");
    let err = t.span_s("relevance.err_coupled");
    let select = t.span_s("genobf.select");
    let perturb = t.span_s("genobf.perturb");
    let check = t.span_s("anonymity.check");
    let per = |v: f64| v / n;
    report.set("core.releases", releases as f64, releases);
    report.set("core.anonymize_s", per(anonymize_s), releases);
    report.set("reliability.sample_s", per(sample - analyze), releases);
    report.set("reliability.analyze_s", per(analyze), releases);
    report.set("core.err_s", per(err), releases);
    report.set("core.genobf.select_s", per(select), releases);
    report.set("core.genobf.perturb_s", per(perturb), releases);
    report.set(
        "core.genobf.clone_s",
        per(t.span_s("genobf.clone")),
        releases,
    );
    report.set("core.anonymity.check_s", per(check), releases);
    report.set(
        "core.residual_s",
        per(anonymize_s - sample - err - select - perturb - check),
        releases,
    );
    ensemble_counters(report, t, releases);
    let trials = t.counter("genobf.trials") as f64;
    report.set(
        "core.genobf.calls",
        per(t.span_count("genobf.call") as f64),
        releases,
    );
    report.set("core.genobf.trials_per_release", per(trials), releases);
    report.set(
        "core.genobf.candidate_attempts",
        per(t.counter("genobf.candidate_attempts") as f64),
        releases,
    );
    report.set(
        "core.anonymity.pmfs_built",
        per(t.counter("anonymity.pmfs_built") as f64),
        releases,
    );
}

/// Monte-Carlo counters per release.
fn ensemble_counters(report: &mut Report, t: &Totals, units: usize) {
    let per = |name: &str| t.counter(name) as f64 / units.max(1) as f64;
    report.set("reliability.worlds", per("ensemble.worlds_sampled"), units);
    report.set(
        "reliability.union_find_ops",
        per("ensemble.union_find_ops"),
        units,
    );
    report.set(
        "reliability.arena_bytes",
        per("ensemble.arena_bytes"),
        units,
    );
}
