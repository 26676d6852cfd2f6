//! anonymize-mix: the data publisher's offline path, file to file.
//!
//! Each job reads a generated input, publishes a (k, ε)-obfuscated release
//! with `Chameleon::anonymize` (RSME) and writes it. Inputs are n=2000
//! brightkite-, dblp- and ppi-like graphs, none already private, so every
//! job runs a real GenObf search. The σ search length differs from input
//! to input (6 to 16 GenObf calls), so the job list holds six inputs per
//! kind and `wall_s` takes each kind's median input: its spread across
//! seeds shrinks with the number of inputs, not with repetitions of one.

use crate::inputs::{self, Kind, Scale, ENGINE_THREADS};
use crate::layers;
use crate::report::{self, median, Report};
use crate::trace::{self, Totals};
use chameleon_core::ChameleonConfig;
use chameleon_reliability::sample_distinct_pairs;
use chameleon_stats::SeedSequence;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Job {
    name: String,
    input: PathBuf,
    release: PathBuf,
    config: ChameleonConfig,
    seed: u64,
    input_eps: f64,
}

/// Generates and writes the inputs; jobs interleave the kinds so a partial
/// cycle through the list still mixes them.
fn setup(scale: &Scale, seed: u64, dir: &Path) -> Result<Vec<Job>, String> {
    let seq = SeedSequence::new(seed);
    let mut jobs = Vec::new();
    for j in 0..scale.anon_per_kind {
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let (k, epsilon) = (scale.anon_k[i], scale.anon_epsilon[i]);
            let name = format!("anonymize-mix/{}/{j}", kind.name());
            let input = inputs::draw(&seq, &name, kind, scale.anon_nodes, k, epsilon, false)?;
            let path = dir.join(format!("{}-{j}.txt", kind.name()));
            layers::write_graph(&input.graph, &path)?;
            jobs.push(Job {
                release: dir.join(format!("{}-{j}.release.txt", kind.name())),
                input: path,
                config: ChameleonConfig {
                    k,
                    epsilon,
                    num_world_samples: scale.anon_worlds,
                    num_threads: ENGINE_THREADS,
                    ..ChameleonConfig::default()
                },
                seed: seq.derive(&format!("{name}/anonymize")),
                input_eps: input.eps_hat,
                name,
            });
        }
    }
    Ok(jobs)
}

/// One job as the publisher runs it: read, anonymize, write.
fn run_job(job: &Job, threads: usize) -> Result<(), String> {
    let input = layers::read_graph(&job.input)?;
    let config = ChameleonConfig {
        num_threads: threads,
        ..job.config.clone()
    };
    let result = layers::anonymize(&input, &config, job.seed)?;
    layers::write_graph(&result.graph, &job.release)
}

/// Runs a job, timing it, and checks that its release bytes repeat the
/// job's earlier releases (same seed ⇒ same bytes, at any thread count).
fn timed_job(
    report: &mut Report,
    job: &Job,
    digest: &mut Option<u64>,
    run: impl FnOnce() -> Result<(), String>,
) -> Option<f64> {
    let start = Instant::now();
    let outcome = run();
    let elapsed = start.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        report.fail_op(format!("{}: {e}", job.name));
        return None;
    }
    let bytes = match std::fs::read(&job.release) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.fail_op(format!("{}: release unreadable: {e}", job.name));
            return None;
        }
    };
    let d = chameleon_server::fnv1a64(&bytes);
    let repeated = digest.is_none_or(|prev| prev == d);
    *digest = Some(d);
    report
        .check(repeated, || {
            format!("{}: release bytes differ between runs", job.name)
        })
        .then_some(elapsed)
}

pub fn run(scale: &Scale, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Report {
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let start = Instant::now();
        match setup(scale, seed, dir) {
            Ok(j) => jobs = j,
            Err(e) => {
                report.fail_op(e);
                return report;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_s), setup_s.len());
    let private = jobs
        .iter()
        .filter(|job| job.input_eps <= job.config.epsilon)
        .count();
    report.set(
        "inputs.private_share",
        private as f64 / jobs.len() as f64,
        jobs.len(),
    );
    report.note(format!(
        "property already_private_inputs = {private}/{} jobs",
        jobs.len()
    ));

    let mut digests = vec![None; jobs.len()];
    // Warm-up, outside any timing: one job per kind, so the thread pool,
    // the page cache and a heap sized for the largest kind are in place
    // before the first timed job (a cold first job runs ~1.5x slower).
    for (job, digest) in jobs.iter().zip(&mut digests).take(Kind::ALL.len()) {
        timed_job(&mut report, job, digest, || run_job(job, ENGINE_THREADS));
    }
    if traced {
        traced_pass(&mut report, &jobs, &mut digests);
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut times = vec![Vec::new(); jobs.len()];
        let mut i = 0;
        while i < jobs.len() || Instant::now() < deadline {
            let j = i % jobs.len();
            i += 1;
            let job = &jobs[j];
            if let Some(t) = timed_job(&mut report, job, &mut digests[j], || {
                run_job(job, ENGINE_THREADS)
            }) {
                times[j].push(t);
            }
        }
        if times.iter().all(|t| !t.is_empty()) {
            // One release of each kind, at the median input of the kind:
            // the median damps the few inputs whose σ search runs twice
            // as many GenObf calls as the rest.
            let job_s: Vec<f64> = times.iter().map(|t| median(t)).collect();
            let kinds = Kind::ALL.len();
            let kind_s: Vec<f64> = (0..kinds)
                .map(|k| {
                    median(
                        &job_s
                            .iter()
                            .skip(k)
                            .step_by(kinds)
                            .copied()
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let runs = times.iter().map(Vec::len).sum();
            report.set("wall_s", kind_s.iter().sum(), runs);
            let per_kind: Vec<String> = Kind::ALL
                .iter()
                .zip(&kind_s)
                .map(|(kind, s)| format!("{} {s:.3} s", kind.name()))
                .collect();
            report.note(format!(
                "wall_s = median job per kind, summed: {}; all {} jobs once: {:.3} s",
                per_kind.join(", "),
                jobs.len(),
                job_s.iter().sum::<f64>()
            ));
        }
        match report::peak_rss_mb(None) {
            Ok(mb) => report.set("peak_rss_mb", mb, 1),
            Err(e) => report.fail_op(e),
        }
    }
    audit_releases(&mut report, scale, seed, &jobs, &digests);
    report
}

/// Every job once, whatever `--seconds` says, so the per-release figures
/// always average over the same inputs. Per job, in turn: untraced at 2
/// threads, traced at 2 threads (the tracing overhead), traced at 1 thread
/// (the per-layer split, where spans nest exactly, and the speed-up base).
fn traced_pass(report: &mut Report, jobs: &[Job], digests: &mut [Option<u64>]) {
    let mut split = Totals::default();
    let (mut untraced, mut traced, mut single) = (0.0, 0.0, 0.0);
    let mut releases = 0;
    for (job, digest) in jobs.iter().zip(digests) {
        let a = timed_job(report, job, digest, || run_job(job, ENGINE_THREADS));
        let b = timed_job(report, job, digest, || {
            Totals::default().capture(|| run_job(job, ENGINE_THREADS))
        });
        let c = timed_job(report, job, digest, || split.capture(|| run_job(job, 1)));
        if let (Some(a), Some(b), Some(c)) = (a, b, c) {
            untraced += a;
            traced += b;
            single += c;
            releases += 1;
        }
    }
    if releases == 0 {
        return;
    }
    let per = releases as f64;
    report.set(
        "ugraph.io.read_s",
        split.span_s("bench.io.read") / per,
        releases,
    );
    report.set(
        "ugraph.io.write_s",
        split.span_s("bench.io.write") / per,
        releases,
    );
    trace::core_split(
        report,
        &split,
        releases,
        split.span_s("bench.core.anonymize"),
    );
    report.set("stats.parallel.speedup", single / traced, releases);
    report.set("obs.overhead", traced / untraced, releases);
}

/// Every written release must pass an independent (k, ε) audit against its
/// input's expected degrees with the node count preserved. Also measures
/// the releases' mean reliability discrepancy (utility), untimed, from
/// worlds streamed out of core in strips through the compressed store;
/// the streamed pair reliabilities must equal the in-RAM ensemble's bit
/// for bit. The streamed calls are recorded, so the run reports their
/// layer time and compressed bytes per audited release.
fn audit_releases(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    jobs: &[Job],
    digests: &[Option<u64>],
) {
    let seq = SeedSequence::new(seed);
    let worlds_seed = seq.derive("anonymize-mix/disc-worlds");
    let mut streamed = Totals::default();
    let mut disc = Vec::new();
    // A job that failed wrote no release; its failure is already counted.
    for (job, _) in jobs.iter().zip(digests).filter(|(_, d)| d.is_some()) {
        let (input, release) = match (
            layers::read_graph(&job.input),
            layers::read_graph(&job.release),
        ) {
            (Ok(i), Ok(r)) => (i, r),
            (Err(e), _) | (_, Err(e)) => {
                report.fail_op(format!("{}: {e}", job.name));
                continue;
            }
        };
        report.check(input.num_nodes() == release.num_nodes(), || {
            format!("{}: release changed the node count", job.name)
        });
        let audit = layers::audit(&release, &input, job.config.k);
        report.check(audit.satisfies(job.config.epsilon), || {
            format!(
                "{}: release eps_hat {} exceeds {}",
                job.name, audit.eps_hat, job.config.epsilon
            )
        });
        let pairs = sample_distinct_pairs(
            input.num_nodes(),
            scale.disc_pairs,
            &mut seq.rng("anonymize-mix/disc-pairs"),
        );
        let mut rel = Vec::with_capacity(2);
        for graph in [&input, &release] {
            let out = streamed.capture(|| {
                let stream = layers::sample_stream(
                    graph,
                    scale.disc_worlds,
                    worlds_seed,
                    ENGINE_THREADS,
                    scale.disc_strip,
                )?;
                layers::pair_reliability(&stream, &pairs)
            });
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    report.fail_op(format!("{}: streamed reliability: {e}", job.name));
                    break;
                }
            };
            let dense = layers::dense_reliability(
                graph,
                scale.disc_worlds,
                worlds_seed,
                ENGINE_THREADS,
                &pairs,
            );
            let same = out
                .iter()
                .map(|r| r.to_bits())
                .eq(dense.iter().map(|r| r.to_bits()));
            report.check(same, || {
                format!(
                    "{}: streamed pair reliabilities differ from the in-RAM path",
                    job.name
                )
            });
            rel.push(out);
        }
        if let [a, b] = &rel[..] {
            let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
            disc.push(sum / a.len().max(1) as f64);
        }
    }
    if !disc.is_empty() {
        let n = disc.len();
        report.set("quality.disc_avg", disc.iter().sum::<f64>() / n as f64, n);
        report.set(
            "reliability.pairs_s",
            streamed.span_s("bench.reliability.pairs") / n as f64,
            n,
        );
        report.set(
            "reliability.stream_bytes",
            streamed.counter("ensemble.stream_compressed_bytes") as f64 / n as f64,
            n,
        );
    }
}
