//! The repository benchmark: two workloads, one seeded process each.
//!
//! ```text
//! chameleon-benchmark --workload <anonymize-mix|service-mix|all>
//!     --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir> [--size <full|small>]
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero when any operation
//! or correctness check failed. `--bin-dir` holds the `chameleond` and
//! `chameleon_gate` binaries service-mix runs. Scratch files live under
//! `.bench_run/` in the working directory and are removed at exit.

mod anonymize_mix;
mod fleet;
mod inputs;
mod layers;
mod report;
mod service_mix;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: [&str; 2] = ["anonymize-mix", "service-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    bins: fleet::Bins,
    scale: inputs::Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut bin_dir = None;
    let mut scale = inputs::Scale::full();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad());
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(&value)),
            "--size" => {
                scale = match value.as_str() {
                    "full" => inputs::Scale::full(),
                    "small" => inputs::Scale::small(),
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bin_dir = bin_dir.ok_or("--bin-dir is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        bins: fleet::Bins {
            chameleond: bin_dir.join("chameleond"),
            gate: bin_dir.join("chameleon_gate"),
        },
        scale,
    })
}

fn run_workload(name: &str, args: &Args, dir: &std::path::Path) -> Report {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        let mut r = Report::new();
        r.fail_op(format!("{}: {e}", dir.display()));
        return r;
    }
    chameleon_obs::set_enabled(false);
    let (scale, seed, seconds, traced) = (&args.scale, args.seed, args.seconds, args.traced);
    let mut report = match name {
        "anonymize-mix" => anonymize_mix::run(scale, seed, seconds, traced, dir),
        _ => service_mix::run(scale, seed, seconds, traced, &args.bins, dir),
    };
    // Everything measured is printed; the result line carries one table.
    for line in report.human_lines(name) {
        println!("{line}");
    }
    if traced {
        report.select(PER_LAYER, true);
    } else {
        report.select(END_TO_END, false);
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "operations {name}: attempted {} failed {}",
        report.attempted, report.failed
    );
    let _ = std::fs::remove_dir_all(dir);
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_run").join(std::process::id().to_string());
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut combined = Report::new();
    for name in &names {
        let report = run_workload(name, &args, &root.join(name));
        combined.attempted += report.attempted;
        combined.failed += report.failed;
        for (metric, m) in report.metrics {
            let key = if names.len() == 1 {
                metric
            } else {
                format!("{name}.{metric}")
            };
            combined.metrics.insert(key, m);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_run");
    println!("{}", combined.result_line());
    if !combined.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_obs::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn table(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric table")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(table(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(table(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    fn small_run(workload: &str, traced: bool) -> Report {
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.5,
            traced,
            bins: fleet::Bins {
                chameleond: PathBuf::new(),
                gate: PathBuf::new(),
            },
            scale: inputs::Scale::small(),
        };
        let dir = std::env::temp_dir().join(format!(
            "chameleon-benchmark-test-{}-{workload}-{traced}",
            std::process::id()
        ));
        run_workload(workload, &args, &dir)
    }

    /// Recording is process-global, so the in-process workload's two modes
    /// run one after another in a single test.
    #[test]
    fn anonymize_mix_passes_its_checks_at_small_size() {
        for traced in [false, true] {
            let r = small_run("anonymize-mix", traced);
            assert!(r.correct(), "traced={traced}: {:?}", r.failures);
            let table = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(r.metrics.len(), table.len());
            if traced {
                let m = |name: &str| r.metrics[name].value;
                for name in [
                    "obs.overhead",
                    "stats.parallel.speedup",
                    "reliability.worlds",
                    "reliability.pairs_s",
                    "reliability.stream_bytes",
                    "core.genobf.calls",
                ] {
                    assert!(m(name) > 0.0, "{name}");
                }
                assert!(m("core.residual_s").abs() < m("core.anonymize_s"));
            } else {
                assert!(r.metrics.values().all(|m| m.value > 0.0));
            }
        }
    }
}
