//! Golden release bytes: FNV-1a digests of `anonymize` releases on fixed
//! seeded graphs, recorded from the clone-per-trial GenObf implementation
//! that preceded the delta-overlay trials (DESIGN.md §6e).
//!
//! The other determinism tests compare two runs of the same build with
//! each other, so a refactor that changes the published bytes
//! consistently would pass them. These digests pin the bytes themselves:
//! a change to candidate selection, the RNG draw order, the perturbation
//! arithmetic, the incident-probability order of the degree pmfs, or the
//! σ search shows up here. Each digest covers the release in the text
//! format plus a trailer with the bits of σ and ε̂ and the GenObf call
//! count.
//!
//! To re-record after a deliberate, documented change of the published
//! bytes, run `cargo test --test golden_bytes -- --nocapture` and copy the
//! printed digests.

use chameleon::prelude::*;
use chameleon::ugraph::io::write_text;

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn release_digest(res: &ObfuscationResult) -> u64 {
    let mut bytes = Vec::new();
    write_text(&res.graph, &mut bytes).expect("write to Vec");
    bytes.extend_from_slice(
        format!(
            "sigma {:016x} eps_hat {:016x} calls {}\n",
            res.sigma.to_bits(),
            res.eps_hat.to_bits(),
            res.genobf_calls
        )
        .as_bytes(),
    );
    fnv1a64(&bytes)
}

fn config(k: usize, epsilon: f64) -> ChameleonConfig {
    ChameleonConfig::builder()
        .k(k)
        .epsilon(epsilon)
        .trials(3)
        .num_world_samples(80)
        .sigma_tolerance(0.2)
        .build()
}

/// One golden case: a seeded input, a method, a configuration and the
/// recorded digest. Every case runs at 1 and 2 engine threads.
struct Case {
    name: &'static str,
    graph: fn() -> UncertainGraph,
    method: Method,
    cfg: fn() -> ChameleonConfig,
    seed: u64,
    digest: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "brightkite RSME",
            graph: || brightkite_like(220, 3),
            method: Method::Rsme,
            cfg: || config(100, 0.1),
            seed: 41,
            digest: 0xf014_be15_7762_8338,
        },
        Case {
            name: "dblp RS (unguided)",
            graph: || dblp_like(200, 4),
            method: Method::Rs,
            cfg: || config(60, 0.1),
            seed: 41,
            digest: 0xb219_8497_5564_a64d,
        },
        Case {
            name: "ppi RSME strip_worlds",
            graph: || ppi_like(180, 5),
            method: Method::Rsme,
            cfg: || ChameleonConfig {
                strip_worlds: 16,
                ..config(100, 0.1)
            },
            seed: 41,
            digest: 0x4168_ade5_1242_8b96,
        },
        Case {
            name: "brightkite RSME incremental",
            graph: || brightkite_like(220, 3),
            method: Method::Rsme,
            cfg: || ChameleonConfig {
                incremental: true,
                ..config(100, 0.1)
            },
            seed: 41,
            digest: 0xbc01_32c2_0e94_5a91,
        },
        Case {
            name: "brightkite RS incremental",
            graph: || brightkite_like(220, 3),
            method: Method::Rs,
            cfg: || ChameleonConfig {
                incremental: true,
                ..config(100, 0.1)
            },
            seed: 41,
            digest: 0x88fc_90f2_9de9_241d,
        },
    ]
}

#[test]
fn releases_match_the_recorded_digests() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let g = (case.graph)();
        for threads in [1usize, 2] {
            let cfg = ChameleonConfig {
                num_threads: threads,
                ..(case.cfg)()
            };
            let res = Chameleon::new(cfg)
                .anonymize(&g, case.method, case.seed)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            let got = release_digest(&res);
            println!(
                "{} threads={threads}: digest 0x{got:016x} (edges {}, sigma {}, calls {})",
                case.name,
                res.graph.num_edges(),
                res.sigma,
                res.genobf_calls
            );
            if got != case.digest {
                mismatches.push(format!(
                    "{} threads={threads}: got 0x{got:016x}, recorded 0x{:016x}",
                    case.name, case.digest
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "published bytes changed:\n{}",
        mismatches.join("\n")
    );
}
