//! service-mix: an open loop against chameleon-gate fronting two
//! journaled chameleond backends (`--workers 1`, interval fsync).
//!
//! One process sends a seeded Poisson schedule over two pipelined
//! connections (`id` echo). About 90% of requests are hits: repeat
//! `obfuscate` requests on n=2000 graphs warmed in set-up (≈200 KB request,
//! ≈430 KB reply). The rest are misses: fresh jobs on n=200–400 graphs that
//! are already private, so each runs the full downward σ sweep. Cache
//! lookup happens on the worker after the queue, so hits wait behind
//! misses: the loop exercises reactor, protocol, queue, cache, journal and
//! the gateway hop. The offered rate keeps the backend workers between a
//! third and a half busy (`server.worker.busy_share`, from polled
//! `status`), so the median hit does not wait and the tail does. The seeded backend ports are ones
//! on which the gate's ring gives each backend a fair share of digests, so
//! the misses, which follow the ring, load both backends alike.
//!
//! `wall_s` is the median time of a closed-loop burst with the open loop's
//! mix (40 requests, 20 pipelined per connection, below the gate's
//! 64-entry forward queue): 36 cached hits and 4 misses, two per backend,
//! each burst with fresh job seeds so every miss runs its σ sweep. The
//! hits queue behind the misses, so the burst covers the queue, the cache,
//! the miss work and the gateway hop together. A miss costs time linear in
//! its node count and almost nothing else, so each backend's two burst
//! misses come from a ladder of sizes over the miss range, paired to the
//! same total in every burst. The open-loop latencies are
//! per-layer metrics, because the end-to-end table is shared with the
//! offline workload, which serves no requests.

use crate::fleet::{recv_line, send_line, send_parts, Bins, Conn, Fleet};
use crate::inputs::{self, Kind, Scale};
use crate::layers;
use crate::report::{self, median, percentile_supported, quantile, Report};
use crate::trace::{self, Totals};
use chameleon_obs::json::{self, Json};
use chameleon_reliability::sample_distinct_pairs;
use chameleon_server::protocol::Request;
use chameleon_server::{fnv1a64, GatewayConfig, HashRing};
use chameleon_stats::SeedSequence;
use chameleon_ugraph::UncertainGraph;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const CONNS: usize = 2;
/// Share of the run spent in the open loop; bursts take the rest.
const OPEN_LOOP_SHARE: f64 = 0.6;
const MIN_BURSTS: usize = 5;
/// Lockstep round trips per path behind `gateway.hop_ms`.
const HOP_ROUNDS: usize = 16;
const PARSE_ROUNDS: usize = 32;
/// Misses re-executed with recording on, for the core split and the
/// tracing overhead.
const TRACED_MISSES: usize = 6;
const STATUS_POLL: Duration = Duration::from_millis(50);
/// Seeded port pairs tried (a port may be taken, or the ring lopsided).
const PORT_ATTEMPTS: u64 = 64;
/// Least share of random digests each backend must own on the gate's
/// ring; about half of all seeded port pairs reach it.
const MIN_RING_SHARE: f64 = 0.4;
/// Random digests behind `gateway.ring.min_share`.
const RING_PROBES: usize = 4096;

struct Hit {
    input: UncertainGraph,
    /// Request fields after the id, through the closing brace.
    body: String,
    owner: usize,
    /// The rendered result of the warm-up reply; every later reply for
    /// this graph must carry exactly these bytes.
    result: String,
}

struct Miss {
    input: UncertainGraph,
    body: String,
}

/// A graph the bursts send as a fresh job each time, with a new seed.
struct BurstMiss {
    input: UncertainGraph,
    /// The graph as a JSON string, as the request carries it.
    graph: String,
    owner: usize,
}

#[derive(Clone, Copy)]
enum Target {
    Hit(usize),
    Miss(usize),
}

struct Scheduled {
    /// Due time in seconds from the loop start.
    at: f64,
    conn: usize,
    target: Target,
}

struct Workload {
    hits: Vec<Hit>,
    misses: Vec<Miss>,
    burst_misses: Vec<BurstMiss>,
    schedule: Vec<Scheduled>,
}

impl Workload {
    fn body(&self, target: Target) -> &str {
        match target {
            Target::Hit(h) => &self.hits[h].body,
            Target::Miss(m) => &self.misses[m].body,
        }
    }
}

fn request_line(id: &str, body: &str) -> String {
    format!("{{\"op\":\"obfuscate\",\"id\":\"{id}\",{body}")
}

fn request_body(graph: &UncertainGraph, k: usize, epsilon: f64, seed: u64) -> String {
    body_with(&json::string(&layers::graph_text(graph)), k, epsilon, seed)
}

/// Request fields for a graph already rendered as a JSON string.
fn body_with(graph: &str, k: usize, epsilon: f64, seed: u64) -> String {
    format!(
        "\"graph\":{graph},\"k\":{k},\"epsilon\":{},\"threads\":1,\"seed\":{seed}}}",
        json::number(epsilon)
    )
}

/// The result object of an ok reply to `id`, or why there is none.
fn reply_result<'a>(reply: &'a str, id: &str, cached: bool) -> Result<&'a str, String> {
    let empty = layers::ok_reply(id, cached, "");
    let prefix = &empty[..empty.len() - 1];
    reply
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| format!("{id}: unexpected reply {}", &reply[..reply.len().min(160)]))
}

/// A uniform draw in [0, 1) from the seed sequence.
fn uniform(seq: &SeedSequence, label: &str, i: u64) -> f64 {
    (seq.derive_indexed(label, i) >> 11) as f64 / (1u64 << 53) as f64
}

fn ports(seq: &SeedSequence, attempt: u64) -> Vec<u16> {
    let a = seq.derive_indexed("service-mix/ports", attempt);
    let p0 = 20_000 + (a % 20_000) as u16;
    vec![p0, p0 + 1 + ((a >> 32) % 19_000) as u16]
}

/// Share of uniformly random graph digests the least-loaded backend owns
/// on the gate's ring. Misses follow the ring, so a low share loads one
/// backend with most of them; hit graphs are picked per backend instead.
fn ring_min_share(addrs: &[String]) -> f64 {
    let ring = HashRing::new(addrs, GatewayConfig::default().replicas);
    let probe = SeedSequence::new(0);
    let mut owned = vec![0usize; addrs.len()];
    for k in 0..RING_PROBES as u64 {
        if let Some(b) = ring.owner(probe.derive_indexed("ring-probe", k)) {
            owned[b] += 1;
        }
    }
    owned.into_iter().min().unwrap_or(0) as f64 / RING_PROBES as f64
}

/// Seeded inputs for backends on `ports`: hit graphs and burst-miss graphs
/// balanced over the backends (the gate routes by graph digest over a ring
/// of backend addresses), the schedule, and one already-private graph per
/// open-loop miss.
fn generate(scale: &Scale, seed: u64, seconds: f64, ports: &[u16]) -> Result<Workload, String> {
    let seq = SeedSequence::new(seed);
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let share = ring_min_share(&addrs);
    if share < MIN_RING_SHARE {
        return Err(format!("ring gives one backend {share:.3} of digests"));
    }
    let ring = HashRing::new(&addrs, GatewayConfig::default().replicas);
    let mut hits: Vec<Hit> = Vec::new();
    let mut owned = [0usize; BACKENDS];
    let mut candidate = 0u64;
    while owned.iter().any(|&n| n < scale.hit_graphs_per_backend) {
        if candidate == 64 {
            return Err("no balanced hit-graph placement in 64 candidates".into());
        }
        let label = format!("service-mix/hit/{candidate}");
        let input = inputs::draw(
            &seq,
            &label,
            Kind::Brightkite,
            scale.hit_nodes,
            scale.hit_k,
            scale.hit_epsilon,
            false,
        )?;
        candidate += 1;
        let body = request_body(
            &input.graph,
            scale.hit_k,
            scale.hit_epsilon,
            seq.derive(&format!("{label}/seed")) >> 33,
        );
        let digest = fnv1a64(layers::graph_text(&input.graph).as_bytes());
        let owner = ring.owner(digest).expect("ring has backends");
        if owned[owner] < scale.hit_graphs_per_backend {
            owned[owner] += 1;
            hits.push(Hit {
                input: input.graph,
                body,
                owner,
                result: String::new(),
            });
        }
    }

    // Per backend, a ladder of sizes evenly spaced over the miss range;
    // each burst pairs rung a with rung P−1−a, so every burst asks each
    // backend for the same amount of miss work.
    let (lo, hi) = scale.miss_nodes;
    let pool = scale.burst_pool_per_backend;
    let mut burst_misses: Vec<BurstMiss> = Vec::new();
    for rung in 0..pool {
        let nodes = lo + (hi - lo) * rung / (pool - 1);
        for backend in 0..BACKENDS {
            let placed = (0..64).find_map(|candidate| {
                let label = format!("service-mix/burst-miss/{rung}/{backend}/{candidate}");
                let drawn = inputs::draw(
                    &seq,
                    &label,
                    Kind::Brightkite,
                    nodes,
                    scale.miss_k,
                    scale.miss_epsilon,
                    true,
                );
                let input = match drawn {
                    Ok(input) => input,
                    Err(e) => return Some(Err(e)),
                };
                let text = layers::graph_text(&input.graph);
                let owner = ring.owner(fnv1a64(text.as_bytes()));
                (owner == Some(backend)).then(|| {
                    Ok(BurstMiss {
                        input: input.graph,
                        graph: json::string(&text),
                        owner: backend,
                    })
                })
            });
            burst_misses.push(placed.unwrap_or_else(|| {
                Err(format!(
                    "no burst-miss graph for backend {backend} in 64 candidates"
                ))
            })?);
        }
    }

    let duration = OPEN_LOOP_SHARE * seconds;
    let mut schedule = Vec::new();
    let mut misses = 0usize;
    let mut at = 0.0;
    for i in 0.. {
        at += -(1.0 - uniform(&seq, "service-mix/gap", i)).ln() / scale.rate_per_s;
        if at >= duration {
            break;
        }
        let target = if uniform(&seq, "service-mix/kind", i) < scale.miss_share {
            misses += 1;
            Target::Miss(misses - 1)
        } else {
            Target::Hit(
                (seq.derive_indexed("service-mix/hit-pick", i) % hits.len() as u64) as usize,
            )
        };
        schedule.push(Scheduled {
            at,
            conn: (seq.derive_indexed("service-mix/conn", i) % CONNS as u64) as usize,
            target,
        });
    }
    let misses = (0..misses as u64)
        .map(|m| {
            let label = format!("service-mix/miss/{m}");
            let nodes = lo + (seq.derive(&label) % (hi - lo + 1) as u64) as usize;
            let input = inputs::draw(
                &seq,
                &label,
                Kind::Brightkite,
                nodes,
                scale.miss_k,
                scale.miss_epsilon,
                true,
            )?;
            let body = request_body(
                &input.graph,
                scale.miss_k,
                scale.miss_epsilon,
                seq.derive(&format!("{label}/seed")) >> 33,
            );
            Ok(Miss {
                input: input.graph,
                body,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Workload {
        hits,
        misses,
        burst_misses,
        schedule,
    })
}

/// Sends every hit graph once through the gate and keeps its result.
fn warm(fleet: &Fleet, w: &mut Workload) -> Result<(), String> {
    let mut conn = fleet.gate_conn()?;
    for (i, hit) in w.hits.iter().enumerate() {
        conn.send(&request_line(&format!("w{i}"), &hit.body))?;
    }
    fleet.count_gate(w.hits.len() as u64);
    for _ in 0..w.hits.len() {
        let reply = conn.recv()?;
        let i: usize = reply
            .strip_prefix("{\"id\":\"w")
            .and_then(|r| r.split('"').next())
            .and_then(|n| n.parse().ok())
            .filter(|&i| i < w.hits.len())
            .ok_or_else(|| {
                format!(
                    "warm-up: unexpected reply {}",
                    &reply[..reply.len().min(160)]
                )
            })?;
        w.hits[i].result = reply_result(&reply, &format!("w{i}"), false)?.to_string();
    }
    Ok(())
}

/// Generates inputs, starts the fleet and warms the hit entries.
fn set_up(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    bins: &Bins,
    dir: &Path,
) -> Result<(Workload, Fleet), String> {
    let seq = SeedSequence::new(seed);
    let mut last_err = String::new();
    for attempt in 0..PORT_ATTEMPTS {
        let ports = ports(&seq, attempt);
        // Some address pairs give one backend too small an arc of the
        // gate's ring; such ports are skipped like ports already in use.
        let mut w = match generate(scale, seed, seconds, &ports) {
            Ok(w) => w,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let _ = std::fs::remove_dir_all(dir);
        match Fleet::start(bins, dir, &ports) {
            Ok(fleet) => {
                warm(&fleet, &mut w)?;
                return Ok((w, fleet));
            }
            Err(e) => last_err = e,
        }
    }
    Err(format!("no usable backend ports: {last_err}"))
}

/// What the open loop saw, per scheduled request.
struct LoopOutcome {
    sent: Vec<f64>,
    done: Vec<Option<f64>>,
    miss_results: Vec<Option<String>>,
}

fn id_of(reply: &str) -> Option<usize> {
    reply
        .strip_prefix("{\"id\":\"q")?
        .split('"')
        .next()?
        .parse()
        .ok()
}

/// Runs the seeded schedule: per connection one thread sends each request
/// at its due time (late if the previous write blocked) and one reads and
/// checks replies as they arrive.
fn open_loop(report: &mut Report, fleet: &Fleet, w: &Workload) -> Result<LoopOutcome, String> {
    let n = w.schedule.len();
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(fleet.gate_conn()?.split());
    }
    let start = Instant::now() + Duration::from_millis(100);
    let mut outcome = LoopOutcome {
        sent: vec![f64::NAN; n],
        done: vec![None; n],
        miss_results: vec![None; w.misses.len()],
    };
    let mut problems = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (c, (reader, writer)) in conns.iter_mut().enumerate() {
            let mine: Vec<usize> = (0..n).filter(|&i| w.schedule[i].conn == c).collect();
            let expected = mine.len();
            let sender = s.spawn(move || {
                let mut sent = Vec::with_capacity(mine.len());
                for i in mine {
                    let due = start + Duration::from_secs_f64(w.schedule[i].at);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    sent.push((i, start.elapsed().as_secs_f64()));
                    let head = request_line(&format!("q{i}"), "");
                    let body = w.body(w.schedule[i].target);
                    if let Err(e) = send_parts(writer, &[&head, body]) {
                        return (sent, Some(e));
                    }
                }
                (sent, None)
            });
            let receiver = s.spawn(move || {
                let mut got = Vec::with_capacity(expected);
                for _ in 0..expected {
                    let reply = match recv_line(reader) {
                        Ok(r) => r,
                        Err(e) => return (got, Some(e)),
                    };
                    let t = start.elapsed().as_secs_f64();
                    let Some(i) = id_of(&reply).filter(|&i| i < n) else {
                        return (
                            got,
                            Some(format!("reply without a known id: {:.120}", reply)),
                        );
                    };
                    let id = format!("q{i}");
                    let verdict = match w.schedule[i].target {
                        Target::Hit(h) => {
                            if reply_result(&reply, &id, true).is_ok_and(|r| r == w.hits[h].result)
                            {
                                Ok(None)
                            } else {
                                Err(format!("{id}: hit reply differs from the first reply"))
                            }
                        }
                        Target::Miss(_) => {
                            reply_result(&reply, &id, false).map(|r| Some(r.to_string()))
                        }
                    };
                    got.push((i, t, verdict));
                }
                (got, None)
            });
            handles.push((sender, receiver));
        }
        for (sender, receiver) in handles {
            let (sent, err) = sender.join().expect("sender thread");
            for (i, t) in sent {
                outcome.sent[i] = t;
            }
            problems.extend(err);
            let (got, err) = receiver.join().expect("receiver thread");
            for (i, t, verdict) in got {
                match verdict {
                    Ok(result) => {
                        outcome.done[i] = Some(t);
                        if let (Target::Miss(m), Some(r)) = (w.schedule[i].target, result) {
                            outcome.miss_results[m] = Some(r);
                        }
                    }
                    Err(e) => problems.push(e),
                }
            }
            problems.extend(err);
        }
    });
    fleet.count_gate(n as u64);
    let answered = outcome.done.iter().filter(|d| d.is_some()).count();
    report.attempted += n as u64;
    report.failed += (n - answered) as u64;
    report.failures.extend(problems);
    Ok(outcome)
}

/// Latency, lateness and backlog of the open loop.
fn loop_metrics(report: &mut Report, scale: &Scale, w: &Workload, out: &LoopOutcome) {
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut late_ms = Vec::new();
    for (i, s) in w.schedule.iter().enumerate() {
        if out.sent[i].is_finite() {
            late_ms.push((out.sent[i] - s.at) * 1e3);
        }
        if let Some(done) = out.done[i] {
            let ms = (done - s.at) * 1e3;
            match s.target {
                Target::Hit(_) => hit_ms.push(ms),
                Target::Miss(_) => miss_ms.push(ms),
            }
        }
    }
    let n = w.schedule.len();
    for (name, values, q) in [
        ("service.hit_p50_ms", &hit_ms, 0.5),
        ("service.hit_p95_ms", &hit_ms, 0.95),
        ("service.miss_p50_ms", &miss_ms, 0.5),
        ("service.miss_p60_ms", &miss_ms, 0.6),
        ("client.late_p95_ms", &late_ms, 0.95),
    ] {
        if values.is_empty() {
            continue;
        }
        report.set(name, quantile(values, q), values.len());
        if !percentile_supported(values.len(), q) {
            report.note(format!(
                "{name}: {} samples put fewer than ten beyond the percentile",
                values.len()
            ));
        }
    }
    report.set(
        "service.hit_share",
        hit_ms.len() as f64 / n.max(1) as f64,
        n,
    );
    report.note(format!(
        "open loop: {n} requests at {:.1}/s, {} hits, {} misses",
        n as f64 / w.schedule.last().map_or(1.0, |s| s.at.max(1e-9)),
        hit_ms.len(),
        miss_ms.len()
    ));

    // Backlog at each due time: requests due and not yet answered. A
    // backlog that grows across the run means the offered rate exceeds
    // what the service sustains, and the latencies are not steady-state.
    // Its least-squares trend over the loop must stay under two seconds of
    // offered requests. A queueing model of this loop (Poisson arrivals,
    // one FIFO worker per backend, the measured service times) never
    // passed half that in 2,000 seeded loops at this rate, nor at a fifth
    // more load; a loop 25% over capacity rises by several times it.
    let backlog: Vec<(f64, f64)> = w
        .schedule
        .iter()
        .map(|s| {
            let due = w
                .schedule
                .iter()
                .zip(&out.done)
                .filter(|(r, d)| r.at <= s.at && d.is_none_or(|d| d > s.at))
                .count();
            (s.at, due as f64)
        })
        .collect();
    if backlog.len() >= 8 {
        let n = backlog.len() as f64;
        let (mt, mb) = (
            backlog.iter().map(|p| p.0).sum::<f64>() / n,
            backlog.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let cov: f64 = backlog.iter().map(|p| (p.0 - mt) * (p.1 - mb)).sum();
        let var: f64 = backlog.iter().map(|p| (p.0 - mt).powi(2)).sum();
        let span = backlog[backlog.len() - 1].0 - backlog[0].0;
        let rise = if var > 0.0 { cov / var * span } else { 0.0 };
        let limit = 2.0 * scale.rate_per_s;
        report.note(format!(
            "open-loop backlog: mean {mb:.2}, trend over the loop {rise:+.2} (limit {limit:.1})"
        ));
        report.check(rise <= limit, || {
            format!("open loop invalid: backlog grew by {rise:.2} requests")
        });
    }
}

/// A miss release passes the (k, ε) audit with its input's node count.
fn audit_release(
    report: &mut Report,
    what: &str,
    result: &str,
    input: &UncertainGraph,
    scale: &Scale,
) {
    let release = Json::parse(result)
        .ok()
        .and_then(|doc| doc.get("graph").and_then(Json::as_str).map(String::from))
        .ok_or_else(|| "no graph field".to_string())
        .and_then(|text| layers::parse_graph_text(&text));
    match release {
        Ok(g) => {
            let audit = layers::audit(&g, input, scale.miss_k);
            report.check(
                g.num_nodes() == input.num_nodes() && audit.satisfies(scale.miss_epsilon),
                || {
                    format!(
                        "{what}: release fails the audit (eps_hat {})",
                        audit.eps_hat
                    )
                },
            );
        }
        Err(e) => report.fail_op(format!("{what}: release unreadable: {e}")),
    }
}

/// Every open-loop miss release passes the (k, ε) audit.
fn audit_misses(report: &mut Report, scale: &Scale, w: &Workload, out: &LoopOutcome) {
    for (m, result) in out.miss_results.iter().enumerate() {
        if let Some(result) = result {
            audit_release(
                report,
                &format!("miss {m}"),
                result,
                &w.misses[m].input,
                scale,
            );
        }
    }
}

/// Warm-up releases: the (k, ε) audit and their reliability discrepancy.
fn audit_hits(report: &mut Report, scale: &Scale, seed: u64, w: &Workload) {
    let seq = SeedSequence::new(seed);
    let mut disc = Vec::new();
    for (i, hit) in w.hits.iter().enumerate() {
        let release = Json::parse(&hit.result)
            .ok()
            .and_then(|doc| doc.get("graph").and_then(Json::as_str).map(String::from))
            .ok_or_else(|| "no graph field".to_string())
            .and_then(|text| layers::parse_graph_text(&text));
        let Ok(g) = release else {
            report.fail_op(format!("hit {i}: release unreadable"));
            continue;
        };
        let audit = layers::audit(&g, &hit.input, scale.hit_k);
        report.check(
            g.num_nodes() == hit.input.num_nodes() && audit.satisfies(scale.hit_epsilon),
            || {
                format!(
                    "hit {i}: release fails the audit (eps_hat {})",
                    audit.eps_hat
                )
            },
        );
        let pairs = sample_distinct_pairs(
            g.num_nodes(),
            scale.disc_pairs,
            &mut seq.rng("service-mix/disc-pairs"),
        );
        disc.push(layers::discrepancy(
            &hit.input,
            &g,
            scale.disc_worlds,
            seq.derive("service-mix/disc-worlds"),
            &pairs,
            inputs::ENGINE_THREADS,
        ));
    }
    if !disc.is_empty() {
        report.set(
            "quality.disc_avg",
            disc.iter().sum::<f64>() / disc.len() as f64,
            disc.len(),
        );
    }
}

/// Closed-loop bursts of the open loop's mix, equally many requests per
/// backend; returns each burst's time to its last reply byte. The request
/// lines are built before and the replies checked after each timed burst,
/// so the client spends no CPU the daemons could use.
fn bursts(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    fleet: &Fleet,
    w: &Workload,
    budget: Duration,
) -> Result<Vec<f64>, String> {
    // Request i goes out on connection i % CONNS; each connection
    // alternates backends, so the burst's shape does not depend on how the
    // seed placed the graphs. The first requests for each backend are its
    // two burst misses, so its hits queue behind them: burst t sends rungs
    // a = t mod P/2 and P−1−a of the backend's ladder, so a run's bursts
    // span the whole ladder and each does the same miss work.
    let owned_by = |b: usize, of: &dyn Fn(usize) -> usize, n: usize| -> Vec<usize> {
        (0..n).filter(|&i| of(i) == b).collect()
    };
    let hits_of: Vec<Vec<usize>> = (0..BACKENDS)
        .map(|b| owned_by(b, &|h| w.hits[h].owner, w.hits.len()))
        .collect();
    let misses_of: Vec<Vec<usize>> = (0..BACKENDS)
        .map(|b| owned_by(b, &|m| w.burst_misses[m].owner, w.burst_misses.len()))
        .collect();
    let targets = |t: usize| -> Vec<Target> {
        let mut sent_to = [0usize; BACKENDS];
        (0..scale.burst)
            .map(|i| {
                let (c, j) = (i % CONNS, i / CONNS);
                let b = j % BACKENDS;
                sent_to[b] += 1;
                let (pool, rank) = (&misses_of[b], sent_to[b] - 1);
                let rung = t % (pool.len() / 2);
                match rank {
                    0 => Target::Miss(pool[rung]),
                    1 => Target::Miss(pool[pool.len() - 1 - rung]),
                    _ => Target::Hit(hits_of[b][(j / BACKENDS + c) % hits_of[b].len()]),
                }
            })
            .collect()
    };
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(fleet.gate_conn()?.split());
    }
    // Fresh job seeds for every burst: no miss is ever in the cache.
    let mut next_seed = SeedSequence::new(seed).derive("service-mix/burst-seed") >> 34;
    let mut releases = Vec::new();
    let deadline = Instant::now() + budget;
    let mut times = Vec::new();
    while times.len() < MIN_BURSTS || Instant::now() < deadline {
        let targets = targets(times.len());
        let lines: Vec<String> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let id = format!("b{i}");
                match *t {
                    Target::Hit(h) => request_line(&id, &w.hits[h].body),
                    Target::Miss(m) => {
                        next_seed += 1;
                        let body = body_with(
                            &w.burst_misses[m].graph,
                            scale.miss_k,
                            scale.miss_epsilon,
                            next_seed,
                        );
                        request_line(&id, &body)
                    }
                }
            })
            .collect();
        let start = Instant::now();
        let replies: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, (reader, writer))| {
                    let mine: Vec<&String> = lines.iter().skip(c).step_by(CONNS).collect();
                    let count = mine.len();
                    let sender = s.spawn(move || -> Result<(), String> {
                        mine.iter().try_for_each(|line| send_line(writer, line))
                    });
                    let receiver = s.spawn(move || -> Result<Vec<String>, String> {
                        (0..count).map(|_| recv_line(reader)).collect()
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(sender, receiver)| {
                    let got = receiver.join().expect("receiver thread");
                    sender.join().expect("sender thread").and(got)
                })
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        fleet.count_gate(scale.burst as u64);
        report.attempted += scale.burst as u64;
        let mut failed = Vec::new();
        for got in replies {
            let replies = match got {
                Ok(replies) => replies,
                Err(e) => {
                    failed.push(e);
                    continue;
                }
            };
            for reply in replies {
                let i = reply
                    .strip_prefix("{\"id\":\"b")
                    .and_then(|r| r.split('"').next())
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&i| i < scale.burst);
                let verdict = match i.map(|i| (i, targets[i])) {
                    Some((i, Target::Hit(h))) => reply_result(&reply, &format!("b{i}"), true)
                        .ok()
                        .filter(|r| *r == w.hits[h].result)
                        .map(|_| ())
                        .ok_or_else(|| format!("b{i}: burst hit differs from the first reply")),
                    Some((i, Target::Miss(m))) => reply_result(&reply, &format!("b{i}"), false)
                        .map(|r| releases.push((m, r.to_string()))),
                    None => Err(format!("burst reply without a known id: {reply:.120}")),
                };
                failed.extend(verdict.err());
            }
        }
        if !failed.is_empty() {
            report.failed += failed.len() as u64;
            report.failures.extend(failed);
            break;
        }
        times.push(elapsed);
    }
    for (m, result) in &releases {
        audit_release(
            report,
            &format!("burst miss {m}"),
            result,
            &w.burst_misses[*m].input,
            scale,
        );
    }
    Ok(times)
}

/// Lockstep round trips for hit 0 through the gate and straight to its
/// owning backend; the median difference is the gateway hop.
fn gateway_hop(report: &mut Report, fleet: &Fleet, w: &Workload) -> Result<(), String> {
    let hit = &w.hits[0];
    let mut via_gate = fleet.gate_conn()?;
    let mut direct = Conn::open(&fleet.backends[hit.owner].addr)?;
    let (mut gate_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for r in 0..HOP_ROUNDS {
        for (conn, out) in [(&mut via_gate, &mut gate_ms), (&mut direct, &mut direct_ms)] {
            let id = format!("h{r}");
            let start = Instant::now();
            conn.send(&request_line(&id, &hit.body))?;
            let reply = conn.recv()?;
            out.push(start.elapsed().as_secs_f64() * 1e3);
            report.check(reply == layers::ok_reply(&id, true, &hit.result), || {
                format!("{id}: hop reply differs from the first reply")
            });
        }
    }
    fleet.count_gate(HOP_ROUNDS as u64);
    fleet.count_direct(HOP_ROUNDS as u64);
    report.set(
        "gateway.hop_ms",
        median(&gate_ms) - median(&direct_ms),
        HOP_ROUNDS,
    );
    Ok(())
}

/// Re-executes every answered miss in-process: the reply must be
/// byte-identical to `JobSpec::execute` of the same spec. A few run again
/// with recording on, for the core split and the tracing overhead.
fn replay_misses(report: &mut Report, w: &Workload, out: &LoopOutcome) {
    let mut specs = Vec::new();
    for (i, s) in w.schedule.iter().enumerate() {
        let Target::Miss(m) = s.target else { continue };
        let Some(result) = &out.miss_results[m] else {
            continue;
        };
        let id = format!("q{i}");
        match layers::parse_request(&request_line(&id, &w.misses[m].body)) {
            Ok(Request::Job(job)) => specs.push((id, job.spec, result)),
            Ok(_) => report.fail_op(format!("{id}: not a job request")),
            Err(e) => report.fail_op(format!("{id}: {e}")),
        }
    }
    let mut untraced = Vec::new();
    for (id, spec, result) in &specs {
        let start = Instant::now();
        let executed = layers::execute_job(spec);
        untraced.push(start.elapsed().as_secs_f64());
        report.check(executed.as_deref() == Ok(result.as_str()), || {
            format!("{id}: daemon reply differs from JobSpec::execute")
        });
    }
    if untraced.is_empty() {
        return;
    }
    report.set(
        "server.job.execute_ms",
        median(&untraced) * 1e3,
        untraced.len(),
    );
    let mut split = Totals::default();
    let mut traced = 0.0;
    let n = specs.len().min(TRACED_MISSES);
    for (_, spec, _) in &specs[..n] {
        let start = Instant::now();
        let _ = split.capture(|| layers::execute_job(spec));
        traced += start.elapsed().as_secs_f64();
    }
    trace::core_split(report, &split, n, split.span_s("anonymize.run"));
    report.set(
        "obs.overhead",
        traced / untraced[..n].iter().sum::<f64>(),
        n,
    );
    report.set("stats.parallel.speedup", 1.0, n);
    report.note(
        "misses run at threads=1 on single-worker backends: speed-up is 1 by construction".into(),
    );
}

/// Backend `status` results before and after `during`, and per backend
/// the queue depths and jobs in flight polled while it ran.
struct Polled {
    before: Vec<Json>,
    after: Vec<Json>,
    depths: Vec<Vec<f64>>,
    in_flight: Vec<Vec<f64>>,
}

fn status_field(docs: &[Json], path: &[&str]) -> f64 {
    docs.iter()
        .map(|d| {
            path.iter()
                .try_fold(d, |v, k| v.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        })
        .sum()
}

fn polled<T>(fleet: &Fleet, during: impl FnOnce() -> T) -> Result<(T, Polled), String> {
    let mut conns = Vec::new();
    for b in &fleet.backends {
        conns.push(Conn::open(&b.addr)?);
    }
    let read = |conns: &mut Vec<Conn>| -> Result<Vec<Json>, String> {
        conns.iter_mut().map(|c| fleet.status(c)).collect()
    };
    let before = read(&mut conns)?;
    let stop = AtomicBool::new(false);
    let (out, polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let n = conns.len();
            let (mut depths, mut in_flight) = (vec![Vec::new(); n], vec![Vec::new(); n]);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(STATUS_POLL);
                for (b, doc) in read(&mut conns)?.iter().enumerate() {
                    let field = |name| status_field(std::slice::from_ref(doc), &[name]);
                    depths[b].push(field("queue_depth"));
                    in_flight[b].push(field("in_flight"));
                }
            }
            Ok::<_, String>((depths, in_flight))
        });
        let out = during();
        stop.store(true, Ordering::Relaxed);
        (out, poller.join().expect("status poller"))
    });
    let (depths, in_flight) = polls?;
    let after = read(&mut conns)?;
    Ok((
        out,
        Polled {
            before,
            after,
            depths,
            in_flight,
        },
    ))
}

fn status_metrics(report: &mut Report, p: &Polled, requests: usize) {
    let delta = |path: &[&str]| status_field(&p.after, path) - status_field(&p.before, path);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let depths = p.depths.concat();
    report.set("server.queue.depth_mean", mean(&depths), depths.len());
    // One worker per backend: the share of polls that find a job in
    // flight is the share of the time the worker is busy.
    let busy: Vec<f64> = p
        .in_flight
        .iter()
        .map(|polls| polls.iter().filter(|&&n| n > 0.0).count() as f64 / polls.len().max(1) as f64)
        .collect();
    report.set(
        "server.worker.busy_share",
        mean(&busy),
        p.in_flight.concat().len(),
    );
    report.note(format!(
        "worker busy share per backend: {}",
        busy.iter()
            .map(|b| format!("{b:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.set(
        "server.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    report.set(
        "server.journal.appends_per_req",
        delta(&["journal", "appends"]) / requests.max(1) as f64,
        requests,
    );
    report.set(
        "server.journal.syncs",
        delta(&["journal", "syncs"]),
        requests,
    );
}

pub fn run(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    bins: &Bins,
    dir: &Path,
) -> Report {
    let mut report = Report::new();
    match run_inner(&mut report, scale, seed, seconds, traced, bins, dir) {
        Ok(()) => {}
        Err(e) => report.fail_op(e),
    }
    report
}

fn run_inner(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    bins: &Bins,
    dir: &Path,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..crate::SETUP_REPS {
        // The previous set-up's fleet stops before the next one starts.
        if let Some((_, mut fleet)) = live.take() {
            Fleet::stop(&mut fleet)?;
        }
        let start = Instant::now();
        live = Some(set_up(
            scale,
            seed,
            seconds,
            bins,
            &dir.join(format!("setup{rep}")),
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (w, mut fleet) = live.expect("at least one set-up");
    report.set("setup_s", median(&setup_s), setup_s.len());
    report.set("inputs.private_share", 1.0, w.misses.len());
    let addrs: Vec<String> = fleet.backends.iter().map(|b| b.addr.clone()).collect();
    report.set(
        "gateway.ring.min_share",
        ring_min_share(&addrs),
        RING_PROBES,
    );
    report.note(format!(
        "property already_private_misses = {}/{} (by construction); hit graphs = {}",
        w.misses.len(),
        w.misses.len(),
        w.hits.len()
    ));
    audit_hits(report, scale, seed, &w);

    let outcome = if traced {
        let (outcome, polls) = polled(&fleet, || open_loop(report, &fleet, &w))?;
        status_metrics(report, &polls, w.schedule.len());
        outcome?
    } else {
        open_loop(report, &fleet, &w)?
    };
    loop_metrics(report, scale, &w, &outcome);
    audit_misses(report, scale, &w, &outcome);

    if traced {
        gateway_hop(report, &fleet, &w)?;
        let line = request_line("p0", &w.hits[0].body);
        let mut parse_us = Vec::new();
        for _ in 0..PARSE_ROUNDS {
            let start = Instant::now();
            let parsed = layers::parse_request(&line);
            parse_us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(parsed.is_ok(), || "hit request does not parse".into());
        }
        report.set("server.protocol.parse_us", median(&parse_us), PARSE_ROUNDS);
    } else {
        let budget = Duration::from_secs_f64((1.0 - OPEN_LOOP_SHARE) * seconds);
        let times = bursts(report, scale, seed, &fleet, &w, budget)?;
        if !times.is_empty() {
            report.set("wall_s", median(&times), times.len());
            report.note(format!(
                "bursts: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} s",
                quantile(&times, 0.0),
                quantile(&times, 0.25),
                median(&times),
                quantile(&times, 0.75),
                quantile(&times, 1.0)
            ));
        }
        let mut peak = 0.0f64;
        for b in &fleet.backends {
            peak = peak.max(report::peak_rss_mb(Some(b.pid()))?);
        }
        report.set("peak_rss_mb", peak, fleet.backends.len());
    }

    fleet.stop()?;
    let gate_lines = fleet.gate_lines.load(Ordering::Relaxed);
    let backend_lines = gate_lines + fleet.direct_lines.load(Ordering::Relaxed);
    let mut backend_ticks = 0;
    for b in &fleet.backends {
        backend_ticks += b.final_counter("server.reactor.ticks")?;
    }
    report.set(
        "server.reactor.ticks_per_req",
        backend_ticks as f64 / backend_lines.max(1) as f64,
        backend_lines as usize,
    );
    report.set(
        "gateway.reactor.ticks_per_req",
        fleet.gate.final_counter("gateway.reactor.ticks")? as f64 / gate_lines.max(1) as f64,
        gate_lines as usize,
    );
    let forwarded = fleet.gate.final_counter("gateway.forwarded")?;
    report.set("gateway.forwarded", forwarded as f64, gate_lines as usize);
    report.check(forwarded == gate_lines, || {
        format!("gate forwarded {forwarded} of {gate_lines} request lines")
    });

    if traced {
        replay_misses(report, &w, &outcome);
    }
    Ok(())
}
