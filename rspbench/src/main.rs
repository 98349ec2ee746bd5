//! `rspbench` — the end-to-end benchmark of the served RSP.
//!
//! ```sh
//! cargo run --release --offline --manifest-path rspbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process holds the whole served stack (reactor servers, worker
//! pools, storage engines, replicas, proxy) and the load generator, which
//! talks to the front door over loopback TCP with at most `nproc`
//! threads and connections (capped at 2). Each run sets the stack up
//! several times (timing each), warms up, then runs an open-loop phase at
//! the workload's fixed offered rate and a closed-loop phase, and checks
//! every answer. `--trace 1` swaps in the span decorators and prints the
//! per-layer metrics instead of the end-to-end ones.
//!
//! The last line of standard output is the result object; the line
//! before it is the run's full report (cores, git revision, seed,
//! repetitions, sample counts and quartiles). Scratch data lives under
//! `.rspbench/` in the working directory and is removed at exit.

mod check;
mod measure;
mod report;
mod stack;
mod trace;
mod workload;

use measure::{median, now_ns};
use report::{Metric, Report};
use stack::{Deployment, Ledger};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use trace::{Op, SpanLog};
use workload::{Generator, Inputs, PhaseStats, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Closed-loop repetitions; `throughput_rps` is their median. The traced
/// run alternates untraced and traced repetitions.
const CLOSED_REPS: usize = 4;
/// Uploads of the freshness probe (workloads without a publish loop),
/// and the gap between them: enough acks, spread evenly over the publish
/// interval, for a steady median.
const FRESHNESS_ROUNDS: usize = 240;
const FRESHNESS_GAP: Duration = Duration::from_millis(9);
/// Untimed warm-up before the timed phases.
const WARMUP: Duration = Duration::from_millis(1_500);
/// A run whose generator ran later than this at p99 is invalid.
const MAX_GEN_LAG_P99_US: f64 = 20_000.0;
/// Per-operation sum of per-layer median self times must be within this
/// share of the median client-observed latency.
const SELF_TIME_TOLERANCE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("{name} is required"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{name} takes a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name}: not a whole number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rspbench: {e}\nusage: rspbench --workload browse|ingest|cluster --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "rspbench: unknown workload {:?} (browse, ingest, cluster)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let work = PathBuf::from(".rspbench").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = run(spec, &args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".rspbench");
    match outcome {
        Ok(report) => {
            report.print_table();
            println!("{}", report.full_json());
            println!("{}", report.result_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                for e in &report.errors {
                    eprintln!("rspbench: check failed: {e}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rspbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Timings of one set-up of the stack (before minting).
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    world_s: f64,
    preload_s: f64,
    recover_ms: f64,
}

struct Setup {
    world: orsp_world::World,
    deployment: Deployment,
    queries: workload::Popularity<orsp_search::SearchQuery>,
    entities: workload::Popularity<orsp_types::EntityId>,
    preloaded: Vec<Ledger>,
    times: SetupTimes,
}

fn secs_since(t0: u64) -> f64 {
    (now_ns() - t0) as f64 / 1e9
}

/// Build the stack once: world, preloaded directory, recovery, servers.
fn set_up(
    spec: &Spec,
    seed: u64,
    root: &Path,
    log: &Option<Arc<SpanLog>>,
) -> Result<Setup, String> {
    let t0 = now_ns();
    let world = stack::world();
    let world_s = secs_since(t0);
    let (queries, entities) = workload::popularity(&world, spec.skewed);

    let t1 = now_ns();
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let ranges = if spec.cluster {
        stack::CLUSTER_NODES
    } else {
        1
    };
    let preloaded = stack::preload(seed, spec.preload, &entities, ranges, &|range| {
        if spec.cluster {
            (0..stack::CLUSTER_NODES)
                .map(|node| stack::cluster_dir(root, node, range))
                .collect()
        } else {
            vec![root.join("node")]
        }
    });
    let preload_s = secs_since(t1);

    let deployment = if spec.cluster {
        stack::cluster(&world, root, log)
    } else {
        stack::single_node(&world, &root.join("node"), log)
    };
    let recover_ms = deployment.recover_ms;
    Ok(Setup {
        world,
        deployment,
        queries,
        entities,
        preloaded,
        times: SetupTimes {
            total_s: secs_since(t0),
            world_s,
            preload_s,
            recover_ms,
        },
    })
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor withheld from this machine so far, in clock
/// ticks (the `steal` column of `/proc/stat`; 0 where unavailable).
fn cpu_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time this process has used (all threads, user + system), in
/// clock ticks of 10 ms, from `/proc/self/stat`.
fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields overall.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0)
}

fn storage_counter(name: &str) -> u64 {
    orsp_obs::global().counter(name).get()
}

fn run(spec: Spec, args: &Args, work: &Path) -> Result<Report, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal0 = cpu_steal_ticks();
    let conns = cores.clamp(1, 2);
    let seed = args.seed;
    let total = args.seconds as f64;
    let open_s = total * 0.6;
    let closed_s = total * 0.4;
    let in_mix =
        |op: Op| spec.mix[Op::CLIENT.iter().position(|o| *o == op).expect("client op")] > 0;
    // The open-loop schedules are fixed by the seed, so the inputs they
    // need are known exactly; the closed loop gets a budget per repetition.
    let warmup = workload::schedule(&spec, seed, "rspbench-warmup", WARMUP);
    let open = workload::schedule(
        &spec,
        seed,
        "rspbench-open",
        Duration::from_secs_f64(open_s),
    );
    let share = |i: usize| spec.mix[i] as f64 / spec.mix.iter().sum::<u32>() as f64;
    let rep_s = closed_s / CLOSED_REPS as f64;
    let closed_uploads = (spec.closed_cap * rep_s * share(2)).ceil() as usize;
    let closed_issues = (spec.closed_cap * rep_s * share(3)).ceil() as usize;
    let uploads = warmup.uploads + open.uploads + CLOSED_REPS * closed_uploads + FRESHNESS_ROUNDS;
    let blinded = warmup.issues + open.issues + CLOSED_REPS * closed_issues;
    let log = args.trace.then(SpanLog::new);

    // Set up several times; keep the last. Tokens are minted once, on the
    // kept stack: they are consumable inputs, and every set-up serves the
    // same mint key. `setup_s` is the median set-up plus the minting.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let root = work.join(format!("setup{rep}"));
        let setup = set_up(&spec, seed, &root, &log)?;
        setups.push(setup.times);
        if rep + 1 < SETUP_REPS {
            drop(setup.deployment.shutdown());
            std::fs::remove_dir_all(&root)
                .map_err(|e| format!("remove {}: {e}", root.display()))?;
        } else {
            kept = Some(setup);
        }
    }
    let Setup {
        world,
        deployment,
        queries,
        entities,
        preloaded,
        ..
    } = kept.expect("at least one set-up");
    let t_mint = now_ns();
    let tokens = stack::mint_tokens(&deployment, seed, uploads, conns)?;
    let prepared = workload::prepare_uploads(seed, &entities, tokens);
    let blinded = stack::prepare_blinded(
        seed,
        "rspbench-issue",
        &deployment.mint_public,
        2_000_000,
        1,
        blinded,
    );
    let mint_s = secs_since(t_mint);
    let mut inputs = Inputs {
        queries,
        entities,
        uploads: prepared,
        blinded,
    };
    if let Some(log) = &log {
        log.take(); // spans of set-up calls (minting) are not request spans
    }
    let addr = deployment.addr();
    let mut report = Report::new(spec.name, seed, cores, args.trace);

    for (i, t) in setups.iter().enumerate() {
        report.note(&format!(
            "set-up {i}: {:.3}s (world {:.3}s, preload {:.3}s, recovery {:.1}ms)",
            t.total_s, t.world_s, t.preload_s, t.recover_ms
        ));
    }
    report.note(&format!(
        "minted {} tokens in {mint_s:.3}s",
        inputs.uploads.len()
    ));
    let generator = Generator::new(spec, &inputs, log.clone());
    let stop_publishing = AtomicBool::new(false);
    let (timed, closed_rps, closed_traced_rps, publishes, bytes, fsyncs) =
        std::thread::scope(|scope| {
            let publisher = spec.publishes.then(|| {
                let (deployment, stop) = (&deployment, &stop_publishing);
                scope.spawn(move || workload::publisher(deployment, workload::PUBLISH_EVERY, stop))
            });

            // Warm-up: the open loop at the offered rate, not recorded.
            drop(workload::open_loop(&generator, addr, conns, &warmup, seed));
            if let Some(log) = &log {
                log.take();
            }
            let acked_before = generator.acked.lock().expect("ack log").len();

            let bytes0 = storage_counter("storage_bytes_appended_total");
            let fsyncs0 = storage_counter("storage_fsyncs_total");
            let cpu_open0 = process_cpu_ticks();
            let open = workload::open_loop(&generator, addr, conns, &open, seed);
            // Ticks are 10 ms: CPU µs per request at the fixed offered rate.
            // Ticks are 10 ms: CPU µs per request at the fixed offered rate.
            let cpu_open =
                (process_cpu_ticks() - cpu_open0) as f64 * 1e4 / open.attempted.max(1) as f64;
            let mut closed = PhaseStats::default();
            let closed_started = now_ns();
            let mut rps = Vec::new();
            let mut traced_rps = Vec::new();
            let mut dry = 0;
            for rep in 0..CLOSED_REPS {
                // Traced runs interleave untraced and traced repetitions:
                // the difference is the tracing overhead.
                let traced = log.is_some() && rep % 2 == 1;
                if let Some(log) = &log {
                    log.set_enabled(traced);
                }
                generator.allow(closed_uploads, closed_issues);
                let s = workload::closed_loop(
                    &generator,
                    addr,
                    conns,
                    Duration::from_secs_f64(rep_s),
                    seed,
                    &format!("rspbench-closed{rep}"),
                );
                let r = s.completed_ok as f64 / s.elapsed_s;
                if traced {
                    traced_rps.push(r)
                } else {
                    rps.push(r)
                }
                closed.attempted += s.attempted;
                closed.failed += s.failed;
                closed.completed_ok += s.completed_ok;
                dry += usize::from(s.ran_dry);
            }
            closed.elapsed_s = secs_since(closed_started);
            if let Some(log) = &log {
                log.set_enabled(true);
            }
            let bytes = storage_counter("storage_bytes_appended_total") - bytes0;
            let fsyncs = storage_counter("storage_fsyncs_total") - fsyncs0;
            let acked_timed = generator.acked.lock().expect("ack log").len() - acked_before;

            stop_publishing.store(true, Ordering::Relaxed);
            let mut publishes = publisher
                .map(|h| h.join().expect("publisher"))
                .unwrap_or_default();

            generator.allow(FRESHNESS_ROUNDS, 0);
            let fresh_from = generator.acked.lock().expect("ack log").len();
            if !spec.publishes {
                // Freshness probe: the operator loop runs while a trickle of
                // uploads arrives, then stops once a publish has started
                // after the last ack.
                let stop = AtomicBool::new(false);
                let fresh = std::thread::scope(|inner| {
                    let publisher = inner
                        .spawn(|| workload::publisher(&deployment, workload::PUBLISH_EVERY, &stop));
                    let mut client = workload::connect(addr);
                    let mut rng = orsp_types::rng::rng_for(seed, "rspbench-freshness");
                    for _ in 0..FRESHNESS_ROUNDS {
                        if generator.send(&mut client, Op::Upload, &mut rng).is_none() {
                            generator.exhausted.store(true, Ordering::Relaxed);
                            break;
                        }
                        std::thread::sleep(FRESHNESS_GAP);
                    }
                    std::thread::sleep(workload::PUBLISH_EVERY * 2);
                    stop.store(true, Ordering::Relaxed);
                    publisher.join().expect("freshness publisher")
                });
                publishes.extend(fresh);
            }
            for (name, phase) in [("open loop", &open), ("closed loop", &closed)] {
                report.note(&format!(
                    "{name}: {} attempted, {} failed, {:.2}s",
                    phase.attempted, phase.failed, phase.elapsed_s
                ));
            }
            (
                (open, closed, acked_timed, dry, fresh_from, cpu_open),
                rps,
                traced_rps,
                publishes,
                bytes,
                fsyncs,
            )
        });
    let (open, closed, acked_timed, dry_reps, fresh_from, cpu_open) = timed;

    // Correctness: the generator's own judgement of every answer.
    let mut errors: Vec<String> = generator.errors.lock().expect("error log").clone();
    if generator.exhausted.load(Ordering::Relaxed) {
        return Err("a prepared input pool ran dry outside the closed loop".into());
    }
    if dry_reps > 0 {
        report.note(&format!(
            "{dry_reps} closed-loop repetition(s) ended on their input budget"
        ));
    }
    let lag_p99 = open.lag_us.clone().percentile(0.99);
    match lag_p99 {
        Some(l) if l <= MAX_GEN_LAG_P99_US => {}
        Some(l) => {
            return Err(format!(
                "invalid run: generator lag p99 {l:.0}µs exceeds {MAX_GEN_LAG_P99_US}µs"
            ))
        }
        None => {
            return Err("invalid run: too few open-loop requests to judge generator lag".into())
        }
    }

    // Cluster: public answers must equal a single-node oracle's.
    let acked: Vec<(u64, usize)> = generator.acked.lock().expect("ack log").clone();
    let unknown_idx: Vec<usize> = generator.unknown.lock().expect("unknown log").clone();
    let ranges = preloaded.len();
    let range_of =
        |i: usize| orsp_server::shard_index(inputs.uploads[i].record_id.as_bytes(), ranges);
    let mut expected = preloaded.clone();
    let mut unknown = vec![Ledger::default(); ranges];
    for &(_, i) in &acked {
        let u = &inputs.uploads[i];
        expected[range_of(i)].add(u.record_id, u.entity, u.interaction, u.token.ledger_key());
    }
    for &i in &unknown_idx {
        let u = &inputs.uploads[i];
        unknown[range_of(i)].add(u.record_id, u.entity, u.interaction, u.token.ledger_key());
    }
    if spec.cluster {
        deployment.publish_all();
        let oracle = check::oracle(&world, &expected.iter().collect::<Vec<_>>());
        let mut probes: Vec<orsp_net::Request> = inputs
            .queries
            .items()
            .iter()
            .map(|&query| orsp_net::Request::Search { query })
            .collect();
        probes.extend(
            inputs
                .entities
                .items()
                .iter()
                .map(|&entity| orsp_net::Request::FetchAggregate { entity }),
        );
        let mut client = workload::connect(addr);
        let mut serve = |r: &orsp_net::Request| {
            client
                .call(r)
                .map_err(|e| format!("oracle probe failed: {e}"))
        };
        match check::compare_with_oracle(&oracle, &probes, &mut serve) {
            Ok(n) => report.note(&format!("cluster == single-node oracle on {n} probes")),
            Err(e) => errors.push(e),
        }
    }
    let issued: Vec<(usize, orsp_net::Response)> =
        std::mem::take(&mut *generator.issued.lock().expect("issue log"));
    let hits = generator.hits.load(Ordering::Relaxed);
    let searches = generator.searches.load(Ordering::Relaxed);
    drop(generator);

    // Every issued blind signature must unblind and verify.
    let mut blinded: Vec<Option<stack::Blinded>> = std::mem::take(&mut inputs.blinded)
        .into_iter()
        .map(Some)
        .collect();
    let mut verified = 0usize;
    for (i, response) in &issued {
        match blinded[*i].take() {
            Some(b) => match stack::finish_token(b, response) {
                Ok(_) => verified += 1,
                Err(e) => errors.push(e),
            },
            None => errors.push(format!("blinded message {i} answered twice")),
        }
    }
    report.note(&format!(
        "{} minted and {verified} issued blind signatures unblinded and verified",
        inputs.uploads.len()
    ));

    // Stop everything, then reopen every data directory.
    let dirs: Vec<(u32, PathBuf)> = deployment
        .nodes
        .iter()
        .flat_map(|n| n.dirs.clone())
        .collect();
    let wakeups_per_request;
    let shed;
    let proxy_retries;
    {
        let drained = deployment.shutdown();
        let protocol_errors: u64 = drained.front.protocol_errors
            + drained
                .backends
                .iter()
                .map(|s| s.protocol_errors)
                .sum::<u64>();
        if protocol_errors > 0 {
            errors.push(format!(
                "servers reported {protocol_errors} protocol errors"
            ));
        }
        if drained.proxy_inconsistent > 0 {
            errors.push(format!(
                "proxy reported {} inconsistent merges",
                drained.proxy_inconsistent
            ));
        }
        wakeups_per_request =
            drained.front.readiness_wakeups as f64 / drained.front.requests.max(1) as f64;
        shed = drained.front.shed as f64;
        proxy_retries = drained.proxy_retries as f64;
    }
    for (range, path) in &dirs {
        let dir: Arc<dyn orsp_storage::Dir> = Arc::new(
            orsp_storage::FsDir::open(path)
                .map_err(|e| format!("reopen {}: {e}", path.display()))?,
        );
        if let Err(e) =
            check::check_durable(dir, &expected[*range as usize], &unknown[*range as usize])
        {
            errors.push(format!("{} (range {range}): {e}", path.display()));
        }
    }
    let recovered: usize = expected.iter().map(|l| l.histories.len()).sum();
    report.note(&format!(
        "{} directories reopened and checked against {recovered} acked histories and their spends",
        dirs.len()
    ));
    report.errors = errors;

    // Request accounting over the timed phases.
    report.attempted = open.attempted + closed.attempted;
    report.failed = open.failed + closed.failed;

    let setup_vals = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<f64>>();
    // Freshness counts the uploads acked while publishes ran: the timed
    // phases under the publish loop, or the freshness probe without one.
    let lag_acks = if spec.publishes {
        &acked[..]
    } else {
        &acked[fresh_from..]
    };
    let freshness = workload::visible_lag_ms(lag_acks, range_of, &publishes);

    if !args.trace {
        let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s + mint_s).collect();
        report.add(Metric::reps("setup_s", "s", &setup_s));
        report.add(Metric::reps("throughput_rps", "1/s", &closed_rps));
        report.add(Metric::single(
            "cpu_us_per_request",
            "us",
            cpu_open,
            open.attempted as usize,
        ));
        // Latency is reported for the operations in the workload's mix,
        // ungated, and omitted (with a note) when a run has too few
        // samples for the percentile rule.
        for (i, op) in Op::CLIENT.iter().enumerate().filter(|(_, op)| in_mix(**op)) {
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                let name = format!("{}_{label}_us", op.name());
                match Metric::windowed(&name, "us", &open.timeline[i], q) {
                    Ok(metric) => report.add(metric),
                    Err(why) => report.note(&format!("omitted: {why}")),
                }
            }
        }
        let attempted = report.attempted.max(1) as f64;
        report.add(Metric::single(
            "success_ratio",
            "ratio",
            1.0 - report.failed as f64 / attempted,
            report.attempted as usize,
        ));
        report.info("error_ratio", report.failed as f64 / attempted);
        report.info("gen_lag_p99_us", lag_p99.unwrap_or(0.0));
        report.info(
            "cpu_steal_s",
            (cpu_steal_ticks().saturating_sub(steal0)) as f64 / 100.0,
        );
        let mut fresh = freshness;
        report.add(Metric::percentile(
            "visible_lag_p50_ms",
            "ms",
            &mut fresh,
            0.5,
        )?);
        report.add(Metric::single("peak_rss_mb", "MiB", vm_hwm_mib(), 1));
        if acked_timed == 0 {
            return Err("no uploads acked in the timed phases".into());
        }
        report.add(Metric::single(
            "wal_bytes_per_upload",
            "B",
            bytes as f64 / acked_timed as f64,
            acked_timed,
        ));
    } else {
        let log = log.expect("traced run has a span log");
        let spans = log.take();
        report::per_layer(
            &mut report,
            &spans,
            report::LayerInputs {
                closed_rps: &closed_rps,
                closed_traced_rps: &closed_traced_rps,
                lag_us: &open.lag_us,
                hits_per_query: hits as f64 / searches.max(1) as f64,
                publishes: &publishes,
                publish_entities: check::entities_with_histories(
                    &expected.iter().collect::<Vec<_>>(),
                ),
                fsyncs_per_upload: fsyncs as f64 / acked_timed.max(1) as f64,
                recover_ms: median(&setup_vals(|t| t.recover_ms)).unwrap_or(0.0),
                wakeups_per_request,
                shed,
                proxy_retries,
                world_s: median(&setup_vals(|t| t.world_s)).unwrap_or(0.0),
                preload_s: median(&setup_vals(|t| t.preload_s)).unwrap_or(0.0),
                mint_s,
                tolerance: SELF_TIME_TOLERANCE,
            },
        )?;
        report.write_spans(work.parent().unwrap_or(Path::new(".")), &spans);
    }
    Ok(report)
}
