//! One report schema per run, and the traced run's per-layer metrics.

use crate::measure::{quartiles, windowed_percentile, Samples};
use crate::trace::{self, Kind, Op, Span, LAYERS, PROXY};
use crate::workload::Publish;
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics the result line carries, as `end_to_end` in
/// `BENCHMARK.json` lists them: the ones that stay steady from run to run
/// on a shared 2-vCPU host whose steal time varies. The others
/// (throughput, total CPU and the per-operation latency percentiles)
/// are printed and kept in the report line, not gated.
pub const GATED: [&str; 5] = [
    "setup_s",
    "success_ratio",
    "visible_lag_p50_ms",
    "peak_rss_mb",
    "wal_bytes_per_upload",
];

/// Most windows a windowed percentile is taken over.
const MAX_WINDOWS: usize = 12;

/// One reported metric: its value, how many samples or repetitions
/// stand behind it, and the quartiles when it is a median of repetitions.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub quartiles: Option<(f64, f64, f64)>,
    /// Per-window values a windowed percentile is the median of.
    pub windows: Vec<f64>,
}

impl Metric {
    /// The median of per-repetition values.
    pub fn reps(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let q = quartiles(values);
        Metric {
            name: name.into(),
            unit,
            value: q.map_or(0.0, |(_, m, _)| m),
            n: values.len(),
            quartiles: q,
            windows: Vec::new(),
        }
    }

    /// A percentile of pooled samples; an error when the percentile rule
    /// withholds it (fewer than ten samples beyond).
    pub fn percentile(
        name: &str,
        unit: &'static str,
        samples: &mut Samples,
        q: f64,
    ) -> Result<Metric, String> {
        let n = samples.len();
        samples
            .percentile(q)
            .map(|value| Metric {
                name: name.into(),
                unit,
                value,
                n,
                quartiles: None,
                windows: Vec::new(),
            })
            .ok_or_else(|| {
                format!("{name}: {n} samples leave fewer than ten beyond the percentile")
            })
    }

    /// A percentile of time-ordered samples, as the median over windows
    /// (see [`windowed_percentile`]); an error when too few samples, or
    /// so many failures that the percentile is unbounded.
    pub fn windowed(
        name: &str,
        unit: &'static str,
        points: &[(u64, f64)],
        q: f64,
    ) -> Result<Metric, String> {
        let n = points.len();
        match windowed_percentile(points, q, MAX_WINDOWS) {
            Some((value, windows)) if value.is_finite() => Ok(Metric {
                name: name.into(),
                unit,
                value,
                n,
                quartiles: None,
                windows,
            }),
            Some(_) => Err(format!("{name}: failed requests reach the percentile")),
            None => Err(format!(
                "{name}: {n} samples leave fewer than ten beyond the percentile"
            )),
        }
    }

    /// A per-layer percentile: 0 when the layer saw too few samples (a
    /// bypassed layer sees none); the sample count tells which.
    pub fn layer(name: &str, unit: &'static str, samples: &mut Samples, q: f64) -> Metric {
        let n = samples.len();
        Metric {
            name: name.into(),
            unit,
            value: samples.percentile(q).unwrap_or(0.0),
            n,
            quartiles: None,
            windows: Vec::new(),
        }
    }

    pub fn single(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
            quartiles: None,
            windows: Vec::new(),
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub cores: usize,
    pub trace: bool,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    notes: Vec<String>,
    info: Vec<(String, f64)>,
    /// The traced run's self-time table rows, as JSON fragments.
    table: Vec<String>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The revision of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, cores: usize, trace: bool) -> Report {
        Report {
            workload,
            seed,
            cores,
            trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            info: Vec::new(),
            table: Vec::new(),
        }
    }

    pub fn add(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, note: &str) {
        println!("# {note}");
        self.notes.push(note.into());
    }

    /// A value shown in the report but not a tracked metric.
    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.into(), value));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The last line: exactly `correct`, `attempted`, `failed`, `metrics`
    /// (the gated end-to-end metrics, or every per-layer metric).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| self.trace || GATED.contains(&m.name.as_str()))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name, with its unit, for a human reader.
    pub fn print_table(&self) {
        for m in &self.metrics {
            let gate = if !self.trace && GATED.contains(&m.name.as_str()) {
                " (gated)"
            } else {
                ""
            };
            println!(
                "# {:<34} {:>14.3} {:<6} n={}{gate}",
                m.name, m.value, m.unit, m.n
            );
        }
    }

    /// The run's full record: cores, revision, seed, repetitions, and for
    /// every metric its sample count and (for medians of repetitions)
    /// its quartiles.
    pub fn full_json(&self) -> String {
        let metrics: Vec<String> =
            self.metrics
                .iter()
                .map(|m| {
                    let q = match m.quartiles {
                        Some((q1, med, q3)) => format!(
                            ", \"q1\": {}, \"median\": {}, \"q3\": {}",
                            num(q1),
                            num(med),
                            num(q3)
                        ),
                        None => String::new(),
                    };
                    format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"windows\": [{}]{q}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    m.n,
                    m.windows.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ")
                )
                })
                .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let list = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"report\": \"rspbench\", \"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"git_rev\": \"{}\", \
             \"trace\": {}, \"reps\": {{\"setup\": {}, \"closed_loop\": {}}}, \"attempted\": {}, \"failed\": {}, \
             \"errors\": [{}], \"notes\": [{}], \"metrics\": {{{}}}, \"info\": {{{}}}, \"self_time_us\": [{}]}}",
            self.workload,
            self.seed,
            self.cores,
            escape(&git_rev()),
            self.trace,
            crate::SETUP_REPS,
            crate::CLOSED_REPS,
            self.attempted,
            self.failed,
            list(&self.errors),
            list(&self.notes),
            metrics.join(", "),
            info.join(", "),
            self.table.join(", ")
        )
    }

    /// Write the traced run's spans (one per line, tab-separated) beside
    /// the run's scratch data.
    pub fn write_spans(&mut self, dir: &Path, spans: &[Span]) {
        let path = dir.join(format!("spans-{}-{}.tsv", self.workload, self.seed));
        let mut out = String::from("id\tkind\tnode\top\tstart_ns\tend_ns\titems\n");
        for s in spans {
            let node = if s.node == PROXY {
                "proxy".to_string()
            } else {
                s.node.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{:?}\t{node}\t{}\t{}\t{}\t{}",
                s.id,
                s.kind,
                s.op.name(),
                s.start_ns,
                s.end_ns,
                s.items
            );
        }
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
            Ok(()) => self.note(&format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self.note(&format!("could not write spans to {}: {e}", path.display())),
        }
    }
}

/// Inputs to the per-layer metrics that do not come from spans.
pub struct LayerInputs<'a> {
    pub closed_rps: &'a [f64],
    pub closed_traced_rps: &'a [f64],
    pub lag_us: &'a Samples,
    pub hits_per_query: f64,
    pub publishes: &'a [Publish],
    pub publish_entities: usize,
    pub fsyncs_per_upload: f64,
    pub recover_ms: f64,
    pub wakeups_per_request: f64,
    pub shed: f64,
    pub proxy_retries: f64,
    pub world_s: f64,
    pub preload_s: f64,
    pub mint_s: f64,
    pub tolerance: f64,
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Samples {
    let mut s = Samples::new();
    for span in spans {
        s.push(span.dur_ns() as f64 / 1e3);
    }
    s
}

fn p50_p99(report: &mut Report, name: &str, unit: &'static str, samples: &mut Samples) {
    report.add(Metric::layer(&format!("{name}.p50"), unit, samples, 0.5));
    report.add(Metric::layer(&format!("{name}.p99"), unit, samples, 0.99));
}

/// Fold the spans into the self-time table, check that the layers add
/// up, and add every per-layer metric.
pub fn per_layer(report: &mut Report, spans: &[Span], x: LayerInputs) -> Result<(), String> {
    let breakdowns = trace::fold_all(spans);
    let table = trace::self_time_table(&breakdowns);

    // The self-time table, and the add-up check per operation.
    println!("# self time per layer along the blocking path, µs (p50 / p99)");
    let mut worst_gap = 0.0f64;
    for op in Op::CLIENT {
        let mut client = Samples::new();
        for b in breakdowns.iter().filter(|b| b.op == op) {
            client.push(b.client_ns as f64 / 1e3);
        }
        let Some(client_p50) = client.percentile(0.5) else {
            continue;
        };
        let mut sum_p50 = 0.0;
        let mut row = format!("#   {:<12} client {:>9.1}", op.name(), client_p50);
        let mut cells = Vec::new();
        for (layer, name) in LAYERS.iter().enumerate() {
            let Some(samples) = table.get(&(layer, op)) else {
                continue;
            };
            let mut samples = samples.clone();
            let p50 = samples.percentile(0.5).unwrap_or(0.0);
            let p99 = samples.percentile(0.99).unwrap_or(0.0);
            sum_p50 += p50;
            if samples.max().unwrap_or(0.0) > 0.0 {
                let _ = write!(row, " | {name} {p50:.1}/{p99:.1}");
            }
            cells.push(format!("\"{name}\": [{}, {}]", num(p50), num(p99)));
        }
        // Means add exactly (each request's layers sum to its latency),
        // so a mismatch there is a fold that lost or double-counted time.
        let layer_means: f64 = (0..LAYERS.len())
            .filter_map(|layer| table.get(&(layer, op)).and_then(Samples::mean))
            .sum();
        let client_mean = client.mean().unwrap_or(0.0);
        if (layer_means - client_mean).abs() > 0.01 * client_mean {
            report.errors.push(format!(
                "{}: mean self times sum to {layer_means:.1}µs against a {client_mean:.1}µs mean latency",
                op.name()
            ));
        }
        let gap = (sum_p50 - client_p50).abs() / client_p50;
        worst_gap = worst_gap.max(gap);
        println!(
            "{row} | sum of p50s {sum_p50:.1} ({:+.1}%)",
            100.0 * (sum_p50 - client_p50) / client_p50
        );
        report.table.push(format!(
            "{{\"op\": \"{}\", \"n\": {}, \"client_p50\": {}, \"sum_of_p50\": {}, {}}}",
            op.name(),
            client.len(),
            num(client_p50),
            num(sum_p50),
            cells.join(", ")
        ));
        // By construction each request's layers sum to its latency; the
        // medians need not, but must come close.
        if gap > x.tolerance {
            report.errors.push(format!(
                "{}: per-layer median self times sum to {sum_p50:.1}µs against a {client_p50:.1}µs \
                 median latency (tolerance {:.0}%)",
                op.name(),
                x.tolerance * 100.0
            ));
        }
    }

    let layer_of = |op: Op, layer: usize| -> Samples {
        let mut s = Samples::new();
        for b in breakdowns.iter().filter(|b| b.op == op) {
            s.push(b.layers[layer] as f64 / 1e3);
        }
        s
    };
    for op in Op::CLIENT {
        p50_p99(
            report,
            &format!("net.overhead_us.{}", op.name()),
            "us",
            &mut layer_of(op, 0),
        );
    }
    report.add(Metric::single(
        "net.wakeups_per_request",
        "ratio",
        x.wakeups_per_request,
        1,
    ));
    report.add(Metric::single("net.shed", "count", x.shed, 1));
    for op in Op::CLIENT.iter().copied().chain([
        Op::AggregateParts,
        Op::AggregatePartsBatch,
        Op::Replicate,
    ]) {
        let mut s = durations_us(
            spans
                .iter()
                .filter(|s| s.kind == Kind::Service && s.node != PROXY && s.op == op),
        );
        p50_p99(report, &format!("router.{}_us", op.name()), "us", &mut s);
    }
    report.add(Metric::single(
        "search.hits_per_query",
        "count",
        x.hits_per_query,
        1,
    ));
    p50_p99(
        report,
        "server.upload_self_us",
        "us",
        &mut layer_of(Op::Upload, 3),
    );
    let mut publish_ms = Samples::new();
    for &(_, start, end) in x.publishes {
        publish_ms.push((end - start) as f64 / 1e6);
    }
    report.add(Metric::layer(
        "server.publish_ms.p50",
        "ms",
        &mut publish_ms,
        0.5,
    ));
    report.add(Metric::single(
        "server.publish_ms.max",
        "ms",
        publish_ms.max().unwrap_or(0.0),
        publish_ms.len(),
    ));
    report.add(Metric::single(
        "server.publish_entities",
        "count",
        x.publish_entities as f64,
        1,
    ));

    let sinks: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Sink).collect();
    p50_p99(
        report,
        "storage.commit_us",
        "us",
        &mut durations_us(sinks.iter().copied()),
    );
    let records: u64 = sinks.iter().map(|s| u64::from(s.items)).sum();
    report.add(Metric::single(
        "storage.records_per_commit",
        "ratio",
        records as f64 / sinks.len().max(1) as f64,
        sinks.len(),
    ));
    report.add(Metric::single(
        "storage.fsyncs_per_upload",
        "ratio",
        x.fsyncs_per_upload,
        1,
    ));
    report.add(Metric::single("storage.recover_ms", "ms", x.recover_ms, 1));

    let proxied = |op: Op| {
        spans
            .iter()
            .filter(move |s| s.kind == Kind::Service && s.node == PROXY && s.op == op)
    };
    for op in Op::CLIENT {
        p50_p99(
            report,
            &format!("proxy.{}_us", op.name()),
            "us",
            &mut durations_us(proxied(op)),
        );
    }
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::BackendCall)
        .collect();
    p50_p99(
        report,
        "proxy.backend_call_us",
        "us",
        &mut durations_us(calls.iter().copied()),
    );
    let proxy_requests = spans
        .iter()
        .filter(|s| s.kind == Kind::Service && s.node == PROXY)
        .count();
    report.add(Metric::single(
        "proxy.backend_calls_per_request",
        "ratio",
        calls.len() as f64 / proxy_requests.max(1) as f64,
        proxy_requests,
    ));
    let mut proxy_self = Samples::new();
    if proxy_requests > 0 {
        for b in &breakdowns {
            proxy_self.push(b.layers[1] as f64 / 1e3);
        }
    }
    p50_p99(report, "proxy.self_us", "us", &mut proxy_self);
    report.add(Metric::single("proxy.retries", "count", x.proxy_retries, 1));

    let forwards: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Forward).collect();
    p50_p99(
        report,
        "replica.forward_us",
        "us",
        &mut durations_us(forwards.iter().copied()),
    );
    let items: u64 = forwards.iter().map(|s| u64::from(s.items)).sum();
    report.add(Metric::single(
        "replica.items_per_forward",
        "ratio",
        items as f64 / forwards.len().max(1) as f64,
        forwards.len(),
    ));

    let untraced = crate::measure::median(x.closed_rps).unwrap_or(0.0);
    let traced = crate::measure::median(x.closed_traced_rps).unwrap_or(0.0);
    let overhead = if traced > 0.0 {
        (untraced / traced - 1.0) * 100.0
    } else {
        0.0
    };
    report.add(Metric::single(
        "trace.overhead_pct",
        "%",
        overhead,
        x.closed_rps.len() + x.closed_traced_rps.len(),
    ));
    report.add(Metric::single(
        "trace.selftime_gap_pct",
        "%",
        worst_gap * 100.0,
        breakdowns.len(),
    ));
    let mut lag = x.lag_us.clone();
    report.add(Metric::layer("gen.lag_p99_us", "us", &mut lag, 0.99));
    report.add(Metric::single(
        "setup.world_s",
        "s",
        x.world_s,
        crate::SETUP_REPS,
    ));
    report.add(Metric::single(
        "setup.preload_s",
        "s",
        x.preload_s,
        crate::SETUP_REPS,
    ));
    report.add(Metric::single(
        "setup.mint_s",
        "s",
        x.mint_s,
        crate::SETUP_REPS,
    ));
    report.attempted = report.attempted.max(1);
    Ok(())
}
