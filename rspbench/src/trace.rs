//! The traced run's instruments: decorators around each layer's public
//! seam, an in-memory span log, and the fold into a self-time table.
//!
//! Every request the generator sends carries its own id as an unsampled
//! trace context, so the program's tracer records nothing while the id
//! still rides the wire (client → proxy → backend → follower). A
//! decorated [`FrameService`] reads the id from the context it is handed
//! and keeps it in a thread-local for the sink and peer decorators that
//! run on the same worker thread.

use crate::measure::now_ns;
use orsp_net::{CallTrace, FrameService, NetError, Request, Response, RetryStats};
use orsp_obs::{Registry, TraceContext};
use orsp_proxy::BackendLink;
use orsp_replica::PeerLink;
use orsp_server::{WalBatchItem, WalEntry, WalSink};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// The generator: send to answer, as the client saw it.
    Client,
    /// A node's `FrameService` (the RSP router) or the proxy's.
    Service,
    /// A proxy → backend call through a `BackendLink`.
    BackendCall,
    /// A durable append through the `WalSink`.
    Sink,
    /// A primary → follower forward through a `PeerLink`.
    Forward,
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request id shared by every span of one request (0: untraced).
    pub id: u64,
    pub kind: Kind,
    /// Which process-role recorded it: a node index, or [`PROXY`].
    pub node: u32,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items carried (records per commit or per forward), else 0.
    pub items: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The node label of the proxy.
pub const PROXY: u32 = u32::MAX;

/// The RPC kinds the benchmark distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Search,
    Aggregate,
    Upload,
    IssueToken,
    Replicate,
    /// The proxy's per-backend legs of FetchAggregate and of search's
    /// support refill.
    AggregateParts,
    AggregatePartsBatch,
    Other,
}

impl Op {
    pub fn of(request: &Request) -> Op {
        match request {
            Request::Search { .. } => Op::Search,
            Request::FetchAggregate { .. } => Op::Aggregate,
            Request::Upload { .. } => Op::Upload,
            Request::IssueToken { .. } => Op::IssueToken,
            Request::Replicate { .. } => Op::Replicate,
            Request::AggregateParts { .. } => Op::AggregateParts,
            Request::AggregatePartsBatch { .. } => Op::AggregatePartsBatch,
            _ => Op::Other,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Search => "search",
            Op::Aggregate => "aggregate",
            Op::Upload => "upload",
            Op::IssueToken => "issue_token",
            Op::Replicate => "replicate",
            Op::AggregateParts => "aggregate_parts",
            Op::AggregatePartsBatch => "aggregate_parts_batch",
            Op::Other => "other",
        }
    }

    /// The four client-facing operations, in report order.
    pub const CLIENT: [Op; 4] = [Op::Search, Op::Aggregate, Op::Upload, Op::IssueToken];
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The request id the calling thread is serving (0 when none).
pub fn current_id() -> u64 {
    CURRENT.with(|c| c.get())
}

/// An unsampled trace context carrying `id`: it propagates across every
/// hop without making the program's tracer record anything.
pub fn context_for(id: u64) -> TraceContext {
    TraceContext {
        trace_id: id as u128,
        span_id: id,
        sampled: false,
    }
}

fn id_of(ctx: Option<TraceContext>) -> u64 {
    ctx.map_or(0, |c| c.trace_id as u64)
}

/// The in-memory span log. Spans are appended under one lock and read
/// once, after the run. While disabled, every decorator passes straight
/// through without reading the clock: the untraced side of the overhead
/// comparison.
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    enabled: AtomicBool,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            enabled: AtomicBool::new(true),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// A [`FrameService`] decorator: records one `Service` span per request.
pub struct TracedService {
    inner: Arc<dyn FrameService>,
    node: u32,
    log: Arc<SpanLog>,
}

impl TracedService {
    pub fn new(inner: Arc<dyn FrameService>, node: u32, log: Arc<SpanLog>) -> TracedService {
        TracedService { inner, node, log }
    }
}

impl FrameService for TracedService {
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        if !self.log.enabled() {
            return self.inner.handle_traced(request, ctx);
        }
        let id = id_of(ctx);
        let op = Op::of(&request);
        let outer = CURRENT.with(|c| c.replace(id));
        let start_ns = now_ns();
        let response = self.inner.handle_traced(request, ctx);
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(outer));
        self.log.record(Span {
            id,
            kind: Kind::Service,
            node: self.node,
            op,
            start_ns,
            end_ns,
            items: 0,
        });
        response
    }

    fn obs(&self) -> &Arc<Registry> {
        self.inner.obs()
    }
}

/// A [`WalSink`] decorator: one `Sink` span per commit group.
pub struct TracedSink {
    inner: Arc<dyn WalSink>,
    node: u32,
    log: Arc<SpanLog>,
}

impl TracedSink {
    pub fn new(inner: Arc<dyn WalSink>, node: u32, log: Arc<SpanLog>) -> TracedSink {
        TracedSink { inner, node, log }
    }

    fn timed<T>(&self, items: usize, f: impl FnOnce() -> T) -> T {
        if !self.log.enabled() {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        self.log.record(Span {
            id: current_id(),
            kind: Kind::Sink,
            node: self.node,
            op: Op::Upload,
            start_ns,
            end_ns: now_ns(),
            items: items as u32,
        });
        out
    }
}

impl WalSink for TracedSink {
    fn log_append(&self, entry: &WalEntry) -> orsp_types::Result<()> {
        self.timed(1, || self.inner.log_append(entry))
    }

    fn log_token_spend(&self, key: &[u8; 32]) -> orsp_types::Result<()> {
        self.timed(0, || self.inner.log_token_spend(key))
    }

    fn log_upload_batch(&self, items: &[WalBatchItem]) -> orsp_types::Result<()> {
        self.timed(items.len(), || self.inner.log_upload_batch(items))
    }
}

/// A [`BackendLink`] decorator: one `BackendCall` span per proxy → backend
/// call, labelled with the backend's index.
pub struct TracedBackend {
    inner: Arc<dyn BackendLink>,
    node: u32,
    log: Arc<SpanLog>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn BackendLink>, node: u32, log: Arc<SpanLog>) -> TracedBackend {
        TracedBackend { inner, node, log }
    }
}

impl BackendLink for TracedBackend {
    fn call(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, CallTrace), NetError> {
        if !self.log.enabled() {
            return self.inner.call(request, ctx);
        }
        let start_ns = now_ns();
        let out = self.inner.call(request, ctx);
        self.log.record(Span {
            id: id_of(ctx),
            kind: Kind::BackendCall,
            node: self.node,
            op: Op::of(request),
            start_ns,
            end_ns: now_ns(),
            items: 0,
        });
        out
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        self.inner.retry_stats()
    }
}

/// A [`PeerLink`] decorator: one `Forward` span per replication call,
/// labelled with the sending node. The target is bound after the peer's
/// server is listening (see [`TracedPeer::bind`]).
pub struct TracedPeer {
    inner: std::sync::OnceLock<Arc<dyn PeerLink>>,
    node: u32,
    log: Option<Arc<SpanLog>>,
}

impl TracedPeer {
    pub fn new(node: u32, log: Option<Arc<SpanLog>>) -> TracedPeer {
        TracedPeer {
            inner: std::sync::OnceLock::new(),
            node,
            log,
        }
    }

    pub fn bind(&self, target: Arc<dyn PeerLink>) {
        assert!(self.inner.set(target).is_ok(), "peer bound twice");
    }

    fn target(&self) -> Result<&Arc<dyn PeerLink>, NetError> {
        self.inner
            .get()
            .ok_or_else(|| NetError::Unexpected("peer not bound yet".into()))
    }
}

impl PeerLink for TracedPeer {
    fn call(&self, request: &Request) -> Result<Response, NetError> {
        let target = self.target()?;
        let Some(log) = self.log.as_ref().filter(|l| l.enabled()) else {
            return target.call(request);
        };
        let items = match request {
            Request::Replicate { items, .. } => items.len() as u32,
            _ => 0,
        };
        let start_ns = now_ns();
        let out = target.call(request);
        log.record(Span {
            id: current_id(),
            kind: Kind::Forward,
            node: self.node,
            op: Op::of(request),
            start_ns,
            end_ns: now_ns(),
            items,
        });
        out
    }

    fn label(&self) -> String {
        self.inner
            .get()
            .map_or_else(|| "unbound".into(), |t| t.label())
    }
}

/// The layers of the self-time table, in blocking-path order.
pub const LAYERS: [&str; 7] = [
    "net",
    "proxy",
    "backend_link",
    "router",
    "storage",
    "replica",
    "follower",
];

/// One request's self time per layer along its blocking path, in ns.
/// By construction the entries sum to the client-observed latency.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub op: Op,
    pub client_ns: u64,
    pub layers: [u64; LAYERS.len()],
}

fn within(inner: &Span, outer: &Span) -> bool {
    inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns
}

/// Self time of a node-side service span: the span minus its sink child;
/// the sink's own self time minus its forward child; the forward minus
/// the follower's apply. Adds into `layers`; returns nothing.
fn fold_node(service: &Span, spans: &[&Span], layers: &mut [u64; LAYERS.len()]) {
    let sink = spans
        .iter()
        .find(|s| s.kind == Kind::Sink && s.node == service.node && within(s, service));
    let Some(sink) = sink else {
        layers[3] += service.dur_ns();
        return;
    };
    layers[3] += service.dur_ns() - sink.dur_ns();
    let forwards: Vec<&&Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::Forward && s.node == service.node && within(s, sink))
        .collect();
    let forwarded: u64 = forwards.iter().map(|f| f.dur_ns()).sum();
    layers[4] += sink.dur_ns().saturating_sub(forwarded);
    for forward in forwards {
        let apply = spans.iter().find(|s| {
            s.kind == Kind::Service
                && s.op == Op::Replicate
                && s.node != service.node
                && within(s, forward)
        });
        let applied = apply.map_or(0, |a| a.dur_ns());
        layers[5] += forward.dur_ns() - applied;
        layers[6] += applied;
    }
}

/// Fold one request's spans (all sharing one id) into its blocking-path
/// breakdown. `None` when the request has no client span or no front
/// service span (it failed before reaching the service).
pub fn fold_request(spans: &[&Span]) -> Option<Breakdown> {
    let client = spans.iter().find(|s| s.kind == Kind::Client)?;
    let front = spans
        .iter()
        .filter(|s| s.kind == Kind::Service && s.op == client.op && within(s, client))
        .find(|s| s.node == PROXY || !spans.iter().any(|p| p.node == PROXY))?;
    let mut layers = [0u64; LAYERS.len()];
    layers[0] = client.dur_ns() - front.dur_ns();
    if front.node != PROXY {
        fold_node(front, spans, &mut layers);
    } else {
        // Proxy: calls that overlap form one fan-out round; the round
        // blocks until its last call returns, and that call's subtree is
        // the blocking path. Everything else in the proxy span is the
        // proxy's own time (routing, spawning the fan-out, merging).
        let mut calls: Vec<&&Span> = spans
            .iter()
            .filter(|s| s.kind == Kind::BackendCall && within(s, front))
            .collect();
        calls.sort_by_key(|c| c.start_ns);
        let mut blocking: Vec<&Span> = Vec::new();
        let mut round_end = 0u64;
        for call in calls {
            if call.start_ns < round_end {
                let last = blocking.last_mut().expect("a round is open");
                if call.end_ns > last.end_ns {
                    *last = call;
                }
                round_end = round_end.max(call.end_ns);
            } else {
                blocking.push(call);
                round_end = call.end_ns;
            }
        }
        let blocked: u64 = blocking.iter().map(|c| c.dur_ns()).sum();
        layers[1] = front.dur_ns().saturating_sub(blocked);
        for call in blocking {
            let service = spans
                .iter()
                .find(|s| s.kind == Kind::Service && s.node == call.node && within(s, call));
            match service {
                Some(service) => {
                    layers[2] += call.dur_ns() - service.dur_ns();
                    fold_node(service, spans, &mut layers);
                }
                None => layers[2] += call.dur_ns(),
            }
        }
    }
    Some(Breakdown {
        op: client.op,
        client_ns: client.dur_ns(),
        layers,
    })
}

/// Group spans by request id and fold each request.
pub fn fold_all(spans: &[Span]) -> Vec<Breakdown> {
    let mut by_id: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans.iter().filter(|s| s.id != 0) {
        by_id.entry(span.id).or_default().push(span);
    }
    let mut ids: Vec<u64> = by_id.keys().copied().collect();
    ids.sort_unstable();
    ids.iter()
        .filter_map(|id| fold_request(&by_id[id]))
        .collect()
}

/// Per (layer, op): self-time samples in µs.
pub fn self_time_table(breakdowns: &[Breakdown]) -> BTreeMap<(usize, Op), crate::measure::Samples> {
    let mut table: BTreeMap<(usize, Op), crate::measure::Samples> = BTreeMap::new();
    for b in breakdowns {
        for (layer, ns) in b.layers.iter().enumerate() {
            table
                .entry((layer, b.op))
                .or_default()
                .push(*ns as f64 / 1e3);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::test_service;

    fn span(id: u64, kind: Kind, node: u32, op: Op, start: u64, end: u64) -> Span {
        Span {
            id,
            kind,
            node,
            op,
            start_ns: start,
            end_ns: end,
            items: 0,
        }
    }

    #[test]
    fn single_node_upload_adds_up() {
        let spans = [
            span(1, Kind::Client, 0, Op::Upload, 0, 100),
            span(1, Kind::Service, 0, Op::Upload, 10, 90),
            span(1, Kind::Sink, 0, Op::Upload, 30, 80),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let b = fold_request(&refs).unwrap();
        assert_eq!(b.layers, [20, 0, 0, 30, 50, 0, 0]);
        assert_eq!(b.layers.iter().sum::<u64>(), b.client_ns);
    }

    #[test]
    fn cluster_fan_out_blocks_on_the_last_call() {
        let spans = [
            span(2, Kind::Client, 0, Op::Search, 0, 1000),
            span(2, Kind::Service, PROXY, Op::Search, 50, 950),
            // Round 1: two overlapping calls, backend 1 returns last.
            span(2, Kind::BackendCall, 0, Op::Search, 100, 300),
            span(2, Kind::Service, 0, Op::Search, 120, 280),
            span(2, Kind::BackendCall, 1, Op::Search, 110, 400),
            span(2, Kind::Service, 1, Op::Search, 150, 350),
            // Round 2: one call.
            span(2, Kind::BackendCall, 0, Op::Other, 500, 700),
            span(2, Kind::Service, 0, Op::Other, 550, 650),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let b = fold_request(&refs).unwrap();
        assert_eq!(b.layers.iter().sum::<u64>(), b.client_ns);
        assert_eq!(b.layers[0], 100);
        assert_eq!(b.layers[1], 900 - 290 - 200);
        assert_eq!(b.layers[2], (290 - 200) + (200 - 100));
        assert_eq!(b.layers[3], 200 + 100);
    }

    #[test]
    fn replicated_upload_splits_storage_forward_and_follower() {
        let spans = [
            span(3, Kind::Client, 0, Op::Upload, 0, 1000),
            span(3, Kind::Service, PROXY, Op::Upload, 10, 990),
            span(3, Kind::BackendCall, 1, Op::Upload, 20, 980),
            span(3, Kind::Service, 1, Op::Upload, 40, 960),
            span(3, Kind::Sink, 1, Op::Upload, 100, 900),
            span(3, Kind::Forward, 1, Op::Replicate, 400, 850),
            span(3, Kind::Service, 0, Op::Replicate, 450, 800),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let b = fold_request(&refs).unwrap();
        assert_eq!(b.layers, [20, 20, 40, 120, 350, 100, 350]);
        assert_eq!(b.layers.iter().sum::<u64>(), b.client_ns);
    }

    #[test]
    fn decorated_service_answers_byte_identically() {
        let (plain, _) = test_service(11);
        let (decorated_inner, _) = test_service(11);
        let log = SpanLog::new();
        let decorated = TracedService::new(decorated_inner, 0, Arc::clone(&log));
        for (i, request) in crate::stack::sample_requests(11).into_iter().enumerate() {
            let ctx = Some(context_for(i as u64 + 1));
            let a = plain.handle_traced(request.clone(), ctx).encode();
            let b = decorated.handle_traced(request, ctx).encode();
            assert_eq!(
                a, b,
                "request {i} answered differently through the decorator"
            );
        }
        assert!(!log.take().is_empty());
    }

    /// An in-process link to a service, as a proxy backend or a peer.
    struct Local(Arc<orsp_net::RspService>);

    impl BackendLink for Local {
        fn call(
            &self,
            request: &Request,
            ctx: Option<TraceContext>,
        ) -> Result<(Response, CallTrace), NetError> {
            Ok((
                self.0.handle_traced(request.clone(), ctx),
                CallTrace::default(),
            ))
        }
        fn label(&self) -> String {
            "local".into()
        }
    }

    impl PeerLink for Local {
        fn call(&self, request: &Request) -> Result<Response, NetError> {
            Ok(self.0.handle(request.clone()))
        }
        fn label(&self) -> String {
            "local".into()
        }
    }

    #[test]
    fn decorated_links_answer_byte_identically() {
        let (_, plain) = test_service(12);
        let (_, inner) = test_service(12);
        let log = SpanLog::new();
        let backend = TracedBackend::new(Arc::new(Local(Arc::clone(&inner))), 0, Arc::clone(&log));
        let (_, plain_peer) = test_service(12);
        let (_, inner_peer) = test_service(12);
        let peer = TracedPeer::new(0, Some(Arc::clone(&log)));
        peer.bind(Arc::new(Local(inner_peer)));
        for (i, request) in crate::stack::sample_requests(12).into_iter().enumerate() {
            let ctx = Some(context_for(i as u64 + 1));
            let want = BackendLink::call(&Local(Arc::clone(&plain)), &request, ctx)
                .unwrap()
                .0
                .encode();
            let got = BackendLink::call(&backend, &request, ctx)
                .unwrap()
                .0
                .encode();
            assert_eq!(want, got, "backend link changed the answer to request {i}");
            let want = PeerLink::call(&Local(Arc::clone(&plain_peer)), &request)
                .unwrap()
                .encode();
            let got = PeerLink::call(&peer, &request).unwrap().encode();
            assert_eq!(want, got, "peer link changed the answer to request {i}");
        }
        let spans = log.take();
        assert!(spans.iter().any(|s| s.kind == Kind::BackendCall));
        assert!(spans.iter().any(|s| s.kind == Kind::Forward));
    }

    #[test]
    fn decorated_sink_answers_and_persists_identically() {
        use orsp_storage::{Dir, SimDir, StorageEngine};
        let durable = |traced: bool| {
            let (_, service) = test_service(13);
            let dir: Arc<dyn Dir> = Arc::new(SimDir::new());
            let (engine, _) =
                StorageEngine::open(Arc::clone(&dir), crate::stack::storage_options()).unwrap();
            let engine: Arc<dyn WalSink> = Arc::new(engine);
            let sink: Arc<dyn WalSink> = if traced {
                Arc::new(TracedSink::new(engine, 0, SpanLog::new()))
            } else {
                engine
            };
            service.set_durability(sink);
            (service, dir)
        };
        let (plain, plain_dir) = durable(false);
        let (traced, traced_dir) = durable(true);
        for (i, request) in crate::stack::sample_requests(13).into_iter().enumerate() {
            let want = plain.handle(request.clone()).encode();
            let got = traced.handle(request).encode();
            assert_eq!(
                want, got,
                "sink decorator changed the answer to request {i}"
            );
        }
        drop((plain, traced));
        let reopen = |dir: Arc<dyn Dir>| {
            let (_, report) = StorageEngine::open(dir, crate::stack::storage_options()).unwrap();
            let mut records: Vec<_> = report
                .store
                .iter()
                .map(|(id, h)| (*id, h.entity, h.history.records().to_vec()))
                .collect();
            records.sort_by_key(|r| r.0);
            let mut spent: Vec<[u8; 32]> = report.spent_tokens.into_iter().collect();
            spent.sort_unstable();
            (records, spent)
        };
        let (want, got) = (reopen(plain_dir), reopen(traced_dir));
        assert!(!want.0.is_empty());
        assert_eq!(want, got, "sink decorator changed what was persisted");
    }
}
