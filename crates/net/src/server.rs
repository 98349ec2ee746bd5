//! The TCP server front: one [`NetServer`] facade over two transports.
//!
//! * **Event loop** (default, Linux): a readiness-driven reactor
//!   (`reactor.rs`) holds every connection in a slab of
//!   non-blocking sockets and hands only ready, fully-framed requests to
//!   a fixed worker pool — an idle connection costs a slab slot, not a
//!   thread, so a mostly-idle device fleet scales to the
//!   [`ServerConfig::max_connections`] bound instead of the worker count.
//! * **Threaded** ([`TransportMode::Threaded`], and the fallback on
//!   non-Linux): the original synchronous pool — one acceptor thread
//!   feeds a *bounded* queue drained by workers that each own one
//!   connection at a time.
//!
//! Both transports keep the same contracts (no async runtime either way,
//! per DESIGN §6): overload is an explicit [`Response::Busy`] frame and a
//! close, never a silent drop; every connection runs under read/write
//! deadlines (socket timeouts on the threaded path, reactor timer wheels
//! on the event path); shutdown drains — queued and in-flight requests
//! get their responses before the threads join. The integration suite
//! runs against both (`ORSP_NET_TRANSPORT=threaded` flips the default)
//! and `scripts/verify.sh` gates on that dual run.

use crate::error::{NetError, WireError};
use crate::router::RspService;
use crate::stream::{read_message, write_message};
use crate::wire::{Request, Response};
use crossbeam::channel::{Receiver, Sender, TrySendError};
use orsp_obs::{Counter, Gauge, Registry, TraceContext};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which serving core a [`NetServer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Readiness-driven reactor + worker pool (default). Falls back to
    /// [`TransportMode::Threaded`] on non-Linux targets, where the epoll
    /// binding does not exist.
    EventLoop,
    /// The original thread-per-connection pool behind a bounded accept
    /// queue.
    Threaded,
}

impl Default for TransportMode {
    /// [`TransportMode::EventLoop`], unless `ORSP_NET_TRANSPORT=threaded`
    /// is set — the hook `verify.sh` uses to run the whole integration
    /// suite against both transports without touching test code.
    fn default() -> Self {
        match std::env::var("ORSP_NET_TRANSPORT").as_deref() {
            Ok("threaded") => TransportMode::Threaded,
            _ => TransportMode::EventLoop,
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Threaded transport: bound on the accept→worker queue (connections
    /// beyond `workers + queue_depth` are shed with `Busy`). The event
    /// loop reuses it for the default connection-slot count — see
    /// [`ServerConfig::max_connections`].
    pub queue_depth: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Which serving core to run.
    pub transport: TransportMode,
    /// Event loop: connection slots in the reactor slab. `0` means
    /// `workers + queue_depth` — the same point the threaded transport
    /// sheds at, so both transports refuse the same connection under the
    /// same load. Raise it (e.g. `--max-connections 10000` on the
    /// daemons) to hold a large mostly-idle fleet.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            transport: TransportMode::default(),
            max_connections: 0,
        }
    }
}

impl ServerConfig {
    /// The reactor slab size: [`ServerConfig::max_connections`], with `0`
    /// defaulting to `workers + queue_depth` (shed parity with the
    /// threaded transport).
    pub fn effective_max_connections(&self) -> usize {
        if self.max_connections == 0 {
            (self.workers + self.queue_depth).max(1)
        } else {
            self.max_connections
        }
    }
}

/// Monotonic counters, readable while the server runs. A typed view over
/// the service registry (`RspService::obs`): the same values scrape as
/// `net_*` series via the Prometheus/JSON exporters or the `Stats` RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into a worker (threaded) or slab slot (event).
    pub accepted: u64,
    /// Connections/requests shed with an explicit `Busy` frame.
    pub shed: u64,
    /// Requests decoded and dispatched.
    pub requests: u64,
    /// Frames or payloads that failed to parse (sum of the breakdown
    /// below).
    pub protocol_errors: u64,
    /// Frames cut short: a mid-frame disconnect or a header shorter than
    /// its declared payload.
    pub proto_truncated: u64,
    /// Payload checksum mismatches.
    pub proto_bad_crc: u64,
    /// Declared payload lengths over the frame cap.
    pub proto_oversized: u64,
    /// Sound frames carrying a message tag this server does not speak
    /// (version skew).
    pub proto_unknown_tag: u64,
    /// Everything else: bad magic, bad version, malformed payload bodies.
    pub proto_other: u64,
    /// Connections currently held open (event loop; 0 on threaded).
    pub open_connections: i64,
    /// Most connections ever held at once (event loop; 0 on threaded).
    pub slab_high_water: i64,
    /// Times the reactor woke with at least one ready fd (event loop).
    pub readiness_wakeups: u64,
    /// Connections closed by an expired read/write deadline (event loop;
    /// the threaded transport's socket timeouts close silently).
    pub deadline_closed: u64,
}

/// Pre-resolved registry handles for the connection hot path. Shared by
/// both transports so the `net_*` series mean the same thing either way.
pub(crate) struct ServerMetrics {
    pub(crate) accepted: Counter,
    pub(crate) shed: Counter,
    pub(crate) requests: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) proto_truncated: Counter,
    pub(crate) proto_bad_crc: Counter,
    pub(crate) proto_oversized: Counter,
    pub(crate) proto_unknown_tag: Counter,
    pub(crate) proto_other: Counter,
    pub(crate) open_connections: Gauge,
    pub(crate) slab_high_water: Gauge,
    pub(crate) readiness_wakeups: Counter,
    pub(crate) deadline_closed: Counter,
}

impl ServerMetrics {
    pub(crate) fn resolve(obs: &Registry) -> Self {
        ServerMetrics {
            accepted: obs.counter("net_accepted_total"),
            shed: obs.counter("net_shed_total"),
            requests: obs.counter("net_requests_total"),
            protocol_errors: obs.counter("net_protocol_errors_total"),
            proto_truncated: obs.counter("net_proto_truncated_total"),
            proto_bad_crc: obs.counter("net_proto_bad_crc_total"),
            proto_oversized: obs.counter("net_proto_oversized_total"),
            proto_unknown_tag: obs.counter("net_proto_unknown_tag_total"),
            proto_other: obs.counter("net_proto_other_total"),
            open_connections: obs.gauge("net_open_connections"),
            slab_high_water: obs.gauge("net_slab_high_water"),
            readiness_wakeups: obs.counter("net_readiness_wakeups_total"),
            deadline_closed: obs.counter("net_deadline_closed_total"),
        }
    }

    /// Count one protocol error: the total, plus its kind.
    pub(crate) fn protocol_error(&self, kind: ProtoErrorKind) {
        self.protocol_errors.inc();
        match kind {
            ProtoErrorKind::Truncated => self.proto_truncated.inc(),
            ProtoErrorKind::BadCrc => self.proto_bad_crc.inc(),
            ProtoErrorKind::Oversized => self.proto_oversized.inc(),
            ProtoErrorKind::UnknownTag => self.proto_unknown_tag.inc(),
            ProtoErrorKind::Other => self.proto_other.inc(),
        }
    }
}

/// Anything that can sit behind a [`NetServer`]: one decoded request in,
/// one response out. The server also records its accept/shed/protocol
/// counters into the service's registry so one `Stats` RPC covers the
/// whole process. Implemented by [`RspService`] (a backend daemon) and by
/// `orsp-proxy`'s front-door router — both ends of the cluster speak the
/// same frames through the same server loop.
///
/// The trace context always travels as the explicit `ctx` argument —
/// never as ambient per-thread state — which is what lets the event
/// loop's worker pool execute any connection's request on any thread.
pub trait FrameService: Send + Sync {
    /// Handle one decoded request.
    fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }
    /// Handle one decoded request carrying the trace context its frame
    /// arrived with (None for v1 peers and unstamped frames). Services
    /// that trace continue the caller's trace; the default ignores it.
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response;
    /// The registry the fronting server should record into.
    fn obs(&self) -> &Arc<Registry>;
}

impl FrameService for RspService {
    fn handle_traced(&self, request: Request, ctx: Option<TraceContext>) -> Response {
        RspService::handle_traced(self, request, ctx)
    }

    fn obs(&self) -> &Arc<Registry> {
        RspService::obs(self)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ProtoErrorKind {
    Truncated,
    BadCrc,
    Oversized,
    UnknownTag,
    Other,
}

impl From<&WireError> for ProtoErrorKind {
    fn from(e: &WireError) -> Self {
        match e {
            WireError::Truncated { .. } => ProtoErrorKind::Truncated,
            WireError::BadCrc { .. } => ProtoErrorKind::BadCrc,
            WireError::Oversized { .. } => ProtoErrorKind::Oversized,
            WireError::UnknownTag(_) => ProtoErrorKind::UnknownTag,
            WireError::BadMagic(_) | WireError::BadVersion(_) | WireError::Malformed(_) => {
                ProtoErrorKind::Other
            }
        }
    }
}

/// A running server: the transport selected by
/// [`ServerConfig::transport`], behind one facade. Dropping it shuts down
/// gracefully.
pub struct NetServer {
    addr: SocketAddr,
    metrics: ServerMetrics,
    inner: Inner,
}

enum Inner {
    Threaded(ThreadedServer),
    #[cfg(target_os = "linux")]
    Event(crate::reactor::EventServer),
}

impl NetServer {
    /// Bind and start serving `service` on `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Self::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn FrameService>,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = ServerMetrics::resolve(service.obs());
        let inner = match config.transport {
            #[cfg(target_os = "linux")]
            TransportMode::EventLoop => Inner::Event(crate::reactor::EventServer::bind(
                listener, service, config,
            )?),
            #[cfg(not(target_os = "linux"))]
            TransportMode::EventLoop => {
                Inner::Threaded(ThreadedServer::start(listener, local, service, config))
            }
            TransportMode::Threaded => {
                Inner::Threaded(ThreadedServer::start(listener, local, service, config))
            }
        };
        Ok(NetServer { addr: local, metrics, inner })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time counter snapshot (a typed view over the service
    /// registry's `net_*` series).
    pub fn stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            accepted: m.accepted.get(),
            shed: m.shed.get(),
            requests: m.requests.get(),
            protocol_errors: m.protocol_errors.get(),
            proto_truncated: m.proto_truncated.get(),
            proto_bad_crc: m.proto_bad_crc.get(),
            proto_oversized: m.proto_oversized.get(),
            proto_unknown_tag: m.proto_unknown_tag.get(),
            proto_other: m.proto_other.get(),
            open_connections: m.open_connections.get(),
            slab_high_water: m.slab_high_water.get(),
            readiness_wakeups: m.readiness_wakeups.get(),
            deadline_closed: m.deadline_closed.get(),
        }
    }

    /// Graceful drain: stop accepting, serve what is queued and in
    /// flight, join every thread, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        match &mut self.inner {
            Inner::Threaded(t) => t.stop(),
            #[cfg(target_os = "linux")]
            Inner::Event(e) => e.stop(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// -------------------------------------------------- threaded transport

struct Shared {
    service: Arc<dyn FrameService>,
    config: ServerConfig,
    shutdown: AtomicBool,
    obs: Arc<Registry>,
    metrics: ServerMetrics,
}

/// The original transport: an acceptor, a worker pool, and the bounded
/// queue between them.
struct ThreadedServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadedServer {
    fn start(
        listener: TcpListener,
        addr: SocketAddr,
        service: Arc<dyn FrameService>,
        config: ServerConfig,
    ) -> ThreadedServer {
        let obs = Arc::clone(service.obs());
        let metrics = ServerMetrics::resolve(&obs);
        let shared = Arc::new(Shared {
            service,
            config,
            shutdown: AtomicBool::new(false),
            obs,
            metrics,
        });
        let workers = config.workers.max(1);
        // Multi-consumer hand-off: each worker owns a clone of the
        // receiver and competes for connections directly — no shared
        // `Mutex<Receiver>` serializing the dequeue side of the accept
        // path.
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(config.queue_depth.max(1));

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        drop(rx);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, tx))
        };

        ThreadedServer { addr, shared, acceptor: Some(acceptor), workers: worker_handles }
    }

    fn stop(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // The acceptor dropped its sender; workers drain the queue and
        // then see the channel disconnect.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadedServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: Sender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late arrival): close and stop.
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => {
                shared.metrics.accepted.inc();
            }
            Err(TrySendError::Full(stream)) => {
                // Explicit load shed: tell the client before closing.
                let peer = stream.peer_addr();
                shed(shared, stream);
                shared.metrics.shed.inc();
                shared.obs.event(
                    "shed",
                    peer.map(|a| a.to_string()).unwrap_or_else(|_| "unknown peer".into()),
                );
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn shed(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = write_message(&mut stream, &Response::Busy.encode());
    // Drop closes the socket; the Busy frame is already on the wire (or
    // the peer is gone, in which case there is no one left to tell).
}

fn worker_loop(shared: &Shared, rx: &Receiver<TcpStream>) {
    loop {
        match rx.recv() {
            Ok(stream) => serve_connection(shared, stream),
            Err(_) => return, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    loop {
        let (payload, ctx) = match read_message(&mut stream) {
            Ok(Some(message)) => message,
            Ok(None) => return, // clean close between frames
            Err(NetError::Wire(e)) => {
                // Framing is unrecoverable mid-stream: report, then close.
                shared.metrics.protocol_error((&e).into());
                shared.obs.event("protocol_error", e.to_string());
                let reply = Response::Error { detail: e.to_string() };
                let _ = write_message(&mut stream, &reply.encode());
                return;
            }
            Err(NetError::Closed) => {
                // A clean close lands on `Ok(None)` above; `Closed` means
                // the peer vanished mid-frame — a truncated frame.
                shared.metrics.protocol_error(ProtoErrorKind::Truncated);
                shared.obs.event("protocol_error", "peer closed mid-frame");
                return;
            }
            Err(_) => return, // timeout / reset: the deadline did its job
        };
        let response = match Request::decode_payload(&payload) {
            Ok(request) => {
                shared.metrics.requests.inc();
                shared.service.handle_traced(request, ctx)
            }
            Err(e) => {
                shared.metrics.protocol_error((&e).into());
                shared.obs.event("protocol_error", e.to_string());
                Response::Error { detail: e.to_string() }
            }
        };
        if write_message(&mut stream, &response.encode()).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain semantics: the in-flight request got its response;
            // further requests need a new connection (which will be
            // refused). Close now so shutdown can join this worker.
            return;
        }
    }
}
