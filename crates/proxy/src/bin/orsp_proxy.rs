//! The ORSP front door as a binary.
//!
//! ```sh
//! orsp-proxy --listen 127.0.0.1:7400 \
//!     --backend 127.0.0.1:7401 --backend 127.0.0.1:7402 --backend 127.0.0.1:7403
//! ```
//!
//! Speaks the ORSP wire protocol on both sides: clients connect to
//! `--listen` exactly as they would to a single daemon; each `--backend`
//! is a running RSP node (see `examples/rsp_daemon.rs --listen`). Writes
//! route to the owning backend by `shard_index(record_id)`; reads
//! scatter-gather with merges bit-identical to a single node.
//!
//! `--pool N` sets the persistent keep-alive connections per backend
//! (default 4). `--cluster-internal` serves the floor-unfiltered
//! `AggregateParts` RPCs to this proxy's clients — only for a proxy that
//! is itself a backend of another proxy, deployed behind the same
//! firewall as the leaf backends; a public front door (the default)
//! refuses them. The proxy serves until stdin reaches EOF (pipe from
//! `sleep` or close the terminal with ctrl-d), then drains gracefully
//! and prints its final metric snapshot.

use orsp_net::{flag, serve_until_stdin_eof, ClientConfig, NetPool, ServeFlags};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: orsp-proxy [--listen ADDR] --backend ADDR [--backend ADDR ...] \
                     [--pool N] [--max-connections N] [--cluster-internal] \
                     [--replication-factor N] [--trace-sample PER10K] [--trace-slow-us N]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flags = ServeFlags::parse(&args, USAGE);
    let backends: Vec<SocketAddr> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == "--backend")
        .map(|(i, _)| {
            args.get(i + 1)
                .expect("--backend takes an address")
                .parse()
                .expect("--backend address")
        })
        .collect();
    if backends.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let cluster_internal = args.iter().any(|a| a == "--cluster-internal");
    // Replication factor of the backend tier (see `orsp-replicad`):
    // above 1, the proxy fails reads and writes over to a range's
    // follower when its primary goes hard-down, promoting it in place.
    let replication_factor: usize = flag(&args, "--replication-factor", USAGE).unwrap_or(1);
    let pool: usize = flag(&args, "--pool", USAGE).unwrap_or(4);
    // The fan-out inherits the call deadline: a black-holed backend
    // costs a scatter-gather leg at most this budget (dial + retries),
    // never connect_timeout × attempts.
    let backend_client =
        ClientConfig { call_deadline: Some(Duration::from_secs(10)), ..ClientConfig::default() };
    let links: Vec<Arc<dyn BackendLink>> = backends
        .iter()
        .map(|&addr| {
            Arc::new(NetPool::new(addr, backend_client, pool)) as Arc<dyn BackendLink>
        })
        .collect();
    for (i, addr) in backends.iter().enumerate() {
        println!("proxy: backend {i} -> {addr} ({pool} pooled connections)");
    }
    if cluster_internal {
        println!("proxy: cluster-internal tier — serving floor-unfiltered AggregateParts");
    }
    let service = Arc::new(ProxyService::new(
        links,
        ProxyConfig { cluster_internal, replication_factor, ..ProxyConfig::default() },
    ));
    if replication_factor > 1 {
        println!("proxy: replication factor {replication_factor} — failover routing enabled");
    }
    // The proxy fronts the device fleet, so this is where a raised
    // `--max-connections` ceiling matters most.
    let server = flags.bind(service.clone(), "proxy").expect("bind proxy");
    println!("proxy: listening on {} over {} backends", server.local_addr(), backends.len());

    // Serve until stdin closes, then drain.
    let stats = serve_until_stdin_eof(server);
    println!(
        "proxy: drained — {} connections, {} requests, {} shed",
        stats.accepted, stats.requests, stats.shed
    );
    println!("proxy: final snapshot\n{}", service.obs().snapshot().render_json());
}
