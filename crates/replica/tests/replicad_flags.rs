//! `orsp-replicad` reads the flags every server binary shares
//! (`orsp_net::ServeFlags`): with no `--max-connections` it serves from
//! the default slab, `--trace-sample` reaches its tracer, and
//! `--max-connections 0` is refused with a usage message instead of
//! serving from an empty slab.

use orsp_net::{ClientConfig, NetClient};
use orsp_search::SearchQuery;
use orsp_types::{Category, Cuisine, SimDuration};
use orsp_world::{World, WorldConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENTS: usize = 8;
const SEED: u64 = 13;
const USERS_PER_ZIPCODE: usize = 10;
const HORIZON_DAYS: i64 = 30;

fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn replicad(dir: &PathBuf) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_orsp-replicad"));
    cmd.arg("--data-dir")
        .arg(dir)
        .args(["--cluster-size", "1"])
        .args(["--seed", &SEED.to_string()])
        .args(["--users-per-zipcode", &USERS_PER_ZIPCODE.to_string()])
        .args(["--horizon-days", &HORIZON_DAYS.to_string()]);
    cmd
}

#[test]
fn default_slab_serves_concurrent_clients_and_trace_sample_reaches_the_tracer() {
    let dir = data_dir("replicad-flags");
    let mut child = replicad(&dir)
        .args(["--trace-sample", "10000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn orsp-replicad");

    // The node binds an ephemeral port and announces it.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let addr: SocketAddr = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "replicad exited before listening"
        );
        if let Some(addr) = line.trim().strip_prefix("replicad: listening on ") {
            break addr.parse().expect("listen address");
        }
    };

    let world = World::generate(WorldConfig {
        users_per_zipcode: USERS_PER_ZIPCODE,
        horizon: SimDuration::days(HORIZON_DAYS),
        ..WorldConfig::tiny(SEED)
    })
    .unwrap();
    let query = SearchQuery {
        zipcode: world.zipcodes[0].code,
        category: Category::Restaurant(Cuisine::Thai),
    };

    // No retries: a shed connection surfaces as Busy instead of being
    // ridden out. Every client connects before any of them sends, so all
    // eight are held at once.
    let config = ClientConfig {
        max_retries: 0,
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr, config).expect("connect");
                barrier.wait();
                client.search(query).map(|_| ())
            })
        })
        .collect();
    for handle in handles {
        let outcome = handle.join().expect("client thread");
        assert!(
            outcome.is_ok(),
            "a concurrent client was refused: {outcome:?}"
        );
    }

    // Sampling at 10000/10000 seals one trace per Search. Traces drain in
    // bounded pages, and each Traces call seals a trace of its own, so
    // read until a page holds no more Search traces.
    let mut client = NetClient::connect(addr, config).expect("connect");
    let mut searches = 0;
    loop {
        let page = client.traces().expect("traces RPC");
        let found = page
            .iter()
            .filter(|t| t.root().is_some_and(|r| r.name == "server/search"))
            .count();
        if found == 0 {
            break;
        }
        searches += found;
    }
    assert_eq!(searches, CLIENTS, "one sampled trace per Search sent");
    drop(client);

    // Closing stdin drains the node; it checkpoints and exits cleanly.
    drop(child.stdin.take());
    let status = child.wait().expect("wait for replicad");
    assert!(status.success(), "replicad exited with {status}");
}

#[test]
fn zero_max_connections_is_refused_with_usage() {
    let dir = data_dir("replicad-zero-slots");
    let output = replicad(&dir)
        .args(["--max-connections", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run orsp-replicad");
    assert!(
        !output.status.success(),
        "--max-connections 0 must not serve"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("usage: orsp-replicad"),
        "stderr names the usage: {stderr}"
    );
    assert!(
        stderr.contains("--max-connections"),
        "stderr names the bad flag: {stderr}"
    );
}
