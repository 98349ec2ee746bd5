//! The command-line surface every server binary shares — `rsp_daemon`,
//! `orsp-replicad` and `orsp-proxy` — and the process lifecycle around
//! it: a per-process trace id stream, serve until stdin reaches EOF,
//! then drain.
//!
//! | flag | default |
//! |---|---|
//! | `--listen ADDR` | an ephemeral loopback port |
//! | `--max-connections N` | [`ServerConfig::default`]'s slab, 68 (0 is refused) |
//! | `--trace-sample PER10K` | the tracer's 1% |
//! | `--trace-slow-us N` | off |

use crate::server::{FrameService, NetServer, ServerConfig, ServerStats};
use std::io::{self, Read};
use std::str::FromStr;
use std::sync::Arc;

/// The shared server flags, parsed once.
#[derive(Debug)]
pub struct ServeFlags {
    /// `--listen ADDR`: a fixed address, or `None` for an ephemeral
    /// loopback port.
    pub listen: Option<String>,
    /// `--max-connections N`: reactor slab size, at least 1.
    pub max_connections: usize,
    /// `--trace-sample PER10K`: head-sampling rate per 10 000 roots.
    pub trace_sample: Option<u32>,
    /// `--trace-slow-us N`: always sample roots at least this slow.
    pub trace_slow_us: Option<u64>,
}

impl ServeFlags {
    /// Parse the shared flags out of `args` (a binary's own flags are
    /// left to [`flag`]). A missing or malformed value, or
    /// `--max-connections 0`, prints `usage` and exits with status 2.
    pub fn parse(args: &[String], usage: &str) -> ServeFlags {
        let max_connections = flag(args, "--max-connections", usage)
            .unwrap_or(ServerConfig::default().effective_max_connections());
        if max_connections == 0 {
            usage_exit("--max-connections must be at least 1", usage);
        }
        ServeFlags {
            listen: flag(args, "--listen", usage),
            max_connections,
            trace_sample: flag(args, "--trace-sample", usage),
            trace_slow_us: flag(args, "--trace-slow-us", usage),
        }
    }

    /// Seed this process's trace id stream, apply the sampling flags to
    /// `service`'s tracer (announcing each under `label`), then bind
    /// `service` at `--listen` with `--max-connections` slots. The
    /// library's default seed is fixed (tests pin ids), but two processes
    /// must never mint colliding trace ids or a cross-process trace join
    /// would fuse unrelated traces.
    pub fn bind(&self, service: Arc<dyn FrameService>, label: &str) -> io::Result<NetServer> {
        let tracer = service.obs().tracer();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        tracer.set_seed((std::process::id() as u64) << 32 ^ nanos);
        if let Some(rate) = self.trace_sample {
            tracer.set_sampling(rate);
            println!("{label}: tracing {rate}/10000 requests");
        }
        if let Some(slow) = self.trace_slow_us {
            tracer.set_slow_threshold_us(slow);
            println!("{label}: always tracing requests slower than {slow}µs");
        }
        let config =
            ServerConfig { max_connections: self.max_connections, ..ServerConfig::default() };
        NetServer::bind(self.listen.as_deref().unwrap_or("127.0.0.1:0"), service, config)
    }
}

/// The value after `name` in `args`, parsed; `None` when the flag is
/// absent. A flag without a value, or with one that does not parse,
/// prints `usage` and exits with status 2.
pub fn flag<T: FromStr>(args: &[String], name: &str, usage: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(raw) => match raw.parse() {
            Ok(value) => Some(value),
            Err(_) => usage_exit(&format!("{name}: bad value {raw:?}"), usage),
        },
        None => usage_exit(&format!("{name} takes a value"), usage),
    }
}

fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

/// Serve until stdin reaches EOF — the cluster-backend lifecycle — then
/// drain `server` and return its final counters.
pub fn serve_until_stdin_eof(server: NetServer) -> ServerStats {
    let mut sink = Vec::new();
    let _ = io::stdin().read_to_end(&mut sink);
    server.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_take_the_server_config_slab() {
        let flags = ServeFlags::parse(&args(&["bin", "--data-dir", "/x"]), "usage");
        assert_eq!(flags.listen, None);
        assert_eq!(flags.max_connections, ServerConfig::default().effective_max_connections());
        assert_eq!(flags.max_connections, 68);
        assert_eq!(flags.trace_sample, None);
        assert_eq!(flags.trace_slow_us, None);
    }

    #[test]
    fn all_four_flags_parse() {
        let argv = "bin --listen 127.0.0.1:7100 --max-connections 10000 --trace-sample 10000 \
                    --trace-slow-us 500";
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let flags = ServeFlags::parse(&argv, "usage");
        assert_eq!(flags.listen.as_deref(), Some("127.0.0.1:7100"));
        assert_eq!(flags.max_connections, 10_000);
        assert_eq!(flags.trace_sample, Some(10_000));
        assert_eq!(flags.trace_slow_us, Some(500));
    }
}
