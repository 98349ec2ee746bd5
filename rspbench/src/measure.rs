//! The measurement core: one percentile rule, one quartile rule, and an
//! open-loop scheduler that times every request from when it was due.

use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nanoseconds since the first call in this process: the one clock every
/// span, arrival and acknowledgement is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A set of raw samples with the one percentile rule.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The nearest-rank `q` quantile (`0 < q < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie above it.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "percentile {q} out of (0, 1)");
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }
}

/// The `q` quantile of time-ordered samples as the median over up to
/// `max_windows` consecutive windows of equal sample count, using as
/// many windows as leave each one [`MIN_BEYOND`] samples beyond its
/// quantile. A burst of stolen CPU moves one window, not the median;
/// with one window this is the plain percentile. Returns the value and
/// the number of windows.
pub fn windowed_percentile(
    points: &[(u64, f64)],
    q: f64,
    max_windows: usize,
) -> Option<(f64, Vec<f64>)> {
    let mut ordered: Vec<(u64, f64)> = points.to_vec();
    ordered.sort_by_key(|p| p.0);
    let need = (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
    let windows = (ordered.len() / need.max(1)).clamp(1, max_windows.max(1));
    let per = ordered.len() / windows;
    let mut values = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = if w + 1 == windows {
            ordered.len()
        } else {
            (w + 1) * per
        };
        let mut s = Samples::new();
        for p in &ordered[w * per..end] {
            s.push(p.1);
        }
        values.push(s.percentile(q)?);
    }
    median(&values).map(|m| (m, values))
}

/// First quartile, median and third quartile of a small set of run-level
/// values, by the same rule as Python's `statistics.quantiles(n=4)`
/// (the "exclusive" method); with one value all three are that value.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        n => {
            // Python's integer arithmetic, including its extrapolation
            // past the ends when the clamp moves `j`.
            let cut = |i: i64| {
                let (ld, m, parts) = (n as i64, n as i64 + 1, 4i64);
                let j = (i * m / parts).clamp(1, ld - 1);
                let delta = (i * m - j * parts) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                (lo * (parts as f64 - delta) + hi * delta) / parts as f64
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The median of a set of run-level values.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// Poisson arrival offsets (ns from the start of the phase) at `rate`
/// per second over `duration`: independent devices and consumers.
pub fn poisson_arrivals<R: Rng>(rng: &mut R, rate: f64, duration: Duration) -> Vec<u64> {
    let horizon = duration.as_nanos() as f64;
    let mean_gap = 1e9 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration.as_secs_f64() * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() * mean_gap;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// What one open-loop request saw.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Index into the arrival schedule.
    pub index: usize,
    /// When it was due (absolute, [`now_ns`] clock).
    pub due_ns: u64,
    /// When its answer arrived.
    pub done_ns: u64,
    /// How late the generator itself ran: send time minus the later of
    /// the due time and the moment the connection came free.
    pub lag_ns: u64,
}

impl Timed {
    /// Latency as a user sees it: from intended send to answer.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Drive a fixed arrival schedule through `workers` connections. Each
/// worker takes the next due arrival, sleeps until it is due (unless it
/// is already late), and calls `send`. A request that waits behind a
/// slow one keeps its original due time, so a stall shows in the latency
/// of every request due during it.
pub fn run_open_loop<C, F>(arrivals: &[u64], mut connections: Vec<C>, send: F) -> Vec<Timed>
where
    C: Send,
    F: Fn(&mut C, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let start = now_ns() + 2_000_000;
    let mut all: Vec<Timed> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|conn| {
                let next = &next;
                let send = &send;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = arrivals.get(i) else { break };
                        let free_ns = now_ns();
                        let due_ns = start + offset;
                        if due_ns > free_ns {
                            std::thread::sleep(Duration::from_nanos(due_ns - free_ns));
                        }
                        let sent_ns = now_ns();
                        send(conn, i);
                        let done_ns = now_ns();
                        let lag_ns = sent_ns.saturating_sub(due_ns.max(free_ns));
                        out.push(Timed {
                            index: i,
                            due_ns,
                            done_ns,
                            lag_ns,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop worker"))
            .collect()
    });
    all.sort_by_key(|t| t.index);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples(0).percentile(0.5), None);
        assert_eq!(samples(19).percentile(0.5), None, "9 beyond the median");
        assert_eq!(
            samples(20).percentile(0.5),
            Some(10.0),
            "10 beyond the median"
        );
        assert_eq!(samples(999).percentile(0.99), None, "9 beyond p99");
        assert_eq!(samples(1000).percentile(0.99), Some(990.0));
        assert_eq!(samples(1).percentile(0.01), None);
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0].iter().cycle().take(50) {
            s.push(*v);
        }
        assert_eq!(s.percentile(0.5), Some(3.0));
        assert_eq!(s.percentile(0.2), Some(1.0));
        assert_eq!(s.percentile(0.21), Some(2.0));
        s.push(0.5);
        assert_eq!(
            s.percentile(0.01),
            Some(0.5),
            "a push after sorting re-sorts"
        );
    }

    #[test]
    fn windowed_percentile_uses_as_many_windows_as_the_rule_allows() {
        let points: Vec<(u64, f64)> = (0..3_000u64).map(|i| (i, (i % 100) as f64)).collect();
        let (p99, windows) = windowed_percentile(&points, 0.99, 6).unwrap();
        assert_eq!(windows.len(), 3);
        assert_eq!(p99, 98.0);
        let (p50, windows) = windowed_percentile(&points, 0.5, 6).unwrap();
        assert_eq!((p50, windows.len()), (49.0, 6));
        assert_eq!(windowed_percentile(&points[..999], 0.99, 6), None);
        // One window stalled: the median ignores it.
        let mut stalled = points.clone();
        for p in stalled.iter_mut().take(1_000) {
            p.1 = 1e6;
        }
        assert_eq!(windowed_percentile(&stalled, 0.99, 6).unwrap().0, 98.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn poisson_arrivals_hit_the_rate() {
        let mut rng = orsp_types::rng::rng_for(7, "arrivals");
        let a = poisson_arrivals(&mut rng, 10_000.0, Duration::from_secs(2));
        assert!((19_000..21_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A served stack whose service stalls 50 ms on one request.
    struct Stalling {
        calls: AtomicUsize,
        obs: std::sync::Arc<orsp_obs::Registry>,
    }

    impl orsp_net::FrameService for Stalling {
        fn handle_traced(
            &self,
            _request: orsp_net::Request,
            _ctx: Option<orsp_obs::TraceContext>,
        ) -> orsp_net::Response {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 10 {
                std::thread::sleep(Duration::from_millis(50));
            }
            orsp_net::Response::Pong
        }

        fn obs(&self) -> &std::sync::Arc<orsp_obs::Registry> {
            &self.obs
        }
    }

    #[test]
    fn a_stalling_service_shows_in_the_latency_of_requests_due_during_the_stall() {
        let service = std::sync::Arc::new(Stalling {
            calls: AtomicUsize::new(0),
            obs: std::sync::Arc::new(orsp_obs::Registry::new()),
        });
        let server =
            orsp_net::NetServer::bind("127.0.0.1:0", service, orsp_net::ServerConfig::default())
                .expect("bind");
        let client =
            orsp_net::NetClient::connect(server.local_addr(), orsp_net::ClientConfig::default())
                .expect("connect");
        // One connection, a request every 2 ms; the 11th call stalls.
        let arrivals: Vec<u64> = (0..60).map(|i| i * 2_000_000).collect();
        let timed = run_open_loop(&arrivals, vec![client], |c, _| {
            assert_eq!(
                c.call(&orsp_net::Request::Ping).expect("ping"),
                orsp_net::Response::Pong
            );
        });
        let _ = server.shutdown();
        let stalled = timed
            .iter()
            .max_by_key(|t| t.latency_ns())
            .expect("requests ran");
        assert!(stalled.latency_ns() >= 50_000_000);
        let stall_end = stalled.done_ns;
        let mut behind = 0;
        for t in timed
            .iter()
            .filter(|t| t.index > stalled.index && t.due_ns < stall_end)
        {
            behind += 1;
            assert!(
                t.latency_ns() >= stall_end - t.due_ns,
                "request {} due {}ns before the stall ended saw only {}ns",
                t.index,
                stall_end - t.due_ns,
                t.latency_ns()
            );
        }
        assert!(
            behind >= 20,
            "only {behind} requests were due during the stall"
        );
    }

    #[test]
    fn a_stall_shows_in_every_request_due_during_it() {
        // 1 connection, a request every 2 ms; request 5 stalls 50 ms.
        let arrivals: Vec<u64> = (0..60).map(|i| i * 2_000_000).collect();
        let timed = run_open_loop(&arrivals, vec![()], |_, i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let stall_end = timed[5].done_ns;
        for t in &timed[6..] {
            if t.due_ns < stall_end {
                assert!(
                    t.latency_ns() >= stall_end - t.due_ns,
                    "request {} due {}ns before the stall ended saw only {}ns",
                    t.index,
                    stall_end - t.due_ns,
                    t.latency_ns()
                );
            }
        }
        assert!(timed[6].latency_ns() >= 45_000_000);
    }
}
