//! Untrusted-replica fan-out.
//!
//! A coordinator started with replicas (or that received
//! `register_replica` ops) keeps them in a [`ReplicaPool`]. Replicas are
//! **untrusted**: the coordinator never believes a replica's answer —
//! it only believes its own trusted checker (`bvq-cert`), run against
//! its *own* snapshot of the database. The pool therefore only deals in
//! transport: round-robin selection, per-call timeouts, and a
//! three-strikes quarantine for replicas that stop responding. Whether
//! a returned certificate is *valid* is decided entirely by the caller.
//!
//! The exchange itself is one line of the ordinary wire protocol: the
//! coordinator connects, sends a single `eval_certified` request, and
//! reads a single response line. Replicas are plain `bvq serve`
//! processes — there is no separate replica protocol to audit.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive failures after which a replica is quarantined.
const MAX_FAILURES: u32 = 3;

#[derive(Debug)]
struct Replica {
    addr: String,
    /// Consecutive failures; reset on any success. At [`MAX_FAILURES`]
    /// the replica stops being picked.
    failures: u32,
}

/// A round-robin pool of untrusted replica addresses.
#[derive(Debug, Default)]
pub struct ReplicaPool {
    replicas: Mutex<Vec<Replica>>,
    cursor: AtomicUsize,
}

impl ReplicaPool {
    /// An empty pool (fan-out disabled until a replica registers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `addr` to the pool (idempotent; re-registering clears any
    /// quarantine, so a restarted replica heals itself by registering
    /// again). Returns the pool size after registration.
    pub fn register(&self, addr: &str) -> usize {
        let mut reps = self.replicas.lock().unwrap();
        match reps.iter_mut().find(|r| r.addr == addr) {
            Some(r) => r.failures = 0,
            None => reps.push(Replica {
                addr: addr.to_string(),
                failures: 0,
            }),
        }
        reps.len()
    }

    /// Picks the next healthy replica address round-robin, or `None`
    /// when every replica is quarantined (or the pool is empty).
    pub fn pick(&self) -> Option<String> {
        let reps = self.replicas.lock().unwrap();
        if reps.is_empty() {
            return None;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        (0..reps.len())
            .map(|i| &reps[(start + i) % reps.len()])
            .find(|r| r.failures < MAX_FAILURES)
            .map(|r| r.addr.clone())
    }

    /// Records a successful exchange with `addr` (clears its strikes).
    pub fn report_success(&self, addr: &str) {
        let mut reps = self.replicas.lock().unwrap();
        if let Some(r) = reps.iter_mut().find(|r| r.addr == addr) {
            r.failures = 0;
        }
    }

    /// Records a failed exchange with `addr`. Three in a row quarantine
    /// the replica until it re-registers or succeeds via another path.
    pub fn report_failure(&self, addr: &str) {
        let mut reps = self.replicas.lock().unwrap();
        if let Some(r) = reps.iter_mut().find(|r| r.addr == addr) {
            r.failures = r.failures.saturating_add(1);
        }
    }

    /// `(total, healthy)` pool occupancy, for the `stats` op.
    pub fn occupancy(&self) -> (usize, usize) {
        let reps = self.replicas.lock().unwrap();
        let healthy = reps.iter().filter(|r| r.failures < MAX_FAILURES).count();
        (reps.len(), healthy)
    }
}

/// Sends one request line to `addr` and reads one response line of at
/// most `max_bytes` bytes, all within `timeout`: connect and write each
/// get `timeout`, and the whole reply must arrive before one deadline
/// `timeout` after the write, however the replica paces its bytes.
///
/// Returns `Err` on any transport problem — connection refused, timeout,
/// a dropped connection mid-line, an empty response, or a reply line
/// longer than `max_bytes`. Protocol-level errors (`"ok": false`) are
/// *successful* exchanges at this layer; the caller inspects the payload.
pub fn exchange(
    addr: &str,
    line: &str,
    timeout: Duration,
    max_bytes: usize,
) -> std::io::Result<String> {
    let sock_addr = addr
        .parse()
        .map_err(|e| Error::new(ErrorKind::InvalidInput, format!("{e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(line.as_bytes())?;
    if !line.ends_with('\n') {
        stream.write_all(b"\n")?;
    }
    stream.flush()?;
    let deadline = Instant::now() + timeout;
    let mut response = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::new(
                ErrorKind::TimedOut,
                "replica reply did not complete within the timeout",
            ));
        }
        stream.set_read_timeout(Some(left))?;
        // Never read past the cap's first excess byte.
        let room = (max_bytes.saturating_add(1) - response.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..room]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        let got = &chunk[..n];
        let end = got.iter().position(|&b| b == b'\n');
        response.extend_from_slice(&got[..end.map_or(n, |i| i + 1)]);
        if response.len() > max_bytes.saturating_add(usize::from(end.is_some())) {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("replica reply exceeds the {max_bytes}-byte frame limit"),
            ));
        }
        if end.is_some() {
            break;
        }
    }
    if response.is_empty() {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            "replica closed the connection without responding",
        ));
    }
    String::from_utf8(response).map_err(|e| Error::new(ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_healthy_replicas() {
        let pool = ReplicaPool::new();
        assert_eq!(pool.pick(), None);
        pool.register("a:1");
        pool.register("b:2");
        let picks: Vec<_> = (0..4).filter_map(|_| pool.pick()).collect();
        assert_eq!(picks, ["a:1", "b:2", "a:1", "b:2"]);
    }

    #[test]
    fn register_is_idempotent() {
        let pool = ReplicaPool::new();
        assert_eq!(pool.register("a:1"), 1);
        assert_eq!(pool.register("a:1"), 1);
        assert_eq!(pool.register("b:2"), 2);
    }

    #[test]
    fn three_strikes_quarantines_and_reregistration_heals() {
        let pool = ReplicaPool::new();
        pool.register("a:1");
        for _ in 0..MAX_FAILURES {
            pool.report_failure("a:1");
        }
        assert_eq!(pool.pick(), None);
        assert_eq!(pool.occupancy(), (1, 0));
        pool.register("a:1");
        assert_eq!(pool.pick(), Some("a:1".to_string()));
        assert_eq!(pool.occupancy(), (1, 1));
    }

    #[test]
    fn success_resets_strikes() {
        let pool = ReplicaPool::new();
        pool.register("a:1");
        pool.report_failure("a:1");
        pool.report_failure("a:1");
        pool.report_success("a:1");
        pool.report_failure("a:1");
        assert_eq!(pool.pick(), Some("a:1".to_string()));
    }

    #[test]
    fn quarantined_replica_is_skipped_not_fatal() {
        let pool = ReplicaPool::new();
        pool.register("dead:1");
        pool.register("live:2");
        for _ in 0..MAX_FAILURES {
            pool.report_failure("dead:1");
        }
        for _ in 0..4 {
            assert_eq!(pool.pick(), Some("live:2".to_string()));
        }
    }

    /// A fake replica that reads the request line, then sends reply
    /// bytes without a newline until the coordinator hangs up: all at
    /// once, or one byte every 10 ms when `trickle`.
    fn endless_replica(trickle: bool) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let sender = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = stream.read(&mut request);
            let bytes = if trickle { 1 } else { 4096 };
            while stream.write_all(&vec![b'x'; bytes]).is_ok() {
                if trickle {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });
        (addr, sender)
    }

    #[test]
    fn exchange_caps_an_endless_reply_line() {
        let (addr, sender) = endless_replica(false);
        let start = Instant::now();
        let err = exchange(&addr, "{}", Duration::from_secs(5), 1 << 16).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
        sender.join().unwrap();
    }

    #[test]
    fn exchange_gives_up_on_a_trickling_reply_at_one_deadline() {
        let (addr, sender) = endless_replica(true);
        let timeout = Duration::from_millis(300);
        let start = Instant::now();
        let err = exchange(&addr, "{}", timeout, 1 << 20).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
            "{err}"
        );
        assert!(start.elapsed() < 2 * timeout, "{:?}", start.elapsed());
        sender.join().unwrap();
    }

    #[test]
    fn exchange_rejects_unparseable_addr() {
        let err = exchange("not an addr", "{}", Duration::from_millis(100), 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
