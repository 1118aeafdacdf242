//! A minimal blocking NDJSON client for the TCP transport — what the
//! integration tests and the `perfbench` serving workloads drive the
//! server with.
//!
//! [`Client::roundtrip_retrying`] adds the robustness half: transient
//! failures — an `overloaded` shed, a timeout, a reset or torn
//! connection — are retried with seeded exponential backoff and
//! jitter (deterministic per [`RetryPolicy::seed`], no RNG
//! dependency), reconnecting to the stored address when the transport
//! itself died. Non-transient typed errors (`bad_request`,
//! `internal_error`, …) are returned as-is: retrying those would just
//! repeat the answer.

use crate::protocol::MetricsLine;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// When and how [`Client::roundtrip_retrying`] retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// First backoff; doubles per attempt.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based): exponential from
    /// [`RetryPolicy::base_delay_ms`], capped, plus up to 50% seeded
    /// jitter so a herd of retrying clients decorrelates.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms);
        let jitter = splitmix64(self.seed.wrapping_add(u64::from(attempt))) % (exp / 2 + 1);
        Duration::from_millis(exp + jitter)
    }
}

/// SplitMix64: the one-liner generator behind the jitter stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether an I/O failure is worth a reconnect-and-retry.
fn retryable(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// One NDJSON connection to a `qods-serve --listen` server.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    retry: RetryPolicy,
    retries: u64,
}

impl Client {
    /// Connects to `addr` with the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// The connect/clone error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// Connects to `addr` with an explicit retry policy.
    ///
    /// # Errors
    ///
    /// The connect/clone error.
    pub fn connect_with(addr: SocketAddr, retry: RetryPolicy) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            addr,
            reader,
            writer,
            retry,
            retries: 0,
        })
    }

    /// How many times this client has retried a request (the
    /// robustness counter `perfbench` reports as `net.retries`).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Drops the current connection and dials the stored address
    /// again.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let writer = TcpStream::connect(self.addr)?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        Ok(())
    }

    /// Sends one raw request line (the newline is added here).
    ///
    /// # Errors
    ///
    /// The write error.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next response line; `None` on server EOF.
    ///
    /// # Errors
    ///
    /// The read error.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Sends one request line and returns its (single) response line;
    /// `None` if the server closed instead of answering. Only valid
    /// when the server is not in `--progress` mode (progress lines
    /// would arrive first).
    ///
    /// # Errors
    ///
    /// The transport error.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// [`Client::roundtrip`] with transient-failure retries: an
    /// `overloaded` response, a transport timeout, or a dropped
    /// connection backs off (exponential + seeded jitter) and tries
    /// again, reconnecting when the socket died — up to
    /// [`RetryPolicy::max_retries`] times. Every retry increments
    /// [`Client::retries`]. Any other typed error line is final and
    /// returned as-is.
    ///
    /// # Errors
    ///
    /// The last transport error once retries are exhausted.
    pub fn roundtrip_retrying(&mut self, line: &str) -> std::io::Result<Option<String>> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.roundtrip(line);
            let transient = match &outcome {
                Ok(Some(response)) => {
                    response.contains(&crate::protocol::ErrorKind::Overloaded.fragment())
                }
                // Server closed mid-request: worth one more dial.
                Ok(None) => true,
                Err(e) => retryable(e.kind()),
            };
            if !transient || attempt >= self.retry.max_retries {
                return outcome;
            }
            std::thread::sleep(self.retry.backoff(attempt));
            self.retries += 1;
            attempt += 1;
            if self.reconnect().is_err() {
                // The server may still be mid-restart; the next loop
                // iteration fails fast on the dead socket and retries.
                continue;
            }
        }
    }

    /// Issues the `metrics` verb and parses the full registry
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` when the answer does not
    /// parse as a metrics line (or the server closed first).
    pub fn metrics(&mut self) -> std::io::Result<MetricsLine> {
        let line = self
            .roundtrip("{\"verb\":\"metrics\"}")?
            .ok_or_else(|| invalid("server closed before answering metrics"))?;
        serde_json::from_str(&line)
            .map_err(|e| invalid(&format!("metrics line did not parse: {e}: {line}")))
    }

    /// Issues the `ping` verb and checks for the `pong` answer.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on a non-pong answer.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.roundtrip("{\"verb\":\"ping\"}")? {
            Some(line) if line.contains("\"event\":\"pong\"") => Ok(()),
            other => Err(invalid(&format!("expected pong, got {other:?}"))),
        }
    }

    /// Issues the `shutdown` verb and returns the acknowledgement
    /// line (the server drains and exits after it).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` when the server closed
    /// without acknowledging.
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.roundtrip("{\"verb\":\"shutdown\"}")?
            .ok_or_else(|| invalid("server closed before acknowledging shutdown"))
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let policy = RetryPolicy::default();
        // Jitter adds at most 50%, so the deterministic floor is the
        // exponential schedule and the ceiling is 1.5x the cap.
        for attempt in 0..8 {
            let d = policy.backoff(attempt).as_millis() as u64;
            let floor = (policy.base_delay_ms << attempt).min(policy.max_delay_ms);
            assert!(d >= floor, "attempt {attempt}: {d} < {floor}");
            assert!(
                d <= policy.max_delay_ms + policy.max_delay_ms / 2,
                "attempt {attempt}: {d} above jittered cap"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::default();
        let b = RetryPolicy::default();
        assert_eq!(a.backoff(3), b.backoff(3));
        let c = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        // Different seeds *may* collide on one attempt; across four
        // they must not all agree.
        assert!((0..4).any(|i| a.backoff(i) != c.backoff(i)));
    }

    #[test]
    fn transient_error_kinds_are_retryable_and_data_errors_are_not() {
        assert!(retryable(std::io::ErrorKind::TimedOut));
        assert!(retryable(std::io::ErrorKind::ConnectionReset));
        assert!(retryable(std::io::ErrorKind::UnexpectedEof));
        assert!(!retryable(std::io::ErrorKind::InvalidData));
        assert!(!retryable(std::io::ErrorKind::PermissionDenied));
    }
}
