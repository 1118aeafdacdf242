//! The discrete-event core of the architectural simulator: a typed
//! event queue with a documented tie-break, serial-calendar resources,
//! and token-bucket supply streams.
//!
//! The simulator (see [`crate::simulator`]) is a policy layer over
//! these three primitives: gates become events, the CQLA hierarchy
//! port becomes a [`SerialResource`], and ancilla factories become
//! [`Pool`]s of independently-accruing [`TokenStream`]s.
//!
//! ## Determinism contract
//!
//! [`EventQueue`] pops events in ascending `(time, id)` order: earlier
//! events first, and among equal times the *smallest* id first (ids
//! are gate indices, so ties resolve in program order). Every resource
//! here is a deterministic function of its call sequence, so a
//! simulation built on them is a pure function of its inputs —
//! repeated runs, and parallel sweeps at any thread count, produce
//! bit-identical results.
//!
//! ## Token buckets, not reservoirs
//!
//! Encoded ancillae cannot be stockpiled indefinitely: an idle ancilla
//! must itself be error-corrected, and factory output ports hold only
//! a few blocks. A [`TokenStream`] therefore accrues at its production
//! rate up to a small *buffer* and wastes output beyond it. The zero
//! and pi/8 products of a [`Pool`] come from distinct factories, so
//! each stream accrues on its own clock: a draw that waits on the
//! slower product must not discard what the faster product goes on
//! producing in the meantime.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(time, id)` events with deterministic tie-breaking:
/// ascending time, then ascending id.
///
/// Times must be non-negative and finite (non-negative IEEE doubles
/// order identically to their bit patterns, which is what makes the
/// integer heap key exact — no epsilon comparisons anywhere). The key
/// packs both into one `u128`, time bits high and id low, so one
/// integer compare orders events exactly as the `(time, id)` pair
/// does.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules event `id` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `t` is negative or NaN.
    pub fn push(&mut self, t: f64, id: usize) {
        debug_assert!(t >= 0.0 && !t.is_nan(), "event time must be non-negative");
        self.heap.push(Reverse(EventQueue::key(t, id)));
    }

    /// The key event `id` at time `t` is ordered by: time bits high, id
    /// low. Keys of distinct events are distinct, and ascending keys are
    /// ascending `(time, id)` pairs.
    pub fn key(t: f64, id: usize) -> u128 {
        u128::from(t.to_bits()) << 64 | id as u128
    }

    /// Removes and returns the earliest event; equal-time events come
    /// out in ascending id order.
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        self.heap
            .pop()
            .map(|Reverse(key)| (f64::from_bits((key >> 64) as u64), key as u64 as usize))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A resource that serves one request at a time, in call order: a
/// calendar of busy time. The CQLA memory<->cache hierarchy port is
/// one of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialResource {
    free_at: f64,
}

impl SerialResource {
    /// A resource idle from time zero.
    pub fn new() -> Self {
        SerialResource::default()
    }

    /// Reserves the resource for `duration` starting no earlier than
    /// `ready`; returns the completion time. The request queues behind
    /// everything previously acquired (FIFO in call order).
    pub fn acquire(&mut self, ready: f64, duration: f64) -> f64 {
        let start = ready.max(self.free_at);
        self.free_at = start + duration;
        self.free_at
    }

    /// When the resource next becomes idle.
    pub fn free_at(&self) -> f64 {
        self.free_at
    }
}

/// One product stream of an ancilla pool: tokens accrue continuously
/// at `rate_per_us` up to `buffer`, on the stream's own clock.
#[derive(Debug, Clone, Copy)]
pub struct TokenStream {
    rate_per_us: f64,
    buffer: f64,
    tokens: f64,
    last_t: f64,
}

impl TokenStream {
    /// A stream producing `rate_per_us` tokens/us into a bucket of
    /// `buffer` tokens, empty at time zero.
    pub fn new(rate_per_us: f64, buffer: f64) -> Self {
        TokenStream {
            rate_per_us,
            buffer,
            tokens: 0.0,
            last_t: 0.0,
        }
    }

    /// Draws `amount` tokens at (or after) time `t`; returns when the
    /// draw completes. Production accrued since the last draw is
    /// credited first (capped at the buffer — output beyond a full
    /// buffer is wasted); any shortfall is waited out at the
    /// production rate. The stream's clock advances to the completion
    /// time of *this* draw only — it never jumps ahead for waits on
    /// other streams.
    pub fn draw(&mut self, amount: f64, t: f64) -> f64 {
        if amount <= 0.0 {
            return t;
        }
        let t = t.max(self.last_t);
        let dt = t - self.last_t;
        self.tokens = (self.tokens + self.rate_per_us * dt).min(self.buffer);
        self.last_t = t;
        if amount <= self.tokens {
            self.tokens -= amount;
            t
        } else if self.rate_per_us > 0.0 {
            let wait = (amount - self.tokens) / self.rate_per_us;
            self.tokens = 0.0;
            self.last_t = t + wait;
            t + wait
        } else {
            f64::INFINITY
        }
    }
}

/// A token-bucket ancilla pool: one zero stream (QEC consumption) and
/// one pi/8 stream (non-transversal gates), accruing independently.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    zero: TokenStream,
    pi8: TokenStream,
}

impl Pool {
    /// A pool fed at the given per-ms bandwidths with the given
    /// buffers (in encoded blocks).
    pub fn new(zero_per_ms: f64, pi8_per_ms: f64, zero_buffer: f64, pi8_buffer: f64) -> Pool {
        Pool {
            zero: TokenStream::new(zero_per_ms / 1000.0, zero_buffer),
            pi8: TokenStream::new(pi8_per_ms / 1000.0, pi8_buffer),
        }
    }

    /// Draws `zeros` + `pi8` tokens at (or after) time `t`; returns
    /// when both draws complete. The two product streams come from
    /// distinct factories: each accrues and waits on its own clock, so
    /// tokens the faster stream produces while the draw waits on the
    /// slower one stay in its bucket for the next draw.
    pub fn consume(&mut self, zeros: f64, pi8: f64, t: f64) -> f64 {
        self.zero.draw(zeros, t).max(self.pi8.draw(pi8, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_id_order() {
        let mut q = EventQueue::new();
        q.push(2.0, 0);
        q.push(1.0, 7);
        q.push(1.0, 3);
        q.push(0.5, 9);
        q.push(1.0, 5);
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(0.5, 9), (1.0, 3), (1.0, 5), (1.0, 7), (2.0, 0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn serial_resource_queues_in_call_order() {
        let mut port = SerialResource::new();
        assert_eq!(port.acquire(0.0, 5.0), 5.0);
        // Ready before the port frees: queues behind the first.
        assert_eq!(port.acquire(2.0, 3.0), 8.0);
        // Ready after the port frees: starts immediately.
        assert_eq!(port.acquire(10.0, 1.0), 11.0);
        assert_eq!(port.free_at(), 11.0);
    }

    #[test]
    fn stream_accrues_up_to_buffer_only() {
        let mut s = TokenStream::new(1.0, 3.0);
        // Long idle: the bucket holds only the buffer, so a draw
        // beyond it waits exactly the shortfall at the rate — no
        // tokens were created beyond it.
        assert_eq!(s.draw(5.0, 100.0), 102.0);
    }

    #[test]
    fn stream_waits_at_production_rate() {
        let mut s = TokenStream::new(2.0, 10.0);
        assert_eq!(s.draw(4.0, 0.0), 2.0); // 4 tokens at 2/us
        assert_eq!(s.draw(4.0, 2.0), 4.0); // bucket empty again
    }

    #[test]
    fn zero_amount_draws_are_free_even_without_production() {
        let mut s = TokenStream::new(0.0, 0.0);
        assert_eq!(s.draw(0.0, 7.0), 7.0);
        assert_eq!(s.draw(1.0, 7.0), f64::INFINITY);
    }

    #[test]
    fn streams_accrue_independently_while_one_waits() {
        // Zero stream is fast, pi/8 stream is slow. A draw that waits
        // on pi/8 must not freeze the zero stream's clock at the
        // combined completion time.
        let mut p = Pool::new(1000.0, 10.0, 100.0, 10.0);
        // Buckets start empty. Draw 1 zero + 1 pi8 at t=0: the zero
        // side completes at 1us, the pi/8 side at 100us.
        let done = p.consume(1.0, 1.0, 0.0);
        assert_eq!(done, 100.0);
        // During the 99us spent waiting on pi/8, the zero stream kept
        // producing (its own draw finished at t=1): by t=100 it holds
        // 99 tokens, so a 99-zero draw at t=100 completes instantly.
        // (The old single-clock pool froze the zero stream at t=100
        // and would have made this draw wait the full 99us again.)
        let z = p.consume(99.0, 0.0, 100.0);
        assert_eq!(z, 100.0);
    }

    #[test]
    fn split_draw_is_never_slower_than_combined() {
        // Regression for the old single-clock pool: drawing the same
        // demand as two back-to-back draws must complete no later than
        // one combined draw does (independent accrual can only help).
        let cases = [
            (50.0, 4.0, 8.0, 3.0, 2.0),
            (200.0, 10.0, 32.0, 8.0, 1.0),
            (3.1, 0.9, 2.0, 1.0, 0.0),
        ];
        for (zr, pr, zb, pb, t0) in cases {
            let mut combined = Pool::new(zr, pr, zb, pb);
            let mut split = Pool::new(zr, pr, zb, pb);
            let whole = combined.consume(6.0, 2.0, t0);
            let first = split.consume(3.0, 1.0, t0);
            let second = split.consume(3.0, 1.0, first);
            assert!(
                second <= whole + 1e-9,
                "split {second} > combined {whole} for rates ({zr},{pr})"
            );
        }
    }
}
