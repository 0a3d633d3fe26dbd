//! Non-blocking point-to-point requests (`MPI_Isend`/`MPI_Irecv` analogues).
//!
//! A request is a lightweight handle recording *when* the operation was
//! posted; completion is charged against the simulated clock by the
//! matching `wait`/`test` call on [`crate::Comm`]:
//!
//! * an [`SendRequest`] completes locally when the NIC finishes serializing
//!   the message (`Comm` tracks a NIC-free timestamp so back-to-back
//!   `isend`s queue on the injection port instead of magically
//!   parallelizing);
//! * a [`RecvRequest`] completes at `max(post_time, arrival_time)` — the
//!   receiver only idles for the part of the transfer it did not cover
//!   with local work, which is how communication/computation overlap is
//!   charged *honestly*: time between post and wait spent computing counts
//!   against the transfer, and the saved idle time is reported as
//!   `hidden` in [`crate::RecvInfo`].
//!
//! `test` never advances the clock and is **advisory**: it answers "has
//! this completed by my current simulated time?" from the messages that
//! have physically arrived on the channel so far. Control flow that
//! branches on `test` results is therefore only deterministic once the
//! matching message is guaranteed in flight (e.g. after a barrier);
//! `wait`-driven completion is deterministic unconditionally.

/// Handle for a posted non-blocking send. Completion is local: the NIC has
/// finished serializing the payload (the LogGP `G·k` term); delivery is
/// *not* implied, exactly like `MPI_Isend` completion.
#[derive(Clone, Copy, Debug)]
pub struct SendRequest {
    /// Simulated time the send was posted.
    pub(crate) posted_at: f64,
    /// Simulated time the NIC finishes injecting the message.
    pub(crate) complete_at: f64,
}

impl SendRequest {
    /// Simulated time the send was posted.
    pub fn posted_at(&self) -> f64 {
        self.posted_at
    }

    /// Simulated time the injection completes (local completion).
    pub fn completes_at(&self) -> f64 {
        self.complete_at
    }
}

/// Handle for a posted non-blocking receive for `(src, tag)`. Matching
/// follows MPI's non-overtaking rule: the `i`-th receive posted for a
/// `(src, tag)` stream pairs with the `i`-th message sent on it, no matter
/// what order the waits later run in. (Matching the earliest *buffered*
/// message instead — the scheme this replaced — silently broke per-stream
/// FIFO completion clocks whenever requests were waited out of order.)
#[derive(Clone, Copy, Debug)]
pub struct RecvRequest {
    /// Source rank to match.
    pub(crate) src: usize,
    /// Stream tag to match (a point-to-point tag, widened).
    pub(crate) tag: u64,
    /// Position in the `(src, tag)` stream this request pairs with.
    pub(crate) seq: u64,
    /// Simulated time the receive was posted.
    pub(crate) posted_at: f64,
}

impl RecvRequest {
    /// Source rank this request matches.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Tag this request matches, widened to the 64-bit stream tag space.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Position in the `(src, tag)` message stream this request pairs
    /// with (0-based post order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Simulated time the receive was posted.
    pub fn posted_at(&self) -> f64 {
        self.posted_at
    }
}
