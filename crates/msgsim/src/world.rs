//! Rank spawning, point-to-point messaging, and simulated clocks.

use crossbeam::channel::{unbounded, Receiver, Sender};
use mxp_netsim::{GcdLoc, NetworkConfig};
use std::sync::{Arc, Mutex};

use crate::collectives::CollectiveTuning;
use crate::event::EventWorld;
use crate::fault::{fault_effect, LinkFault};
use crate::group::COLLECTIVE_TAG;
use crate::hash::FxHashMap;
use crate::request::{RecvRequest, SendRequest};

/// Description of a job: how many ranks, where each lives, and how the
/// network behaves. Analogous to `mpirun` plus the machine file.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// Physical location of each rank (rank index → GCD slot).
    pub locs: Vec<GcdLoc>,
    /// Interconnect model.
    pub net: NetworkConfig,
    /// CPU-side software overhead charged per send.
    pub send_overhead: f64,
    /// CPU-side software overhead charged per receive.
    pub recv_overhead: f64,
    /// Collective algorithm tuning (chunk sizes, vendor quirks).
    pub tuning: CollectiveTuning,
    /// Injected link-level faults (latency spikes, bandwidth collapse);
    /// empty for a healthy fabric. Applied by every matching send.
    pub faults: Vec<LinkFault>,
    /// Shard (worker-thread) count for the event backend: 0 = automatic
    /// (the `HPLAI_EVENT_SHARDS` environment variable, else the machine's
    /// parallelism). Purely a host-execution knob — simulated clocks,
    /// event signatures, and solutions are bitwise identical at any value.
    pub event_shards: usize,
}

impl WorldSpec {
    /// A cluster of `nodes × gcds_per_node` ranks laid out consecutively
    /// (rank r → node r / Q, slot r mod Q) — the paper's default mapping
    /// before node-local grid tuning reorders *grid coordinates*, not
    /// locations.
    pub fn cluster(nodes: usize, gcds_per_node: usize, net: NetworkConfig) -> Self {
        let locs = (0..nodes * gcds_per_node)
            .map(|r| GcdLoc {
                node: r / gcds_per_node,
                gcd: r % gcds_per_node,
            })
            .collect();
        WorldSpec {
            locs,
            net,
            send_overhead: 1.0e-6,
            recv_overhead: 0.5e-6,
            tuning: CollectiveTuning::default(),
            faults: Vec::new(),
            event_shards: 0,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.locs.len()
    }

    /// Runs one closure per rank on its own thread and returns their
    /// results in rank order. The closure receives this rank's [`Comm`].
    ///
    /// Panics in any rank propagate (a failed rank fails the job, like an
    /// MPI abort).
    pub fn run<M, T, F>(&self, f: F) -> Vec<T>
    where
        M: Send + 'static,
        T: Send,
        F: Fn(Comm<M>) -> T + Sync,
    {
        let p = self.ranks();
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded::<Envelope<M>>();
            senders.push(tx);
            receivers.push(Arc::new(Mutex::new(rx)));
        }
        let senders = Arc::new(senders);
        let spec = Arc::new(self.clone());
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        // `receivers` outlives the scope: a rank that returns (dropping
        // its `Comm`) keeps its inbox open, so an eager send to it still
        // completes, as it does on the event host.
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, rx) in receivers.iter().enumerate() {
                let senders = Arc::clone(&senders);
                let spec = Arc::clone(&spec);
                let inbox = Arc::clone(rx);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let comm = Comm::with_endpoint(rank, spec, Endpoint::Thread { senders, inbox });
                    f(comm)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => out[rank] = Some(v),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });
        out.into_iter().map(|v| v.unwrap()).collect()
    }

    /// Runs one closure per rank as coroutine-style continuations of the
    /// *calling* thread, scheduled by the discrete-event backend. Clocks,
    /// payloads, and panic propagation behave exactly as under
    /// [`run`](Self::run) — the matching discipline makes the simulated
    /// timeline schedule-independent — but ranks cost a small stack each
    /// instead of an OS thread, so one process can hold full-machine
    /// extents (~75k ranks).
    ///
    /// Additionally panics (instead of hanging) on communication deadlock,
    /// naming the blocked ranks. On targets without a fiber implementation
    /// this falls back to [`run`](Self::run).
    pub fn run_event<M, T, F>(&self, f: F) -> Vec<T>
    where
        M: Send + 'static,
        T: Send,
        F: Fn(Comm<M>) -> T + Sync,
    {
        crate::event::run_event(self, f)
    }
}

pub(crate) struct Envelope<M> {
    pub(crate) src: usize,
    /// Stream tag: a point-to-point `u32` tag widened, or a collective's
    /// generation-stamped tag from `Group::next_tag`.
    pub(crate) tag: u64,
    /// Position in the per-(src, dst, tag) message stream, assigned by the
    /// sender. Receives match on it so that out-of-order waits still pair
    /// the `i`-th posted receive with the `i`-th sent message (MPI's
    /// non-overtaking rule).
    pub(crate) seq: u64,
    pub(crate) arrive: f64,
    pub(crate) bytes: u64,
    pub(crate) msg: M,
}

/// Bookkeeping returned by a receive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecvInfo {
    /// Simulated seconds this rank idled waiting for the message (0 if it
    /// had already arrived) — the "communication wait time" of Fig. 10.
    pub waited: f64,
    /// Declared size of the received message.
    pub bytes: u64,
    /// Simulated arrival timestamp of the message.
    pub arrived_at: f64,
    /// Simulated seconds of the transfer's flight time covered by local
    /// work between post and wait (0 for blocking receives) — the honest
    /// measure of communication/computation overlap.
    pub hidden: f64,
}

/// The transport behind a [`Comm`]: crossbeam channels between rank
/// threads (functional backend) or a shared mailbox world driven by the
/// discrete-event scheduler (event backend). The clock model above this
/// seam is transport-agnostic, which is what keeps the two backends
/// bit-identical.
pub(crate) enum Endpoint<M> {
    /// Thread-per-rank transport.
    Thread {
        senders: Arc<Vec<Sender<Envelope<M>>>>,
        /// Shared with [`WorldSpec::run`], which keeps it open until every
        /// rank has returned; only this rank ever locks it.
        inbox: Arc<Mutex<Receiver<Envelope<M>>>>,
    },
    /// Fiber-per-rank transport: the sharded event world routes envelopes
    /// between shard workers and keeps a per-rank indexed mailbox.
    Event(Arc<EventWorld<M>>),
}

/// Next sequence number of each `(peer, tag)` stream in one direction.
///
/// Collective streams (tags carrying [`COLLECTIVE_TAG`]) are kept apart
/// from point-to-point ones: a collective tag is used by exactly one
/// operation, so its counters are deleted when that operation finishes
/// ([`Comm::retire`]) and the table holds only what is in flight.
/// Point-to-point counters live for the run, as MPI's do.
#[derive(Default)]
struct StreamSeqs {
    p2p: FxHashMap<(usize, u64), u64>,
    collective: FxHashMap<(usize, u64), u64>,
}

impl StreamSeqs {
    /// Returns the stream's next sequence number and advances it.
    fn next(&mut self, peer: usize, tag: u64) -> u64 {
        let map = if tag as u32 & COLLECTIVE_TAG != 0 {
            &mut self.collective
        } else {
            &mut self.p2p
        };
        let seq = map.entry((peer, tag)).or_insert(0);
        *seq += 1;
        *seq - 1
    }

    fn retire(&mut self, tag: u64) {
        self.collective.retain(|&(_, t), _| t != tag);
    }
}

/// One rank's endpoint: point-to-point messaging plus the simulated clock.
pub struct Comm<M> {
    rank: usize,
    spec: Arc<WorldSpec>,
    endpoint: Endpoint<M>,
    pending: Vec<Envelope<M>>,
    /// Next sequence number per outgoing `(dst, tag)` stream.
    send_seq: StreamSeqs,
    /// Next sequence number per posted-receive `(src, tag)` stream.
    recv_seq: StreamSeqs,
    clock: f64,
    /// Time the NIC finishes serializing the last posted (non-blocking)
    /// injection — back-to-back `isend`s queue here instead of magically
    /// parallelizing.
    nic_free: f64,
    wait_total: f64,
    hidden_total: f64,
    last_arrive: f64,
    bytes_sent: u64,
    default_sharers: u32,
}

impl<M: Send + 'static> Comm<M> {
    fn with_endpoint(rank: usize, spec: Arc<WorldSpec>, endpoint: Endpoint<M>) -> Self {
        Comm {
            rank,
            spec,
            endpoint,
            pending: Vec::new(),
            send_seq: StreamSeqs::default(),
            recv_seq: StreamSeqs::default(),
            clock: 0.0,
            nic_free: 0.0,
            wait_total: 0.0,
            hidden_total: 0.0,
            last_arrive: 0.0,
            bytes_sent: 0,
            default_sharers: 1,
        }
    }

    /// Builds the event-backend endpoint for `rank` (called from the
    /// scheduler's per-rank fiber).
    pub(crate) fn event(rank: usize, spec: Arc<WorldSpec>, world: Arc<EventWorld<M>>) -> Self {
        Comm::with_endpoint(rank, spec, Endpoint::Event(world))
    }

    /// Stamps the next stream sequence number and hands the envelope to
    /// the transport.
    fn post(&mut self, dst: usize, tag: u64, arrive: f64, bytes: u64, msg: M) {
        let env = Envelope {
            src: self.rank,
            tag,
            seq: self.send_seq.next(dst, tag),
            arrive,
            bytes,
            msg,
        };
        match &self.endpoint {
            Endpoint::Thread { senders, .. } => {
                senders[dst].send(env).expect("inboxes outlive every rank")
            }
            Endpoint::Event(world) => world.deliver(dst, env),
        }
    }

    /// Removes and returns the `(src, tag, seq)` envelope, blocking (on
    /// the transport's terms) until it has been sent. The event world
    /// keeps its own per-rank (src, tag)-indexed mailbox, so only the
    /// thread transport goes through the flat pending buffer.
    fn obtain(&mut self, src: usize, tag: u64, seq: u64) -> Envelope<M> {
        let matches = |e: &Envelope<M>| e.src == src && e.tag == tag && e.seq == seq;
        let rank = self.rank;
        let Comm {
            endpoint, pending, ..
        } = self;
        match endpoint {
            Endpoint::Thread { inbox, .. } => {
                if let Some(pos) = pending.iter().position(matches) {
                    return pending.remove(pos);
                }
                let inbox = inbox.lock().expect("only this rank locks its inbox");
                loop {
                    let env = inbox.recv().expect("world torn down mid-recv");
                    if matches(&env) {
                        return env;
                    }
                    pending.push(env);
                }
            }
            Endpoint::Event(world) => world.obtain(rank, src, tag, seq),
        }
    }

    /// Moves every envelope the thread transport has already produced into
    /// the local pending buffer, without blocking. A no-op on the event
    /// transport, whose mailboxes are queried in place.
    fn drain_available(&mut self) {
        let Comm {
            endpoint, pending, ..
        } = self;
        if let Endpoint::Thread { inbox, .. } = endpoint {
            let inbox = inbox.lock().expect("only this rank locks its inbox");
            while let Ok(env) = inbox.try_recv() {
                pending.push(env);
            }
        }
    }

    /// Deletes the sequence counters of a finished collective's stream
    /// tag, in both directions. Sound because a collective tag is never
    /// reused within a run (`Group::next_tag` stamps the wrap generation
    /// into its high word) and this rank has posted every send and receive
    /// it will ever make on `tag`.
    pub(crate) fn retire(&mut self, tag: u64) {
        self.send_seq.retire(tag);
        self.recv_seq.retire(tag);
    }

    /// Collective-stream counters currently held (both directions): the
    /// streams of collectives this rank has started but not finished.
    #[cfg(test)]
    pub(crate) fn live_collective_streams(&self) -> usize {
        self.send_seq.collective.len() + self.recv_seq.collective.len()
    }
    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.spec.ranks()
    }

    /// Physical location of a rank.
    #[inline]
    pub fn loc_of(&self, rank: usize) -> GcdLoc {
        self.spec.locs[rank]
    }

    /// The job description this rank runs under.
    #[inline]
    pub fn spec(&self) -> &WorldSpec {
        &self.spec
    }

    /// Current simulated time on this rank.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Accumulated receive-wait time (Fig. 10's "wait" series).
    #[inline]
    pub fn wait_total(&self) -> f64 {
        self.wait_total
    }

    /// Re-seats the accumulated wait counter to a checkpointed value.
    /// Per-op waits are extracted as `wait_total() - w0` deltas, and
    /// floating-point subtraction is not associative — a resumed rank must
    /// accumulate onto the same bit pattern as the run that drained the
    /// snapshot, or its deltas drift by ULPs from the uninterrupted run.
    #[inline]
    pub fn restore_wait_total(&mut self, w: f64) {
        self.wait_total = w;
    }

    /// Accumulated overlap-hidden time: transfer flight time covered by
    /// local work between a request's post and its wait (§IV-B look-ahead
    /// earns its keep here).
    #[inline]
    pub fn hidden_total(&self) -> f64 {
        self.hidden_total
    }

    /// Arrival timestamp of the most recently accepted message (0.0 before
    /// any receive). Split-phase collectives use this to bound how much of
    /// a deferred transfer was really in flight.
    #[inline]
    pub fn last_arrive(&self) -> f64 {
        self.last_arrive
    }

    /// Total bytes this rank has injected.
    #[inline]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Sets the NIC-sharers hint used by plain [`send`](Self::send) — the
    /// `Q_r`/`Q_c` concurrency factor of Eq. 5 for the current phase.
    pub fn set_default_sharers(&mut self, sharers: u32) {
        self.default_sharers = sharers.max(1);
    }

    /// Advances this rank's clock by `dt` simulated seconds of local work
    /// (GPU kernels, packing, …).
    pub fn charge(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative charge {dt}");
        self.clock += dt;
    }

    /// Sends `msg` (declared size `bytes`) to `dst` with an explicit
    /// sharers hint. Non-blocking in real time; in simulated time the
    /// sender is busy for the software overhead plus injection
    /// serialization.
    pub fn send_with(&mut self, dst: usize, tag: u32, msg: M, bytes: u64, sharers: u32) {
        self.send_stream_with(dst, tag.into(), msg, bytes, sharers);
    }

    /// [`send_with`](Self::send_with) on a 64-bit stream tag.
    fn send_stream_with(&mut self, dst: usize, tag: u64, msg: M, bytes: u64, sharers: u32) {
        let cost = self
            .spec
            .net
            .p2p(self.spec.locs[self.rank], self.spec.locs[dst], sharers);
        let (extra_lat, bw_div) = fault_effect(&self.spec.faults, self.rank, dst, self.clock);
        self.clock += self.spec.send_overhead + bytes as f64 * cost.sec_per_byte * bw_div;
        self.nic_free = self.nic_free.max(self.clock);
        self.bytes_sent += bytes;
        let arrive = self.clock + cost.latency + extra_lat;
        self.post(dst, tag, arrive, bytes, msg);
    }

    /// Sends with the communicator's default sharers hint.
    pub fn send(&mut self, dst: usize, tag: u32, msg: M, bytes: u64) {
        self.send_with(dst, tag, msg, bytes, self.default_sharers);
    }

    /// [`send`](Self::send) on a collective's 64-bit stream tag.
    pub(crate) fn send_stream(&mut self, dst: usize, tag: u64, msg: M, bytes: u64) {
        self.send_stream_with(dst, tag, msg, bytes, self.default_sharers);
    }

    /// Posts a non-blocking send with an explicit sharers hint. The CPU is
    /// busy only for the software overhead; the NIC serializes the payload
    /// asynchronously starting when it is free (injections queue), and the
    /// request completes locally when serialization finishes.
    pub fn isend_with(
        &mut self,
        dst: usize,
        tag: u32,
        msg: M,
        bytes: u64,
        sharers: u32,
    ) -> SendRequest {
        let cost = self
            .spec
            .net
            .p2p(self.spec.locs[self.rank], self.spec.locs[dst], sharers);
        let (extra_lat, bw_div) = fault_effect(&self.spec.faults, self.rank, dst, self.clock);
        let posted_at = self.clock;
        self.clock += self.spec.send_overhead;
        let start = self.clock.max(self.nic_free);
        self.nic_free = start + bytes as f64 * cost.sec_per_byte * bw_div;
        self.bytes_sent += bytes;
        let arrive = self.nic_free + cost.latency + extra_lat;
        self.post(dst, tag.into(), arrive, bytes, msg);
        SendRequest {
            posted_at,
            complete_at: self.nic_free,
        }
    }

    /// Posts a non-blocking send with the default sharers hint.
    pub fn isend(&mut self, dst: usize, tag: u32, msg: M, bytes: u64) -> SendRequest {
        self.isend_with(dst, tag, msg, bytes, self.default_sharers)
    }

    /// `true` once a posted send has completed locally (NIC done) by the
    /// current simulated time. Never advances the clock.
    pub fn test_send(&self, req: &SendRequest) -> bool {
        req.complete_at <= self.clock
    }

    /// Completes a posted send: idles until the NIC has finished
    /// serializing (no-op if local work already covered it, in which case
    /// the injection time counts as hidden).
    pub fn wait_send(&mut self, req: SendRequest) {
        let injection = (req.complete_at - req.posted_at).max(0.0);
        let hidden = (self.clock - req.posted_at).clamp(0.0, injection);
        self.hidden_total += hidden;
        let waited = (req.complete_at - self.clock).max(0.0);
        self.wait_total += waited;
        self.clock = self.clock.max(req.complete_at);
    }

    /// Completes every posted send in order.
    pub fn waitall_send(&mut self, reqs: Vec<SendRequest>) {
        for req in reqs {
            self.wait_send(req);
        }
    }

    /// Posts a non-blocking receive for `(src, tag)`. Free at post time;
    /// completion is charged by [`wait_recv`](Self::wait_recv) at
    /// `max(post_time, arrival_time)`.
    ///
    /// Requests posted for the same `(src, tag)` match the sender's
    /// message stream *in post order*, regardless of the order their waits
    /// later run in — the `i`-th post always pairs with the `i`-th send,
    /// so out-of-order waits cannot steal an earlier message or produce
    /// non-FIFO completion clocks.
    pub fn irecv(&mut self, src: usize, tag: u32) -> RecvRequest {
        self.irecv_stream(src, tag.into())
    }

    /// [`irecv`](Self::irecv) on a 64-bit stream tag.
    fn irecv_stream(&mut self, src: usize, tag: u64) -> RecvRequest {
        RecvRequest {
            src,
            tag,
            seq: self.recv_seq.next(src, tag),
            posted_at: self.clock,
        }
    }

    /// `true` once the message matching the posted receive has arrived by
    /// the current simulated time. Never advances the clock or consumes
    /// the message. Advisory: a `false` can race a sender thread that has
    /// not executed yet in real time — deterministic control flow must
    /// come from `wait_recv`, not from polling.
    pub fn test_recv(&mut self, req: &RecvRequest) -> bool {
        if let Endpoint::Event(world) = &self.endpoint {
            return world
                .peek_arrive(self.rank, req.src, req.tag, req.seq)
                .is_some_and(|arrive| arrive <= self.clock);
        }
        self.drain_available();
        self.pending.iter().any(|e| {
            e.src == req.src && e.tag == req.tag && e.seq == req.seq && e.arrive <= self.clock
        })
    }

    /// Completes a posted receive: blocks (in simulated time, only until
    /// the arrival timestamp) for its stream-matched message. The flight
    /// time covered by local work since the post is reported as
    /// [`RecvInfo::hidden`].
    pub fn wait_recv(&mut self, req: RecvRequest) -> (M, RecvInfo) {
        let env = self.obtain(req.src, req.tag, req.seq);
        let info = self.accept_posted(env.arrive, env.bytes, req.posted_at);
        (env.msg, info)
    }

    /// Completes every posted receive, in post order, returning the
    /// payloads and infos in the same order.
    pub fn waitall_recv(&mut self, reqs: Vec<RecvRequest>) -> Vec<(M, RecvInfo)> {
        reqs.into_iter().map(|r| self.wait_recv(r)).collect()
    }

    /// Low-level send with explicitly modeled costs: the sender is busy for
    /// exactly `busy` seconds and the message arrives `extra_delay` seconds
    /// after the path latency. Used by the collectives module to model
    /// vendor black-box algorithms (e.g. Spectrum MPI's pipelined
    /// broadcast) whose internal schedule we don't reproduce hop by hop.
    pub(crate) fn send_modeled(
        &mut self,
        dst: usize,
        tag: u64,
        msg: M,
        bytes: u64,
        busy: f64,
        extra_delay: f64,
    ) {
        let cost = self.spec.net.p2p(
            self.spec.locs[self.rank],
            self.spec.locs[dst],
            self.default_sharers,
        );
        let (extra_lat, bw_div) = fault_effect(&self.spec.faults, self.rank, dst, self.clock);
        // A modeled (black-box collective) send still pays link faults:
        // its busy time scales with the bandwidth derating and its
        // delivery with the latency spike.
        self.clock += busy * bw_div;
        self.nic_free = self.nic_free.max(self.clock);
        self.bytes_sent += bytes;
        let arrive = self.clock + cost.latency + extra_delay + extra_lat;
        self.post(dst, tag, arrive, bytes, msg);
    }

    /// Receives the next message from `src` with tag `tag`, blocking until
    /// it is available. Messages from the same source with the same tag are
    /// delivered in send order. Equivalent to an immediately-waited
    /// [`irecv`](Self::irecv) (the post-and-wait collapse leaves no window
    /// for overlap, so `hidden` is always 0).
    pub fn recv(&mut self, src: usize, tag: u32) -> (M, RecvInfo) {
        self.recv_stream(src, tag.into())
    }

    /// [`recv`](Self::recv) on a collective's 64-bit stream tag.
    pub(crate) fn recv_stream(&mut self, src: usize, tag: u64) -> (M, RecvInfo) {
        let req = self.irecv_stream(src, tag);
        self.wait_recv(req)
    }

    fn accept(&mut self, arrive: f64, bytes: u64) -> RecvInfo {
        let waited = (arrive - self.clock).max(0.0);
        self.wait_total += waited;
        self.clock = arrive.max(self.clock) + self.spec.recv_overhead;
        self.last_arrive = arrive;
        RecvInfo {
            waited,
            bytes,
            arrived_at: arrive,
            hidden: 0.0,
        }
    }

    /// Credits `hidden` overlap seconds accounted outside the
    /// point-to-point paths (split-phase collectives compute their own
    /// overlap from post/join timestamps).
    pub(crate) fn credit_hidden(&mut self, hidden: f64) {
        debug_assert!(hidden >= 0.0, "negative hidden credit {hidden}");
        self.hidden_total += hidden;
    }

    /// [`accept`](Self::accept) for a posted receive: additionally credits
    /// the flight time covered by local work since `posted_at` — the
    /// overlap a blocking receive at the post site would have spent idle.
    fn accept_posted(&mut self, arrive: f64, bytes: u64, posted_at: f64) -> RecvInfo {
        let hidden = (self.clock.min(arrive) - posted_at).max(0.0);
        let mut info = self.accept(arrive, bytes);
        info.hidden = hidden;
        self.hidden_total += hidden;
        info
    }
}

// `recv` above returns `(M, RecvInfo)` from the pending path but
// `(RecvInfo, M)` would be inconsistent; keep one order. (See unit test
// `recv_return_order`.)

#[cfg(test)]
mod tests {
    use super::*;
    use mxp_netsim::frontier_network;

    fn spec(nodes: usize, q: usize) -> WorldSpec {
        WorldSpec::cluster(nodes, q, frontier_network())
    }

    #[test]
    fn two_ranks_pingpong() {
        let w = spec(2, 1);
        let clocks = w.run::<u64, _, _>(|mut c| {
            if c.rank() == 0 {
                c.send(1, 7, 42, 1024);
                let (v, _) = c.recv(1, 8);
                assert_eq!(v, 43);
            } else {
                let (v, info) = c.recv(0, 7);
                assert_eq!(v, 42);
                assert!(info.waited > 0.0);
                c.send(0, 8, v + 1, 1024);
            }
            c.now()
        });
        // Both clocks advanced and rank 0 (which waited for the reply) ends
        // latest or equal.
        assert!(clocks[0] > 0.0 && clocks[1] > 0.0);
        assert!(clocks[0] >= clocks[1] * 0.5);
    }

    #[test]
    fn clocks_are_deterministic() {
        let w = spec(4, 2);
        let job = |mut c: Comm<Vec<f64>>| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.charge(1e-3 * c.rank() as f64);
            c.send(next, 1, vec![c.rank() as f64], 1 << 20);
            let (_, _) = c.recv(prev, 1);
            c.now()
        };
        let a = w.run(job);
        let b = w.run(job);
        assert_eq!(a, b);
    }

    #[test]
    fn tag_and_source_matching() {
        let w = spec(3, 1);
        w.run::<(u32, u32), _, _>(|mut c| {
            match c.rank() {
                0 => {
                    // Send two messages with different tags, out of the
                    // order the receiver will consume them.
                    c.send(2, 10, (0, 10), 64);
                    c.send(2, 11, (0, 11), 64);
                }
                1 => {
                    c.send(2, 10, (1, 10), 64);
                }
                2 => {
                    // Consume in an order that exercises the pending buffer.
                    let (m, _) = c.recv(1, 10);
                    assert_eq!(m, (1, 10));
                    let (m, _) = c.recv(0, 11);
                    assert_eq!(m, (0, 11));
                    let (m, _) = c.recv(0, 10);
                    assert_eq!(m, (0, 10));
                }
                _ => unreachable!(),
            }
        });
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let w = spec(2, 1);
        w.run::<u32, _, _>(|mut c| {
            if c.rank() == 0 {
                for i in 0..16 {
                    c.send(1, 5, i, 8);
                }
            } else {
                for i in 0..16 {
                    let (v, _) = c.recv(0, 5);
                    assert_eq!(v, i);
                }
            }
        });
    }

    #[test]
    fn compute_overlaps_communication() {
        // If the receiver computes first, the message is already there and
        // wait is ~0; if it receives immediately it pays the wait. Overlap
        // emerges from the clock model.
        let w = spec(2, 1);
        let waits = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.send(1, 1, (), 64 << 20);
                c.send(1, 2, (), 64 << 20);
                0.0
            } else {
                let (_, eager) = c.recv(0, 1);
                // Now "compute" long enough for message 2 to arrive.
                c.charge(1.0);
                let (_, lazy) = c.recv(0, 2);
                assert!(eager.waited > 0.0);
                assert_eq!(lazy.waited, 0.0);
                eager.waited
            }
        });
        assert!(waits[1] > 0.0);
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let w = spec(2, 2); // ranks 0,1 on node 0; rank 2,3 on node 1
        let clocks = w.run::<(), _, _>(|mut c| {
            match c.rank() {
                0 => {
                    c.send(1, 1, (), 32 << 20);
                    c.send(2, 2, (), 32 << 20);
                }
                1 => {
                    c.recv(0, 1);
                }
                2 => {
                    c.recv(0, 2);
                }
                _ => {}
            }
            c.now()
        });
        assert!(
            clocks[1] < clocks[2],
            "intra-node {} should beat inter-node {}",
            clocks[1],
            clocks[2]
        );
    }

    #[test]
    fn sharers_hint_slows_injection() {
        // Direct comparison on a 2-node world.
        let w = spec(2, 8);
        let t1 = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.send_with(8, 1, (), 100 << 20, 4);
            } else if c.rank() == 8 {
                c.recv(0, 1);
            }
            c.now()
        });
        let t8 = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.send_with(8, 1, (), 100 << 20, 8);
            } else if c.rank() == 8 {
                c.recv(0, 1);
            }
            c.now()
        });
        assert!(t8[8] > 1.5 * t1[8], "8 sharers {} vs 4 {}", t8[8], t1[8]);
    }

    #[test]
    fn wait_total_accumulates() {
        let w = spec(2, 1);
        let waits = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.charge(0.5);
                c.send(1, 1, (), 1024);
            } else {
                c.recv(0, 1);
            }
            c.wait_total()
        });
        assert_eq!(waits[0], 0.0);
        assert!(waits[1] >= 0.5, "receiver waited {}", waits[1]);
    }

    #[test]
    fn bytes_sent_tracked() {
        let w = spec(2, 1);
        let sent = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.send(1, 1, (), 100);
                c.send(1, 2, (), 200);
            } else {
                c.recv(0, 1);
                c.recv(0, 2);
            }
            c.bytes_sent()
        });
        assert_eq!(sent, vec![300, 0]);
    }

    #[test]
    fn link_latency_fault_delays_delivery() {
        use crate::fault::{LinkFault, LinkScope};
        let healthy = spec(2, 1);
        let mut broken = spec(2, 1);
        broken
            .faults
            .push(LinkFault::latency(LinkScope::Pair { src: 0, dst: 1 }, 0.25));
        let job = |mut c: Comm<()>| {
            if c.rank() == 0 {
                c.send(1, 1, (), 1024);
            } else {
                c.recv(0, 1);
            }
            c.now()
        };
        let base = healthy.run(job);
        let hurt = broken.run(job);
        // Sender cost unchanged; receiver pays the injected latency.
        assert_eq!(base[0], hurt[0]);
        assert!(
            hurt[1] >= base[1] + 0.25,
            "faulty {} vs healthy {}",
            hurt[1],
            base[1]
        );
    }

    #[test]
    fn bandwidth_collapse_slows_serialization() {
        use crate::fault::{LinkFault, LinkScope};
        let healthy = spec(2, 1);
        let mut broken = spec(2, 1);
        broken
            .faults
            .push(LinkFault::bandwidth_collapse(LinkScope::From(0), 10.0));
        let job = |mut c: Comm<()>| {
            if c.rank() == 0 {
                c.send(1, 1, (), 64 << 20);
            }
            c.now()
        };
        let base = healthy.run(job);
        let hurt = broken.run(job);
        assert!(
            hurt[0] > 5.0 * base[0],
            "collapsed {} vs nominal {}",
            hurt[0],
            base[0]
        );
    }

    #[test]
    fn unmatched_scope_changes_nothing() {
        use crate::fault::{LinkFault, LinkScope};
        let healthy = spec(2, 1);
        let mut other = spec(2, 1);
        // Fault on traffic *to rank 0* — the 0→1 send is unaffected.
        other.faults.push(LinkFault::latency(LinkScope::To(0), 1.0));
        let job = |mut c: Comm<()>| {
            if c.rank() == 0 {
                c.send(1, 1, (), 1 << 20);
            } else {
                c.recv(0, 1);
            }
            c.now()
        };
        assert_eq!(healthy.run(job), other.run(job));
    }

    #[test]
    fn fault_onset_spares_early_messages() {
        use crate::fault::{LinkFault, LinkScope};
        let mut w = spec(2, 1);
        w.faults
            .push(LinkFault::latency(LinkScope::All, 0.5).starting_at(1.0));
        w.run::<u32, _, _>(|mut c| {
            if c.rank() == 0 {
                c.send(1, 1, 0, 1024); // sent at t≈0: clean
                c.charge(2.0);
                c.send(1, 2, 0, 1024); // sent at t≈2: faulted
            } else {
                let (_, early) = c.recv(0, 1);
                let (_, late) = c.recv(0, 2);
                // First message predates the onset: only path latency.
                assert!(early.arrived_at < 0.1, "early at {}", early.arrived_at);
                // Second was sent after onset: pays the extra 0.5 s.
                assert!(late.arrived_at >= 2.5, "late at {}", late.arrived_at);
            }
        });
    }

    #[test]
    fn event_backend_matches_thread_backend_clocks() {
        // The same job on both backends must produce bit-identical clocks
        // and counters: the event scheduler only changes who runs when,
        // never what the simulated timeline looks like.
        let w = spec(4, 2);
        let job = |mut c: Comm<Vec<f64>>| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.charge(1e-3 * c.rank() as f64);
            let req = c.isend(next, 1, vec![c.rank() as f64], 1 << 20);
            let (v, info) = c.recv(prev, 1);
            c.wait_send(req);
            (v, info.waited, c.now().to_bits(), c.wait_total().to_bits())
        };
        let threads = w.run(job);
        let events = w.run_event(job);
        assert_eq!(threads, events);
    }

    #[test]
    fn event_backend_runs_out_of_order_waits() {
        let w = spec(2, 1);
        let logs = w.run_event::<u32, _, _>(|mut c| {
            if c.rank() == 0 {
                for i in 0..4 {
                    c.charge(0.01);
                    c.send(1, 9, i, 1 << 16);
                }
                Vec::new()
            } else {
                let reqs: Vec<_> = (0..4).map(|_| c.irecv(0, 9)).collect();
                // Wait in reverse post order: stream matching must still
                // pair request i with message i.
                let mut got = vec![(0u32, 0.0f64); 4];
                for (i, req) in reqs.into_iter().enumerate().rev() {
                    let (v, info) = c.wait_recv(req);
                    got[i] = (v, info.arrived_at);
                }
                got
            }
        });
        let arrivals: Vec<f64> = logs[1].iter().map(|&(_, a)| a).collect();
        for (i, &(v, _)) in logs[1].iter().enumerate() {
            assert_eq!(v, i as u32, "request {i} stole message {v}");
        }
        // FIFO clocks: per-(src, tag) arrivals are monotone in post order.
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1], "arrivals regressed: {arrivals:?}");
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn event_backend_diagnoses_deadlock() {
        // Both ranks wait for a message nobody sends: the thread backend
        // would hang here; the event backend must name the blocked ranks.
        let w = spec(2, 1);
        w.run_event::<(), _, _>(|mut c| {
            let peer = 1 - c.rank();
            c.recv(peer, 77);
        });
    }

    #[test]
    #[should_panic(expected = "rank died")]
    fn event_backend_propagates_rank_panics() {
        let w = spec(2, 1);
        w.run_event::<(), _, _>(|c| {
            if c.rank() == 1 {
                panic!("rank died");
            }
        });
    }

    #[test]
    fn event_backend_scales_past_thread_limits() {
        // A ring at a rank count that is uncomfortable thread-per-rank but
        // trivial for fibers; clocks must still be deterministic.
        let w = spec(2048, 8);
        let job = |mut c: Comm<()>| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, (), 4096);
            c.recv(prev, 1);
            c.now().to_bits()
        };
        let a = w.run_event(job);
        let b = w.run_event(job);
        assert_eq!(a.len(), 16384);
        assert_eq!(a, b);
    }

    /// Rank 1 returns, dropping its endpoint, before rank 0's eager send
    /// to it leaves. Legal MPI, so no host may fail it. The first message
    /// orders the ranks deterministically even when both share one event
    /// shard, where a spin-wait alone would never yield to rank 1.
    fn send_to_returned_rank(w: &WorldSpec, event: bool) -> Vec<u64> {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let returned = AtomicBool::new(false);
        let job = |mut c: Comm<()>| {
            if c.rank() == 1 {
                c.send(0, 1, (), 8);
                let clock = c.now().to_bits();
                drop(c);
                returned.store(true, SeqCst);
                return clock;
            }
            c.recv(1, 1);
            while !returned.load(SeqCst) {
                std::thread::yield_now();
            }
            c.send(1, 2, (), 1 << 20);
            c.now().to_bits()
        };
        if event {
            w.run_event(job)
        } else {
            w.run(job)
        }
    }

    #[test]
    fn eager_send_to_a_returned_rank_completes_on_every_host() {
        let mut w = spec(2, 1);
        let threads = send_to_returned_rank(&w, false);
        // One shard hosts both ranks; two put them on different workers.
        for shards in [1, 2] {
            w.event_shards = shards;
            assert_eq!(
                send_to_returned_rank(&w, true),
                threads,
                "event host, {shards} shard(s)"
            );
        }
    }

    #[test]
    fn recv_return_order() {
        // Both recv paths (pending-buffer hit and direct) must return the
        // message first, info second.
        let w = spec(2, 1);
        w.run::<u8, _, _>(|mut c| {
            if c.rank() == 0 {
                c.send(1, 2, 2, 8);
                c.send(1, 1, 1, 8);
            } else {
                let (m1, i1): (u8, RecvInfo) = c.recv(0, 1); // forces buffering of tag 2
                let (m2, i2): (u8, RecvInfo) = c.recv(0, 2); // pending path
                assert_eq!((m1, m2), (1, 2));
                assert!(i1.bytes == 8 && i2.bytes == 8);
            }
        });
    }
}
