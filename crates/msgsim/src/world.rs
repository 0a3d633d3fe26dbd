//! Rank spawning, point-to-point messaging, and simulated clocks.
//!
//! Every envelope carries `(src, tag, seq)`, and a receive takes exactly
//! the envelope it names, whatever order the transport delivered them in.
//! Point-to-point [`Comm::send`] / [`Comm::recv`] number each `(peer, tag)`
//! stream with a per-direction counter (`StreamSeqs`) that lives for the
//! run. Collectives keep no counters: a collective's tag is used by no
//! other operation, so the algorithm passes each message's position on its
//! stream itself (`Comm::send_stream`, `Comm::recv_stream`).

use crossbeam::channel::{unbounded, Receiver, Sender};
use mxp_netsim::{GcdLoc, NetworkConfig};
use std::sync::{Arc, Mutex};

use crate::collectives::CollectiveTuning;
use crate::event::EventWorld;
use crate::fault::{fault_effect, LinkFault};
use crate::hash::FxHashMap;

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
    /// sender. Receives match on it, so the `i`-th receive of a stream
    /// gets its `i`-th message whatever order the transport delivers
    /// envelopes in (MPI's non-overtaking rule).
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

/// Next sequence number of each point-to-point `(peer, tag)` stream in
/// one direction. These live for the run, as MPI's do. Collectives keep no
/// counters here: each numbers its own messages (`Group` tags are never
/// reused, and an algorithm knows the position of every message it sends
/// on one), so finishing one leaves nothing behind.
#[derive(Default)]
struct StreamSeqs(FxHashMap<(usize, u32), u64>);

impl StreamSeqs {
    /// Returns the stream's next sequence number and advances it.
    fn next(&mut self, peer: usize, tag: u32) -> u64 {
        let seq = self.0.entry((peer, tag)).or_insert(0);
        *seq += 1;
        *seq - 1
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
    /// Next sequence number per incoming `(src, tag)` stream.
    recv_seq: StreamSeqs,
    clock: f64,
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

    /// Hands the `seq`-th envelope of the `(self, dst, tag)` stream to the
    /// transport.
    fn post(&mut self, dst: usize, tag: u64, seq: u64, arrive: f64, bytes: u64, msg: M) {
        let env = Envelope {
            src: self.rank,
            tag,
            seq,
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
    /// keeps its own per-rank mailbox, so only the thread transport goes
    /// through the flat pending buffer.
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

    /// Point-to-point stream counters held (both directions).
    #[cfg(test)]
    pub(crate) fn stream_counters(&self) -> usize {
        self.send_seq.0.len() + self.recv_seq.0.len()
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
    pub(crate) fn loc_of(&self, rank: usize) -> GcdLoc {
        self.spec.locs[rank]
    }

    /// The job description this rank runs under.
    #[inline]
    pub(crate) fn spec(&self) -> &WorldSpec {
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
    /// local work between a split-phase broadcast's post and its join
    /// (§IV-B look-ahead earns its keep here).
    #[inline]
    pub fn hidden_total(&self) -> f64 {
        self.hidden_total
    }

    /// Arrival timestamp of the most recently accepted message (0.0 before
    /// any receive). Split-phase collectives use this to bound how much of
    /// a deferred transfer was really in flight.
    #[inline]
    pub(crate) fn last_arrive(&self) -> f64 {
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

    /// Sends `msg` (declared size `bytes`) to `dst` with the
    /// communicator's sharers hint. Non-blocking in real time; in simulated
    /// time the sender is busy for the software overhead plus injection
    /// serialization.
    pub fn send(&mut self, dst: usize, tag: u32, msg: M, bytes: u64) {
        let seq = self.send_seq.next(dst, tag);
        self.send_stream(dst, tag.into(), seq, msg, bytes);
    }

    /// [`send`](Self::send) of the `seq`-th message of a collective's
    /// `(self, dst, tag)` stream; the collective numbers its own messages.
    pub(crate) fn send_stream(&mut self, dst: usize, tag: u64, seq: u64, msg: M, bytes: u64) {
        let cost = self.spec.net.p2p(
            self.spec.locs[self.rank],
            self.spec.locs[dst],
            self.default_sharers,
        );
        let (extra_lat, bw_div) = fault_effect(&self.spec.faults, self.rank, dst, self.clock);
        self.clock += self.spec.send_overhead + bytes as f64 * cost.sec_per_byte * bw_div;
        self.bytes_sent += bytes;
        let arrive = self.clock + cost.latency + extra_lat;
        self.post(dst, tag, seq, arrive, bytes, msg);
    }

    /// Low-level send with explicitly modeled costs: the sender is busy for
    /// exactly `busy` seconds and the message arrives `extra_delay` seconds
    /// after the path latency. Used by the collectives module to model
    /// vendor black-box algorithms (e.g. Spectrum MPI's pipelined
    /// broadcast) whose internal schedule we don't reproduce hop by hop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_modeled(
        &mut self,
        dst: usize,
        tag: u64,
        seq: u64,
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
        self.bytes_sent += bytes;
        let arrive = self.clock + cost.latency + extra_delay + extra_lat;
        self.post(dst, tag, seq, arrive, bytes, msg);
    }

    /// Receives the next message from `src` with tag `tag`, blocking until
    /// it is available. Messages from the same source with the same tag are
    /// delivered in send order.
    pub fn recv(&mut self, src: usize, tag: u32) -> (M, RecvInfo) {
        let seq = self.recv_seq.next(src, tag);
        self.recv_stream(src, tag.into(), seq)
    }

    /// [`recv`](Self::recv) of the `seq`-th message of a collective's
    /// `(src, self, tag)` stream.
    pub(crate) fn recv_stream(&mut self, src: usize, tag: u64, seq: u64) -> (M, RecvInfo) {
        let env = self.obtain(src, tag, seq);
        let info = self.accept(env.arrive, env.bytes);
        (env.msg, info)
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
        }
    }

    /// Credits `hidden` overlap seconds accounted outside the
    /// point-to-point paths (split-phase collectives compute their own
    /// overlap from post/join timestamps).
    pub(crate) fn credit_hidden(&mut self, hidden: f64) {
        debug_assert!(hidden >= 0.0, "negative hidden credit {hidden}");
        self.hidden_total += hidden;
    }
}

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
    fn point_to_point_counters_persist() {
        // Each `(peer, tag)` stream counts from 0 and keeps counting for
        // the run, whatever other streams do in between.
        let mut s = StreamSeqs::default();
        for peer in 0..4 {
            assert_eq!(s.next(peer, 7), 0);
        }
        for peer in 0..64 {
            assert_eq!(s.next(peer, 9), 0);
            assert_eq!(s.next(peer, 9), 1);
        }
        for peer in 0..4 {
            assert_eq!(s.next(peer, 7), 1, "p2p counter of peer {peer} lost");
        }
        assert_eq!(s.0.len(), 4 + 64);
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
                c.set_default_sharers(4);
                c.send(8, 1, (), 100 << 20);
            } else if c.rank() == 8 {
                c.recv(0, 1);
            }
            c.now()
        });
        let t8 = w.run::<(), _, _>(|mut c| {
            if c.rank() == 0 {
                c.set_default_sharers(8);
                c.send(8, 1, (), 100 << 20);
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
            c.send(next, 1, vec![c.rank() as f64], 1 << 20);
            let (v, info) = c.recv(prev, 1);
            (v, info.waited, c.now().to_bits(), c.wait_total().to_bits())
        };
        let threads = w.run(job);
        let events = w.run_event(job);
        assert_eq!(threads, events);
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
