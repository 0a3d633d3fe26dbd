//! Collective operations: the paper's §IV-B "Communicator Choice" family.
//!
//! Two kinds of implementation coexist, mirroring how the paper's code sees
//! the world:
//!
//! * **Vendor black boxes** — `MPI_Bcast`/`MPI_Ibcast` as shipped by
//!   Spectrum MPI (Summit) and Cray MPICH (Frontier). We model these with a
//!   closed-form cost per call ([`LibQuality`]): Summit's broadcast is
//!   deeply pipelined and near bandwidth-optimal on its fat tree, while
//!   early Frontier MPICH falls back to a plain binomial tree for large
//!   device buffers — which is exactly why the paper's hand-written rings
//!   win 20–34% there and lose 2–12% on Summit.
//! * **Hand-written rings** (`Ring1`, `Ring1M`, `Ring2M`) — built from
//!   point-to-point sends exactly as the paper describes ("built with MPI
//!   point-to-point send and receives"); their pipelining behaviour
//!   *emerges* from the LogP clocks.
//!
//! [`bcast_cost`] exposes closed-form completion estimates for every
//! algorithm; the critical-path driver in `hplai-core` uses them at scales
//! where thread-per-rank simulation is impractical, and an integration test
//! pins them against the emergent implementations at small scale.

use crate::group::Group;
use crate::world::Comm;
use mxp_netsim::P2pCost;

/// How the vendor `MPI_Bcast` behaves on this machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibQuality {
    /// Mature, fat-tree-tuned pipelined broadcast (Summit / Spectrum MPI).
    Pipelined,
    /// Plain binomial tree per call (early Frontier / Cray MPICH on GPU
    /// buffers).
    Binomial,
}

/// Broadcast algorithm selection (§IV-B, Fig. 8 x-axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// The vendor library `MPI_Bcast` (behaviour set by
    /// [`CollectiveTuning::lib_quality`]).
    Lib,
    /// The vendor non-blocking `MPI_Ibcast` issued and immediately waited
    /// (when used through the blocking [`Group::bcast`] entry point).
    IBcast,
    /// Single pipelined ring of point-to-point sends.
    Ring1,
    /// Modified ring: the root feeds two half-chains, halving depth at the
    /// cost of doubling root injection.
    Ring1M,
    /// Modified double ring: the message is split in half and pipelined in
    /// both directions around the ring (the paper's best on Frontier).
    Ring2M,
}

impl BcastAlgo {
    /// All variants, in the order Fig. 8 lists them.
    pub const ALL: [BcastAlgo; 5] = [
        BcastAlgo::Lib,
        BcastAlgo::IBcast,
        BcastAlgo::Ring1,
        BcastAlgo::Ring1M,
        BcastAlgo::Ring2M,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            BcastAlgo::Lib => "Bcast",
            BcastAlgo::IBcast => "IBcast",
            BcastAlgo::Ring1 => "Ring1",
            BcastAlgo::Ring1M => "Ring1M",
            BcastAlgo::Ring2M => "Ring2M",
        }
    }
}

/// Vendor/tuning knobs for collectives.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveTuning {
    /// Pipeline chunk size for the ring algorithms, bytes.
    pub chunk_bytes: u64,
    /// Maximum number of pipeline chunks per broadcast (bounds message
    /// count in the emergent simulation).
    pub max_chunks: u32,
    /// Vendor `MPI_Bcast` behaviour.
    pub lib_quality: LibQuality,
    /// Whether `MPI_Ibcast` progresses asynchronously after the post
    /// (Frontier) or only inside the wait (Summit's Spectrum MPI, whose
    /// "asynchronous broadcast \[has\] extremely low performance").
    pub ibcast_async_progress: bool,
    /// Multiplier on `MPI_Ibcast` costs relative to the blocking broadcast
    /// (software-path penalty of the non-blocking machinery).
    pub ibcast_penalty: f64,
    /// Efficiency factor of the pipelined vendor broadcast (≥ 1.0,
    /// multiplies the pure serialization time).
    pub lib_pipeline_factor: f64,
}

impl Default for CollectiveTuning {
    fn default() -> Self {
        CollectiveTuning {
            chunk_bytes: 512 << 10,
            max_chunks: 256,
            lib_quality: LibQuality::Binomial,
            ibcast_async_progress: true,
            ibcast_penalty: 1.3,
            lib_pipeline_factor: 1.15,
        }
    }
}

impl CollectiveTuning {
    /// Summit / Spectrum MPI characteristics (§V-E): excellent blocking
    /// broadcast, unusable non-blocking broadcast.
    pub fn summit() -> Self {
        CollectiveTuning {
            chunk_bytes: 512 << 10,
            max_chunks: 256,
            lib_quality: LibQuality::Pipelined,
            ibcast_async_progress: false,
            ibcast_penalty: 3.0,
            lib_pipeline_factor: 1.15,
        }
    }

    /// Frontier / early Cray MPICH characteristics: binomial library
    /// broadcast on device buffers, working async progress.
    pub fn frontier() -> Self {
        CollectiveTuning {
            chunk_bytes: 512 << 10,
            max_chunks: 256,
            lib_quality: LibQuality::Binomial,
            ibcast_async_progress: true,
            ibcast_penalty: 1.3,
            lib_pipeline_factor: 1.15,
        }
    }

    fn chunks_for(&self, bytes: u64) -> u32 {
        if bytes == 0 {
            return 1;
        }
        (bytes.div_ceil(self.chunk_bytes) as u32).clamp(1, self.max_chunks)
    }
}

/// Split-phase broadcast handle returned by [`Group::ibcast_start`].
pub struct PendingBcast<M> {
    tag: u64,
    root_idx: usize,
    bytes: u64,
    /// Root's own copy (and deferred payload when progress is lazy).
    msg: Option<M>,
    sends_done: bool,
}

/// Completion bookkeeping of a split-phase broadcast (the collective
/// analogue of [`crate::RecvInfo`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BcastInfo {
    /// Simulated seconds idled inside the join.
    pub waited: f64,
    /// Transfer flight time covered by local work between post and join —
    /// the overlap the §IV-B look-ahead pipeline exists to create.
    pub hidden: f64,
}

/// Handle for a split-phase broadcast posted with [`Group::ibcast`]: the
/// root injects what it can at post time, receivers defer their part of
/// the algorithm to [`Group::ibcast_join`] so the transfer rides under
/// whatever local work happens in between.
pub struct BcastRequest<M> {
    algo: BcastAlgo,
    root_idx: usize,
    bytes: u64,
    tag: u64,
    tag2: u64,
    posted_at: f64,
    /// Payload already in hand at post time (root, single-member group).
    resolved: Option<M>,
    /// Root payload whose injection is deferred to the join (vendor
    /// `MPI_Ibcast` without asynchronous progress).
    deferred: Option<M>,
}

impl<M> BcastRequest<M> {
    /// Simulated time the broadcast was posted.
    pub fn posted_at(&self) -> f64 {
        self.posted_at
    }

    /// `true` if this rank already holds the payload (no join work left
    /// beyond bookkeeping).
    pub fn is_resolved(&self) -> bool {
        self.resolved.is_some()
    }
}

impl Group {
    /// Blocking broadcast from group member `root_idx`. The root passes
    /// `Some(msg)`; everyone receives the value. All members must call with
    /// the same `algo` and `bytes`. Equivalent to an [`Group::ibcast`]
    /// joined immediately.
    pub fn bcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        algo: BcastAlgo,
    ) -> M {
        let req = self.ibcast(comm, root_idx, msg, bytes, algo);
        self.ibcast_join(comm, req).0
    }

    /// Borrowed-buffer broadcast: the root's payload is taken out of `buf`
    /// and everyone's `buf` holds the broadcast value on return. Saves the
    /// caller the `Option` plumbing when the payload lives in a reusable
    /// slot.
    pub fn bcast_buf<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        buf: &mut M,
        bytes: u64,
        algo: BcastAlgo,
    ) {
        let msg = (self.my_idx() == root_idx).then(|| std::mem::take(buf));
        *buf = self.bcast(comm, root_idx, msg, bytes, algo);
    }

    /// Posts a split-phase broadcast. The root performs its part of the
    /// algorithm now (its panels leave via DMA while it computes on);
    /// receivers record the post time and do nothing until
    /// [`Group::ibcast_join`] — any messages relayed through them are
    /// forwarded at join time, modeling software-progress-at-wait exactly
    /// like the vendor non-blocking collectives the paper measured.
    pub fn ibcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        algo: BcastAlgo,
    ) -> BcastRequest<M> {
        let tag = self.next_tag();
        let tag2 = self.next_tag();
        let mut req = BcastRequest {
            algo,
            root_idx,
            bytes,
            tag,
            tag2,
            posted_at: comm.now(),
            resolved: None,
            deferred: None,
        };
        if self.len() == 1 {
            req.resolved = Some(msg.expect("single-member broadcast needs the payload"));
        } else if self.my_idx() == root_idx {
            match algo {
                BcastAlgo::Lib => {
                    req.resolved = Some(self.lib_bcast(comm, root_idx, msg, bytes, tag, 1.0));
                }
                BcastAlgo::IBcast => {
                    let penalty = comm.spec().tuning.ibcast_penalty;
                    if comm.spec().tuning.ibcast_async_progress {
                        req.resolved =
                            Some(self.lib_bcast(comm, root_idx, msg, bytes, tag, penalty));
                    } else {
                        req.deferred = msg;
                    }
                }
                BcastAlgo::Ring1 => {
                    req.resolved = Some(self.ring_bcast(comm, root_idx, msg, bytes, tag));
                }
                BcastAlgo::Ring1M => {
                    req.resolved = Some(self.ring1m_bcast(comm, root_idx, msg, bytes, tag));
                }
                BcastAlgo::Ring2M => {
                    req.resolved = Some(self.ring2m_bcast(comm, root_idx, msg, bytes, tag, tag2));
                }
            }
        }
        if req.resolved.is_some() {
            // This rank's part is over: the join has nothing left to do.
            comm.retire(tag);
            comm.retire(tag2);
        }
        req
    }

    /// Completes a split-phase broadcast, returning the payload and the
    /// overlap bookkeeping. Receivers run their part of the algorithm here
    /// (receive, and forward where the topology needs them to), charged at
    /// the join-time clock.
    pub fn ibcast_join<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        req: BcastRequest<M>,
    ) -> (M, BcastInfo) {
        if let Some(m) = req.resolved {
            return (m, BcastInfo::default());
        }
        let join_start = comm.now();
        let wait0 = comm.wait_total();
        let is_root = self.my_idx() == req.root_idx;
        let m = match req.algo {
            BcastAlgo::Lib => {
                self.lib_bcast(comm, req.root_idx, req.deferred, req.bytes, req.tag, 1.0)
            }
            BcastAlgo::IBcast => {
                let penalty = comm.spec().tuning.ibcast_penalty;
                self.lib_bcast(
                    comm,
                    req.root_idx,
                    req.deferred,
                    req.bytes,
                    req.tag,
                    penalty,
                )
            }
            BcastAlgo::Ring1 => {
                self.ring_bcast(comm, req.root_idx, req.deferred, req.bytes, req.tag)
            }
            BcastAlgo::Ring1M => {
                self.ring1m_bcast(comm, req.root_idx, req.deferred, req.bytes, req.tag)
            }
            BcastAlgo::Ring2M => self.ring2m_bcast(
                comm,
                req.root_idx,
                req.deferred,
                req.bytes,
                req.tag,
                req.tag2,
            ),
        };
        comm.retire(req.tag);
        comm.retire(req.tag2);
        let waited = comm.wait_total() - wait0;
        // Overlap credit: the part of the flight time (post → last arrival)
        // this rank spent on its own work instead of idling. A deferred
        // root injects here without receiving, so it earns none.
        let hidden = if is_root {
            0.0
        } else {
            (join_start.min(comm.last_arrive()) - req.posted_at).max(0.0)
        };
        comm.credit_hidden(hidden);
        (m, BcastInfo { waited, hidden })
    }

    /// Posts a non-blocking broadcast (`MPI_Ibcast`). With asynchronous
    /// progress the root's injection happens now; without it (Spectrum
    /// MPI), nothing moves until [`Group::ibcast_wait`].
    pub fn ibcast_start<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
    ) -> PendingBcast<M> {
        let tag = self.next_tag();
        let penalty = comm.spec().tuning.ibcast_penalty;
        let async_progress = comm.spec().tuning.ibcast_async_progress;
        let mut pending = PendingBcast {
            tag,
            root_idx,
            bytes,
            msg,
            sends_done: false,
        };
        if self.my_idx() == root_idx && async_progress {
            let m = pending.msg.clone();
            let kept = self.lib_bcast(comm, root_idx, m, bytes, tag, penalty);
            pending.msg = Some(kept);
            pending.sends_done = true;
        }
        pending
    }

    /// Completes a non-blocking broadcast, returning the payload.
    pub fn ibcast_wait<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        mut pending: PendingBcast<M>,
    ) -> M {
        let penalty = comm.spec().tuning.ibcast_penalty;
        let m = if self.my_idx() == pending.root_idx && pending.sends_done {
            pending.msg.expect("root keeps its payload")
        } else {
            // Progress-at-wait for everyone else: the root injects now if
            // it hasn't, and non-roots run their part of the library
            // algorithm (receive, and forward when the binomial tree needs
            // them to).
            let m = pending.msg.take();
            self.lib_bcast(
                comm,
                pending.root_idx,
                m,
                pending.bytes,
                pending.tag,
                penalty,
            )
        };
        comm.retire(pending.tag);
        m
    }

    /// Vendor `MPI_Bcast`: behaviour depends on [`LibQuality`].
    fn lib_bcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        tag: u64,
        penalty: f64,
    ) -> M {
        let g = self.len();
        if g == 1 {
            return msg.expect("single-member broadcast needs the payload");
        }
        match comm.spec().tuning.lib_quality {
            LibQuality::Pipelined => {
                // Modeled black box: the root is busy for the pipelined
                // serialization of one message copy (times an efficiency
                // factor); everyone hears it after a tree-depth latency.
                if self.my_idx() == root_idx {
                    let m = msg.expect("root must supply the payload");
                    let cost = self.worst_cost(comm);
                    let factor = comm.spec().tuning.lib_pipeline_factor * penalty;
                    let total_busy =
                        factor * bytes as f64 * cost.sec_per_byte + comm.spec().send_overhead;
                    let depth = (g as f64).log2().ceil();
                    let busy_each = total_busy / (g - 1) as f64;
                    for idx in 0..g {
                        if idx != root_idx {
                            comm.send_modeled(
                                self.member(idx),
                                tag,
                                m.clone(),
                                bytes,
                                busy_each,
                                depth * cost.latency * penalty,
                            );
                        }
                    }
                    m
                } else {
                    let (m, _) = comm.recv_stream(self.member(root_idx), tag);
                    m
                }
            }
            LibQuality::Binomial => {
                // Emergent binomial tree over real point-to-point sends. The
                // vendor-IBcast software-progress penalty (> 1.0) dilates
                // each forwarding hop: the library's progress engine costs
                // extra cycles per message it pushes.
                let hop_tax = if penalty > 1.0 {
                    let wc = self.worst_cost(comm);
                    (penalty - 1.0) * (comm.spec().send_overhead + bytes as f64 * wc.sec_per_byte)
                } else {
                    0.0
                };
                let vr = (self.my_idx() + g - root_idx) % g;
                let to_world = |v: usize| self.member((v + root_idx) % g);
                let mut held: Option<M> = if vr == 0 { msg } else { None };
                let mut mask = 1usize;
                while mask < g {
                    if vr & mask != 0 {
                        let (m, _) = comm.recv_stream(to_world(vr - mask), tag);
                        held = Some(m);
                        break;
                    }
                    mask <<= 1;
                }
                mask >>= 1;
                let m = held.expect("binomial receive must precede forwarding");
                while mask > 0 {
                    if vr + mask < g {
                        if hop_tax > 0.0 {
                            comm.charge(hop_tax);
                        }
                        comm.send_stream(to_world(vr + mask), tag, m.clone(), bytes);
                    }
                    mask >>= 1;
                }
                m
            }
        }
    }

    /// Single pipelined ring (Ring1): root → 1 → 2 → … → g-1.
    fn ring_bcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        tag: u64,
    ) -> M {
        let g = self.len();
        if g == 1 {
            return msg.expect("single-member broadcast needs the payload");
        }
        let chunks = comm.spec().tuning.chunks_for(bytes);
        let chunk_bytes = split_bytes(bytes, chunks);
        let vr = (self.my_idx() + g - root_idx) % g;
        let to_world = |v: usize| self.member((v + root_idx) % g);
        let mut held: Option<M> = if vr == 0 { msg } else { None };
        for c in 0..chunks {
            if vr > 0 {
                let (m, _) = comm.recv_stream(to_world(vr - 1), tag);
                if c == 0 {
                    held = Some(m);
                }
            }
            if vr + 1 < g {
                let payload = if c == 0 {
                    held.clone().expect("chunk 0 carries the payload")
                } else {
                    M::default()
                };
                comm.send_stream(to_world(vr + 1), tag, payload, chunk_bytes[c as usize]);
            }
        }
        held.expect("ring must deliver the payload")
    }

    /// Modified ring (Ring1M): the root feeds two half-chains
    /// (0→1→…→mid-1 and mid→mid+1→…→g-1), halving pipeline depth.
    fn ring1m_bcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        tag: u64,
    ) -> M {
        let g = self.len();
        if g <= 2 {
            return self.basic_chain(comm, root_idx, msg, bytes, tag);
        }
        let chunks = comm.spec().tuning.chunks_for(bytes);
        let chunk_bytes = split_bytes(bytes, chunks);
        let mid = g / 2 + 1; // first member of the second chain (relative)
        let vr = (self.my_idx() + g - root_idx) % g;
        let to_world = |v: usize| self.member((v + root_idx) % g);
        let mut held: Option<M> = if vr == 0 { msg } else { None };
        for c in 0..chunks {
            let payload_of = |held: &Option<M>, c: u32| {
                if c == 0 {
                    held.clone().expect("chunk 0 carries the payload")
                } else {
                    M::default()
                }
            };
            if vr == 0 {
                // Root feeds both chains.
                comm.send_stream(
                    to_world(1),
                    tag,
                    payload_of(&held, c),
                    chunk_bytes[c as usize],
                );
                comm.send_stream(
                    to_world(mid),
                    tag,
                    payload_of(&held, c),
                    chunk_bytes[c as usize],
                );
            } else {
                let src = if vr == mid { 0 } else { vr - 1 };
                let (m, _) = comm.recv_stream(to_world(src), tag);
                if c == 0 {
                    held = Some(m);
                }
                let next = vr + 1;
                let is_chain_end = next == mid || next == g;
                if !is_chain_end {
                    comm.send_stream(
                        to_world(next),
                        tag,
                        payload_of(&held, c),
                        chunk_bytes[c as usize],
                    );
                }
            }
        }
        held.expect("ring1m must deliver the payload")
    }

    /// Modified double ring (Ring2M): the message is halved; one half
    /// pipelines clockwise (0→1→…), the other counter-clockwise
    /// (0→g-1→…); the two halves meet in the middle. Root injection is one
    /// message volume total, depth is ~g/2.
    fn ring2m_bcast<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        tag_cw: u64,
        tag_ccw: u64,
    ) -> M {
        let g = self.len();
        if g <= 2 {
            return self.basic_chain(comm, root_idx, msg, bytes, tag_cw);
        }
        let half = bytes / 2;
        let chunks = comm.spec().tuning.chunks_for(half);
        let cw_bytes = split_bytes(half, chunks);
        let ccw_bytes = split_bytes(bytes - half, chunks);
        let vr = (self.my_idx() + g - root_idx) % g;
        let to_world = |v: usize| self.member((v + root_idx) % g);
        // Clockwise chain covers relative 1..=cw_last; counter-clockwise
        // covers g-1 down to cw_last+1.
        let cw_last = g / 2;
        let mut held: Option<M> = if vr == 0 { msg } else { None };
        for c in 0..chunks {
            let payload_of = |held: &Option<M>, c: u32| {
                if c == 0 {
                    held.clone().expect("chunk 0 carries the payload")
                } else {
                    M::default()
                }
            };
            if vr == 0 {
                comm.send_stream(
                    to_world(1),
                    tag_cw,
                    payload_of(&held, c),
                    cw_bytes[c as usize],
                );
                comm.send_stream(
                    to_world(g - 1),
                    tag_ccw,
                    payload_of(&held, c),
                    ccw_bytes[c as usize],
                );
            } else if vr <= cw_last {
                // Clockwise participant.
                let (m, _) = comm.recv_stream(to_world(vr - 1), tag_cw);
                if c == 0 {
                    held = Some(m);
                }
                if vr < cw_last {
                    comm.send_stream(
                        to_world(vr + 1),
                        tag_cw,
                        payload_of(&held, c),
                        cw_bytes[c as usize],
                    );
                }
            } else {
                // Counter-clockwise participant (vr in cw_last+1 .. g-1).
                let src = if vr == g - 1 { 0 } else { vr + 1 };
                let (m, _) = comm.recv_stream(to_world(src), tag_ccw);
                if c == 0 {
                    held = Some(m);
                }
                if vr > cw_last + 1 {
                    comm.send_stream(
                        to_world(vr - 1),
                        tag_ccw,
                        payload_of(&held, c),
                        ccw_bytes[c as usize],
                    );
                }
            }
        }
        held.expect("ring2m must deliver the payload")
    }

    /// Trivial chain for degenerate group sizes.
    fn basic_chain<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: Option<M>,
        bytes: u64,
        tag: u64,
    ) -> M {
        let g = self.len();
        if g == 1 {
            return msg.expect("single-member broadcast needs the payload");
        }
        if self.my_idx() == root_idx {
            let m = msg.expect("root must supply the payload");
            for idx in 0..g {
                if idx != root_idx {
                    comm.send_stream(self.member(idx), tag, m.clone(), bytes);
                }
            }
            m
        } else {
            let (m, _) = comm.recv_stream(self.member(root_idx), tag);
            m
        }
    }

    /// All-reduce over the group: combine everyone's `msg` with `combine`
    /// (must be associative/commutative) and deliver the total to all.
    /// Binomial reduce to member 0, then library broadcast back.
    pub fn allreduce<M, F>(&mut self, comm: &mut Comm<M>, msg: M, bytes: u64, combine: F) -> M
    where
        M: Clone + Default + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let g = self.len();
        let tag = self.next_tag();
        let vr = self.my_idx();
        let mut acc = msg;
        if g > 1 {
            let mut mask = 1usize;
            while mask < g {
                if vr & mask != 0 {
                    comm.send_stream(self.member(vr - mask), tag, acc.clone(), bytes);
                    break;
                } else if vr + mask < g {
                    let (m, _) = comm.recv_stream(self.member(vr + mask), tag);
                    acc = combine(acc, m);
                }
                mask <<= 1;
            }
        }
        let bcast_tag = self.next_tag();
        let payload = if vr == 0 { Some(acc) } else { None };
        let total = self.lib_bcast(comm, 0, payload, bytes, bcast_tag, 1.0);
        comm.retire(tag);
        comm.retire(bcast_tag);
        total
    }

    /// Borrowed-buffer all-reduce: combines everyone's `buf` in place, so
    /// callers reusing an accumulation vector skip the take/put dance.
    pub fn allreduce_buf<M, F>(&mut self, comm: &mut Comm<M>, buf: &mut M, bytes: u64, combine: F)
    where
        M: Clone + Default + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let msg = std::mem::take(buf);
        *buf = self.allreduce(comm, msg, bytes, combine);
    }

    /// Gathers one message from every member at `root_idx` (returned in
    /// group order there; `None` elsewhere).
    pub fn gather<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: M,
        bytes: u64,
    ) -> Option<Vec<M>> {
        let g = self.len();
        let tag = self.next_tag();
        let out = if self.my_idx() == root_idx {
            let mut out: Vec<Option<M>> = (0..g).map(|_| None).collect();
            out[root_idx] = Some(msg);
            for (idx, slot) in out.iter_mut().enumerate() {
                if idx != root_idx {
                    let (m, _) = comm.recv_stream(self.member(idx), tag);
                    *slot = Some(m);
                }
            }
            Some(out.into_iter().map(|m| m.unwrap()).collect())
        } else {
            comm.send_stream(self.member(root_idx), tag, msg, bytes);
            None
        };
        comm.retire(tag);
        out
    }

    /// Scatters one message per member from `root_idx`; returns this
    /// member's piece.
    pub fn scatter<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        pieces: Option<Vec<M>>,
        bytes_each: u64,
    ) -> M {
        let g = self.len();
        let tag = self.next_tag();
        let mine = if self.my_idx() == root_idx {
            let pieces = pieces.expect("root must supply the pieces");
            assert_eq!(pieces.len(), g, "one piece per member");
            let mut mine = None;
            for (idx, piece) in pieces.into_iter().enumerate() {
                if idx == root_idx {
                    mine = Some(piece);
                } else {
                    comm.send_stream(self.member(idx), tag, piece, bytes_each);
                }
            }
            mine.expect("root keeps its own piece")
        } else {
            comm.recv_stream(self.member(root_idx), tag).0
        };
        comm.retire(tag);
        mine
    }

    /// Reduction to `root_idx` (binomial fan-in); returns the combined
    /// value at the root, `None` elsewhere.
    pub fn reduce<M, F>(
        &mut self,
        comm: &mut Comm<M>,
        root_idx: usize,
        msg: M,
        bytes: u64,
        combine: F,
    ) -> Option<M>
    where
        M: Clone + Default + Send + 'static,
        F: Fn(M, M) -> M,
    {
        let g = self.len();
        let tag = self.next_tag();
        let vr = (self.my_idx() + g - root_idx) % g;
        let to_world = |v: usize| self.member((v + root_idx) % g);
        let mut acc = Some(msg);
        let mut mask = 1usize;
        while mask < g {
            if vr & mask != 0 {
                let partial = acc.take().expect("a sender leaves the fan-in");
                comm.send_stream(to_world(vr - mask), tag, partial, bytes);
                break;
            } else if vr + mask < g {
                let (m, _) = comm.recv_stream(to_world(vr + mask), tag);
                acc = acc.map(|a| combine(a, m));
            }
            mask <<= 1;
        }
        comm.retire(tag);
        acc
    }

    /// All-gather: every member contributes `msg` and receives everyone's
    /// contributions in group order (gather to member 0 + library
    /// broadcast of the assembled vector).
    pub fn allgather<M: Clone + Default + Send + 'static>(
        &mut self,
        comm: &mut Comm<M>,
        msg: M,
        bytes: u64,
    ) -> Vec<M> {
        let g = self.len();
        let gathered = self.gather(comm, 0, msg, bytes);
        // Ship the assembled result back out one slot at a time (slot i is
        // a separate library broadcast so M needs no container variant).
        let mut out = Vec::with_capacity(g);
        for i in 0..g {
            let tag = self.next_tag();
            let payload = gathered.as_ref().map(|v| v[i].clone());
            out.push(self.lib_bcast(comm, 0, payload, bytes, tag, 1.0));
            comm.retire(tag);
        }
        out
    }

    /// Dissemination barrier.
    pub fn barrier<M: Clone + Default + Send + 'static>(&mut self, comm: &mut Comm<M>) {
        let g = self.len();
        let tag = self.next_tag();
        let r = self.my_idx();
        let mut k = 1usize;
        while k < g {
            let dst = self.member((r + k) % g);
            let src = self.member((r + g - k) % g);
            comm.send_stream(dst, tag, M::default(), 0);
            let _ = comm.recv_stream(src, tag);
            k <<= 1;
        }
        comm.retire(tag);
    }

    /// The worst (slowest) p2p path from this rank to any other member —
    /// used to price the modeled vendor broadcast conservatively. Memoized
    /// in the group: membership and the network model never change, and a
    /// full-machine run prices millions of broadcasts on the same groups.
    fn worst_cost<M: Send + 'static>(&mut self, comm: &Comm<M>) -> P2pCost {
        if let Some(c) = self.worst_cost {
            return c;
        }
        let me = comm.loc_of(self.member(self.my_idx()));
        let mut worst = P2pCost {
            latency: 0.0,
            sec_per_byte: 0.0,
        };
        for &m in self.members() {
            let c = comm.spec().net.p2p(me, comm.loc_of(m), 1);
            if c.sec_per_byte > worst.sec_per_byte {
                worst = c;
            }
        }
        self.worst_cost = Some(worst);
        worst
    }
}

fn split_bytes(total: u64, chunks: u32) -> Vec<u64> {
    let base = total / chunks as u64;
    let rem = total % chunks as u64;
    (0..chunks as u64)
        .map(|c| base + if c < rem { 1 } else { 0 })
        .collect()
}

/// Closed-form broadcast completion estimate, used by the critical-path
/// driver at scales where per-message simulation is impractical.
///
/// `cost` is the per-hop point-to-point cost (already including sharers and
/// staging effects); `send_o`/`recv_o` are the software overheads from
/// [`crate::WorldSpec`]. Returns (root busy time, time until the slowest
/// member holds the payload), both relative to a synchronized start.
pub fn bcast_cost(
    algo: BcastAlgo,
    g: usize,
    bytes: u64,
    cost: P2pCost,
    tuning: &CollectiveTuning,
    send_o: f64,
    recv_o: f64,
) -> (f64, f64) {
    if g <= 1 {
        return (0.0, 0.0);
    }
    let b = bytes as f64;
    let spb = cost.sec_per_byte;
    let lat = cost.latency;
    let chunks = tuning.chunks_for(bytes) as f64;
    let chunk = b / chunks;
    match algo {
        BcastAlgo::Lib | BcastAlgo::IBcast => {
            let penalty = if algo == BcastAlgo::IBcast {
                tuning.ibcast_penalty
            } else {
                1.0
            };
            match tuning.lib_quality {
                LibQuality::Pipelined => {
                    let busy = penalty * (tuning.lib_pipeline_factor * b * spb + send_o);
                    let depth = (g as f64).log2().ceil();
                    (busy, busy + penalty * depth * lat + lat + recv_o)
                }
                LibQuality::Binomial => {
                    let depth = (g as f64).log2().ceil();
                    // The IBcast software-progress penalty dilates the send
                    // side of every hop; the wire latency is unaffected.
                    let hop = penalty * (send_o + b * spb) + lat + recv_o;
                    // Root sends up to `depth` full messages back to back.
                    let busy = penalty * depth * (send_o + b * spb);
                    (busy, depth * hop)
                }
            }
        }
        BcastAlgo::Ring1 => {
            let busy = chunks * send_o + b * spb;
            let per_hop = send_o + chunk * spb + lat + recv_o;
            (busy, busy + (g - 2) as f64 * per_hop + lat + recv_o)
        }
        BcastAlgo::Ring1M if g <= 2 => {
            // The emergent algorithm degenerates to a single direct send.
            let busy = send_o + b * spb;
            (busy, busy + lat + recv_o)
        }
        BcastAlgo::Ring1M => {
            // Root injects twice the volume; depth is halved.
            let busy = 2.0 * (chunks * send_o + b * spb);
            let per_hop = send_o + chunk * spb + lat + recv_o;
            let depth = (g as f64 / 2.0 - 1.0).max(0.0);
            (busy, busy + depth * per_hop + lat + recv_o)
        }
        BcastAlgo::Ring2M if g <= 2 => {
            // The emergent algorithm degenerates to a single direct send.
            let busy = send_o + b * spb;
            (busy, busy + lat + recv_o)
        }
        BcastAlgo::Ring2M => {
            // Half the volume each way; depth ~ g/2 hops of half-chunks.
            let busy = 2.0 * chunks * send_o + b * spb;
            let per_hop = send_o + 0.5 * chunk * spb + lat + recv_o;
            let depth = (g as f64 / 2.0 - 1.0).max(0.0);
            (busy, busy + depth * per_hop + lat + recv_o)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldSpec;
    use mxp_netsim::frontier_network;

    fn world(nodes: usize, q: usize, tuning: CollectiveTuning) -> WorldSpec {
        let mut w = WorldSpec::cluster(nodes, q, frontier_network());
        w.tuning = tuning;
        w
    }

    fn row_group(rank: usize, size: usize) -> Group {
        Group::new(rank, (0..size).collect(), 1).unwrap()
    }

    fn check_delivery(algo: BcastAlgo, p: usize, tuning: CollectiveTuning) -> Vec<f64> {
        let w = world(p, 1, tuning);
        w.run::<Vec<u32>, _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            for root in [0usize, p / 2, p - 1] {
                let payload = (0..64)
                    .map(|i| (root * 1000 + i) as u32)
                    .collect::<Vec<_>>();
                let msg = if g.my_idx() == root {
                    Some(payload.clone())
                } else {
                    None
                };
                let got = g.bcast(&mut c, root, msg, 8 << 20, algo);
                assert_eq!(got, payload, "algo {algo:?} root {root} rank {}", c.rank());
            }
            c.now()
        })
    }

    #[test]
    fn all_algorithms_deliver_any_root() {
        for algo in BcastAlgo::ALL {
            for p in [2usize, 3, 5, 8, 13] {
                check_delivery(algo, p, CollectiveTuning::frontier());
                check_delivery(algo, p, CollectiveTuning::summit());
            }
        }
    }

    #[test]
    fn rings_beat_binomial_lib_on_frontier() {
        // The Fig. 8 headline: on Frontier (binomial vendor bcast), the
        // hand-written rings finish faster for large panels.
        let p = 16;
        let bytes: u64 = 64 << 20;
        let finish = |algo: BcastAlgo| -> f64 {
            let w = world(p, 1, CollectiveTuning::frontier());
            let clocks = w.run::<(), _, _>(move |mut c| {
                let mut g = row_group(c.rank(), p);
                let msg = if g.my_idx() == 0 { Some(()) } else { None };
                g.bcast(&mut c, 0, msg, bytes, algo);
                c.now()
            });
            clocks.into_iter().fold(0.0, f64::max)
        };
        let lib = finish(BcastAlgo::Lib);
        let ring1 = finish(BcastAlgo::Ring1);
        let ring2m = finish(BcastAlgo::Ring2M);
        assert!(ring1 < lib, "ring1 {ring1} !< lib {lib}");
        assert!(ring2m < lib, "ring2m {ring2m} !< lib {lib}");
    }

    #[test]
    fn lib_beats_rings_on_summit() {
        // On Summit the pipelined vendor broadcast is near-optimal and the
        // rings' extra latency makes them slightly worse (2.3-11.5% in the
        // paper).
        let p = 16;
        let bytes: u64 = 64 << 20;
        let finish = |algo: BcastAlgo| -> f64 {
            let w = world(p, 1, {
                let mut t = CollectiveTuning::summit();
                t.chunk_bytes = 4 << 20;
                t
            });
            let clocks = w.run::<(), _, _>(move |mut c| {
                let mut g = row_group(c.rank(), p);
                let msg = if g.my_idx() == 0 { Some(()) } else { None };
                g.bcast(&mut c, 0, msg, bytes, algo);
                c.now()
            });
            clocks.into_iter().fold(0.0, f64::max)
        };
        let lib = finish(BcastAlgo::Lib);
        let ring1 = finish(BcastAlgo::Ring1);
        assert!(lib < ring1, "lib {lib} !< ring1 {ring1}");
    }

    #[test]
    fn ibcast_without_async_progress_defers_everything() {
        // Spectrum-MPI-style IBcast: posting it costs nothing; all the time
        // is paid at wait. With async progress the root pays at post.
        let p = 4;
        let bytes: u64 = 32 << 20;
        let post_cost = |tuning: CollectiveTuning| -> f64 {
            let w = world(p, 1, tuning);
            let clocks = w.run::<(), _, _>(move |mut c| {
                let mut g = row_group(c.rank(), p);
                let msg = if g.my_idx() == 0 { Some(()) } else { None };
                let pending = g.ibcast_start(&mut c, 0, msg, bytes);
                let t_post = c.now();
                g.ibcast_wait(&mut c, pending);
                t_post
            });
            clocks[0]
        };
        let lazy = post_cost(CollectiveTuning::summit());
        let eager = post_cost(CollectiveTuning::frontier());
        assert!(lazy < 1e-9, "lazy post should be free, got {lazy}");
        assert!(eager > 1e-4, "eager post should pay injection, got {eager}");
    }

    #[test]
    fn allreduce_sums_vectors() {
        let p = 7;
        let w = world(p, 1, CollectiveTuning::frontier());
        let results = w.run::<Vec<f64>, _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            let mine = vec![c.rank() as f64; 8];
            g.allreduce(&mut c, mine, 64, |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            })
        });
        let expect = (0..p).sum::<usize>() as f64;
        for r in results {
            assert!(r.iter().all(|&v| v == expect));
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let p = 6;
        let w = world(p, 1, CollectiveTuning::frontier());
        let clocks = w.run::<(), _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            // Rank 3 is way behind/ahead.
            c.charge(if c.rank() == 3 { 0.5 } else { 0.0 });
            g.barrier(&mut c);
            c.now()
        });
        let max = clocks.iter().copied().fold(0.0, f64::max);
        for &t in &clocks {
            assert!(t >= 0.5, "barrier must drag everyone past the laggard: {t}");
            assert!(t > 0.99 * max - 1e-3);
        }
    }

    #[test]
    fn closed_form_tracks_emergent_ring1() {
        let p = 12;
        let bytes: u64 = 48 << 20;
        let tuning = CollectiveTuning::frontier();
        let w = world(p, 1, tuning);
        let clocks = w.run::<(), _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            let msg = if g.my_idx() == 0 { Some(()) } else { None };
            g.bcast(&mut c, 0, msg, bytes, BcastAlgo::Ring1);
            c.now()
        });
        let emergent = clocks.into_iter().fold(0.0, f64::max);
        let cost = frontier_network().p2p(
            mxp_netsim::GcdLoc { node: 0, gcd: 0 },
            mxp_netsim::GcdLoc { node: 1, gcd: 0 },
            1,
        );
        let (_, model) = bcast_cost(BcastAlgo::Ring1, p, bytes, cost, &tuning, 1e-6, 0.5e-6);
        let ratio = model / emergent;
        assert!(
            (0.8..1.25).contains(&ratio),
            "closed form {model} vs emergent {emergent} (ratio {ratio})"
        );
    }

    #[test]
    fn closed_form_tracks_emergent_binomial() {
        let p = 16;
        let bytes: u64 = 32 << 20;
        let tuning = CollectiveTuning::frontier();
        let w = world(p, 1, tuning);
        let clocks = w.run::<(), _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            let msg = if g.my_idx() == 0 { Some(()) } else { None };
            g.bcast(&mut c, 0, msg, bytes, BcastAlgo::Lib);
            c.now()
        });
        let emergent = clocks.into_iter().fold(0.0, f64::max);
        let cost = frontier_network().p2p(
            mxp_netsim::GcdLoc { node: 0, gcd: 0 },
            mxp_netsim::GcdLoc { node: 1, gcd: 0 },
            1,
        );
        let (_, model) = bcast_cost(BcastAlgo::Lib, p, bytes, cost, &tuning, 1e-6, 0.5e-6);
        let ratio = model / emergent;
        assert!(
            (0.8..1.25).contains(&ratio),
            "closed form {model} vs emergent {emergent} (ratio {ratio})"
        );
    }

    /// Runs `ops` collectives of every kind on a 4-rank group, joining
    /// each split-phase broadcast three operations after posting it, and
    /// returns every rank's live collective-stream counters at the end.
    fn live_streams_after_mixed_collectives(
        ops: u64,
        tuning: CollectiveTuning,
        event: bool,
    ) -> Vec<usize> {
        let p = 4;
        let w = world(p, 1, tuning);
        let job = move |mut c: Comm<u64>| {
            let mut g = row_group(c.rank(), p);
            let me = g.my_idx();
            let mut posted = std::collections::VecDeque::new();
            for i in 0..ops {
                let root = (i % p as u64) as usize;
                let mine = (me == root).then_some(i);
                match i % 10 {
                    0 => {
                        let algo = BcastAlgo::ALL[(i / 10 % 5) as usize];
                        assert_eq!(g.bcast(&mut c, root, mine, 1 << 12, algo), i);
                    }
                    1 => {
                        let algo = BcastAlgo::ALL[(i / 10 % 5) as usize];
                        posted.push_back((i, g.ibcast(&mut c, root, mine, 1 << 12, algo)));
                    }
                    2 => {
                        let pending = g.ibcast_start(&mut c, root, mine, 1 << 12);
                        assert_eq!(g.ibcast_wait(&mut c, pending), i);
                    }
                    3 => {
                        let sum = g.allreduce(&mut c, 1, 8, |a, b| a + b);
                        assert_eq!(sum, p as u64);
                    }
                    4 => {
                        let all = g.gather(&mut c, root, me as u64, 8);
                        assert_eq!(all.is_some(), me == root);
                    }
                    5 => {
                        let pieces = (me == root).then(|| (0..p as u64).collect());
                        assert_eq!(g.scatter(&mut c, root, pieces, 8), me as u64);
                    }
                    6 => {
                        let sum = g.reduce(&mut c, root, 1, 8, |a, b| a + b);
                        assert_eq!(sum, (me == root).then_some(p as u64));
                    }
                    7 => assert_eq!(g.allgather(&mut c, me as u64, 8), vec![0, 1, 2, 3]),
                    _ => g.barrier(&mut c),
                }
                // Split-phase broadcasts stay in flight across the next
                // few collectives before their late join.
                if posted.len() > 3 || i + 1 == ops {
                    while let Some((at, req)) = posted.pop_front() {
                        assert_eq!(g.ibcast_join(&mut c, req).0, at);
                        if i + 1 < ops {
                            break;
                        }
                    }
                }
            }
            c.live_collective_streams()
        };
        if event {
            w.run_event(job)
        } else {
            w.run(job)
        }
    }

    #[test]
    fn finished_collectives_hold_no_stream_counters() {
        for tuning in [CollectiveTuning::frontier(), CollectiveTuning::summit()] {
            for event in [false, true] {
                let live = live_streams_after_mixed_collectives(10_000, tuning, event);
                assert_eq!(live, vec![0; 4], "event={event} {:?}", tuning.lib_quality);
            }
        }
    }

    #[test]
    fn ring2m_root_injects_half_per_direction() {
        let p = 8;
        let bytes: u64 = 16 << 20;
        let w = world(p, 1, CollectiveTuning::frontier());
        let sent = w.run::<(), _, _>(move |mut c| {
            let mut g = row_group(c.rank(), p);
            let msg = if g.my_idx() == 0 { Some(()) } else { None };
            g.bcast(&mut c, 0, msg, bytes, BcastAlgo::Ring2M);
            c.bytes_sent()
        });
        // Root sends the full volume split across two directions.
        assert_eq!(sent[0], bytes);
        // A middle relay forwards roughly half the volume once.
        assert!(sent[2] > 0 && sent[2] <= bytes / 2 + 8);
    }
}
