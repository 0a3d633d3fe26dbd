//! The shared rank-runtime layer: one owner for everything a distributed
//! driver needs besides its algorithm.
//!
//! Before this module existed, each driver (`factor`, `hpl_dist`, `ir`)
//! hand-built its own row/column/world [`Group`]s with ad-hoc hex color
//! bases, re-implemented the `PanelMsg`-matching allreduce closures, and
//! instrumented communication inconsistently. [`RankCtx`] centralizes all
//! of it:
//!
//! * **Sub-communicators** — row, column, and world groups addressed by
//!   [`CommScope`], with their colors issued by the [`TagAllocator`]
//!   instead of magic constants. Their member lists are built once per
//!   run and shared by every rank, so a rank's state does not grow with
//!   the world size;
//! * **Typed collectives** — [`RankCtx::allreduce_f64`],
//!   [`RankCtx::allreduce_max_by`], [`RankCtx::bcast_panel`] and friends
//!   pack and unpack [`PanelMsg`] internally, so a wrong-variant message
//!   is impossible to express at a call site;
//! * **Uniform tracing** — every send/recv/bcast/allreduce/barrier issued
//!   through the context lands in the same [`CommTrace`], which feeds the
//!   chrome-trace comm lanes and the [`crate::report::PerfReport`]
//!   byte/latency counters for *every* driver, not just HPL-AI;
//! * **NIC-sharer policy** — the paper's Eq. (5) flow-sharing counts are
//!   applied per scope (row ops contend like row broadcasts, column ops
//!   like column broadcasts) so no driver forgets to set them.
//!
//! A new distributed workload is "an algorithm over `RankCtx`": build the
//! context once per rank inside [`mxp_msgsim::WorldSpec::run`], then issue
//! typed operations. Tag ranges for point-to-point traffic come from
//! [`RankCtx::alloc_tags`]; because the allocator is deterministic, every
//! rank that performs the same allocation sequence sees the same ranges —
//! the same discipline collectives already require of call order.

use crate::grid::ProcessGrid;
use crate::msg::{PanelData, PanelMsg};
use mxp_msgsim::{BcastAlgo, BcastRequest, Comm, Group, WorldSpec};
use std::sync::Arc;

/// The runtime that hosts a run's ranks, selectable on
/// [`RunConfig::backend`](crate::solve::RunConfigBuilder::backend) — the
/// seam between drivers (algorithms over [`RankCtx`]) and the machinery
/// that executes one closure per rank over a [`WorldSpec`]. Both variants
/// produce bit-identical simulated clocks, so a driver never branches on
/// which one it runs under.
///
/// A new backend is one more variant whose [`Backend::execute`] arm runs
/// every rank's closure against a [`mxp_msgsim::Comm`] endpoint honouring
/// the send/receive matching discipline (per-(src, tag) FIFO streams),
/// returning results in rank order with rank panics re-thrown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Thread-per-rank with real payloads — the verification substrate.
    /// Bounded by OS threads, so it caps out around O(10³) ranks.
    #[default]
    Functional,
    /// Fiber-per-rank under a discrete-event scheduler with virtual
    /// payload timing: one process holds full Summit/Frontier extents
    /// (~75k ranks). Clocks are bit-identical to [`Backend::Functional`].
    EventTimed,
}

impl Backend {
    /// Stable lower-case label, recorded in
    /// [`PerfReport`](crate::report::PerfReport) and serialized JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Functional => "functional",
            Backend::EventTimed => "event-timed",
        }
    }

    /// Largest world this backend can reasonably host; exceeding it makes
    /// [`Backend::check_scale`] return a typed error instead of letting
    /// the run die on resource exhaustion.
    pub fn max_ranks(&self) -> usize {
        match self {
            // Thread-per-rank: stay well under default pid/VM limits.
            Backend::Functional => 8192,
            // Fiber-per-rank: full Frontier plus headroom.
            Backend::EventTimed => 1 << 20,
        }
    }

    /// Executes the per-rank closure over the spec, returning results in
    /// rank order. Panics in any rank propagate, like an MPI abort.
    pub fn execute<T, F>(&self, spec: &WorldSpec, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm<PanelMsg>) -> T + Sync,
    {
        match self {
            Backend::Functional => spec.run(f),
            Backend::EventTimed => spec.run_event(f),
        }
    }

    /// Typed scale guard: `Err` when `ranks` exceeds what this backend can
    /// host, instead of an OOM or thread-spawn abort mid-run.
    pub fn check_scale(&self, ranks: usize) -> Result<(), BackendError> {
        if ranks > self.max_ranks() {
            return Err(BackendError::TooManyRanks {
                backend: *self,
                ranks,
                limit: self.max_ranks(),
            });
        }
        Ok(())
    }
}

impl serde::Serialize for Backend {
    fn serialize_json(&self, out: &mut String) {
        serde::write_json_string(self.label(), out);
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A launch error from [`crate::solve::run_with_backend`]: the requested
/// backend cannot host the configured run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The world is larger than the backend can hold — e.g. a
    /// Frontier-extent grid on the thread-per-rank backend. Switch to
    /// [`Backend::EventTimed`] (or shrink the grid).
    TooManyRanks {
        /// The backend that refused.
        backend: Backend,
        /// Ranks the configuration asks for.
        ranks: usize,
        /// The backend's limit.
        limit: usize,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BackendError::TooManyRanks {
                backend,
                ranks,
                limit,
            } => write!(
                f,
                "{ranks} ranks exceed the {backend} backend's limit of {limit} \
                 (use Backend::EventTimed for full-machine extents)"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// Size of the group-color space ([`Group::new`] requires `color <
/// 0x4000`).
pub const COLOR_SPACE: u32 = 0x4000;

/// Size of the point-to-point tag space. Collective tags carry bit 31, so
/// p2p tags must stay strictly below it.
pub const P2P_TAG_SPACE: u32 = 0x8000_0000;

/// An allocated range of group colors. `at(i)` yields the `i`-th color.
#[derive(Clone, Copy, Debug)]
pub struct ColorRange {
    base: u32,
    len: u32,
}

impl ColorRange {
    /// The `i`-th color of the range.
    pub fn at(&self, i: usize) -> u32 {
        assert!((i as u32) < self.len, "color index {i} out of range");
        self.base + i as u32
    }

    /// Number of colors in the range.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An allocated range of point-to-point message tags. `at(i)` yields the
/// `i`-th tag; indexing out of range panics rather than silently aliasing
/// a neighbouring namespace (the failure the old `base | (key & 0xFFFF)`
/// arithmetic could not detect).
#[derive(Clone, Copy, Debug)]
pub struct TagRange {
    base: u32,
    len: u32,
}

impl TagRange {
    /// The `i`-th tag of the range.
    pub fn at(&self, i: usize) -> u32 {
        assert!((i as u32) < self.len, "tag index {i} out of range");
        self.base + i as u32
    }

    /// Number of tags in the range.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Bump allocator for the two tag namespaces: group colors (collective
/// tag bases) and point-to-point tags.
///
/// Each range starts where the previous one in its namespace ended, so
/// ranges never overlap. Allocation order must be identical on every rank —
/// identical call sequences yield identical ranges, exactly the matched-
/// order discipline collectives already demand.
#[derive(Debug, Default)]
pub struct TagAllocator {
    /// First unallocated group color.
    next_color: u32,
    /// First unallocated point-to-point tag.
    next_tag: u32,
}

impl TagAllocator {
    /// An empty allocator.
    pub fn new() -> Self {
        TagAllocator::default()
    }

    /// Allocates the next `len` group colors. Panics if the namespace is
    /// exhausted (a program error, not an input error).
    pub fn alloc_colors(&mut self, name: &'static str, len: u32) -> ColorRange {
        let base = bump(&mut self.next_color, name, len, COLOR_SPACE);
        ColorRange { base, len }
    }

    /// Allocates the next `len` point-to-point tags. Panics if the
    /// namespace is exhausted.
    pub fn alloc_tags(&mut self, name: &'static str, len: u32) -> TagRange {
        let base = bump(&mut self.next_tag, name, len, P2P_TAG_SPACE);
        TagRange { base, len }
    }
}

/// Takes `len` values at `*next` from a namespace of `space` values and
/// returns their base.
fn bump(next: &mut u32, name: &'static str, len: u32, space: u32) -> u32 {
    assert!(len > 0, "empty range for {name:?}");
    let base = *next;
    *next = base
        .checked_add(len)
        .filter(|&end| end <= space)
        .unwrap_or_else(|| panic!("tag namespace exhausted allocating {name:?}"));
    base
}

/// Which sub-communicator a collective runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommScope {
    /// This rank's process-grid row.
    Row,
    /// This rank's process-grid column.
    Col,
    /// All ranks.
    World,
}

/// Kind of a traced communication operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommOp {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// Broadcast (including each phase of a split-phase broadcast).
    Bcast,
    /// Allreduce.
    Allreduce,
    /// Barrier.
    Barrier,
    /// Checkpoint I/O: draining a panel-boundary snapshot of the local
    /// factorization state to stable storage (modeled, charged to the
    /// rank's clock so the cost shows up in the Chrome timeline).
    Checkpoint,
}

impl CommOp {
    /// Lower-case label, used as the chrome-trace event name.
    pub fn label(&self) -> &'static str {
        match self {
            CommOp::Send => "send",
            CommOp::Recv => "recv",
            CommOp::Bcast => "bcast",
            CommOp::Allreduce => "allreduce",
            CommOp::Barrier => "barrier",
            CommOp::Checkpoint => "checkpoint",
        }
    }
}

/// Cost split of one communication operation, in simulated seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Injection/forwarding overhead — time the rank was busy driving the
    /// operation (excludes idle time).
    pub busy: f64,
    /// Idle time spent waiting on peers or in-flight data.
    pub waited: f64,
    /// Flight time covered by local work between a split-phase post and
    /// its join (overlap attribution, never wall time).
    pub hidden: f64,
}

/// One traced communication operation on one rank.
#[derive(Clone, Copy, Debug)]
pub struct CommEvent {
    /// Operation kind.
    pub op: CommOp,
    /// Scope for collectives; `None` for point-to-point traffic.
    pub scope: Option<CommScope>,
    /// Simulated start timestamp, seconds.
    pub ts: f64,
    /// Busy seconds (see [`CommStats::busy`]).
    pub busy: f64,
    /// Waited seconds.
    pub waited: f64,
    /// Hidden overlap seconds.
    pub hidden: f64,
    /// Declared payload bytes of the operation.
    pub bytes: u64,
}

/// Aggregate over the events of one [`CommOp`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CommTotals {
    /// Number of events.
    pub count: usize,
    /// Summed declared bytes.
    pub bytes: u64,
    /// Summed busy seconds.
    pub busy: f64,
    /// Summed waited seconds.
    pub waited: f64,
    /// Summed hidden seconds.
    pub hidden: f64,
}

/// The uniform communication trace every driver feeds through
/// [`RankCtx`]: an ordered event list per rank, convertible to chrome-
/// trace lanes by [`crate::trace::comm_chrome_trace`].
#[derive(Clone, Debug, Default)]
pub struct CommTrace {
    events: Vec<CommEvent>,
}

impl CommTrace {
    /// All events, in issue order.
    pub fn events(&self) -> &[CommEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Aggregates the events of one operation kind.
    pub fn totals(&self, op: CommOp) -> CommTotals {
        let mut t = CommTotals::default();
        for e in self.events.iter().filter(|e| e.op == op) {
            t.count += 1;
            t.bytes += e.bytes;
            t.busy += e.busy;
            t.waited += e.waited;
            t.hidden += e.hidden;
        }
        t
    }

    fn push(&mut self, ev: CommEvent) {
        self.events.push(ev);
    }
}

/// A split-phase panel broadcast in flight, returned by
/// [`RankCtx::ibcast_panel`] and consumed by [`RankCtx::join_panel`].
pub struct PanelBcast {
    scope: CommScope,
    root_idx: usize,
    req: BcastRequest<PanelMsg>,
    bytes: u64,
}

impl PanelBcast {
    /// `true` when the underlying request already completed at post time
    /// (roots of eagerly-injecting algorithms) — joining is then free.
    pub fn is_resolved(&self) -> bool {
        self.req.is_resolved()
    }
}

/// The member lists of a grid's world, row and column groups, built once
/// per run and shared by every rank's [`RankCtx`]. A private copy of the
/// world list per rank would cost P² words — 45 GB at Frontier extent.
pub(crate) struct GridMembers {
    grid: ProcessGrid,
    world: Arc<[usize]>,
    rows: Vec<Arc<[usize]>>,
    cols: Vec<Arc<[usize]>>,
}

impl GridMembers {
    pub(crate) fn new(grid: &ProcessGrid) -> Self {
        GridMembers {
            grid: *grid,
            world: grid.world_members().into(),
            rows: (0..grid.p_r).map(|r| grid.row_members(r).into()).collect(),
            cols: (0..grid.p_c).map(|c| grid.col_members(c).into()).collect(),
        }
    }
}

/// The per-rank runtime context: the [`Comm`] endpoint, this rank's grid
/// coordinates, the scope groups, the [`TagAllocator`], and the
/// [`CommTrace`].
///
/// See the [module docs](self) for the ownership model and the
/// new-driver recipe.
pub struct RankCtx {
    comm: Comm<PanelMsg>,
    grid: ProcessGrid,
    my_r: usize,
    my_c: usize,
    tags: TagAllocator,
    row: Group,
    col: Group,
    world: Group,
    trace: CommTrace,
    tracing: bool,
}

impl RankCtx {
    /// Builds the context for this rank over member lists shared with the
    /// run's other ranks ([`crate::run_with_backend`] builds one set per
    /// run). Group colors are reserved up front (one per grid row, one per
    /// grid column, one for the world) so no later claim can collide with
    /// them. This rank's index in each group follows from its grid
    /// coordinates: its rank in the world, its column in its row, its row
    /// in its column.
    pub(crate) fn with_members(comm: Comm<PanelMsg>, members: &GridMembers) -> Self {
        let grid = members.grid;
        let rank = comm.rank();
        let (my_r, my_c) = grid.coord_of(rank);
        let mut tags = TagAllocator::new();
        let row_colors = tags.alloc_colors("row-groups", grid.p_r as u32);
        let col_colors = tags.alloc_colors("col-groups", grid.p_c as u32);
        let world_colors = tags.alloc_colors("world-group", 1);
        let row = Group::shared(Arc::clone(&members.rows[my_r]), my_c, row_colors.at(my_r));
        let col = Group::shared(Arc::clone(&members.cols[my_c]), my_r, col_colors.at(my_c));
        let world = Group::shared(Arc::clone(&members.world), rank, world_colors.at(0));
        for g in [&row, &col, &world] {
            assert_eq!(g.member(g.my_idx()), rank, "grid coordinates disagree");
        }
        RankCtx {
            comm,
            grid,
            my_r,
            my_c,
            tags,
            row,
            col,
            world,
            trace: CommTrace::default(),
            tracing: true,
        }
    }

    // ---- passthroughs ---------------------------------------------------

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The process grid.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// This rank's `(row, column)` grid coordinates.
    pub fn coords(&self) -> (usize, usize) {
        (self.my_r, self.my_c)
    }

    /// Current simulated time on this rank, seconds.
    pub fn now(&self) -> f64 {
        self.comm.now()
    }

    /// Cumulative simulated communication-wait seconds.
    pub fn wait_total(&self) -> f64 {
        self.comm.wait_total()
    }

    /// Re-seats the cumulative wait counter from a checkpoint. Per-op
    /// waits are reported as `wait_total()` deltas; a resumed rank must
    /// accumulate onto the snapshot's bit pattern or those deltas drift
    /// by ULPs from the uninterrupted run's.
    pub fn restore_wait_total(&mut self, w: f64) {
        self.comm.restore_wait_total(w);
    }

    /// Cumulative hidden-overlap seconds credited to this rank.
    pub fn hidden_total(&self) -> f64 {
        self.comm.hidden_total()
    }

    /// Total bytes this rank has put on the wire (actual traffic,
    /// including collective forwarding).
    pub fn bytes_sent(&self) -> u64 {
        self.comm.bytes_sent()
    }

    /// Advances this rank's simulated clock by `dt` seconds of local work.
    pub fn charge(&mut self, dt: f64) {
        self.comm.charge(dt);
    }

    /// Charges `dt` seconds of checkpoint I/O for a `bytes`-sized local
    /// snapshot and records it as a [`CommOp::Checkpoint`] event, so the
    /// drain cost is visible in the Chrome timeline next to the
    /// communication lanes it competes with.
    pub fn charge_checkpoint(&mut self, bytes: u64, dt: f64) {
        let ts = self.comm.now();
        self.comm.charge(dt);
        if self.tracing {
            self.trace.push(CommEvent {
                op: CommOp::Checkpoint,
                scope: None,
                ts,
                busy: dt,
                waited: 0.0,
                hidden: 0.0,
                bytes,
            });
        }
    }

    /// Allocates a named range of point-to-point tags; every rank
    /// performing the same allocation sequence receives the same range.
    pub fn alloc_tags(&mut self, name: &'static str, len: u32) -> TagRange {
        self.tags.alloc_tags(name, len)
    }

    /// The communication trace recorded so far.
    pub fn trace(&self) -> &CommTrace {
        &self.trace
    }

    /// Takes the communication trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> CommTrace {
        std::mem::take(&mut self.trace)
    }

    /// Enables or disables [`CommEvent`] recording. Aggregate counters
    /// (`bytes_sent`, `wait_total`, `hidden_total`) accumulate either way;
    /// only the per-event list stops growing. [`crate::run`] traces rank 0
    /// only — the rank it reports — or a 75k-rank run would hold tens of
    /// gigabytes of event lists.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    // ---- scope plumbing -------------------------------------------------

    /// NIC flow-sharing count for operations on a scope (paper Eq. 5):
    /// row-scope traffic contends like the row broadcasts of the placement,
    /// column-scope like the column broadcasts. World-scope collectives and
    /// point-to-point traffic are priced per-flow (one sharer), matching
    /// the historical behaviour of the drivers that issued them.
    fn scope_sharers(&self, scope: CommScope) -> u32 {
        match scope {
            CommScope::Row => self.grid.sharers_row(),
            CommScope::Col => self.grid.sharers_col(),
            CommScope::World => 1,
        }
    }

    fn group(&self, scope: CommScope) -> &Group {
        match scope {
            CommScope::Row => &self.row,
            CommScope::Col => &self.col,
            CommScope::World => &self.world,
        }
    }

    /// Runs a group operation with the scope's sharers installed,
    /// recording a [`CommEvent`] with the clock deltas around it.
    fn scoped<T>(
        &mut self,
        op: CommOp,
        scope: CommScope,
        bytes: u64,
        f: impl FnOnce(&mut Comm<PanelMsg>, &mut Group) -> (T, f64),
    ) -> (T, CommStats) {
        self.comm.set_default_sharers(self.scope_sharers(scope));
        let ts = self.comm.now();
        let w0 = self.comm.wait_total();
        let group = match scope {
            CommScope::Row => &mut self.row,
            CommScope::Col => &mut self.col,
            CommScope::World => &mut self.world,
        };
        let (out, hidden) = f(&mut self.comm, group);
        let waited = self.comm.wait_total() - w0;
        let busy = (self.comm.now() - ts) - waited;
        let stats = CommStats {
            busy,
            waited,
            hidden,
        };
        if self.tracing {
            self.trace.push(CommEvent {
                op,
                scope: Some(scope),
                ts,
                busy,
                waited,
                hidden,
                bytes,
            });
        }
        (out, stats)
    }

    // ---- typed collectives ----------------------------------------------

    /// Barrier over a scope.
    pub fn barrier(&mut self, scope: CommScope) {
        self.scoped(CommOp::Barrier, scope, 0, |comm, g| {
            g.barrier(comm);
            ((), 0.0)
        });
    }

    /// In-place elementwise-sum allreduce of an `f64` vector over a scope.
    /// Every member passes a buffer of the same length; on return the
    /// buffer holds the sum. Declared traffic is the vector's byte size.
    pub fn allreduce_f64(&mut self, scope: CommScope, buf: &mut Vec<f64>) -> CommStats {
        let bytes = 8 * buf.len() as u64;
        let v = std::mem::take(buf);
        let (out, stats) = self.scoped(CommOp::Allreduce, scope, bytes, |comm, g| {
            let mut m = PanelMsg::VecF64(v);
            g.allreduce_buf(comm, &mut m, bytes, sum_vec_f64);
            (m.into_vec64(), 0.0)
        });
        *buf = out;
        stats
    }

    /// Allreduce-max of `(value, index)` pairs over a scope: the winner is
    /// the largest `value`, ties broken toward the smaller `index` (serial
    /// IAMAX semantics). Returns the winning pair.
    pub fn allreduce_max_by(&mut self, scope: CommScope, value: f64, index: usize) -> (f64, usize) {
        let (out, _) = self.scoped(CommOp::Allreduce, scope, 16, |comm, g| {
            let mut m = PanelMsg::VecF64(vec![value, index as f64]);
            g.allreduce_buf(comm, &mut m, 16, max_by_f64);
            (m.into_vec64(), 0.0)
        });
        (out[0], out[1] as usize)
    }

    /// Broadcast of an `f64` vector from group member `root_idx`. The root
    /// passes `Some(payload)`; everyone (root included) receives the
    /// vector. `bytes` is the declared traffic (all members must agree).
    pub fn bcast_f64(
        &mut self,
        scope: CommScope,
        root_idx: usize,
        payload: Option<Vec<f64>>,
        bytes: u64,
    ) -> Vec<f64> {
        let (out, _) = self.scoped(CommOp::Bcast, scope, bytes, |comm, g| {
            let got = g.bcast(
                comm,
                root_idx,
                payload.map(PanelMsg::VecF64),
                bytes,
                BcastAlgo::Lib,
            );
            (got.into_vec64(), 0.0)
        });
        out
    }

    /// Blocking broadcast of a panel from `root_idx`.
    /// The root passes `Some(&panel)` when it has data (functional mode
    /// with a nonzero extent) and `None` otherwise — an empty payload then
    /// travels. Returns the received panel for non-root functional members
    /// (`None` on the root, whose own panel never moves, and in timing
    /// mode), plus the operation's cost split.
    pub fn bcast_panel(
        &mut self,
        scope: CommScope,
        root_idx: usize,
        mine: Option<&PanelData>,
        bytes: u64,
        algo: BcastAlgo,
    ) -> (Option<PanelData>, CommStats) {
        let (got, stats) = self.scoped(CommOp::Bcast, scope, bytes, |comm, g| {
            let msg = (g.my_idx() == root_idx).then(|| match mine {
                Some(p) => PanelMsg::Panel(p.clone()),
                None => PanelMsg::Empty,
            });
            (g.bcast(comm, root_idx, msg, bytes, algo), 0.0)
        });
        let panel = match got {
            PanelMsg::Panel(p) if self.group_idx(scope) != root_idx => Some(p),
            _ => None,
        };
        (panel, stats)
    }

    /// Posts a split-phase panel broadcast (the §IV-B look-ahead path).
    /// The root injects now and computes on; receivers record the post and
    /// join later via [`RankCtx::join_panel`], after local work has
    /// covered the flight time. The returned [`CommStats`] carries the
    /// post-phase busy time.
    pub fn ibcast_panel(
        &mut self,
        scope: CommScope,
        root_idx: usize,
        mine: Option<&PanelData>,
        bytes: u64,
        algo: BcastAlgo,
    ) -> (PanelBcast, CommStats) {
        let (req, stats) = self.scoped(CommOp::Bcast, scope, bytes, |comm, g| {
            let msg = (g.my_idx() == root_idx).then(|| match mine {
                Some(p) => PanelMsg::Panel(p.clone()),
                None => PanelMsg::Empty,
            });
            (g.ibcast(comm, root_idx, msg, bytes, algo), 0.0)
        });
        (
            PanelBcast {
                scope,
                root_idx,
                req,
                bytes,
            },
            stats,
        )
    }

    /// Joins a posted panel broadcast. Returns the received panel
    /// (`None` on the root and for empty payloads) and the join-phase cost
    /// split, whose `hidden` field reports how much of the transfer the
    /// intervening compute covered.
    pub fn join_panel(&mut self, pb: PanelBcast) -> (Option<PanelData>, CommStats) {
        let PanelBcast {
            scope,
            root_idx,
            req,
            bytes,
        } = pb;
        let (got, stats) = self.scoped(CommOp::Bcast, scope, bytes, |comm, g| {
            let (msg, info) = g.ibcast_join(comm, req);
            (msg, info.hidden)
        });
        let panel = match got {
            PanelMsg::Panel(p) if self.group_idx(scope) != root_idx => Some(p),
            _ => None,
        };
        (panel, stats)
    }

    // ---- point-to-point -------------------------------------------------

    /// Sends an `f64` vector to world rank `dst` with a tag from a claimed
    /// [`TagRange`]. Declared traffic is the vector's byte size.
    pub fn send_f64(&mut self, dst: usize, tag: u32, data: Vec<f64>) {
        let bytes = 8 * data.len() as u64;
        self.comm.set_default_sharers(1);
        let ts = self.comm.now();
        let w0 = self.comm.wait_total();
        self.comm.send(dst, tag, PanelMsg::VecF64(data), bytes);
        let waited = self.comm.wait_total() - w0;
        if self.tracing {
            self.trace.push(CommEvent {
                op: CommOp::Send,
                scope: None,
                ts,
                busy: (self.comm.now() - ts) - waited,
                waited,
                hidden: 0.0,
                bytes,
            });
        }
    }

    /// Receives an `f64` vector from world rank `src` on `tag`.
    pub fn recv_f64(&mut self, src: usize, tag: u32) -> Vec<f64> {
        let ts = self.comm.now();
        let (msg, info) = self.comm.recv(src, tag);
        if self.tracing {
            self.trace.push(CommEvent {
                op: CommOp::Recv,
                scope: None,
                ts,
                busy: (self.comm.now() - ts) - info.waited,
                waited: info.waited,
                hidden: 0.0,
                bytes: info.bytes,
            });
        }
        msg.into_vec64()
    }

    /// This rank's member index within a scope's group.
    pub fn group_idx(&self, scope: CommScope) -> usize {
        self.group(scope).my_idx()
    }
}

/// Elementwise sum of two `VecF64` payloads (allreduce combiner).
fn sum_vec_f64(a: PanelMsg, b: PanelMsg) -> PanelMsg {
    let mut x = a.into_vec64();
    for (xi, yi) in x.iter_mut().zip(b.into_vec64()) {
        *xi += yi;
    }
    PanelMsg::VecF64(x)
}

/// `[value, index]` max combiner: larger value wins, ties break toward the
/// smaller index.
fn max_by_f64(a: PanelMsg, b: PanelMsg) -> PanelMsg {
    let av = a.into_vec64();
    let bv = b.into_vec64();
    if av[0] > bv[0] || (av[0] == bv[0] && av[1] <= bv[1]) {
        PanelMsg::VecF64(av)
    } else {
        PanelMsg::VecF64(bv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use mxp_msgsim::WorldSpec;

    #[test]
    fn tag_allocator_rejects_the_old_factor_scheme() {
        // The historical scheme: row groups colored with bare `my_r`
        // (0..p_r), column groups with `0x1000 + my_c`. On any grid with
        // more than 0x1000 rows the two namespaces interleave — row color
        // 0x1000 + x IS column color of column x. Allocated ranges are
        // disjoint: the columns start after the last row.
        let mut tags = TagAllocator::new();
        let p_r = 0x1800u32; // representable: color space is 0x4000
        let p_c = 8u32;
        let rows = tags.alloc_colors("rows", p_r);
        let cols = tags.alloc_colors("cols", p_c);
        assert_eq!(rows.at(0x17FF), 0x17FF);
        assert_eq!(cols.at(0), 0x1800);
    }

    #[test]
    fn tag_allocator_is_deterministic_and_gap_filling() {
        let mut a = TagAllocator::new();
        let mut b = TagAllocator::new();
        assert_eq!(a.alloc_tags("x", 10).at(3), b.alloc_tags("x", 10).at(3));
        // The next range starts right after the previous one.
        assert_eq!(a.alloc_tags("after", 5).at(0), 10);
    }

    #[test]
    fn tag_allocator_bounds_checks() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut t = TagAllocator::new();
        t.alloc_colors("most", COLOR_SPACE - 1);
        assert!(catch_unwind(AssertUnwindSafe(|| t.alloc_colors("too-big", 2))).is_err());
        t.alloc_tags("most", P2P_TAG_SPACE - 4);
        let r = t.alloc_tags("edge", 4);
        assert_eq!(r.at(3), P2P_TAG_SPACE - 1);
        assert!(catch_unwind(AssertUnwindSafe(|| t.alloc_tags("full", 1))).is_err());
    }

    #[test]
    #[should_panic(expected = "tag index")]
    fn tag_range_rejects_out_of_range_index() {
        let mut t = TagAllocator::new();
        let r = t.alloc_tags("small", 4);
        let _ = r.at(4);
    }

    #[test]
    fn every_rank_of_a_run_shares_one_member_list_per_group() {
        use crate::solve::{run_with_backend, RunConfig};
        let grid = ProcessGrid::node_local(4, 6, 2, 2);
        for backend in [Backend::Functional, Backend::EventTimed] {
            let cfg = RunConfig::timing(crate::systems::testbed(6, 4), grid, 96, 4)
                .backend(backend)
                .build()
                .unwrap();
            let groups = run_with_backend(&cfg, |ctx| {
                (
                    ctx.coords(),
                    [&ctx.world, &ctx.row, &ctx.col].map(Group::clone),
                )
            })
            .unwrap();
            // One allocation per list: equal slice pointers.
            let shared = |a: &Group, b: &Group| std::ptr::eq(a.members(), b.members());
            let [world0, _, _] = &groups[0].1;
            for ((r, c), [world, row, col]) in &groups {
                assert!(shared(world, world0), "{backend}");
                for ((r2, c2), [_, row2, col2]) in &groups {
                    assert_eq!(shared(row, row2), r == r2, "{backend}");
                    assert_eq!(shared(col, col2), c == c2, "{backend}");
                }
            }
        }
    }

    fn two_rank_world() -> WorldSpec {
        WorldSpec::cluster(1, 2, crate::systems::testbed(1, 2).net)
    }

    #[test]
    fn typed_collectives_round_trip() {
        let members = GridMembers::new(&ProcessGrid::col_major(2, 1, 2));
        let outs = two_rank_world().run::<PanelMsg, _, _>(|c| {
            let mut ctx = RankCtx::with_members(c, &members);
            ctx.barrier(CommScope::World);
            // Sum allreduce.
            let mut v = vec![ctx.rank() as f64 + 1.0; 4];
            ctx.allreduce_f64(CommScope::Col, &mut v);
            assert_eq!(v, vec![3.0; 4]);
            // IAMAX allreduce: rank 1 has the larger value.
            let (val, idx) = ctx.allreduce_max_by(CommScope::Col, ctx.rank() as f64, ctx.rank());
            assert_eq!((val, idx), (1.0, 1));
            // Ties break toward the smaller index.
            let (_, idx) = ctx.allreduce_max_by(CommScope::Col, 5.0, ctx.rank() + 10);
            assert_eq!(idx, 10);
            // f64 bcast from group member 1.
            let payload = (ctx.group_idx(CommScope::Col) == 1).then(|| vec![7.0, 8.0]);
            let got = ctx.bcast_f64(CommScope::Col, 1, payload, 16);
            assert_eq!(got, vec![7.0, 8.0]);
            // FP32 block bcast: the root keeps its own, the receiver
            // gets a copy.
            let blk = PanelData::F32(vec![1.0, 2.0]);
            let mine = (ctx.rank() == 0).then_some(&blk);
            let (got, _) = ctx.bcast_panel(CommScope::Col, 0, mine, 8, BcastAlgo::Lib);
            assert_eq!(got, (ctx.rank() == 1).then(|| blk.clone()));
            // p2p send/recv through an allocated tag range.
            let tags = ctx.alloc_tags("test", 4);
            if ctx.rank() == 0 {
                ctx.send_f64(1, tags.at(2), vec![42.0]);
            } else {
                assert_eq!(ctx.recv_f64(0, tags.at(2)), vec![42.0]);
            }
            ctx.take_trace()
        });
        // Both ranks traced the same collective sequence.
        for t in &outs {
            assert_eq!(t.totals(CommOp::Allreduce).count, 3);
            assert_eq!(t.totals(CommOp::Barrier).count, 1);
            assert_eq!(t.totals(CommOp::Bcast).count, 2);
        }
        assert_eq!(outs[0].totals(CommOp::Send).count, 1);
        assert_eq!(outs[1].totals(CommOp::Recv).count, 1);
        // Declared byte accounting: 3 allreduces (32 + 16 + 16) + 2
        // bcasts (16 + 8) on every rank, plus the p2p payload of 8.
        let bytes: u64 = outs[0].events().iter().map(|e| e.bytes).sum();
        assert_eq!(bytes, 32 + 16 + 16 + 16 + 8 + 8);
    }

    #[test]
    fn panel_bcast_split_phase_matches_blocking() {
        use crate::msg::TrailingPrecision;
        let members = GridMembers::new(&ProcessGrid::col_major(2, 1, 2));
        let panel = PanelData::cast(TrailingPrecision::Fp32, 2, 2, &[1.0, 2.0, 3.0, 4.0], 2);
        let outs = two_rank_world().run::<PanelMsg, _, _>(|c| {
            let mut ctx = RankCtx::with_members(c, &members);
            let mine = (ctx.rank() == 0).then(|| panel.clone());
            // Blocking path.
            let (got, _) = ctx.bcast_panel(CommScope::Col, 0, mine.as_ref(), 16, BcastAlgo::Lib);
            // Split-phase path.
            let (pb, _) = ctx.ibcast_panel(CommScope::Col, 0, mine.as_ref(), 16, BcastAlgo::Lib);
            let (got2, stats) = ctx.join_panel(pb);
            (got, got2, stats.waited >= 0.0)
        });
        // Root keeps its own panel (None returned); the receiver gets it
        // on both paths.
        assert!(outs[0].0.is_none() && outs[0].1.is_none());
        assert_eq!(outs[1].0.as_ref().unwrap().len(), 4);
        assert_eq!(outs[1].1.as_ref().unwrap().len(), 4);
        assert!(outs[1].2);
    }

    #[test]
    fn trace_timestamps_are_nondecreasing() {
        let members = GridMembers::new(&ProcessGrid::col_major(2, 1, 2));
        let outs = two_rank_world().run::<PanelMsg, _, _>(|c| {
            let mut ctx = RankCtx::with_members(c, &members);
            for _ in 0..3 {
                let mut v = vec![1.0];
                ctx.allreduce_f64(CommScope::World, &mut v);
                ctx.barrier(CommScope::World);
            }
            ctx.take_trace()
        });
        for t in &outs {
            let mut prev = f64::NEG_INFINITY;
            for e in t.events() {
                assert!(e.ts >= prev);
                prev = e.ts;
            }
        }
    }
}
