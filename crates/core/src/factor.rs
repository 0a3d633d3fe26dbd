//! The distributed block LU factorization: one stepper for both
//! benchmarks, generic over a [`Policy`] with exactly two values.
//!
//! HPL-MxP ([`Mxp`], Algorithm 1, §III-C, with the §IV-B look-ahead) and
//! HPL ([`crate::hpl_dist::Hpl`]) run the same iteration on every rank:
//!
//! 1. *(look-ahead)* apply the **previous** iteration's panels to the row-
//!    and column-strips that iteration `k` is about to factor;
//! 2. **panel** — the policy factors panel `k` and hands the diagonal
//!    block to the ranks that solve against it: HPL-MxP GETRFs `A(k,k)` in
//!    FP32 and broadcasts it along its process row and column; HPL runs a
//!    pivoted FP64 panel (distributed IAMAX, row exchanges) and broadcasts
//!    `L11` along the row;
//! 3. **strip solves** — row-`k` owners TRSM the `U` strip, column-`k`
//!    owners produce the `L` strip; HPL-MxP casts both to FP16/BF16;
//! 4. the `U`-then-`L` panel broadcasts (the tunable `Bcast`/`IBcast`/
//!    `Ring*` choice; split-phase under look-ahead);
//! 5. **trailing update** — the policy's GEMM; with look-ahead this
//!    applies the *previous* panels to the remainder, so the freshly
//!    broadcast panels overlap the bulk compute.
//!
//! The stepper owns the cursor, the trailing extents, the broadcasts and
//! the look-ahead posture, the per-iteration records, the snapshot section
//! and resume. The policy owns what differs: the panel, the strip solves,
//! the storage element, the GEMM kernel, their clock charges, and what
//! [`Policy::finish`] returns (HPL-MxP's factors for refinement, HPL's
//! solution). HPL-MxP runs functionally (real panels) and in timing mode
//! (virtual payloads); kernel times always come from the device model, so
//! functional runs produce the same simulated clocks the timing runs do.

use crate::cache::MatrixKey;
use crate::checkpoint::{self, ByteReader, Snapshot, SnapshotError, DRIVER_FACTOR};
use crate::grid::ProcessGrid;
use crate::local::{trailing_col, trailing_row, Element, LocalMat, LocalMatrix};
use crate::msg::{PanelData, TrailingPrecision};
use crate::runtime::{CommScope, PanelBcast, RankCtx};
use crate::solve::RunConfig;
use crate::systems::SystemSpec;
use crate::trace::PhaseTotals;
use mxp_blas::{Diag, Side, Uplo};
use mxp_gpusim::{BlasShim, GcdModel, GcdSpeed, Workspace};
use mxp_lcg::{MatrixGen, MatrixKind};
use mxp_msgsim::BcastAlgo;

/// Execution fidelity of the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Real panels, real math, verifiable answer (small N).
    Functional,
    /// Virtual payloads, simulated clocks only (large N).
    Timing,
}

/// Per-iteration timing record on one rank (the Fig. 10 series).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterRecord {
    /// Iteration index `k`.
    pub k: usize,
    /// Simulated seconds in GETRF.
    pub getrf: f64,
    /// Simulated seconds in the two panel TRSMs.
    pub trsm: f64,
    /// Simulated seconds in CAST / TRANS_CAST.
    pub cast: f64,
    /// Simulated seconds in trailing GEMM (strips + remainder).
    pub gemm: f64,
    /// Simulated seconds busy in panel broadcasts (injection and
    /// forwarding overheads; excludes idle time, which lands in `wait`).
    pub bcast: f64,
    /// Simulated seconds spent waiting on communication.
    pub wait: f64,
    /// Panel-transfer flight seconds covered by local work between the
    /// broadcast post and its join — the overlap the look-ahead pipeline
    /// actually earned (not additional busy time; never part of totals).
    pub hidden: f64,
}

/// Receives each [`IterRecord`] a rank closes, in iteration order, once
/// nothing amends it any more: how a caller follows a rank's series while
/// the run makes it (see [`crate::solve::run_observed`]).
pub trait RecordObserver {
    /// Takes the next closed record.
    fn observe(&mut self, rec: &IterRecord);
}

/// Keeps the whole series.
impl RecordObserver for Vec<IterRecord> {
    fn observe(&mut self, rec: &IterRecord) {
        self.push(*rec);
    }
}

/// Result of the factorization on one rank.
pub struct FactorOutput {
    /// The local LU factors (functional mode only).
    pub local: Option<LocalMatrix>,
    /// Every iteration's record summed: bitwise
    /// [`PhaseTotals::from_records`] of the series the rank closed.
    pub totals: PhaseTotals,
    /// Simulated seconds from the synchronized start to this rank's finish.
    pub elapsed: f64,
}

pub(crate) mod sealed {
    /// Keeps [`super::Policy`] to its two implementations.
    pub trait Sealed {}
}

/// What HPL and HPL-MxP do differently inside one [`Factorization`] step.
/// Sealed: its two values are [`Mxp`] and [`crate::hpl_dist::Hpl`].
pub trait Policy: sealed::Sealed + Sized {
    /// Storage element of the local tiles.
    type Elem: Element;
    /// What the driven-to-completion factorization returns on this rank.
    type Output;

    /// Bytes of one broadcast panel element.
    fn panel_bytes(&self) -> u64;

    /// Factors panel `at.k` and solves the strips against it. Returns the
    /// `U` panel a row-`k` owner broadcasts down its column and the `L`
    /// panel a column-`k` owner broadcasts along its row (`None` on other
    /// ranks, for empty strips, and without tiles).
    fn factor(
        &mut self,
        ctx: &mut RankCtx,
        core: &mut Core<'_, Self::Elem>,
        at: &At,
        rec: &mut IterRecord,
    ) -> [Option<PanelData>; 2];

    /// Applies `C -= L·U` over the non-empty window `w`, charges the
    /// device time, and returns it.
    fn gemm(&self, ctx: &mut RankCtx, core: &mut Core<'_, Self::Elem>, sp: f64, w: &Window) -> f64;

    /// Completes the run once the last panel is joined and its record
    /// closed: HPL-MxP copies its factors back for refinement, HPL solves.
    fn finish(self, ctx: &mut RankCtx, core: Core<'_, Self::Elem>) -> Self::Output;
}

/// Where one step stands on this rank: the panel owners, the device speed
/// this iteration, and the trailing region after block `k` (local offsets
/// `lr`, `lc` and extents `m_loc × n_loc`).
#[derive(Clone, Copy, Debug)]
pub struct At {
    pub(crate) k: usize,
    pub(crate) sp: f64,
    pub(crate) kr: usize,
    pub(crate) kc: usize,
    pub(crate) in_row: bool,
    pub(crate) in_col: bool,
    pub(crate) lr: usize,
    pub(crate) lc: usize,
    pub(crate) m_loc: usize,
    pub(crate) n_loc: usize,
}

/// One trailing-update window: the `m × n` local block at `(lr, lc)`,
/// updated with the panel `l` from row `l_off` of its `l_ext` rows and the
/// panel `u` from position `u_off` of its `u_ext`.
#[derive(Clone, Copy, Debug)]
pub struct Window<'p> {
    pub(crate) l: &'p PanelData,
    pub(crate) u: &'p PanelData,
    pub(crate) lr: usize,
    pub(crate) lc: usize,
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) l_off: usize,
    pub(crate) l_ext: usize,
    pub(crate) u_off: usize,
    pub(crate) u_ext: usize,
}

/// A placeholder for panels that carry no data (timing ranks, zero
/// extents). Never read: a GEMM over an empty window returns before it
/// touches its inputs, and timing ranks hold no tiles to update.
const NO_PANEL: PanelData = PanelData::F32(Vec::new());

/// One buffer of the double-buffered panel storage: the panel this rank
/// holds and, under look-ahead, the posted broadcast it still owes a join.
/// A receiver's transfer rides under whatever compute happens until then;
/// a root holding its data may owe one too (deferred-injection vendor
/// `MPI_Ibcast`).
struct PanelSlot {
    panel: PanelData,
    pending: Option<PanelBcast>,
}

impl PanelSlot {
    /// The resident panel; panics if the broadcast was never joined.
    fn data(&self) -> &PanelData {
        assert!(
            self.pending.is_none(),
            "panel still in flight: join the broadcast first"
        );
        &self.panel
    }

    /// Joins the pending broadcast, if any, charging join time to
    /// `rec.bcast`/`rec.hidden` when a record is given. A receiver keeps
    /// the panel that arrived.
    fn resolve(&mut self, ctx: &mut RankCtx, rec: Option<&mut IterRecord>) {
        let Some(pb) = self.pending.take() else {
            return;
        };
        let (got, st) = ctx.join_panel(pb);
        if let Some(r) = rec {
            r.bcast += st.busy;
            r.hidden += st.hidden;
        }
        if let Some(p) = got {
            self.panel = p;
        }
    }
}

/// One iteration's `L` and `U` panels, as the trailing updates use them.
///
/// Under look-ahead they are carried to the next iteration: on broadcast
/// roots the data is held immediately; on receivers the slot stays
/// in flight until the next iteration joins the (already posted)
/// collective — that deferral is what lets the panel transfer
/// overlap the remainder GEMM in the LogP clocks, exactly the §IV-B
/// schedule.
struct Panels {
    /// Iteration that produced them.
    k: usize,
    /// `L` panel: trailing-rows × B, tight.
    l: PanelSlot,
    /// `U` panel over the trailing columns, tight.
    u: PanelSlot,
    /// Trailing extent the panels cover.
    m_loc: usize,
    n_loc: usize,
}

impl Panels {
    /// Joins the `U` broadcast, then the `L` one (a no-op for resident
    /// slots), charging the join time to `rec` when one is given.
    fn resolve(&mut self, ctx: &mut RankCtx, mut rec: Option<&mut IterRecord>) {
        self.u.resolve(ctx, rec.as_deref_mut());
        self.l.resolve(ctx, rec);
    }

    /// Applies the panels to the `m × n` window at local `(lr, lc)` inside
    /// the trailing region they cover, and returns the charged GEMM time
    /// (nothing for an empty window).
    fn apply<P: Policy>(
        &self,
        ctx: &mut RankCtx,
        policy: &P,
        core: &mut Core<'_, P::Elem>,
        sp: f64,
        (lr, lc): (usize, usize),
        (m, n): (usize, usize),
    ) -> f64 {
        if m == 0 || n == 0 {
            return 0.0;
        }
        let (lr0, lc0) = core.trailing(self.k);
        let w = Window {
            l: self.l.data(),
            u: self.u.data(),
            lr,
            lc,
            m,
            n,
            l_off: lr - lr0,
            l_ext: self.m_loc,
            u_off: lc - lc0,
            u_ext: self.n_loc,
        };
        policy.gemm(ctx, core, sp, &w)
    }
}

/// The policy-independent state of a [`Factorization`] on one rank.
pub struct Core<'a, T> {
    pub(crate) sys: &'a SystemSpec,
    pub(crate) speed: GcdSpeed,
    pub(crate) grid: ProcessGrid,
    pub(crate) my_r: usize,
    pub(crate) my_c: usize,
    pub(crate) n: usize,
    pub(crate) b: usize,
    pub(crate) n_b: usize,
    pub(crate) n_loc_r: usize,
    pub(crate) n_loc_c: usize,
    lookahead: bool,
    algo: BcastAlgo,
    /// This rank's tiles; `None` on timing ranks.
    pub(crate) local: Option<LocalMat<T>>,
    /// The global pivot record (HPL; empty without pivoting). Every rank
    /// learns every panel's pivots.
    pub(crate) pivots: Vec<usize>,
    /// The newest record, still amended by `drain` and `finish`.
    last: Option<IterRecord>,
    /// Where closed records go, if anywhere.
    observer: Option<&'a mut dyn RecordObserver>,
    totals: PhaseTotals,
    pub(crate) t0: f64,
    k: usize,
}

impl<T: Element> Core<'_, T> {
    /// Local offsets of the trailing region after block `k`.
    fn trailing(&self, k: usize) -> (usize, usize) {
        let (grid, b) = (&self.grid, self.b);
        (
            trailing_row(grid, self.my_r, k, b),
            trailing_col(grid, self.my_c, k, b),
        )
    }

    /// Simulated seconds to move this rank's tiles between host and
    /// device at iteration `k`'s speed — whichever fidelity hosts them.
    pub(crate) fn copy_time(&self, k: usize) -> f64 {
        let bytes = T::BYTES as u64 * self.n_loc_r as u64 * self.n_loc_c as u64;
        self.sys.gcd.h2d_time(bytes) / self.speed.at(k)
    }

    /// Posts this iteration's broadcast of one panel of `extent` rows of
    /// `elem`-byte elements from grid member `root` of `scope` (which
    /// passes its panel as `mine`) and returns the slot the panel lands in.
    ///
    /// With look-ahead the broadcast is split-phase: the root injects now and
    /// keeps its own data — joining at once if its request already resolved —
    /// while receivers keep the in-flight request and join next iteration,
    /// after the remainder GEMM has covered the flight time. Without
    /// look-ahead everyone completes the collective immediately and receivers
    /// unpack it.
    fn post(
        &self,
        ctx: &mut RankCtx,
        (scope, root): (CommScope, usize),
        mine: Option<PanelData>,
        extent: usize,
        elem: u64,
        rec: &mut IterRecord,
    ) -> PanelSlot {
        let bytes = elem * (extent * self.b) as u64;
        let (got, pending) = if self.lookahead {
            let (pb, st) = ctx.ibcast_panel(scope, root, mine.as_ref(), bytes, self.algo);
            rec.bcast += st.busy + st.waited;
            if ctx.group_idx(scope) == root && pb.is_resolved() {
                let _ = ctx.join_panel(pb);
                (None, None)
            } else {
                (None, Some(pb))
            }
        } else {
            let (got, st) = ctx.bcast_panel(scope, root, mine.as_ref(), bytes, self.algo);
            rec.bcast += st.busy;
            (got, None)
        };
        let panel = mine.or(got).unwrap_or(NO_PANEL);
        PanelSlot { panel, pending }
    }

    /// Closes the open record (if any) and opens `next` in its place.
    fn close_last(&mut self, next: Option<IterRecord>) {
        let Some(rec) = std::mem::replace(&mut self.last, next) else {
            return;
        };
        self.totals.add(&rec);
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.observe(&rec);
        }
    }
}

/// One rank's snapshot section, the layout both policies write: the
/// synchronized start time, the pivot record (HPL), and the raw bits of
/// the local tiles when the rank holds them. Look-ahead state is never
/// encoded — the stepper drained first, so there is none.
struct Section<T> {
    t0: f64,
    pivots: Vec<usize>,
    local: Option<Vec<T>>,
}

impl<T: Element> Section<T> {
    fn encode(out: &mut Vec<u8>, t0: f64, pivots: &[usize], local: Option<&[T]>) {
        checkpoint::put_f64(out, t0);
        for &p in pivots {
            checkpoint::put_u64(out, p as u64);
        }
        match local {
            Some(data) => {
                out.push(1);
                checkpoint::put_u64(out, data.len() as u64);
                out.reserve(T::BYTES * data.len());
                for &v in data {
                    v.put(out);
                }
            }
            None => out.push(0),
        }
    }

    /// Decodes a section whose pivot record holds `n_pivots` entries.
    fn decode(bytes: &[u8], n_pivots: usize) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let t0 = r.f64()?;
        let pivots = (0..n_pivots)
            .map(|_| r.u64().map(|p| p as usize))
            .collect::<Result<_, _>>()?;
        let local = if r.u8()? != 0 {
            let len = r.u64()? as usize;
            let raw = r.bytes(len.checked_mul(T::BYTES).ok_or(SnapshotError::Truncated)?)?;
            Some(raw.chunks_exact(T::BYTES).map(T::get).collect())
        } else {
            None
        };
        if !r.is_done() {
            return Err(SnapshotError::Truncated);
        }
        Ok(Section { t0, pivots, local })
    }
}

/// The factorization as an explicit resumable stepper: the distributed
/// panel cursor, local tiles, in-flight look-ahead posture, and per-rank
/// timing records, advanced one panel iteration at a time by
/// [`crate::solve::step_until_done`].
///
/// Each iteration's [`IterRecord`] stays open until the next one is
/// pushed (or `finish` runs), because the look-ahead joins of a
/// checkpoint drain and of `finish` still charge it; then it is folded
/// into per-rank [`PhaseTotals`] and handed to the rank's
/// [`RecordObserver`], if it has one.
///
/// Panel-boundary checkpointing drives it with a
/// [`crate::checkpoint::RunCheckpointer`], draining the look-ahead posture
/// and encoding a snapshot section at every boundary; a restarted run
/// rebuilds the state from its section and steps on bit-identically.
pub struct Factorization<'a, P: Policy> {
    pub(crate) core: Core<'a, P::Elem>,
    pub(crate) policy: P,
    /// Look-ahead panels still to be applied.
    prev: Option<Panels>,
}

/// The HPL-MxP factorization stepper.
pub type FactorState<'a> = Factorization<'a, Mxp>;

impl<'a, P: Policy> Factorization<'a, P> {
    /// The stepper at panel cursor 0 with no tiles, empty records and no
    /// panels in flight; blocking library broadcasts, no look-ahead.
    pub(crate) fn assemble(
        ctx: &RankCtx,
        sys: &'a SystemSpec,
        policy: P,
        n: usize,
        b: usize,
        speed: GcdSpeed,
    ) -> Self {
        let grid = *ctx.grid();
        let (my_r, my_c) = ctx.coords();
        let core = Core {
            sys,
            speed,
            grid,
            my_r,
            my_c,
            n,
            b,
            n_b: n / b,
            n_loc_r: n / grid.p_r,
            n_loc_c: n / grid.p_c,
            lookahead: false,
            algo: BcastAlgo::Lib,
            local: None,
            pivots: Vec::new(),
            last: None,
            observer: None,
            totals: PhaseTotals::default(),
            t0: 0.0,
            k: 0,
        };
        let prev = None;
        Factorization { core, policy, prev }
    }

    /// Synchronizes the start: benchmark time starts after this barrier.
    pub(crate) fn start(mut self, ctx: &mut RankCtx) -> Self {
        ctx.barrier(CommScope::World);
        self.core.t0 = ctx.now();
        self
    }

    /// Rebuilds the stepper from this rank's section of a panel-boundary
    /// snapshot and jumps the rank's clock to the drained boundary; a
    /// `functional` stepper takes the snapshot's tiles.
    ///
    /// A fresh context sits at simulated time 0, so the clock charge is an
    /// exact `f64` and the restarted run's clocks — and therefore its
    /// message schedule and event signatures — are bit-identical from the
    /// boundary on to the run that drained the snapshot. A resumed run's
    /// observer sees only the tail it actually executes.
    pub(crate) fn restore(
        mut self,
        ctx: &mut RankCtx,
        snap: &Snapshot,
        functional: bool,
    ) -> Result<Self, SnapshotError> {
        let core = &mut self.core;
        let section = checkpoint::resume_rank(ctx, snap)?;
        let sec = Section::<P::Elem>::decode(section, core.pivots.len())?;
        (core.t0, core.pivots, core.k) = (sec.t0, sec.pivots, snap.header.k as usize);
        match sec.local {
            Some(data) if data.len() != core.n_loc_r * core.n_loc_c => {
                return Err(SnapshotError::ConfigMismatch("local matrix extent"))
            }
            Some(data) if functional => {
                let coord = (core.my_r, core.my_c);
                core.local = Some(LocalMat::from_data(&core.grid, coord, core.n, core.b, data));
            }
            None if functional => return Err(SnapshotError::ConfigMismatch("fidelity")),
            // A functional snapshot can seed a timing resume; the tiles
            // are simply not carried.
            _ => {}
        }
        Ok(self)
    }

    /// Hands every record this rank closes to `observer` (none by
    /// default). Simulated results are the same either way.
    pub(crate) fn observed(mut self, observer: Option<&'a mut dyn RecordObserver>) -> Self {
        self.core.observer = observer;
        self
    }

    /// Panel iterations completed so far (the distributed panel cursor).
    pub(crate) fn cursor(&self) -> usize {
        self.core.k
    }

    /// `true` when no panels remain and `finish` may run.
    pub(crate) fn done(&self) -> bool {
        self.core.k >= self.core.n_b
    }

    /// Advances one panel iteration, charging the rank's clock through
    /// `ctx`.
    pub(crate) fn step(&mut self, ctx: &mut RankCtx) {
        debug_assert!(!self.done());
        let Factorization { core, policy, prev } = self;
        let (k, b) = (core.k, core.b);
        let (kr, kc) = core.grid.owner_of_block(k, k);
        let (lr, lc) = core.trailing(k);
        let at = At {
            k,
            sp: core.speed.at(k),
            kr,
            kc,
            in_row: core.my_r == kr,
            in_col: core.my_c == kc,
            lr,
            lc,
            m_loc: core.n_loc_r - lr,
            n_loc: core.n_loc_c - lc,
        };
        let mut rec = IterRecord {
            k,
            ..Default::default()
        };
        let wait_at_start = ctx.wait_total();

        // ---- 1. Resolve the previous panels, then strip updates ---------
        // Receivers join the broadcasts the roots posted last iteration;
        // roots already hold their panels. The panels have therefore been
        // in flight during the previous remainder GEMM, and the join
        // reports how much of the transfer that compute actually hid.
        if let Some(p) = prev.as_mut() {
            debug_assert!(core.lookahead && p.k + 1 == k);
            p.resolve(ctx, Some(&mut rec));
            let at_prev = core.trailing(p.k);
            if at.in_row && p.n_loc > 0 {
                // Row strip: the B rows of block k × all trailing columns.
                let rows = (b.min(p.m_loc), p.n_loc);
                rec.gemm += p.apply(ctx, policy, core, at.sp, at_prev, rows);
            }
            if at.in_col && at.m_loc > 0 {
                // Column strip: trailing rows below block k × its B cols.
                let cols = (at.m_loc, b.min(p.n_loc));
                rec.gemm += p.apply(ctx, policy, core, at.sp, (lr, at_prev.1), cols);
            }
        }

        // ---- 2. Panel and strip solves, 3. panel broadcasts -------------
        // U along the column (root: the in-row member), then L along the
        // row (root: the in-column member).
        let [u_mine, l_mine] = policy.factor(ctx, core, &at, &mut rec);
        let (elem, m_loc, n_loc) = (policy.panel_bytes(), at.m_loc, at.n_loc);
        let (col, row) = ((CommScope::Col, kr), (CommScope::Row, kc));
        let u = core.post(ctx, col, u_mine, n_loc, elem, &mut rec);
        let l = core.post(ctx, row, l_mine, m_loc, elem, &mut rec);

        // ---- 4. Trailing update -----------------------------------------
        let next = Panels {
            k,
            l,
            u,
            m_loc,
            n_loc,
        };
        let whole = ((lr, lc), (m_loc, n_loc));
        if core.lookahead {
            // Apply the *previous* panels to the remainder (everything
            // after block k in both dimensions), then stash this
            // iteration's panels for the next strips.
            if let Some(p) = prev.take() {
                rec.gemm += p.apply(ctx, policy, core, at.sp, whole.0, whole.1);
            }
            *prev = Some(next);
        } else {
            // Immediate full trailing update with this iteration's panels.
            rec.gemm += next.apply(ctx, policy, core, at.sp, whole.0, whole.1);
        }

        rec.wait = ctx.wait_total() - wait_at_start;
        core.close_last(Some(rec));
        core.k = k + 1;
    }

    /// Quiesces the look-ahead posture at a panel boundary: joins any
    /// in-flight panel broadcasts and applies the pending panels to this
    /// rank's whole trailing region — the union of the strip and remainder
    /// updates the next iterations would have applied — so the local tiles
    /// are a pure function of the cursor and can be snapshotted.
    pub(crate) fn drain(&mut self, ctx: &mut RankCtx) {
        let Factorization { core, policy, prev } = self;
        let Some(mut p) = prev.take() else {
            return;
        };
        debug_assert!(p.k + 1 == core.k);
        p.resolve(ctx, core.last.as_mut());
        let (sp, region) = (core.speed.at(core.k), core.trailing(p.k));
        let dt = p.apply(ctx, policy, core, sp, region, (p.m_loc, p.n_loc));
        if let Some(r) = core.last.as_mut() {
            r.gemm += dt;
        }
    }

    /// Appends this rank's snapshot section; only after `drain`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let core = &self.core;
        debug_assert!(self.prev.is_none(), "encode requires a drained stepper");
        let local = core.local.as_ref().map(|l| &l.data[..]);
        Section::encode(out, core.t0, &core.pivots, local);
    }

    /// Modeled bytes of one checkpoint drain on this rank.
    pub(crate) fn checkpoint_bytes(&self) -> u64 {
        // The modeled drain: the local tiles (and the pivot record) leave
        // the device, whichever fidelity hosts them — functional and
        // timing clocks must agree under identical checkpoint configs.
        let core = &self.core;
        let tiles = core.n_loc_r as u64 * core.n_loc_c as u64;
        P::Elem::BYTES as u64 * tiles + 8 * core.pivots.len() as u64
    }

    /// Completes the run: the final joins, then the policy's `finish`.
    pub(crate) fn finish(self, ctx: &mut RankCtx) -> P::Output {
        // Look-ahead leaves the last panels pending; their trailing region
        // is empty (k = n_b - 1 has no blocks after it), so nothing to
        // flush. Ranks still owing a join on the final (zero-extent)
        // broadcasts must complete it so every posted message is consumed.
        let Factorization {
            mut core,
            policy,
            mut prev,
        } = self;
        if let Some(p) = prev.as_mut() {
            p.resolve(ctx, core.last.as_mut());
        }
        core.close_last(None);
        policy.finish(ctx, core)
    }
}

/// HPL-MxP: FP32 storage, an unpivoted GETRF panel with diagonal-block
/// broadcasts, panels cast to the [`TrailingPrecision`] for the
/// mixed-precision trailing GEMM, and factors handed to iterative
/// refinement.
pub struct Mxp {
    prec: TrailingPrecision,
    shim: BlasShim,
    ws: Workspace,
}

impl sealed::Sealed for Mxp {}

impl<'a> Factorization<'a, Mxp> {
    /// Builds the stepper `cfg` describes on this rank. A fresh run starts
    /// at panel cursor 0: it materializes the local share (functional runs,
    /// from `cfg.cache` when one is attached), charges the host-to-device
    /// copy, and synchronizes — benchmark time starts after this barrier.
    /// With `cfg.restart` set, the stepper is instead rebuilt from this
    /// rank's section of the snapshot and the rank's clock jumps to the
    /// drained boundary; a functional snapshot may seed a timing resume.
    ///
    /// # Panics
    ///
    /// If the restart section fails to decode. [`RunConfig`]'s builder
    /// validated the header, so such a section is a corrupted file that
    /// somehow passed its checksum — loud is better than subtly wrong.
    pub fn new(ctx: &mut RankCtx, cfg: &'a RunConfig, speed: GcdSpeed) -> Self {
        let policy = Mxp {
            prec: cfg.prec,
            shim: BlasShim::new(cfg.sys.gcd.vendor),
            ws: Workspace::default(),
        };
        let mut st = Self::assemble(ctx, &cfg.sys, policy, cfg.n, cfg.b, speed);
        st.core.lookahead = cfg.lookahead;
        st.core.algo = cfg.algo;
        let functional = cfg.fidelity == Fidelity::Functional;
        if let Some(snap) = cfg.restart.as_deref() {
            return st
                .restore(ctx, snap, functional)
                .unwrap_or_else(|e| panic!("resume from snapshot: {e}"));
        }
        if functional {
            st.core.local = Some(materialize(ctx.grid(), ctx.coords(), cfg));
        }
        ctx.charge(st.core.copy_time(0));
        st.start(ctx)
    }
}

impl Policy for Mxp {
    type Elem = f32;
    type Output = FactorOutput;

    fn panel_bytes(&self) -> u64 {
        self.prec.bytes_per_elem()
    }

    /// The owner GETRFs `A(k,k)` in FP32 and the block travels along its
    /// row, then its column (functional receivers end up holding it,
    /// timing ranks stay empty-handed). Row-`k` owners then solve
    /// `L11·U12 = A12` and TRANS_CAST the strip; column-`k` owners solve
    /// `L21·U11 = A21` and CAST it.
    fn factor(
        &mut self,
        ctx: &mut RankCtx,
        core: &mut Core<'_, f32>,
        at: &At,
        rec: &mut IterRecord,
    ) -> [Option<PanelData>; 2] {
        let (b, k, sp) = (core.b, at.k, at.sp);
        let dev = &core.sys.gcd;
        let mut diag = None;
        if at.in_row && at.in_col {
            if let Some(loc) = core.local.as_mut() {
                let (lr, lc) = (loc.row_of_block(k), loc.col_of_block(k));
                let off = loc.idx(lr, lc);
                let lda = loc.lda();
                self.shim.sgetrf_buffer_size(b, &mut self.ws);
                self.shim
                    .sgetrf(b, &mut loc.data[off..], lda, &mut self.ws)
                    .expect("diagonally dominant block must factor");
                diag = Some(PanelData::F32(loc.pack(lr, b, lc, b)));
            }
            let dt = dev.getrf_time(b) / sp;
            ctx.charge(dt);
            rec.getrf += dt;
        }
        let diag_bytes = 4 * (b * b) as u64;
        for (on, scope, root) in [
            (at.in_row, CommScope::Row, at.kc),
            (at.in_col, CommScope::Col, at.kr),
        ] {
            if on {
                let (got, _) =
                    ctx.bcast_panel(scope, root, diag.as_ref(), diag_bytes, BcastAlgo::Lib);
                diag = diag.or(got);
            }
        }
        let diag = match &diag {
            Some(PanelData::F32(d)) => Some(&d[..]),
            _ => None,
        };
        let mut strips = [None, None];
        if at.in_row && at.n_loc > 0 {
            strips[0] = core.local.as_mut().map(|loc| {
                let d = diag.expect("row owner has the diagonal");
                let off = loc.idx(loc.row_of_block(k), at.lc);
                let (lda, a) = (loc.lda(), &mut loc.data[off..]);
                self.shim.strsm(
                    Side::Left,
                    Uplo::Lower,
                    Diag::Unit,
                    b,
                    at.n_loc,
                    1.0,
                    d,
                    b,
                    a,
                    lda,
                );
                PanelData::trans_cast(self.prec, b, at.n_loc, a, lda)
            });
            charge_solve(ctx, dev, b, at.n_loc, sp, rec);
        }
        if at.in_col && at.m_loc > 0 {
            strips[1] = core.local.as_mut().map(|loc| {
                let d = diag.expect("column owner has the diagonal");
                let off = loc.idx(at.lr, loc.col_of_block(k));
                let (lda, a) = (loc.lda(), &mut loc.data[off..]);
                self.shim.strsm(
                    Side::Right,
                    Uplo::Upper,
                    Diag::NonUnit,
                    at.m_loc,
                    b,
                    1.0,
                    d,
                    b,
                    a,
                    lda,
                );
                PanelData::cast(self.prec, at.m_loc, b, a, lda)
            });
            charge_solve(ctx, dev, b, at.m_loc, sp, rec);
        }
        strips
    }

    /// `C -= L16 · U16ᵀ` with the cast panels (`U` travels transposed, so
    /// its offset and extent count rows of `Uᵀ`).
    fn gemm(&self, ctx: &mut RankCtx, core: &mut Core<'_, f32>, sp: f64, w: &Window) -> f64 {
        let b = core.b;
        if let Some(loc) = core.local.as_mut() {
            let (off, ldc) = (loc.idx(w.lr, w.lc), loc.lda());
            let c = &mut loc.data[off..];
            PanelData::apply_gemm(
                w.l, w.u, w.m, w.n, b, w.l_off, w.l_ext, w.u_off, w.u_ext, c, ldc,
            );
        }
        // The device-model LDA is the stored leading dimension of the local
        // matrix (fixed at N_Lr for the whole run — the Fig. 7 effect).
        let dev = &core.sys.gcd;
        let dt =
            dev.gemm_mixed_time(w.m, w.n, b, core.n_loc_r) * prec_time_factor(dev, self.prec) / sp;
        ctx.charge(dt);
        dt
    }

    fn finish(self, ctx: &mut RankCtx, core: Core<'_, f32>) -> FactorOutput {
        // Copy factors back to the host for iterative refinement (§III-C).
        ctx.charge(core.copy_time(core.n_b));
        FactorOutput {
            elapsed: ctx.now() - core.t0,
            local: core.local,
            totals: core.totals,
        }
    }
}

/// Charges one strip's TRSM, then its CAST, at device speed `sp`.
fn charge_solve(
    ctx: &mut RankCtx,
    dev: &GcdModel,
    b: usize,
    ext: usize,
    sp: f64,
    rec: &mut IterRecord,
) {
    let dt = dev.trsm_time(b, ext) / sp;
    ctx.charge(dt);
    rec.trsm += dt;
    let dt = dev.cast_time(b * ext) / sp;
    ctx.charge(dt);
    rec.cast += dt;
}

/// Materializes this rank's local share for a functional run: served from
/// the cache when one is attached and the key is resident (a memcpy),
/// generated from the LCG streams otherwise. Cache fills run the identical
/// generation code, so the two paths are bitwise-indistinguishable.
fn materialize(grid: &ProcessGrid, coord: (usize, usize), cfg: &RunConfig) -> LocalMatrix {
    let fresh = || {
        let mut m = LocalMatrix::new(grid, coord, cfg.n, cfg.b);
        m.fill_from(&MatrixGen::new(cfg.seed, cfg.n, MatrixKind::DiagDominant));
        m
    };
    let Some(cache) = cfg.cache.as_deref() else {
        return fresh();
    };
    let key = MatrixKey {
        seed: cfg.seed,
        n: cfg.n,
        b: cfg.b,
        p_r: grid.p_r,
        p_c: grid.p_c,
        coord,
        kind: MatrixKind::DiagDominant,
    };
    let data = cache.get_or_fill(key, || fresh().data);
    LocalMatrix::from_data(grid, coord, cfg.n, cfg.b, data.as_ref().clone())
}

/// Runs the distributed factorization `cfg` describes on this rank (a
/// fresh run, or a resumed one when `cfg.restart` is set). `speed` is the
/// GCD's speed state — a plain `f64` fleet multiplier (1.0 = nominal; times
/// are divided by it) or a full [`GcdSpeed`] whose injected faults make the
/// multiplier iteration-dependent. The process grid, sub-communicators,
/// and comm instrumentation all come from `ctx`.
pub fn factor(ctx: &mut RankCtx, cfg: &RunConfig, speed: impl Into<GcdSpeed>) -> FactorOutput {
    let state = FactorState::new(ctx, cfg, speed.into());
    crate::solve::step_until_done(ctx, state, None).0
}

/// Re-grids a factorization snapshot onto a new (smaller) process grid —
/// the elastic recovery path. Every block column/row of the checkpointed
/// matrix is re-dealt block-cyclically to its owner under `new_grid`, and
/// every surviving rank resumes from the *latest* checkpointed clock (the
/// re-deal is a synchronizing redistribution). The result is a snapshot
/// whose header describes the new grid, loadable by a run configured for
/// it.
///
/// Elastic restarts change the communication schedule, so unlike same-grid
/// restarts they are *not* bit-identical to the uninterrupted run — they
/// are the "finish on the survivors" path, verified by convergence.
pub fn regrid_snapshot(
    snap: &Snapshot,
    old_grid: &ProcessGrid,
    new_grid: &ProcessGrid,
) -> Result<Snapshot, SnapshotError> {
    let n = snap.header.n as usize;
    let b = snap.header.b as usize;
    if snap.header.driver != DRIVER_FACTOR {
        return Err(SnapshotError::ConfigMismatch("driver"));
    }
    if old_grid.p_r != snap.header.p_r as usize || old_grid.p_c != snap.header.p_c as usize {
        return Err(SnapshotError::ConfigMismatch("old grid"));
    }
    if !n.is_multiple_of(new_grid.p_r * b) || !n.is_multiple_of(new_grid.p_c * b) {
        return Err(SnapshotError::ConfigMismatch("new grid divisibility"));
    }
    // Decode every old rank's section.
    let mut t0 = 0.0_f64;
    let mut olds = Vec::with_capacity(snap.sections.len());
    for (rank, section) in snap.sections.iter().enumerate() {
        let sec = Section::<f32>::decode(section, 0)?;
        t0 = t0.max(sec.t0);
        let coord = old_grid.coord_of(rank);
        olds.push(
            sec.local
                .map(|data| LocalMatrix::from_data(old_grid, coord, n, b, data)),
        );
    }
    let functional = olds.iter().any(Option::is_some);
    if functional && olds.iter().any(Option::is_none) {
        return Err(SnapshotError::ConfigMismatch("mixed section fidelity"));
    }
    // Re-deal the tiles to their new owners.
    let n_b = n / b;
    let clock = snap.max_clock();
    let mut sections = Vec::with_capacity(new_grid.size());
    for rank in 0..new_grid.size() {
        let (r, c) = new_grid.coord_of(rank);
        let mine = functional.then(|| {
            let mut mine = LocalMatrix::new(new_grid, (r, c), n, b);
            for jb in (c..n_b).step_by(new_grid.p_c) {
                for ib in (r..n_b).step_by(new_grid.p_r) {
                    let (or, oc) = old_grid.owner_of_block(ib, jb);
                    let src = olds[old_grid.rank_of(or, oc)]
                        .as_ref()
                        .expect("checked functional");
                    let blk = src.pack(src.row_of_block(ib), b, src.col_of_block(jb), b);
                    let (dlr, dlc) = (mine.row_of_block(ib), mine.col_of_block(jb));
                    for (j, col) in blk.chunks_exact(b).enumerate() {
                        let di = mine.idx(dlr, dlc + j);
                        mine.data[di..di + b].copy_from_slice(col);
                    }
                }
            }
            mine
        });
        let mut out = Vec::new();
        Section::encode(&mut out, t0, &[], mine.as_ref().map(|m| &m.data[..]));
        sections.push(out);
    }
    let mut header = snap.header;
    header.p_r = new_grid.p_r as u64;
    header.p_c = new_grid.p_c as u64;
    header.ranks = new_grid.size() as u64;
    Ok(Snapshot {
        header,
        clocks: vec![clock; new_grid.size()],
        // Re-gridded restarts change the communication schedule and give
        // up bitwise equivalence anyway; survivors start a fresh wait
        // accumulator.
        waits: vec![0.0; new_grid.size()],
        sections,
    })
}

/// Trailing-GEMM slowdown of the chosen panel format relative to the
/// FP16 tensor path: 16-bit formats ride the matrix cores; FP32 inputs
/// fall back to the vector FP32 pipeline.
fn prec_time_factor(dev: &GcdModel, prec: TrailingPrecision) -> f64 {
    match prec {
        TrailingPrecision::Fp16 | TrailingPrecision::Bf16 => 1.0,
        TrailingPrecision::Fp32 => dev.fp16_peak / dev.fp32_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use crate::solve::{run_with_backend, step_until_done, RunConfig};
    use crate::systems::testbed;

    /// Every rank's factorization output and the series it closed.
    fn run_factor(
        grid: ProcessGrid,
        n: usize,
        b: usize,
        algo: BcastAlgo,
        lookahead: bool,
        fidelity: Fidelity,
    ) -> Vec<(FactorOutput, Vec<IterRecord>)> {
        let q = grid.gcds_per_node();
        let builder = match fidelity {
            Fidelity::Functional => RunConfig::functional,
            Fidelity::Timing => RunConfig::timing,
        };
        let cfg = builder(testbed(grid.size() / q, q), grid, n, b)
            .algo(algo)
            .lookahead(lookahead)
            .seed(42)
            .build_or_panic();
        run_with_backend(&cfg, |ctx| {
            let mut series = Vec::new();
            let state = FactorState::new(ctx, &cfg, 1.0.into()).observed(Some(&mut series));
            (step_until_done(ctx, state, None).0, series)
        })
        .expect("testbed grids fit the functional backend")
    }

    /// Gathers the distributed factors into one dense LU and checks
    /// `L·U ≈ A` at mixed-precision accuracy.
    fn check_reconstruction(grid: ProcessGrid, n: usize, b: usize, algo: BcastAlgo, la: bool) {
        let outs = run_factor(grid, n, b, algo, la, Fidelity::Functional);
        let gen = MatrixGen::new(42, n, MatrixKind::DiagDominant);
        // Assemble the global LU from local pieces.
        let mut lu = vec![0.0f64; n * n];
        for (rank, (out, _)) in outs.iter().enumerate() {
            let loc = out.local.as_ref().unwrap();
            let (r, c) = grid.coord_of(rank);
            let n_b = n / b;
            for jb in (c..n_b).step_by(grid.p_c) {
                for ib in (r..n_b).step_by(grid.p_r) {
                    let lr = loc.row_of_block(ib);
                    let lc = loc.col_of_block(jb);
                    for j in 0..b {
                        for i in 0..b {
                            lu[(jb * b + j) * n + ib * b + i] =
                                loc.data[loc.idx(lr + i, lc + j)] as f64;
                        }
                    }
                }
            }
        }
        // Reconstruct and compare.
        let mut worst: f64 = 0.0;
        let mut recon = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                let kmax = i.min(j);
                for l in 0..=kmax {
                    let lval = if l == i { 1.0 } else { lu[l * n + i] };
                    let uval = lu[j * n + l];
                    if l < i {
                        acc += lval * uval;
                    } else {
                        acc += uval; // l == i <= j: L diagonal is 1
                    }
                }
                recon[j * n + i] = acc;
            }
        }
        for j in 0..n {
            for i in 0..n {
                let d = (recon[j * n + i] - gen.entry(i, j)).abs();
                worst = worst.max(d);
            }
        }
        // FP16 panels bound the reconstruction error; scale by the
        // diagonal magnitude.
        let tol = 2.0 * mxp_precision::F16_EPS * gen.diag_value() * (n / b) as f64;
        assert!(
            worst < tol,
            "reconstruction error {worst} > {tol} ({algo:?}, la={la})"
        );
    }

    #[test]
    fn single_rank_factorization_is_correct() {
        check_reconstruction(
            ProcessGrid::col_major(1, 1, 1),
            64,
            16,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn two_by_two_grid_matches() {
        check_reconstruction(
            ProcessGrid::col_major(2, 2, 2),
            64,
            8,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn lookahead_produces_same_factors() {
        check_reconstruction(ProcessGrid::col_major(2, 2, 2), 64, 8, BcastAlgo::Lib, true);
    }

    #[test]
    fn ring_broadcasts_preserve_correctness() {
        for algo in [
            BcastAlgo::Ring1,
            BcastAlgo::Ring1M,
            BcastAlgo::Ring2M,
            BcastAlgo::IBcast,
        ] {
            check_reconstruction(ProcessGrid::col_major(2, 2, 4), 48, 8, algo, true);
        }
    }

    #[test]
    fn rectangular_grid() {
        check_reconstruction(
            ProcessGrid::col_major(2, 4, 8),
            64,
            8,
            BcastAlgo::Lib,
            false,
        );
        check_reconstruction(ProcessGrid::col_major(4, 2, 8), 64, 8, BcastAlgo::Lib, true);
    }

    #[test]
    fn node_local_grid_placement_is_numerically_identical() {
        // Placement changes timing, never results.
        check_reconstruction(
            ProcessGrid::node_local(2, 2, 2, 2),
            32,
            8,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn timing_mode_produces_clocks_without_data() {
        let outs = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            256,
            32,
            BcastAlgo::Ring2M,
            true,
            Fidelity::Timing,
        );
        for (out, records) in &outs {
            assert!(out.local.is_none());
            assert!(out.elapsed > 0.0);
            assert_eq!(records.len(), 8);
        }
    }

    #[test]
    fn functional_and_timing_clocks_agree() {
        // The same schedule must produce identical simulated time whether
        // or not the math actually runs.
        let f = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            64,
            8,
            BcastAlgo::Lib,
            true,
            Fidelity::Functional,
        );
        let t = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            64,
            8,
            BcastAlgo::Lib,
            true,
            Fidelity::Timing,
        );
        for ((a, _), (b, _)) in f.iter().zip(&t) {
            assert!(
                (a.elapsed - b.elapsed).abs() < 1e-9,
                "functional {} vs timing {}",
                a.elapsed,
                b.elapsed
            );
        }
    }

    #[test]
    fn slow_gcd_stalls_everyone() {
        // §VI-B: "a single slow GPU can severely worsen total performance
        // by stalling the pipeline".
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 256, 32)
            .lookahead(false)
            .seed(1)
            .build_or_panic();
        let nominal = run_with_backend(&cfg, |ctx| factor(ctx, &cfg, 1.0).elapsed)
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max);
        let degraded = run_with_backend(&cfg, |ctx| {
            let speed = if ctx.rank() == 3 { 0.5 } else { 1.0 };
            factor(ctx, &cfg, speed).elapsed
        })
        .unwrap()
        .into_iter()
        .fold(0.0, f64::max);
        assert!(
            degraded > 1.2 * nominal,
            "slow GCD must stall the pipeline: {degraded} vs {nominal}"
        );
    }
}
