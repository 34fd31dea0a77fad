//! Trace-once simulation of one workload across a fleet of machines.
//!
//! The paper characterizes every workload on seven machines (Table I).
//! The instruction trace for a (profile, seed) pair is machine-independent,
//! so simulating the fleet as N independent per-machine runs expands the
//! same trace N times and pays the generator's cost N times. The
//! [`FleetSimulator`] streams the trace **once** and fans each instruction
//! out across every machine's microarchitectural state, producing counters
//! bit-identical to the independent runs. It is the crate's only
//! simulator: a single machine runs as a one-lane fleet.
//!
//! Two observations make the fused kernel fast *and* exact:
//!
//! 1. **Structure purity.** Each machine's caches, TLBs and branch
//!    predictor consume only the (pc, data address, branch outcome)
//!    streams, which depend on (profile, seed) alone; structures of
//!    different machines never interact. Stepping every structure with the
//!    identical event in program order therefore visits exactly the states
//!    of the independent simulation — and the per-instruction fan-out keeps
//!    the structures' loop-carried update chains independent, so they
//!    overlap in the host pipeline just as an inline simulation's do.
//!
//! 2. **Config-group deduplication.** A structure's entire evolution is a
//!    deterministic function of (its configuration, its input stream). The
//!    input streams of L1 structures are machine-independent, so machines
//!    with an identical L1 front-end — the ([`CacheConfig`] of L1I/L1D
//!    plus prefetcher) triple, an L1 TLB config, or a [`PredictorKind`] —
//!    share **one** simulated instance and copy its counters. The shared
//!    levels (L2/L3, L2 TLB) are still per machine, driven from the
//!    front-end's hit/miss/install outcomes. Those events are not rare:
//!    every L1 miss reaches them, and every stream-prefetch fill calls
//!    `install_shared` on each back lane its data front feeds, so on
//!    prefetch-heavy sweeps — prewarm above all — the L2/L3 back lanes
//!    take a large share of the kernel's time. In the paper's Table IV
//!    fleet the dedup collapses 7 L1 cache front-ends to 4 and 7+7 L1
//!    TLBs to 4+5, and pays trace generation once instead of 7 times.
//!
//! On top of the dedup, the kernel is *lane-stepped*: instead of fanning
//! each instruction out across every group, events are buffered into small
//! program-order blocks ([`LaneBatch`]) and each group lane advances over a
//! whole block at a time, structure-major. Shared-level lanes consume
//! position-merged event lists that reconstruct each machine's exact
//! per-instruction order; see `FleetState::run_batch` for the kernel order
//! and the bit-identity argument, and DESIGN.md §16 for the full write-up.
//!
//! Trace-side counters (instruction mix, taken branches, kernel
//! instructions) are likewise accumulated once at generation time. The
//! bit-identity is enforced against a straight-line per-machine reference
//! loop, which exists only as test code: fixed vectors, property tests, and
//! a gate over every CPU2017 catalog profile on the Table IV fleet.
//!
//! [`CacheConfig`]: crate::CacheConfig
//! [`PredictorKind`]: crate::PredictorKind

use std::ops::Range;

use horizon_trace::{Instruction, Kind, TraceGenerator, WorkloadProfile};

use crate::branch::{BranchPredictor, PredictorKind};
use crate::cache::Cache;
use crate::cache::CacheConfig;
use crate::counters::Counters;
use crate::hierarchy::{DataFront, HierarchyConfig, L2Back, PrefetchConfig};
use crate::machine::MachineConfig;
use crate::tlb::{Tlb, TlbConfig, TlbHierarchyConfig};
use crate::topdown::CpiStack;

/// Deduplicates `keys`, returning the unique keys (first-occurrence order)
/// and, per input, the index of its unique key.
fn dedup_groups<K: PartialEq>(keys: Vec<K>) -> (Vec<K>, Vec<usize>) {
    let mut uniq: Vec<K> = Vec::new();
    let mut index = Vec::with_capacity(keys.len());
    for k in keys {
        match uniq.iter().position(|u| *u == k) {
            Some(i) => index.push(i),
            None => {
                uniq.push(k);
                index.push(uniq.len() - 1);
            }
        }
    }
    (uniq, index)
}

/// Largest data region the prewarm sweep walks: anything bigger cannot
/// stay resident and would only wash the LLC right before measurement.
const PREWARM_LIMIT: u64 = 6 << 20;

/// The address ranges a warmed-up run prewarms, as `(data, code)` lists.
/// The sweep touches every 64-byte line of each range once, all data
/// ranges first, emulating the steady state of a benchmark that has
/// already run for minutes: without it, short windows over-count the cold
/// misses of rarely touched regions.
///
/// The data ranges are the profile's regions of at most 6 MiB, in layout
/// order; a DRAM-scale region cannot stay resident, and walking it would
/// re-cold every smaller one. The code ranges are the hot code, then the
/// kernel's code when the profile runs kernel instructions.
pub fn prewarm_spans(profile: &WorkloadProfile) -> (Vec<Range<u64>>, Vec<Range<u64>>) {
    let span = |(base, bytes): (u64, u64)| base..base + bytes;
    let data = horizon_trace::region_layout(profile)
        .into_iter()
        .filter(|&(_, bytes)| bytes <= PREWARM_LIMIT)
        .map(span)
        .collect();
    let mut code = vec![span(horizon_trace::hot_code_layout(profile))];
    if profile.kernel_fraction() > 0.0 {
        code.push(span(horizon_trace::kernel_code_layout()));
    }
    (data, code)
}

/// Per-event outcome bits of one data-front group.
const DATA_MISS: u8 = 1 << 1;
const INSTALL: u8 = 1 << 2;

/// Instructions buffered per lane batch before the group kernels drain it.
/// Big enough to amortize the per-group kernel setup and keep each
/// structure's clock/memo/hint state hot across a whole run of events;
/// small enough that every per-batch event list stays L1-resident.
const LANE_BLOCK: usize = 256;

/// One batch of per-structure event lists, filled in program order by
/// [`FleetState::step`] (and the prewarm walks) and drained by
/// [`FleetState::run_batch`]. Every list records its events' positions
/// within the batch, so the back-lane kernels can merge two lists back
/// into exact per-instruction order.
#[derive(Default)]
struct LaneBatch {
    /// Probes folded into this batch so far (also the next position).
    len: u32,
    /// `(position, pc)` of fetch probes that left the current line granule.
    fetch: Vec<(u32, u64)>,
    /// `(position, pc)` of fetch probes that left the current page granule.
    itlb: Vec<(u32, u64)>,
    /// `(position, address)` of every data access.
    data: Vec<(u32, u64)>,
    /// `(position, address)` of data accesses that left the page granule.
    dtlb: Vec<(u32, u64)>,
    /// `(pc, taken)` of branches, in program order.
    branches: Vec<(u64, bool)>,
}

impl LaneBatch {
    fn new() -> Self {
        LaneBatch {
            len: 0,
            fetch: Vec::with_capacity(LANE_BLOCK),
            itlb: Vec::with_capacity(LANE_BLOCK),
            data: Vec::with_capacity(LANE_BLOCK),
            dtlb: Vec::with_capacity(LANE_BLOCK),
            branches: Vec::with_capacity(LANE_BLOCK),
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.fetch.clear();
        self.itlb.clear();
        self.data.clear();
        self.dtlb.clear();
        self.branches.clear();
    }
}

/// One machine-distinct shared-level cache (distinct full
/// [`HierarchyConfig`]), driven by its front groups' recorded outcomes.
struct CacheBackLane {
    back: L2Back,
    l1i_group: usize,
    data_group: usize,
}

/// One machine-distinct L2 TLB + page-walk accounting (distinct full
/// [`TlbHierarchyConfig`]), driven by the per-side front lanes.
struct TlbBackLane {
    l2: Option<Tlb>,
    walks_i: u64,
    walks_d: u64,
    itlb_group: usize,
    dtlb_group: usize,
}

impl TlbBackLane {
    /// Returns `true` when an L1 TLB miss's refill required a page walk:
    /// an L2 TLB miss, or any refill when there is no L2 TLB.
    #[inline]
    fn refill(&mut self, addr: u64) -> bool {
        match &mut self.l2 {
            Some(l2) => !l2.access(addr),
            None => true,
        }
    }
}

/// One shared branch predictor (distinct [`PredictorKind`]).
struct PredictorLane {
    predictor: Box<dyn BranchPredictor + Send>,
    mispredicts: u64,
}

/// Machine-independent counters accumulated once while the trace streams.
#[derive(Default)]
struct TraceCounts {
    instructions: u64,
    kernel_instructions: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    taken_branches: u64,
    fp_ops: u64,
    simd_ops: u64,
}

impl TraceCounts {
    #[inline]
    fn note(&mut self, inst: &Instruction) {
        self.instructions += 1;
        self.kernel_instructions += inst.kernel as u64;
        match inst.kind {
            Kind::Load { .. } => self.loads += 1,
            Kind::Store { .. } => self.stores += 1,
            Kind::Branch { taken, .. } => {
                self.branches += 1;
                self.taken_branches += taken as u64;
            }
            Kind::FpAlu => self.fp_ops += 1,
            Kind::Simd => self.simd_ops += 1,
            Kind::IntAlu => {}
        }
    }
}

/// Warm-state counter snapshot of every group, taken after warmup so the
/// measured window can be isolated by subtraction (per group instead of
/// per machine).
struct GroupSnapshots {
    /// Per L1I group: (accesses, misses).
    l1is: Vec<(u64, u64)>,
    /// Per data-front group: (l1d_accesses, l1d_misses).
    datas: Vec<(u64, u64)>,
    /// Per cache back lane: (l2i_acc, l2i_miss, l2d_acc, l2d_miss, l3_acc,
    /// l3_miss, mem).
    cache_backs: Vec<(u64, u64, u64, u64, u64, u64, u64)>,
    /// Per I-TLB front group: misses.
    itlbs: Vec<u64>,
    /// Per D-TLB front group: misses.
    dtlbs: Vec<u64>,
    /// Per TLB back lane: (walks_i, walks_d).
    tlb_backs: Vec<(u64, u64)>,
    /// Per predictor lane: measured mispredicts so far.
    predictors: Vec<u64>,
}

/// Simulates one workload on many machines from a single trace expansion.
///
/// Each machine's counters are exactly those of simulating it alone with
/// the same warmup/window/seed (a one-lane fleet); trace generation,
/// prewarm address walks, instruction-mix accounting, and every structure
/// shared between machine configurations are paid once per fleet instead
/// of once per machine.
///
/// # Example
///
/// ```
/// use horizon_trace::WorkloadProfile;
/// use horizon_uarch::{FleetSimulator, MachineConfig};
///
/// let p = WorkloadProfile::builder("w").loads(0.25).build()?;
/// let machines = [MachineConfig::skylake_i7_6700(), MachineConfig::sparc_t4()];
/// let fleet = FleetSimulator::new(&machines).run(&p, 20_000, 7);
/// let solo = FleetSimulator::new(&machines[1..]).run(&p, 20_000, 7);
/// assert_eq!(fleet[1], solo[0]);
/// # Ok::<(), horizon_trace::ProfileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetSimulator {
    machines: Vec<MachineConfig>,
    /// Instructions to run before counters start (cold-start warmup).
    warmup: u64,
}

impl FleetSimulator {
    /// Creates a fleet simulator with **no warmup**: counters start
    /// accumulating from the first instruction, cold-start misses included.
    pub fn new(machines: &[MachineConfig]) -> Self {
        FleetSimulator {
            machines: machines.to_vec(),
            warmup: 0,
        }
    }

    /// Sets the warmup instruction count applied to every machine. A
    /// nonzero warmup also prewarms the caches and TLBs first, with the
    /// sweep over [`prewarm_spans`].
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Runs `instructions` measured instructions of `profile` (after any
    /// warmup) on every machine and returns one [`Counters`] per machine,
    /// in the order the machines were given.
    pub fn run(&self, profile: &WorkloadProfile, instructions: u64, seed: u64) -> Vec<Counters> {
        if self.machines.is_empty() {
            return Vec::new();
        }
        let mut fleet = FleetState::new(&self.machines);

        if self.warmup > 0 {
            let _prewarm_span = horizon_telemetry::span("sim.prewarm");
            fleet.prewarm(profile);
        }

        let mut gen = TraceGenerator::new(profile, seed);
        {
            let mut warmup_span = horizon_telemetry::span("sim.warmup");
            warmup_span.record("instructions", self.warmup);
            for inst in gen.by_ref().take(self.warmup as usize) {
                fleet.step(&inst, false);
            }
        }
        fleet.flush_repeats();
        let warm = fleet.snapshots();

        let mut trace = TraceCounts::default();
        {
            let mut measure_span = horizon_telemetry::span("sim.measure");
            measure_span.record("instructions", instructions);
            for inst in gen.take(instructions as usize) {
                trace.note(&inst);
                fleet.step(&inst, true);
            }
        }

        fleet.flush_repeats();
        fleet.assemble(&self.machines, profile, &trace, &warm)
    }
}

/// All shared group lanes plus the machine → group index maps.
struct FleetState {
    l1i_lanes: Vec<Cache>,
    data_lanes: Vec<DataFront>,
    cache_backs: Vec<CacheBackLane>,
    itlbs: Vec<Tlb>,
    dtlbs: Vec<Tlb>,
    tlb_backs: Vec<TlbBackLane>,
    predictors: Vec<PredictorLane>,
    /// Event accumulator for the current lane batch.
    batch: LaneBatch,
    /// Whether the buffered batch is measured. Uniform per batch: a flag
    /// change flushes the pending batch first.
    batch_measured: bool,
    /// Per L1I group: the current batch's miss list, `(position, pc)`.
    fetch_miss: Vec<Vec<(u32, u64)>>,
    /// Per data-front group: the current batch's outcome list —
    /// `(position, flags, install line, address)` for events with nonzero
    /// flags only.
    data_out: Vec<Vec<(u32, u8, u64, u64)>>,
    /// Per I-TLB group: the current batch's miss list, `(position, pc)`.
    itlb_miss: Vec<Vec<(u32, u64)>>,
    /// Per D-TLB group: the current batch's miss list,
    /// `(position, address)`.
    dtlb_miss: Vec<Vec<(u32, u64)>>,
    // Repeat-granule fast path: when the current probe address falls in the
    // same line/page as the immediately preceding probe of the same
    // structure set, that line is resident and already MRU in *every* group
    // (the preceding probe made it so, and nothing touched these structures
    // since), so the probe is a guaranteed hit that neither moves LRU order
    // nor can change any later victim choice. The fleet skips the whole
    // group loop and credits the hits in bulk at snapshot boundaries. The
    // granule is the finest across groups, so equality holds per group.
    last_fetch_line: u64,
    last_fetch_page: u64,
    last_data_page: u64,
    l1i_repeats: u64,
    itlb_repeats: u64,
    dtlb_repeats: u64,
    l1i_min_shift: u32,
    itlb_min_shift: u32,
    dtlb_min_shift: u32,
    /// Per machine: index into each group vector.
    l1i_of: Vec<usize>,
    data_of: Vec<usize>,
    cache_back_of: Vec<usize>,
    itlb_of: Vec<usize>,
    dtlb_of: Vec<usize>,
    tlb_back_of: Vec<usize>,
    predictor_of: Vec<usize>,
}

impl FleetState {
    fn new(machines: &[MachineConfig]) -> Self {
        type DataKey = (CacheConfig, PrefetchConfig);
        let data_key = |h: &HierarchyConfig| -> DataKey { (h.l1d, h.prefetch) };

        let (l1i_keys, l1i_of) =
            dedup_groups::<CacheConfig>(machines.iter().map(|m| m.hierarchy.l1i).collect());
        let (data_keys, data_of) =
            dedup_groups(machines.iter().map(|m| data_key(&m.hierarchy)).collect());
        let (back_keys, cache_back_of) =
            dedup_groups::<HierarchyConfig>(machines.iter().map(|m| m.hierarchy).collect());
        let (itlb_keys, itlb_of) =
            dedup_groups::<TlbConfig>(machines.iter().map(|m| m.tlb.l1i).collect());
        let (dtlb_keys, dtlb_of) =
            dedup_groups::<TlbConfig>(machines.iter().map(|m| m.tlb.l1d).collect());
        let (tlb_back_keys, tlb_back_of) =
            dedup_groups::<TlbHierarchyConfig>(machines.iter().map(|m| m.tlb).collect());
        let (pred_keys, predictor_of) =
            dedup_groups::<PredictorKind>(machines.iter().map(|m| m.predictor).collect());

        let cache_backs: Vec<CacheBackLane> = back_keys
            .iter()
            .map(|h| CacheBackLane {
                back: L2Back::new(h),
                l1i_group: l1i_keys.iter().position(|k| *k == h.l1i).unwrap(),
                data_group: data_keys.iter().position(|k| *k == data_key(h)).unwrap(),
            })
            .collect();
        let tlb_backs: Vec<TlbBackLane> = tlb_back_keys
            .iter()
            .map(|t| TlbBackLane {
                l2: t.l2.map(Tlb::new),
                walks_i: 0,
                walks_d: 0,
                itlb_group: itlb_keys.iter().position(|k| *k == t.l1i).unwrap(),
                dtlb_group: dtlb_keys.iter().position(|k| *k == t.l1d).unwrap(),
            })
            .collect();
        let min_shift =
            |it: &mut dyn Iterator<Item = u64>| it.map(|b| b.trailing_zeros()).min().unwrap_or(0);
        // Lane-dedup effectiveness counters: group lanes actually stepped
        // vs. machines riding them (7 machines → 37 lanes in Table IV,
        // where fully independent simulation would step 49 structures).
        let lane_groups = l1i_keys.len()
            + data_keys.len()
            + cache_backs.len()
            + itlb_keys.len()
            + dtlb_keys.len()
            + tlb_backs.len()
            + pred_keys.len();
        horizon_telemetry::counter_add("fleet.lane_groups", lane_groups as u64);
        horizon_telemetry::counter_add("fleet.laned_machines", machines.len() as u64);
        FleetState {
            batch: LaneBatch::new(),
            batch_measured: false,
            fetch_miss: vec![Vec::with_capacity(LANE_BLOCK); l1i_keys.len()],
            data_out: vec![Vec::with_capacity(LANE_BLOCK); data_keys.len()],
            itlb_miss: vec![Vec::with_capacity(LANE_BLOCK); itlb_keys.len()],
            dtlb_miss: vec![Vec::with_capacity(LANE_BLOCK); dtlb_keys.len()],
            last_fetch_line: u64::MAX,
            last_fetch_page: u64::MAX,
            last_data_page: u64::MAX,
            l1i_repeats: 0,
            itlb_repeats: 0,
            dtlb_repeats: 0,
            l1i_min_shift: min_shift(&mut l1i_keys.iter().map(|k| k.line_bytes)),
            itlb_min_shift: min_shift(&mut itlb_keys.iter().map(|k| k.page_bytes)),
            dtlb_min_shift: min_shift(&mut dtlb_keys.iter().map(|k| k.page_bytes)),
            l1i_lanes: l1i_keys.into_iter().map(Cache::new).collect(),
            data_lanes: data_keys
                .into_iter()
                .map(|(l1d, prefetch)| DataFront::new(l1d, prefetch))
                .collect(),
            cache_backs,
            itlbs: itlb_keys.into_iter().map(Tlb::new).collect(),
            dtlbs: dtlb_keys.into_iter().map(Tlb::new).collect(),
            tlb_backs,
            predictors: pred_keys
                .iter()
                .map(|k| PredictorLane {
                    predictor: k.build(),
                    mispredicts: 0,
                })
                .collect(),
            l1i_of,
            data_of,
            cache_back_of,
            itlb_of,
            dtlb_of,
            tlb_back_of,
            predictor_of,
        }
    }

    /// Folds one instruction into the current lane batch, draining through
    /// the group kernels when the batch fills or the measured flag flips.
    ///
    /// Per structure the batch replays the exact per-instruction call
    /// sequence of a straight-line per-machine loop (see
    /// [`FleetState::run_batch`]); structures are mutually independent, so
    /// deferring and regrouping events *between* them is invisible in the
    /// counters while letting every group's kernel run structure-major over
    /// a whole block.
    #[inline]
    fn step(&mut self, inst: &Instruction, measured: bool) {
        if measured != self.batch_measured {
            self.run_batch();
            self.batch_measured = measured;
        }
        let pc = inst.pc;
        let pos = self.batch.len;
        self.batch.len += 1;

        // Repeat-granule fast path (see the field docs): a granule-repeat
        // probe is a guaranteed MRU hit in every group, credited in bulk
        // at flush_repeats; only granule-crossing probes become events.
        let fetch_line = pc >> self.l1i_min_shift;
        if fetch_line == self.last_fetch_line {
            self.l1i_repeats += 1;
        } else {
            self.last_fetch_line = fetch_line;
            self.batch.fetch.push((pos, pc));
        }
        let fetch_page = pc >> self.itlb_min_shift;
        if fetch_page == self.last_fetch_page {
            self.itlb_repeats += 1;
        } else {
            self.last_fetch_page = fetch_page;
            self.batch.itlb.push((pos, pc));
        }
        match inst.kind {
            Kind::Load { addr, .. } | Kind::Store { addr, .. } => {
                self.batch.data.push((pos, addr));
                let data_page = addr >> self.dtlb_min_shift;
                if data_page == self.last_data_page {
                    self.dtlb_repeats += 1;
                } else {
                    self.last_data_page = data_page;
                    self.batch.dtlb.push((pos, addr));
                }
            }
            Kind::Branch { taken, .. } => self.batch.branches.push((pc, taken)),
            _ => {}
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    /// Drains the buffered batch through the per-group lane kernels.
    ///
    /// Kernel order and the bit-identity argument:
    ///
    /// 1. **L1I groups**, then **data-front groups**: pure front-end
    ///    structures, each consuming its own event list in program order —
    ///    exactly the probe sequence the per-instruction fan-out produced.
    /// 2. **Cache back lanes**: each lane merges its L1I group's miss list
    ///    with its data group's outcome list by batch position — fetch
    ///    before data on the same instruction, and prefetch install before
    ///    demand within one data event — which is exactly the
    ///    per-instruction call sequence of the per-machine loop. The
    ///    shared levels are *one* structure serving both sides, so this
    ///    merge (rather than per-side batches) is what keeps their LRU
    ///    evolution bit-identical.
    /// 3. **I-TLB / D-TLB groups**, then **TLB back lanes** under the same
    ///    position merge (instruction-side refill first, matching the
    ///    per-machine loop's per-instruction order; the L2 TLB is shared
    ///    between the sides just like the L2/L3 caches).
    /// 4. **Predictor lanes**: the batch's branch list in program order,
    ///    one virtual dispatch per lane per batch.
    ///
    /// A partial batch (measured-flag flip, end of stream) drains through
    /// the identical kernels — the scalar tail is just a shorter block.
    fn run_batch(&mut self) {
        if self.batch.len == 0 {
            return;
        }
        for (l1i, out) in self.l1i_lanes.iter_mut().zip(&mut self.fetch_miss) {
            out.clear();
            l1i.access_events(&self.batch.fetch, out);
        }
        for (front, out) in self.data_lanes.iter_mut().zip(&mut self.data_out) {
            out.clear();
            for &(pos, addr) in &self.batch.data {
                let (hit, install) = front.access(addr);
                if !hit || install.is_some() {
                    let mut flags = ((!hit) as u8) << 1;
                    let mut line = 0;
                    if let Some(l) = install {
                        flags |= INSTALL;
                        line = l;
                    }
                    out.push((pos, flags, line, addr));
                }
            }
        }
        for lane in &mut self.cache_backs {
            let fm = &self.fetch_miss[lane.l1i_group];
            let dd = &self.data_out[lane.data_group];
            let (mut i, mut j) = (0, 0);
            while i < fm.len() || j < dd.len() {
                let fpos = fm.get(i).map_or(u32::MAX, |e| e.0);
                let dpos = dd.get(j).map_or(u32::MAX, |e| e.0);
                // Fetch precedes data on the same instruction.
                if fpos <= dpos {
                    lane.back.demand_fetch(fm[i].1);
                    i += 1;
                } else {
                    let (_, flags, line, addr) = dd[j];
                    if flags & INSTALL != 0 {
                        lane.back.install_shared(line);
                    }
                    if flags & DATA_MISS != 0 {
                        lane.back.demand_data(addr);
                    }
                    j += 1;
                }
            }
        }
        for (tlb, out) in self.itlbs.iter_mut().zip(&mut self.itlb_miss) {
            out.clear();
            tlb.access_events(&self.batch.itlb, out);
        }
        for (tlb, out) in self.dtlbs.iter_mut().zip(&mut self.dtlb_miss) {
            out.clear();
            tlb.access_events(&self.batch.dtlb, out);
        }
        for lane in &mut self.tlb_backs {
            let im = &self.itlb_miss[lane.itlb_group];
            let dm = &self.dtlb_miss[lane.dtlb_group];
            let (mut i, mut j) = (0, 0);
            while i < im.len() || j < dm.len() {
                let ipos = im.get(i).map_or(u32::MAX, |e| e.0);
                let dpos = dm.get(j).map_or(u32::MAX, |e| e.0);
                // Instruction-side refill precedes data-side.
                if ipos <= dpos {
                    if lane.refill(im[i].1) {
                        lane.walks_i += 1;
                    }
                    i += 1;
                } else {
                    if lane.refill(dm[j].1) {
                        lane.walks_d += 1;
                    }
                    j += 1;
                }
            }
        }
        if !self.batch.branches.is_empty() {
            let measured = self.batch_measured;
            for lane in &mut self.predictors {
                let wrong = lane.predictor.execute_lanes(&self.batch.branches);
                if measured {
                    lane.mispredicts += wrong;
                }
            }
        }
        self.batch.clear();
    }

    /// Drains the pending lane batch and folds the pending repeat-granule
    /// hit counts into every group's access counters. Must run before any
    /// counter snapshot.
    fn flush_repeats(&mut self) {
        self.run_batch();
        for l1i in &mut self.l1i_lanes {
            l1i.credit_hits(self.l1i_repeats);
        }
        self.l1i_repeats = 0;
        for tlb in &mut self.itlbs {
            tlb.credit_hits(self.itlb_repeats);
        }
        self.itlb_repeats = 0;
        for tlb in &mut self.dtlbs {
            tlb.credit_hits(self.dtlb_repeats);
        }
        self.dtlb_repeats = 0;
    }

    /// One pass of the prewarm address walks for the whole fleet, riding
    /// the same lane kernels as simulation (batch-prewarm): the region
    /// layout and the address loops run once, probes accumulate into
    /// batches, and one region walk warms every lane of every group. Per
    /// structure the probe sequence is identical to a per-machine prewarm.
    fn prewarm(&mut self, profile: &WorkloadProfile) {
        let (data, code) = prewarm_spans(profile);
        for span in data {
            for addr in span.step_by(64) {
                self.prewarm_data(addr);
            }
        }
        for span in code {
            for addr in span.step_by(64) {
                self.prewarm_fetch(addr);
            }
        }
        // The tail batch stays pending: warmup instructions are unmeasured
        // too, so they share it; any snapshot path drains it first.
    }

    /// Data-side prewarm probe: a data access with no fetch side, batched
    /// like any other event.
    fn prewarm_data(&mut self, addr: u64) {
        let pos = self.batch.len;
        self.batch.len += 1;
        self.batch.data.push((pos, addr));
        let page = addr >> self.dtlb_min_shift;
        if page == self.last_data_page {
            self.dtlb_repeats += 1;
        } else {
            self.last_data_page = page;
            self.batch.dtlb.push((pos, addr));
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    /// Fetch-side prewarm probe: an instruction fetch with no data side.
    fn prewarm_fetch(&mut self, addr: u64) {
        let pos = self.batch.len;
        self.batch.len += 1;
        let line = addr >> self.l1i_min_shift;
        if line == self.last_fetch_line {
            self.l1i_repeats += 1;
        } else {
            self.last_fetch_line = line;
            self.batch.fetch.push((pos, addr));
        }
        let page = addr >> self.itlb_min_shift;
        if page == self.last_fetch_page {
            self.itlb_repeats += 1;
        } else {
            self.last_fetch_page = page;
            self.batch.itlb.push((pos, addr));
        }
        if self.batch.len as usize >= LANE_BLOCK {
            self.run_batch();
        }
    }

    fn snapshots(&self) -> GroupSnapshots {
        GroupSnapshots {
            l1is: self
                .l1i_lanes
                .iter()
                .map(|c| (c.accesses(), c.misses()))
                .collect(),
            datas: self
                .data_lanes
                .iter()
                .map(|f| (f.l1d().accesses(), f.l1d().misses()))
                .collect(),
            cache_backs: self
                .cache_backs
                .iter()
                .map(|l| {
                    let (l2i_a, l2i_m) = l.back.instruction_side();
                    let (l2d_a, l2d_m) = l.back.data_side();
                    let (l3_a, l3_m) = l.back.l3_counts();
                    (
                        l2i_a,
                        l2i_m,
                        l2d_a,
                        l2d_m,
                        l3_a,
                        l3_m,
                        l.back.memory_accesses(),
                    )
                })
                .collect(),
            itlbs: self.itlbs.iter().map(|t| t.misses()).collect(),
            dtlbs: self.dtlbs.iter().map(|t| t.misses()).collect(),
            tlb_backs: self
                .tlb_backs
                .iter()
                .map(|l| (l.walks_i, l.walks_d))
                .collect(),
            predictors: self.predictors.iter().map(|l| l.mispredicts).collect(),
        }
    }

    fn assemble(
        &self,
        machines: &[MachineConfig],
        profile: &WorkloadProfile,
        trace: &TraceCounts,
        warm: &GroupSnapshots,
    ) -> Vec<Counters> {
        let end = self.snapshots();
        machines
            .iter()
            .enumerate()
            .map(|(m, machine)| {
                let mut c = Counters {
                    dependency_intensity: profile.dependency_intensity(),
                    freq_ghz: machine.freq_ghz,
                    ..Default::default()
                };
                c.instructions = trace.instructions;
                c.kernel_instructions = trace.kernel_instructions;
                c.loads = trace.loads;
                c.stores = trace.stores;
                c.branches = trace.branches;
                c.taken_branches = trace.taken_branches;
                c.fp_ops = trace.fp_ops;
                c.simd_ops = trace.simd_ops;
                let pg = self.predictor_of[m];
                c.mispredicts = self.predictors[pg].mispredicts - warm.predictors[pg];

                let ig = self.l1i_of[m];
                c.l1i_accesses = end.l1is[ig].0 - warm.l1is[ig].0;
                c.l1i_misses = end.l1is[ig].1 - warm.l1is[ig].1;
                let dg = self.data_of[m];
                c.l1d_accesses = end.datas[dg].0 - warm.datas[dg].0;
                c.l1d_misses = end.datas[dg].1 - warm.datas[dg].1;

                let bg = self.cache_back_of[m];
                let (w, e) = (warm.cache_backs[bg], end.cache_backs[bg]);
                c.l2i_accesses = e.0 - w.0;
                c.l2i_misses = e.1 - w.1;
                c.l2d_accesses = e.2 - w.2;
                c.l2d_misses = e.3 - w.3;
                c.l3_accesses = e.4 - w.4;
                c.l3_misses = e.5 - w.5;
                c.memory_accesses = e.6 - w.6;

                let ig = self.itlb_of[m];
                c.itlb_misses = end.itlbs[ig] - warm.itlbs[ig];
                let dg = self.dtlb_of[m];
                c.dtlb_misses = end.dtlbs[dg] - warm.dtlbs[dg];
                let tg = self.tlb_back_of[m];
                c.page_walks_instruction = end.tlb_backs[tg].0 - warm.tlb_backs[tg].0;
                c.page_walks_data = end.tlb_backs[tg].1 - warm.tlb_backs[tg].1;

                // Per-machine telemetry, so fleet totals equal the sums the
                // independent runs would have produced.
                horizon_telemetry::counter_add("sim.instructions", c.instructions);
                horizon_telemetry::counter_add("sim.l1d_accesses", c.l1d_accesses);
                horizon_telemetry::counter_add("sim.l1d_misses", c.l1d_misses);
                horizon_telemetry::counter_add("sim.l3_accesses", c.l3_accesses);
                horizon_telemetry::counter_add("sim.l3_misses", c.l3_misses);
                horizon_telemetry::counter_add("sim.branch_mispredicts", c.mispredicts);

                c.cpi_stack = CpiStack::compute(&c, machine);
                c
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_trace::{BranchBehavior, Region};

    /// One machine simulated alone, as a one-lane fleet.
    fn solo(
        machine: &MachineConfig,
        warmup: u64,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> Counters {
        FleetSimulator::new(std::slice::from_ref(machine))
            .with_warmup(warmup)
            .run(profile, instructions, seed)
            .remove(0)
    }

    fn quick(profile: &WorkloadProfile, machine: &MachineConfig) -> Counters {
        solo(machine, 20_000, profile, 100_000, 7)
    }

    #[test]
    fn empty_fleet_returns_no_counters() {
        let p = WorkloadProfile::builder("w").build().unwrap();
        assert!(FleetSimulator::new(&[]).run(&p, 10_000, 1).is_empty());
    }

    #[test]
    fn duplicate_machines_get_identical_counters() {
        let p = WorkloadProfile::builder("w").loads(0.3).build().unwrap();
        let m = MachineConfig::sparc_t4();
        let fleet = FleetSimulator::new(&[m.clone(), m]).run(&p, 30_000, 9);
        assert_eq!(fleet[0], fleet[1]);
    }

    #[test]
    fn counts_are_consistent() {
        let p = WorkloadProfile::builder("w")
            .loads(0.3)
            .stores(0.1)
            .branches(0.15)
            .build()
            .unwrap();
        let c = quick(&p, &MachineConfig::skylake_i7_6700());
        assert_eq!(c.instructions, 100_000);
        assert_eq!(c.l1d_accesses, c.loads + c.stores);
        assert_eq!(c.l1i_accesses, c.instructions);
        assert!(c.taken_branches <= c.branches);
        assert!(c.mispredicts <= c.branches);
        assert!(c.l1d_misses <= c.l1d_accesses);
        assert!(c.cpi() >= 1.0 / 4.0);
    }

    #[test]
    fn determinism() {
        let p = WorkloadProfile::builder("w").build().unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let a = solo(&m, 0, &p, 30_000, 5);
        let b = solo(&m, 0, &p, 30_000, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_footprint_more_misses() {
        let small = WorkloadProfile::builder("s")
            .loads(0.4)
            .regions(vec![Region::random(16 << 10, 1.0)])
            .build()
            .unwrap();
        let large = WorkloadProfile::builder("l")
            .loads(0.4)
            .regions(vec![Region::random(64 << 20, 1.0)])
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let cs = quick(&small, &m);
        let cl = quick(&large, &m);
        assert!(cl.l1d_misses > cs.l1d_misses * 5);
        assert!(cl.cpi() > cs.cpi());
    }

    #[test]
    fn same_workload_differs_across_machines() {
        // A 3 MB working set fits Skylake's 8 MB LLC but thrashes the T4's
        // 4 MB LLC together with its tiny L1/L2.
        let p = WorkloadProfile::builder("w")
            .loads(0.35)
            .regions(vec![Region::random(3 << 20, 1.0)])
            .build()
            .unwrap();
        let sky = quick(&p, &MachineConfig::skylake_i7_6700());
        let t4 = quick(&p, &MachineConfig::sparc_t4());
        assert!(t4.mpki(t4.l2d_misses) > sky.mpki(sky.l2d_misses));
    }

    #[test]
    fn warmup_removes_cold_misses() {
        // A fully cache-resident working set: with warmup the measured
        // window sees (almost) no data misses.
        let p = WorkloadProfile::builder("w")
            .loads(0.4)
            .regions(vec![Region::random(8 << 10, 1.0)])
            .build()
            .unwrap();
        let m = MachineConfig::skylake_i7_6700();
        let cold = solo(&m, 0, &p, 50_000, 3);
        let warm = solo(&m, 20_000, &p, 50_000, 3);
        assert!(warm.l1d_misses < cold.l1d_misses);
        assert_eq!(warm.mpki(warm.l1d_misses).round(), 0.0);
    }

    #[test]
    fn irregular_branches_mispredict_more() {
        let make = |regularity: f64| {
            WorkloadProfile::builder("w")
                .branches(0.2)
                .branch_behavior(BranchBehavior {
                    taken_fraction: 0.5,
                    regularity,
                    pattern_share: 0.5,
                    static_branches: 128,
                    bias_spread: 0.1,
                })
                .build()
                .unwrap()
        };
        let m = MachineConfig::skylake_i7_6700();
        let regular = quick(&make(1.0), &m);
        let irregular = quick(&make(0.0), &m);
        assert!(
            irregular.branch_mpki() > regular.branch_mpki() * 2.0,
            "irregular {} vs regular {}",
            irregular.branch_mpki(),
            regular.branch_mpki()
        );
    }

    #[test]
    fn weaker_predictor_mispredicts_more_on_patterned_branches() {
        // regularity 0 → half the sites carry learnable rotations that a
        // history predictor gets and a bimodal table cannot.
        let p = WorkloadProfile::builder("w")
            .branches(0.2)
            .branch_behavior(BranchBehavior {
                taken_fraction: 0.5,
                regularity: 0.0,
                pattern_share: 0.5,
                static_branches: 8192,
                bias_spread: 0.2,
            })
            .build()
            .unwrap();
        let strong = MachineConfig::sparc_t4(); // two-level local predictor
        let weak = strong.with_predictor(PredictorKind::Bimodal { table_bits: 12 });
        let cs = quick(&p, &strong);
        let cw = quick(&p, &weak);
        assert!(
            cw.branch_mpki() > cs.branch_mpki(),
            "weak {} strong {}",
            cw.branch_mpki(),
            cs.branch_mpki()
        );
    }
}
