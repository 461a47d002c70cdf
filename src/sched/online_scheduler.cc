#include "sched/online_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/logging.hh"

namespace herald::sched
{

namespace
{

constexpr double kEps = 1e-6;

// Log-spaced latency histogram: bucket b covers latencies up to
// 2^((b+1)/kLatScale) - 1 cycles (~4.4% wide buckets). 1024 buckets
// reach 2^64 cycles, far past the workload layer's 2^53 cycle limit.
constexpr double kLatScale = 16.0;
constexpr std::size_t kLatBuckets = 1024;

} // namespace

const char *
toString(SubmitResult result)
{
    switch (result) {
      case SubmitResult::Accepted:
        return "accepted";
      case SubmitResult::Dropped:
        return "dropped";
      case SubmitResult::RejectedQueueFull:
        return "rejected-queue-full";
      case SubmitResult::RejectedHorizon:
        return "rejected-horizon";
    }
    util::panic("unknown SubmitResult");
}

void
OnlineOptions::validate() const
{
    sched.validate();
    if (sched.postProcess)
        util::fatal("online scheduler: idle-time post-processing "
                    "needs the whole schedule and cannot run on a "
                    "stream — set sched.postProcess = false");
    if (maxLiveFrames == 0)
        util::fatal("online scheduler: maxLiveFrames must be >= 1 "
                    "(0 would reject every frame)");
    if (std::isnan(horizonCycles) || horizonCycles <= 0.0)
        util::fatal("online scheduler: admission horizon must be "
                    "> 0 cycles (+infinity disables it), got ",
                    horizonCycles);
    if (maintenancePeriod == 0)
        util::fatal("online scheduler: maintenancePeriod must be "
                    ">= 1 commit");
    if (sched.reconfig.enabled() && !retainSchedule)
        util::fatal("online scheduler: elastic repartitioning "
                    "requires retainSchedule — reconfiguration "
                    "events live on the Schedule and the batch "
                    "bit-identity contract cannot be checked with "
                    "history retired");
}

namespace
{

/**
 * Batch-mode options: every instance may be live at once, history is
 * retained, and maintenance never fires mid-run — with nothing to
 * retire, its floor scan would only cost O(window) per period, so the
 * watchdog audits once, at drain(). Post-processing runs on the
 * drained schedule, outside the engine.
 */
OnlineOptions
batchOptions(const SchedulerOptions &options, std::size_t n_instances)
{
    OnlineOptions o;
    o.sched = options;
    o.sched.postProcess = false;
    o.maxLiveFrames = std::max<std::size_t>(n_instances, 1);
    o.maintenancePeriod = SIZE_MAX;
    o.retainSchedule = true;
    return o;
}

} // namespace

OnlineScheduler::OnlineScheduler(cost::CostModel &cost_model,
                                 const std::vector<dnn::Model> &models,
                                 const accel::Accelerator &acc,
                                 OnlineOptions options)
    : opts(std::move(options)), templateWl("online-templates"),
      memory(acc.globalBufferBytes()), sched(acc.numSubAccs())
{
    opts.validate();
    if (models.empty())
        util::fatal("online scheduler: no models to serve");
    // One template instance per model: the cost table only depends on
    // the set of unique models, so every stream frame shares it.
    for (const dnn::Model &m : models)
        templateWl.addModel(m, 1);
    ownTable = LayerCostTable::build(cost_model, templateWl, acc,
                                     opts.sched.metric,
                                     opts.sched.rdaOverheads,
                                     opts.sched.prefillThreads);
    tableWl = &templateWl;
    baseTable = &ownTable;
    trackMemory = maxBufferDemand(opts.sched, ownTable) >
                  static_cast<double>(acc.globalBufferBytes());
    bind(cost_model, acc);
}

OnlineScheduler::OnlineScheduler(cost::CostModel &cost_model,
                                 const workload::Workload &wl,
                                 const accel::Accelerator &acc,
                                 const LayerCostTable &table,
                                 const SchedulerOptions &options)
    : opts(batchOptions(options, wl.numInstances())),
      templateWl("online-templates"), tableWl(&wl), baseTable(&table),
      memory(acc.globalBufferBytes()), sched(acc.numSubAccs())
{
    opts.validate();
    trackMemory = maxBufferDemand(options, table) >
                  static_cast<double>(acc.globalBufferBytes());
    bind(cost_model, acc);
    sched.reserve(wl.totalLayers());
    if (trackMemory)
        memory.reserve(wl.totalLayers());
    win.reserve(wl.numInstances());
}

void
OnlineScheduler::bind(cost::CostModel &cost_model,
                      const accel::Accelerator &acc)
{
    nAcc = acc.numSubAccs();
    nModels = tableWl->specs().size();

    const FaultTimeline &faults = opts.sched.faults;
    faulty = !faults.empty();
    if (faulty && faults.numSubAccs() != nAcc) {
        util::fatal("scheduler: fault timeline covers ",
                    faults.numSubAccs(),
                    " sub-accelerators, accelerator has ", nAcc);
    }

    activeTable = baseTable;
    uidOf.resize(nModels);
    rowBaseOf.resize(nModels);
    layersOf.resize(nModels);
    for (std::size_t m = 0; m < nModels; ++m) {
        uidOf[m] = tableWl->uniqueIdOfSpec(m);
        rowBaseOf[m] = baseTable->rowOf(uidOf[m], 0);
        layersOf[m] = tableWl->specs()[m].model.numLayers();
    }

    reconfig = opts.sched.reconfig.enabled();
    if (reconfig) {
        reconfigCostModel = &cost_model;
        baseAcc = std::make_unique<accel::Accelerator>(acc);
        reconfigPolicy = makeReconfigPolicy(opts.sched.reconfig);
        peSplit.reserve(nAcc);
        for (const accel::SubAccelerator &sub : acc.subAccs())
            peSplit.push_back(sub.numPes);
        nextEpochId = acc.partitionEpochId() + 1;
    }

    breadth = opts.sched.ordering == Ordering::BreadthFirst;
    preempt = opts.sched.preemption == Preemption::AtLayerBoundary;
    doomDrop = opts.sched.dropPolicy == DropPolicy::DoomedFrames;
    dropAny = opts.sched.dropPolicy != DropPolicy::None;
    policyKind = opts.sched.policy;
    hysteresis = opts.sched.lstHysteresisCycles > 0.0 &&
                 policyKind == Policy::Lst;

    accAvail.assign(nAcc, 0.0);
    accLastInstance.assign(nAcc, SIZE_MAX);
    lastRetiredEnd.assign(nAcc, 0.0);
    modelStats.assign(nModels, OnlineModelStats{});
    latHist.assign(kLatBuckets, 0);

    if (faulty && dropAny) {
        admissionView =
            std::make_unique<LayerCostTable::DegradedView>(*baseTable);
        deadMask.assign(nAcc, 0);
        bool dead_at_zero = false;
        for (std::size_t a = 0; a < nAcc; ++a) {
            const double fail = faults.permanentFailureCycle(a);
            if (fail <= 0.0) {
                deadMask[a] = 1;
                dead_at_zero = true;
            } else if (std::isfinite(fail)) {
                permFail.emplace_back(fail, a);
            }
        }
        if (dead_at_zero)
            admissionView->rebuild(deadMask);
        std::sort(permFail.begin(), permFail.end());
        if (doomDrop) {
            // The run view starts from the same dead-at-zero state
            // and is refreshed as the floor passes later onsets.
            runView = std::make_unique<LayerCostTable::DegradedView>(
                *baseTable);
            if (dead_at_zero)
                runView->rebuild(deadMask);
        }
    }
}

// ------------------------------------------------------------------
// Window / policy helpers
// ------------------------------------------------------------------

OnlineScheduler::Frame &
OnlineScheduler::frameAt(std::size_t idx)
{
    return win[idx - winOff];
}

const OnlineScheduler::Frame &
OnlineScheduler::frameAt(std::size_t idx) const
{
    return win[idx - winOff];
}

bool
OnlineScheduler::pending(const Frame &f) const
{
    return f.nextLayer < f.numLayers;
}

bool
OnlineScheduler::isReadyMember(std::size_t idx) const
{
    return idx != SIZE_MAX && idx >= winBase && frameAt(idx).member;
}

double
OnlineScheduler::keyOf(std::size_t idx) const
{
    const Frame &f = frameAt(idx);
    switch (policyKind) {
      case Policy::Fifo:
        return 0.0;
      case Policy::Edf:
        return f.deadline;
      case Policy::Lst:
        // The pristine table, even under faults or after a migration.
        return f.deadline == workload::kNoDeadline
                   ? workload::kNoDeadline
                   : f.deadline -
                         baseTable->remainingCycles(f.uid, f.nextLayer);
    }
    util::panic("unknown Policy");
}

void
OnlineScheduler::readyRelease(std::size_t idx)
{
    Frame &f = frameAt(idx);
    const double key = keyOf(idx);
    ready.insert(ReadyKey{key, f.rank, idx});
    f.currentKey = key;
    f.member = true;
}

void
OnlineScheduler::readyRetire(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!f.member)
        return;
    ready.erase(ReadyKey{f.currentKey, f.rank, idx});
    f.member = false;
}

void
OnlineScheduler::readyRekey(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!f.member)
        return;
    const double key = keyOf(idx);
    if (key == f.currentKey)
        return;
    // Move the node to its new key: no free, no allocation.
    auto node = ready.extract(ReadyKey{f.currentKey, f.rank, idx});
    node.value().key = key;
    ready.insert(std::move(node));
    f.currentKey = key;
}

// ------------------------------------------------------------------
// Dispatch-loop helpers
//
// The per-commit path (tryStep: selectReadyIdx, planLayer, commit,
// releaseUpTo) runs once per layer and is declared inline so the
// compiler may fold it into one loop: out of line, the calls cost
// about a tenth of the offline backlog's dispatch time.
// ------------------------------------------------------------------

double
OnlineScheduler::remCyclesRun(std::size_t uid,
                              std::size_t layer) const
{
    return runView ? runView->remainingCycles(uid, layer)
                   : activeTable->remainingCycles(uid, layer);
}

double
OnlineScheduler::minAvail() const
{
    const FaultTimeline &faults = opts.sched.faults;
    if (!faulty) {
        double lo = accAvail[0];
        for (std::size_t a = 1; a < nAcc; ++a)
            lo = std::min(lo, accAvail[a]);
        return lo;
    }
    // Degraded floor: the earliest cycle any *usable* capacity frees
    // up. A dead sub-accelerator's frozen frontier must not hold the
    // floor down forever — project each frontier through the fault
    // timeline (kNeverCycle once the sub-accelerator has permanently
    // failed; +inf overall means no capacity is left at all, dooming
    // every deadline frame).
    double lo = kNeverCycle;
    for (std::size_t a = 0; a < nAcc; ++a)
        lo = std::min(lo, faults.nextAvailable(a, accAvail[a]));
    return lo;
}

double
OnlineScheduler::retirementFloor() const
{
    // minAvail() is a valid retirement floor but stalls whenever one
    // sub-accelerator sees little work: its idle availability pins
    // the minimum even though nothing can ever be placed that far in
    // the past. Tighten it with P, a lower bound on the start cycle
    // of every future entry: an admitted unfinished frame's next
    // layer starts at or after its readyTime, and a frame not yet
    // submitted arrives at or after the watermark (arrivals are
    // nondecreasing). planLayer() starts every placement at or after
    // max(availability, readyTime), so min over sub-accs of
    // max(nextAvailable, P) bounds every future start — and it keeps
    // advancing with the stream even on a lopsided accelerator mix.
    double p = draining ? kNeverCycle : std::max(watermark, 0.0);
    for (std::size_t i = winBase - winOff; i < win.size(); ++i)
        if (!win[i].finished)
            p = std::min(p, win[i].readyTime);
    const FaultTimeline &faults = opts.sched.faults;
    double floor = kNeverCycle;
    for (std::size_t a = 0; a < nAcc; ++a) {
        const double avail =
            faulty ? faults.nextAvailable(a, accAvail[a])
                   : accAvail[a];
        floor = std::min(floor, std::max(avail, p));
    }
    return floor;
}

double
OnlineScheduler::doomKeyOf(const Frame &f) const
{
    return f.deadline - remCyclesRun(f.uid, f.nextLayer);
}

// Provably-doomed test against the evolving schedule: the next
// remaining layer cannot start before max(dependence-chain ready
// time, earliest sub-accelerator availability), and the chain needs
// at least its optimistic suffix — if even that lower bound overshoots
// the deadline, no continuation can save the frame. Under faults the
// suffix comes from the run view (dead columns masked once the floor
// passes their onsets), which is sound: the mask only ever contains
// sub-accelerators already unusable at every cycle >= the frame's
// "now".
bool
OnlineScheduler::doomedNow(std::size_t idx, double now_floor) const
{
    const Frame &f = frameAt(idx);
    if (f.deadline == workload::kNoDeadline)
        return false;
    const double now = std::max(f.readyTime, now_floor);
    const double rem = remCyclesRun(f.uid, f.nextLayer);
    return now + rem > f.deadline + kEps;
}

// Fold permanent failures whose onset the availability floor has
// passed into the run view.
void
OnlineScheduler::refreshDegraded(double floor)
{
    bool changed = false;
    while (nextFail < permFail.size() &&
           permFail[nextFail].first <= floor + kEps) {
        deadMask[permFail[nextFail].second] = 1;
        ++nextFail;
        changed = true;
    }
    if (!changed)
        return;
    runView->rebuild(deadMask);
    // Remaining work can only grow here, so the stored lower bounds
    // may no longer be bounds: recompute every key.
    rekeyDoomSet();
}

void
OnlineScheduler::rekeyDoomSet()
{
    std::set<std::pair<double, std::size_t>> rekeyed;
    while (!doomSet.empty()) {
        auto node = doomSet.extract(doomSet.begin());
        Frame &f = frameAt(node.value().second);
        f.doomKey = doomKeyOf(f);
        node.value().first = f.doomKey;
        rekeyed.insert(std::move(node));
    }
    doomSet.swap(rekeyed);
}

void
OnlineScheduler::sweepDoomed(double floor)
{
    // Every stored doom key is a lower bound on the frame's true key
    // deadline - remCyclesRun(uid, nextLayer). The remaining-work
    // suffix sums (LayerCostTable::foldRows, DegradedView::rebuild)
    // are right-to-left folds rem[l] = rem[l+1] + c[l] of
    // non-negative addends, and round-to-nearest is monotone, so
    // rem[l] >= rem[l+1] bit for bit: as nextLayer advances the true
    // key never falls. Only a rebuilt run view or a new epoch table
    // can lower it, and refreshDegraded / maybeReconfigure recompute
    // every key then. So commit() need not re-key a frame that stays
    // live; the sweep refreshes the front instead.
    //
    // A frame is dropped iff its true key is below floor - kEps, as
    // with eagerly re-keyed entries: a stored key at or above the
    // bound implies a true key there too, and a front entry under it
    // is re-tested on its true key, then either dropped or moved to
    // that key (each frame moves at most once per sweep, since its
    // key is then exact and clears the bound). Only the order of the
    // drops inside one sweep can differ, and dropLive's effects
    // commute: Schedule::markDropped is a sorted insert, the counters
    // are sums, and readyRetire / the doom-set erase touch only the
    // frame's own nodes.
    while (!doomSet.empty() && doomSet.begin()->first < floor - kEps) {
        const std::size_t idx = doomSet.begin()->second;
        Frame &f = frameAt(idx);
        const double key = doomKeyOf(f);
        if (key < floor - kEps) {
            dropLive(idx);
            continue;
        }
        auto node = doomSet.extract(doomSet.begin());
        node.value().first = key;
        f.doomKey = key;
        doomSet.insert(std::move(node));
    }
}

void
OnlineScheduler::recordLatency(double latency)
{
    maxLatency = std::max(maxLatency, latency);
    std::size_t b = 0;
    if (latency > 0.0) {
        b = static_cast<std::size_t>(
            std::log2(1.0 + latency) * kLatScale);
        b = std::min(b, kLatBuckets - 1);
    }
    ++latHist[b];
}

void
OnlineScheduler::finishFrame(std::size_t idx)
{
    Frame &f = frameAt(idx);
    f.finished = true;
    --liveFrames;
    OnlineModelStats &ms = modelStats[f.modelIdx];
    ++ms.completed;
    recordLatency(f.readyTime - f.arrival);
    // Miss rule mirrors Schedule::computeSla: completion is the last
    // useful (non-killed) end, which is exactly readyTime here.
    if (f.deadline != workload::kNoDeadline &&
        f.readyTime > f.deadline + kEps)
        ++ms.deadlineMisses;
    if (f.hadKill)
        ++framesRescheduled;
}

// Shed a live frame mid-schedule: committed layers stay on the
// timeline (the cycles were really spent), the rest are cancelled,
// and the frame is recorded as dropped (and therefore missed). Called
// under DropPolicy::DoomedFrames, and — under any drop policy — when
// a fault timeline leaves a frame with no usable sub-accelerator at
// all (graceful degradation: the alternative is a dispatch loop that
// can never terminate).
void
OnlineScheduler::dropLive(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (opts.retainSchedule)
        sched.markDropped(f.rank);
    liveRemaining -= f.numLayers - f.nextLayer;
    f.numLayers = f.nextLayer; // pending() now false
    readyRetire(idx);
    if (doomDrop && f.inDoom) {
        doomSet.erase(std::make_pair(f.doomKey, idx));
        f.inDoom = false;
    }
    f.dropped = true;
    f.finished = true;
    --liveFrames;
    OnlineModelStats &ms = modelStats[f.modelIdx];
    ++ms.dropped;
    if (f.deadline != workload::kNoDeadline)
        ++ms.deadlineMisses;
    ++latInfCount;
    maxLatency = workload::kNoDeadline;
}

// Released frames with pending layers live in the (key, rank)-ordered
// ready set. Under DoomedFrames a frame is doom-tested the moment it
// is released (its arrival may already be inside a backlog) and
// tracked in the doom set afterwards. @p floor is minAvail(), read by
// the caller: releases never move accAvail, so one read serves a
// whole release sweep.
void
OnlineScheduler::releaseInst(std::size_t idx, double floor)
{
    Frame &f = frameAt(idx);
    if (!pending(f))
        return;
    readyRelease(idx);
    if (!doomDrop || f.deadline == workload::kNoDeadline)
        return;
    if (doomedNow(idx, floor)) {
        dropLive(idx);
        return;
    }
    f.doomKey = doomKeyOf(f);
    doomSet.emplace(f.doomKey, idx);
    f.inDoom = true;
}

// The release clock is the latest committed end cycle: a frame
// competes for dispatch only once its arrival is inside the committed
// horizon. Frames are released in admission (arrival) order by one
// cursor, each exactly once.
inline void
OnlineScheduler::releaseUpTo(double frontier, double floor)
{
    const std::size_t total = totalFrames();
    while (cursor < total) {
        const std::size_t idx = cursor;
        if (frameAt(idx).arrival > frontier + kEps)
            break;
        ++cursor;
        releaseInst(idx, floor);
    }
}

// Preemptive release: everything arriving strictly before the
// tentatively planned commit's end joins the ready set now — called
// only when at least one such arrival is strictly more urgent than
// the planned frame, so FIFO (constant key) and deadline-free frames
// never trigger it.
void
OnlineScheduler::releaseWindow(double end, double floor)
{
    const std::size_t total = totalFrames();
    while (cursor < total) {
        const std::size_t idx = cursor;
        if (frameAt(idx).arrival >= end - kEps)
            break;
        ++cursor;
        releaseInst(idx, floor);
    }
}

// Fault-aware placement on one sub-accelerator: the earliest start at
// or after @p earliest that is outside every known outage, before the
// sub-accelerator's permanent failure, and memory-feasible. The
// throttle factor is sampled at the start and held for the whole
// layer (layers are atomic). Termination: each round either returns
// or strictly advances `s` to a memory event boundary past an
// availability point — both finite sets.
bool
OnlineScheduler::placeOn(std::size_t a, double earliest,
                         double base_cycles, double penalty,
                         double bytes, Plan &out) const
{
    const FaultTimeline &faults = opts.sched.faults;
    double s = earliest;
    for (;;) {
        const double avail = faults.nextAvailable(a, s);
        if (!std::isfinite(avail))
            return false; // dead from here on
        const double dur =
            base_cycles * faults.throttleFactorAt(a, avail) + penalty;
        const double fit =
            trackMemory ? memory.firstFeasible(avail, dur, bytes)
                        : avail;
        if (fit == avail) {
            out.start = fit;
            out.dur = dur;
            out.killAt = faults.nextOnset(a, fit);
            return true;
        }
        s = fit;
    }
}

inline OnlineScheduler::Plan
OnlineScheduler::planLayer(std::size_t inst) const
{
    const Frame &frame = frameAt(inst);
    const std::size_t row = frame.rowBase + frame.nextLayer;
    const std::size_t *order = activeTable->order(row);
    const FaultTimeline &faults = opts.sched.faults;

    if (faulty) {
        // Degraded-mode candidate selection: only sub-accelerators
        // with a finite availability point from this frame's earliest
        // start compete; the preference order (metric order, demoted
        // by the same load-balancing feedback) is otherwise unchanged.
        // When placement on the chosen candidate pushes past its
        // permanent failure, demote through the remaining usable
        // candidates; when every candidate fails, the frame can never
        // progress (plan.feasible = false).
        Plan plan;
        const double base_ready = frame.readyTime;
        auto usable = [&](std::size_t a) {
            return std::isfinite(faults.nextAvailable(
                a, std::max(base_ready, accAvail[a])));
        };
        std::size_t chosen = SIZE_MAX;
        for (std::size_t k = 0; k < nAcc; ++k) {
            if (usable(order[k])) {
                chosen = order[k];
                break;
            }
        }
        if (chosen == SIZE_MAX) {
            plan.feasible = false;
            return plan;
        }
        if (opts.sched.loadBalance && nAcc > 1) {
            const double best_metric =
                activeTable->metric(row, chosen);
            for (std::size_t k = 0; k < nAcc; ++k) {
                std::size_t a = order[k];
                if (!usable(a))
                    continue;
                if (activeTable->metric(row, a) >
                    best_metric * opts.sched.loadBalanceMaxDegradation)
                    break; // remaining candidates worse still
                double start = std::max(base_ready, accAvail[a]);
                double frontier =
                    start + activeTable->cost(row, a).cost.cycles;
                double max_f = frontier;
                double min_f = frontier;
                for (std::size_t b = 0; b < nAcc; ++b) {
                    if (b == a)
                        continue;
                    max_f = std::max(max_f, accAvail[b]);
                    min_f = std::min(min_f, accAvail[b]);
                }
                if (min_f > 0.0 &&
                    max_f <= opts.sched.loadBalanceFactor * min_f) {
                    chosen = a;
                    break;
                }
            }
        }
        auto try_acc = [&](std::size_t a) {
            const accel::StyledLayerCost &sc =
                activeTable->cost(row, a);
            Plan p;
            p.acc = a;
            if (opts.sched.contextChangeCycles > 0.0 &&
                accLastInstance[a] != SIZE_MAX &&
                accLastInstance[a] != inst)
                p.contextPenalty = opts.sched.contextChangeCycles;
            if (!placeOn(a, std::max(base_ready, accAvail[a]),
                         sc.cost.cycles, p.contextPenalty,
                         static_cast<double>(sc.cost.l2FootprintBytes),
                         p))
                return false;
            plan = p;
            return true;
        };
        if (try_acc(chosen))
            return plan;
        for (std::size_t k = 0; k < nAcc; ++k) {
            std::size_t a = order[k];
            if (a == chosen || !usable(a))
                continue;
            if (try_acc(a))
                return plan;
        }
        plan.feasible = false;
        return plan;
    }

    // Load-balancing feedback: demote overloading choices.
    std::size_t chosen = order[0];
    if (opts.sched.loadBalance && nAcc > 1) {
        const double best_metric = activeTable->metric(row, order[0]);
        for (std::size_t k = 0; k < nAcc; ++k) {
            std::size_t a = order[k];
            if (activeTable->metric(row, a) >
                best_metric * opts.sched.loadBalanceMaxDegradation) {
                break; // remaining candidates are worse still
            }
            double start = std::max(frame.readyTime, accAvail[a]);
            double frontier =
                start + activeTable->cost(row, a).cost.cycles;
            double max_f = frontier;
            double min_f = frontier;
            for (std::size_t b = 0; b < nAcc; ++b) {
                if (b == a)
                    continue;
                max_f = std::max(max_f, accAvail[b]);
                min_f = std::min(min_f, accAvail[b]);
            }
            if (min_f > 0.0 &&
                max_f <= opts.sched.loadBalanceFactor * min_f) {
                chosen = a;
                break;
            }
        }
    }

    // Dependence + memory constrained start time.
    Plan plan;
    plan.acc = chosen;
    const accel::StyledLayerCost &sc = activeTable->cost(row, chosen);
    plan.dur = sc.cost.cycles;
    if (opts.sched.contextChangeCycles > 0.0 &&
        accLastInstance[chosen] != SIZE_MAX &&
        accLastInstance[chosen] != inst) {
        plan.contextPenalty = opts.sched.contextChangeCycles;
        plan.dur += plan.contextPenalty;
    }
    plan.start = std::max(frame.readyTime, accAvail[chosen]);
    if (trackMemory)
        plan.start = memory.firstFeasible(
            plan.start, plan.dur,
            static_cast<double>(sc.cost.l2FootprintBytes));
    return plan;
}

// Pick from the ready set: the lowest key, the rank breaking ties —
// under breadth-first ordering the round-robin rotate cursor picks the
// first tied frame at or after it. Hysteresis: the granted frame keeps
// the floor unless some competitor's key undercuts its current key by
// more than the band (without it, least-slack dispatch re-keys per
// retired layer and degenerates into processor sharing).
inline std::size_t
OnlineScheduler::selectReadyIdx() const
{
    if (ready.empty())
        return SIZE_MAX;
    auto first = ready.begin();
    if (hysteresis && isReadyMember(grant) &&
        first->key >=
            frameAt(grant).currentKey - opts.sched.lstHysteresisCycles)
        return grant;
    if (breadth) {
        auto it = ready.lower_bound(ReadyKey{first->key, rotate, 0});
        if (it != ready.end() && it->key == first->key)
            return it->idx;
    }
    return first->idx;
}

std::size_t
OnlineScheduler::selectFutureIdx(bool &stall)
{
    stall = false;
    const std::size_t total = totalFrames();
    std::size_t scan = cursor;
    while (scan < total && !pending(frameAt(scan)))
        ++scan;
    if (scan == total) {
        // No queued pending frame. Before drain that only means
        // "not submitted yet"; after drain it is a real invariant
        // violation (the caller checked liveRemaining > 0).
        if (!draining)
            stall = true;
        return SIZE_MAX;
    }
    const double m = frameAt(scan).arrival;

    // Nothing has arrived: dispatch the nearest future arrival, the
    // policy key breaking ties. Exact-equal arrivals (periodic streams
    // share harmonics) take the closed-form winner of the band; only
    // sub-epsilon near-ties take the epsilon-tolerant scan of
    // sched::referenceSchedule. Run over *all* pending futures, that
    // scan provably picks inside (and depends only on) the
    // epsilon-chained component the band heads: any frame past a
    // > kEps arrival gap can never displace a component member under
    // the scan's tolerance rule. Bounding the walk here is what makes
    // the step incremental.
    std::vector<std::size_t> &run = futureRun;
    std::vector<std::size_t> &comp = futureComp;
    run.clear();
    comp.clear();
    bool near_tie = false;
    bool tie_known = false;
    double chain_end = m;
    for (std::size_t j = scan; j < total; ++j) {
        const Frame &f = frameAt(j);
        if (!pending(f))
            continue;
        if (f.arrival == m) {
            run.push_back(j);
            comp.push_back(j);
            continue;
        }
        if (!tie_known) {
            near_tie = f.arrival <= m + kEps;
            tie_known = true;
        }
        if (f.arrival <= chain_end + kEps) {
            comp.push_back(j);
            chain_end = f.arrival;
        } else {
            break;
        }
    }

    // Watermark gate: a not-yet-submitted frame (arrival >= the
    // watermark) could still join the band, flip the near-tie, or
    // extend the component — the decision is only closed once the
    // watermark has passed the component by more than the tolerance.
    if (!draining && !(watermark > chain_end + kEps)) {
        stall = true;
        return SIZE_MAX;
    }

    auto rank_less = [&](std::size_t j, std::size_t rank) {
        return frameAt(j).rank < rank;
    };
    if (near_tie) {
        // Epsilon-tolerant scan over the component in rank order,
        // rotated at the round-robin cursor. Ranks need not follow
        // arrivals across the component, so it is sorted first.
        std::sort(comp.begin(), comp.end(),
                  [&](std::size_t a, std::size_t b) {
                      return frameAt(a).rank < frameAt(b).rank;
                  });
        std::size_t inst = SIZE_MAX;
        double best_arrival = workload::kNoDeadline;
        double best_key = workload::kNoDeadline;
        auto consider = [&](std::size_t cand) {
            const Frame &cf = frameAt(cand);
            const double key = keyOf(cand);
            bool better =
                inst == SIZE_MAX ||
                cf.arrival < best_arrival - kEps ||
                (std::abs(cf.arrival - best_arrival) <= kEps &&
                 key < best_key);
            if (better) {
                inst = cand;
                best_arrival = cf.arrival;
                best_key = key;
            }
        };
        auto split =
            std::lower_bound(comp.begin(), comp.end(),
                             breadth ? rotate : std::size_t{0}, rank_less);
        for (auto it = split; it != comp.end(); ++it)
            consider(*it);
        for (auto it = comp.begin(); it != split; ++it)
            consider(*it);
        return inst;
    }

    // Rotated visit order over the band, which equal arrivals put in
    // rank order; keep the lowest key, first seen wins ties (pure rank
    // order for constant-key FIFO).
    std::size_t start_pos = 0;
    if (breadth) {
        start_pos = static_cast<std::size_t>(
            std::lower_bound(run.begin(), run.end(), rotate, rank_less) -
            run.begin());
        if (start_pos == run.size())
            start_pos = 0;
    }
    std::size_t best = SIZE_MAX;
    double best_key = 0.0;
    for (std::size_t k = 0; k < run.size(); ++k) {
        const std::size_t cand = run[(start_pos + k) % run.size()];
        const double key = keyOf(cand);
        if (best == SIZE_MAX || key < best_key) {
            best = cand;
            best_key = key;
        }
    }
    return best;
}

bool
OnlineScheduler::urgentExists(double end, double threshold) const
{
    const std::size_t total = totalFrames();
    for (std::size_t j = cursor; j < total; ++j) {
        const Frame &f = frameAt(j);
        if (f.arrival >= end - kEps)
            break;
        if (pending(f) && keyOf(j) < threshold)
            return true;
    }
    return false;
}

inline void
OnlineScheduler::commit(std::size_t inst, const Plan &plan)
{
    Frame &f = frameAt(inst);
    const std::size_t layer_idx = f.nextLayer;
    const std::size_t row = f.rowBase + layer_idx;
    const accel::StyledLayerCost &sc =
        activeTable->cost(row, plan.acc);
    // A plan whose duration crosses the next fault onset is committed
    // as a fault-killed partial execution: it occupies the
    // sub-accelerator (and buffer) up to the onset exactly, performs
    // zero useful work, and the frame's chain retries from the onset.
    const bool killed =
        faulty && plan.killAt < plan.start + plan.dur - kEps;
    if (trackMemory)
        memory.add(plan.start,
                   killed ? plan.killAt - plan.start : plan.dur,
                   static_cast<double>(sc.cost.l2FootprintBytes));

    ScheduledLayer entry;
    entry.instanceIdx = f.rank;
    entry.layerIdx = layer_idx;
    entry.accIdx = plan.acc;
    entry.style = sc.style;
    entry.startCycle = plan.start;
    entry.endCycle = killed ? plan.killAt : plan.start + plan.dur;
    entry.energyUnits = sc.cost.energyUnits;
    if (killed) {
        entry.energyUnits *= (plan.killAt - plan.start) / plan.dur;
    }
    entry.l2FootprintBytes = sc.cost.l2FootprintBytes;
    entry.contextPenaltyCycles = plan.contextPenalty;
    entry.faultKilled = killed;
    sched.add(entry);
    ++committedLayers;
    if (killed) {
        ++faultKilledLayers;
        f.hadKill = true;
    }

    f.readyTime = entry.endCycle;
    f.lastEnd = entry.endCycle;
    accAvail[plan.acc] = entry.endCycle;
    releaseFrontier = std::max(releaseFrontier, entry.endCycle);
    accLastInstance[plan.acc] = inst;
    if (!killed) {
        ++f.nextLayer;
        --liveRemaining;
    }
    // Never wrapped: every lookup is a lower_bound over live ranks,
    // where "past the end" and "rank 0" pick the same element.
    rotate = f.rank + 1;
    grant = inst;
    // accAvail is final for this commit: one floor serves the re-test,
    // the releases and the sweep below, all of which read it only
    // under DoomedFrames.
    const double floor = doomDrop ? minAvail() : 0.0;

    if (pending(f)) {
        // Progress shrank the LST remaining work; a kill makes none.
        if (!killed && policyKind == Policy::Lst)
            readyRekey(inst);
        // The ready time moved: re-test directly (the floor sweep
        // cannot see a ready time that outruns the floor). The doom
        // key stays as stored — still a lower bound (sweepDoomed).
        if (doomDrop && f.inDoom && doomedNow(inst, floor))
            dropLive(inst);
    } else {
        readyRetire(inst);
        if (doomDrop && f.inDoom) {
            doomSet.erase(std::make_pair(f.doomKey, inst));
            f.inDoom = false;
        }
        finishFrame(inst);
    }
    releaseUpTo(releaseFrontier, floor);

    // Doomed-frame sweep: the floor only ever advances; every live
    // frame whose (deadline - remaining) key fell behind it can no
    // longer finish in time under any continuation — shed it now
    // rather than let it burn cycles the still-savable frames need.
    if (doomDrop) {
        if (runView)
            refreshDegraded(floor);
        sweepDoomed(floor);
    }

    // Elastic repartitioning rides the committed-layer sequence (see
    // maybeReconfigure and the reconfigPending doc): the decision is
    // transitively watermark-gated because this commit was, and it
    // reads only committed state — later submissions can never
    // retroactively change it.
    if (reconfig)
        reconfigPending = true;

    if (++commitsSinceMaintenance >= opts.maintenancePeriod)
        maintenance();
}

// Evaluated at most once per committed layer, so migrations are
// separated by at least one unit of real progress and the loop cannot
// livelock on back-to-back reconfigurations. The decision reads only
// committed state (the sub-accelerator frontiers and the PE split).
void
OnlineScheduler::maybeReconfigure()
{
    const ReconfigDecision d =
        reconfigPolicy->evaluate(accAvail, peSplit);
    if (!d.migrate)
        return;
    const accel::Accelerator &cur = epochAcc ? *epochAcc : *baseAcc;
    const accel::PartitionEpoch epoch =
        planMigrationEpoch(cur, d, nextEpochId++);
    // The migration is a short planned outage on donor and receiver:
    // both drain to their committed frontiers, then rewire for the
    // modeled penalty.
    const double window_start =
        std::max(accAvail[d.donor], accAvail[d.receiver]);
    const double window_end =
        window_start + opts.sched.reconfig.penaltyCycles(d.movedPes);
    epochAcc =
        std::make_unique<accel::Accelerator>(cur.withPartition(epoch));
    peSplit = epoch.peSplit;

    // Swap in the new epoch's costs: only the donor and receiver
    // columns are re-prefilled; every other column is reused verbatim
    // from the previous epoch.
    if (!epochTable)
        epochTable = std::make_unique<LayerCostTable>(*baseTable);
    epochTable->rebuildColumns(
        *reconfigCostModel, *tableWl, *epochAcc, opts.sched.metric,
        opts.sched.rdaOverheads,
        {std::min(d.donor, d.receiver),
         std::max(d.donor, d.receiver)},
        opts.sched.prefillThreads);
    activeTable = epochTable.get();

    // The run-time feasibility proofs read remaining-work bounds off
    // the active table — rebuild them against the new epoch. The
    // admission view stays frozen on the pristine table.
    if (runView) {
        runView = std::make_unique<LayerCostTable::DegradedView>(
            *activeTable);
        bool any_dead = false;
        for (char dm : deadMask)
            any_dead = any_dead || dm != 0;
        if (any_dead)
            runView->rebuild(deadMask);
    }
    if (doomDrop)
        rekeyDoomSet();

    accAvail[d.donor] = window_end;
    accAvail[d.receiver] = window_end;
    releaseFrontier = std::max(releaseFrontier, window_end);

    ReconfigEvent ev;
    ev.epochId = epoch.epochId;
    ev.donor = d.donor;
    ev.receiver = d.receiver;
    ev.movedPes = d.movedPes;
    ev.startCycle = window_start;
    ev.endCycle = window_end;
    ev.peSplit = epoch.peSplit;
    sched.addReconfig(ev);
    reconfigPolicy->onMigration(window_end);
    releaseUpTo(releaseFrontier, minAvail());
}

inline bool
OnlineScheduler::tryStep()
{
    for (;;) {
        if (liveRemaining == 0)
            return false;
        // Deferred reconfig evaluation (see reconfigPending): runs
        // before the next selection, on exactly the committed state
        // right after the matching commit.
        if (reconfigPending) {
            reconfigPending = false;
            maybeReconfigure();
        }
        if (selInst == SIZE_MAX) {
            // Release-frontier gate: an unsubmitted frame arriving
            // at or before the frontier would belong in the ready
            // set this selection reads.
            if (!draining && !(watermark > releaseFrontier + kEps))
                return false;
            std::size_t inst = selectReadyIdx();
            if (inst == SIZE_MAX) {
                bool stall = false;
                inst = selectFutureIdx(stall);
                if (stall)
                    return false;
                if (inst == SIZE_MAX)
                    util::panic("online scheduler: no instance with "
                                "pending layers");
            }
            selInst = inst;
        }
        // The plan is pure (it reads only committed state), so it is
        // recomputed — never stored — across pauses.
        Plan plan = planLayer(selInst);
        if (faulty && !plan.feasible) {
            // No usable sub-accelerator left: graceful degradation.
            dropLive(selInst);
            selInst = SIZE_MAX;
            continue;
        }
        // Preemption point (Preemption::AtLayerBoundary): before
        // committing, check whether the planned layer would span the
        // arrival of a strictly more urgent frame (smaller policy key;
        // the hysteresis band protects the grant holder here too). If
        // so, release everything arriving inside the planned window
        // and re-run selection — the urgent frame can claim the
        // sub-accelerator at its arrival (inserted idle). Each round
        // releases at least one frame, so the loop terminates. A layer
        // that will be killed ends at the fault onset, so that is the
        // window urgent arrivals are tested against.
        if (preempt) {
            const double end =
                std::min(plan.start + plan.dur, plan.killAt);
            // Preemption-window gate: urgency is judged against
            // every arrival before `end`, submitted or not.
            if (!draining && !(watermark >= end - kEps))
                return false;
            double threshold = keyOf(selInst);
            if (hysteresis && selInst == grant)
                threshold -= opts.sched.lstHysteresisCycles;
            if (urgentExists(end, threshold)) {
                releaseWindow(end, minAvail());
                selInst = SIZE_MAX;
                continue;
            }
        }
        commit(selInst, plan);
        selInst = SIZE_MAX;
        return true;
    }
}

void
OnlineScheduler::pump()
{
    while (tryStep()) {
    }
}

// ------------------------------------------------------------------
// Retirement + watchdog
// ------------------------------------------------------------------

void
OnlineScheduler::maintenance()
{
    commitsSinceMaintenance = 0;
    const double floor = retirementFloor();
    if (floor < retireFloor)
        util::panic("online watchdog: retirement floor moved "
                    "backwards (", floor, " < ", retireFloor, ")");
    retireFloor = floor;
    if (ready.size() > liveFrames)
        util::panic("online watchdog: ready set (", ready.size(),
                    ") exceeds live frames (", liveFrames, ")");
    if (opts.retainSchedule)
        return;

    const FaultTimeline &faults = opts.sched.faults;
    sched.retireEntriesBefore(floor, [&](const ScheduledLayer &e) {
        // Audit history as it is forgotten: a violation here means
        // the rolling counters would silently absorb a corrupt
        // schedule, so fail loudly instead. History is only retired
        // when streaming, where an entry's rank is its frame index.
        if (e.instanceIdx < winBase)
            util::panic("online watchdog: retired entry references "
                        "an already-popped frame ", e.instanceIdx);
        const Frame &f = frameAt(e.instanceIdx);
        if (e.startCycle < f.arrival - kEps)
            util::panic("online watchdog: retired entry of frame ",
                        e.instanceIdx, " starts ", e.startCycle,
                        " before its arrival ", f.arrival);
        if (e.startCycle < lastRetiredEnd[e.accIdx] - kEps)
            util::panic("online watchdog: retired entries overlap "
                        "on sub-accelerator ", e.accIdx, " at ",
                        e.startCycle);
        if (faulty) {
            if (e.faultKilled) {
                if (!faults.isFaultOnset(e.accIdx, e.endCycle))
                    util::panic("online watchdog: fault-killed entry "
                                "ends at ", e.endCycle, ", not at an "
                                "onset on sub-accelerator ",
                                e.accIdx);
            } else if (!faults.windowAvailable(e.accIdx, e.startCycle,
                                               e.duration())) {
                util::panic("online watchdog: retired entry overlaps "
                            "an unavailable window on "
                            "sub-accelerator ", e.accIdx);
            }
        }
        lastRetiredEnd[e.accIdx] =
            std::max(lastRetiredEnd[e.accIdx], e.endCycle);
    });
    if (trackMemory)
        memory.retireBefore(floor);

    // Pop finished frames off the window front once their entries
    // are retired (every committed end <= floor, handled just
    // above). A popped frame may sit ahead of the release cursor —
    // admission drops during a commit-free stretch never get
    // released — but releasing a finished frame is a no-op, so the
    // cursor and the horizon scan just fast-forward past the popped
    // prefix instead of indexing below the window base.
    const std::size_t total = totalFrames();
    while (winBase < total && frameAt(winBase).finished &&
           frameAt(winBase).lastEnd <= floor)
        ++winBase;
    cursor = std::max(cursor, winBase);
    liveScan = std::max(liveScan, winBase);
    // Compact once the popped prefix is more than half the vector:
    // the erase moves fewer frames than it frees, so popping stays
    // amortised O(1) per frame and the vector O(live window). Callers
    // hold no Frame& across this call.
    const std::size_t popped = winBase - winOff;
    if (2 * popped > win.size()) {
        win.erase(win.begin(),
                  win.begin() + static_cast<std::ptrdiff_t>(popped));
        winOff = winBase;
    }
}

// ------------------------------------------------------------------
// Public API
// ------------------------------------------------------------------

SubmitResult
OnlineScheduler::submit(std::size_t model_idx, double arrival_cycle,
                        double deadline_cycle)
{
    // Streaming ranks are admission indices: the frame's window index.
    return admit(model_idx, arrival_cycle, deadline_cycle, totalFrames());
}

SubmitResult
OnlineScheduler::admit(std::size_t model_idx, double arrival_cycle,
                       double deadline_cycle, std::size_t rank)
{
    if (draining)
        util::fatal("online scheduler: submit after drain");
    if (model_idx >= nModels)
        util::fatal("online scheduler: model index ", model_idx,
                    " out of range (", nModels, " models)");
    if (!std::isfinite(arrival_cycle) || arrival_cycle < 0.0)
        util::fatal("online scheduler: arrival must be finite and "
                    ">= 0, got ", arrival_cycle);
    if (arrival_cycle < lastArrival)
        util::fatal("online scheduler: arrivals must be "
                    "nondecreasing, got ", arrival_cycle, " after ",
                    lastArrival);
    if (!(arrival_cycle <= workload::kMaxCycle))
        util::fatal("online scheduler: arrival exceeds the ",
                    workload::kMaxCycle, "-cycle limit, got ",
                    arrival_cycle);
    const bool has_deadline =
        deadline_cycle != workload::kNoDeadline;
    if (has_deadline &&
        (!std::isfinite(deadline_cycle) ||
         deadline_cycle < arrival_cycle ||
         deadline_cycle > workload::kMaxCycle))
        util::fatal("online scheduler: deadline must be "
                    "kNoDeadline or a finite cycle in [arrival, ",
                    workload::kMaxCycle, "], got ", deadline_cycle);
    lastArrival = arrival_cycle;

    OnlineModelStats &ms = modelStats[model_idx];
    ++ms.submitted;

    // The watermark advances on every validated submission, accepted
    // or not: even a rejected frame proves no earlier arrival can
    // ever appear (arrivals are nondecreasing), which is exactly the
    // information the dispatch gates wait on. Freezing it on
    // rejection would livelock an overloaded server — nothing
    // commits, the oldest live frame never finishes, and the horizon
    // check rejects everything until drain. Pump before deciding
    // admission so the backpressure counters see the frames this
    // very submission just allowed to finish.
    watermark = arrival_cycle;
    pump();

    // --- Deterministic backpressure (mutates nothing but the
    // rejection counters, so reruns reject the same frames) ---
    if (liveFrames >= opts.maxLiveFrames) {
        ++ms.rejected;
        return SubmitResult::RejectedQueueFull;
    }
    if (std::isfinite(opts.horizonCycles)) {
        while (liveScan < totalFrames() &&
               frameAt(liveScan).finished)
            ++liveScan;
        if (liveScan < totalFrames() &&
            arrival_cycle - frameAt(liveScan).arrival >
                opts.horizonCycles) {
            ++ms.rejected;
            return SubmitResult::RejectedHorizon;
        }
    }

    // --- Admission ---
    Frame f;
    f.rank = rank;
    f.modelIdx = model_idx;
    f.uid = uidOf[model_idx];
    f.rowBase = rowBaseOf[model_idx];
    f.arrival = arrival_cycle;
    f.deadline = has_deadline ? deadline_cycle
                              : workload::kNoDeadline;
    f.numLayers = layersOf[model_idx];
    f.readyTime = arrival_cycle;
    ++ms.admitted;
    if (has_deadline)
        ++ms.framesWithDeadline;

    // Hopeless-frame admission proof: a frame whose deadline cannot be
    // met even by running every layer back to back on its best
    // sub-accelerator starting at arrival is hopeless under *any*
    // schedule (starts cannot precede the arrival, the layer chain is
    // serial, and each layer needs at least its best-case cycles) —
    // shed it up front instead of letting it steal cycles from frames
    // that can still make their deadlines. The proof reads the
    // dead-at-cycle-0 degraded view — mid-run failures are doom-sweep
    // business, not admission business.
    bool hopeless = false;
    if (dropAny && has_deadline) {
        const double optimistic =
            admissionView ? admissionView->remainingCycles(f.uid, 0)
                          : baseTable->remainingCycles(f.uid, 0);
        hopeless =
            f.deadline - f.arrival - optimistic < -kEps;
    }
    if (hopeless) {
        f.numLayers = 0;
        f.dropped = true;
        f.finished = true;
        win.push_back(f);
        if (opts.retainSchedule)
            sched.markDropped(rank);
        ++ms.dropped;
        ++ms.deadlineMisses;
        ++latInfCount;
        maxLatency = workload::kNoDeadline;
        // Sweep the cursor past it.
        releaseUpTo(releaseFrontier, minAvail());
        pump();
        // Admission drops commit nothing, so they must count toward
        // maintenance themselves: a flood of hopeless frames would
        // otherwise grow the window without ever popping it.
        if (++commitsSinceMaintenance >= opts.maintenancePeriod)
            maintenance();
        return SubmitResult::Dropped;
    }

    win.push_back(f);
    ++liveFrames;
    liveRemaining += f.numLayers;
    releaseUpTo(releaseFrontier, minAvail());
    pump();
    return SubmitResult::Accepted;
}

void
OnlineScheduler::drain()
{
    if (draining)
        return;
    draining = true;
    pump();
    if (liveRemaining != 0)
        util::panic("online scheduler: drain left ", liveRemaining,
                    " layers pending");
    maintenance();
}

const Schedule &
OnlineScheduler::schedule() const
{
    if (!opts.retainSchedule)
        util::fatal("online scheduler: schedule() requires "
                    "retainSchedule — the serving engine retires "
                    "history; read stats() instead");
    return sched;
}

double
OnlineScheduler::latencyPercentile(double q) const
{
    std::uint64_t finite = 0;
    for (std::uint64_t c : latHist)
        finite += c;
    const std::uint64_t n = finite + latInfCount;
    if (n == 0)
        return 0.0;
    // Nearest-rank, like Schedule::computeSla; dropped frames sit at
    // +infinity past every histogram bucket.
    std::uint64_t r = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (r == 0)
        r = 1;
    if (r > finite)
        return workload::kNoDeadline;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < latHist.size(); ++b) {
        cum += latHist[b];
        if (cum >= r)
            return std::exp2(static_cast<double>(b + 1) / kLatScale) -
                   1.0;
    }
    return maxLatency; // unreachable: r <= finite
}

OnlineStats
OnlineScheduler::stats() const
{
    OnlineStats s;
    for (const OnlineModelStats &ms : modelStats) {
        s.submittedFrames += ms.submitted;
        s.rejectedFrames += ms.rejected;
        s.admittedFrames += ms.admitted;
        s.framesWithDeadline += ms.framesWithDeadline;
        s.completedFrames += ms.completed;
        s.droppedFrames += ms.dropped;
        s.deadlineMisses += ms.deadlineMisses;
    }
    s.liveFrames = liveFrames;
    if (s.framesWithDeadline > 0) {
        s.missRate = static_cast<double>(s.deadlineMisses) /
                     static_cast<double>(s.framesWithDeadline);
    }
    s.committedLayers = committedLayers;
    s.faultKilledLayers = faultKilledLayers;
    s.framesRescheduled = framesRescheduled;
    s.p50LatencyCycles = latencyPercentile(0.50);
    s.p99LatencyCycles = latencyPercentile(0.99);
    s.p999LatencyCycles = latencyPercentile(0.999);
    s.maxLatencyCycles = maxLatency;
    s.windowFrames = totalFrames() - winBase;
    s.readyFrames = ready.size();
    s.liveEntries = sched.entries().size();
    s.liveIntervals = memory.liveIntervals();
    s.retiredEntries = sched.retiredEntries();
    s.watermarkCycle = watermark < 0.0 ? 0.0 : watermark;
    s.retireFloorCycle = retireFloor;
    s.perModel = modelStats;
    return s;
}

} // namespace herald::sched
