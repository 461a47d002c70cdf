#include "sched/herald_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "sched/layer_cost_table.hh"
#include "sched/memory_tracker.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"

namespace herald::sched
{

namespace
{

constexpr double kEps = 1e-6;

} // namespace

const char *
toString(Ordering ordering)
{
    switch (ordering) {
      case Ordering::BreadthFirst:
        return "breadth-first";
      case Ordering::DepthFirst:
        return "depth-first";
    }
    util::panic("unknown Ordering");
}

const char *
toString(Preemption preemption)
{
    switch (preemption) {
      case Preemption::Off:
        return "run-to-completion";
      case Preemption::AtLayerBoundary:
        return "preempt-at-layer";
    }
    util::panic("unknown Preemption");
}

void
SchedulerOptions::validate() const
{
    // NaN poisons every ordered comparison downstream (all false),
    // so finiteness is checked explicitly, mirroring the workload
    // constructors.
    if (!(loadBalanceFactor >= 1.0))
        util::fatal("load-balancing factor must be >= 1, got ",
                    loadBalanceFactor);
    if (!(loadBalanceMaxDegradation >= 1.0))
        util::fatal("load-balancing max degradation must be >= 1, "
                    "got ",
                    loadBalanceMaxDegradation);
    if (lookaheadDepth < 0 || maxPostPasses < 0)
        util::fatal("negative post-processing parameter: lookahead ",
                    lookaheadDepth, ", max passes ", maxPostPasses);
    if (!std::isfinite(lstHysteresisCycles) ||
        lstHysteresisCycles < 0.0)
        util::fatal("LST hysteresis band must be finite and >= 0, "
                    "got ",
                    lstHysteresisCycles);
    // A hysteresis band with a policy that never consults it is a
    // contradiction, not a tuning choice: the caller believes grants
    // are sticky when selection ignores the band entirely.
    if (lstHysteresisCycles > 0.0 && policy != Policy::Lst)
        util::fatal("lstHysteresisCycles is an LST knob; policy is ",
                    toString(policy),
                    " — set policy = Policy::Lst or drop the band");
    if (!std::isfinite(contextChangeCycles) ||
        contextChangeCycles < 0.0)
        util::fatal("context-change penalty must be finite and >= 0, "
                    "got ",
                    contextChangeCycles);
    reconfig.validate();
}

/*
 * Proof of the bound. A tracker probe at time t counts interval
 * [s, e) iff s <= p < e, where p = t + kEps; `feasible` passes iff
 * occupancy + bytes <= capacity + kEps at every probe of the window,
 * and `firstFeasible` returns its start iff `feasible` passes there.
 * So when every probe sees at most maxBufferDemand bytes and that
 * fits the buffer, every `feasible` is true, every `firstFeasible`
 * returns its start unchanged, and skipping the tracker changes no
 * schedule.
 *
 * Dispatch. A sub-accelerator runs one layer at a time: every new
 * layer starts at or after its sub-accelerator's frontier, the end
 * of its latest entry, which the tracker books as that same
 * start + dur. So entries on one sub-accelerator are disjoint,
 * e_i <= s_(i+1). A point p lies in at most one of them, and in none
 * on the probed layer's own sub-accelerator, whose entries all end
 * at or before the probed start <= p. Occupancy + bytes <= sum over
 * a of maxFp(a).
 *
 * Post-processing. Write d for the shortest entry. The pull pass
 * starts an entry no earlier than its predecessor's end. Gap-fill
 * starts a candidate no earlier than its new predecessor's end but
 * accepts an end up to kEps past the gap, so neighbours may overlap:
 * e_i <= fl(s_(i+1) + kEps) <= s_(i+1) + 2 kEps (the rounding adds at
 * most kEps where doubles are <= 2 kEps apart; elsewhere the sum
 * rounds back to s_(i+1)). Moves keep this: a pull only lowers an
 * end, and the entry left behind by a gap-fill, i + 1, now follows
 * i - 1 with e_(i-1) <= s_i + 2 kEps = e_i - d_i + 2 kEps
 * <= s_(i+1) + 4 kEps - d <= s_(i+1) once d >= 4 kEps. By the same
 * chain e_i <= s_(i+2), so a point lies in at most two entries per
 * sub-accelerator. On the moved entry's own sub-accelerator (the
 * entry itself excluded) the predecessor and everything before it
 * end by the probed start, and a probe, at most fl(e + kEps)
 * <= s_next + 4 kEps, lies before the start of the entry after the
 * successor once d >= 6 kEps, so only the successor counts.
 * Occupancy + bytes <= 2 * sum over a of maxFp(a).
 *
 * Durations. Entry lengths are table cycles (plus a context penalty)
 * and every move re-rounds one end, so lengths drift by a rounding
 * per move. Requiring every table entry to take kMinElidedCycles = 1
 * cycle clears 6 kEps and that drift by orders of magnitude at any
 * time below 2^40 cycles, where a rounding is at most 2^-13. A table
 * with a shorter layer keeps the tracker.
 *
 * When to keep tracking. Elastic repartitioning swaps in epoch
 * tables whose footprints the pristine table does not bound. Under a
 * fault timeline a killed entry is booked as start + (onset - start),
 * which can round past the onset at which the next layer starts, and
 * it can be shorter than 6 kEps. Both report +infinity.
 */
double
maxBufferDemand(const SchedulerOptions &opts, const LayerCostTable &table)
{
    constexpr double kUnbounded = std::numeric_limits<double>::infinity();
    constexpr double kMinElidedCycles = 1.0;
    if (opts.reconfig.enabled() || !opts.faults.empty())
        return kUnbounded;
    double sum = 0.0;
    for (std::size_t a = 0; a < table.numSubAccs(); ++a)
        sum += static_cast<double>(table.maxFootprintBytes(a));
    if (!opts.postProcess)
        return sum;
    for (std::size_t row = 0; row < table.numUniqueLayers(); ++row) {
        if (!(table.minCycles(row) >= kMinElidedCycles))
            return kUnbounded;
    }
    return 2.0 * sum;
}

HeraldScheduler::HeraldScheduler(cost::CostModel &model,
                                 SchedulerOptions options)
    : costModel(model), opts(options)
{
    opts.validate();
}

Schedule
HeraldScheduler::schedule(const workload::Workload &wl,
                          const accel::Accelerator &acc) const
{
    if (wl.numInstances() == 0)
        return Schedule(acc.numSubAccs());
    LayerCostTable table =
        LayerCostTable::build(costModel, wl, acc, opts.metric,
                              opts.rdaOverheads, opts.prefillThreads);
    return schedule(wl, acc, table);
}

Schedule
HeraldScheduler::schedule(const workload::Workload &wl,
                          const accel::Accelerator &acc,
                          const LayerCostTable &table) const
{
    const std::size_t n_inst = wl.numInstances();
    if (n_inst == 0)
        return Schedule(acc.numSubAccs());

    // The engine releases frames in submission order, and frames with
    // equal arrivals must come in rank order: submit by (arrival,
    // instance index), ranked by instance index.
    const std::vector<workload::Instance> &instances = wl.instances();
    std::vector<std::size_t> arrival_sorted(n_inst);
    std::iota(arrival_sorted.begin(), arrival_sorted.end(), 0);
    std::sort(arrival_sorted.begin(), arrival_sorted.end(),
              [&](std::size_t a, std::size_t b) {
                  if (instances[a].arrivalCycle !=
                      instances[b].arrivalCycle)
                      return instances[a].arrivalCycle <
                             instances[b].arrivalCycle;
                  return a < b;
              });

    OnlineScheduler engine(costModel, wl, acc, table, opts);
    for (std::size_t i : arrival_sorted) {
        const workload::Instance &inst = instances[i];
        engine.admit(inst.specIdx, inst.arrivalCycle, inst.deadlineCycle,
                     i);
    }
    engine.drain();

    Schedule schedule = std::move(engine.sched);
    if (opts.postProcess)
        postProcessIdleTime(schedule, wl,
                            engine.trackMemory ? &engine.memory : nullptr);
    return schedule;
}

namespace
{

/**
 * Dependence anchor of every entry: the index of the entry that
 * completed (instance, layer - 1), or SIZE_MAX for a first layer or
 * a predecessor that never ran. Fault-killed entries are never
 * anchors: a killed (instance, layer) pair reappears as a later
 * re-execution, and only the execution that completed the work is a
 * dependence anchor. Post-processing only retimes entries, so the
 * indices stay valid for the whole pass.
 */
std::vector<std::size_t>
buildPredecessors(const std::vector<ScheduledLayer> &entries,
                  std::size_t num_instances)
{
    // (instance, layer) owns slot base[instance] + layer.
    std::vector<std::size_t> base(num_instances + 1, 0);
    for (const ScheduledLayer &e : entries) {
        base[e.instanceIdx + 1] =
            std::max(base[e.instanceIdx + 1], e.layerIdx + 1);
    }
    std::partial_sum(base.begin(), base.end(), base.begin());
    std::vector<std::size_t> anchor(base.back(), SIZE_MAX);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].faultKilled)
            anchor[base[entries[i].instanceIdx] + entries[i].layerIdx] =
                i;
    }
    std::vector<std::size_t> pred(entries.size(), SIZE_MAX);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const ScheduledLayer &e = entries[i];
        if (e.layerIdx > 0)
            pred[i] = anchor[base[e.instanceIdx] + e.layerIdx - 1];
    }
    return pred;
}

} // namespace

void
HeraldScheduler::postProcessIdleTime(Schedule &schedule,
                                     const workload::Workload &wl,
                                     MemoryTracker *tracker) const
{
    std::vector<ScheduledLayer> &entries = schedule.mutableEntries();
    if (entries.empty())
        return;
    const std::vector<std::size_t> pred =
        buildPredecessors(entries, wl.numInstances());

    // Fault pinning: idle-time elimination must not rewrite fault
    // history. Pinned (never moved): killed entries (their end is
    // the fault onset), every entry of an instance that suffered a
    // kill (a re-execution pulled ahead of its kill would reorder
    // cause and effect), and entries whose committed window overlaps
    // an outage/throttle (their durations embed fault effects that
    // do not transfer to another window). Unpinned entries only ever
    // move into fully undisturbed windows.
    const FaultTimeline &faults = opts.faults;
    const bool faulty = !faults.empty();
    std::vector<char> pinned;
    if (faulty) {
        pinned.assign(entries.size(), 0);
        std::vector<char> victim(wl.numInstances(), 0);
        for (const ScheduledLayer &e : entries) {
            if (e.faultKilled)
                victim[e.instanceIdx] = 1;
        }
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const ScheduledLayer &e = entries[i];
            if (e.faultKilled || victim[e.instanceIdx] ||
                !faults.windowUndisturbed(e.accIdx, e.startCycle,
                                          e.duration()))
                pinned[i] = 1;
        }
    }
    // Reconfiguration windows pin like outages: the donor and
    // receiver are rewiring, so nothing may be hoisted into the
    // window (the dispatch loop never placed work there either).
    const std::vector<ReconfigEvent> &reconfigs =
        schedule.reconfigEvents();
    auto window_ok = [&](const ScheduledLayer &e, double new_start) {
        if (faulty && !faults.windowUndisturbed(e.accIdx, new_start,
                                                e.duration()))
            return false;
        for (const ReconfigEvent &w : reconfigs) {
            if (e.accIdx != w.donor && e.accIdx != w.receiver)
                continue;
            if (new_start < w.endCycle - kEps &&
                new_start + e.duration() > w.startCycle + kEps)
                return false;
        }
        return true;
    };

    // Earliest legal start: the predecessor's end, but never before
    // the instance's arrival (pull/gap-fill must not hoist a frame's
    // layers ahead of the frame itself).
    auto dep_ready = [&](std::size_t i) {
        const double arrival =
            wl.instances()[entries[i].instanceIdx].arrivalCycle;
        return pred[i] == SIZE_MAX
                   ? arrival
                   : std::max(arrival, entries[pred[i]].endCycle);
    };

    // The tracker is dispatch's own: interval i is entry i, booked at
    // [startCycle, endCycle) (a fault-killed entry, which is pinned,
    // at [start, start + (onset - start))). It and the
    // per-sub-accelerator time order, built once here, are maintained
    // incrementally: both passes only retime entries, and every
    // retime updates the tracker (move) and the order (splice) in
    // place, so no per-pass rebuild or re-sort is needed. Entry start
    // times on one sub-accelerator are strictly increasing (positive
    // durations, no overlap), so the maintained order is the unique
    // sorted order the per-pass sort would recompute.
    std::vector<std::vector<std::size_t>> per_acc(
        schedule.numSubAccs());
    for (std::size_t i = 0; i < entries.size(); ++i)
        per_acc[entries[i].accIdx].push_back(i);
    for (auto &vec : per_acc) {
        std::sort(vec.begin(), vec.end(),
                  [&](std::size_t a, std::size_t b) {
                      return entries[a].startCycle <
                             entries[b].startCycle;
                  });
    }

    for (int pass = 0; pass < opts.maxPostPasses; ++pass) {
        bool changed = false;

        // Pull pass: shift entries earlier preserving order.
        for (auto &vec : per_acc) {
            for (std::size_t pos = 0; pos < vec.size(); ++pos) {
                if (faulty && pinned[vec[pos]])
                    continue;
                ScheduledLayer &e = entries[vec[pos]];
                double acc_prev_end =
                    pos == 0 ? 0.0 : entries[vec[pos - 1]].endCycle;
                double new_start =
                    std::max(dep_ready(vec[pos]), acc_prev_end);
                if (new_start < e.startCycle - kEps &&
                    window_ok(e, new_start) &&
                    (!tracker ||
                     tracker->feasible(
                         new_start, e.duration(),
                         static_cast<double>(e.l2FootprintBytes),
                         vec[pos]))) {
                    if (tracker)
                        tracker->move(vec[pos], new_start);
                    double dur = e.duration();
                    e.startCycle = new_start;
                    e.endCycle = new_start + dur;
                    changed = true;
                }
            }
        }

        // Gap-fill pass (Fig. 9): move a later layer into an idle gap
        // within the look-ahead window. After every move the acc's
        // time order is re-established (a splice of the moved entry
        // to its new position) before continuing — gaps are only
        // meaningful on a sorted timeline.
        //
        // Each scan takes the first move it finds, and the next scan
        // resumes a little before that move's gap instead of at the
        // front. This is exact: every gap before `resume` still has
        // no move, so the moves (and the guard count) are those of a
        // scan from the front. Gap p reads only vec[p - 1 ..
        // p + lookaheadDepth], its candidates' predecessors, and
        // tracker events up to vec[p]'s start + 2 kEps. A move into
        // gap P rotates only vec[P .. j] and retimes only tracker
        // events at or after its new start. No entry before P can
        // depend on the moved entry: each starts no later than the
        // new start, which lies before the moved entry's old end. So
        // a gap with p + lookaheadDepth < P whose tracker reach ends
        // before the new start reads nothing that changed.
        const std::size_t lookahead =
            static_cast<std::size_t>(opts.lookaheadDepth);
        for (auto &vec : per_acc) {
            bool moved = true;
            int guard = 0;
            std::size_t resume = 0;
            const int max_moves =
                static_cast<int>(vec.size()) + 8;
            while (moved && guard++ < max_moves) {
                moved = false;
                // Gaps include the leading idle window before the
                // sub-accelerator's first entry (pos == 0) — with
                // staggered arrivals a frame pinned at its arrival
                // can leave a long head gap that later-queued but
                // already-arrived work should fill. A candidate is
                // placed at the earliest point inside the gap its
                // dependences and arrival allow, not just at the
                // gap's left edge.
                for (std::size_t pos = resume;
                     pos < vec.size() && !moved; ++pos) {
                    double gap_start =
                        pos == 0 ? 0.0
                                 : entries[vec[pos - 1]].endCycle;
                    double gap_end = entries[vec[pos]].startCycle;
                    if (gap_end - gap_start <= kEps)
                        continue;
                    int depth = 0;
                    for (std::size_t j = pos;
                         j < vec.size() &&
                         depth < opts.lookaheadDepth;
                         ++j, ++depth) {
                        if (faulty && pinned[vec[j]])
                            continue;
                        ScheduledLayer &cand = entries[vec[j]];
                        double dur = cand.duration();
                        double earliest =
                            std::max(gap_start, dep_ready(vec[j]));
                        if (earliest + dur > gap_end + kEps)
                            continue; // does not fit in the gap
                        if (cand.startCycle <= earliest + kEps)
                            continue; // no improvement
                        if (!window_ok(cand, earliest))
                            continue; // would land on a fault
                        // Context-change penalties are baked into
                        // entry durations at dispatch time from the
                        // then-current sub-accelerator adjacency. A
                        // reorder that changed the adjacency would
                        // leave those durations stale (penalty
                        // charged where no switch remains, or a new
                        // switch uncharged), so with a non-zero
                        // penalty the move is only taken when it
                        // provably keeps every affected entry's
                        // penalty intact: the moved entry against
                        // its new predecessor, the entry it now
                        // precedes, and the entry left behind at its
                        // old slot. (The pull pass never reorders,
                        // so this is the only adjacency hazard;
                        // checkContextPenalties() asserts the
                        // invariant after the passes.)
                        if (opts.contextChangeCycles > 0.0 &&
                            j != pos) {
                            const double P = opts.contextChangeCycles;
                            auto pen = [&](const ScheduledLayer &e,
                                           const ScheduledLayer
                                               *prev) {
                                return prev && prev->instanceIdx !=
                                                   e.instanceIdx
                                           ? P
                                           : 0.0;
                            };
                            const ScheduledLayer *new_prev =
                                pos == 0 ? nullptr
                                         : &entries[vec[pos - 1]];
                            const ScheduledLayer &displaced =
                                entries[vec[pos]];
                            if (pen(cand, new_prev) !=
                                    cand.contextPenaltyCycles ||
                                pen(displaced, &cand) !=
                                    displaced.contextPenaltyCycles) {
                                continue;
                            }
                            if (j + 1 < vec.size()) {
                                const ScheduledLayer &orphan =
                                    entries[vec[j + 1]];
                                if (pen(orphan,
                                        &entries[vec[j - 1]]) !=
                                    orphan.contextPenaltyCycles) {
                                    continue;
                                }
                            }
                        }
                        if (tracker &&
                            !tracker->feasible(
                                earliest, dur,
                                static_cast<double>(
                                    cand.l2FootprintBytes),
                                vec[j])) {
                            continue;
                        }
                        if (tracker)
                            tracker->move(vec[j], earliest);
                        cand.startCycle = earliest;
                        cand.endCycle = earliest + dur;
                        // Splice vec[j] into its new slot at pos.
                        std::rotate(
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(j),
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(j + 1));
                        // A look-ahead's width back by index, then
                        // further back while a gap's tracker reach
                        // could touch the new start. The reach is the
                        // gap end plus the fit check's kEps plus the
                        // tracker's probe kEps (both 1e-6), rounded
                        // as the queries round it.
                        resume = pos > lookahead + 1
                                     ? pos - lookahead - 1
                                     : 0;
                        while (resume > 0 &&
                               !(entries[vec[resume - 1]].startCycle +
                                     kEps + kEps <
                                 earliest))
                            --resume;
                        changed = true;
                        moved = true;
                        break;
                    }
                }
            }
        }

        if (!changed)
            break;
    }

    if (opts.contextChangeCycles > 0.0) {
        std::string stale = checkContextPenalties(
            schedule, opts.contextChangeCycles);
        if (!stale.empty())
            util::panic("postProcessIdleTime: ", stale);
    }
}

} // namespace herald::sched
