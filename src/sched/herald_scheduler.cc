#include "sched/herald_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "sched/layer_cost_table.hh"
#include "sched/memory_tracker.hh"
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
    if (lstHysteresisCycles > 0.0 && effectivePolicy() != Policy::Lst)
        util::fatal("lstHysteresisCycles is an LST knob; policy is ",
                    toString(effectivePolicy()),
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
    const std::size_t n_acc = acc.numSubAccs();
    Schedule schedule(n_acc);
    if (n_inst == 0)
        return schedule;

    const std::vector<workload::Instance> &instances = wl.instances();
    const std::size_t total_layers = wl.totalLayers();
    schedule.reserve(total_layers);
    const bool breadth = opts.ordering == Ordering::BreadthFirst;

    // Per-instance state, hoisted out of the loop once.
    std::vector<std::size_t> next_layer(n_inst, 0);
    std::vector<std::size_t> layers_of(n_inst);
    std::vector<std::size_t> row_base(n_inst); //!< table row of layer 0
    // A layer chain becomes ready at its instance's arrival, not at
    // cycle 0 — real-time scenarios stagger frames this way.
    std::vector<double> ready_time(n_inst);
    for (std::size_t i = 0; i < n_inst; ++i) {
        layers_of[i] = wl.modelOf(i).numLayers();
        row_base[i] = table.rowOf(wl.uniqueIdOfInstance(i), 0);
        ready_time[i] = instances[i].arrivalCycle;
    }

    std::size_t remaining = total_layers;

    const bool preempt =
        opts.preemption == Preemption::AtLayerBoundary;
    const bool doom_drop = opts.dropPolicy == DropPolicy::DoomedFrames;
    const bool hysteresis = opts.lstHysteresisCycles > 0.0 &&
                            opts.effectivePolicy() == Policy::Lst;

    // --- Fault-injection state (sched/fault_model.hh) ---
    // Every fault-aware branch below is gated on `faulty`, so an
    // empty timeline takes exactly the historical code path and
    // schedules stay bit-identical to the fault-free scheduler.
    const FaultTimeline &faults = opts.faults;
    const bool faulty = !faults.empty();
    if (faulty && faults.numSubAccs() != n_acc) {
        util::fatal("scheduler: fault timeline covers ",
                    faults.numSubAccs(),
                    " sub-accelerators, accelerator has ", n_acc);
    }

    // --- Elastic repartitioning state (sched/reconfig.hh) ---
    // Every reconfig-aware branch below is gated on `reconfig`, and
    // `active` stays pointing at the caller's pristine table until
    // the first migration, so Reconfig::Off takes exactly the
    // historical code path and schedules stay bit-identical to the
    // frozen-partition scheduler. After a migration `active` points
    // at a private copy with the donor/receiver columns re-prefilled
    // against the new epoch.
    const bool reconfig = opts.reconfig.enabled();
    const LayerCostTable *active = &table;
    std::unique_ptr<ReconfigPolicy> reconfig_policy;
    std::unique_ptr<LayerCostTable> epoch_table;
    std::optional<accel::Accelerator> epoch_acc;
    std::vector<std::uint64_t> pe_split;
    std::uint64_t next_epoch_id = 0;
    if (reconfig) {
        reconfig_policy = makeReconfigPolicy(opts.reconfig);
        pe_split.reserve(n_acc);
        for (const accel::SubAccelerator &sub : acc.subAccs())
            pe_split.push_back(sub.numPes);
        next_epoch_id = acc.partitionEpochId() + 1;
    }

    // Degraded-capacity view for the drop-policy feasibility proofs:
    // the pristine table's optimistic remaining work assumes the
    // best sub-accelerator is alive. Columns dead *from cycle 0* are
    // masked for the admission pre-pass (sound for every arrival);
    // mid-run failures are folded in by refresh_degraded() below as
    // the availability floor passes their onsets.
    std::unique_ptr<LayerCostTable::DegradedView> degraded;
    std::vector<char> dead_mask;
    std::vector<std::pair<double, std::size_t>> perm_fail; // sorted
    std::size_t next_fail = 0;
    if (faulty && opts.dropPolicy != DropPolicy::None) {
        degraded =
            std::make_unique<LayerCostTable::DegradedView>(table);
        dead_mask.assign(n_acc, 0);
        bool dead_at_zero = false;
        for (std::size_t a = 0; a < n_acc; ++a) {
            const double fail = faults.permanentFailureCycle(a);
            if (fail <= 0.0) {
                dead_mask[a] = 1;
                dead_at_zero = true;
            } else if (std::isfinite(fail)) {
                perm_fail.emplace_back(fail, a);
            }
        }
        if (dead_at_zero)
            degraded->rebuild(dead_mask);
        std::sort(perm_fail.begin(), perm_fail.end());
    }
    auto rem_cycles = [&](std::size_t u, std::size_t layer) {
        return degraded ? degraded->remainingCycles(u, layer)
                        : active->remainingCycles(u, layer);
    };

    // Over-subscription admission control: a frame whose deadline
    // cannot be met even by running every layer back to back on its
    // best sub-accelerator starting at arrival is provably hopeless
    // under *any* schedule (starts cannot precede the arrival, the
    // layer chain is serial, and each layer needs at least its
    // best-case cycles) — shed it up front instead of letting it
    // steal cycles from frames that can still make their deadlines.
    // DoomedFrames runs the same proof at arrival and re-runs a
    // schedule-state-aware variant at every dispatch decision below.
    if (opts.dropPolicy != DropPolicy::None) {
        for (std::size_t i = 0; i < n_inst; ++i) {
            const workload::Instance &inst = instances[i];
            if (!inst.hasDeadline())
                continue;
            double optimistic =
                rem_cycles(wl.uniqueIdOfInstance(i), 0);
            if (inst.deadlineCycle - inst.arrivalCycle - optimistic <
                -kEps) {
                schedule.markDropped(i);
                remaining -= layers_of[i];
                layers_of[i] = 0; // pending() is now always false
            }
        }
    }

    const std::unique_ptr<SelectionPolicy> policy =
        makeSelectionPolicy(opts.effectivePolicy(), wl, table,
                            next_layer);

    std::vector<double> acc_avail(n_acc, 0.0);
    std::vector<std::size_t> acc_last_instance(n_acc, SIZE_MAX);
    // The buffer timeline is only kept when it could bind.
    const bool track = maxBufferDemand(opts, table) >
                       static_cast<double>(acc.globalBufferBytes());
    MemoryTracker memory(acc.globalBufferBytes());
    if (track)
        memory.reserve(total_layers);

    // --- Dynamic doomed-frame state (DropPolicy::DoomedFrames) ---
    // Live deadline frames sit in a (deadline - remaining, idx)
    // ordered set. deadline - remaining < now is exactly
    // now + remaining > deadline, so as the "now" floor (the
    // earliest any sub-accelerator frees up) advances monotonically,
    // doomed frames surface at the front of the set and are shed in
    // amortized O(log n) — no per-layer scan over all live frames.
    // A frame whose own ready time (dependence chain) outruns the
    // shared floor is re-tested individually right after it is
    // scheduled, the only moment its ready time changes. Its stored
    // key is left as it was: a lower bound the sweep refreshes (see
    // sweep_doomed).
    std::vector<std::size_t> uid;
    std::set<std::pair<double, std::size_t>> doom_set;
    std::vector<double> doom_key;
    std::vector<char> in_doom;
    if (doom_drop) {
        uid.resize(n_inst);
        for (std::size_t i = 0; i < n_inst; ++i)
            uid[i] = wl.uniqueIdOfInstance(i);
        doom_key.assign(n_inst, 0.0);
        in_doom.assign(n_inst, 0);
    }
    auto min_avail = [&]() {
        if (!faulty) {
            double lo = acc_avail[0];
            for (std::size_t a = 1; a < n_acc; ++a)
                lo = std::min(lo, acc_avail[a]);
            return lo;
        }
        // Degraded floor: the earliest cycle any *usable* capacity
        // frees up. A dead sub-accelerator's frozen frontier must
        // not hold the floor down forever — project each frontier
        // through the fault timeline (kNeverCycle once the
        // sub-accelerator has permanently failed; +inf overall means
        // no capacity is left at all, dooming every deadline frame).
        double lo = kNeverCycle;
        for (std::size_t a = 0; a < n_acc; ++a)
            lo = std::min(lo, faults.nextAvailable(a, acc_avail[a]));
        return lo;
    };

    // --- Event-driven instance release ---
    // The release clock (release_frontier) is the latest committed
    // end cycle; an instance competes for dispatch only once its
    // arrival is inside the committed horizon. Instead of re-testing
    // every instance per scheduled layer, instances sit in an
    // arrival-sorted vector swept by a cursor: each is released
    // exactly once, into an ordered ready set the selection rules
    // read in O(log n).
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
    std::size_t cursor = 0;
    std::size_t rotate = 0; // breadth-first round-robin cursor
    std::size_t grant = SIZE_MAX; // hysteresis grant holder
    double release_frontier = 0.0;

    auto pending = [&](std::size_t idx) {
        return next_layer[idx] < layers_of[idx];
    };

    // Shed a live frame mid-schedule: committed layers stay on the
    // timeline (the cycles were really spent), the rest are
    // cancelled, and the frame is recorded as dropped (and therefore
    // missed). Called under DropPolicy::DoomedFrames, and — under
    // any drop policy — when a fault timeline leaves a frame with no
    // usable sub-accelerator at all (graceful degradation: the
    // alternative is a dispatch loop that can never terminate).
    auto drop_live = [&](std::size_t idx) {
        schedule.markDropped(idx);
        remaining -= layers_of[idx] - next_layer[idx];
        layers_of[idx] = next_layer[idx]; // pending() now false
        policy->retire(idx);
        if (doom_drop && in_doom[idx]) {
            doom_set.erase(std::make_pair(doom_key[idx], idx));
            in_doom[idx] = 0;
        }
    };
    // Provably-doomed test against the evolving schedule: the next
    // remaining layer cannot start before max(dependence-chain ready
    // time, earliest sub-accelerator availability), and the chain
    // needs at least its optimistic suffix — if even that lower
    // bound overshoots the deadline, no continuation can save the
    // frame. Under faults the suffix comes from the degraded view
    // (dead columns masked once the floor passes their onsets),
    // which is sound: the mask only ever contains sub-accelerators
    // already unusable at every cycle >= the frame's "now".
    auto doom_key_of = [&](std::size_t idx) {
        return instances[idx].deadlineCycle -
               rem_cycles(uid[idx], next_layer[idx]);
    };
    auto doomed_now = [&](std::size_t idx, double now_floor) {
        const workload::Instance &ri = instances[idx];
        if (!ri.hasDeadline())
            return false;
        double now = std::max(ready_time[idx], now_floor);
        double rem = rem_cycles(uid[idx], next_layer[idx]);
        return now + rem > ri.deadlineCycle + kEps;
    };
    // Recompute every doom key, moving the set's nodes.
    auto rekey_doom_set = [&]() {
        std::set<std::pair<double, std::size_t>> rekeyed;
        while (!doom_set.empty()) {
            auto node = doom_set.extract(doom_set.begin());
            const std::size_t idx = node.value().second;
            doom_key[idx] = doom_key_of(idx);
            node.value().first = doom_key[idx];
            rekeyed.insert(std::move(node));
        }
        doom_set.swap(rekeyed);
    };
    // Fold permanent failures whose onset the availability floor has
    // passed into the degraded view, re-keying the doom set against
    // the shrunk capacity (a frame's remaining-work bound can only
    // grow, so re-proofs may newly doom it).
    auto refresh_degraded = [&](double floor) {
        bool changed = false;
        while (next_fail < perm_fail.size() &&
               perm_fail[next_fail].first <= floor + kEps) {
            dead_mask[perm_fail[next_fail].second] = 1;
            ++next_fail;
            changed = true;
        }
        if (!changed)
            return;
        degraded->rebuild(dead_mask);
        if (doom_drop)
            rekey_doom_set();
    };
    // Shed every doom-set frame whose true key fell below the floor.
    // Stored keys are lower bounds on the true keys (remaining work
    // never grows as a frame progresses, and the only events that
    // can raise it re-key the whole set), so the sweep drops exactly
    // the frames an eagerly re-keyed set would; the proof is at
    // OnlineScheduler::sweepDoomed.
    auto sweep_doomed = [&](double floor) {
        while (!doom_set.empty() &&
               doom_set.begin()->first < floor - kEps) {
            const std::size_t idx = doom_set.begin()->second;
            const double key = doom_key_of(idx);
            if (key < floor - kEps) {
                drop_live(idx);
                continue;
            }
            auto node = doom_set.extract(doom_set.begin());
            node.value().first = key;
            doom_key[idx] = key;
            doom_set.insert(std::move(node));
        }
    };

    // Released instances with pending layers live in the policy's
    // (key, index)-ordered ready set; selection is the policy's
    // ordered-set lookup with the base order breaking ties —
    // identical outcomes to the reference scan for FIFO/EDF. Under
    // DoomedFrames a frame is doom-tested the moment it is released
    // (its arrival may already be inside a backlog) and tracked in
    // the doom set afterwards.
    // @p floor is min_avail(), read once by the caller: releases
    // never move acc_avail.
    auto release_inst = [&](std::size_t idx, double floor) {
        if (!pending(idx))
            return;
        policy->release(idx);
        if (!doom_drop || !instances[idx].hasDeadline())
            return;
        if (doomed_now(idx, floor)) {
            drop_live(idx);
            return;
        }
        doom_key[idx] = doom_key_of(idx);
        doom_set.emplace(doom_key[idx], idx);
        in_doom[idx] = 1;
    };
    auto release_up_to = [&](double frontier, double floor) {
        while (cursor < n_inst) {
            std::size_t idx = arrival_sorted[cursor];
            if (instances[idx].arrivalCycle > frontier + kEps)
                break;
            ++cursor;
            release_inst(idx, floor);
        }
    };
    // Preemptive release: everything arriving strictly before the
    // tentatively planned commit's end joins the ready set now —
    // called only when at least one such arrival is strictly more
    // urgent than the planned instance, so FIFO (constant key) and
    // deadline-free frames never trigger it.
    auto release_window = [&](double end, double floor) {
        while (cursor < n_inst) {
            std::size_t idx = arrival_sorted[cursor];
            if (instances[idx].arrivalCycle >= end - kEps)
                break;
            ++cursor;
            release_inst(idx, floor);
        }
    };

    // Nothing-has-arrived fallback, slow path: the reference
    // implementation's epsilon-tolerant scan over the pending
    // futures in base order. Only taken when arrivals are distinct
    // yet closer than kEps — floating-point pathology, not a real
    // schedule shape — so the index-ordered view is built on demand
    // instead of being maintained across the whole run.
    auto scan_future_base_order = [&]() -> std::size_t {
        std::vector<std::size_t> pending_future;
        pending_future.reserve(n_inst - cursor);
        for (std::size_t j = cursor; j < n_inst; ++j) {
            if (pending(arrival_sorted[j]))
                pending_future.push_back(arrival_sorted[j]);
        }
        std::sort(pending_future.begin(), pending_future.end());

        std::size_t inst = SIZE_MAX;
        double best_arrival = workload::kNoDeadline;
        double best_key = workload::kNoDeadline;
        auto consider = [&](std::size_t cand) {
            const workload::Instance &ci = instances[cand];
            double key = policy->keyOf(cand);
            bool better =
                inst == SIZE_MAX ||
                ci.arrivalCycle < best_arrival - kEps ||
                (std::abs(ci.arrivalCycle - best_arrival) <= kEps &&
                 key < best_key);
            if (better) {
                inst = cand;
                best_arrival = ci.arrivalCycle;
                best_key = key;
            }
        };
        auto split = std::lower_bound(pending_future.begin(),
                                      pending_future.end(),
                                      breadth ? rotate : 0);
        for (auto it = split; it != pending_future.end(); ++it)
            consider(*it);
        for (auto it = pending_future.begin(); it != split; ++it)
            consider(*it);
        return inst;
    };

    // Nothing-has-arrived fallback: dispatch the nearest future
    // arrival (EDF breaks equal-arrival ties when enabled). The
    // arrival-sorted cursor hands us the earliest band directly;
    // exact-equal arrivals (periodic streams share harmonics) keep
    // the closed-form winner, and only sub-epsilon near-ties fall
    // back to the reference scan.
    auto select_future = [&]() -> std::size_t {
        std::size_t scan = cursor;
        while (scan < n_inst && !pending(arrival_sorted[scan]))
            ++scan;
        if (scan == n_inst)
            return SIZE_MAX;
        const double m = instances[arrival_sorted[scan]].arrivalCycle;
        std::vector<std::size_t> run; // exact-equal band, idx order
        bool near_tie = false;
        for (std::size_t j = scan; j < n_inst; ++j) {
            std::size_t idx = arrival_sorted[j];
            if (!pending(idx))
                continue;
            double a = instances[idx].arrivalCycle;
            if (a == m) {
                run.push_back(idx);
                continue;
            }
            near_tie = a <= m + kEps;
            break;
        }
        if (near_tie)
            return scan_future_base_order();
        // Rotated visit order over the ascending run; the policy
        // keeps the lowest key (pure base order for FIFO).
        std::size_t start_pos = 0;
        if (breadth) {
            start_pos = static_cast<std::size_t>(
                std::lower_bound(run.begin(), run.end(), rotate) -
                run.begin());
            if (start_pos == run.size())
                start_pos = 0;
        }
        return policy->selectFromRun(run, start_pos);
    };

    // --- Tentative layer plan ---
    // Everything the commit needs, computed without mutating any
    // state: preemption points re-plan after releasing an urgent
    // arrival, and only the finally selected plan is committed.
    struct Plan
    {
        std::size_t acc = 0;
        double start = 0.0;
        double dur = 0.0; //!< includes the context penalty
        double contextPenalty = 0.0;
        /** False: no usable sub-accelerator from this frame's ready
         *  time — every candidate placement lands past a permanent
         *  failure. The frame cannot make progress and is shed. */
        bool feasible = true;
        /** Next fault onset strictly after start (kNeverCycle when
         *  none): a commit whose duration crosses it becomes a
         *  fault-killed partial execution ending exactly there. */
        double killAt = kNeverCycle;
    };
    // Fault-aware placement on one sub-accelerator: the earliest
    // start at or after `earliest` that is outside every known
    // outage, before the sub-accelerator's permanent failure, and
    // memory-feasible. The throttle factor is sampled at the start
    // and held for the whole layer (layers are atomic). Termination:
    // each round either returns or strictly advances `s` to a memory
    // event boundary past an availability point — both finite sets.
    auto place_on = [&](std::size_t a, double earliest,
                        double base_cycles, double penalty,
                        double bytes, Plan &out) {
        double s = earliest;
        for (;;) {
            const double avail = faults.nextAvailable(a, s);
            if (!std::isfinite(avail))
                return false; // dead from here on
            const double dur =
                base_cycles * faults.throttleFactorAt(a, avail) +
                penalty;
            const double fit =
                track ? memory.firstFeasible(avail, dur, bytes)
                      : avail;
            if (fit == avail) {
                out.start = fit;
                out.dur = dur;
                out.killAt = faults.nextOnset(a, fit);
                return true;
            }
            s = fit;
        }
    };
    auto plan_layer = [&](std::size_t inst) -> Plan {
        const std::size_t row = row_base[inst] + next_layer[inst];
        const std::size_t *order = active->order(row);

        if (faulty) {
            // Degraded-mode candidate selection: only
            // sub-accelerators with a finite availability point from
            // this frame's earliest start compete; the preference
            // order (metric order, demoted by the same
            // load-balancing feedback) is otherwise unchanged. When
            // placement on the chosen candidate pushes past its
            // permanent failure, demote through the remaining usable
            // candidates; when every candidate fails, the frame can
            // never progress (plan.feasible = false).
            Plan plan;
            const double base_ready = ready_time[inst];
            auto usable = [&](std::size_t a) {
                return std::isfinite(faults.nextAvailable(
                    a, std::max(base_ready, acc_avail[a])));
            };
            std::size_t chosen = SIZE_MAX;
            for (std::size_t k = 0; k < n_acc; ++k) {
                if (usable(order[k])) {
                    chosen = order[k];
                    break;
                }
            }
            if (chosen == SIZE_MAX) {
                plan.feasible = false;
                return plan;
            }
            if (opts.loadBalance && n_acc > 1) {
                const double best_metric =
                    active->metric(row, chosen);
                for (std::size_t k = 0; k < n_acc; ++k) {
                    std::size_t a = order[k];
                    if (!usable(a))
                        continue;
                    if (active->metric(row, a) >
                        best_metric * opts.loadBalanceMaxDegradation)
                        break; // remaining candidates worse still
                    double start =
                        std::max(base_ready, acc_avail[a]);
                    double frontier =
                        start + active->cost(row, a).cost.cycles;
                    double max_f = frontier;
                    double min_f = frontier;
                    for (std::size_t b = 0; b < n_acc; ++b) {
                        if (b == a)
                            continue;
                        max_f = std::max(max_f, acc_avail[b]);
                        min_f = std::min(min_f, acc_avail[b]);
                    }
                    if (min_f > 0.0 &&
                        max_f <= opts.loadBalanceFactor * min_f) {
                        chosen = a;
                        break;
                    }
                }
            }
            auto try_acc = [&](std::size_t a) {
                const accel::StyledLayerCost &sc =
                    active->cost(row, a);
                Plan p;
                p.acc = a;
                if (opts.contextChangeCycles > 0.0 &&
                    acc_last_instance[a] != SIZE_MAX &&
                    acc_last_instance[a] != inst)
                    p.contextPenalty = opts.contextChangeCycles;
                if (!place_on(a,
                              std::max(base_ready, acc_avail[a]),
                              sc.cost.cycles, p.contextPenalty,
                              static_cast<double>(
                                  sc.cost.l2FootprintBytes),
                              p))
                    return false;
                plan = p;
                return true;
            };
            if (try_acc(chosen))
                return plan;
            for (std::size_t k = 0; k < n_acc; ++k) {
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
        if (opts.loadBalance && n_acc > 1) {
            const double best_metric = active->metric(row, order[0]);
            for (std::size_t k = 0; k < n_acc; ++k) {
                std::size_t a = order[k];
                if (active->metric(row, a) >
                    best_metric * opts.loadBalanceMaxDegradation) {
                    break; // remaining candidates are worse still
                }
                double start =
                    std::max(ready_time[inst], acc_avail[a]);
                double frontier =
                    start + active->cost(row, a).cost.cycles;
                double max_f = frontier;
                double min_f = frontier;
                for (std::size_t b = 0; b < n_acc; ++b) {
                    if (b == a)
                        continue;
                    max_f = std::max(max_f, acc_avail[b]);
                    min_f = std::min(min_f, acc_avail[b]);
                }
                if (min_f > 0.0 &&
                    max_f <= opts.loadBalanceFactor * min_f) {
                    chosen = a;
                    break;
                }
            }
        }

        // Dependence + memory constrained start time.
        Plan plan;
        plan.acc = chosen;
        const accel::StyledLayerCost &sc = active->cost(row, chosen);
        plan.dur = sc.cost.cycles;
        if (opts.contextChangeCycles > 0.0 &&
            acc_last_instance[chosen] != SIZE_MAX &&
            acc_last_instance[chosen] != inst) {
            plan.contextPenalty = opts.contextChangeCycles;
            plan.dur += plan.contextPenalty;
        }
        plan.start = std::max(ready_time[inst], acc_avail[chosen]);
        if (track)
            plan.start = memory.firstFeasible(
                plan.start, plan.dur,
                static_cast<double>(sc.cost.l2FootprintBytes));
        return plan;
    };

    auto select_instance = [&]() {
        std::size_t inst = policy->selectReady(
            breadth, rotate, hysteresis ? grant : SIZE_MAX,
            opts.lstHysteresisCycles);
        if (inst == SIZE_MAX)
            inst = select_future();
        if (inst == SIZE_MAX)
            util::panic("scheduler: no instance with pending layers");
        return inst;
    };

    // --- Elastic repartitioning hook (sched/reconfig.hh) ---
    // Evaluated exactly once after every committed layer (the same
    // cadence as the preemption point), so migrations are separated
    // by at least one unit of real progress — the total number of
    // migrations is bounded by the total layer count and the loop
    // cannot livelock on back-to-back reconfigurations. The decision
    // reads only committed state (the sub-accelerator frontiers and
    // the PE split), which keeps offline and online dispatch in
    // lockstep: both evaluate the hook against the identical
    // committed-layer sequence.
    auto maybe_reconfigure = [&]() {
        const ReconfigDecision d =
            reconfig_policy->evaluate(acc_avail, pe_split);
        if (!d.migrate)
            return;
        const accel::Accelerator &cur = epoch_acc ? *epoch_acc : acc;
        const accel::PartitionEpoch epoch =
            planMigrationEpoch(cur, d, next_epoch_id++);
        // The migration is a short planned outage on donor and
        // receiver: both drain to their committed frontiers, then
        // rewire for the modeled penalty.
        const double window_start =
            std::max(acc_avail[d.donor], acc_avail[d.receiver]);
        const double window_end =
            window_start + opts.reconfig.penaltyCycles(d.movedPes);
        epoch_acc = cur.withPartition(epoch);
        pe_split = epoch.peSplit;

        // Swap in the new epoch's costs: only the donor and receiver
        // columns are re-prefilled; every other column is reused
        // verbatim from the previous epoch.
        if (!epoch_table)
            epoch_table = std::make_unique<LayerCostTable>(table);
        epoch_table->rebuildColumns(
            costModel, wl, *epoch_acc, opts.metric, opts.rdaOverheads,
            {std::min(d.donor, d.receiver),
             std::max(d.donor, d.receiver)},
            opts.prefillThreads);
        active = epoch_table.get();

        // The feasibility proofs (degraded view, doom keys) read
        // remaining-work bounds off the active table — rebuild them
        // against the new epoch so drop/doom decisions stay sound.
        if (degraded) {
            degraded = std::make_unique<LayerCostTable::DegradedView>(
                *active);
            bool any_dead = false;
            for (char dm : dead_mask)
                any_dead = any_dead || dm != 0;
            if (any_dead)
                degraded->rebuild(dead_mask);
        }
        if (doom_drop)
            rekey_doom_set();

        acc_avail[d.donor] = window_end;
        acc_avail[d.receiver] = window_end;
        release_frontier = std::max(release_frontier, window_end);

        ReconfigEvent ev;
        ev.epochId = epoch.epochId;
        ev.donor = d.donor;
        ev.receiver = d.receiver;
        ev.movedPes = d.movedPes;
        ev.startCycle = window_start;
        ev.endCycle = window_end;
        ev.peSplit = epoch.peSplit;
        schedule.addReconfig(ev);
        reconfig_policy->onMigration(window_end);
        release_up_to(release_frontier, min_avail());
    };

    release_up_to(release_frontier, min_avail());

    while (remaining > 0) {
        // --- Layer ordering heuristic: pick the next instance ---
        std::size_t inst = select_instance();
        Plan plan = plan_layer(inst);

        // --- Preemption point (Preemption::AtLayerBoundary) ---
        // Before committing, check whether the planned layer would
        // span the arrival of a strictly more urgent frame (smaller
        // policy key; the hysteresis band protects the grant holder
        // here too). If so, release everything arriving inside the
        // planned window and re-run selection — the urgent frame can
        // claim the sub-accelerator at its arrival (inserted idle)
        // instead of queueing behind a commit that had not actually
        // happened yet. Each round releases at least one instance,
        // so the loop terminates.
        if (preempt) {
            bool exhausted = false;
            for (;;) {
                // A frame with no usable sub-accelerator left can
                // never progress — shed it (graceful degradation,
                // any drop policy) and re-select.
                if (faulty && !plan.feasible) {
                    drop_live(inst);
                    if (remaining == 0) {
                        exhausted = true;
                        break;
                    }
                    inst = select_instance();
                    plan = plan_layer(inst);
                    continue;
                }
                // The layer actually ends at the fault onset when it
                // will be killed, so that is the window urgent
                // arrivals are tested against.
                const double end =
                    std::min(plan.start + plan.dur, plan.killAt);
                double threshold = policy->keyOf(inst);
                if (hysteresis && inst == grant)
                    threshold -= opts.lstHysteresisCycles;
                bool urgent = false;
                for (std::size_t j = cursor; j < n_inst; ++j) {
                    std::size_t idx = arrival_sorted[j];
                    if (instances[idx].arrivalCycle >= end - kEps)
                        break;
                    if (pending(idx) &&
                        policy->keyOf(idx) < threshold) {
                        urgent = true;
                        break;
                    }
                }
                if (!urgent)
                    break;
                release_window(end, min_avail());
                // Under DoomedFrames a release can shed frames.
                // Today a preemptively released frame can never be
                // shed here (its arrival exceeds the committed
                // frontier, so the release-time doom test reduces to
                // the static proof it already passed), but that
                // rests on a three-way invariant (cursor
                // monotonicity, min availability <= frontier, the
                // static pre-pass); guard against it breaking — with
                // nothing left to schedule, select_instance() would
                // panic and the commit below must not run.
                if (remaining == 0) {
                    exhausted = true;
                    break;
                }
                inst = select_instance();
                plan = plan_layer(inst);
            }
            if (exhausted)
                break;
        } else if (faulty && !plan.feasible) {
            drop_live(inst); // graceful degradation, any drop policy
            continue;
        }

        const std::size_t layer_idx = next_layer[inst];
        const std::size_t row = row_base[inst] + layer_idx;
        const accel::StyledLayerCost &sc =
            active->cost(row, plan.acc);
        // A plan whose duration crosses the next fault onset is
        // committed as a fault-killed partial execution: it occupies
        // the sub-accelerator (and buffer) up to the onset exactly,
        // performs zero useful work, and the frame's chain retries
        // from the onset. The non-faulty path books plan.dur
        // verbatim — bit-identical to the fault-free scheduler.
        const bool killed =
            faulty && plan.killAt < plan.start + plan.dur - kEps;
        if (track)
            memory.add(plan.start,
                       killed ? plan.killAt - plan.start : plan.dur,
                       static_cast<double>(sc.cost.l2FootprintBytes));

        ScheduledLayer entry;
        entry.instanceIdx = inst;
        entry.layerIdx = layer_idx;
        entry.accIdx = plan.acc;
        entry.style = sc.style;
        entry.startCycle = plan.start;
        entry.endCycle =
            killed ? plan.killAt : plan.start + plan.dur;
        entry.energyUnits = sc.cost.energyUnits;
        if (killed) {
            // Energy really spent before the fault hit.
            entry.energyUnits *=
                (plan.killAt - plan.start) / plan.dur;
        }
        entry.l2FootprintBytes = sc.cost.l2FootprintBytes;
        entry.contextPenaltyCycles = plan.contextPenalty;
        entry.faultKilled = killed;
        schedule.add(entry);

        ready_time[inst] = entry.endCycle;
        acc_avail[plan.acc] = entry.endCycle;
        release_frontier =
            std::max(release_frontier, entry.endCycle);
        acc_last_instance[plan.acc] = inst;
        if (!killed) {
            ++next_layer[inst];
            --remaining;
        }
        rotate = (inst + 1) % n_inst;
        grant = inst;
        // acc_avail is final for this commit: one floor serves the
        // re-test, the releases and the sweep below, all of which
        // read it only under DoomedFrames.
        const double floor = doom_drop ? min_avail() : 0.0;

        if (pending(inst)) {
            // Progress may change the policy's key (LST slack). A
            // kill makes no progress, so the key is unchanged.
            if (!killed)
                policy->onLayerScheduled(inst);
            // Progress also moved the frame's ready time: re-test it
            // directly (the shared floor sweep below cannot see a
            // ready time that outruns the floor). Its doom key stays
            // a valid lower bound, so it is not re-keyed here.
            if (doom_drop && in_doom[inst] && doomed_now(inst, floor))
                drop_live(inst);
        } else {
            // Exhausted: drop it from the ready set. (A one-layer
            // model exhausted by the fallback before its release was
            // never inserted — retire() is a no-op then, and
            // pending() checks keep the release sweep and fallback
            // scans from resurrecting it.)
            policy->retire(inst);
            if (doom_drop && in_doom[inst]) {
                doom_set.erase(std::make_pair(doom_key[inst], inst));
                in_doom[inst] = 0;
            }
        }
        release_up_to(release_frontier, floor);

        // --- Doomed-frame sweep ---
        // The floor (earliest any sub-accelerator frees up) only
        // ever advances; every live frame whose (deadline -
        // remaining) key fell behind it can no longer finish in
        // time under any continuation — shed them now rather than
        // letting them burn cycles the still-savable frames need.
        if (doom_drop) {
            if (degraded)
                refresh_degraded(floor);
            sweep_doomed(floor);
        }

        // Elastic repartitioning: one policy evaluation per
        // committed layer (see maybe_reconfigure above). Skipped
        // once the workload is exhausted — an outage with nothing
        // left to run would only stretch the makespan.
        if (reconfig && remaining > 0)
            maybe_reconfigure();
    }

    if (opts.postProcess)
        postProcessIdleTime(schedule, wl, track ? &memory : nullptr);
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
