#include "sched/schedule.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "sched/fault_model.hh"
#include "util/logging.hh"

namespace herald::sched
{

namespace
{
constexpr double kEps = 1e-6;

/**
 * Call @p f with a zero of the narrowest index type that can name
 * each of @p n entries and still keep its maximum free as a "none"
 * marker: 32 bits below 2^32 - 1 entries (half the memory of the
 * index arrays), std::size_t above.
 */
template <typename F>
decltype(auto)
withIndexType(std::size_t n, F &&f)
{
    if (n < std::numeric_limits<std::uint32_t>::max())
        return f(std::uint32_t{0});
    return f(std::size_t{0});
}

std::int64_t
footprint(const ScheduledLayer &e)
{
    return static_cast<std::int64_t>(e.l2FootprintBytes);
}

/**
 * Entry indices by start, then footprint ascending: the order of the
 * claims in a (time, delta)-sorted buffer sweep. The index breaks the
 * remaining ties, so the order is total.
 */
template <typename Index>
std::vector<Index>
claimOrder(const std::vector<ScheduledLayer> &list)
{
    std::vector<Index> order(list.size());
    std::iota(order.begin(), order.end(), Index{0});
    std::sort(order.begin(), order.end(), [&](Index x, Index y) {
        const ScheduledLayer &a = list[x];
        const ScheduledLayer &b = list[y];
        if (a.startCycle != b.startCycle)
            return a.startCycle < b.startCycle;
        if (a.l2FootprintBytes != b.l2FootprintBytes)
            return a.l2FootprintBytes < b.l2FootprintBytes;
        return x < y;
    });
    return order;
}

/** Entry indices by end, then footprint descending: the releases. */
template <typename Index>
std::vector<Index>
releaseOrder(const std::vector<ScheduledLayer> &list)
{
    std::vector<Index> order(list.size());
    std::iota(order.begin(), order.end(), Index{0});
    std::sort(order.begin(), order.end(), [&](Index x, Index y) {
        const ScheduledLayer &a = list[x];
        const ScheduledLayer &b = list[y];
        if (a.endCycle != b.endCycle)
            return a.endCycle < b.endCycle;
        if (a.l2FootprintBytes != b.l2FootprintBytes)
            return a.l2FootprintBytes > b.l2FootprintBytes;
        return x < y;
    });
    return order;
}

/**
 * Global-buffer sweep: merge the claim and release orders, releases
 * first at equal times. That is the order of the 2n events
 * (time, +-footprint) sorted by time then delta — releases carry
 * deltas <= 0, claims >= 0 — up to swaps of equal events, so every
 * running occupancy is the same. Calls @p visit(time, occupancy)
 * after each event until it returns false.
 */
template <typename Index, typename Visit>
void
sweepBuffer(const std::vector<ScheduledLayer> &list,
            const std::vector<Index> &claims,
            const std::vector<Index> &releases, Visit &&visit)
{
    std::int64_t occupancy = 0;
    std::size_t c = 0;
    std::size_t r = 0;
    while (c < claims.size() || r < releases.size()) {
        if (r < releases.size() &&
            (c == claims.size() || list[releases[r]].endCycle <=
                                       list[claims[c]].startCycle)) {
            const ScheduledLayer &e = list[releases[r++]];
            occupancy -= footprint(e);
            if (!visit(e.endCycle, occupancy))
                return;
        } else {
            const ScheduledLayer &e = list[claims[c++]];
            occupancy += footprint(e);
            if (!visit(e.startCycle, occupancy))
                return;
        }
    }
}

/**
 * Schedule::validate past its arity checks. The (instance, layer)
 * lookups go through one dense slot array — instance i owns slots
 * [base[i], base[i + 1]), one per model layer — holding the index of
 * the entry that executed it (killed attempts excluded) or @c kNone.
 * The overlap check walks the claim order, comparing each entry with
 * the previous one on its sub-accelerator; the buffer check merges it
 * with the release order. The checks run, and report, in the order
 * and with the text of the original map-based checker.
 */
template <typename Index>
std::string
checkEntries(const Schedule &s, const workload::Workload &wl,
             const accel::Accelerator &acc, const FaultTimeline *faults)
{
    constexpr Index kNone = std::numeric_limits<Index>::max();
    const std::vector<ScheduledLayer> &list = s.entries();
    const std::size_t num_accs = s.numSubAccs();
    const std::size_t num_insts = wl.numInstances();
    std::ostringstream err;

    // Dropped frames are intentionally incomplete: a frame shed at
    // admission has no layers at all, a frame shed mid-schedule
    // (dynamic doomed-frame drop) keeps the prefix it had already
    // committed — in either case the scheduled layers must form a
    // dependence-chain prefix, and completeness is judged on the
    // remainder.
    for (std::size_t d : s.droppedInstances()) {
        if (d >= num_insts) {
            err << "dropped instance " << d << " out of range";
            return err.str();
        }
    }

    // Completeness: every non-dropped (instance, layer) exactly
    // once; dropped instances contribute a (possibly empty) prefix.
    // Fault-killed entries are wasted attempts, not executions: they
    // are excluded from uniqueness/completeness and checked against
    // the fault timeline separately below.
    std::vector<std::size_t> base(num_insts + 1, 0);
    for (std::size_t i = 0; i < num_insts; ++i)
        base[i + 1] = base[i] + wl.modelOf(i).numLayers();
    std::vector<Index> slot(base[num_insts], kNone);
    for (std::size_t i = 0; i < list.size(); ++i) {
        const ScheduledLayer &e = list[i];
        if (e.instanceIdx >= num_insts) {
            err << "entry references instance " << e.instanceIdx
                << " out of range";
            return err.str();
        }
        const dnn::Model &model = wl.modelOf(e.instanceIdx);
        if (e.layerIdx >= model.numLayers()) {
            err << "entry references layer " << e.layerIdx
                << " out of range for " << model.name();
            return err.str();
        }
        if (e.faultKilled) {
            if (!faults) {
                err << "fault-killed entry (instance "
                    << e.instanceIdx << " layer " << e.layerIdx
                    << ") without a fault timeline";
                return err.str();
            }
            continue;
        }
        Index &owner = slot[base[e.instanceIdx] + e.layerIdx];
        if (owner != kNone) {
            err << "duplicate entry for instance " << e.instanceIdx
                << " layer " << e.layerIdx;
            return err.str();
        }
        owner = static_cast<Index>(i);
    }
    auto executed = [&](std::size_t inst, std::size_t layer) {
        return slot[base[inst] + layer];
    };
    // An instance's filled slots: how many, and the highest one.
    auto filled = [&](std::size_t inst) {
        std::size_t count = 0;
        std::size_t last = 0;
        for (std::size_t l = 0; l < base[inst + 1] - base[inst]; ++l) {
            if (executed(inst, l) != kNone) {
                ++count;
                last = l;
            }
        }
        return std::make_pair(count, last);
    };
    for (std::size_t i = 0; i < num_insts; ++i) {
        const std::size_t expect = base[i + 1] - base[i];
        const auto [count, last] = filled(i);
        if (s.isDropped(i)) {
            // Uniqueness holds, so "prefix" == the highest filled
            // slot is count - 1.
            if (count > 0 && last != count - 1) {
                err << "dropped instance " << i << " scheduled "
                    << count << " layers that are not a chain prefix";
                return err.str();
            }
            if (count >= expect) {
                err << "dropped instance " << i
                    << " is fully scheduled";
                return err.str();
            }
        } else if (count != expect) {
            err << "instance " << i << " has " << count
                << " scheduled layers, model has " << expect;
            return err.str();
        }
    }

    // Fault consistency: every entry stays clear of unavailable
    // windows (killed entries end *at* the onset, which is exactly
    // the boundary of availability), and every killed entry ends at
    // a fault onset and precedes the re-execution of its layer.
    if (faults) {
        for (const ScheduledLayer &e : list) {
            if (!faults->windowAvailable(e.accIdx, e.startCycle,
                                         e.duration())) {
                err << "instance " << e.instanceIdx << " layer "
                    << e.layerIdx << " [" << e.startCycle << ", "
                    << e.endCycle << ") overlaps an unavailable "
                    << "window on sub-accelerator " << e.accIdx;
                return err.str();
            }
        }
        for (const ScheduledLayer &k : list) {
            if (!k.faultKilled)
                continue;
            if (!faults->isFaultOnset(k.accIdx, k.endCycle)) {
                err << "fault-killed entry (instance " << k.instanceIdx
                    << " layer " << k.layerIdx << ") ends at "
                    << k.endCycle
                    << ", not at a fault onset on sub-accelerator "
                    << k.accIdx;
                return err.str();
            }
            const Index redo = executed(k.instanceIdx, k.layerIdx);
            if (redo != kNone) {
                if (list[redo].startCycle < k.endCycle - kEps) {
                    err << "re-execution of instance " << k.instanceIdx
                        << " layer " << k.layerIdx << " starts "
                        << list[redo].startCycle
                        << " before its killed attempt ends "
                        << k.endCycle;
                    return err.str();
                }
            } else if (!s.isDropped(k.instanceIdx)) {
                err << "instance " << k.instanceIdx << " layer "
                    << k.layerIdx << " was fault-killed but never "
                    << "re-executed (and the frame is not dropped)";
                return err.str();
            } else if (k.layerIdx != filled(k.instanceIdx).first) {
                // A dropped frame's unrecovered kill can only be the
                // attempt at the first uncommitted layer.
                err << "dropped instance " << k.instanceIdx
                    << " has a killed attempt at layer " << k.layerIdx
                    << " beyond its committed prefix";
                return err.str();
            }
        }
    }

    // Reconfiguration windows are planned outages on the donor and
    // receiver: no entry on either party may overlap one (a layer in
    // flight at the window start would have been drained or killed).
    for (const ReconfigEvent &w : s.reconfigEvents()) {
        if (w.donor >= num_accs || w.receiver >= num_accs) {
            err << "reconfig event references sub-accelerator out of "
                << "range";
            return err.str();
        }
        for (const ScheduledLayer &e : list) {
            if (e.accIdx != w.donor && e.accIdx != w.receiver)
                continue;
            if (e.startCycle < w.endCycle - kEps &&
                e.endCycle > w.startCycle + kEps) {
                err << "instance " << e.instanceIdx << " layer "
                    << e.layerIdx << " [" << e.startCycle << ", "
                    << e.endCycle << ") overlaps reconfig window ["
                    << w.startCycle << ", " << w.endCycle
                    << ") on sub-accelerator " << e.accIdx;
                return err.str();
            }
        }
    }

    // Arrival: no layer starts before its instance arrives.
    for (const ScheduledLayer &e : list) {
        double arrival = wl.instances()[e.instanceIdx].arrivalCycle;
        if (e.startCycle < arrival - kEps) {
            err << "arrival violation: instance " << e.instanceIdx
                << " layer " << e.layerIdx << " starts "
                << e.startCycle << " before arrival " << arrival;
            return err.str();
        }
    }

    // Dependence: layer l starts after layer l-1 of the same
    // instance (killed attempts at layer l obey the same bound —
    // the attempt could not begin before the chain reached it).
    for (const ScheduledLayer &e : list) {
        if (e.layerIdx == 0)
            continue;
        const Index prev = executed(e.instanceIdx, e.layerIdx - 1);
        if (prev == kNone) {
            err << "instance " << e.instanceIdx << " layer "
                << e.layerIdx << " has no completed predecessor";
            return err.str();
        }
        if (e.startCycle < list[prev].endCycle - kEps) {
            err << "dependence violation: instance " << e.instanceIdx
                << " layer " << e.layerIdx << " starts "
                << e.startCycle << " before predecessor ends "
                << list[prev].endCycle;
            return err.str();
        }
    }
    std::vector<Index>().swap(slot); // free before the two orders

    // Non-overlap per sub-accelerator: in start order, each entry
    // against the previous one on its sub-accelerator. Report the
    // first violation of the lowest-numbered sub-accelerator.
    const std::vector<Index> claims = claimOrder<Index>(list);
    std::vector<Index> last_on(num_accs, kNone);
    std::size_t bad_acc = num_accs;
    double bad_cycle = 0.0;
    for (Index c : claims) {
        const ScheduledLayer &e = list[c];
        if (e.accIdx >= num_accs)
            continue;
        Index &prev = last_on[e.accIdx];
        if (prev != kNone && e.accIdx < bad_acc &&
            e.startCycle < list[prev].endCycle - kEps) {
            bad_acc = e.accIdx;
            bad_cycle = e.startCycle;
        }
        prev = c;
    }
    if (bad_acc < num_accs) {
        err << "overlap on sub-accelerator " << bad_acc << " at cycle "
            << bad_cycle;
        return err.str();
    }

    // Global-buffer occupancy: sweep the claims and releases.
    const std::int64_t cap =
        static_cast<std::int64_t>(acc.globalBufferBytes());
    sweepBuffer(list, claims, releaseOrder<Index>(list),
                [&](double time, std::int64_t occupancy) {
                    if (occupancy <= cap)
                        return true;
                    err << "global buffer over-subscribed ("
                        << occupancy << " > " << cap
                        << " bytes) at cycle " << time;
                    return false;
                });
    return err.str();
}

} // namespace

bool
operator==(const ScheduledLayer &a, const ScheduledLayer &b)
{
    return a.instanceIdx == b.instanceIdx &&
           a.layerIdx == b.layerIdx && a.accIdx == b.accIdx &&
           a.style == b.style && a.startCycle == b.startCycle &&
           a.endCycle == b.endCycle &&
           a.energyUnits == b.energyUnits &&
           a.l2FootprintBytes == b.l2FootprintBytes &&
           a.contextPenaltyCycles == b.contextPenaltyCycles &&
           a.faultKilled == b.faultKilled;
}

bool
operator==(const ReconfigEvent &a, const ReconfigEvent &b)
{
    return a.epochId == b.epochId && a.donor == b.donor &&
           a.receiver == b.receiver && a.movedPes == b.movedPes &&
           a.startCycle == b.startCycle && a.endCycle == b.endCycle &&
           a.peSplit == b.peSplit;
}

bool
Schedule::identicalTo(const Schedule &other) const
{
    if (numAccs != other.numAccs || list.size() != other.list.size())
        return false;
    if (droppedList != other.droppedList)
        return false;
    if (reconfigList.size() != other.reconfigList.size())
        return false;
    for (std::size_t i = 0; i < reconfigList.size(); ++i) {
        if (reconfigList[i] != other.reconfigList[i])
            return false;
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] != other.list[i])
            return false;
    }
    return true;
}

void
Schedule::add(ScheduledLayer entry)
{
    if (entry.accIdx >= numAccs)
        util::panic("schedule: sub-accelerator index out of range");
    if (entry.endCycle < entry.startCycle)
        util::panic("schedule: negative-duration entry");
    list.push_back(entry);
}

void
Schedule::markDropped(std::size_t instance_idx)
{
    // Sorted insert: admission-time drops arrive in ascending
    // instance order, but dynamic (mid-schedule) drops arrive in
    // doom order — keep the list sorted so isDropped stays a binary
    // search and identicalTo stays order-insensitive.
    auto it = std::lower_bound(droppedList.begin(),
                               droppedList.end(), instance_idx);
    if (it != droppedList.end() && *it == instance_idx)
        return; // duplicate
    droppedList.insert(it, instance_idx);
}

bool
Schedule::isDropped(std::size_t instance_idx) const
{
    return std::binary_search(droppedList.begin(), droppedList.end(),
                              instance_idx);
}

void
Schedule::addReconfig(ReconfigEvent event)
{
    if (event.donor >= numAccs || event.receiver >= numAccs ||
        event.donor == event.receiver)
        util::panic("schedule: reconfig donor/receiver out of range");
    if (event.endCycle < event.startCycle)
        util::panic("schedule: negative-duration reconfig window");
    if (event.peSplit.size() != numAccs)
        util::panic("schedule: reconfig PE split arity mismatch");
    if (!reconfigList.empty() &&
        event.startCycle < reconfigList.back().startCycle)
        util::panic("schedule: reconfig events must arrive in window "
                    "order");
    reconfigList.push_back(std::move(event));
}

std::size_t
Schedule::retireEntriesBefore(
    double cycle,
    const std::function<void(const ScheduledLayer &)> &observer)
{
    if (retiredBusy.empty())
        retiredBusy.assign(numAccs, 0.0);
    // Commit order is not end order (breadth-first round-robin
    // interleaves accelerators), so retirement is an order-preserving
    // sweep over the live entries rather than a prefix chop.
    std::size_t w = 0;
    const std::size_t before = list.size();
    for (std::size_t r = 0; r < before; ++r) {
        const ScheduledLayer &e = list[r];
        if (e.endCycle <= cycle) {
            if (observer)
                observer(e);
            retiredMakespan = std::max(retiredMakespan, e.endCycle);
            retiredEnergy += e.energyUnits;
            retiredBusy[e.accIdx] += e.duration();
            ++retiredCount;
        } else {
            if (w != r)
                list[w] = list[r];
            ++w;
        }
    }
    list.resize(w);
    return before - w;
}

double
Schedule::makespanCycles() const
{
    double makespan = retiredMakespan;
    for (const ScheduledLayer &e : list)
        makespan = std::max(makespan, e.endCycle);
    return makespan;
}

double
Schedule::busyCycles(std::size_t acc_idx) const
{
    double busy =
        acc_idx < retiredBusy.size() ? retiredBusy[acc_idx] : 0.0;
    for (const ScheduledLayer &e : list) {
        if (e.accIdx == acc_idx)
            busy += e.duration();
    }
    return busy;
}

ScheduleSummary
Schedule::finalize(const accel::Accelerator &acc,
                   const cost::EnergyModel &energy, bool charge_idle,
                   double clock_ghz) const
{
    ScheduleSummary summary;
    summary.makespanCycles = makespanCycles();
    summary.latencySec = summary.makespanCycles / (clock_ghz * 1e9);
    summary.busyCycles.resize(acc.numSubAccs(), 0.0);

    summary.energyUnits = retiredEnergy;
    for (std::size_t a = 0;
         a < std::min(retiredBusy.size(), summary.busyCycles.size());
         ++a)
        summary.busyCycles[a] = retiredBusy[a];
    for (const ScheduledLayer &e : list) {
        summary.energyUnits += e.energyUnits;
        summary.busyCycles[e.accIdx] += e.duration();
    }

    if (charge_idle && energy.staticPerPeCycle > 0.0) {
        for (std::size_t a = 0; a < acc.numSubAccs(); ++a) {
            double idle =
                std::max(0.0, summary.makespanCycles -
                                  summary.busyCycles[a]);
            summary.energyUnits +=
                energy.staticPerPeCycle *
                static_cast<double>(acc.subAccs()[a].numPes) * idle;
        }
    }

    summary.energyMj = energy.toMillijoules(summary.energyUnits);
    return summary;
}

ScheduleSummary
Schedule::finalize(const workload::Workload &wl,
                   const accel::Accelerator &acc,
                   const cost::EnergyModel &energy, bool charge_idle,
                   double clock_ghz) const
{
    ScheduleSummary summary =
        finalize(acc, energy, charge_idle, clock_ghz);
    summary.sla = computeSla(wl);
    return summary;
}

SlaStats
Schedule::computeSla(const workload::Workload &wl) const
{
    if (retiredCount > 0)
        util::panic("computeSla needs the full entry list, but ",
                    retiredCount, " entries were retired; read "
                    "rolling counters from OnlineScheduler::stats()");
    SlaStats stats;
    stats.frames = wl.numInstances();
    if (stats.frames == 0)
        return stats;

    // Completion = the latest end cycle over an instance's layers;
    // negative marks an instance with no scheduled layer at all.
    // Fault-killed entries occupy the timeline but complete nothing,
    // so they are excluded from completion and counted separately.
    std::vector<double> completion(wl.numInstances(), -1.0);
    std::vector<char> lost_layer(wl.numInstances(), 0);
    for (const ScheduledLayer &e : list) {
        if (e.instanceIdx >= wl.numInstances())
            util::panic("computeSla: instance ", e.instanceIdx,
                        " out of range");
        if (e.faultKilled) {
            ++stats.faultKilledLayers;
            lost_layer[e.instanceIdx] = 1;
            continue;
        }
        completion[e.instanceIdx] =
            std::max(completion[e.instanceIdx], e.endCycle);
    }
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        if (lost_layer[i] && !isDropped(i))
            ++stats.framesRescheduled;
    }

    std::vector<double> latencies;
    latencies.reserve(wl.numInstances());
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        const workload::Instance &inst = wl.instances()[i];
        InstanceSla sla;
        sla.instanceIdx = i;
        sla.arrivalCycle = inst.arrivalCycle;
        sla.deadlineCycle = inst.deadlineCycle;
        sla.dropped = isDropped(i);
        sla.scheduled = !sla.dropped && completion[i] >= 0.0;
        if (inst.hasDeadline())
            ++stats.framesWithDeadline;
        if (sla.dropped)
            ++stats.droppedFrames;
        if (sla.scheduled) {
            sla.completionCycle = completion[i];
            sla.latencyCycles = completion[i] - inst.arrivalCycle;
            sla.missed = inst.hasDeadline() &&
                         completion[i] > inst.deadlineCycle + kEps;
        } else {
            // Dropped or never executed: the frame never completes,
            // so it cannot make its deadline and its latency is
            // unbounded. It still counts in the percentiles as +inf
            // — excluding it would let an over-subscribed run that
            // sheds half its frames report a rosy p50/p99.
            sla.completionCycle = workload::kNoDeadline;
            sla.latencyCycles = workload::kNoDeadline;
            sla.missed = inst.hasDeadline();
        }
        stats.maxLatencyCycles =
            std::max(stats.maxLatencyCycles, sla.latencyCycles);
        latencies.push_back(sla.latencyCycles);
        if (sla.missed)
            ++stats.deadlineMisses;
        stats.perInstance.push_back(sla);
    }
    if (stats.framesWithDeadline > 0) {
        stats.missRate =
            static_cast<double>(stats.deadlineMisses) /
            static_cast<double>(stats.framesWithDeadline);
    }

    // Nearest-rank percentiles over *all* frame latencies (+inf for
    // frames that never ran).
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto rank = [&](double q) {
            std::size_t n = latencies.size();
            std::size_t r = static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(n)));
            return latencies[std::min(n - 1, r > 0 ? r - 1 : 0)];
        };
        stats.p50LatencyCycles = rank(0.50);
        stats.p99LatencyCycles = rank(0.99);
    }
    return stats;
}

std::string
Schedule::validate(const workload::Workload &wl,
                   const accel::Accelerator &acc,
                   const FaultTimeline *faults) const
{
    if (retiredCount > 0)
        util::panic("validate needs the full entry list, but ",
                    retiredCount, " entries were retired");
    if (numAccs != acc.numSubAccs()) {
        std::ostringstream err;
        err << "schedule built for " << numAccs
            << " sub-accelerators, accelerator has "
            << acc.numSubAccs();
        return err.str();
    }
    if (faults && faults->numSubAccs() != numAccs) {
        std::ostringstream err;
        err << "fault timeline built for " << faults->numSubAccs()
            << " sub-accelerators, schedule has " << numAccs;
        return err.str();
    }
    return withIndexType(list.size(), [&](auto none) {
        return checkEntries<decltype(none)>(*this, wl, acc, faults);
    });
}

std::uint64_t
Schedule::peakOccupancyBytes() const
{
    if (retiredCount > 0)
        util::panic("peakOccupancyBytes needs the full entry list, "
                    "but ", retiredCount, " entries were retired");
    return withIndexType(list.size(), [&](auto none) {
        using Index = decltype(none);
        std::int64_t peak = 0;
        sweepBuffer(list, claimOrder<Index>(list),
                    releaseOrder<Index>(list),
                    [&](double, std::int64_t occupancy) {
                        peak = std::max(peak, occupancy);
                        return true;
                    });
        return static_cast<std::uint64_t>(peak);
    });
}

std::string
checkContextPenalties(const Schedule &schedule,
                      double context_change_cycles)
{
    const std::vector<ScheduledLayer> &entries = schedule.entries();
    const std::size_t num_accs = schedule.numSubAccs();
    // Bucket the entries by sub-accelerator in one counting pass,
    // list order within a bucket. Counts land one slot up, so after
    // the prefix sum bump[a] is the start of bucket a; placing
    // advances it to the end of bucket a.
    std::vector<std::size_t> bump(num_accs + 1, 0);
    for (const ScheduledLayer &e : entries) {
        if (e.accIdx < num_accs)
            ++bump[e.accIdx + 1];
    }
    std::partial_sum(bump.begin(), bump.end(), bump.begin());
    std::vector<const ScheduledLayer *> by_acc(bump[num_accs]);
    for (const ScheduledLayer &e : entries) {
        if (e.accIdx < num_accs)
            by_acc[bump[e.accIdx]++] = &e;
    }
    for (std::size_t a = 0; a < num_accs; ++a) {
        auto first = by_acc.begin() +
                     static_cast<std::ptrdiff_t>(a > 0 ? bump[a - 1] : 0);
        auto last = by_acc.begin() + static_cast<std::ptrdiff_t>(bump[a]);
        std::sort(first, last,
                  [](const ScheduledLayer *x, const ScheduledLayer *y) {
                      return x->startCycle < y->startCycle;
                  });
        for (auto it = first; it != last; ++it) {
            const ScheduledLayer &e = **it;
            double expected =
                it != first && (*(it - 1))->instanceIdx != e.instanceIdx
                    ? context_change_cycles
                    : 0.0;
            if (e.contextPenaltyCycles != expected) {
                std::ostringstream err;
                err << "stale context penalty on sub-accelerator "
                    << a << ": instance " << e.instanceIdx
                    << " layer " << e.layerIdx << " carries "
                    << e.contextPenaltyCycles << " cycles, adjacency "
                    << "requires " << expected;
                return err.str();
            }
        }
    }
    return "";
}

std::string
Schedule::renderTimeline(const workload::Workload &wl, int width) const
{
    return renderTimeline(wl, nullptr, width);
}

std::string
Schedule::renderTimeline(const workload::Workload &wl,
                         const FaultTimeline *faults, int width) const
{
    if (width < 8)
        width = 8;
    const double makespan = makespanCycles();
    std::ostringstream oss;
    if (makespan <= 0.0 || list.empty()) {
        // Nothing executed (or only zero-length entries): no time
        // axis to draw. An all-dropped schedule lands here too —
        // report the drops instead of dividing by a zero makespan.
        oss << "(empty schedule";
        if (!droppedList.empty())
            oss << "; " << droppedList.size() << " dropped frames";
        oss << ")\n";
        return oss.str();
    }

    auto glyph = [](std::size_t instance) {
        static const char digits[] =
            "0123456789abcdefghijklmnopqrstuvwxyz";
        return digits[instance % 36];
    };

    // Per-epoch capacity header: epoch 0's split is recovered from
    // the first event (the donor had its moved PEs back, the
    // receiver had not gained them yet).
    if (!reconfigList.empty()) {
        std::vector<std::uint64_t> first = reconfigList.front().peSplit;
        first[reconfigList.front().donor] +=
            reconfigList.front().movedPes;
        first[reconfigList.front().receiver] -=
            reconfigList.front().movedPes;
        auto print_epoch = [&](std::uint64_t id, double from,
                               const std::vector<std::uint64_t> &pes) {
            oss << "epoch " << id << " @ " << from << ": ";
            for (std::size_t a = 0; a < pes.size(); ++a)
                oss << (a == 0 ? "" : "/") << pes[a];
            oss << " pe\n";
        };
        print_epoch(reconfigList.front().epochId - 1, 0.0, first);
        for (const ReconfigEvent &w : reconfigList)
            print_epoch(w.epochId, w.endCycle, w.peSplit);
    }

    for (std::size_t a = 0; a < numAccs; ++a) {
        std::string row(static_cast<std::size_t>(width), '.');
        if (faults) {
            // Mark unavailable cells first; busy entries (which
            // validate() keeps clear of outages) overwrite them.
            for (int c = 0; c < width; ++c) {
                double t = (static_cast<double>(c) + 0.5) /
                           static_cast<double>(width) * makespan;
                if (!faults->availableAt(a, t))
                    row[static_cast<std::size_t>(c)] = 'x';
            }
        }
        // Reconfiguration windows on this row ('R', distinct from
        // fault 'x'); busy entries never overlap them (validate()).
        for (const ReconfigEvent &w : reconfigList) {
            if (w.donor != a && w.receiver != a)
                continue;
            for (int c = 0; c < width; ++c) {
                double t = (static_cast<double>(c) + 0.5) /
                           static_cast<double>(width) * makespan;
                if (t >= w.startCycle && t < w.endCycle)
                    row[static_cast<std::size_t>(c)] = 'R';
            }
        }
        for (const ScheduledLayer &e : list) {
            if (e.accIdx != a)
                continue;
            int lo = static_cast<int>(e.startCycle / makespan * width);
            int hi = static_cast<int>(e.endCycle / makespan * width);
            lo = std::min(lo, width - 1);
            hi = std::max(lo + 1, std::min(hi, width));
            for (int c = lo; c < hi; ++c)
                row[static_cast<std::size_t>(c)] =
                    glyph(e.instanceIdx);
        }
        oss << "acc" << a << " |" << row << "|\n";
    }
    oss << "       0";
    for (int i = 0; i < width - 8; ++i)
        oss << ' ';
    oss << makespan << " cycles\n";
    oss << "       (cells: workload instance index; '.', idle";
    if (faults)
        oss << "; 'x', unavailable";
    if (!reconfigList.empty())
        oss << "; 'R', reconfiguration";
    oss << ")";
    if (wl.numInstances() > 0)
        oss << "\n";
    return oss.str();
}

} // namespace herald::sched
