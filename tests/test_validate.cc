/**
 * @file
 * Schedule::validate against the map-based checker it replaced. That
 * checker lives on here as referenceValidate (verbatim, reading the
 * schedule through its public accessors). Over a generated corpus —
 * valid schedules from the equivalence scenarios, random fault
 * timelines, BacklogSkew reconfiguration and dropped frames, each
 * mutated in every way the checker reports — both must return exactly
 * the same string, and peakOccupancyBytes must match the event sort
 * it replaced. A replaced global operator new pins validate's heap
 * allocations to a count that does not grow with the schedule, and
 * the ScheduledLayer layout is pinned to 72 bytes (LP64).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "cost/cost_model.hh"
#include "dnn/model_zoo.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/schedule.hh"
#include "tests/sched_scenarios.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "workload/workload.hh"

namespace
{
std::atomic<std::size_t> g_allocations{0};
} // namespace

// Every heap allocation of this binary goes through here, so a test
// can count the ones made by one call. GCC pairs the inlined
// operator new with the free() below and warns; the pair is ours.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes > 0 ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace herald;
using accel::Accelerator;
using sched::FaultTimeline;
using sched::HeraldScheduler;
using sched::ReconfigEvent;
using sched::Schedule;
using sched::ScheduledLayer;
using sched::SchedulerOptions;
using workload::Workload;

/** Schedule::validate as it was before the flat rewrite. */
std::string
referenceValidate(const Schedule &s, const workload::Workload &wl,
                  const accel::Accelerator &acc,
                  const FaultTimeline *faults = nullptr)
{
    constexpr double kEps = 1e-6;
    const std::size_t numAccs = s.numSubAccs();
    const std::vector<ScheduledLayer> &list = s.entries();
    const std::vector<std::size_t> &droppedList = s.droppedInstances();
    const std::vector<ReconfigEvent> &reconfigList =
        s.reconfigEvents();
    auto isDropped = [&](std::size_t i) { return s.isDropped(i); };

    std::ostringstream err;

    if (s.retiredEntries() > 0)
        util::panic("validate needs the full entry list, but ",
                    s.retiredEntries(), " entries were retired");
    if (numAccs != acc.numSubAccs()) {
        err << "schedule built for " << numAccs
            << " sub-accelerators, accelerator has "
            << acc.numSubAccs();
        return err.str();
    }
    if (faults && faults->numSubAccs() != numAccs) {
        err << "fault timeline built for " << faults->numSubAccs()
            << " sub-accelerators, schedule has " << numAccs;
        return err.str();
    }

    for (std::size_t d : droppedList) {
        if (d >= wl.numInstances()) {
            err << "dropped instance " << d << " out of range";
            return err.str();
        }
    }

    std::map<std::pair<std::size_t, std::size_t>, const ScheduledLayer *>
        seen;
    std::vector<const ScheduledLayer *> killed;
    std::vector<std::size_t> layer_count(wl.numInstances(), 0);
    std::vector<std::size_t> max_layer(wl.numInstances(), 0);
    for (const ScheduledLayer &e : list) {
        if (e.instanceIdx >= wl.numInstances()) {
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
            killed.push_back(&e);
            continue;
        }
        auto key = std::make_pair(e.instanceIdx, e.layerIdx);
        if (seen.count(key)) {
            err << "duplicate entry for instance " << e.instanceIdx
                << " layer " << e.layerIdx;
            return err.str();
        }
        seen[key] = &e;
        ++layer_count[e.instanceIdx];
        max_layer[e.instanceIdx] =
            std::max(max_layer[e.instanceIdx], e.layerIdx);
    }
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        const std::size_t expect = wl.modelOf(i).numLayers();
        if (isDropped(i)) {
            if (layer_count[i] > 0 &&
                max_layer[i] != layer_count[i] - 1) {
                err << "dropped instance " << i << " scheduled "
                    << layer_count[i]
                    << " layers that are not a chain prefix";
                return err.str();
            }
            if (layer_count[i] >= expect) {
                err << "dropped instance " << i
                    << " is fully scheduled";
                return err.str();
            }
        } else if (layer_count[i] != expect) {
            err << "instance " << i << " has " << layer_count[i]
                << " scheduled layers, model has " << expect;
            return err.str();
        }
    }

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
        for (const ScheduledLayer *k : killed) {
            if (!faults->isFaultOnset(k->accIdx, k->endCycle)) {
                err << "fault-killed entry (instance "
                    << k->instanceIdx << " layer " << k->layerIdx
                    << ") ends at " << k->endCycle
                    << ", not at a fault onset on sub-accelerator "
                    << k->accIdx;
                return err.str();
            }
            auto it = seen.find(
                std::make_pair(k->instanceIdx, k->layerIdx));
            if (it != seen.end()) {
                if (it->second->startCycle < k->endCycle - kEps) {
                    err << "re-execution of instance "
                        << k->instanceIdx << " layer " << k->layerIdx
                        << " starts " << it->second->startCycle
                        << " before its killed attempt ends "
                        << k->endCycle;
                    return err.str();
                }
            } else if (!isDropped(k->instanceIdx)) {
                err << "instance " << k->instanceIdx << " layer "
                    << k->layerIdx << " was fault-killed but never "
                    << "re-executed (and the frame is not dropped)";
                return err.str();
            } else if (k->layerIdx != layer_count[k->instanceIdx]) {
                err << "dropped instance " << k->instanceIdx
                    << " has a killed attempt at layer "
                    << k->layerIdx << " beyond its committed prefix";
                return err.str();
            }
        }
    }

    for (const ReconfigEvent &w : reconfigList) {
        if (w.donor >= numAccs || w.receiver >= numAccs) {
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

    for (const ScheduledLayer &e : list) {
        double arrival = wl.instances()[e.instanceIdx].arrivalCycle;
        if (e.startCycle < arrival - kEps) {
            err << "arrival violation: instance " << e.instanceIdx
                << " layer " << e.layerIdx << " starts "
                << e.startCycle << " before arrival " << arrival;
            return err.str();
        }
    }

    for (const ScheduledLayer &e : list) {
        if (e.layerIdx == 0)
            continue;
        auto prev_it =
            seen.find(std::make_pair(e.instanceIdx, e.layerIdx - 1));
        if (prev_it == seen.end()) {
            err << "instance " << e.instanceIdx << " layer "
                << e.layerIdx << " has no completed predecessor";
            return err.str();
        }
        const ScheduledLayer *prev = prev_it->second;
        if (e.startCycle < prev->endCycle - kEps) {
            err << "dependence violation: instance " << e.instanceIdx
                << " layer " << e.layerIdx << " starts "
                << e.startCycle << " before predecessor ends "
                << prev->endCycle;
            return err.str();
        }
    }

    for (std::size_t a = 0; a < numAccs; ++a) {
        std::vector<const ScheduledLayer *> on_acc;
        for (const ScheduledLayer &e : list) {
            if (e.accIdx == a)
                on_acc.push_back(&e);
        }
        std::sort(on_acc.begin(), on_acc.end(),
                  [](const ScheduledLayer *x, const ScheduledLayer *y) {
                      return x->startCycle < y->startCycle;
                  });
        for (std::size_t i = 1; i < on_acc.size(); ++i) {
            if (on_acc[i]->startCycle <
                on_acc[i - 1]->endCycle - kEps) {
                err << "overlap on sub-accelerator " << a << " at cycle "
                    << on_acc[i]->startCycle;
                return err.str();
            }
        }
    }

    struct Event
    {
        double time;
        std::int64_t delta;
    };
    std::vector<Event> events;
    for (const ScheduledLayer &e : list) {
        events.push_back(
            {e.startCycle,
             static_cast<std::int64_t>(e.l2FootprintBytes)});
        events.push_back(
            {e.endCycle,
             -static_cast<std::int64_t>(e.l2FootprintBytes)});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &x, const Event &y) {
                  if (x.time != y.time)
                      return x.time < y.time;
                  return x.delta < y.delta; // releases before claims
              });
    std::int64_t occupancy = 0;
    const std::int64_t cap =
        static_cast<std::int64_t>(acc.globalBufferBytes());
    for (const Event &ev : events) {
        occupancy += ev.delta;
        if (occupancy > cap) {
            err << "global buffer over-subscribed (" << occupancy
                << " > " << cap << " bytes) at cycle " << ev.time;
            return err.str();
        }
    }

    return "";
}

/** Peak occupancy by the (time, delta) event sort it replaced. */
std::uint64_t
referencePeakOccupancy(const Schedule &s)
{
    std::vector<std::pair<double, std::int64_t>> events;
    for (const ScheduledLayer &e : s.entries()) {
        const auto bytes =
            static_cast<std::int64_t>(e.l2FootprintBytes);
        events.emplace_back(e.startCycle, bytes);
        events.emplace_back(e.endCycle, -bytes);
    }
    std::sort(events.begin(), events.end());
    std::int64_t occupancy = 0;
    std::int64_t peak = 0;
    for (const auto &ev : events) {
        occupancy += ev.second;
        peak = std::max(peak, occupancy);
    }
    return static_cast<std::uint64_t>(peak);
}

/** One valid schedule of the corpus and what it is checked against. */
struct Case
{
    std::string label;
    Workload wl;
    Accelerator acc;
    Schedule schedule;
    FaultTimeline faults; //!< empty: validated without a timeline

    const FaultTimeline *
    timeline() const
    {
        return faults.empty() ? nullptr : &faults;
    }
};

std::vector<Case>
corpus(cost::CostModel &model)
{
    std::vector<Case> out;
    auto add = [&](std::string label, const Workload &wl,
                   const Accelerator &acc, const SchedulerOptions &opts) {
        Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        out.push_back({std::move(label), wl, acc, std::move(s),
                       opts.faults});
    };

    // The equivalence scenarios under both policies, with and
    // without post-processing; one with a buffer that binds.
    for (const test::NamedWorkload &s : test::scenarios()) {
        for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf}) {
            for (bool pp : {false, true}) {
                SchedulerOptions opts;
                opts.policy = policy;
                opts.postProcess = pp;
                add(s.name + "/" + sched::toString(policy) +
                        (pp ? "/pp" : "/nopp"),
                    s.wl, test::edgeHda(), opts);
            }
        }
    }
    SchedulerOptions tight;
    add("tight-buffer", workload::mixedTenantScenario(2),
        test::edgeHda(std::uint64_t{32} << 10), tight);

    // Random fault timelines: kills, re-executions and (with
    // DoomedFrames) kills left in dropped frames.
    const Workload arvr = workload::arvrA60fps(3);
    const double horizon = 1.2 * HeraldScheduler(model)
                                     .schedule(arvr, test::edgeHda())
                                     .makespanCycles();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SchedulerOptions opts;
        opts.policy = sched::Policy::Edf;
        opts.faults = FaultTimeline::random(seed, 2, horizon);
        add("faults/seed" + std::to_string(seed), arvr,
            test::edgeHda(), opts);
        opts.policy = sched::Policy::Lst;
        opts.dropPolicy = sched::DropPolicy::DoomedFrames;
        opts.preemption = sched::Preemption::AtLayerBoundary;
        add("faults-doomed/seed" + std::to_string(seed), arvr,
            test::edgeHda(), opts);
    }

    // BacklogSkew reconfiguration.
    SchedulerOptions elastic;
    elastic.policy = sched::Policy::Edf;
    elastic.contextChangeCycles = 1e4;
    elastic.reconfig.policy = sched::Reconfig::BacklogSkew;
    elastic.reconfig.skewThresholdCycles = 1e6;
    elastic.reconfig.migrationQuantumPes = 64;
    elastic.reconfig.drainCycles = 1e4;
    elastic.reconfig.perPeRewireCycles = 10.0;
    elastic.reconfig.cooldownCycles = 1e5;
    add("reconfig/shifting", workload::shiftingLoadFactory(8),
        test::edgeHda(), elastic);
    add("reconfig/3way", workload::mixedTenantScenario(2),
        test::threeWayHda(), elastic);

    // Dropped frames: at admission and mid-schedule.
    const Workload overloaded = workload::arvrAOverloaded(8, 4.0);
    for (auto drop : {sched::DropPolicy::HopelessFrames,
                      sched::DropPolicy::DoomedFrames}) {
        SchedulerOptions opts;
        opts.policy = sched::Policy::Lst;
        opts.dropPolicy = drop;
        add(std::string("dropped/") + sched::toString(drop),
            overloaded, test::edgeHda(), opts);
    }
    return out;
}

/** Mutation helpers over one case's entry list. */
class Mutator
{
  public:
    Mutator(const Case &base, std::uint64_t seed) : c(base), rng(seed) {}

    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(rng.nextBounded(n));
    }

    /** Indices of the entries satisfying @p pred. */
    template <typename Pred>
    std::vector<std::size_t>
    where(Pred pred) const
    {
        std::vector<std::size_t> out;
        const std::vector<ScheduledLayer> &list = c.schedule.entries();
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (pred(list[i]))
                out.push_back(i);
        }
        return out;
    }

    /** Index of the executed (non-killed) entry of (inst, layer). */
    std::size_t
    executed(std::size_t inst, std::size_t layer) const
    {
        const std::vector<ScheduledLayer> &list = c.schedule.entries();
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].instanceIdx == inst &&
                list[i].layerIdx == layer && !list[i].faultKilled)
                return i;
        }
        return SIZE_MAX;
    }

    /** Footprint held after every event at @p t, @p skip excluded. */
    std::uint64_t
    heldAfter(double t, std::size_t skip) const
    {
        std::uint64_t held = 0;
        const std::vector<ScheduledLayer> &list = c.schedule.entries();
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (i != skip && list[i].startCycle <= t &&
                list[i].endCycle > t)
                held += list[i].l2FootprintBytes;
        }
        return held;
    }

    /** Whether an entry other than @p i on its sub-acc starts with it. */
    bool
    sharesStart(std::size_t i) const
    {
        const std::vector<ScheduledLayer> &list = c.schedule.entries();
        for (std::size_t j = 0; j < list.size(); ++j) {
            if (j != i && list[j].accIdx == list[i].accIdx &&
                list[j].startCycle == list[i].startCycle)
                return true;
        }
        return false;
    }

  private:
    const Case &c;
    util::SplitMix64 rng;
};

/**
 * Every check's message kind the corpus must reach (the first words
 * that set it apart), so a corpus that stops exercising one fails.
 */
const char *const kMessageKinds[] = {
    "dropped instance ",          // prefix / fully scheduled
    "entry references instance ", // range
    "entry references layer ",    // range
    "fault-killed entry (",       // no timeline / off its onset
    "duplicate entry ",
    "scheduled layers, model has",
    "overlaps an unavailable",
    "re-execution of ",
    "overlaps reconfig window",
    "arrival violation",
    "dependence violation",
    "overlap on sub-accelerator 0",
    "overlap on sub-accelerator 1",
    "global buffer over-subscribed",
};

class ValidateTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;
    std::map<std::string, std::size_t> reached; //!< kind -> count
    std::size_t valid = 0;
    std::size_t compared = 0;

    void
    expectSameVerdict(const Case &c, const Schedule &s,
                      const FaultTimeline *faults,
                      const std::string &label)
    {
        const std::string want = referenceValidate(s, c.wl, c.acc, faults);
        EXPECT_EQ(s.validate(c.wl, c.acc, faults), want) << label;
        ++compared;
        if (want.empty())
            ++valid;
        for (const char *kind : kMessageKinds) {
            if (want.find(kind) != std::string::npos)
                ++reached[kind];
        }
    }
};

TEST_F(ValidateTest, MatchesReferenceOnGeneratedCorpus)
{
    const std::vector<Case> cases = corpus(model);
    std::size_t killed_cases = 0;
    std::size_t dropped_cases = 0;
    std::size_t reconfig_cases = 0;
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
        const Case &c = cases[ci];
        const std::vector<ScheduledLayer> &list = c.schedule.entries();
        ASSERT_FALSE(list.empty()) << c.label;
        ASSERT_EQ(c.schedule.validate(c.wl, c.acc, c.timeline()), "")
            << c.label;
        expectSameVerdict(c, c.schedule, c.timeline(), c.label);
        EXPECT_EQ(c.schedule.peakOccupancyBytes(),
                  referencePeakOccupancy(c.schedule))
            << c.label;

        Mutator m(c, 0x5eed0000ULL + ci);
        const std::uint64_t cap = c.acc.globalBufferBytes();
        auto check = [&](const Schedule &s, const std::string &what) {
            expectSameVerdict(c, s, c.timeline(), c.label + "/" + what);
            EXPECT_EQ(s.peakOccupancyBytes(), referencePeakOccupancy(s))
                << c.label << "/" << what;
        };
        auto mutate = [&](const std::string &what, auto &&edit) {
            Schedule s = c.schedule;
            edit(s.mutableEntries(), s);
            check(s, what);
        };

        for (int rep = 0; rep < 3; ++rep) {
            const std::size_t i = m.pick(list.size());
            const ScheduledLayer &e = list[i];
            const std::string at = "#" + std::to_string(i);

            mutate("missing" + at, [&](auto &l, Schedule &) {
                l.erase(l.begin() + static_cast<std::ptrdiff_t>(i));
            });
            mutate("duplicate" + at, [&](auto &l, Schedule &) {
                l.insert(l.begin() + static_cast<std::ptrdiff_t>(
                                         m.pick(l.size() + 1)),
                         e);
            });
            mutate("instance-range" + at, [&](auto &l, Schedule &) {
                l[i].instanceIdx = c.wl.numInstances() + m.pick(3);
            });
            mutate("layer-range" + at, [&](auto &l, Schedule &) {
                l[i].layerIdx =
                    c.wl.modelOf(e.instanceIdx).numLayers() + m.pick(2);
            });
        }

        // A start before arrival (layer 0) and before the
        // predecessor's end (layer > 0).
        const auto firsts = m.where([](const ScheduledLayer &e) {
            return e.layerIdx == 0 && !e.faultKilled;
        });
        for (int rep = 0; rep < 2 && !firsts.empty(); ++rep) {
            const std::size_t i = firsts[m.pick(firsts.size())];
            mutate("before-arrival#" + std::to_string(i),
                   [&](auto &l, Schedule &) {
                       l[i].startCycle =
                           c.wl.instances()[l[i].instanceIdx]
                               .arrivalCycle -
                           1.0 - static_cast<double>(m.pick(100));
                   });
        }
        const auto laters = m.where([](const ScheduledLayer &e) {
            return e.layerIdx > 0;
        });
        for (int rep = 0; rep < 2 && !laters.empty(); ++rep) {
            const std::size_t i = laters[m.pick(laters.size())];
            const std::size_t p =
                m.executed(list[i].instanceIdx, list[i].layerIdx - 1);
            ASSERT_NE(p, SIZE_MAX) << c.label;
            mutate("before-predecessor#" + std::to_string(i),
                   [&](auto &l, Schedule &) {
                       l[i].startCycle = list[p].endCycle - 1.0;
                   });
        }

        // Overlaps: an entry moved onto a sub-accelerator busy in its
        // window; then two such moves at once, the one onto the
        // higher-numbered sub-accelerator first in time.
        const std::size_t accs = c.acc.numSubAccs();
        auto collides = [&](std::size_t i, std::size_t acc) {
            for (const ScheduledLayer &o : list) {
                if (o.accIdx == acc &&
                    o.startCycle < list[i].endCycle - 1.0 &&
                    o.endCycle > list[i].startCycle + 1.0)
                    return true;
            }
            return false;
        };
        auto movable = [&](std::size_t from, std::size_t to) {
            return m.where([&](const ScheduledLayer &e) {
                return e.accIdx == from &&
                       collides(static_cast<std::size_t>(&e - &list[0]),
                                to);
            });
        };
        const auto onto1 = movable(0, 1);
        const auto onto0 = movable(1, 0);
        for (int rep = 0; rep < 2 && !onto1.empty(); ++rep) {
            const std::size_t i = onto1[m.pick(onto1.size())];
            mutate("overlap#" + std::to_string(i),
                   [&](auto &l, Schedule &) { l[i].accIdx = 1; });
            for (std::size_t j : onto0) {
                if (list[j].startCycle <= list[i].endCycle)
                    continue;
                mutate("overlap2#" + std::to_string(i) + "," +
                           std::to_string(j),
                       [&](auto &l, Schedule &) {
                           l[i].accIdx = 1;
                           l[j].accIdx = 0;
                       });
                break;
            }
        }
        if (accs > 2 && !onto0.empty()) {
            const std::size_t i = onto0[m.pick(onto0.size())];
            mutate("overlap-acc2#" + std::to_string(i),
                   [&](auto &l, Schedule &) { l[i].accIdx = 2; });
        }

        // Buffer: a claim that ties with a release at the same cycle,
        // sized to fill the buffer exactly (valid only if releases
        // precede claims) and one byte past it; and zero-duration
        // entries, whose own release precedes their claim.
        const auto ties = m.where([&](const ScheduledLayer &y) {
            for (const ScheduledLayer &x : list) {
                if (&x != &y && x.endCycle == y.startCycle &&
                    x.l2FootprintBytes > 0)
                    return true;
            }
            return false;
        });
        for (int rep = 0; rep < 3 && !ties.empty(); ++rep) {
            const std::size_t i = ties[m.pick(ties.size())];
            const std::uint64_t held =
                m.heldAfter(list[i].startCycle, i);
            ASSERT_LE(held, cap) << c.label;
            for (std::uint64_t over : {std::uint64_t{0}, std::uint64_t{1}}) {
                mutate("buffer-tie+" + std::to_string(over) + "#" +
                           std::to_string(i),
                       [&](auto &l, Schedule &) {
                           l[i].l2FootprintBytes = cap - held + over;
                       });
            }
            if (!m.sharesStart(i)) {
                mutate("zero-duration#" + std::to_string(i),
                       [&](auto &l, Schedule &) {
                           l[i].endCycle = l[i].startCycle;
                           l[i].l2FootprintBytes = cap + 1;
                       });
            }
        }
        for (int rep = 0; rep < 2; ++rep) {
            const std::size_t i = m.pick(list.size());
            mutate("over-buffer#" + std::to_string(i),
                   [&](auto &l, Schedule &) {
                       l[i].l2FootprintBytes = cap + 1 - m.pick(2);
                   });
        }

        // Faults: a kill moved off its onset, a re-execution placed
        // before its kill, and the timeline left out.
        const auto kills = m.where(
            [](const ScheduledLayer &e) { return e.faultKilled; });
        if (!kills.empty()) {
            ++killed_cases;
            check(c.schedule, "no-timeline");
            expectSameVerdict(c, c.schedule, nullptr,
                              c.label + "/no-timeline");
        }
        for (std::size_t k : kills) {
            mutate("kill-off-onset#" + std::to_string(k),
                   [&](auto &l, Schedule &) {
                       l[k].startCycle -= 7.0;
                       l[k].endCycle -= 7.0;
                   });
            const std::size_t redo =
                m.executed(list[k].instanceIdx, list[k].layerIdx);
            if (redo == SIZE_MAX)
                continue;
            mutate("redo-before-kill#" + std::to_string(redo),
                   [&](auto &l, Schedule &) {
                       l[redo].startCycle = list[k].endCycle - 50.0;
                   });
            // Also inside the window before the onset, which stays
            // available when the re-execution shares the kill's
            // sub-accelerator.
            mutate("redo-inside-kill#" + std::to_string(redo),
                   [&](auto &l, Schedule &) {
                       l[redo].startCycle = list[k].endCycle - 50.0;
                       l[redo].endCycle = list[k].endCycle - 10.0;
                   });
        }

        // Reconfiguration: an entry pulled into a window.
        for (const ReconfigEvent &w : c.schedule.reconfigEvents()) {
            ++reconfig_cases;
            const auto after = m.where([&](const ScheduledLayer &e) {
                return e.accIdx == w.donor && e.startCycle >= w.endCycle;
            });
            if (after.empty() || w.endCycle - w.startCycle < 1.0)
                continue;
            const std::size_t i = after.front();
            mutate("reconfig-overlap#" + std::to_string(i),
                   [&](auto &l, Schedule &) {
                       l[i].startCycle = 0.5 * (w.startCycle + w.endCycle);
                   });
        }

        // Dropped frames: a complete instance marked dropped, and a
        // dropped frame's committed prefix with a hole in it.
        if (!c.schedule.droppedInstances().empty())
            ++dropped_cases;
        for (std::size_t inst = 0; inst < c.wl.numInstances(); ++inst) {
            if (!c.schedule.isDropped(inst)) {
                if (inst % 7 != ci % 7)
                    continue;
                mutate("drop-complete#" + std::to_string(inst),
                       [&](auto &, Schedule &s) { s.markDropped(inst); });
                continue;
            }
            const std::size_t head = m.executed(inst, 0);
            if (head == SIZE_MAX || m.executed(inst, 1) == SIZE_MAX)
                continue;
            mutate("prefix-hole#" + std::to_string(inst),
                   [&](auto &l, Schedule &) {
                       l.erase(l.begin() +
                               static_cast<std::ptrdiff_t>(head));
                   });
        }
    }

    // Arity mismatches short-circuit before any entry is read.
    const Case &first = cases.front();
    expectSameVerdict({first.label, first.wl, test::threeWayHda(),
                       first.schedule, FaultTimeline()},
                      first.schedule, nullptr, "arity");
    const FaultTimeline three(3);
    expectSameVerdict(first, first.schedule, &three, "timeline-arity");

    EXPECT_GT(killed_cases, 0u);
    EXPECT_GT(dropped_cases, 0u);
    EXPECT_GT(reconfig_cases, 0u);
    EXPECT_GE(valid, cases.size());
    for (const char *kind : kMessageKinds)
        EXPECT_GT(reached[kind], 0u) << "corpus never reaches: " << kind;
    RecordProperty("compared", static_cast<int>(compared));
}

TEST_F(ValidateTest, AllocationsDoNotGrowWithTheSchedule)
{
    // A valid schedule allocates a fixed set of arrays (slot offsets,
    // slots, the two orders, one cursor per sub-accelerator),
    // however many entries it has.
    const Accelerator acc = test::edgeHda();
    auto frames = [](int count) {
        Workload wl("mobilenet-frames");
        wl.addPeriodicModel(dnn::mobileNetV2(), count, /*period=*/1e8);
        return wl;
    };
    const Workload small = frames(8);
    const Workload large = frames(32);
    const Schedule s = HeraldScheduler(model).schedule(small, acc);
    const Schedule l = HeraldScheduler(model).schedule(large, acc);
    ASSERT_EQ(l.entries().size(), 4 * s.entries().size());

    auto allocations = [&](const Schedule &sched, const Workload &wl) {
        const std::size_t before = g_allocations.load();
        const std::string verdict = sched.validate(wl, acc);
        const std::size_t made = g_allocations.load() - before;
        EXPECT_EQ(verdict, "");
        return made;
    };
    const std::size_t on_small = allocations(s, small);
    const std::size_t on_large = allocations(l, large);
    EXPECT_EQ(on_small, on_large);
    EXPECT_LE(on_large, 8u);
}

TEST(ScheduledLayerLayout, SeventyTwoBytesOnLp64)
{
    // style and faultKilled share the last padded word.
    if (sizeof(void *) != 8 || sizeof(std::size_t) != 8)
        GTEST_SKIP() << "layout pinned for LP64 only";
    EXPECT_EQ(sizeof(ScheduledLayer), 72u);
}

} // namespace
