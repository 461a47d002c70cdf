/**
 * @file
 * Golden values for the dispatch engine.
 *
 * DoomedFramesGridMatchesRecordedValues: a grid of overloaded streams
 * x {LST, EDF} x preemption off/on x {no faults, one seeded random
 * FaultTimeline with a mid-run permanent failure}, each run offline
 * (HeraldScheduler) and online (OnlineScheduler, retained and
 * retired). Every cell pins the schedule's fingerprint, its
 * dropped-instance list and its SLA counters to values recorded from
 * the scheduler that re-keyed every doom-set entry eagerly after each
 * committed layer.
 *
 * DispatchGridMatchesRecordedValues and ReconfigGridMatchesRecordedValues
 * pin HeraldScheduler::schedule over the option grid the reference
 * oracle (sched::referenceSchedule) cannot run: every policy (LST
 * also with a hysteresis band and a context-change penalty) x
 * preemption x drop policy x faults x post-processing x ordering, and
 * BacklogSkew repartitioning. Their workloads list instances out of
 * arrival order, and one deadline-free mix is decided by tie-breaks
 * alone, so the values catch a change in how dispatch ranks frames.
 * They were recorded from the batch dispatch loop that preceded the
 * single engine.
 *
 * The online == batch grid in test_online.cc drives one engine both
 * ways, so it cannot see a change to the engine itself; these values
 * can.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/arrival_source.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::ArrivalSource;
using sched::DropPolicy;
using sched::FaultTimeline;
using sched::HeraldScheduler;
using sched::OnlineOptions;
using sched::OnlineScheduler;
using sched::Policy;
using sched::Preemption;
using sched::Reconfig;
using sched::Schedule;
using sched::SchedulerOptions;

Accelerator
miniHda()
{
    return Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao}, {512, 512},
        {8.0, 8.0});
}

/** Five layers: enough progress per frame for stale doom keys. */
dnn::Model
deepNet()
{
    dnn::Model m("DeepNet");
    m.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    m.addLayer(dnn::makeDepthwise("dw", 64, 56, 56, 3, 3));
    m.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    m.addLayer(dnn::makeConv("c3", 128, 128, 14, 14, 3, 3));
    m.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    return m;
}

dnn::Model
convNet()
{
    dnn::Model m("ConvNet");
    m.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    m.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    m.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    return m;
}

dnn::Model
fcNet()
{
    dnn::Model m("FcNet");
    m.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
    m.addLayer(dnn::makeFullyConnected("f2", 256, 1024));
    return m;
}

dnn::Model
tinyNet()
{
    dnn::Model m("TinyNet");
    m.addLayer(dnn::makeFullyConnected("t", 256, 256));
    return m;
}

/** Loose deadlines under overload: frames doom out mid-run. */
ArrivalSource
backlog()
{
    ArrivalSource src;
    src.addStream(deepNet(), 3.5e5, 9e5, 0.0, 24);
    src.addStream(fcNet(), 5e5, 1.2e6, 1e4, 20);
    return src;
}

/** Deep overload: a long backlog sheds frames at every sweep. */
ArrivalSource
overload()
{
    ArrivalSource src;
    src.addStream(convNet(), 5e4, 1.2e6, 0.0, 12);
    src.addStream(fcNet(), 7e4, 1e6, 1e4, 10);
    return src;
}

/** Three tenants, mixed slack, one best-effort stream. */
ArrivalSource
mixedSlack()
{
    ArrivalSource src;
    src.addStream(deepNet(), 5e5, 1.2e6, 0.0, 20);
    src.addStream(fcNet(), 5e5, 9e5, 2e4, 24);
    src.addStream(tinyNet(), 5e4, 0.0, 5e3, 30); // no deadline
    return src;
}

/** Bursty equal-arrival ties with tight, uneven deadlines. */
ArrivalSource
burst()
{
    ArrivalSource src;
    src.addStream(deepNet(), 1e6, 8e5, 0.0, 12);
    src.addStream(deepNet(), 1e6, 1.5e6, 0.0, 12);
    src.addStream(fcNet(), 5e5, 8e5, 0.0, 24);
    return src;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** FNV-1a over every entry's placement and timing, in list order. */
std::uint64_t
fingerprint(const Schedule &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const sched::ScheduledLayer &e : s.entries()) {
        h = fnv(h, e.instanceIdx);
        h = fnv(h, e.layerIdx);
        h = fnv(h, e.accIdx);
        h = fnv(h, bitsOf(e.startCycle));
        h = fnv(h, bitsOf(e.endCycle));
        h = fnv(h, e.faultKilled ? 1 : 0);
    }
    return h;
}

std::uint64_t
droppedDigest(const Schedule &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t idx : s.droppedInstances())
        h = fnv(h, idx);
    return h;
}

/** What one cell pins. */
struct Golden
{
    std::uint64_t fingerprint;
    std::uint64_t dropped;
    std::size_t droppedFrames;
    std::size_t deadlineMisses;
};

std::string
format(const Golden &g)
{
    std::ostringstream os;
    os << "{0x" << std::hex << g.fingerprint << "ULL, 0x" << g.dropped
       << "ULL, " << std::dec << g.droppedFrames << ", "
       << g.deadlineMisses << "}";
    return os.str();
}

// Recorded from the eager re-keying doom set, in grid order:
// scenario (backlog, overload, mixedSlack, burst) x policy (LST, EDF) x
// preemption (off, on) x faults (none, random).
const Golden kGolden[] = {
    // backlog
    {0xf7fca649fd9b0569ULL, 0x2cbd4e2015b8b650ULL, 26, 29},
    {0x8f598217f64b596dULL, 0x2d5e6184d4699bc8ULL, 33, 34},
    {0xf7fca649fd9b0569ULL, 0x2cbd4e2015b8b650ULL, 26, 29},
    {0x8f598217f64b596dULL, 0x2d5e6184d4699bc8ULL, 33, 34},
    {0x7d75d96df7183544ULL, 0x54d02b5ada03910fULL, 22, 22},
    {0x8dd149fc5785fbcbULL, 0xfce93cf843b335e9ULL, 33, 33},
    {0x7d75d96df7183544ULL, 0x54d02b5ada03910fULL, 22, 22},
    {0x8dd149fc5785fbcbULL, 0xfce93cf843b335e9ULL, 33, 33},
    // overload
    {0x6f2eec76f18d9d28ULL, 0x2e661d76ff0b367cULL, 19, 20},
    {0xba6883622ce246f9ULL, 0xc6f7465904335d89ULL, 20, 21},
    {0x229df940e843dc14ULL, 0x2e661d76ff0b367cULL, 19, 20},
    {0xe391603337ebc6bdULL, 0xc6f7465904335d89ULL, 20, 21},
    {0x1b3951959dff8a04ULL, 0x2c21717f1da544f0ULL, 16, 18},
    {0x909d95db73c0f3baULL, 0xdd5da6f5e7d41752ULL, 16, 18},
    {0xed9bf69f303ab026ULL, 0xc11fad93e5a6314ULL, 17, 17},
    {0x64216e364dad9b68ULL, 0x495d21c9e92b4846ULL, 18, 18},
    // mixedSlack
    {0xbacbab108e177516ULL, 0xc4bc268d84ab6fe7ULL, 18, 22},
    {0xa11e02a6ef4964cfULL, 0x4e952edad6d99f5aULL, 32, 33},
    {0x14340cd30b38adcfULL, 0x4dc5cccc6c75b12cULL, 25, 31},
    {0x933583a5102f0d4cULL, 0x257424ae19b85460ULL, 36, 36},
    {0x4987c40a8d821058ULL, 0x9ea9f9bf7ee70176ULL, 6, 6},
    {0x68950df46f1d338aULL, 0xfeed9b5061233bbaULL, 26, 26},
    {0xc30fd0589997fe71ULL, 0xe7d897300132baf6ULL, 9, 9},
    {0x97c59db64bffef93ULL, 0x8c0b2d452bff1050ULL, 33, 33},
    // burst
    {0xf5767347872639e9ULL, 0x3f534c07c466079fULL, 14, 29},
    {0x5d809ada59fc27baULL, 0x991238caab8d38a8ULL, 39, 39},
    {0xd263719047086471ULL, 0x3f534c07c466079fULL, 14, 29},
    {0x62a788a656c7b3e2ULL, 0x991238caab8d38a8ULL, 39, 39},
    {0xa7f8f0a7ae3c3d3bULL, 0xf17d44457bb7104bULL, 10, 10},
    {0x433be9c0edf9413ULL, 0xa17b0fef1c3c74bfULL, 28, 28},
    {0xa7f8f0a7ae3c3d3bULL, 0xf17d44457bb7104bULL, 10, 10},
    {0x433be9c0edf9413ULL, 0xa17b0fef1c3c74bfULL, 28, 28},
};

class DoomGoldenTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;
};

TEST_F(DoomGoldenTest, DoomedFramesGridMatchesRecordedValues)
{
    const std::vector<std::pair<std::string, ArrivalSource>> scenarios = {
        {"backlog", backlog()},
        {"overload", overload()},
        {"mixedSlack", mixedSlack()},
        {"burst", burst()}};
    const Accelerator acc = miniHda();
    std::size_t cell = 0;
    std::size_t dropped_total = 0;
    std::size_t midrun_drops = 0; // dropped after committing a layer
    std::size_t permanent_failures = 0;
    std::string table;
    for (const auto &[name, src] : scenarios) {
        const workload::Workload wl = src.materialize(name);
        // One random timeline per scenario, over its fault-free
        // makespan, with a permanent failure that lands mid-run (one
        // of the two sub-accelerators is always exempt).
        SchedulerOptions plain;
        plain.postProcess = false;
        const double horizon = HeraldScheduler(model, plain)
                                   .schedule(wl, acc)
                                   .makespanCycles();
        sched::RandomFaultOptions fopts;
        fopts.permanentFailureProb = 1.0;
        const FaultTimeline faults =
            FaultTimeline::random(7, acc.numSubAccs(), horizon, fopts);
        for (std::size_t a = 0; a < acc.numSubAccs(); ++a)
            permanent_failures +=
                std::isfinite(faults.permanentFailureCycle(a)) ? 1 : 0;

        for (Policy policy : {Policy::Lst, Policy::Edf}) {
            for (Preemption preempt :
                 {Preemption::Off, Preemption::AtLayerBoundary}) {
                for (bool with_faults : {false, true}) {
                    const std::string label =
                        name + "/" + sched::toString(policy) + "/" +
                        sched::toString(preempt) +
                        (with_faults ? "/faults" : "/clean");
                    SCOPED_TRACE(label);
                    SchedulerOptions sopts;
                    sopts.postProcess = false;
                    sopts.policy = policy;
                    sopts.preemption = preempt;
                    sopts.dropPolicy = DropPolicy::DoomedFrames;
                    if (with_faults)
                        sopts.faults = faults;

                    const Schedule offline =
                        HeraldScheduler(model, sopts).schedule(wl, acc);
                    const sched::SlaStats sla = offline.computeSla(wl);
                    const Golden got{fingerprint(offline),
                                     droppedDigest(offline),
                                     sla.droppedFrames,
                                     sla.deadlineMisses};
                    table += format(got) + ", // " + label + "\n";
                    ASSERT_LT(cell, std::size(kGolden));
                    const Golden &want = kGolden[cell++];
                    EXPECT_EQ(got.fingerprint, want.fingerprint);
                    EXPECT_EQ(got.dropped, want.dropped);
                    EXPECT_EQ(got.droppedFrames, want.droppedFrames);
                    EXPECT_EQ(got.deadlineMisses, want.deadlineMisses);
                    dropped_total += got.droppedFrames;
                    std::set<std::size_t> ran;
                    for (const sched::ScheduledLayer &e :
                         offline.entries())
                        ran.insert(e.instanceIdx);
                    for (std::size_t idx : offline.droppedInstances())
                        midrun_drops += ran.count(idx);

                    // Online, history retained: the same schedule.
                    OnlineOptions oopts;
                    oopts.sched = sopts;
                    oopts.retainSchedule = true;
                    oopts.maintenancePeriod = 4;
                    OnlineScheduler retained(model, src.models(), acc,
                                             oopts);
                    // Online, history retired: the same counters.
                    oopts.retainSchedule = false;
                    OnlineScheduler retired(model, src.models(), acc,
                                            oopts);
                    ArrivalSource feed = src;
                    feed.reset();
                    while (!feed.exhausted()) {
                        const ArrivalSource::Frame f = feed.next();
                        retained.submit(f.streamIdx, f.arrivalCycle,
                                        f.deadlineCycle);
                        retired.submit(f.streamIdx, f.arrivalCycle,
                                       f.deadlineCycle);
                    }
                    retained.drain();
                    retired.drain();
                    const Schedule &online = retained.schedule();
                    EXPECT_EQ(fingerprint(online), want.fingerprint);
                    EXPECT_EQ(droppedDigest(online), want.dropped);
                    for (const OnlineScheduler *eng :
                         {&retained, &retired}) {
                        const sched::OnlineStats st = eng->stats();
                        EXPECT_EQ(st.droppedFrames, want.droppedFrames);
                        EXPECT_EQ(st.deadlineMisses,
                                  want.deadlineMisses);
                        EXPECT_EQ(st.committedLayers,
                                  offline.entries().size());
                    }
                }
            }
        }
    }
    EXPECT_EQ(cell, std::size(kGolden));
    // The grid must exercise what it pins: mid-run doom drops and a
    // permanent failure the doom keys are re-proved against.
    EXPECT_GT(dropped_total, 0u);
    EXPECT_GT(midrun_drops, 0u);
    EXPECT_EQ(permanent_failures, scenarios.size());
    if (HasFailure())
        std::cout << "this run, in kGolden order:\n" << table;
}

// ---------------------------------------------------------------
// Dispatch grid: every option the reference oracle rejects
// ---------------------------------------------------------------

/**
 * Overloaded deadline streams listed model by model, plus a
 * best-effort pair arriving at cycle 0 after them: instance index
 * order is not arrival order.
 */
workload::Workload
interleavedStreams()
{
    workload::Workload wl("interleaved-streams");
    wl.addPeriodicModel(deepNet(), 16, 3.5e5, 9e5, 6e4);
    wl.addPeriodicModel(fcNet(), 14, 5e5, 1.2e6, 1e4);
    wl.addModel(convNet(), 2); // no deadline, arrives first
    return wl;
}

/**
 * Deadline-free and overloaded: every policy is FIFO here, so only the
 * tie-breaks decide. Exact-equal arrival bands at 0, 4e5, 5e7 and 1e8
 * are spread over non-adjacent instance indices. The 5e7 and 1e8
 * bands land after the chip idles (the nothing-has-arrived fallback),
 * and two arrivals within kEps of the 5e7 band chain a sub-epsilon
 * near-tie whose instance indices come before and between the band's.
 */
workload::Workload
fifoTies()
{
    workload::Workload wl("fifo-ties");
    wl.addModel(convNet(), 2, 1e8);
    wl.addModel(tinyNet(), 1, 5e7 + 5e-7);
    wl.addModel(fcNet(), 2, 5e7);
    wl.addModel(convNet(), 2, 4e5);
    wl.addModel(deepNet(), 2, 0.0);
    wl.addModel(deepNet(), 1, 5e7 + 1.2e-6);
    wl.addModel(convNet(), 2, 5e7);
    wl.addModel(fcNet(), 3, 0.0);
    wl.addModel(tinyNet(), 2, 4e5);
    wl.addModel(fcNet(), 3, 4e5);
    wl.addModel(fcNet(), 2, 1e8);
    return wl;
}

/**
 * An fc stream listed before the conv stream that starts earlier and
 * backlogs its preferred sub-accelerator: the frontier skew BacklogSkew
 * migrates against, with misses left for the drop policies.
 */
workload::Workload
skewedLoad()
{
    workload::Workload wl("skewed-load");
    wl.addPeriodicModel(fcNet(), 10, 6e5, 1e6, 1e6);
    wl.addPeriodicModel(convNet(), 24, 1.5e5, 8e5);
    return wl;
}

/** Every field of every entry, in list order. */
std::uint64_t
entryDigest(const Schedule &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const sched::ScheduledLayer &e : s.entries()) {
        h = fnv(h, e.instanceIdx);
        h = fnv(h, e.layerIdx);
        h = fnv(h, e.accIdx);
        h = fnv(h, bitsOf(e.startCycle));
        h = fnv(h, bitsOf(e.endCycle));
        h = fnv(h, bitsOf(e.energyUnits));
        h = fnv(h, e.l2FootprintBytes);
        h = fnv(h, bitsOf(e.contextPenaltyCycles));
        h = fnv(h, e.faultKilled ? 1 : 0);
        h = fnv(h, static_cast<std::uint64_t>(e.style));
    }
    return h;
}

std::uint64_t
reconfigDigest(const Schedule &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const sched::ReconfigEvent &ev : s.reconfigEvents()) {
        h = fnv(h, ev.epochId);
        h = fnv(h, ev.donor);
        h = fnv(h, ev.receiver);
        h = fnv(h, ev.movedPes);
        h = fnv(h, bitsOf(ev.startCycle));
        h = fnv(h, bitsOf(ev.endCycle));
        for (std::uint64_t pes : ev.peSplit)
            h = fnv(h, pes);
    }
    return h;
}

/** What one dispatch-grid cell pins. */
struct Cell
{
    std::uint64_t entries;
    std::uint64_t dropped;
    std::uint64_t reconfigs;
};

std::string
format(const Cell &c)
{
    std::ostringstream os;
    os << "{0x" << std::hex << c.entries << "ULL, 0x" << c.dropped
       << "ULL, 0x" << c.reconfigs << "ULL}";
    return os.str();
}

Cell
cellOf(const Schedule &s)
{
    return Cell{entryDigest(s), droppedDigest(s), reconfigDigest(s)};
}

/** One policy column of the grid. */
struct PolicyCase
{
    const char *name;
    Policy policy;
    double hysteresis;
    double contextChange;
};

constexpr PolicyCase kPolicies[] = {
    {"FIFO", Policy::Fifo, 0.0, 0.0},
    {"EDF", Policy::Edf, 0.0, 0.0},
    {"LST", Policy::Lst, 0.0, 0.0},
    {"LST+sticky", Policy::Lst, 5e4, 1e3},
};

constexpr DropPolicy kDrops[] = {DropPolicy::None,
                                 DropPolicy::HopelessFrames,
                                 DropPolicy::DoomedFrames};
constexpr Preemption kPreemptions[] = {Preemption::Off,
                                       Preemption::AtLayerBoundary};
constexpr sched::Ordering kOrderings[] = {sched::Ordering::BreadthFirst,
                                          sched::Ordering::DepthFirst};

// Recorded in grid order: workload (interleavedStreams, fifoTies) x
// policy (kPolicies) x preemption x drop (kDrops) x faults (none,
// random) x postProcess (off, on) x ordering (breadth, depth).
const Cell kDispatchGolden[] = {
    // interleavedStreams/FIFO
    {0xad60fc5dcbd372b7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a77ccb00244043ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfb2b25329edda1fdULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf638604df6888afaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x27f6de37c7124521ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf99619aaad02585dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xad60fc5dcbd372b7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a77ccb00244043ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfb2b25329edda1fdULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf638604df6888afaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x27f6de37c7124521ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf99619aaad02585dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x41543f60495fafb4ULL, 0x38e221e37ffa7d83ULL, 0x14650fb0739d0383ULL},
    {0x1eff37103a9d0f39ULL, 0x7c33c6d1fb595b6fULL, 0x14650fb0739d0383ULL},
    {0x161fbffe235e4e59ULL, 0x38e221e37ffa7d83ULL, 0x14650fb0739d0383ULL},
    {0x40061c3aa3ff62b0ULL, 0x7c33c6d1fb595b6fULL, 0x14650fb0739d0383ULL},
    {0x8edbb66d9511ac0ULL, 0x6b4adb48ecc2f814ULL, 0x14650fb0739d0383ULL},
    {0x2d8e79480305eb82ULL, 0x7872537f9240dd93ULL, 0x14650fb0739d0383ULL},
    {0x5e42076cf3deff57ULL, 0x6b4adb48ecc2f814ULL, 0x14650fb0739d0383ULL},
    {0x5cb41d084dbc305fULL, 0x7872537f9240dd93ULL, 0x14650fb0739d0383ULL},
    {0xad60fc5dcbd372b7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a77ccb00244043ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfb2b25329edda1fdULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf638604df6888afaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x27f6de37c7124521ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf99619aaad02585dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xad60fc5dcbd372b7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a77ccb00244043ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfb2b25329edda1fdULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf638604df6888afaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x27f6de37c7124521ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf99619aaad02585dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xdce385d227727a9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x41543f60495fafb4ULL, 0x38e221e37ffa7d83ULL, 0x14650fb0739d0383ULL},
    {0x1eff37103a9d0f39ULL, 0x7c33c6d1fb595b6fULL, 0x14650fb0739d0383ULL},
    {0x161fbffe235e4e59ULL, 0x38e221e37ffa7d83ULL, 0x14650fb0739d0383ULL},
    {0x40061c3aa3ff62b0ULL, 0x7c33c6d1fb595b6fULL, 0x14650fb0739d0383ULL},
    {0x8edbb66d9511ac0ULL, 0x6b4adb48ecc2f814ULL, 0x14650fb0739d0383ULL},
    {0x2d8e79480305eb82ULL, 0x7872537f9240dd93ULL, 0x14650fb0739d0383ULL},
    {0x5e42076cf3deff57ULL, 0x6b4adb48ecc2f814ULL, 0x14650fb0739d0383ULL},
    {0x5cb41d084dbc305fULL, 0x7872537f9240dd93ULL, 0x14650fb0739d0383ULL},
    // interleavedStreams/EDF
    {0x52434a01e6158de7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf19d59e4cb2c1fa3ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfac47e77447a4306ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xe81c6b6b216f6e26ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc18e8f874d30464ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xd971f14c838e17c8ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xad0ed0557aef0632ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xec16eb951c31bfc1ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x52434a01e6158de7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf19d59e4cb2c1fa3ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xfac47e77447a4306ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xe81c6b6b216f6e26ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc18e8f874d30464ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xd971f14c838e17c8ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xad0ed0557aef0632ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xec16eb951c31bfc1ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3d089d62b4d61676ULL, 0x5d54a4ee8cad3ad1ULL, 0x14650fb0739d0383ULL},
    {0x6b9558bd4e243ac9ULL, 0x7fef2f6609b49425ULL, 0x14650fb0739d0383ULL},
    {0x20d724e1469110bfULL, 0x5d54a4ee8cad3ad1ULL, 0x14650fb0739d0383ULL},
    {0x2f4a928347e2f3e7ULL, 0x7fef2f6609b49425ULL, 0x14650fb0739d0383ULL},
    {0xe53c57ce285fe42bULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x280dde75020c73b7ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x3f793ce1f740d2d4ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x74c67dcf0e5e81b3ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x80ac0ad1dd16949cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xe0986fd96a235f9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x767d9533db1b571fULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa86f710d1e5e236fULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xda0935418152b113ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa0e48ab3a8ab5e9bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xaa71295ce6642f31ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x9d3a61743fd1140eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x80ac0ad1dd16949cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xe0986fd96a235f9cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x767d9533db1b571fULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa86f710d1e5e236fULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xda0935418152b113ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa0e48ab3a8ab5e9bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xaa71295ce6642f31ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x9d3a61743fd1140eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xb226164a2a3abd95ULL, 0x14437194da33cb09ULL, 0x14650fb0739d0383ULL},
    {0xbf98b247243c224aULL, 0x2273a20f0b740186ULL, 0x14650fb0739d0383ULL},
    {0x297b3b82ae4d2d12ULL, 0x14437194da33cb09ULL, 0x14650fb0739d0383ULL},
    {0xb258bee55c5a28c9ULL, 0x2273a20f0b740186ULL, 0x14650fb0739d0383ULL},
    {0xbb63cf1c860ed840ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x2f6db6d4c80ac4d0ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x599608bc401f235fULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x92add36fd29f6301ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    // interleavedStreams/LST
    {0xddf69b1050c020e7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x4eb83e31ea2b6247ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x26c37767c7f8772ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x74a583c9c0dd695eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x75705e061afca5ceULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xac190f61fe7db6eeULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa1e6e1c691574307ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x9dc93c9a44f48713ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xddf69b1050c020e7ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x4eb83e31ea2b6247ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x26c37767c7f8772ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x74a583c9c0dd695eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x75705e061afca5ceULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xac190f61fe7db6eeULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xa1e6e1c691574307ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x9dc93c9a44f48713ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xe87b13a581a5100cULL, 0x1994da76f2815d97ULL, 0x14650fb0739d0383ULL},
    {0xfa520dcc40415b70ULL, 0x1994da76f2815d97ULL, 0x14650fb0739d0383ULL},
    {0x7e74fa40c0d914b8ULL, 0x1994da76f2815d97ULL, 0x14650fb0739d0383ULL},
    {0xd3c27e7877bf74ecULL, 0x1994da76f2815d97ULL, 0x14650fb0739d0383ULL},
    {0x9bef4583781c9addULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x762a328c09a3f97dULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xa21ba1b8a1c3d534ULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0x7799787da9a5d5efULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xb797a893959c9d86ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x6901318b674bc2eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x19cc4e91485863ddULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a590a7e0994f43dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16dcdd593ce6ac2ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2cd28eb9f71e82feULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2b9f1a906b4e37c6ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x324eb3156978e82aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xb797a893959c9d86ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x6901318b674bc2eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x19cc4e91485863ddULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8a590a7e0994f43dULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16dcdd593ce6ac2ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2cd28eb9f71e82feULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2b9f1a906b4e37c6ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x324eb3156978e82aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x6d868b6cd5c59ba0ULL, 0xe57c5d63876fac8fULL, 0x14650fb0739d0383ULL},
    {0xbe355db31d678f28ULL, 0xe57c5d63876fac8fULL, 0x14650fb0739d0383ULL},
    {0xf3025a4319401d49ULL, 0xe57c5d63876fac8fULL, 0x14650fb0739d0383ULL},
    {0x21faf37265572d95ULL, 0xe57c5d63876fac8fULL, 0x14650fb0739d0383ULL},
    {0xc3ca2064827e25caULL, 0xe9c114a22618ae03ULL, 0x14650fb0739d0383ULL},
    {0xfa0c8c85af25dd1eULL, 0xe9c114a22618ae03ULL, 0x14650fb0739d0383ULL},
    {0xf17ab820e4f7cc66ULL, 0xe9c114a22618ae03ULL, 0x14650fb0739d0383ULL},
    {0x471feccefc835986ULL, 0xe9c114a22618ae03ULL, 0x14650fb0739d0383ULL},
    // interleavedStreams/LST+sticky
    {0x326afa74514e248bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x326afa74514e248bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x36833a13133a80dfULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x36833a13133a80dfULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x5d04456ebd5ca8c5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x5d04456ebd5ca8c5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc4a89e6a50a26aebULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc4a89e6a50a26aebULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x326afa74514e248bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x326afa74514e248bULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x36833a13133a80dfULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x36833a13133a80dfULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x5d04456ebd5ca8c5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x5d04456ebd5ca8c5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc4a89e6a50a26aebULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc4a89e6a50a26aebULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x6421b7c9047054dULL, 0xec1841f1db98f70fULL, 0x14650fb0739d0383ULL},
    {0x6421b7c9047054dULL, 0xec1841f1db98f70fULL, 0x14650fb0739d0383ULL},
    {0x44b8e6f8584e27bdULL, 0xec1841f1db98f70fULL, 0x14650fb0739d0383ULL},
    {0x44b8e6f8584e27bdULL, 0xec1841f1db98f70fULL, 0x14650fb0739d0383ULL},
    {0xe1c3f385827f6bccULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xe1c3f385827f6bccULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xe1c3f385827f6bccULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xe1c3f385827f6bccULL, 0x2b8d61b8bd20956ULL, 0x14650fb0739d0383ULL},
    {0xf0878f233ff41855ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf0878f233ff41855ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x88ff4a3b5b13c01aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x88ff4a3b5b13c01aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf0878f233ff41855ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf0878f233ff41855ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x88ff4a3b5b13c01aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x88ff4a3b5b13c01aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xf31817d1ad398dc9ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xc52fc050be4c2057ULL, 0x40a0a4875c4788bcULL, 0x14650fb0739d0383ULL},
    {0xc52fc050be4c2057ULL, 0x40a0a4875c4788bcULL, 0x14650fb0739d0383ULL},
    {0x2eff0fb26f710154ULL, 0x40a0a4875c4788bcULL, 0x14650fb0739d0383ULL},
    {0x2eff0fb26f710154ULL, 0x40a0a4875c4788bcULL, 0x14650fb0739d0383ULL},
    {0x483f501313d2215bULL, 0x3e612af9549e0b0ULL, 0x14650fb0739d0383ULL},
    {0x483f501313d2215bULL, 0x3e612af9549e0b0ULL, 0x14650fb0739d0383ULL},
    {0x483f501313d2215bULL, 0x3e612af9549e0b0ULL, 0x14650fb0739d0383ULL},
    {0x483f501313d2215bULL, 0x3e612af9549e0b0ULL, 0x14650fb0739d0383ULL},
    // fifoTies/FIFO
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    // fifoTies/EDF
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    // fifoTies/LST
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8333d71521483180ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8af7f01fdceffca5ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8f77ab2c002eb9acULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x243d757f126b603eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x8092509c27c3dc68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x3ad71a63dc91c5aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x7a6eb06641e4eec4ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    // fifoTies/LST+sticky
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x1034f425639bd7eaULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x251c12d3980f8c68ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x83863a64db392d0cULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x99306b8eab8f968eULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x16e9e57c79090e4aULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xbced39f0ef1305afULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0xcc692c860833594ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
    {0x2d1cefed1db24d29ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
};

// Recorded in grid order on skewedLoad with BacklogSkew: policy (FIFO,
// EDF, LST) x preemption x drop (None, DoomedFrames) x postProcess
// (off, on) x ordering (breadth, depth).
const Cell kReconfigGolden[] = {
    // FIFO
    {0x479c027e7d6a492eULL, 0x14650fb0739d0383ULL, 0x99cd044199c4942dULL},
    {0xc8a2efc4e9bdb596ULL, 0x14650fb0739d0383ULL, 0x69179231f77d0ac1ULL},
    {0x767155a7b6319322ULL, 0x14650fb0739d0383ULL, 0x99cd044199c4942dULL},
    {0xdf76c07d3b70f02eULL, 0x14650fb0739d0383ULL, 0x69179231f77d0ac1ULL},
    {0x82118547751c78b7ULL, 0xc59e0824d9c00bd7ULL, 0x8581887975192099ULL},
    {0xcd49e2db8a88790ULL, 0x25c81cb008276140ULL, 0x77dcd037346bdefcULL},
    {0x48fd96ad3053c0eaULL, 0xc59e0824d9c00bd7ULL, 0x8581887975192099ULL},
    {0x8a4c82c3579df18ULL, 0x25c81cb008276140ULL, 0x77dcd037346bdefcULL},
    {0x479c027e7d6a492eULL, 0x14650fb0739d0383ULL, 0x99cd044199c4942dULL},
    {0xc8a2efc4e9bdb596ULL, 0x14650fb0739d0383ULL, 0x69179231f77d0ac1ULL},
    {0x767155a7b6319322ULL, 0x14650fb0739d0383ULL, 0x99cd044199c4942dULL},
    {0xdf76c07d3b70f02eULL, 0x14650fb0739d0383ULL, 0x69179231f77d0ac1ULL},
    {0x82118547751c78b7ULL, 0xc59e0824d9c00bd7ULL, 0x8581887975192099ULL},
    {0xcd49e2db8a88790ULL, 0x25c81cb008276140ULL, 0x77dcd037346bdefcULL},
    {0x48fd96ad3053c0eaULL, 0xc59e0824d9c00bd7ULL, 0x8581887975192099ULL},
    {0x8a4c82c3579df18ULL, 0x25c81cb008276140ULL, 0x77dcd037346bdefcULL},
    // EDF
    {0x591ae0316a229f6fULL, 0x14650fb0739d0383ULL, 0x33762717dff378ecULL},
    {0xd31aa6f95702ed8cULL, 0x14650fb0739d0383ULL, 0x1728461053e36f9eULL},
    {0x6952aa2d973ea2d1ULL, 0x14650fb0739d0383ULL, 0x33762717dff378ecULL},
    {0x22608d01dc943f83ULL, 0x14650fb0739d0383ULL, 0x1728461053e36f9eULL},
    {0x6a7404cf790ddd0fULL, 0x1f8d3e453e036af0ULL, 0x40947534f0bc3f88ULL},
    {0xc1ebbcd942ead7f4ULL, 0xad0cf2164805987bULL, 0xe0079f290748436dULL},
    {0xf47d5437179452c6ULL, 0x1f8d3e453e036af0ULL, 0x40947534f0bc3f88ULL},
    {0xc160003b13a4f657ULL, 0xad0cf2164805987bULL, 0xe0079f290748436dULL},
    {0x591ae0316a229f6fULL, 0x14650fb0739d0383ULL, 0x33762717dff378ecULL},
    {0xd31aa6f95702ed8cULL, 0x14650fb0739d0383ULL, 0x1728461053e36f9eULL},
    {0x6952aa2d973ea2d1ULL, 0x14650fb0739d0383ULL, 0x33762717dff378ecULL},
    {0x22608d01dc943f83ULL, 0x14650fb0739d0383ULL, 0x1728461053e36f9eULL},
    {0x6a7404cf790ddd0fULL, 0x1f8d3e453e036af0ULL, 0x40947534f0bc3f88ULL},
    {0xc1ebbcd942ead7f4ULL, 0xad0cf2164805987bULL, 0xe0079f290748436dULL},
    {0xf47d5437179452c6ULL, 0x1f8d3e453e036af0ULL, 0x40947534f0bc3f88ULL},
    {0xc160003b13a4f657ULL, 0xad0cf2164805987bULL, 0xe0079f290748436dULL},
    // LST
    {0x4b34457fbaa523eeULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x4b34457fbaa523eeULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x72b440ea6537f51aULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x72b440ea6537f51aULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x64afaba9f80d53beULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x64afaba9f80d53beULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x7afedac6fef698bULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x7afedac6fef698bULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x4b34457fbaa523eeULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x4b34457fbaa523eeULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x72b440ea6537f51aULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x72b440ea6537f51aULL, 0x14650fb0739d0383ULL, 0x89794b47a9c1d302ULL},
    {0x64afaba9f80d53beULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x64afaba9f80d53beULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x7afedac6fef698bULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
    {0x7afedac6fef698bULL, 0x2beed3f1e46c5cefULL, 0x2e595097e8517063ULL},
};

/**
 * Schedule @p wl under @p opts, compare against the next recorded
 * cell and append the run's line to @p table. Returns the schedule.
 */
Schedule
checkCell(cost::CostModel &model, const workload::Workload &wl,
          const Accelerator &acc, const SchedulerOptions &opts,
          const Cell *golden, std::size_t golden_size, std::size_t &cell,
          const std::string &label, std::string &table)
{
    SCOPED_TRACE(label);
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc,
                         opts.faults.empty() ? nullptr : &opts.faults),
              "");
    const Cell got = cellOf(s);
    table += format(got) + ", // " + label + "\n";
    if (cell < golden_size) {
        const Cell &want = golden[cell];
        EXPECT_EQ(got.entries, want.entries);
        EXPECT_EQ(got.dropped, want.dropped);
        EXPECT_EQ(got.reconfigs, want.reconfigs);
    } else {
        ADD_FAILURE() << "no recorded value for this cell";
    }
    ++cell;
    return s;
}

TEST_F(DoomGoldenTest, DispatchGridMatchesRecordedValues)
{
    const std::vector<std::pair<std::string, workload::Workload>>
        workloads = {{"interleavedStreams", interleavedStreams()},
                     {"fifoTies", fifoTies()}};
    const Accelerator acc = miniHda();
    std::size_t cell = 0;
    std::size_t dropped_total = 0;
    std::size_t killed_total = 0;
    std::string table;
    for (const auto &[name, wl] : workloads) {
        // Instance index order is not arrival order in either mix.
        bool out_of_order = false;
        for (std::size_t i = 1; i < wl.numInstances(); ++i)
            out_of_order = out_of_order ||
                           wl.instances()[i].arrivalCycle <
                               wl.instances()[i - 1].arrivalCycle;
        EXPECT_TRUE(out_of_order) << name;

        SchedulerOptions plain;
        plain.postProcess = false;
        const double horizon = HeraldScheduler(model, plain)
                                   .schedule(wl, acc)
                                   .makespanCycles();
        sched::RandomFaultOptions fopts;
        fopts.permanentFailureProb = 1.0;
        const FaultTimeline faults =
            FaultTimeline::random(11, acc.numSubAccs(), horizon, fopts);

        for (const PolicyCase &pc : kPolicies) {
            for (Preemption preempt : kPreemptions) {
                for (DropPolicy drop : kDrops) {
                    for (bool with_faults : {false, true}) {
                        for (bool post : {false, true}) {
                            for (sched::Ordering ordering : kOrderings) {
                                SchedulerOptions opts;
                                opts.policy = pc.policy;
                                opts.lstHysteresisCycles = pc.hysteresis;
                                opts.contextChangeCycles =
                                    pc.contextChange;
                                opts.preemption = preempt;
                                opts.dropPolicy = drop;
                                if (with_faults)
                                    opts.faults = faults;
                                opts.postProcess = post;
                                opts.ordering = ordering;
                                const std::string label =
                                    name + "/" + pc.name + "/" +
                                    sched::toString(preempt) + "/" +
                                    sched::toString(drop) +
                                    (with_faults ? "/faults" : "/clean") +
                                    (post ? "/post" : "/dispatch") + "/" +
                                    sched::toString(ordering);
                                const Schedule s = checkCell(
                                    model, wl, acc, opts, kDispatchGolden,
                                    std::size(kDispatchGolden), cell,
                                    label, table);
                                EXPECT_TRUE(s.reconfigEvents().empty());
                                dropped_total +=
                                    s.droppedInstances().size();
                                for (const sched::ScheduledLayer &e :
                                     s.entries())
                                    killed_total += e.faultKilled ? 1 : 0;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(cell, std::size(kDispatchGolden));
    // The grid must exercise what it pins.
    EXPECT_GT(dropped_total, 0u);
    EXPECT_GT(killed_total, 0u);
    if (HasFailure())
        std::cout << "this run, in kDispatchGolden order:\n" << table;
}

TEST_F(DoomGoldenTest, ReconfigGridMatchesRecordedValues)
{
    const workload::Workload wl = skewedLoad();
    const Accelerator acc = miniHda();
    std::size_t cell = 0;
    std::size_t migrations = 0;
    std::string table;
    for (Policy policy : {Policy::Fifo, Policy::Edf, Policy::Lst}) {
        for (Preemption preempt : kPreemptions) {
            for (DropPolicy drop :
                 {DropPolicy::None, DropPolicy::DoomedFrames}) {
                for (bool post : {false, true}) {
                    for (sched::Ordering ordering : kOrderings) {
                        SchedulerOptions opts;
                        opts.policy = policy;
                        opts.preemption = preempt;
                        opts.dropPolicy = drop;
                        opts.postProcess = post;
                        opts.ordering = ordering;
                        opts.reconfig.policy = Reconfig::BacklogSkew;
                        opts.reconfig.skewThresholdCycles = 1e6;
                        opts.reconfig.migrationQuantumPes = 64;
                        opts.reconfig.drainCycles = 1e4;
                        opts.reconfig.perPeRewireCycles = 10.0;
                        opts.reconfig.cooldownCycles = 1e5;
                        const std::string label =
                            std::string(sched::toString(policy)) + "/" +
                            sched::toString(preempt) + "/" +
                            sched::toString(drop) +
                            (post ? "/post" : "/dispatch") + "/" +
                            sched::toString(ordering);
                        const Schedule s = checkCell(
                            model, wl, acc, opts, kReconfigGolden,
                            std::size(kReconfigGolden), cell, label,
                            table);
                        migrations += s.reconfigEvents().size();
                    }
                }
            }
        }
    }
    EXPECT_EQ(cell, std::size(kReconfigGolden));
    EXPECT_GT(migrations, 0u);
    if (HasFailure())
        std::cout << "this run, in kReconfigGolden order:\n" << table;
}

} // namespace
