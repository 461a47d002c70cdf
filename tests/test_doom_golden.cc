/**
 * @file
 * Golden values for DropPolicy::DoomedFrames: a grid of overloaded
 * streams x {LST, EDF} x preemption off/on x {no faults, one seeded
 * random FaultTimeline with a mid-run permanent failure}, each run
 * offline (HeraldScheduler) and online (OnlineScheduler, retained and
 * retired). Every cell pins the schedule's fingerprint, its
 * dropped-instance list and its SLA counters to values recorded from
 * the scheduler that re-keyed every doom-set entry eagerly after each
 * committed layer. The online == offline grid in test_online.cc cannot
 * see a change made identically to both dispatch loops; these values
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

} // namespace
