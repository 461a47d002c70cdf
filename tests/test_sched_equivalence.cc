/**
 * @file
 * Scheduler equivalence suite: the table-driven, event-dispatch
 * scheduler must produce *bit-identical* schedules to the reference
 * implementation (per-layer cost queries + O(n_instances) scans) on
 * every factory scenario, under every combination of
 * {FIFO, EDF} x {BreadthFirst, DepthFirst} x postProcess {on, off} —
 * plus the post-processing grid (look-ahead depth x pass budget x
 * context-change penalty, and a global buffer small enough to reject
 * moves), digests pinning post-processing under faults and elastic
 * reconfiguration (which the reference rejects), prefill-thread
 * determinism and prebuilt-table reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/reference_scheduler.hh"
#include "tests/sched_scenarios.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::HeraldScheduler;
using sched::Schedule;
using sched::SchedulerOptions;
using workload::Workload;

using test::edgeHda;
using test::miniMixed;
using test::NamedWorkload;
using test::scenarios;
using test::threeWayHda;

class SchedEquivalenceTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;

    void
    expectEquivalent(const Workload &wl, const Accelerator &acc,
                     const SchedulerOptions &opts,
                     const std::string &label)
    {
        HeraldScheduler scheduler(model, opts);
        Schedule fast = scheduler.schedule(wl, acc);
        Schedule ref = sched::referenceSchedule(model, opts, wl, acc);
        ASSERT_EQ(fast.entries().size(), ref.entries().size())
            << label;
        for (std::size_t i = 0; i < fast.entries().size(); ++i) {
            EXPECT_EQ(fast.entries()[i], ref.entries()[i])
                << label << " entry " << i;
        }
        EXPECT_TRUE(fast.identicalTo(ref)) << label;
        EXPECT_EQ(fast.validate(wl, acc), "") << label;
    }
};

TEST_F(SchedEquivalenceTest, AllScenariosAllPolicyCombinations)
{
    Accelerator acc = edgeHda();
    for (const NamedWorkload &s : scenarios()) {
        for (auto policy :
             {sched::Policy::Fifo, sched::Policy::Edf}) {
            for (auto ordering : {sched::Ordering::BreadthFirst,
                                  sched::Ordering::DepthFirst}) {
                for (bool pp : {false, true}) {
                    SchedulerOptions opts;
                    opts.policy = policy;
                    opts.ordering = ordering;
                    opts.postProcess = pp;
                    std::string label =
                        s.name + "/" + sched::toString(policy) +
                        "/" + sched::toString(ordering) +
                        (pp ? "/pp" : "/nopp");
                    expectEquivalent(s.wl, acc, opts, label);
                }
            }
        }
    }
}

/**
 * The post-processing knobs the gap-fill scan's resume rule depends
 * on: every look-ahead depth it treats differently, one and many
 * passes, and both context-change penalty modes.
 */
std::vector<std::pair<std::string, SchedulerOptions>>
postProcessGrid()
{
    std::vector<std::pair<std::string, SchedulerOptions>> grid;
    for (int depth : {1, 2, 4, 8}) {
        for (int passes : {1, 8}) {
            for (double ctx : {0.0, 1e4}) {
                SchedulerOptions opts;
                opts.lookaheadDepth = depth;
                opts.maxPostPasses = passes;
                opts.contextChangeCycles = ctx;
                grid.emplace_back("la" + std::to_string(depth) + "/p" +
                                      std::to_string(passes) +
                                      (ctx > 0.0 ? "/ctx" : ""),
                                  opts);
            }
        }
    }
    return grid;
}

TEST_F(SchedEquivalenceTest, PostProcessGridMatchesReference)
{
    // Both dispatch orders, on two- and three-way HDAs.
    for (const Accelerator &acc : {edgeHda(), threeWayHda()}) {
        for (const NamedWorkload &s : scenarios()) {
            for (const auto &[label, grid_opts] : postProcessGrid()) {
                for (auto policy :
                     {sched::Policy::Fifo, sched::Policy::Edf}) {
                    SchedulerOptions opts = grid_opts;
                    opts.policy = policy;
                    expectEquivalent(s.wl, acc, opts,
                                     s.name + "/" + acc.name() + "/" +
                                         label + "/" +
                                         sched::toString(policy));
                }
            }
        }
    }
}

/**
 * Entries the pull pass could still start earlier by time alone: the
 * later of the frame's arrival, the predecessor layer's end and the
 * previous entry's end on the same sub-accelerator lies before the
 * entry's start. In a converged schedule without fault or
 * reconfiguration windows, only the memory tracker can have rejected
 * those pulls.
 */
std::size_t
pullableEntries(const Schedule &s, const Workload &wl)
{
    std::map<std::pair<std::size_t, std::size_t>, double> end_of;
    std::vector<std::vector<const sched::ScheduledLayer *>> per_acc(
        s.numSubAccs());
    for (const sched::ScheduledLayer &e : s.entries()) {
        end_of[{e.instanceIdx, e.layerIdx}] = e.endCycle;
        per_acc[e.accIdx].push_back(&e);
    }
    std::size_t pullable = 0;
    for (auto &on_acc : per_acc) {
        std::sort(on_acc.begin(), on_acc.end(),
                  [](const auto *a, const auto *b) {
                      return a->startCycle < b->startCycle;
                  });
        double prev_end = 0.0;
        for (const sched::ScheduledLayer *e : on_acc) {
            double ready = std::max(
                prev_end, wl.instances()[e->instanceIdx].arrivalCycle);
            if (e->layerIdx > 0)
                ready = std::max(
                    ready, end_of.at({e->instanceIdx, e->layerIdx - 1}));
            if (ready < e->startCycle - 1e-6)
                ++pullable;
            prev_end = e->endCycle;
        }
    }
    return pullable;
}

TEST_F(SchedEquivalenceTest, PostProcessUnderTightBufferMatchesReference)
{
    // With a 32 KiB global buffer every layer still fits on its own,
    // but the memory tracker rejects some moves: after
    // post-processing has converged (one more pass changes nothing),
    // entries remain that the pull pass could start earlier by time
    // alone. With a huge buffer none remain, and the schedules
    // differ.
    const Workload wl = workload::mixedTenantScenario(2);
    const std::uint64_t tight_bytes = std::uint64_t{32} << 10;
    const Accelerator tight = edgeHda(tight_bytes);
    const Accelerator huge = edgeHda(std::uint64_t{1} << 40);
    SchedulerOptions converged;
    converged.maxPostPasses = 64;
    SchedulerOptions one_more = converged;
    one_more.maxPostPasses = 65;
    auto run = [&](const SchedulerOptions &opts,
                   const Accelerator &acc) {
        return HeraldScheduler(model, opts).schedule(wl, acc);
    };

    const Schedule tight_pp = run(converged, tight);
    ASSERT_TRUE(tight_pp.identicalTo(run(one_more, tight)));
    EXPECT_GT(pullableEntries(tight_pp, wl), 0u);
    EXPECT_LE(tight_pp.peakOccupancyBytes(), tight_bytes);
    const Schedule huge_pp = run(converged, huge);
    ASSERT_TRUE(huge_pp.identicalTo(run(one_more, huge)));
    EXPECT_EQ(pullableEntries(huge_pp, wl), 0u);
    EXPECT_FALSE(tight_pp.identicalTo(huge_pp));

    for (const auto &[label, opts] : postProcessGrid())
        expectEquivalent(wl, tight, opts, "tight/" + label);
}

TEST_F(SchedEquivalenceTest, SkippedTrackerMatchesTrackedSchedule)
{
    // Each case is scheduled on the edge chip, where the scheduler
    // skips the memory tracker when maxBufferDemand proves the buffer
    // cannot bind, and must equal the reference, which always tracks
    // (it has no LST, so LST cases skip that check). The case is then
    // scheduled again, from the same cost table, on a copy of the chip
    // with another buffer size that takes the other side: a buffer of
    // the bound skips the tracker, and a buffer in [peak occupancy,
    // bound) keeps it although it never rejects a placement or a
    // move. Both schedules must be bit-identical. (A chip built with
    // another buffer would give each sub-accelerator another L2 share
    // and so other costs; the scheduler reads only the buffer size
    // from the accelerator.) Dispatch only adds intervals, so it never
    // probes above the final peak, and a buffer of exactly that peak
    // cannot bind. Post-processing can probe above the final peak,
    // since a later move may lower it, so those cases track with the
    // largest buffer below the bound. Where the bound is tight (peak
    // == bound) no tracked buffer exists and only one side runs.
    const Accelerator edge = edgeHda();
    const auto edge_bytes = static_cast<double>(edge.globalBufferBytes());
    std::map<std::pair<bool, sched::Policy>, int> runs; // tracked?
    for (const NamedWorkload &s : scenarios()) {
        for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                            sched::Policy::Lst}) {
            for (bool pp : {false, true}) {
                for (int lookahead : {1, 4}) {
                    SchedulerOptions opts;
                    opts.policy = policy;
                    opts.postProcess = pp;
                    opts.lookaheadDepth = lookahead;
                    const std::string label =
                        s.name + "/" + sched::toString(policy) +
                        (pp ? "/pp" : "/nopp") + "/la" +
                        std::to_string(lookahead);
                    const sched::LayerCostTable table =
                        sched::LayerCostTable::build(
                            model, s.wl, edge, opts.metric,
                            opts.rdaOverheads, 1);
                    const double bound =
                        sched::maxBufferDemand(opts, table);
                    HeraldScheduler scheduler(model, opts);
                    const Schedule at_edge =
                        scheduler.schedule(s.wl, edge, table);
                    const bool edge_tracks = bound > edge_bytes;
                    ++runs[{edge_tracks, policy}];
                    if (policy != sched::Policy::Lst) {
                        EXPECT_TRUE(at_edge.identicalTo(
                            sched::referenceSchedule(model, opts, s.wl,
                                                     edge)))
                            << label;
                    }

                    const auto peak = static_cast<double>(
                        at_edge.peakOccupancyBytes());
                    ASSERT_LE(peak, bound) << label;
                    if (!edge_tracks && peak == bound)
                        continue;
                    const double other_bytes =
                        edge_tracks ? bound : pp ? bound - 1.0 : peak;
                    const Schedule other = scheduler.schedule(
                        s.wl,
                        edgeHda(static_cast<std::uint64_t>(other_bytes)),
                        table);
                    ++runs[{!edge_tracks, policy}];
                    EXPECT_TRUE(other.identicalTo(at_edge)) << label;
                }
            }
        }
    }
    for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                        sched::Policy::Lst}) {
        EXPECT_GT((runs[{false, policy}]), 0) << sched::toString(policy);
        EXPECT_GT((runs[{true, policy}]), 0) << sched::toString(policy);
    }
}

/** FNV-1a over the bit patterns of every entry's start and end. */
std::uint64_t
timingDigest(const Schedule &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const sched::ScheduledLayer &e : s.entries()) {
        for (double v : {e.startCycle, e.endCycle}) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (bits >> (8 * byte)) & 0xffU;
                h *= 1099511628211ULL;
            }
        }
    }
    return h;
}

TEST_F(SchedEquivalenceTest, PostProcessPinsFaultAndReconfigHistory)
{
    // referenceSchedule rejects fault timelines and reconfiguration,
    // so post-processing under them is pinned to digests of every
    // entry's start and end, recorded from the post-processor that
    // rescanned every gap from the front after each move. Each case
    // must also really post-process (its schedule differs from the
    // dispatch-only one) around something it has to pin: fault
    // windows and kills, or reconfiguration windows whose
    // context-change adjacency must survive every reorder.
    struct Case
    {
        std::string label;
        Workload wl;
        Accelerator acc;
        SchedulerOptions opts;
        std::uint64_t digest;
    };
    std::vector<Case> cases;
    const Workload arvr = workload::arvrA60fps(3);
    const double horizon = 1.2 * sched::HeraldScheduler(model)
                                     .schedule(arvr, edgeHda())
                                     .makespanCycles();
    const std::uint64_t fault_digests[] = {0xdeb5deac1cdd77ceULL,
                                           0x97125086705566b7ULL,
                                           0x1d51cdf9249b634eULL};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SchedulerOptions opts;
        opts.policy = sched::Policy::Edf;
        opts.faults = sched::FaultTimeline::random(seed, 2, horizon);
        cases.push_back({"faults/seed" + std::to_string(seed), arvr,
                         edgeHda(), opts, fault_digests[seed - 1]});
    }
    SchedulerOptions elastic;
    elastic.policy = sched::Policy::Edf;
    elastic.contextChangeCycles = 1e4;
    elastic.reconfig.policy = sched::Reconfig::BacklogSkew;
    elastic.reconfig.skewThresholdCycles = 1e6;
    elastic.reconfig.migrationQuantumPes = 64;
    elastic.reconfig.drainCycles = 1e4;
    elastic.reconfig.perPeRewireCycles = 10.0;
    elastic.reconfig.cooldownCycles = 1e5;
    cases.push_back({"reconfig/shifting",
                     workload::shiftingLoadFactory(8), edgeHda(),
                     elastic, 0x6945d1821e2b5bd0ULL});
    cases.push_back({"reconfig/3way", workload::mixedTenantScenario(2),
                     threeWayHda(), elastic, 0x1b7dc48b99cd788bULL});

    std::size_t killed = 0;
    for (const Case &c : cases) {
        const Schedule pp =
            HeraldScheduler(model, c.opts).schedule(c.wl, c.acc);
        for (const sched::ScheduledLayer &e : pp.entries())
            killed += e.faultKilled ? 1 : 0;
        SchedulerOptions off = c.opts;
        off.postProcess = false;
        const Schedule dispatched =
            HeraldScheduler(model, off).schedule(c.wl, c.acc);
        EXPECT_FALSE(pp.identicalTo(dispatched)) << c.label;
        const sched::FaultTimeline *faults =
            c.opts.faults.empty() ? nullptr : &c.opts.faults;
        EXPECT_TRUE(faults || !pp.reconfigEvents().empty())
            << c.label;
        EXPECT_EQ(pp.validate(c.wl, c.acc, faults), "") << c.label;
        EXPECT_EQ(timingDigest(pp), c.digest) << c.label;
    }
    EXPECT_GT(killed, 0u) << "no fault case pins a killed entry";
}

TEST_F(SchedEquivalenceTest, PreemptionOffStaysPr4BitIdentical)
{
    // Acceptance criterion: Preemption::Off (explicitly spelled, not
    // just defaulted) must keep every equivalence-grid combination
    // bit-identical to the pre-preemption reference oracle — the
    // preemption machinery has to be completely inert when off.
    Accelerator acc = edgeHda();
    for (const NamedWorkload &s : scenarios()) {
        for (auto policy :
             {sched::Policy::Fifo, sched::Policy::Edf}) {
            for (bool pp : {false, true}) {
                SchedulerOptions opts;
                opts.policy = policy;
                opts.preemption = sched::Preemption::Off;
                opts.postProcess = pp;
                expectEquivalent(s.wl, acc, opts,
                                 s.name + "/preempt-off/" +
                                     sched::toString(policy) +
                                     (pp ? "/pp" : "/nopp"));
            }
        }
    }
}

TEST_F(SchedEquivalenceTest, FifoNeverPreempts)
{
    // FIFO's constant priority key can never mark an arrival as
    // strictly more urgent, so even with preemption points enabled
    // the production schedule must equal the (preemption-free)
    // reference oracle bit for bit.
    Accelerator acc = edgeHda();
    for (const NamedWorkload &s : scenarios()) {
        SchedulerOptions pre;
        pre.preemption = sched::Preemption::AtLayerBoundary;
        HeraldScheduler scheduler(model, pre);
        Schedule fast = scheduler.schedule(s.wl, acc);
        SchedulerOptions off; // reference rejects preemption opts
        Schedule ref =
            sched::referenceSchedule(model, off, s.wl, acc);
        EXPECT_TRUE(fast.identicalTo(ref)) << s.name;
    }
}

TEST_F(SchedEquivalenceTest, ThreeWayHdaWithContextChange)
{
    Accelerator acc = threeWayHda();
    SchedulerOptions opts;
    opts.contextChangeCycles = 1e4;
    expectEquivalent(miniMixed(), acc, opts, "3way/context");
    opts.policy = sched::Policy::Edf;
    expectEquivalent(workload::arvrA60fps(2), acc, opts,
                     "3way/context/EDF");
}

TEST_F(SchedEquivalenceTest, LoadBalanceVariantsStayIdentical)
{
    Accelerator acc = edgeHda();
    SchedulerOptions opts;
    opts.loadBalance = false;
    expectEquivalent(miniMixed(), acc, opts, "noLB");
    opts.loadBalance = true;
    opts.loadBalanceFactor = 1.2;
    opts.loadBalanceMaxDegradation = 8.0;
    expectEquivalent(miniMixed(), acc, opts, "tightLB");
}

TEST_F(SchedEquivalenceTest, AlternateMetricsStayIdentical)
{
    Accelerator acc = edgeHda();
    for (auto metric : {sched::Metric::Latency,
                        sched::Metric::Energy}) {
        SchedulerOptions opts;
        opts.metric = metric;
        expectEquivalent(miniMixed(), acc, opts,
                         std::string("metric/") +
                             sched::toString(metric));
    }
}

TEST_F(SchedEquivalenceTest, RdaFlexibleArrayStaysIdentical)
{
    Accelerator acc = Accelerator::makeRda(accel::edgeClass());
    SchedulerOptions opts;
    expectEquivalent(miniMixed(), acc, opts, "rda");
}

TEST_F(SchedEquivalenceTest, PrefillThreadCountIsIrrelevant)
{
    // The parallel table prefill must be bit-identical to the serial
    // one for any worker count (pure per-row fills). The workload
    // needs enough unique layers x sub-accs to cross the
    // kMinParallelEvals gate, or the pool never spins up.
    Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss, DataflowStyle::NVDLA},
        {256, 256, 256, 256}, {4.0, 4.0, 4.0, 4.0});
    Workload wl("zoo");
    wl.addModel(dnn::resnet50(), 1);
    wl.addModel(dnn::mobileNetV1(), 1);
    wl.addModel(dnn::mobileNetV2(), 1);
    wl.addModel(dnn::uNet(), 1);
    wl.addModel(dnn::ssdResnet34(), 1);
    wl.addModel(dnn::ssdMobileNetV1(), 1);
    wl.addModel(dnn::gnmt(), 1);
    wl.addModel(dnn::brqHandposeNet(), 1);
    wl.addModel(dnn::focalLengthDepthNet(), 1);
    ASSERT_GE(wl.totalLayers() * acc.numSubAccs(),
              sched::LayerCostTable::kMinParallelEvals)
        << "workload too small to engage the parallel prefill";

    SchedulerOptions serial_opts;
    serial_opts.prefillThreads = 1;
    SchedulerOptions parallel_opts = serial_opts;
    parallel_opts.prefillThreads = 7;
    Schedule a =
        HeraldScheduler(model, serial_opts).schedule(wl, acc);
    Schedule b =
        HeraldScheduler(model, parallel_opts).schedule(wl, acc);
    EXPECT_TRUE(a.identicalTo(b));
}

TEST_F(SchedEquivalenceTest, PrebuiltTableReuseMatchesInternalBuild)
{
    Accelerator acc = edgeHda();
    Workload wl = workload::arvrA60fps(2);
    SchedulerOptions opts;
    opts.policy = sched::Policy::Edf;
    HeraldScheduler scheduler(model, opts);
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, opts.metric, opts.rdaOverheads, 1);
    EXPECT_EQ(table.numSubAccs(), acc.numSubAccs());
    EXPECT_GT(table.numUniqueLayers(), 0u);
    Schedule internal = scheduler.schedule(wl, acc);
    Schedule reused = scheduler.schedule(wl, acc, table);
    Schedule reused_again = scheduler.schedule(wl, acc, table);
    EXPECT_TRUE(internal.identicalTo(reused));
    EXPECT_TRUE(internal.identicalTo(reused_again));
}

TEST_F(SchedEquivalenceTest, TableOrderMatchesMetricSort)
{
    Accelerator acc = threeWayHda();
    Workload wl = miniMixed();
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, sched::Metric::Edp, accel::RdaOverheads{},
        1);
    for (std::size_t row = 0; row < table.numUniqueLayers(); ++row) {
        const std::size_t *order = table.order(row);
        for (std::size_t k = 1; k < table.numSubAccs(); ++k) {
            EXPECT_LE(table.metric(row, order[k - 1]),
                      table.metric(row, order[k]))
                << "row " << row;
        }
    }
}

} // namespace
