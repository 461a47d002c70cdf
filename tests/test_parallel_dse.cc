/**
 * @file
 * Parallel DSE engine tests: (i) Herald::explore must return
 * bit-identical results (point ordering, summaries, bestIdx) for any
 * thread count, and (ii) the event-timeline MemoryTracker must agree
 * with a brute-force occupancy reference on randomized workloads,
 * through in-block and cross-block moves and retirement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dnn/model_zoo.hh"
#include "dse/herald_dse.hh"
#include "sched/memory_tracker.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using dataflow::DataflowStyle;

// ---------------------------------------------------------------
// Parallel == serial
// ---------------------------------------------------------------

class ParallelDseTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    workload::Workload
    miniWorkload()
    {
        workload::Workload wl("mini");
        wl.addModel(dnn::brqHandposeNet(), 2);
        wl.addModel(dnn::mobileNetV2(), 1);
        return wl;
    }

    dse::DseResult
    exploreWithThreads(std::size_t threads,
                       dse::SearchStrategy strategy =
                           dse::SearchStrategy::Exhaustive)
    {
        // Fresh cost model per run: the cache must not leak state
        // between the serial and parallel sweeps being compared.
        cost::CostModel model;
        dse::HeraldOptions opts;
        opts.partition.peGranularity = 128;
        opts.partition.bwGranularity = 2.0;
        opts.partition.strategy = strategy;
        opts.numThreads = threads;
        dse::Herald herald(model, opts);
        workload::Workload wl = miniWorkload();
        return herald.explore(
            wl, accel::edgeClass(),
            {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    }

    static void
    expectIdentical(const dse::DseResult &a, const dse::DseResult &b)
    {
        EXPECT_EQ(a.bestIdx, b.bestIdx);
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t i = 0; i < a.points.size(); ++i) {
            const sched::ScheduleSummary &sa = a.points[i].summary;
            const sched::ScheduleSummary &sb = b.points[i].summary;
            // Bit-identical, not just close: the parallel sweep must
            // run the exact same computation per candidate.
            EXPECT_EQ(sa.makespanCycles, sb.makespanCycles) << i;
            EXPECT_EQ(sa.latencySec, sb.latencySec) << i;
            EXPECT_EQ(sa.energyMj, sb.energyMj) << i;
            EXPECT_EQ(a.points[i].accelerator.name(),
                      b.points[i].accelerator.name())
                << i;
        }
    }
};

TEST_F(ParallelDseTest, OneAndFourThreadsProduceIdenticalResults)
{
    dse::DseResult serial = exploreWithThreads(1);
    dse::DseResult parallel = exploreWithThreads(4);
    expectIdentical(serial, parallel);
}

TEST_F(ParallelDseTest, ManyThreadsOversubscribedStillIdentical)
{
    // More workers than candidates exercises the empty-queue path.
    dse::DseResult serial = exploreWithThreads(1);
    dse::DseResult parallel = exploreWithThreads(13);
    expectIdentical(serial, parallel);
}

TEST_F(ParallelDseTest, BinaryRefinementRoundIsIdenticalToo)
{
    dse::DseResult serial =
        exploreWithThreads(1, dse::SearchStrategy::Binary);
    dse::DseResult parallel =
        exploreWithThreads(4, dse::SearchStrategy::Binary);
    expectIdentical(serial, parallel);
}

// ---------------------------------------------------------------
// MemoryTracker vs brute-force reference
// ---------------------------------------------------------------

/** The pre-timeline O(n^2) tracker, kept verbatim as the oracle. */
class BruteTracker
{
  public:
    explicit BruteTracker(std::uint64_t capacity_bytes)
        : capacity(static_cast<double>(capacity_bytes))
    {
    }

    struct Interval
    {
        double start;
        double end;
        double bytes;
    };

    static constexpr double kEps = 1e-6;

    bool
    feasible(double start, double dur, double bytes,
             std::size_t exclude = SIZE_MAX) const
    {
        const double end = start + dur;
        double peak = occupancyAt(start, exclude);
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            if (i == exclude)
                continue;
            const Interval &iv = intervals[i];
            if (iv.start > start && iv.start < end)
                peak = std::max(peak,
                                occupancyAt(iv.start, exclude));
        }
        return peak + bytes <= capacity + kEps;
    }

    double
    firstFeasible(double start, double dur, double bytes) const
    {
        if (bytes > capacity) {
            double latest = start;
            for (const Interval &iv : intervals)
                latest = std::max(latest, iv.end);
            return latest;
        }
        double t = start;
        for (int guard = 0; guard < 1 << 16; ++guard) {
            if (feasible(t, dur, bytes))
                return t;
            double next = std::numeric_limits<double>::infinity();
            for (const Interval &iv : intervals) {
                if (iv.end > t + kEps)
                    next = std::min(next, iv.end);
            }
            if (!std::isfinite(next))
                return t;
            t = next;
        }
        ADD_FAILURE() << "brute tracker failed to converge";
        return t;
    }

    std::size_t
    add(double start, double dur, double bytes)
    {
        intervals.push_back(Interval{start, start + dur, bytes});
        return intervals.size() - 1;
    }

    void
    move(std::size_t idx, double new_start)
    {
        Interval &iv = intervals.at(idx);
        double dur = iv.end - iv.start;
        iv.start = new_start;
        iv.end = new_start + dur;
    }

    const Interval &interval(std::size_t idx) const
    {
        return intervals.at(idx);
    }

    double
    occupancyAt(double t, std::size_t exclude = SIZE_MAX) const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            if (i == exclude)
                continue;
            const Interval &iv = intervals[i];
            if (iv.start <= t + kEps && iv.end > t + kEps)
                total += iv.bytes;
        }
        return total;
    }

  private:
    double capacity;
    std::vector<Interval> intervals;
};

TEST(MemoryTrackerTest, MatchesBruteForceOnRandomizedIntervals)
{
    // Integer-valued times and byte counts keep every occupancy sum
    // exact in double arithmetic, so both implementations must agree
    // bit-for-bit on every query.
    const std::uint64_t capacity = 1000;
    util::SplitMix64 rng(42);

    sched::MemoryTracker tracker(capacity);
    BruteTracker brute(capacity);

    // Enough steps to drive the blocked timeline through several
    // block splits (and empty-block erases via move()).
    for (int step = 0; step < 2000; ++step) {
        double start = static_cast<double>(rng.nextBounded(200));
        double dur =
            static_cast<double>(1 + rng.nextBounded(40));
        double bytes =
            static_cast<double>(1 + rng.nextBounded(500));

        std::uint64_t action = rng.nextBounded(10);
        if (action < 5) {
            std::size_t a = tracker.add(start, dur, bytes);
            std::size_t b = brute.add(start, dur, bytes);
            ASSERT_EQ(a, b);
        } else if (action < 7 && tracker.numIntervals() > 0) {
            std::size_t idx =
                rng.nextBounded(tracker.numIntervals());
            tracker.move(idx, start);
            brute.move(idx, start);
        } else if (action < 9) {
            std::size_t exclude =
                tracker.numIntervals() > 0 && rng.nextBounded(2) == 0
                    ? rng.nextBounded(tracker.numIntervals())
                    : SIZE_MAX;
            EXPECT_EQ(tracker.feasible(start, dur, bytes, exclude),
                      brute.feasible(start, dur, bytes, exclude))
                << "step " << step;
        } else {
            EXPECT_EQ(tracker.firstFeasible(start, dur, bytes),
                      brute.firstFeasible(start, dur, bytes))
                << "step " << step;
        }

        // Occupancy probes at random points every step.
        for (int probe = 0; probe < 3; ++probe) {
            double t = static_cast<double>(rng.nextBounded(260));
            EXPECT_EQ(tracker.occupancy(t), brute.occupancyAt(t))
                << "step " << step << " t " << t;
        }
    }
}

TEST(MemoryTrackerTest, BlockedMovesAndRetirementMatchBruteForce)
{
    // 700 intervals are 1400 events and a block holds at most 512,
    // so the timeline spans at least three blocks. Small retimes
    // shift an event inside its block, large ones relocate it across
    // block boundaries, and retimes onto another interval's start or
    // end land on equal-time events; zero-length intervals put a
    // start and an end event of one interval at the same time.
    // Retirement then drops a prefix and add() reuses the freed
    // slots, so tracker slots are mapped to brute-force indices.
    const std::uint64_t capacity = 1500;
    const double horizon = 2000.0;
    util::SplitMix64 rng(2024);
    sched::MemoryTracker tracker(capacity);
    BruteTracker brute(capacity);
    std::vector<std::size_t> to_brute; // tracker slot -> brute index
    std::vector<std::size_t> live;     // live tracker slots
    double floor = 0.0;

    auto uniform = [&](double lo, double hi) {
        return lo + static_cast<double>(rng.nextBounded(
                        static_cast<std::uint64_t>(hi - lo)));
    };
    auto add = [&] {
        const double start = uniform(floor, horizon);
        const double dur = uniform(0.0, 31.0);
        const double bytes = uniform(1.0, 400.0);
        const std::size_t slot = tracker.add(start, dur, bytes);
        if (slot >= to_brute.size())
            to_brute.resize(slot + 1);
        to_brute[slot] = brute.add(start, dur, bytes);
        live.push_back(slot);
    };
    auto check = [&](int step, double moved_start) {
        const double at[] = {uniform(floor, horizon + 60.0),
                             moved_start, moved_start + 1.0};
        for (double t : at) {
            ASSERT_EQ(tracker.occupancy(t), brute.occupancyAt(t))
                << "step " << step << " t " << t;
        }
        const double t = at[rng.nextBounded(3)];
        const double dur = uniform(1.0, 61.0);
        const double bytes = uniform(1.0, 1501.0);
        const std::size_t ex = live[rng.nextBounded(live.size())];
        ASSERT_EQ(tracker.feasible(t, dur, bytes, ex),
                  brute.feasible(t, dur, bytes, to_brute[ex]))
            << "step " << step;
        ASSERT_EQ(tracker.feasible(t, dur, bytes),
                  brute.feasible(t, dur, bytes))
            << "step " << step;
        if (step % 8 == 0) {
            ASSERT_EQ(tracker.firstFeasible(t, dur, bytes),
                      brute.firstFeasible(t, dur, bytes))
                << "step " << step;
        }
    };
    auto moves = [&](int steps) {
        for (int step = 0; step < steps; ++step) {
            const std::size_t slot = live[rng.nextBounded(live.size())];
            const double start = brute.interval(to_brute[slot]).start;
            double target = 0.0;
            switch (rng.nextBounded(3)) {
            case 0: // a few cycles: stays inside its block
                target = start + uniform(-3.0, 4.0);
                break;
            case 1: // anywhere: crosses block boundaries
                target = uniform(floor, horizon);
                break;
            default: { // onto another interval's start or end event
                const BruteTracker::Interval &other = brute.interval(
                    to_brute[live[rng.nextBounded(live.size())]]);
                target = rng.nextBounded(2) ? other.start : other.end;
            }
            }
            target = std::max(target, floor);
            tracker.move(slot, target);
            brute.move(to_brute[slot], target);
            check(step, target);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    };
    auto retire = [&](double new_floor) {
        floor = new_floor;
        std::vector<std::size_t> kept;
        for (std::size_t slot : live) {
            if (brute.interval(to_brute[slot]).end > floor)
                kept.push_back(slot);
        }
        EXPECT_EQ(tracker.retireBefore(floor), live.size() - kept.size());
        EXPECT_EQ(tracker.liveIntervals(), kept.size());
        live = kept;
    };

    for (int i = 0; i < 700; ++i)
        add();
    ASSERT_NO_FATAL_FAILURE(moves(1200));
    retire(700.0);
    for (int i = 0; i < 250; ++i)
        add();
    ASSERT_NO_FATAL_FAILURE(moves(600));
    retire(1400.0);
    for (int i = 0; i < 250; ++i)
        add();
    ASSERT_NO_FATAL_FAILURE(moves(600));
}

TEST(MemoryTrackerTest, SuffixFenwickRebuildsMatchBruteForce)
{
    // A split, an erased empty block and retirement each rebuild only
    // the Fenwick nodes at or after the block they touch. 2400
    // intervals are 4800 events and a block holds at most 512, so the
    // timeline spans at least ten blocks and the Fenwick tree has a
    // node that sums eight blocks. The phases drive each rebuild
    // through a part of the timeline: monotone appends (every split
    // is a last-block split), a burst inside the timeline (interior
    // splits), moves that empty whole interior blocks, and
    // retirement of a prefix followed by slot reuse. Every query
    // must match the brute-force oracle bit for bit.
    const std::uint64_t capacity = 4000;
    util::SplitMix64 rng(8);
    sched::MemoryTracker tracker(capacity);
    BruteTracker brute(capacity);
    std::vector<std::size_t> to_brute; // tracker slot -> brute index
    std::vector<std::size_t> live;     // live tracker slots
    double floor = 0.0;
    double horizon = 0.0;

    auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
        return static_cast<double>(lo + rng.nextBounded(hi - lo));
    };
    auto add = [&](double start) {
        const double dur = draw(1, 21);
        const double bytes = draw(1, 300);
        const std::size_t slot = tracker.add(start, dur, bytes);
        if (slot >= to_brute.size())
            to_brute.resize(slot + 1);
        to_brute[slot] = brute.add(start, dur, bytes);
        live.push_back(slot);
        horizon = std::max(horizon, start + dur);
    };
    auto check = [&](const char *phase, int probes) {
        const auto hi = static_cast<std::uint64_t>(horizon) + 40;
        const auto lo = static_cast<std::uint64_t>(floor);
        for (int i = 0; i < probes; ++i) {
            const double t = draw(lo, hi);
            ASSERT_EQ(tracker.occupancy(t), brute.occupancyAt(t))
                << phase << " t " << t;
            const double dur = draw(1, 41);
            const double bytes = draw(1, 4001);
            const std::size_t ex = live[rng.nextBounded(live.size())];
            ASSERT_EQ(tracker.feasible(t, dur, bytes, ex),
                      brute.feasible(t, dur, bytes, to_brute[ex]))
                << phase << " t " << t;
            ASSERT_EQ(tracker.feasible(t, dur, bytes),
                      brute.feasible(t, dur, bytes))
                << phase << " t " << t;
            if (i % 4 == 0) {
                ASSERT_EQ(tracker.firstFeasible(t, dur, bytes),
                          brute.firstFeasible(t, dur, bytes))
                    << phase << " t " << t;
            }
        }
    };

    // Monotone appends: starts one cycle apart.
    for (int i = 0; i < 2400; ++i) {
        add(static_cast<double>(i));
        if (i % 300 == 299) {
            ASSERT_NO_FATAL_FAILURE(check("append", 20));
        }
    }
    // Interior splits: 700 intervals inside [800, 900).
    for (int i = 0; i < 700; ++i) {
        add(draw(800, 900));
        if (i % 100 == 99) {
            ASSERT_NO_FATAL_FAILURE(check("interior", 20));
        }
    }
    // Empty interior blocks: every interval of [1500, 2000) moves
    // past the horizon, 1000 intervals or 2000 events.
    const double past = horizon + 100.0;
    for (std::size_t slot : live) {
        const double start = brute.interval(to_brute[slot]).start;
        if (start >= 1500.0 && start < 2000.0) {
            tracker.move(slot, past + (start - 1500.0));
            brute.move(to_brute[slot], past + (start - 1500.0));
        }
    }
    horizon = past + 540.0;
    ASSERT_NO_FATAL_FAILURE(check("emptied", 200));
    // Retire a prefix that ends inside the timeline, then reuse the
    // freed slots with appends and interior adds.
    floor = 1200.0;
    std::vector<std::size_t> kept;
    for (std::size_t slot : live) {
        if (brute.interval(to_brute[slot]).end > floor)
            kept.push_back(slot);
    }
    EXPECT_EQ(tracker.retireBefore(floor), live.size() - kept.size());
    EXPECT_EQ(tracker.liveIntervals(), kept.size());
    live = kept;
    ASSERT_NO_FATAL_FAILURE(check("retired", 100));
    for (int i = 0; i < 600; ++i)
        add(i % 2 == 0 ? horizon : draw(1200, 2600));
    ASSERT_NO_FATAL_FAILURE(check("reused", 200));
}

TEST(MemoryTrackerTest, OverCapacityRequestSerializesBehindAll)
{
    sched::MemoryTracker tracker(100);
    tracker.add(0.0, 10.0, 50.0);
    tracker.add(5.0, 20.0, 30.0);
    // Larger than capacity: first feasible point is after the last
    // release, matching the reference semantics.
    EXPECT_EQ(tracker.firstFeasible(0.0, 5.0, 200.0), 25.0);
}

TEST(MemoryTrackerTest, FeasibilityRespectsExcludedInterval)
{
    sched::MemoryTracker tracker(100);
    std::size_t idx = tracker.add(0.0, 10.0, 80.0);
    EXPECT_FALSE(tracker.feasible(0.0, 10.0, 50.0));
    // Excluding the resident interval frees its bytes.
    EXPECT_TRUE(tracker.feasible(0.0, 10.0, 50.0, idx));
}

TEST(MemoryTrackerTest, MoveRetimesOccupancy)
{
    sched::MemoryTracker tracker(100);
    std::size_t idx = tracker.add(0.0, 10.0, 60.0);
    EXPECT_EQ(tracker.occupancy(5.0), 60.0);
    tracker.move(idx, 100.0);
    EXPECT_EQ(tracker.occupancy(5.0), 0.0);
    EXPECT_EQ(tracker.occupancy(105.0), 60.0);
}

} // namespace
