/**
 * @file
 * Million-frame serving soak: drive the online scheduler with lazy
 * periodic streams far past anything the offline path could
 * materialize, and assert the serving-engine contract on the way out:
 *
 *  - bounded memory: max RSS (getrusage) must not grow past a slack
 *    budget after the warmup high-water mark — a leak or an unbounded
 *    window turns directly into RSS growth at million-frame scale;
 *  - live-state gauges (window frames, ready set, un-retired entries
 *    and memory intervals) stay bounded throughout;
 *  - accounting integrity: admitted == completed + dropped, no
 *    frames left live after drain.
 *
 * Emits machine-readable JSON (default BENCH_soak.json) with serving
 * throughput (layers/sec), p50/p99/p99.9 frame latency, and the SLA
 * counters, so successive PRs can track serving capacity. The
 * throughput is the fastest of as many identical streams as it takes
 * to time at least 1 s of serving (one for the full run, about forty
 * for --small); memory, counters and gauges come from the first.
 *
 * Usage:
 *   bench_soak [--small] [--out FILE] [--rss-slack-mb MB]
 *              [--check-against BASELINE.json] [--tolerance PCT]
 *              [--check-only]
 *
 * --small runs a ~60k-frame smoke variant for CI; the default run
 * submits >= 1.2 million frames. --check-against enables the
 * regression gate: serving throughput must stay within the tolerance
 * of the committed baseline and the deterministic SLA counters
 * (misses, drops, rejections) must not rise. The RSS-flatness
 * assertion is always on and exits non-zero on violation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "accel/accelerator.hh"
#include "bench_baseline.hh"
#include "dnn/model.hh"
#include "sched/arrival_source.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"

namespace
{

using namespace herald;
using Clock = std::chrono::steady_clock;

/** Serving time the throughput figure must rest on, in total. */
constexpr double kMinTimedSeconds = 1.0;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Peak (high-water) resident set size in MB. */
double
maxRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        util::fatal("bench_soak: getrusage failed");
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
#endif
}

/** JSON has no inf: unbounded latencies serialize as -1. */
double
jsonSafeMs(double cycles)
{
    return std::isfinite(cycles) ? cycles / 1e6 : -1.0;
}

/** Small FC pipelines keep per-layer cost evaluation out of the
 *  picture — the soak measures the scheduler, not the cost model. */
dnn::Model
tinyNet(const char *name, int width)
{
    dnn::Model m(name);
    m.addLayer(dnn::makeFullyConnected("f1", width, width));
    m.addLayer(dnn::makeFullyConnected("f2", width / 2, width));
    return m;
}

int
checkAgainstBaseline(const std::string &current_path,
                     const std::string &baseline_path,
                     double tolerance)
{
    benchgate::FlatJson cur = benchgate::parseJsonFile(current_path);
    benchgate::FlatJson base =
        benchgate::parseJsonFile(baseline_path);
    benchgate::BaselineChecker chk(cur, base, tolerance);
    chk.checkThroughput("layers_per_sec");
    chk.checkThroughput("sla.completed");
    chk.checkCountNotAbove("sla.misses", "sla.misses");
    chk.checkCountNotAbove("sla.drops", "sla.drops");
    chk.checkCountNotAbove("sla.rejected", "sla.rejected");
    return chk.verdict("bench_soak") ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    util::setVerbose(false);

    std::string out_path = "BENCH_soak.json";
    std::string baseline_path;
    double tolerance = 25.0;
    double rss_slack_mb = 64.0;
    bool check_only = false;
    bool small = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--check-against") == 0 &&
                   i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--tolerance") == 0 &&
                   i + 1 < argc) {
            tolerance = benchgate::parseToleranceArg(argv[++i]);
        } else if (std::strcmp(argv[i], "--rss-slack-mb") == 0 &&
                   i + 1 < argc) {
            rss_slack_mb = benchgate::parseToleranceArg(argv[++i]);
        } else if (std::strcmp(argv[i], "--check-only") == 0) {
            check_only = true;
        } else if (std::strcmp(argv[i], "--small") == 0) {
            small = true;
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--small] [--out FILE] "
                "[--rss-slack-mb MB] [--check-against BASELINE] "
                "[--tolerance PCT] [--check-only]\n",
                argv[0]);
            return 1;
        }
    }
    if (check_only) {
        if (baseline_path.empty()) {
            std::fprintf(stderr,
                         "--check-only requires --check-against\n");
            return 1;
        }
        return checkAgainstBaseline(out_path, baseline_path,
                                    tolerance);
    }

    // Two-way HDA; periods are comfortably sustainable so the stream
    // runs in steady state and the window stays small.
    accel::AcceleratorClass chip = accel::edgeClass();
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    const std::uint64_t frames_a = small ? 33000 : 650000;
    const std::uint64_t frames_b = small ? 28000 : 550000;
    sched::ArrivalSource src;
    src.addStream(tinyNet("SoakA", 256), 9.7e4, 3.9e5, 0.0,
                  frames_a);
    src.addStream(tinyNet("SoakB", 192), 1.13e5, 4.5e5, 1.3e4,
                  frames_b);
    const std::uint64_t total_frames = frames_a + frames_b;

    sched::OnlineOptions oopts;
    oopts.sched.policy = sched::Policy::Lst;
    oopts.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    oopts.sched.preemption = sched::Preemption::AtLayerBoundary;
    oopts.maxLiveFrames = 4096;
    oopts.horizonCycles = 1e8;
    cost::CostModel model;
    sched::OnlineScheduler eng(model, src.models(), acc, oopts);

    std::printf("=== Online serving soak on %s (%s, %" PRIu64
                " frames) ===\n",
                acc.name().c_str(), small ? "small" : "full",
                total_frames);

    // The RSS flatness budget is judged from a warmup high-water
    // mark: the first 10% of the stream populates the window, the
    // allocator pools, and the cost table; past it, a serving engine
    // with O(in-flight) state must hold the line.
    const std::uint64_t warmup_frames = total_frames / 10;
    const std::uint64_t gauge_period = 4096;
    double rss_warmup_mb = 0.0;
    std::uint64_t max_window = 0;
    std::uint64_t max_ready = 0;
    std::uint64_t max_entries = 0;
    std::uint64_t max_intervals = 0;
    std::uint64_t submitted = 0;

    const Clock::time_point start = Clock::now();
    while (!src.exhausted()) {
        const sched::ArrivalSource::Frame f = src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        ++submitted;
        if (submitted == warmup_frames)
            rss_warmup_mb = maxRssMb();
        if (submitted % gauge_period == 0) {
            const sched::OnlineStats g = eng.stats();
            max_window = std::max(max_window, g.windowFrames);
            max_ready = std::max(max_ready, g.readyFrames);
            max_entries = std::max(max_entries, g.liveEntries);
            max_intervals = std::max(max_intervals, g.liveIntervals);
        }
    }
    eng.drain();
    double seconds = secondsSince(start);
    const double rss_final_mb = maxRssMb();
    const double rss_growth_mb = rss_final_mb - rss_warmup_mb;
    const sched::OnlineStats st = eng.stats();

    // The small stream serves in a few tens of milliseconds, too short
    // for a throughput gate to rise above timer and scheduler noise.
    // Replay the identical stream on fresh engines until the timed
    // work reaches kMinTimedSeconds and keep the fastest pass: other
    // tenants of a shared host only ever slow a pass down.
    std::uint64_t repeats = 1;
    for (double timed = seconds; timed < kMinTimedSeconds; ++repeats) {
        src.reset();
        sched::OnlineScheduler again(model, src.models(), acc, oopts);
        const Clock::time_point t0 = Clock::now();
        while (!src.exhausted()) {
            const sched::ArrivalSource::Frame f = src.next();
            again.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        }
        again.drain();
        const double pass = secondsSince(t0);
        if (again.stats().committedLayers != st.committedLayers)
            util::panic("bench_soak: a replayed stream committed ",
                        again.stats().committedLayers, " layers, not ",
                        st.committedLayers);
        seconds = std::min(seconds, pass);
        timed += pass;
    }
    const double layers_per_sec =
        static_cast<double>(st.committedLayers) / seconds;

    std::printf("%" PRIu64 " frames (%" PRIu64 " layers) in %.4f s "
                "(fastest of %" PRIu64 ") — %.0f layers/sec\n",
                st.submittedFrames, st.committedLayers, seconds,
                repeats, layers_per_sec);
    std::printf("completed %" PRIu64 ", dropped %" PRIu64
                ", rejected %" PRIu64 ", misses %" PRIu64
                " (rate %.4f)\n",
                st.completedFrames, st.droppedFrames,
                st.rejectedFrames, st.deadlineMisses, st.missRate);
    std::printf("latency p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms\n",
                jsonSafeMs(st.p50LatencyCycles),
                jsonSafeMs(st.p99LatencyCycles),
                jsonSafeMs(st.p999LatencyCycles));
    std::printf("window <= %" PRIu64 " frames, ready <= %" PRIu64
                ", live entries <= %" PRIu64 ", retired %" PRIu64
                "\n",
                max_window, max_ready, max_entries,
                st.retiredEntries);
    std::printf("max RSS: warmup %.1f MB, final %.1f MB "
                "(growth %.1f MB, slack %.1f MB)\n",
                rss_warmup_mb, rss_final_mb, rss_growth_mb,
                rss_slack_mb);

    std::FILE *json = std::fopen(out_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(
        json,
        "{\n"
        "  \"mode\": \"%s\",\n"
        "  \"frames_submitted\": %" PRIu64 ",\n"
        "  \"layers_committed\": %" PRIu64 ",\n"
        "  \"elapsed_seconds\": %.4f,\n"
        "  \"repeats\": %" PRIu64 ",\n"
        "  \"layers_per_sec\": %.1f,\n"
        "  \"p50_latency_ms\": %.4f,\n"
        "  \"p99_latency_ms\": %.4f,\n"
        "  \"p999_latency_ms\": %.4f,\n"
        "  \"sla\": {\"completed\": %" PRIu64 ", \"misses\": %" PRIu64
        ", \"drops\": %" PRIu64 ", \"rejected\": %" PRIu64 "},\n"
        "  \"rss\": {\"warmup_mb\": %.1f, \"final_mb\": %.1f, "
        "\"growth_mb\": %.1f},\n"
        "  \"gauges\": {\"max_window_frames\": %" PRIu64
        ", \"max_ready_frames\": %" PRIu64
        ", \"max_live_entries\": %" PRIu64
        ", \"max_live_intervals\": %" PRIu64
        ", \"retired_entries\": %" PRIu64 "}\n"
        "}\n",
        small ? "small" : "full", st.submittedFrames,
        st.committedLayers, seconds, repeats, layers_per_sec,
        jsonSafeMs(st.p50LatencyCycles),
        jsonSafeMs(st.p99LatencyCycles),
        jsonSafeMs(st.p999LatencyCycles), st.completedFrames,
        st.deadlineMisses, st.droppedFrames, st.rejectedFrames,
        rss_warmup_mb, rss_final_mb, rss_growth_mb, max_window,
        max_ready, max_entries, max_intervals, st.retiredEntries);
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());

    // --- Hard serving-contract assertions (always on) ---
    int rc = 0;
    if (st.liveFrames != 0) {
        std::fprintf(stderr,
                     "bench_soak: FAIL %" PRIu64
                     " frames still live after drain\n",
                     st.liveFrames);
        rc = 1;
    }
    if (st.admittedFrames !=
        st.completedFrames + st.droppedFrames) {
        std::fprintf(stderr,
                     "bench_soak: FAIL SLA counters do not add up "
                     "(admitted %" PRIu64 " != completed %" PRIu64
                     " + dropped %" PRIu64 ")\n",
                     st.admittedFrames, st.completedFrames,
                     st.droppedFrames);
        rc = 1;
    }
    if (st.submittedFrames != total_frames) {
        std::fprintf(stderr,
                     "bench_soak: FAIL submitted %" PRIu64
                     " of %" PRIu64 " frames\n",
                     st.submittedFrames, total_frames);
        rc = 1;
    }
    if (rss_growth_mb > rss_slack_mb) {
        std::fprintf(stderr,
                     "bench_soak: FAIL max RSS grew %.1f MB past the "
                     "warmup mark (slack %.1f MB) — live state is "
                     "not bounded\n",
                     rss_growth_mb, rss_slack_mb);
        rc = 1;
    }
    if (rc != 0)
        return rc;

    if (!baseline_path.empty())
        return checkAgainstBaseline(out_path, baseline_path,
                                    tolerance);
    return 0;
}
