/**
 * @file
 * The Herald benchmark: one single-threaded process per run, driven
 * only through libherald's public API.
 *
 * Four parts, one per user of the system:
 *
 *   dse_exhaustive    Herald::explore over AR/VR-A on the edge chip,
 *                     3-way NVDLA / Shi-diannao / Eyeriss HDA, full
 *                     2205-candidate grid (architect, design time);
 *   dse_anneal_panel  the same space under SearchStrategy::Annealing
 *                     over a 32-seed panel, scored against the
 *                     exhaustive optimum;
 *   offline_backlog   HeraldScheduler::schedule on a 445,536-layer
 *                     AR/VR-A@60fps backlog, EDF, no post-processing
 *                     (compiler on a fixed HDA);
 *   online_knee       OnlineScheduler fed by an ArrivalSource, 105k
 *                     frames just under the knee (runtime serving).
 *
 * Every run reports every end-to-end metric, so every run measures
 * all four parts. --workload names the run's home part: the set-up
 * the run times (setup_s) and the part whose memory high-water mark
 * it reports (peak_rss_mb, read after the home part's first pass).
 * The run is a series of rounds, at least two and until --seconds
 * have passed: each round takes set-up samples, then runs the home
 * part and every other part (one explore, eight panel seeds, two
 * offline schedules, one stream), so each part's samples spread
 * over the whole run. A host throughput is the part's fastest pass
 * (panel: each seed's fastest run) scaled to a reference host speed
 * (HostSpeed); setup_s is the median set-up.
 *
 * Host metrics are wall-clock measurements of this process; simulated
 * metrics are what the modelled HDA would do, and are deterministic
 * for a given seed. --trace 1 instead runs every part once untraced
 * and once traced (spans around each call into the library), reports
 * per-layer metrics and the tracing overhead, and writes the spans as
 * Chrome trace-event JSON to --trace-out.
 *
 * The last stdout line is one JSON object {correct, attempted,
 * failed, metrics}. A failed output check is a failed operation and
 * makes the process exit 1.
 *
 * Usage:
 *   herald_bench --workload NAME [--seed N] [--seconds S]
 *                [--trace 0|1] [--trace-out FILE] [--size full|tiny]
 *                [--inject-fault none|identity|accounting]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "cost/cost_model.hh"
#include "dnn/model_zoo.hh"
#include "dse/design_space.hh"
#include "dse/herald_dse.hh"
#include "sched/arrival_source.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "trace.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::secondsSince;
using perfbench::Tracer;

enum class Part
{
    DseExhaustive,
    AnnealPanel,
    OfflineBacklog,
    OnlineKnee,
};

const std::pair<const char *, Part> kPartNames[] = {
    {"dse_exhaustive", Part::DseExhaustive},
    {"dse_anneal_panel", Part::AnnealPanel},
    {"offline_backlog", Part::OfflineBacklog},
    {"online_knee", Part::OnlineKnee},
};

/** Deliberate check breakage, for the benchmark's self-test. */
enum class Fault
{
    None,
    Identity,   //!< every bit-identity comparison reports a mismatch
    Accounting, //!< the online accounting identity is off by one
};

Fault gFault = Fault::None;

/** Input sizes: the benchmark proper, or the tiny self-test. */
struct Sizes
{
    std::uint64_t dsePeDiv;     //!< PE quantum = numPes / dsePeDiv
    double dseBwDiv;            //!< BW quantum = bwGBps / dseBwDiv
    std::size_t panelSeeds;     //!< annealing seeds per panel
    std::size_t annealChains;
    std::size_t annealIterations;
    std::size_t annealBudget;   //!< distinct evaluations per seed
    int backlogFrames60;        //!< MobileNetV2 frames of the backlog
    std::uint64_t kneeFrames60; //!< MobileNetV2 frames of the stream
    std::uint64_t kneeSlaFrames60; //!< ... of the retained SLA prefix
    double setupSeconds;        //!< cheap set-ups: burst per round
    std::size_t panelStep;      //!< panel seeds per round
    std::size_t backlogPasses;  //!< offline passes per round
    std::size_t minRounds;      //!< rounds, whatever --seconds
};

const Sizes kFull{8, 16.0, 32, 8, 64, 80, 5712, 60000, 6000, 0.05, 8, 2, 2};
const Sizes kTiny{4, 4.0, 4, 2, 4, 4, 48, 600, 60, 0.01, 2, 1, 2};

/**
 * Stream rate of online_knee, as a fraction of 60/30/15 FPS: just
 * under the knee. From 0.355 up, some phase draws drop every UNet
 * frame (DoomedFrames); at 0.35 no seed tried drops more than one.
 */
constexpr double kKneeRate = 0.35;

const std::vector<dataflow::DataflowStyle> kDseStyles = {
    dataflow::DataflowStyle::NVDLA,
    dataflow::DataflowStyle::ShiDiannao,
    dataflow::DataflowStyle::Eyeriss,
};

const std::vector<dataflow::DataflowStyle> kStreamStyles = {
    dataflow::DataflowStyle::NVDLA,
    dataflow::DataflowStyle::ShiDiannao,
};

// ---------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------

/** Median (mean of the middle two for even sizes). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/**
 * The highest of a part's per-pass rates. Other tenants of a shared
 * host only ever slow a pass down, so the fastest pass estimates the
 * program's own speed far more steadily than the median pass does.
 */
double
fastest(const std::vector<double> &rates)
{
    if (rates.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return *std::max_element(rates.begin(), rates.end());
}

/** SplitMix64 step, local so that the reference work is std-only. */
std::uint64_t
mix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

volatile double gReferenceSink = 0.0;

/**
 * Wall seconds of a fixed piece of reference work: sort 2^19 doubles,
 * then 100k updates of a std::map over 200k keys. It uses only the
 * standard library, so no change to libherald moves it; only the
 * host's speed does.
 */
double
referenceSeconds()
{
    static const std::vector<double> keys = [] {
        std::vector<double> v(std::size_t{1} << 19);
        std::uint64_t state = 5;
        for (double &k : v)
            k = static_cast<double>(mix64(state) >> 11) * 0x1p-53;
        return v;
    }();
    Clock::time_point start = Clock::now();
    std::vector<double> v = keys;
    std::sort(v.begin(), v.end());
    std::map<std::uint64_t, double> m;
    std::uint64_t state = 11;
    for (std::size_t i = 0; i < 100000; ++i)
        m[mix64(state) % 200000] += v[i];
    double acc = 0.0;
    for (const auto &kv : m)
        acc += kv.second;
    gReferenceSink = acc;
    return secondsSince(start);
}

/** The reference work's fastest time on the VM of README.md's sizes. */
constexpr double kReferenceSeconds = 0.09;

/**
 * The host's speed during a run, from reference work timed before
 * every pass. The host's speed drifts by up to 1.5x over minutes, and
 * a slow spell can outlast a run; it slows the reference work and the
 * parts alike. A host rate is therefore reported as the part's
 * fastest rate times scale(): the rate it would show on a host where
 * the reference work's fastest time is kReferenceSeconds.
 */
struct HostSpeed
{
    std::vector<double> seconds; //!< reference work, per sample

    void sample() { seconds.push_back(referenceSeconds()); }

    double
    scale() const
    {
        return *std::min_element(seconds.begin(), seconds.end()) /
               kReferenceSeconds;
    }
};

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Peak (high-water) resident set size of this process, in MB. */
double
maxRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

/** An independent SplitMix64 stream per input kind. */
util::SplitMix64
streamFor(std::uint64_t seed, std::uint64_t tag)
{
    util::SplitMix64 mix(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
    return util::SplitMix64(mix.next());
}

constexpr std::uint64_t kPanelTag = 1;
constexpr std::uint64_t kBacklogTag = 2;
constexpr std::uint64_t kKneeTag = 3;

/** FNV-1a over the exact bits of a run's simulated outputs. */
class Fingerprint
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ULL;
        }
    }
    void
    add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 1469598103934665603ULL;
};

/** Operations attempted and failed (a failed output check). */
class Ledger
{
  public:
    /** One checked operation; @p ok is the verdict of its checks. */
    void
    record(bool ok, const std::string &what)
    {
        ++attemptedOps;
        if (!ok) {
            ++failedOps;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    /** Bit-identity check between two fingerprints. */
    void
    identical(std::uint64_t a, std::uint64_t b, const std::string &what)
    {
        if (gFault == Fault::Identity)
            b ^= 1;
        record(a == b, what + " is bit-identical");
    }

    std::uint64_t attempted() const { return attemptedOps; }
    std::uint64_t failed() const { return failedOps; }

  private:
    std::uint64_t attemptedOps = 0;
    std::uint64_t failedOps = 0;
};

/** Metrics in emission order, each with its unit and kind. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const char *kind)
    {
        list.push_back(Entry{name, value, unit, kind});
    }

    /** A metric that is not a finite number is a failed check. */
    void
    requireFinite(Ledger &ledger) const
    {
        for (const Entry &e : list) {
            if (!std::isfinite(e.value))
                ledger.record(false, e.name + " is finite");
        }
    }

    /** Human-readable table, then the final JSON line. */
    void
    print(const Ledger &ledger) const
    {
        for (const Entry &e : list) {
            std::printf("  %-40s %16.6g %-10s %s\n", e.name.c_str(),
                        e.value, e.unit, e.kind);
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    ledger.failed() == 0 ? "true" : "false",
                    ledger.attempted(), ledger.failed());
        for (std::size_t i = 0; i < list.size(); ++i) {
            const Entry &e = list[i];
            std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                        e.name.c_str());
            if (std::isfinite(e.value))
                std::printf("%.17g", e.value);
            else
                std::printf("null");
            std::printf(", \"unit\": \"%s\"}", e.unit);
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
        const char *kind;
    };
    std::vector<Entry> list;
};

/** Run @p pass until @p seconds have elapsed and at least @p min_n. */
template <typename Fn>
void
repeatFor(double seconds, std::size_t min_n, Fn pass)
{
    Clock::time_point start = Clock::now();
    std::size_t n = 0;
    do {
        pass();
        ++n;
    } while (n < min_n || secondsSince(start) < seconds);
}

// ---------------------------------------------------------------
// dse_exhaustive
// ---------------------------------------------------------------

struct DseInputs
{
    workload::Workload wl;
    accel::AcceleratorClass chip;
    dse::HeraldOptions opts;
};

DseInputs
makeDseInputs(const Sizes &sz)
{
    DseInputs in{workload::arvrA(), accel::edgeClass(), {}};
    in.opts.objective = dse::Objective::ParetoFrontier;
    in.opts.partition.peGranularity = in.chip.numPes / sz.dsePeDiv;
    in.opts.partition.bwGranularity = in.chip.bwGBps / sz.dseBwDiv;
    in.opts.numThreads = 1;
    in.opts.scheduler.prefillThreads = 1;
    return in;
}

struct ExploreRun
{
    dse::DseResult result;
    double seconds = 0.0;
};

/** One explore from a cold CostModel. */
ExploreRun
runExplore(const DseInputs &in, const dse::HeraldOptions &opts)
{
    cost::CostModel model;
    dse::Herald herald(model, opts);
    Clock::time_point start = Clock::now();
    dse::DseResult result = herald.explore(in.wl, in.chip, kDseStyles);
    return ExploreRun{std::move(result), secondsSince(start)};
}

void
addSummary(Fingerprint &fp, const sched::ScheduleSummary &s)
{
    fp.add(s.makespanCycles);
    fp.add(s.latencySec);
    fp.add(s.energyMj);
    fp.add(static_cast<std::uint64_t>(s.sla.deadlineMisses));
}

std::uint64_t
fingerprint(const dse::DseResult &r)
{
    Fingerprint fp;
    fp.add(static_cast<std::uint64_t>(r.bestIdx));
    for (std::size_t idx : r.frontier)
        fp.add(static_cast<std::uint64_t>(idx));
    for (const dse::DsePoint &p : r.points) {
        fp.add(p.accelerator.name());
        addSummary(fp, p.summary);
    }
    return fp.value();
}

/** The ParetoFrontier scalarization explore minimizes. */
double
paretoScalar(const sched::ScheduleSummary &s)
{
    double edp = s.edp();
    return static_cast<double>(s.sla.deadlineMisses) + edp / (1.0 + edp);
}

/** Samples of the exhaustive part across its passes. */
struct DsePart
{
    std::vector<double> rates; //!< candidates/s per explore
    std::optional<std::uint64_t> fp;
    double bestEdp = 0.0;

    void
    addPass(const ExploreRun &run, Ledger &ledger)
    {
        rates.push_back(static_cast<double>(run.result.points.size()) /
                        run.seconds);
        std::uint64_t f = fingerprint(run.result);
        if (fp) {
            ledger.identical(*fp, f, "repeated explore");
        } else {
            fp = f;
            bestEdp = run.result.best().summary.edp();
            ledger.record(run.result.best().summary.sla.deadlineMisses ==
                              0,
                          "explore optimum has no deadline misses");
        }
    }

    void
    report(Report &rep, double host_scale) const
    {
        rep.add("dse_candidates_per_s", fastest(rates) * host_scale, "1/s",
                "host");
        rep.add("dse_best_edp", bestEdp, "mJ.s", "simulated");
    }
};

// ---------------------------------------------------------------
// dse_anneal_panel
// ---------------------------------------------------------------

std::vector<std::uint64_t>
panelSeeds(std::uint64_t seed, const Sizes &sz)
{
    util::SplitMix64 rng = streamFor(seed, kPanelTag);
    std::vector<std::uint64_t> out(sz.panelSeeds);
    for (std::uint64_t &s : out)
        s = rng.next();
    return out;
}

dse::HeraldOptions
annealOptions(const DseInputs &in, const Sizes &sz, std::uint64_t seed)
{
    dse::HeraldOptions opts = in.opts;
    opts.partition.strategy = dse::SearchStrategy::Annealing;
    opts.partition.annealing.chains = sz.annealChains;
    opts.partition.annealing.iterations = sz.annealIterations;
    opts.partition.annealing.maxEvaluations = sz.annealBudget;
    opts.partition.seed = seed;
    return opts;
}

/**
 * The panel, measured in steps: each round runs the next few seeds
 * (wrapping round), so the panel's host time is spread over the whole
 * run. A seed run a second time must reproduce its first result bit
 * for bit. The panel's rate is its distinct evaluations over the sum
 * of each seed's fastest run, so seeds are compared with themselves.
 */
struct PanelPart
{
    std::vector<std::uint64_t> seeds;
    std::vector<double> ratios; //!< best EDP / optimum, per seed
    std::vector<double> seedSeconds;     //!< first run, per seed
    std::vector<double> bestSeconds;     //!< fastest run, per seed
    std::vector<dse::DseResult> results; //!< first run, per seed
    std::vector<std::uint64_t> fps;      //!< first run, per seed
    std::size_t cursor = 0; //!< seeds run so far

    explicit PanelPart(std::vector<std::uint64_t> panel)
        : seeds(std::move(panel))
    {
    }

    void
    step(const DseInputs &in, const Sizes &sz, std::size_t count,
         double optimum_edp, Ledger &ledger)
    {
        for (std::size_t k = 0; k < count; ++k, ++cursor) {
            const std::size_t i = cursor % seeds.size();
            ExploreRun ex = runExplore(in, annealOptions(in, sz, seeds[i]));
            const std::uint64_t fp = fingerprint(ex.result);
            if (i < fps.size()) {
                ledger.identical(fps[i], fp, "rerun of a panel seed");
                bestSeconds[i] = std::min(bestSeconds[i], ex.seconds);
                continue;
            }
            fps.push_back(fp);
            seedSeconds.push_back(ex.seconds);
            bestSeconds.push_back(ex.seconds);
            ratios.push_back(ex.result.best().summary.edp() / optimum_edp);
            ledger.record(ratios.back() >= 1.0, "annealing never beats "
                                                "the exhaustive optimum");
            results.push_back(std::move(ex.result));
        }
    }

    bool complete() const { return cursor >= seeds.size(); }

    /** Seeds whose best point is the exhaustive optimum. */
    std::size_t
    exactHits() const
    {
        return static_cast<std::size_t>(
            std::count(ratios.begin(), ratios.end(), 1.0));
    }

    void
    report(Report &rep, double host_scale) const
    {
        std::size_t distinct = 0;
        for (const dse::DseResult &r : results)
            distinct += r.points.size();
        rep.add("anneal_evals_per_s",
                static_cast<double>(distinct) / sum(bestSeconds) *
                    host_scale,
                "1/s", "host");
        rep.add("anneal_edp_ratio_p50", median(ratios), "ratio",
                "simulated");
        rep.add("anneal_edp_ratio_max",
                *std::max_element(ratios.begin(), ratios.end()), "ratio",
                "simulated");
    }
};

// ---------------------------------------------------------------
// offline_backlog
// ---------------------------------------------------------------

struct BacklogInputs
{
    workload::Workload wl;
    accel::Accelerator acc;
    sched::SchedulerOptions opts;
};

/** The AR/VR-A@60fps mix with seeded stream phases. */
BacklogInputs
makeBacklog(std::uint64_t seed, const Sizes &sz)
{
    util::SplitMix64 rng = streamFor(seed, kBacklogTag);
    const int f60 = sz.backlogFrames60;
    const double p60 = workload::fpsPeriodCycles(60.0);
    const double p30 = workload::fpsPeriodCycles(30.0);
    const double p15 = workload::fpsPeriodCycles(15.0);
    workload::Workload wl("AR/VR-A@60fps backlog");
    wl.addPeriodicModel(dnn::mobileNetV2(), f60, p60, 0.0,
                        rng.nextDouble() * p60);
    wl.addPeriodicModel(dnn::uNet(), std::max(1, f60 / 2), p30, 0.0,
                        rng.nextDouble() * p30);
    wl.addPeriodicModel(dnn::resnet50(), std::max(1, f60 / 4), p15, 0.0,
                        rng.nextDouble() * p15);

    accel::AcceleratorClass chip = accel::edgeClass();
    sched::SchedulerOptions opts;
    opts.policy = sched::Policy::Edf;
    opts.postProcess = false;
    opts.prefillThreads = 1;
    return BacklogInputs{
        std::move(wl),
        accel::Accelerator::makeHda(chip, kStreamStyles,
                                    {chip.numPes / 2, chip.numPes / 2},
                                    {chip.bwGBps / 2, chip.bwGBps / 2}),
        opts};
}

std::uint64_t
fingerprint(const sched::Schedule &s)
{
    Fingerprint fp;
    for (const sched::ScheduledLayer &e : s.entries()) {
        fp.add(static_cast<std::uint64_t>(e.instanceIdx));
        fp.add(static_cast<std::uint64_t>(e.layerIdx));
        fp.add(static_cast<std::uint64_t>(e.accIdx));
        fp.add(e.startCycle);
        fp.add(e.endCycle);
        fp.add(e.energyUnits);
        fp.add(e.contextPenaltyCycles);
    }
    for (std::size_t idx : s.droppedInstances())
        fp.add(static_cast<std::uint64_t>(idx));
    return fp.value();
}

struct BacklogRun
{
    double seconds = 0.0;  //!< schedule, including the table build
    double tableSeconds = 0.0;    //!< traced only
    double dispatchSeconds = 0.0; //!< traced only
    double validateSeconds = 0.0;
    double finalizeSeconds = 0.0;
    std::string violation; //!< Schedule::validate verdict
    std::size_t entries = 0;
    double makespanMs = 0.0;
    std::uint64_t fp = 0;
};

/**
 * One schedule from a cold CostModel, then (outside the timed region)
 * validate and finalize. With @p tr the table build and the dispatch
 * are separate calls, each in its own span.
 */
BacklogRun
runBacklog(const BacklogInputs &in, Tracer *tr)
{
    BacklogRun run;
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model, in.opts);
    std::optional<sched::Schedule> schedule;
    if (!tr) {
        Clock::time_point start = Clock::now();
        schedule.emplace(scheduler.schedule(in.wl, in.acc));
        run.seconds = secondsSince(start);
    } else {
        Scope whole(*tr, "offline.schedule");
        std::size_t id = tr->begin("sched.table.build");
        sched::LayerCostTable table = sched::LayerCostTable::build(
            model, in.wl, in.acc, in.opts.metric, in.opts.rdaOverheads,
            in.opts.prefillThreads);
        run.tableSeconds = tr->end(id);
        id = tr->begin("sched.dispatch");
        schedule.emplace(scheduler.schedule(in.wl, in.acc, table));
        run.dispatchSeconds = tr->end(id);
        run.seconds = run.tableSeconds + run.dispatchSeconds;
    }

    std::optional<std::size_t> id;
    if (tr)
        id = tr->begin("sched.validate");
    Clock::time_point start = Clock::now();
    run.violation = schedule->validate(in.wl, in.acc);
    run.validateSeconds = secondsSince(start);
    if (tr) {
        tr->end(*id);
        id = tr->begin("sched.finalize");
    }
    start = Clock::now();
    sched::ScheduleSummary summary =
        schedule->finalize(in.wl, in.acc, model.energyModel());
    run.finalizeSeconds = secondsSince(start);
    if (tr)
        tr->end(*id);
    run.entries = schedule->entries().size();
    run.makespanMs = summary.latencySec * 1e3;
    run.fp = fingerprint(*schedule);
    return run;
}

struct BacklogPart
{
    std::vector<double> rates; //!< layers/s per schedule
    std::optional<BacklogRun> first;

    void
    addPass(const BacklogRun &run, const BacklogInputs &in,
            Ledger &ledger)
    {
        rates.push_back(static_cast<double>(in.wl.totalLayers()) /
                        run.seconds);
        ledger.record(run.violation.empty(),
                      "offline schedule validates: " + run.violation);
        if (first)
            ledger.identical(first->fp, run.fp, "repeated schedule");
        else
            first = run;
    }

    void
    report(Report &rep, double host_scale) const
    {
        rep.add("offline_layers_per_s", fastest(rates) * host_scale, "1/s",
                "host");
        rep.add("offline_makespan_ms", first->makespanMs, "ms",
                "simulated");
    }
};

// ---------------------------------------------------------------
// online_knee
// ---------------------------------------------------------------

struct KneeInputs
{
    sched::ArrivalSource src;
    std::vector<dnn::Model> models;
    accel::Accelerator acc;
    sched::OnlineOptions opts;
    std::uint64_t frames = 0; //!< frames the source generates
};

/**
 * MobileNetV2 / UNet / ResNet50 at kKneeRate x (60/30/15) FPS with
 * implicit deadlines and seeded phases, on the mobile 2-way HDA.
 */
KneeInputs
makeKnee(std::uint64_t seed, const Sizes &sz)
{
    util::SplitMix64 rng = streamFor(seed, kKneeTag);
    accel::AcceleratorClass chip = accel::mobileClass();
    KneeInputs in{
        {},
        {},
        accel::Accelerator::makeHda(chip, kStreamStyles,
                                    {chip.numPes / 2, chip.numPes / 2},
                                    {chip.bwGBps / 2, chip.bwGBps / 2}),
        {},
        0};
    struct StreamSpec
    {
        dnn::Model model;
        double fps;
        std::uint64_t frames;
    };
    const std::uint64_t f60 = sz.kneeFrames60;
    std::vector<StreamSpec> specs = {
        {dnn::mobileNetV2(), 60.0, f60},
        {dnn::uNet(), 30.0, f60 / 2},
        {dnn::resnet50(), 15.0, f60 / 4},
    };
    for (StreamSpec &s : specs) {
        double period = workload::fpsPeriodCycles(s.fps * kKneeRate);
        in.src.addStream(std::move(s.model), period, period,
                         rng.nextDouble() * period, s.frames);
        in.frames += s.frames;
    }
    in.models = in.src.models();
    in.opts.sched.policy = sched::Policy::Lst;
    in.opts.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    in.opts.sched.preemption = sched::Preemption::AtLayerBoundary;
    in.opts.sched.prefillThreads = 1;
    in.opts.maxLiveFrames = 4096;
    return in;
}

std::uint64_t
fingerprint(const sched::OnlineStats &st)
{
    Fingerprint fp;
    for (std::uint64_t v :
         {st.submittedFrames, st.rejectedFrames, st.admittedFrames,
          st.completedFrames, st.droppedFrames, st.deadlineMisses,
          st.committedLayers, st.retiredEntries})
        fp.add(v);
    for (double v : {st.p50LatencyCycles, st.p99LatencyCycles,
                     st.p999LatencyCycles, st.maxLatencyCycles})
        fp.add(v);
    return fp.value();
}

struct KneeRun
{
    double constructSeconds = 0.0; //!< OnlineScheduler construction
    double loopSeconds = 0.0;      //!< submit loop plus drain()
    double arrivalSeconds = 0.0;   //!< traced only: source.next()
    double drainSeconds = 0.0;     //!< traced only
    std::vector<double> submitUs;  //!< traced only, per frame
    std::uint64_t maxWindowFrames = 0;  //!< traced only (sampled)
    std::uint64_t maxLiveIntervals = 0; //!< traced only (sampled)
    sched::OnlineStats stats;
    std::uint64_t generated = 0;
    std::uint64_t fp = 0;
};

/** One fresh engine (cold CostModel) over the whole stream. */
KneeRun
runKnee(KneeInputs &in, Tracer *tr)
{
    KneeRun run;
    in.src.reset();
    cost::CostModel model;
    std::optional<std::size_t> id;
    if (tr)
        id = tr->begin("sched.online.construct");
    Clock::time_point start = Clock::now();
    sched::OnlineScheduler eng(model, in.models, in.acc, in.opts);
    run.constructSeconds = secondsSince(start);
    if (tr)
        tr->end(*id);

    if (!tr) {
        start = Clock::now();
        while (!in.src.exhausted()) {
            sched::ArrivalSource::Frame f = in.src.next();
            eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        }
        eng.drain();
        run.loopSeconds = secondsSince(start);
    } else {
        run.submitUs.reserve(in.frames);
        std::size_t stream = tr->begin("sched.online.stream");
        std::uint64_t n = 0;
        while (!in.src.exhausted()) {
            Clock::time_point a = Clock::now();
            sched::ArrivalSource::Frame f = in.src.next();
            run.arrivalSeconds += secondsSince(a);
            std::size_t sid = tr->begin("sched.online.submit", n);
            eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
            run.submitUs.push_back(tr->end(sid) * 1e6);
            if (++n % 1024 == 0) {
                sched::OnlineStats st = eng.stats();
                run.maxWindowFrames =
                    std::max(run.maxWindowFrames, st.windowFrames);
                run.maxLiveIntervals =
                    std::max(run.maxLiveIntervals, st.liveIntervals);
            }
        }
        std::size_t did = tr->begin("sched.online.drain");
        eng.drain();
        run.drainSeconds = tr->end(did);
        run.loopSeconds = tr->end(stream);
    }
    run.stats = eng.stats();
    run.generated = in.src.emitted();
    run.fp = fingerprint(run.stats);
    return run;
}

/** Online accounting identities of a drained run. */
void
checkAccounting(const KneeRun &run, const KneeInputs &in, Ledger &ledger)
{
    const sched::OnlineStats &st = run.stats;
    std::uint64_t completed =
        st.completedFrames + (gFault == Fault::Accounting ? 1 : 0);
    ledger.record(st.admittedFrames == completed + st.droppedFrames,
                  "online admitted == completed + dropped");
    ledger.record(st.liveFrames == 0, "online liveFrames == 0 after drain");
    ledger.record(st.submittedFrames == run.generated &&
                      run.generated == in.frames,
                  "online submitted == frames generated");
}

/** Exact frame-latency percentiles of the stream's prefix. */
struct KneeSla
{
    double p50Ms = 0.0;
    double p999Ms = 0.0;
};

/**
 * The stream's first frames (kneeSlaFrames60 MobileNetV2 frames and
 * their UNet / ResNet50 share) through an engine in retainSchedule
 * mode. The retained schedule must validate and agree with the
 * engine's counters; Schedule::computeSla then gives every frame's
 * exact latency. The serving pass only has OnlineStats' histogram,
 * whose percentiles are upper edges of ~4%-wide buckets.
 */
KneeSla
runKneeSla(std::uint64_t seed, const Sizes &sz, Ledger &ledger)
{
    Sizes prefix = sz;
    prefix.kneeFrames60 = sz.kneeSlaFrames60;
    KneeInputs in = makeKnee(seed, prefix);
    in.opts.retainSchedule = true;
    cost::CostModel model;
    sched::OnlineScheduler eng(model, in.models, in.acc, in.opts);
    while (!in.src.exhausted()) {
        sched::ArrivalSource::Frame f = in.src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
    }
    eng.drain();

    workload::Workload wl = in.src.materialize("online_knee prefix");
    const sched::Schedule &schedule = eng.schedule();
    std::string violation = schedule.validate(wl, in.acc);
    ledger.record(violation.empty(),
                  "retained online schedule validates: " + violation);
    sched::SlaStats sla = schedule.computeSla(wl);
    sched::OnlineStats st = eng.stats();
    ledger.record(st.rejectedFrames != 0 ||
                      (sla.deadlineMisses == st.deadlineMisses &&
                       sla.droppedFrames == st.droppedFrames),
                  "retained SLA agrees with the online counters");

    std::vector<double> latency;
    latency.reserve(sla.perInstance.size());
    for (const sched::InstanceSla &f : sla.perInstance) {
        latency.push_back(f.scheduled && !f.dropped
                              ? f.latencyCycles
                              : std::numeric_limits<double>::infinity());
    }
    return KneeSla{percentile(latency, 0.5) / 1e6,
                   percentile(latency, 0.999) / 1e6};
}

struct KneePart
{
    std::vector<double> rates; //!< committed layers/s per pass
    std::optional<KneeRun> first;
    KneeSla sla;

    void
    addPass(KneeRun run, const KneeInputs &in, Ledger &ledger)
    {
        checkAccounting(run, in, ledger);
        rates.push_back(static_cast<double>(run.stats.committedLayers) /
                        run.loopSeconds);
        if (first)
            ledger.identical(first->fp, run.fp, "repeated stream");
        else
            first = std::move(run);
    }

    void
    report(Report &rep, double host_scale) const
    {
        rep.add("online_layers_per_s", fastest(rates) * host_scale, "1/s",
                "host");
        rep.add("online_latency_p50_ms", sla.p50Ms, "ms", "simulated");
        rep.add("online_latency_p999_ms", sla.p999Ms, "ms", "simulated");
    }
};

/** Deadline misses plus rejections, over submitted frames. */
double
missRate(const sched::OnlineStats &st)
{
    return static_cast<double>(st.deadlineMisses + st.rejectedFrames) /
           static_cast<double>(st.submittedFrames);
}

// ---------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------

struct Options
{
    Part home = Part::DseExhaustive;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string traceOut;
};

void
runMeasured(const Options &o, const Sizes &sz, Ledger &ledger,
            Report &rep)
{
    const std::vector<std::uint64_t> seeds = panelSeeds(o.seed, sz);
    DsePart dse;
    PanelPart panel(seeds);
    BacklogPart backlog;
    KneePart knee;
    std::optional<DseInputs> dseIn;
    std::optional<BacklogInputs> blIn;
    std::optional<KneeInputs> knIn;

    // --- Set-up samples of the home part, a burst per round. The
    // panel's set-up is the exhaustive sweep that gives its optimum;
    // those sweeps are also the exhaustive part's samples.
    std::vector<double> setups;
    auto burst = [&](auto make) {
        Clock::time_point begin = Clock::now();
        do
            setups.push_back(make());
        while (secondsSince(begin) < sz.setupSeconds);
    };
    auto setUp = [&] {
        switch (o.home) {
          case Part::DseExhaustive:
            burst([&] {
                Clock::time_point start = Clock::now();
                DseInputs in = makeDseInputs(sz);
                double secs = secondsSince(start);
                dseIn.emplace(std::move(in));
                return secs;
            });
            break;
          case Part::AnnealPanel: {
            Clock::time_point start = Clock::now();
            dseIn.emplace(makeDseInputs(sz));
            ExploreRun ex = runExplore(*dseIn, dseIn->opts);
            setups.push_back(secondsSince(start));
            dse.addPass(ex, ledger);
            break;
          }
          case Part::OfflineBacklog:
            burst([&] {
                Clock::time_point start = Clock::now();
                BacklogInputs in = makeBacklog(o.seed, sz);
                double secs = secondsSince(start);
                blIn.emplace(std::move(in));
                return secs;
            });
            break;
          case Part::OnlineKnee:
            // Building the stream inputs and constructing the engine
            // (its cost table, from a cold CostModel).
            burst([&] {
                Clock::time_point start = Clock::now();
                KneeInputs in = makeKnee(o.seed, sz);
                cost::CostModel model;
                sched::OnlineScheduler eng(model, in.models, in.acc,
                                           in.opts);
                return secondsSince(start);
            });
            break;
        }
    };
    dseIn.emplace(makeDseInputs(sz));
    blIn.emplace(makeBacklog(o.seed, sz));
    knIn.emplace(makeKnee(o.seed, sz));

    // --- Rounds. Each round takes more set-up samples, then runs the
    // home part and every other part (the exhaustive sweep before the
    // panel, which needs its optimum), so every part's samples spread
    // over the whole run. Peak RSS is read after the home part's first
    // pass; from then on the host's speed is sampled before each part.
    std::vector<Part> order = {o.home};
    for (Part p : {Part::DseExhaustive, Part::AnnealPanel,
                   Part::OfflineBacklog, Part::OnlineKnee}) {
        if (p != o.home)
            order.push_back(p);
    }
    if (o.home == Part::AnnealPanel)
        std::swap(order[0], order[1]);
    double peakRss = 0.0;
    bool rssRead = false;
    HostSpeed host;
    repeatFor(o.seconds, sz.minRounds, [&] {
        setUp();
        for (Part p : order) {
            if (rssRead)
                host.sample();
            switch (p) {
              case Part::DseExhaustive:
                if (o.home != Part::AnnealPanel)
                    dse.addPass(runExplore(*dseIn, dseIn->opts), ledger);
                break;
              case Part::AnnealPanel:
                panel.step(*dseIn, sz, sz.panelStep, dse.bestEdp, ledger);
                break;
              case Part::OfflineBacklog:
                for (std::size_t k = 0; k < sz.backlogPasses; ++k) {
                    backlog.addPass(runBacklog(*blIn, nullptr), *blIn,
                                    ledger);
                }
                break;
              case Part::OnlineKnee:
                knee.addPass(runKnee(*knIn, nullptr), *knIn, ledger);
                break;
            }
            if (!rssRead && p == o.home) {
                peakRss = maxRssMb();
                rssRead = true;
            }
        }
    });
    // Finish the panel if the rounds did not cover it, then rerun one
    // seed it already ran.
    while (!panel.complete())
        panel.step(*dseIn, sz, 1, dse.bestEdp, ledger);
    panel.step(*dseIn, sz, 1, dse.bestEdp, ledger);
    knee.sla = runKneeSla(o.seed, sz, ledger);

    rep.add("setup_s", median(setups), "s", "host");
    rep.add("peak_rss_mb", peakRss, "MB", "host");
    const double scale = host.scale();
    std::printf("host speed: reference work %.4f s at fastest (%zu runs), "
                "%.4f s nominal; host rates scaled by %.4f\n",
                scale * kReferenceSeconds, host.seconds.size(),
                kReferenceSeconds, scale);
    dse.report(rep, scale);
    panel.report(rep, scale);
    backlog.report(rep, scale);
    knee.report(rep, scale);
}

// ---------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------

/** Per-candidate replay totals (one evaluation's layer steps). */
struct ReplayTotals
{
    double table = 0.0;
    double dispatch = 0.0;    //!< schedule() with post-processing off
    double scheduled = 0.0;   //!< schedule() with post-processing on
    double finalize = 0.0;
    std::size_t improved = 0; //!< post-processing shortened makespan
    double gainSum = 0.0;     //!< sum of relative makespan gains
    std::size_t n = 0;
    std::vector<double> candidateMs; //!< the work explore does, per cand

    double postprocess() const { return scheduled - dispatch; }
};

/**
 * Replay one candidate the way explore evaluates it, plus a second
 * schedule() with post-processing off. Returns the summary.
 */
sched::ScheduleSummary
replayOne(const DseInputs &in, cost::CostModel &model,
          sched::CostColumnCache &cache, const accel::Accelerator &acc,
          Tracer &tr, ReplayTotals &tot)
{
    sched::SchedulerOptions on = in.opts.scheduler;
    sched::SchedulerOptions off = on;
    off.postProcess = false;
    sched::HeraldScheduler withPost(model, on);
    sched::HeraldScheduler withoutPost(model, off);

    std::size_t id = tr.begin("sched.table.build");
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, in.wl, acc, on.metric, on.rdaOverheads, on.prefillThreads,
        &cache);
    const double tTable = tr.end(id);

    id = tr.begin("sched.dispatch");
    sched::Schedule plain = withoutPost.schedule(in.wl, acc, table);
    const double tDispatch = tr.end(id);

    id = tr.begin("sched.dispatch+postprocess");
    sched::Schedule post = withPost.schedule(in.wl, acc, table);
    const double tScheduled = tr.end(id);

    id = tr.begin("sched.finalize");
    sched::ScheduleSummary summary =
        post.finalize(in.wl, acc, model.energyModel(),
                      in.opts.chargeIdleEnergy);
    const double tFinalize = tr.end(id);

    const double before = plain.makespanCycles();
    const double after = post.makespanCycles();
    tot.improved += after < before;
    tot.gainSum += before > 0.0 ? (before - after) / before : 0.0;
    tot.table += tTable;
    tot.dispatch += tDispatch;
    tot.scheduled += tScheduled;
    tot.finalize += tFinalize;
    tot.candidateMs.push_back((tTable + tScheduled + tFinalize) * 1e3);
    ++tot.n;
    return summary;
}

bool
samePoint(const dse::DsePoint &p, const sched::ScheduleSummary &s,
          const std::string &acc_name)
{
    return p.accelerator.name() == acc_name &&
           p.summary.latencySec == s.latencySec &&
           p.summary.energyMj == s.energyMj &&
           p.summary.makespanCycles == s.makespanCycles &&
           p.summary.sla.deadlineMisses == s.sla.deadlineMisses;
}

struct DseReplay
{
    ReplayTotals tot;
    double accounted = 0.0; //!< seconds of the work explore does
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t modelKeys = 0;
};

/**
 * Replay every exhaustive candidate in explore's order through one
 * cold CostModel and one shared CostColumnCache, and check that the
 * points and bestIdx match @p ref bit for bit.
 */
DseReplay
replayExhaustive(const DseInputs &in, const dse::DseResult &ref,
                 Tracer &tr, Ledger &ledger)
{
    DseReplay out;
    cost::CostModel model;
    sched::CostColumnCache cache;
    std::vector<dse::PartitionCandidate> cands = dse::generateCandidates(
        in.chip.numPes, in.chip.bwGBps, kDseStyles.size(),
        in.opts.partition);
    bool same = cands.size() == ref.points.size();
    double best = std::numeric_limits<double>::infinity();
    std::size_t bestIdx = 0;
    for (std::size_t i = 0; i < cands.size() && same; ++i) {
        std::size_t cid = tr.begin("dse.candidate", i);
        std::size_t id = tr.begin("accel.make_hda");
        accel::Accelerator acc = accel::Accelerator::makeHda(
            in.chip, kDseStyles, cands[i].peSplit, cands[i].bwSplit);
        const double tMake = tr.end(id);
        sched::ScheduleSummary s =
            replayOne(in, model, cache, acc, tr, out.tot);
        out.tot.candidateMs.back() += tMake * 1e3;
        tr.end(cid);
        same = samePoint(ref.points[i], s, acc.name());
        double value = paretoScalar(s);
        if (value < best) {
            best = value;
            bestIdx = i;
        }
    }
    ledger.identical(ref.bestIdx, same ? bestIdx : SIZE_MAX,
                     "traced replay of explore's points and bestIdx");
    out.accounted = sum(out.tot.candidateMs) * 1e-3;
    out.hits = cache.stats().hits;
    out.misses = cache.stats().misses;
    out.modelKeys = model.cacheSize();
    return out;
}

/** Replay every point each panel seed returned, in its order. */
ReplayTotals
replayPanel(const DseInputs &in, const PanelPart &run, Tracer &tr,
            Ledger &ledger)
{
    ReplayTotals tot;
    bool same = true;
    for (std::size_t s = 0; s < run.results.size(); ++s) {
        Scope seedSpan(tr, "dse.anneal.replay", s);
        cost::CostModel model;
        sched::CostColumnCache cache;
        for (const dse::DsePoint &p : run.results[s].points) {
            sched::ScheduleSummary summary =
                replayOne(in, model, cache, p.accelerator, tr, tot);
            same = same && samePoint(p, summary, p.accelerator.name());
        }
    }
    ledger.identical(1, same ? 1 : 0, "traced replay of the panel's points");
    return tot;
}

void
runTraced(const Options &o, const Sizes &sz, Ledger &ledger, Report &rep)
{
    // Untraced reference pass of every part: results to check the
    // traced pass against, and the wall times the overhead is
    // measured from.
    DseInputs dseIn = makeDseInputs(sz);
    ExploreRun ex = runExplore(dseIn, dseIn.opts);
    DsePart dse;
    dse.addPass(ex, ledger);
    PanelPart panel(panelSeeds(o.seed, sz));
    // The whole panel, then seed 0 once more.
    panel.step(dseIn, sz, panel.seeds.size() + 1, dse.bestEdp, ledger);
    BacklogInputs blIn = makeBacklog(o.seed, sz);
    BacklogRun blRef = runBacklog(blIn, nullptr);
    KneeInputs knIn = makeKnee(o.seed, sz);
    KneeRun knRef = runKnee(knIn, nullptr);
    const double untraced = ex.seconds + blRef.seconds +
                            knRef.constructSeconds + knRef.loopSeconds;

    Tracer tr;
    DseReplay dr;
    {
        Scope part(tr, "part.dse_exhaustive");
        dr = replayExhaustive(dseIn, ex.result, tr, ledger);
    }
    ReplayTotals panelTot;
    {
        Scope part(tr, "part.dse_anneal_panel");
        panelTot = replayPanel(dseIn, panel, tr, ledger);
    }
    BacklogRun bl;
    {
        Scope part(tr, "part.offline_backlog");
        bl = runBacklog(blIn, &tr);
    }
    BacklogPart backlog;
    backlog.addPass(blRef, blIn, ledger);
    backlog.addPass(bl, blIn, ledger);
    KneeRun kn;
    {
        Scope part(tr, "part.online_knee");
        kn = runKnee(knIn, &tr);
    }
    checkAccounting(kn, knIn, ledger);
    ledger.identical(knRef.fp, kn.fp, "traced stream");
    const double traced = dr.accounted + bl.seconds +
                          kn.constructSeconds + kn.loopSeconds;

    const ReplayTotals &t = dr.tot;
    const double n = static_cast<double>(t.n);
    const double layers = static_cast<double>(blIn.wl.totalLayers());
    const sched::OnlineStats &st = kn.stats;
    const char *L = "layer";

    rep.add("sched.table.build_s", t.table, "s", L);
    rep.add("sched.table.column_hits", static_cast<double>(dr.hits),
            "count", L);
    rep.add("sched.table.column_misses", static_cast<double>(dr.misses),
            "count", L);
    rep.add("sched.table.column_hit_ratio",
            static_cast<double>(dr.hits) /
                static_cast<double>(dr.hits + dr.misses),
            "ratio", L);
    rep.add("cost.model_keys", static_cast<double>(dr.modelKeys), "count",
            L);
    rep.add("sched.postprocess_s", t.postprocess(), "s", L);
    rep.add("sched.postprocess.improved_fraction",
            static_cast<double>(t.improved) / n, "ratio", L);
    rep.add("sched.postprocess.makespan_gain_mean", t.gainSum / n, "ratio",
            L);
    rep.add("dse.dispatch_s", t.dispatch, "s", L);
    rep.add("dse.finalize_s", t.finalize, "s", L);
    rep.add("dse.candidate_ms_p50", percentile(t.candidateMs, 0.5), "ms",
            L);
    rep.add("dse.candidate_ms_p99", percentile(t.candidateMs, 0.99), "ms",
            L);
    rep.add("dse.explore_accounted_fraction", dr.accounted / ex.seconds,
            "ratio", L);

    std::size_t panelEvals = 0;
    for (const dse::DseResult &r : panel.results)
        panelEvals += r.points.size();
    rep.add("dse.anneal.exact_hits", static_cast<double>(panel.exactHits()),
            "count", L);
    rep.add("dse.anneal.distinct_evals",
            static_cast<double>(panelEvals), "count", L);
    rep.add("dse.anneal.seed_s_p50", median(panel.seedSeconds), "s", L);
    rep.add("dse.anneal.seed_s_max",
            *std::max_element(panel.seedSeconds.begin(),
                              panel.seedSeconds.end()),
            "s", L);
    rep.add("dse.anneal.postprocess_s", panelTot.postprocess(), "s", L);
    rep.add("dse.anneal.dispatch_s", panelTot.dispatch, "s", L);

    rep.add("sched.dispatch_s", bl.dispatchSeconds, "s", L);
    rep.add("sched.dispatch.us_per_layer", bl.dispatchSeconds * 1e6 / layers,
            "us", L);
    rep.add("sched.offline.table_build_s", bl.tableSeconds, "s", L);
    rep.add("sched.validate_s", bl.validateSeconds, "s", L);
    rep.add("sched.finalize_s", bl.finalizeSeconds, "s", L);
    rep.add("sched.schedule.entries", static_cast<double>(bl.entries),
            "count", L);

    rep.add("sched.online.construct_s", kn.constructSeconds, "s", L);
    rep.add("sched.online.submit_s", sum(kn.submitUs) * 1e-6, "s", L);
    rep.add("sched.online.submit_us_p50", percentile(kn.submitUs, 0.5),
            "us", L);
    rep.add("sched.online.submit_us_p999", percentile(kn.submitUs, 0.999),
            "us", L);
    rep.add("sched.online.drain_s", kn.drainSeconds, "s", L);
    rep.add("workload.arrivals_s", kn.arrivalSeconds, "s", L);
    rep.add("sched.online.miss_rate", missRate(st), "fraction", L);
    rep.add("sched.online.hist_p50_ms", st.p50LatencyCycles / 1e6, "ms", L);
    rep.add("sched.online.hist_p999_ms", st.p999LatencyCycles / 1e6, "ms",
            L);
    rep.add("sched.online.committed_layers",
            static_cast<double>(st.committedLayers), "count", L);
    rep.add("sched.online.dropped", static_cast<double>(st.droppedFrames),
            "count", L);
    rep.add("sched.online.rejected", static_cast<double>(st.rejectedFrames),
            "count", L);
    rep.add("sched.online.max_window_frames",
            static_cast<double>(kn.maxWindowFrames), "count", L);
    rep.add("sched.online.max_live_intervals",
            static_cast<double>(kn.maxLiveIntervals), "count", L);
    rep.add("sched.online.retired_entries",
            static_cast<double>(st.retiredEntries), "count", L);

    rep.add("trace.overhead_fraction", traced / untraced - 1.0, "ratio", L);
    rep.add("trace.spans", static_cast<double>(tr.spans().size()), "count",
            L);

    std::printf("self time per span (s), traced run:\n");
    for (const auto &[name, secs] : tr.selfSeconds())
        std::printf("  %-40s %12.6f\n", name.c_str(), secs);
    if (!o.traceOut.empty()) {
        bool written = tr.writeChromeJson(o.traceOut);
        ledger.record(written, "trace written to " + o.traceOut);
        if (written)
            std::printf("trace: %zu spans -> %s\n", tr.spans().size(),
                        o.traceOut.c_str());
    }
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload dse_exhaustive|dse_anneal_panel|"
                 "offline_backlog|online_knee [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--size full|tiny] "
                 "[--inject-fault none|identity|accounting]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    util::setVerbose(false);
    Options o;
    const char *workload = nullptr;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string val = argv[++i];
        if (arg == "--workload") {
            for (const auto &[name, part] : kPartNames) {
                if (val == name) {
                    workload = name;
                    o.home = part;
                }
            }
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), nullptr);
        } else if (arg == "--trace") {
            o.trace = val == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else if (arg == "--size") {
            if (val != "full" && val != "tiny")
                return usage(argv[0]);
            o.tiny = val == "tiny";
        } else if (arg == "--inject-fault") {
            if (val == "identity")
                gFault = Fault::Identity;
            else if (val == "accounting")
                gFault = Fault::Accounting;
            else if (val != "none")
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (!workload)
        return usage(argv[0]);

    const Sizes &sz = o.tiny ? kTiny : kFull;
    std::printf("herald_bench: workload %s, seed %" PRIu64
                ", %.0f s, trace %d, size %s\n",
                workload, o.seed, o.seconds, o.trace ? 1 : 0,
                o.tiny ? "tiny" : "full");
    Ledger ledger;
    Report rep;
    try {
        if (o.trace)
            runTraced(o, sz, ledger, rep);
        else
            runMeasured(o, sz, ledger, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "herald_bench: %s\n", e.what());
        return 3;
    }
    rep.requireFinite(ledger);
    rep.print(ledger);
    return ledger.failed() == 0 ? 0 : 1;
}
