/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public functions (the library itself stays clock-free).
 * Each span carries a name, start and end times relative to the
 * recorder's origin, the span that was open when it began (its
 * parent), and a request id — the DSE candidate, annealing seed or
 * frame it belongs to. Nothing is written until the run ends; then
 * writeChromeJson() emits Chrome trace-event JSON that Perfetto and
 * chrome://tracing open directly.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** See file comment. */
class Tracer
{
  public:
    static constexpr std::size_t kNoParent = SIZE_MAX;
    static constexpr std::uint64_t kNoRequest = UINT64_MAX;

    struct Span
    {
        const char *name = "";
        double startUs = 0.0;
        double endUs = 0.0;
        std::size_t parent = kNoParent;
        std::uint64_t request = kNoRequest;

        double seconds() const { return (endUs - startUs) * 1e-6; }
    };

    Tracer();

    /**
     * Open a span named @p name (a string literal: only the pointer
     * is kept) under the innermost open span. Returns its id.
     */
    std::size_t begin(const char *name,
                      std::uint64_t request = kNoRequest);

    /**
     * Close span @p id (must be the innermost open span); returns its
     * duration in seconds.
     */
    double end(std::size_t id);

    const std::vector<Span> &spans() const { return list; }

    /**
     * Per span name: the summed self time in seconds — each span's
     * duration minus the part of it its direct children cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON to @p path. */
    bool writeChromeJson(const std::string &path) const;

  private:
    Clock::time_point origin;
    std::vector<Span> list;
    std::vector<std::size_t> open;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name,
          std::uint64_t request = Tracer::kNoRequest)
        : tr(tracer), id(tracer.begin(name, request))
    {
    }
    ~Scope() { tr.end(id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tr;
    std::size_t id;
};

} // namespace perfbench
