#include "trace.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : origin(Clock::now()) {}

std::size_t
Tracer::begin(const char *name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = open.empty() ? kNoParent : open.back();
    span.request = request;
    span.startUs =
        std::chrono::duration<double, std::micro>(Clock::now() - origin)
            .count();
    list.push_back(span);
    open.push_back(list.size() - 1);
    return list.size() - 1;
}

double
Tracer::end(std::size_t id)
{
    if (open.empty() || open.back() != id)
        throw std::logic_error("Tracer::end: span is not innermost");
    open.pop_back();
    Span &span = list[id];
    span.endUs =
        std::chrono::duration<double, std::micro>(Clock::now() - origin)
            .count();
    return span.seconds();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> child(list.size(), 0.0);
    for (const Span &span : list) {
        if (span.parent != kNoParent)
            child[span.parent] += span.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < list.size(); ++i)
        out[list[i].name] += list[i].seconds() - child[i];
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &span = list[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"herald\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu",
                     i == 0 ? "" : ",\n", span.name, span.startUs,
                     span.endUs - span.startUs, i);
        if (span.parent != kNoParent)
            std::fprintf(f, ",\"parent\":%zu", span.parent);
        if (span.request != kNoRequest) {
            std::fprintf(f, ",\"request\":%llu",
                         static_cast<unsigned long long>(span.request));
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
