#include "sched/memory_tracker.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace herald::sched
{

namespace
{

constexpr double kEps = 1e-6;

/**
 * Index of the first event of the non-empty block @p ev for which
 * @p before is false, like std::partition_point. Each halving step is
 * a conditional select instead of a branch: in-block searches land at
 * unpredictable offsets, and they are the hottest loop of
 * post-processing. (The block-level search keeps the branchy
 * std::partition_point: each of its probes loads a different block's
 * buffer, which speculation overlaps and a select would serialize.)
 */
template <class Event, class Pred>
std::size_t
partitionIndex(const std::vector<Event> &ev, Pred before)
{
    const Event *first = ev.data();
    std::size_t len = ev.size();
    while (len > 1) {
        const std::size_t half = len / 2;
        first = before(first[half]) ? first + half : first;
        len -= half;
    }
    return static_cast<std::size_t>(first - ev.data()) +
           (before(*first) ? 1 : 0);
}

} // namespace

// ------------------------------------------------------------------
// Fenwick tree over per-block delta sums
// ------------------------------------------------------------------

void
MemoryTracker::rebuildFenwickFrom(std::size_t b)
{
    // Node i (1-based) sums blocks [i - lowbit(i), i), so the nodes
    // at or below b read only blocks before b and stay valid. Each
    // node above b is its own block plus its children i - 1, i - 2,
    // i - 4, ..., i - lowbit(i) / 2, all of which precede it. A split
    // or erase near the end of the timeline thus costs O(log B)
    // instead of a full O(B log B) rebuild; integer-valued deltas
    // make the sums exact in any order.
    const std::size_t n = blocks.size();
    fenwick.resize(n + 1);
    for (std::size_t i = b + 1; i <= n; ++i) {
        double sum = blocks[i - 1].deltaSum;
        const std::size_t low = i & (~i + 1);
        for (std::size_t k = 1; k < low; k <<= 1)
            sum += fenwick[i - k];
        fenwick[i] = sum;
    }
}

void
MemoryTracker::fenwickAdd(std::size_t block, double delta)
{
    for (std::size_t i = block + 1; i < fenwick.size();
         i += i & (~i + 1))
        fenwick[i] += delta;
}

double
MemoryTracker::fenwickPrefix(std::size_t block) const
{
    double sum = 0.0;
    for (std::size_t i = block; i > 0; i -= i & (~i + 1))
        sum += fenwick[i];
    return sum;
}

// ------------------------------------------------------------------
// Blocked timeline positions
// ------------------------------------------------------------------

MemoryTracker::Pos
MemoryTracker::upperBound(double t) const
{
    // First block whose last event time > t, then the in-block upper
    // bound. Blocks are non-empty and time-ordered.
    auto bit = std::partition_point(
        blocks.begin(), blocks.end(),
        [t](const Block &b) { return b.ev.back().time <= t; });
    if (bit == blocks.end())
        return Pos{blocks.size(), 0};
    return Pos{static_cast<std::size_t>(bit - blocks.begin()),
               partitionIndex(bit->ev, [t](const Event &e) {
                   return e.time <= t;
               })};
}

MemoryTracker::Pos
MemoryTracker::lowerBound(double t) const
{
    auto bit = std::partition_point(
        blocks.begin(), blocks.end(),
        [t](const Block &b) { return b.ev.back().time < t; });
    if (bit == blocks.end())
        return Pos{blocks.size(), 0};
    return Pos{static_cast<std::size_t>(bit - blocks.begin()),
               partitionIndex(bit->ev, [t](const Event &e) {
                   return e.time < t;
               })};
}

double
MemoryTracker::prefixSumBefore(Pos p) const
{
    if (p.block == blocks.size())
        return fenwickPrefix(blocks.size());
    // Walk the shorter side of the block: the prefix of the blocks
    // before it plus the head, or through the block's end minus the
    // tail. Integer-valued deltas make both sums exact.
    double sum = fenwickPrefix(p.block);
    const Block &block = blocks[p.block];
    if (2 * p.off <= block.ev.size()) {
        for (std::size_t i = 0; i < p.off; ++i)
            sum += block.ev[i].delta;
    } else {
        sum += block.deltaSum;
        for (std::size_t i = p.off; i < block.ev.size(); ++i)
            sum -= block.ev[i].delta;
    }
    return sum;
}

// ------------------------------------------------------------------
// Event maintenance
// ------------------------------------------------------------------

void
MemoryTracker::splitBlock(std::size_t b)
{
    std::vector<Event> &ev = blocks[b].ev;
    const std::size_t half = ev.size() / 2;
    Block tail;
    tail.ev.assign(ev.begin() + static_cast<std::ptrdiff_t>(half),
                   ev.end());
    ev.resize(half);
    blocks[b].deltaSum = 0.0;
    for (const Event &e : ev)
        blocks[b].deltaSum += e.delta;
    for (const Event &e : tail.ev)
        tail.deltaSum += e.delta;
    blocks.insert(blocks.begin() + static_cast<std::ptrdiff_t>(b + 1),
                  std::move(tail));
    rebuildFenwickFrom(b);
}

void
MemoryTracker::insertEvent(double time, double delta, std::size_t idx)
{
    if (blocks.empty()) {
        Block block;
        block.ev.push_back(Event{time, delta, idx});
        block.deltaSum = delta;
        blocks.push_back(std::move(block));
        rebuildFenwickFrom(0);
        return;
    }
    // Insert after every equal-time event. A boundary position (the
    // head of a block) becomes an append to the previous block, so
    // monotone insertion degenerates to push_back on the last block.
    Pos p = upperBound(time);
    std::size_t b = p.block;
    std::size_t off = p.off;
    if (off == 0 && b > 0) {
        --b;
        off = blocks[b].ev.size();
    }
    std::vector<Event> &ev = blocks[b].ev;
    ev.insert(ev.begin() + static_cast<std::ptrdiff_t>(off),
              Event{time, delta, idx});
    blocks[b].deltaSum += delta;
    fenwickAdd(b, delta);
    if (ev.size() > 2 * kTargetBlockEvents)
        splitBlock(b);
}

MemoryTracker::Pos
MemoryTracker::findEvent(double time, double delta,
                         std::size_t idx) const
{
    // Events of one interval are found by exact time (callers pass
    // the stored interval bounds back verbatim); the delta tells a
    // zero-length interval's start event from its end event.
    Pos p = lowerBound(time);
    while (valid(p) && at(p).time == time &&
           (at(p).idx != idx || at(p).delta != delta))
        advance(p);
    if (!valid(p) || at(p).time != time)
        util::panic("memory tracker: stale event lookup");
    return p;
}

void
MemoryTracker::eraseAt(Pos p)
{
    Block &block = blocks[p.block];
    const double delta = block.ev[p.off].delta;
    block.deltaSum -= delta;
    fenwickAdd(p.block, -delta);
    block.ev.erase(block.ev.begin() +
                   static_cast<std::ptrdiff_t>(p.off));
    if (block.ev.empty()) {
        blocks.erase(blocks.begin() +
                     static_cast<std::ptrdiff_t>(p.block));
        rebuildFenwickFrom(p.block);
    }
}

void
MemoryTracker::moveEvent(double time, double delta, std::size_t idx,
                         double new_time)
{
    const Pos p = findEvent(time, delta, idx);
    // The event may stay in its block whenever new_time still sorts
    // between the neighbouring blocks: it then shifts along the
    // block, and the block's deltaSum and the Fenwick tree are
    // untouched. No query result depends on the order of equal-time
    // events (each is a sum or a max over a time prefix), so this is
    // exact even where it orders ties differently from
    // erase-plus-insert.
    const bool stays =
        (p.block == 0 ||
         blocks[p.block - 1].ev.back().time <= new_time) &&
        (p.block + 1 == blocks.size() ||
         new_time <= blocks[p.block + 1].ev.front().time);
    if (!stays) {
        eraseAt(p);
        insertEvent(new_time, delta, idx);
        return;
    }
    std::vector<Event> &ev = blocks[p.block].ev;
    std::size_t i = p.off;
    if (new_time < time) {
        for (; i > 0 && ev[i - 1].time > new_time; --i)
            ev[i] = ev[i - 1];
    } else {
        for (; i + 1 < ev.size() && ev[i + 1].time <= new_time; ++i)
            ev[i] = ev[i + 1];
    }
    ev[i] = Event{new_time, delta, idx};
}

// ------------------------------------------------------------------
// Queries
// ------------------------------------------------------------------

double
MemoryTracker::occupancy(double t, std::size_t exclude) const
{
    double total = prefixSumBefore(upperBound(t + kEps));
    if (exclude < intervals.size()) {
        const Interval &iv = intervals[exclude];
        if (iv.start <= t + kEps && iv.end > t + kEps)
            total -= iv.bytes;
    }
    return total;
}

bool
MemoryTracker::feasible(double start, double dur, double bytes,
                        std::size_t exclude) const
{
    const double end = start + dur;
    const Interval *skip =
        exclude < intervals.size() ? &intervals[exclude] : nullptr;
    // Occupancy is piecewise constant; check it at the window start
    // and at every interval start strictly inside the window. Probe
    // times only grow, so one cursor (`reach`, the first event past
    // the current probe) sweeps forward from the window's first
    // event with a running prefix sum — exact, as deltas are
    // integer-valued — instead of a fresh search and prefix read per
    // probe. The first overflowing probe decides.
    const Pos first = upperBound(start);
    Pos reach = first;
    double level = prefixSumBefore(reach);
    auto fits_at = [&](double t) {
        const double probe = t + kEps;
        for (; valid(reach) && at(reach).time <= probe; advance(reach))
            level += at(reach).delta;
        double occupied = level;
        if (skip && skip->start <= probe && skip->end > probe)
            occupied -= skip->bytes;
        return occupied + bytes <= capacity + kEps;
    };
    if (!fits_at(start))
        return false;
    for (Pos p = first; valid(p) && at(p).time < end; advance(p)) {
        const Event &e = at(p);
        if (e.delta > 0.0 && e.idx != exclude && !fits_at(e.time))
            return false;
    }
    return true;
}

double
MemoryTracker::firstFeasible(double start, double dur,
                             double bytes) const
{
    if (bytes > capacity) {
        // Cannot ever fit; caller serializes behind everything.
        double latest = start;
        for (const Interval &iv : intervals)
            latest = std::max(latest, iv.end);
        return latest;
    }
    double t = start;
    for (int guard = 0; guard < 1 << 16; ++guard) {
        if (feasible(t, dur, bytes))
            return t;
        // Jump to the next release that could lower occupancy: the
        // first end event after t on the sorted timeline.
        double next = std::numeric_limits<double>::infinity();
        for (Pos p = upperBound(t + kEps); valid(p); advance(p)) {
            if (at(p).delta < 0.0) {
                next = at(p).time;
                break;
            }
        }
        if (!std::isfinite(next))
            return t; // nothing to release; give up at t
        t = next;
    }
    util::panic("memory tracker failed to converge");
}

// ------------------------------------------------------------------
// Interval maintenance
// ------------------------------------------------------------------

void
MemoryTracker::reserve(std::size_t num_intervals)
{
    intervals.reserve(num_intervals);
    blocks.reserve(2 * num_intervals / kTargetBlockEvents + 2);
}

std::size_t
MemoryTracker::add(double start, double dur, double bytes)
{
    std::size_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
        intervals[idx] = Interval{start, start + dur, bytes};
    } else {
        idx = intervals.size();
        intervals.push_back(Interval{start, start + dur, bytes});
    }
    insertEvent(start, bytes, idx);
    insertEvent(start + dur, -bytes, idx);
    return idx;
}

std::size_t
MemoryTracker::retireBefore(double floor_cycle)
{
    if (blocks.empty())
        return 0;
    // Every candidate interval (end <= floor) has both events at
    // times <= floor, so the whole retirement lives in the event
    // prefix up to the first event with time > floor. Events in the
    // prefix owned by intervals straddling the floor (start <= floor
    // < end) survive and are re-chunked in place.
    const Pos stop = upperBound(floor_cycle);
    if (stop.block == 0 && stop.off == 0)
        return 0;
    const bool partial = stop.block < blocks.size();
    const std::size_t full_blocks = partial ? stop.block
                                            : blocks.size();
    std::vector<Event> keep;
    std::size_t removed = 0;
    auto sift = [&](const Event &e) {
        if (intervals[e.idx].end <= floor_cycle) {
            // The -bytes event is the later of the pair, so the slot
            // is freed exactly once, after its +bytes partner was
            // already sifted.
            if (e.delta < 0.0) {
                intervals[e.idx] = Interval{0.0, 0.0, 0.0};
                freeSlots.push_back(e.idx);
                ++removed;
            }
        } else {
            keep.push_back(e);
        }
    };
    for (std::size_t b = 0; b < full_blocks; ++b) {
        for (const Event &e : blocks[b].ev)
            sift(e);
    }
    if (partial) {
        const std::vector<Event> &ev = blocks[stop.block].ev;
        for (std::size_t i = 0; i < stop.off; ++i)
            sift(ev[i]);
        keep.insert(keep.end(),
                    ev.begin() + static_cast<std::ptrdiff_t>(stop.off),
                    ev.end());
    }
    if (removed == 0)
        return 0;
    std::vector<Block> rebuilt;
    for (std::size_t i = 0; i < keep.size();
         i += kTargetBlockEvents) {
        const std::size_t n =
            std::min(keep.size() - i, kTargetBlockEvents);
        Block block;
        block.ev.assign(keep.begin() + static_cast<std::ptrdiff_t>(i),
                        keep.begin() +
                            static_cast<std::ptrdiff_t>(i + n));
        for (const Event &e : block.ev)
            block.deltaSum += e.delta;
        rebuilt.push_back(std::move(block));
    }
    const std::size_t suffix = full_blocks + (partial ? 1 : 0);
    for (std::size_t b = suffix; b < blocks.size(); ++b)
        rebuilt.push_back(std::move(blocks[b]));
    blocks = std::move(rebuilt);
    rebuildFenwickFrom(0);
    return removed;
}

void
MemoryTracker::move(std::size_t idx, double new_start)
{
    Interval &iv = intervals.at(idx);
    const double new_end = new_start + (iv.end - iv.start);
    moveEvent(iv.start, iv.bytes, idx, new_start);
    moveEvent(iv.end, -iv.bytes, idx, new_end);
    iv.start = new_start;
    iv.end = new_end;
}

} // namespace herald::sched
