/**
 * @file
 * Occupancy bookkeeping for the shared global buffer: a set of
 * (start, end, bytes) intervals with feasibility queries.
 *
 * The tracker keeps an event timeline — every interval contributes a
 * +bytes event at its start and a -bytes event at its end. Events are
 * stored in a *blocked* timeline (sqrt-decomposition): time-sorted
 * blocks of a few hundred events each, with a Fenwick tree over the
 * per-block delta sums. Occupancy at a point is a block binary
 * search, a Fenwick prefix read and one partial-block walk
 * (O(log B + block) instead of O(events) — and, unlike a flat
 * prefix array, *inserts* are also O(log B + block): a flat array
 * charges O(events-after-position) per insert, which turns
 * schedulers that commit intervals out of time order (breadth-first
 * round-robin over thousands of in-flight frames) quadratic.
 * Feasibility of a window is one forward sweep over the events
 * inside it, with a running prefix sum. move() shifts an event along
 * its block when its new time still sorts there, leaving the block
 * sums and the Fenwick tree untouched; only a move out of the block
 * pays for an erase and an insert.
 *
 * All byte counts are integer-valued doubles, so every delta sum is
 * exact and query results are bit-identical to the flat-timeline and
 * brute-force reference implementations (asserted against a
 * randomized oracle in test_parallel_dse.cc).
 *
 * Occupancy is piecewise constant and evaluated with a small epsilon
 * so zero-length touches at interval boundaries don't double-count:
 * an interval [s, e) covers t iff s <= t + eps < ... < e.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace herald::sched
{

/** See file comment. */
class MemoryTracker
{
  public:
    explicit MemoryTracker(std::uint64_t capacity_bytes)
        : capacity(static_cast<double>(capacity_bytes))
    {
    }

    struct Interval
    {
        double start;
        double end;
        double bytes;
    };

    /**
     * Whether adding @p bytes over [start, start+dur) keeps occupancy
     * within capacity. @p exclude skips one interval (for moves).
     */
    bool feasible(double start, double dur, double bytes,
                  std::size_t exclude = SIZE_MAX) const;

    /**
     * Earliest time >= @p start at which [t, t+dur) with @p bytes is
     * feasible; advances over interval end events.
     */
    double firstFeasible(double start, double dur,
                         double bytes) const;

    /**
     * Pre-size the interval and block storage for @p num_intervals
     * upcoming add() calls — schedulers know the layer count up
     * front, and a 10k-frame run would otherwise regrow the timeline
     * dozens of times.
     */
    void reserve(std::size_t num_intervals);

    /** Track a new interval; returns its index (for move/exclude). */
    std::size_t add(double start, double dur, double bytes);

    /** Retime interval @p idx to begin at @p new_start. */
    void move(std::size_t idx, double new_start);

    /**
     * Drop every interval whose end is <= @p floor_cycle and free its
     * slot for reuse by add(). Callers must guarantee that every
     * future query (occupancy / feasible / firstFeasible) starts at
     * or after @p floor_cycle and that retired indices are never
     * passed to move()/exclude again: a retired interval then
     * contributes both its +bytes and -bytes event to every prefix a
     * query can read, so removing the pair leaves all results
     * bit-identical. The online scheduler calls this with its
     * monotone retirement floor (no committed work can start before
     * it) when it does not retain its schedule. Returns the number of
     * intervals retired.
     */
    std::size_t retireBefore(double floor_cycle);

    /** Occupancy at time @p t, optionally excluding one interval. */
    double occupancy(double t, std::size_t exclude = SIZE_MAX) const;

    std::size_t numIntervals() const { return intervals.size(); }

    /** Intervals still on the timeline (slots minus retired). */
    std::size_t
    liveIntervals() const
    {
        return intervals.size() - freeSlots.size();
    }

  private:
    /** +bytes at an interval start, -bytes at its end. */
    struct Event
    {
        double time;
        double delta;
        std::size_t idx; //!< owning interval
    };

    /** One run of the time-sorted timeline (never empty). */
    struct Block
    {
        std::vector<Event> ev;
        double deltaSum = 0.0;
    };

    /** Split threshold; blocks grow to at most twice this. */
    static constexpr std::size_t kTargetBlockEvents = 256;

    /** Global event position: block index + offset inside it. */
    struct Pos
    {
        std::size_t block;
        std::size_t off;
    };

    double capacity;
    std::vector<Interval> intervals;
    std::vector<std::size_t> freeSlots; //!< retired interval slots
    std::vector<Block> blocks;   //!< time-ordered, all non-empty
    std::vector<double> fenwick; //!< 1-based BIT over block deltaSums

    bool
    valid(Pos p) const
    {
        return p.block < blocks.size();
    }

    const Event &
    at(Pos p) const
    {
        return blocks[p.block].ev[p.off];
    }

    void
    advance(Pos &p) const
    {
        if (++p.off == blocks[p.block].ev.size()) {
            ++p.block;
            p.off = 0;
        }
    }

    /** First event position with time > @p t (end position if none). */
    Pos upperBound(double t) const;
    /** First event position with time >= @p t. */
    Pos lowerBound(double t) const;

    /** Sum of every event delta strictly before position @p p. */
    double prefixSumBefore(Pos p) const;

    /** Position of @p idx's event with this exact time and delta. */
    Pos findEvent(double time, double delta, std::size_t idx) const;
    void insertEvent(double time, double delta, std::size_t idx);
    void eraseAt(Pos p);
    /** Retime one event, in place when it can stay in its block. */
    void moveEvent(double time, double delta, std::size_t idx,
                   double new_time);
    void splitBlock(std::size_t b);

    /** Recompute the Fenwick nodes that cover blocks >= @p b. */
    void rebuildFenwickFrom(std::size_t b);
    void fenwickAdd(std::size_t block, double delta);
    double fenwickPrefix(std::size_t block) const; //!< blocks [0, b)
};

} // namespace herald::sched

