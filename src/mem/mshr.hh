/**
 * @file
 * Miss-status holding registers (MSHRs) for the analytic memory model.
 *
 * The memory hierarchy computes every transaction's completion cycle
 * synchronously, so an "in-flight fill" is simply a (line, fillDone)
 * pair whose fillDone lies in the future. The MSHR file tracks those
 * pairs with a bounded entry count:
 *  - a second request to a line whose fill is pending *merges* onto the
 *    pending entry and completes when the fill does, instead of paying
 *    a second L2/DRAM round trip;
 *  - a primary miss arriving while every entry is occupied waits for
 *    the earliest entry to retire (MSHR exhaustion back-pressure), and
 *    the wait is accounted in stallCycles();
 *  - at most mergeWidth requests (primary included) share one entry;
 *    requests beyond the width wait for the fill but count as stalls,
 *    not merges, mirroring how real secondary-miss slots run out.
 *
 * Entries are pruned lazily: every find/full/allocate presents a cycle
 * and drops each entry whose fill has retired by then (fillDone <= now).
 * Those cycles are *not* monotonic per file: allocate() prunes at the
 * request's issue cycle, which back-pressure can push past the `now` of
 * later calls, so a subsequent find() at an earlier cycle can miss a fill
 * that was still in flight at that cycle. That is the model's behaviour
 * (a dropped entry is never resurrected), and the file must keep it
 * exactly: prune(t) removes precisely the entries with fillDone <= t, in
 * whatever order the t arrive.
 *
 * Storage is two parallel flat arrays (lines, entries) reserved once to
 * the entry count, so no call allocates, plus an exact cached minimum
 * fillDone (earliest_): prune returns at once while now < earliest_,
 * allocate lowers it, and only a prune that retires something compacts
 * the arrays and recomputes it. nextFree() is that field.
 */

#ifndef DTBL_MEM_MSHR_HH
#define DTBL_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/pmu.hh"

namespace dtbl {

class Mshr
{
  public:
    struct Entry
    {
        /** Cycle the fill retires and the entry frees. */
        Cycle fillDone = 0;
        /** Requests sharing the entry, primary miss included. */
        unsigned requests = 1;
    };

    Mshr(unsigned entries, unsigned merge_width);

    /** Occupancy histogram recorded at each allocation (may be null). */
    void setOccupancyHistogram(PmuHistogram *h) { occupancyHist_ = h; }

    /**
     * The pending entry covering @p line, or nullptr when the file holds
     * none after pruning at @p now. The pointer stays valid only until
     * the next find/full/allocate/reset on this file.
     */
    Entry *find(Addr line, Cycle now);

    /** True when no entry is free at @p now. */
    bool full(Cycle now);

    /** Earliest cycle an entry frees. @pre full(now). */
    Cycle nextFree() const;

    /**
     * Occupy one entry for the fill of @p line retiring at
     * @p fill_done. @pre !full(now) after any back-pressure wait.
     */
    void allocate(Addr line, Cycle fill_done, Cycle now);

    /**
     * Attach one more request to @p e. Returns true when a merge slot
     * was available (counted in merges()); false when the entry's merge
     * width is exhausted and the request must wait for the fill without
     * sharing it (callers account the wait via noteStall()).
     */
    bool merge(Entry &e);

    /** Account @p cycles of exhaustion/merge-width back-pressure. */
    void noteStall(Cycle cycles) { stallCycles_ += cycles; }

    // --- counters -----------------------------------------------------
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }
    Cycle stallCycles() const { return stallCycles_; }

    void reset();

  private:
    /** Drop every entry with fillDone <= @p now; O(1) before earliest_. */
    void prune(Cycle now);
    /** The entry for @p line without pruning, or nullptr. */
    Entry *lookup(Addr line);

    unsigned entries_;
    unsigned mergeWidth_;
    /**
     * Pending fills, one per line, unordered: lines_[i] is pending_[i]'s
     * line. Both are reserved to entries_ and never reallocate.
     */
    std::vector<Addr> lines_;
    std::vector<Entry> pending_;
    /** min fillDone over pending_, infiniteCycle when it is empty. */
    Cycle earliest_ = infiniteCycle;
    PmuHistogram *occupancyHist_ = nullptr;

    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
    Cycle stallCycles_ = 0;
};

} // namespace dtbl

#endif // DTBL_MEM_MSHR_HH
