#include "mem/mshr.hh"

#include <algorithm>

#include "common/log.hh"

namespace dtbl {

Mshr::Mshr(unsigned entries, unsigned merge_width)
    : entries_(entries), mergeWidth_(merge_width)
{
    lines_.reserve(entries_);
    pending_.reserve(entries_);
}

void
Mshr::prune(Cycle now)
{
    if (now < earliest_)
        return; // nothing has retired by now
    // Entry order carries no meaning (lines are unique), so a retired
    // entry is overwritten by the last one instead of shifting the rest.
    Cycle earliest = infiniteCycle;
    std::size_t n = pending_.size();
    for (std::size_t i = 0; i < n;) {
        if (pending_[i].fillDone <= now) {
            --n;
            lines_[i] = lines_[n];
            pending_[i] = pending_[n];
        } else {
            earliest = std::min(earliest, pending_[i].fillDone);
            ++i;
        }
    }
    lines_.resize(n);
    pending_.resize(n);
    earliest_ = earliest;
}

Mshr::Entry *
Mshr::lookup(Addr line)
{
    const auto it = std::find(lines_.begin(), lines_.end(), line);
    return it == lines_.end() ? nullptr
                              : &pending_[std::size_t(it - lines_.begin())];
}

Mshr::Entry *
Mshr::find(Addr line, Cycle now)
{
    prune(now);
    return lookup(line);
}

bool
Mshr::full(Cycle now)
{
    prune(now);
    return pending_.size() >= entries_;
}

Cycle
Mshr::nextFree() const
{
    DTBL_ASSERT(!pending_.empty(), "nextFree on an empty MSHR file");
    return earliest_;
}

void
Mshr::allocate(Addr line, Cycle fill_done, Cycle now)
{
    prune(now);
    DTBL_ASSERT(pending_.size() < entries_, "MSHR overflow");
    DTBL_ASSERT(lookup(line) == nullptr,
                "allocating an already-pending line");
    lines_.push_back(line);
    pending_.push_back(Entry{fill_done, 1});
    earliest_ = std::min(earliest_, fill_done);
    ++allocations_;
    PmuHistogram::note(occupancyHist_, pending_.size());
}

bool
Mshr::merge(Entry &e)
{
    if (e.requests >= mergeWidth_)
        return false;
    ++e.requests;
    ++merges_;
    return true;
}

void
Mshr::reset()
{
    lines_.clear();
    pending_.clear();
    earliest_ = infiniteCycle;
    allocations_ = 0;
    merges_ = 0;
    stallCycles_ = 0;
}

} // namespace dtbl
