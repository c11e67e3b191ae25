#include "mem/coalescer.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace dtbl {

void
SegmentList::addUnique(Addr base)
{
    if (std::find(begin(), end(), base) != end())
        return;
    DTBL_ASSERT(size_ < capacity, "access touches more than ", capacity,
                " segments");
    addrs_[size_++] = base;
}

Coalescer::Coalescer(std::uint32_t segment_bytes)
    : segmentShift_(unsigned(std::countr_zero(segment_bytes)))
{
    DTBL_ASSERT(std::has_single_bit(segment_bytes),
                "segment size must be a power of two: ", segment_bytes);
}

SegmentList
Coalescer::coalesce(const std::array<Addr, warpSize> &lane_addrs,
                    ActiveMask mask, unsigned width) const
{
    SegmentList segments;
    // Lanes in ascending order: the list keeps first-touch issue order.
    for (ActiveMask m = mask; m != 0; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        // An access may straddle a segment boundary (rare: unaligned);
        // cover both touched segments.
        const Addr first = lane_addrs[lane] >> segmentShift_;
        const Addr last = (lane_addrs[lane] + width - 1) >> segmentShift_;
        for (Addr seg = first; seg <= last; ++seg)
            segments.addUnique(seg << segmentShift_);
    }
    return segments;
}

} // namespace dtbl
