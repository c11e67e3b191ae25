/**
 * @file
 * Unit tests for the memory subsystem: backing store, caches, DRAM
 * timing model, the coalescer (including parameterized
 * pattern-property sweeps), MSHRs and the contended memory system —
 * plus the flat-path invariance goldens that pin
 * modelMemContention=false to the pre-MSHR model bit for bit.
 */

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "common/rng.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"
#include "mem/global_memory.hh"
#include "mem/memory_system.hh"
#include "mem/mshr.hh"
#include "stats/pmu.hh"

using namespace dtbl;

// --- GlobalMemory -----------------------------------------------------

TEST(GlobalMemory, ReadWriteWidths)
{
    GlobalMemory mem(1 << 16);
    const Addr a = mem.allocate(64);
    mem.write32(a, 0xdeadbeef);
    EXPECT_EQ(mem.read32(a), 0xdeadbeefu);
    EXPECT_EQ(mem.read16(a), 0xbeefu);
    EXPECT_EQ(mem.read8(a), 0xefu);
    mem.write8(a + 1, 0x11);
    EXPECT_EQ(mem.read32(a), 0xdead11efu);
    mem.write16(a + 2, 0x2233);
    EXPECT_EQ(mem.read32(a), 0x223311efu);
}

TEST(GlobalMemory, FloatRoundTrip)
{
    GlobalMemory mem(1 << 16);
    const Addr a = mem.allocate(16);
    mem.writeF32(a, 3.25f);
    EXPECT_EQ(mem.readF32(a), 3.25f);
}

TEST(GlobalMemory, AllocationAlignment)
{
    GlobalMemory mem(1 << 20);
    const Addr a = mem.allocate(10, 256);
    const Addr b = mem.allocate(10, 256);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(GlobalMemory, NullAndOobAccessPanics)
{
    GlobalMemory mem(1 << 12);
    EXPECT_THROW(mem.read32(0), std::logic_error);
    EXPECT_THROW(mem.read32((1 << 12) - 2), std::logic_error);
}

TEST(GlobalMemory, OutOfMemoryIsFatal)
{
    GlobalMemory mem(4096);
    EXPECT_THROW(mem.allocate(1 << 20), std::runtime_error);
}

TEST(GlobalMemory, FreshMemoryReadsZeroToTheLastByte)
{
    // Backed by calloc: untouched pages must still read as zero.
    constexpr std::uint64_t size = 1 << 20;
    GlobalMemory mem(size);
    EXPECT_EQ(mem.size(), size);
    EXPECT_EQ(mem.read32(256), 0u);
    EXPECT_EQ(mem.read32(size / 2 + 4), 0u);
    EXPECT_EQ(mem.read32(size - 4), 0u);
    EXPECT_EQ(mem.read8(size - 1), 0u);
    mem.write8(size - 1, 0x5a);
    EXPECT_EQ(mem.read8(size - 1), 0x5au);
    EXPECT_THROW(mem.read8(size), std::logic_error);
}

TEST(GlobalMemory, FourGigabytesIsRejectedBeforeAllocating)
{
    // Device addresses are 32-bit.
    EXPECT_THROW(GlobalMemory(1ull << 32), std::logic_error);
}

TEST(GlobalMemory, UploadDownloadRoundTrip)
{
    GlobalMemory mem(1 << 16);
    std::vector<std::uint32_t> v{1, 2, 3, 42};
    const Addr a = mem.upload(v);
    EXPECT_EQ(mem.download<std::uint32_t>(a, 4), v);
}

// --- BusyTracker --------------------------------------------------------

TEST(BusyTracker, DisjointIntervalsSum)
{
    BusyTracker t;
    t.record(10, 20);
    t.record(30, 35);
    EXPECT_EQ(t.busyCycles(), 15u);
}

TEST(BusyTracker, OverlapCountedOnce)
{
    BusyTracker t;
    t.record(10, 20);
    t.record(15, 25);
    t.record(18, 22);
    EXPECT_EQ(t.busyCycles(), 15u);
}

TEST(BusyTracker, ContainedIntervalAddsNothing)
{
    BusyTracker t;
    t.record(10, 100);
    t.record(20, 50);
    EXPECT_EQ(t.busyCycles(), 90u);
}

TEST(BusyTracker, EmptyIntervalIgnored)
{
    BusyTracker t;
    t.record(5, 5);
    EXPECT_EQ(t.busyCycles(), 0u);
}

// --- Cache -----------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    Cache c({1024, 128, 2, 10}, Cache::WritePolicy::WriteThrough);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1040, false).hit); // same 128B line
}

TEST(Cache, LruEviction)
{
    // 2-way, 4 sets of 128B lines: addresses mapping to set 0 are
    // multiples of 512.
    Cache c({1024, 128, 2, 10}, Cache::WritePolicy::WriteThrough);
    c.access(0 * 512 + 0x10000, false);
    c.access(1 * 512 + 0x10000, false);
    c.access(0 * 512 + 0x10000, false);     // refresh way 0
    c.access(2 * 512 + 0x10000, false);     // evicts the LRU (1*512)
    EXPECT_TRUE(c.access(0 * 512 + 0x10000, false).hit);
    EXPECT_FALSE(c.access(1 * 512 + 0x10000, false).hit);
}

TEST(Cache, WriteThroughDoesNotAllocate)
{
    Cache c({1024, 128, 2, 10}, Cache::WritePolicy::WriteThrough);
    EXPECT_FALSE(c.access(0x2000, true).hit);
    EXPECT_FALSE(c.access(0x2000, false).hit); // still not present
}

TEST(Cache, WriteBackAllocatesAndWritesBackDirty)
{
    Cache c({512, 128, 1, 10}, Cache::WritePolicy::WriteBack); // 4 sets
    EXPECT_FALSE(c.access(0x0000, true).hit); // allocate dirty
    EXPECT_TRUE(c.access(0x0000, false).hit);
    // Conflicting line in the same set (4 sets * 128B = 512B stride).
    const auto res = c.access(0x0000 + 512, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0x0000u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c({512, 128, 1, 10}, Cache::WritePolicy::WriteBack);
    c.access(0x0000, false);
    const auto res = c.access(0x0000 + 512, false);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.writeback);
}

TEST(Cache, MarkDirtyCausesWritebackOnEviction)
{
    Cache c({512, 128, 1, 10}, Cache::WritePolicy::WriteBack);
    c.access(0x0000, false); // clean fill
    c.markDirty(0x0000);
    const auto res = c.access(0x0000 + 512, false);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0x0000u);
}

TEST(Cache, MarkDirtyOnAbsentLineIsNoOp)
{
    Cache c({512, 128, 1, 10}, Cache::WritePolicy::WriteBack);
    c.markDirty(0x4000);
    EXPECT_FALSE(c.access(0x4000, false).hit); // was never allocated
    // ... and the clean fill above writes nothing back when evicted.
    EXPECT_FALSE(c.access(0x4000 + 512, false).writeback);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c({1024, 128, 2, 10}, Cache::WritePolicy::WriteBack);
    c.access(0x3000, false);
    c.invalidate(0x3000);
    EXPECT_FALSE(c.access(0x3000, false).hit);
}

// --- DRAM --------------------------------------------------------------

TEST(Dram, RowHitFasterThanRowMiss)
{
    DramConfig cfg;
    Dram dram(cfg, 128);
    const Cycle miss = dram.access(0, false, 0);
    // Same row: consecutive line in the same partition needs stride
    // of numPartitions lines.
    const Cycle hit =
        dram.access(128ull * cfg.numPartitions, false, miss) - miss;
    EXPECT_GT(miss, hit);
}

TEST(Dram, CountsReadsAndWrites)
{
    Dram dram(DramConfig{}, 128);
    dram.access(0, false, 0);
    dram.access(128, true, 1);
    dram.access(256, false, 2);
    EXPECT_EQ(dram.reads(), 2u);
    EXPECT_EQ(dram.writes(), 1u);
}

TEST(Dram, ActivityCoversServiceTime)
{
    Dram dram(DramConfig{}, 128);
    const Cycle end = dram.access(0, false, 100);
    EXPECT_EQ(dram.activityCycles(), end - 100);
}

TEST(Dram, BusSerializesSamePartition)
{
    DramConfig cfg;
    Dram dram(cfg, 128);
    // Two simultaneous requests to the same partition: the second ends
    // at least burstCycles later.
    const Cycle e1 = dram.access(0, false, 0);
    const Cycle e2 =
        dram.access(128ull * cfg.numPartitions, false, 0);
    EXPECT_GE(e2, e1 + cfg.burstCycles);
}

TEST(Dram, PartitionsOperateInParallel)
{
    DramConfig cfg;
    Dram dram(cfg, 128);
    const Cycle e1 = dram.access(0, false, 0);
    const Cycle e2 = dram.access(128, false, 0); // next partition
    // Different partitions: same completion profile, no serialization.
    EXPECT_EQ(e1, e2);
}

TEST(Dram, StreamingHasHighRowHitRate)
{
    Dram dram(DramConfig{}, 128);
    Cycle now = 0;
    for (Addr a = 0; a < 256 * 128; a += 128)
        now = dram.access(a, false, now);
    EXPECT_GT(dram.rowHitRate(), 0.5);
}

TEST(Dram, RandomAccessHasLowRowHitRate)
{
    Dram dram(DramConfig{}, 128);
    Rng rng(3);
    Cycle now = 0;
    for (int i = 0; i < 256; ++i) {
        now = dram.access(rng.nextBounded(1 << 26) * 128ull, false, now);
    }
    EXPECT_LT(dram.rowHitRate(), 0.3);
}

// --- Coalescer (parameterized pattern properties) ------------------------

struct CoalescePattern
{
    const char *name;
    unsigned stride;        //!< bytes between consecutive lanes
    unsigned expectedSegs;  //!< for a full warp of 4B accesses
};

// Without this, gtest prints the parameter as raw bytes, which include the
// address of `name`; the discovered ctest names then change with every
// build. Printing the name keeps them stable.
void
PrintTo(const CoalescePattern &p, std::ostream *os)
{
    *os << p.name;
}

class CoalescerPatterns : public ::testing::TestWithParam<CoalescePattern>
{
};

TEST_P(CoalescerPatterns, SegmentCountMatches)
{
    const auto &p = GetParam();
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = 0x40000 + Addr(i) * p.stride;
    const auto segs = c.coalesce(addrs, fullMask, 4);
    EXPECT_EQ(segs.size(), p.expectedSegs) << p.name;
    for (Addr s : segs)
        EXPECT_EQ(s % 128, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, CoalescerPatterns,
    ::testing::Values(CoalescePattern{"unit", 4, 1},
                      CoalescePattern{"stride2", 8, 2},
                      CoalescePattern{"stride32B", 32, 8},
                      CoalescePattern{"stride128B", 128, 32},
                      CoalescePattern{"same_addr", 0, 1}),
    [](const auto &info) { return info.param.name; });

TEST(Coalescer, InactiveLanesIgnored)
{
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = Addr(i) * 128; // worst case: one segment per lane
    const auto segs = c.coalesce(addrs, 0x0000000f, 4);
    EXPECT_EQ(segs.size(), 4u);
}

TEST(Coalescer, EmptyMaskProducesNothing)
{
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    EXPECT_TRUE(c.coalesce(addrs, 0, 4).empty());
}

TEST(Coalescer, StraddlingAccessTouchesTwoSegments)
{
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    addrs[0] = 126; // 4B access crossing the 128B boundary
    const auto segs = c.coalesce(addrs, 1, 4);
    EXPECT_EQ(segs.size(), 2u);
}

TEST(Coalescer, EveryLaneStraddlingFillsTheInlineList)
{
    // Worst case: 32 lanes, each straddling its own boundary, touch
    // 64 distinct segments, exactly SegmentList::capacity, in lane order.
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = Addr(i) * 256 + 126;
    const SegmentList segs = c.coalesce(addrs, fullMask, 4);
    ASSERT_EQ(segs.size(), SegmentList::capacity);
    for (unsigned i = 0; i < warpSize; ++i) {
        EXPECT_EQ(segs[2 * i], Addr(i) * 256);
        EXPECT_EQ(segs[2 * i + 1], Addr(i) * 256 + 128);
    }
}

TEST(Coalescer, DeduplicatesAcrossLanes)
{
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = 0x1000 + (i % 2) * 128;
    EXPECT_EQ(c.coalesce(addrs, fullMask, 4).size(), 2u);
}

// --- MSHR file ----------------------------------------------------------

TEST(Mshr, MergeWidthExhausts)
{
    Mshr m(4, 2); // one merge slot besides the primary miss
    m.allocate(7, 100, 0);
    Mshr::Entry *e = m.find(7, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(m.merge(*e));
    EXPECT_FALSE(m.merge(*e));
    EXPECT_EQ(m.merges(), 1u);
    EXPECT_EQ(m.allocations(), 1u);
}

TEST(Mshr, RetiredEntriesPruneAndFree)
{
    Mshr m(2, 8);
    m.allocate(1, 50, 0);
    m.allocate(2, 80, 0);
    EXPECT_TRUE(m.full(0));
    EXPECT_EQ(m.nextFree(), 50u);
    EXPECT_EQ(m.find(1, 50), nullptr); // retired at its fillDone
    EXPECT_FALSE(m.full(50));
    EXPECT_NE(m.find(2, 50), nullptr); // still in flight
}

TEST(Mshr, PruneAtALaterCycleDropsFillsForEarlierFinds)
{
    // Calls on one file do not arrive in time order (allocate prunes at
    // a back-pressured issue cycle). A prune drops every fill retired by
    // its cycle, and a later find at an earlier cycle does not see it.
    Mshr m(4, 8);
    m.allocate(1, 100, 0);
    m.allocate(2, 300, 0);
    EXPECT_NE(m.find(1, 50), nullptr);
    EXPECT_FALSE(m.full(150)); // retires line 1
    EXPECT_EQ(m.find(1, 50), nullptr); // in flight at 50, but dropped
    EXPECT_NE(m.find(2, 50), nullptr);
    EXPECT_EQ(m.nextFree(), 300u);
}

TEST(Mshr, NextFreeFollowsAllocateAndPrune)
{
    Mshr m(3, 8);
    m.allocate(1, 500, 0);
    m.allocate(2, 200, 0);
    m.allocate(3, 400, 0);
    EXPECT_TRUE(m.full(0));
    EXPECT_EQ(m.nextFree(), 200u); // lowered by the second allocate
    EXPECT_FALSE(m.full(200));
    EXPECT_EQ(m.nextFree(), 400u); // recomputed by the retiring prune
    m.allocate(4, 300, 200);
    EXPECT_EQ(m.nextFree(), 300u);
    m.reset();
    EXPECT_FALSE(m.full(0));
    EXPECT_EQ(m.find(4, 0), nullptr);
}

namespace {

/**
 * Reference MSHR file: the original std::map algorithm, where every call
 * prunes by walking the whole map. The differential test below holds
 * the flat file to it call for call.
 */
class MapMshr
{
  public:
    MapMshr(unsigned entries, unsigned merge_width)
        : entries_(entries), mergeWidth_(merge_width)
    {
    }

    Mshr::Entry *
    find(Addr line, Cycle now)
    {
        prune(now);
        auto it = inflight_.find(line);
        return it == inflight_.end() ? nullptr : &it->second;
    }

    bool
    full(Cycle now)
    {
        prune(now);
        return inflight_.size() >= entries_;
    }

    Cycle
    nextFree() const
    {
        Cycle earliest = infiniteCycle;
        for (const auto &[line, e] : inflight_)
            earliest = std::min(earliest, e.fillDone);
        return earliest;
    }

    /** Returns the occupancy the flat file notes in its histogram. */
    std::size_t
    allocate(Addr line, Cycle fill_done, Cycle now)
    {
        prune(now);
        EXPECT_LT(inflight_.size(), entries_);
        EXPECT_EQ(inflight_.count(line), 0u);
        inflight_.emplace(line, Mshr::Entry{fill_done, 1});
        ++allocations_;
        return inflight_.size();
    }

    bool
    merge(Mshr::Entry &e)
    {
        if (e.requests >= mergeWidth_)
            return false;
        ++e.requests;
        ++merges_;
        return true;
    }

    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }

  private:
    void
    prune(Cycle now)
    {
        std::erase_if(inflight_,
                      [now](const auto &kv) { return kv.second.fillDone <= now; });
    }

    unsigned entries_;
    unsigned mergeWidth_;
    std::map<Addr, Mshr::Entry> inflight_;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
};

/** (entries, merge width) */
using MshrShape = std::pair<unsigned, unsigned>;

class MshrDifferential : public ::testing::TestWithParam<MshrShape>
{
};

} // namespace

TEST_P(MshrDifferential, MatchesMapReferenceUnderOutOfOrderTime)
{
    const auto [entries, width] = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        Mshr flat(entries, width);
        MapMshr ref(entries, width);
        PmuHistogram occ;
        flat.setOccupancyHistogram(&occ);
        Rng rng(seed * 7919 + entries + width);
        // A line pool ~3x the file so misses, merges and exhaustion all
        // occur; fills take 50-850 cycles so the file is often full.
        const Addr pool = 3 * entries;
        Cycle now = 1000;
        std::uint64_t fullSeen = 0, backwards = 0;
        for (unsigned step = 0; step < 20000; ++step) {
            // Time mostly advances, sometimes jumps back (as the
            // issue-cycle prune of allocate makes it do in the model).
            if (rng.nextBool(0.1)) {
                const Cycle back = rng.nextBounded(100);
                now = now > back ? now - back : 0;
                ++backwards;
            } else {
                now += rng.nextBounded(16);
            }
            const Addr line = rng.nextBounded(pool);
            const unsigned op = unsigned(rng.nextBounded(10));
            if (op < 7) {
                // Load-shaped sequence: find, then merge or allocate.
                Mshr::Entry *f = flat.find(line, now);
                Mshr::Entry *r = ref.find(line, now);
                ASSERT_EQ(f == nullptr, r == nullptr) << "step " << step;
                if (f) {
                    ASSERT_EQ(f->fillDone, r->fillDone);
                    ASSERT_EQ(f->requests, r->requests);
                    ASSERT_EQ(flat.merge(*f), ref.merge(*r));
                } else {
                    Cycle issue = now + rng.nextBounded(40);
                    const bool fFull = flat.full(now);
                    ASSERT_EQ(fFull, ref.full(now)) << "step " << step;
                    if (fFull) {
                        ++fullSeen;
                        ASSERT_EQ(flat.nextFree(), ref.nextFree());
                        issue = std::max(issue, flat.nextFree());
                    }
                    const Cycle fill = issue + 50 + rng.nextBounded(800);
                    const std::uint64_t before = occ.sum();
                    const std::size_t refOcc =
                        ref.allocate(line, fill, issue);
                    flat.allocate(line, fill, issue);
                    ASSERT_EQ(occ.sum() - before, refOcc)
                        << "step " << step;
                }
            } else if (op < 9) {
                // A bare probe at a cycle near now, either side of it.
                const Cycle t = now + rng.nextBounded(200);
                const Cycle probe = t > 100 ? t - 100 : 0;
                const bool fFull = flat.full(probe);
                ASSERT_EQ(fFull, ref.full(probe)) << "step " << step;
                if (fFull) {
                    ASSERT_EQ(flat.nextFree(), ref.nextFree());
                }
            } else {
                Mshr::Entry *f = flat.find(line, now);
                Mshr::Entry *r = ref.find(line, now);
                ASSERT_EQ(f == nullptr, r == nullptr) << "step " << step;
                if (f) {
                    ASSERT_EQ(f->fillDone, r->fillDone);
                }
            }
            ASSERT_EQ(flat.allocations(), ref.allocations());
            ASSERT_EQ(flat.merges(), ref.merges());
        }
        EXPECT_EQ(occ.count(), flat.allocations());
        // The stream must reach the regimes it exists to compare.
        EXPECT_GT(fullSeen, 100u);
        EXPECT_GT(backwards, 1000u);
        if (width > 1) {
            EXPECT_GT(flat.merges(), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    L1AndL2Shapes, MshrDifferential,
    ::testing::Values(MshrShape{32, 1}, MshrShape{32, 2}, MshrShape{32, 8},
                      MshrShape{128, 1}, MshrShape{128, 2},
                      MshrShape{128, 8}),
    [](const ::testing::TestParamInfo<MshrShape> &info) {
        return "e" + std::to_string(info.param.first) + "_w" +
               std::to_string(info.param.second);
    });

// --- MemorySystem contention path ---------------------------------------

TEST(MemorySystem, SecondaryMissMergesOntoPendingFill)
{
    GpuConfig cfg = GpuConfig::k20c();
    SimStats stats;
    MemorySystem ms(cfg, stats, nullptr, nullptr);
    const Cycle d1 = ms.load(0, 0x10000, 0);
    const Cycle d2 = ms.load(0, 0x10000, 1); // same line, fill pending
    EXPECT_EQ(stats.l1MshrMerges, 1u);
    EXPECT_EQ(stats.l1Misses, 1u); // the merge is neither hit nor miss
    EXPECT_EQ(stats.l1Hits, 0u);
    EXPECT_EQ(d2, d1); // completes with the fill, no second round trip
    ms.finalizeInto(stats);
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST(MemorySystem, MshrExhaustionBackPressures)
{
    GpuConfig cfg = GpuConfig::k20c();
    cfg.l1MshrEntries = 1;
    SimStats stats;
    MemorySystem ms(cfg, stats, nullptr, nullptr);
    const Cycle d1 = ms.load(0, 0x10000, 0);
    const Cycle d2 = ms.load(0, 0x20000, 1); // different line, file full
    EXPECT_GT(stats.mshrStallCycles, 0u);
    EXPECT_GT(d2, d1); // could not issue before the first entry retired
    ms.finalizeInto(stats);
    EXPECT_EQ(stats.dramReads, 2u); // both are primary misses
}

TEST(MemorySystem, SingleBankSerializesConcurrentAccesses)
{
    GpuConfig cfg = GpuConfig::k20c();
    cfg.l2Banks = 1;
    SimStats stats;
    MemorySystem ms(cfg, stats, nullptr, nullptr);
    const Cycle d1 = ms.load(0, 0x10000, 0);
    const Cycle d2 = ms.load(1, 0x20000, 0); // other SMX, same cycle
    EXPECT_GE(stats.l2BankConflicts, 1u);
    EXPECT_EQ(ms.bankConflicts(0), stats.l2BankConflicts);
    EXPECT_GT(d2, d1); // port grant pushed behind the first access
}

TEST(MemorySystem, FlatPathHasNoContentionEffects)
{
    GpuConfig cfg = GpuConfig::k20c();
    cfg.modelMemContention = false;
    SimStats stats;
    MemorySystem ms(cfg, stats, nullptr, nullptr);
    ms.load(0, 0x10000, 0);
    ms.load(0, 0x10000, 1); // fake-hits on the tag allocated at miss
    ms.load(1, 0x20000, 1);
    EXPECT_EQ(stats.l1MshrMerges, 0u);
    EXPECT_EQ(stats.l2MshrMerges, 0u);
    EXPECT_EQ(stats.mshrStallCycles, 0u);
    EXPECT_EQ(stats.l2BankConflicts, 0u);
    EXPECT_EQ(stats.l1Hits, 1u);
    EXPECT_EQ(stats.l1Misses, 2u);
}

// --- contention model at the application level --------------------------

TEST(MemContentionModel, MergesOccurOnIrregularApps)
{
    for (const char *bench : {"bfs_citation", "amr_combustion"}) {
        auto app = makeBenchmark(bench);
        const BenchResult r = runBenchmark(*app, Mode::Dtbl);
        EXPECT_TRUE(r.verified) << bench;
        EXPECT_GT(r.stats.l1MshrMerges + r.stats.l2MshrMerges, 0u)
            << bench;
    }
}

namespace {

struct SeedGolden
{
    const char *bench;
    Mode mode;
    std::uint64_t cycles;
    std::uint64_t traceHash;
};

/**
 * Cycles and trace hashes of the pre-MSHR (flat-latency) model for the
 * eight Table 4 families, captured at the commit that introduced
 * modelMemContention. The flag's off position must reproduce these bit
 * for bit; any drift means the flat path was perturbed.
 */
const SeedGolden kSeedGoldens[] = {
    {"amr_combustion", Mode::Flat, 97119, 0x8eeb232db4654af6},
    {"amr_combustion", Mode::CdpIdeal, 15272, 0xe8af8cf1d8e7769c},
    {"amr_combustion", Mode::DtblIdeal, 3988, 0xbf201e8a2350d368},
    {"amr_combustion", Mode::Cdp, 267801, 0x3a21314aadb97435},
    {"amr_combustion", Mode::Dtbl, 38999, 0xf71a0063c97e25ee},
    {"bht", Mode::Flat, 2079138, 0x7a60dd974e73c7d3},
    {"bht", Mode::CdpIdeal, 2629705, 0x401d61812a9d3a00},
    {"bht", Mode::DtblIdeal, 1227420, 0x18543df16ef55f5f},
    {"bht", Mode::Cdp, 5084263, 0x3c945bbb54cbfc1f},
    {"bht", Mode::Dtbl, 1924180, 0xebb9b5a10d1015ce},
    {"bfs_citation", Mode::Flat, 209754, 0x6232bb7ad7df69f4},
    {"bfs_citation", Mode::CdpIdeal, 59873, 0xc02fff73671d8438},
    {"bfs_citation", Mode::DtblIdeal, 54465, 0xef547c4a343e5c2d},
    {"bfs_citation", Mode::Cdp, 237391, 0xb0076d41916b6de9},
    {"bfs_citation", Mode::Dtbl, 103834, 0x55c5d22d266c2635},
    {"clr_citation", Mode::Flat, 3750824, 0xa3318da932e881c0},
    {"clr_citation", Mode::CdpIdeal, 1375895, 0xbfc43ca3b06a7ebe},
    {"clr_citation", Mode::DtblIdeal, 1351436, 0xc0a61aa59a26464e},
    {"clr_citation", Mode::Cdp, 3234870, 0xcb2e2be934fc5fe4},
    {"clr_citation", Mode::Dtbl, 1771640, 0x6a9b64e16299b94c},
    {"regx_darpa", Mode::Flat, 196610, 0x545b94e080975c82},
    {"regx_darpa", Mode::CdpIdeal, 154667, 0x1d4ddad791f856e5},
    {"regx_darpa", Mode::DtblIdeal, 127835, 0x4995e9c4075e20f2},
    {"regx_darpa", Mode::Cdp, 211122, 0x56b8f4e06edcdddc},
    {"regx_darpa", Mode::Dtbl, 135978, 0xa041b85e82aedc27},
    {"pre_movielens", Mode::Flat, 583419, 0x667f900d5460c76f},
    {"pre_movielens", Mode::CdpIdeal, 156199, 0x9983a9ffd0b95660},
    {"pre_movielens", Mode::DtblIdeal, 75750, 0x759933a3d8264873},
    {"pre_movielens", Mode::Cdp, 270668, 0xeb51f56ff3e9dca2},
    {"pre_movielens", Mode::Dtbl, 142193, 0x304af1a717156cb4},
    {"join_uniform", Mode::Flat, 4967, 0x7f09dd041337d4f7},
    {"join_uniform", Mode::CdpIdeal, 4686, 0x3f0b5c6bf421a03a},
    {"join_uniform", Mode::DtblIdeal, 4686, 0x3f0b5c6bf421a03a},
    {"join_uniform", Mode::Cdp, 4969, 0x72f0f1287930d4c5},
    {"join_uniform", Mode::Dtbl, 4969, 0x72f0f1287930d4c5},
    {"sssp_citation", Mode::Flat, 537158, 0xde216edf43476437},
    {"sssp_citation", Mode::CdpIdeal, 171464, 0x90ea850f59a2be67},
    {"sssp_citation", Mode::DtblIdeal, 160476, 0xd40cf1bb63ba2746},
    {"sssp_citation", Mode::Cdp, 538671, 0xf44a2199e52141cb},
    {"sssp_citation", Mode::Dtbl, 252186, 0xedef31ce486db519},
};

} // namespace

class FlatPathGoldens : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FlatPathGoldens, ContentionOffReproducesSeedBitForBit)
{
    GpuConfig cfg = GpuConfig::k20c();
    cfg.modelMemContention = false;
    for (const SeedGolden &g : kSeedGoldens) {
        if (std::string(g.bench) != GetParam())
            continue;
        auto app = makeBenchmark(g.bench);
        const BenchResult r = runBenchmark(*app, g.mode, cfg);
        EXPECT_TRUE(r.verified) << g.bench << " " << modeName(g.mode);
        EXPECT_EQ(r.report.cycles, g.cycles)
            << g.bench << " " << modeName(g.mode);
        EXPECT_EQ(r.trace.hash, g.traceHash)
            << g.bench << " " << modeName(g.mode);
        // Contention machinery must be fully inert when switched off.
        EXPECT_EQ(r.stats.l1MshrMerges + r.stats.l2MshrMerges, 0u);
        EXPECT_EQ(r.stats.mshrStallCycles, 0u);
        EXPECT_EQ(r.stats.l2BankConflicts, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seed, FlatPathGoldens,
    ::testing::Values("amr_combustion", "bht", "bfs_citation",
                      "clr_citation", "regx_darpa", "pre_movielens",
                      "join_uniform", "sssp_citation"),
    [](const auto &info) { return std::string(info.param); });
