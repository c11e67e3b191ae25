/**
 * @file
 * GDDR5-like DRAM timing model with per-partition buses and per-bank
 * row-buffer state, plus the activity/commands counters used for the
 * paper's DRAM-efficiency metric (Figure 7).
 */

#ifndef DTBL_MEM_DRAM_HH
#define DTBL_MEM_DRAM_HH

#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "stats/pmu.hh"
#include "stats/trace.hh"

namespace dtbl {

class Dram
{
  public:
    explicit Dram(const DramConfig &cfg, std::uint32_t line_bytes,
                  TraceSink *trace = nullptr, Pmu *pmu = nullptr);

    /**
     * Issue one line-sized command and return its completion cycle.
     * @param addr line-aligned device address
     * @param is_write write command (no response data needed)
     * @param now issue cycle. Calls do not arrive in time order: the
     *        contended path issues at MSHR back-pressured cycles that can
     *        lie past the cycle of a later call. Bank and bus state only
     *        move forward (max with readyUntil/busUntil), so a request
     *        that arrives after a later-issued one queues behind it, and
     *        the activity union (BusyTracker) skips any gap before its
     *        coverage watermark that such a request would have filled.
     */
    Cycle access(Addr addr, bool is_write, Cycle now);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

    /** Union of cycles with a pending request, over all partitions. */
    Cycle activityCycles() const;

    /** Row-buffer hit-rate (for tests/ablation). */
    double rowHitRate() const;

    void reset();

  private:
    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyUntil = 0;
    };

    struct Partition
    {
        std::vector<Bank> banks;
        Cycle busUntil = 0;
        BusyTracker activity;
    };

    DramConfig cfg_;
    std::uint32_t lineBytes_;
    TraceSink *trace_;
    std::vector<Partition> partitions_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace dtbl

#endif // DTBL_MEM_DRAM_HH
