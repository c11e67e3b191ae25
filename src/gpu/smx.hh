/**
 * @file
 * Streaming Multiprocessor (SMX) model: resident thread blocks, warp
 * contexts, greedy-then-oldest warp schedulers, and the SIMT interpreter
 * that executes the kernel IR with PDOM-based divergence handling and a
 * coalescing memory path.
 */

#ifndef DTBL_GPU_SMX_HH
#define DTBL_GPU_SMX_HH

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "core/dtbl_scheduler.hh"
#include "gpu/thread_block.hh"
#include "gpu/warp.hh"
#include "mem/coalescer.hh"
#include "stats/pmu.hh"

namespace dtbl {

class Gpu;

class Smx
{
  public:
    Smx(unsigned id, Gpu &gpu);

    unsigned id() const { return id_; }

    /** Can a TB of this function + dynamic smem start here now? */
    bool canAccept(const KernelFunction &fn,
                   std::uint32_t dyn_smem_bytes) const;

    /** Begin executing a TB (allocates warps + resources). */
    void startTb(const TbAssignment &asg, Cycle now);

    /** Issue up to one instruction per warp scheduler; returns #issued. */
    unsigned tick(Cycle now);

    bool idle() const { return occupied_ == 0; }
    unsigned residentWarps() const
    {
        return unsigned(std::popcount(occupied_));
    }

    /**
     * Earliest readyAt among eligible (resident, not at a barrier)
     * warps, or max Cycle when none. Exact: the fast-forward jumps
     * straight to it, and tick() is a no-op before it, so the cycle
     * loop skips the tick until it (unless the PMU collects).
     */
    Cycle earliestReady() const { return nextWake_; }

    unsigned freeTbSlots() const { return freeTbSlots_; }
    unsigned freeThreads() const { return freeThreads_; }

    // --- PMU issue-stall attribution -----------------------------------
    /**
     * Attribute the skipped cycles of an idle fast-forward: the machine
     * state is frozen over the skip (no warp becomes ready inside it, or
     * the skip would have been shorter), so one classification at @p now
     * holds for all @p n cycles. Only called while pmu.collecting().
     */
    void accountSkippedCycles(Cycle now, std::uint64_t n);

    /**
     * Slot-cycles attributed to each StallReason. While profiling, the
     * entries sum to cycles-simulated * maxResidentWarpsPerSmx.
     */
    const std::array<std::uint64_t, kNumStallReasons> &
    stallSlotCycles() const
    {
        return stallSlotCycles_;
    }

    /**
     * Per-kernel split of stallSlotCycles(): row k covers slot-cycles
     * while kernel function k occupied (or, for Issued, had just
     * vacated) the slot; the last row is the idle bucket for slots no
     * kernel occupies. Rows sum reason-wise to stallSlotCycles().
     */
    const std::array<std::uint64_t, kNumStallReasons> &
    kernelStallSlotCycles(std::size_t k) const
    {
        return kernelStall_[k];
    }

  private:
    /**
     * Classify every warp slot for the cycle(s) at @p now. @p issued
     * holds the slots that issued this tick (0 for a fast-forward skip
     * or a tick that slept).
     */
    void accountStallSlots(Cycle now, std::uint64_t n, SlotMask issued);

    /** Pick a slot for scheduler @p sched (greedy-then-oldest); -1 if
     *  none is ready. */
    int pickSlot(unsigned sched, Cycle now);

    /** The warp in @p w's slot issues again at @p at, stalled on @p why
     *  until then. */
    void
    setReady(const Warp &w, Cycle at, StallReason why)
    {
        readyAt_[w.slot()] = at;
        stallClass_[w.slot()] = why;
    }

    /** Recompute nextWake_ from readyAt_ (after a tick that issued). */
    void refreshNextWake();

    /** Execute one instruction for @p warp. */
    void issue(Warp &warp, Cycle now);

    // Opcode-family handlers (functional + timing).
    void execAlu(Warp &w, const Instruction &inst, ActiveMask exec,
                 Cycle now);
    void execMemory(Warp &w, const Instruction &inst, ActiveMask exec,
                    Cycle now);
    void execBranch(Warp &w, const Instruction &inst, ActiveMask exec,
                    ActiveMask active);
    void execBarrier(Warp &w, Cycle now);
    void execExit(Warp &w, ActiveMask exec);
    void execLaunch(Warp &w, const Instruction &inst, ActiveMask exec,
                    Cycle now);

    /** One 32-bit value per lane. */
    using LaneValues = std::array<std::uint32_t, warpSize>;

    /**
     * Decode @p op once for the whole warp: a register's row in place,
     * an immediate broadcast into @p buf, or each @p exec lane's special
     * register into @p buf; None reads as zeros. Only the lanes of
     * @p exec are defined.
     */
    const std::uint32_t *operandLanes(const Warp &w, const Operand &op,
                                      ActiveMask exec,
                                      LaneValues &buf) const;

    void finishWarp(Warp &w, Cycle now);
    void finishTb(ThreadBlock &tb, Cycle now);
    void releaseBarrier(ThreadBlock &tb, Cycle now);

    unsigned id_;
    Gpu &gpu_;
    const GpuConfig &cfg_;
    Coalescer coalescer_;

    std::vector<std::unique_ptr<ThreadBlock>> tbs_;
    /** Warp contexts by SMX warp slot; null when slot free. */
    std::vector<std::unique_ptr<Warp>> warps_;
    /** Last-issued slot per scheduler (greedy part of GTO). */
    std::vector<std::int32_t> lastIssued_;

    // Per-slot scheduling state, the only copy of it (struct of arrays).
    /** Cycle the slot's warp may issue next; infiniteCycle unless the
     *  slot is eligible, so the wake-up is a plain min over the array. */
    std::array<Cycle, kMaxWarpSlots> readyAt_;
    /** Dispatch order of the slot's warp (oldest = smallest). */
    std::array<std::uint64_t, kMaxWarpSlots> age_{};
    /** Why the warp waits while readyAt_ > now (PMU attribution). */
    std::array<StallReason, kMaxWarpSlots> stallClass_{};
    /** Slots holding a warp. */
    SlotMask occupied_ = 0;
    /** Occupied slots whose warp is not parked at a barrier. */
    SlotMask eligible_ = 0;
    /** Slots owned by each warp scheduler (slot % numSchedulers). */
    std::vector<SlotMask> schedMask_;
    /** min(readyAt_): no warp can issue before this cycle. */
    Cycle nextWake_ = infiniteCycle;

    unsigned freeTbSlots_;
    unsigned freeThreads_;
    unsigned freeRegs_;
    std::uint32_t freeSmem_;
    std::uint64_t nextAgeStamp_ = 0;
    /** LaunchAgg request buffer, reused across instructions. */
    std::vector<AggLaunchRequest> aggReqs_;

    std::array<std::uint64_t, kNumStallReasons> stallSlotCycles_{};
    /** Per-kernel rows of stallSlotCycles_ (last row: idle bucket). */
    std::vector<std::array<std::uint64_t, kNumStallReasons>> kernelStall_;
};

} // namespace dtbl

#endif // DTBL_GPU_SMX_HH
