/**
 * @file
 * Warp context: per-lane register/predicate state and the PDOM
 * reconvergence stack (Section 2.2) used to track control divergence.
 */

#ifndef DTBL_GPU_WARP_HH
#define DTBL_GPU_WARP_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/kernel_function.hh"

namespace dtbl {

struct ThreadBlock;

/** One entry of the PDOM reconvergence stack. */
struct StackEntry
{
    std::int32_t pc = 0;
    /** Reconvergence PC; -1 for the bottom entry. */
    std::int32_t rpc = -1;
    ActiveMask mask = 0;
};

class Warp
{
  public:
    Warp(ThreadBlock *tb, const KernelFunction *fn, unsigned warp_in_tb,
         unsigned slot);

    ThreadBlock *tb() const { return tb_; }
    const KernelFunction *fn() const { return fn_; }
    unsigned warpInTb() const { return warpInTb_; }
    unsigned slot() const { return slot_; }

    // --- register file --------------------------------------------------
    void
    writeReg(unsigned reg, unsigned lane, std::uint32_t v)
    {
        regs_[reg * warpSize + lane] = v;
    }

    /** Register @p reg of all lanes, indexed by lane. */
    const std::uint32_t *
    regRow(unsigned reg) const
    {
        return &regs_[reg * warpSize];
    }

    std::uint32_t *
    regRow(unsigned reg)
    {
        return &regs_[reg * warpSize];
    }

    /** All-lane mask of predicate @p p. */
    ActiveMask predMask(unsigned p) const { return preds_[p]; }

    /** Predicate @p p takes @p bits on @p lanes; other lanes keep theirs. */
    void
    writePredLanes(unsigned p, ActiveMask lanes, ActiveMask bits)
    {
        preds_[p] = (preds_[p] & ~lanes) | (bits & lanes);
    }

    /** Special-register value for a lane. */
    std::uint32_t sreg(SReg s, unsigned lane) const;

    // --- SIMT stack ----------------------------------------------------
    /** Lanes of the top entry that are still live (not exited). */
    ActiveMask activeMask() const;
    StackEntry &top() { return stack_.back(); }
    const StackEntry &top() const { return stack_.back(); }
    std::size_t stackDepth() const { return stack_.size(); }

    /** Lanes that ever existed in this warp (partial last warp of a TB). */
    ActiveMask validMask() const { return validMask_; }
    ActiveMask exitedMask() const { return exitedMask_; }

    /** Mark lanes exited. */
    void exitLanes(ActiveMask lanes);

    /** Record a divergent branch: parent waits at rpc, children pushed. */
    void diverge(std::int32_t reconv, ActiveMask taken_mask,
                 std::int32_t taken_pc, ActiveMask fall_mask,
                 std::int32_t fall_pc);

    /**
     * Pop entries whose pc reached their rpc or which have no live
     * lanes; marks the warp finished when nothing remains.
     */
    void cleanupStack();

    /**
     * Set once the SIMT stack empties. Issue state (ready cycle, age,
     * barrier wait, stall reason) lives in the owning Smx's per-slot
     * arrays, not here.
     */
    bool finished = false;

  private:
    ThreadBlock *tb_;
    const KernelFunction *fn_;
    unsigned warpInTb_;
    unsigned slot_;

    std::vector<std::uint32_t> regs_;
    std::vector<ActiveMask> preds_;
    ActiveMask validMask_ = 0;
    ActiveMask exitedMask_ = 0;
    std::vector<StackEntry> stack_;
};

} // namespace dtbl

#endif // DTBL_GPU_WARP_HH
