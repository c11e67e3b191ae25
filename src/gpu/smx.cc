#include "gpu/smx.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>

#include "common/log.hh"
#include "gpu/gpu.hh"

namespace dtbl {
namespace {

/** Lane values of a None operand. */
constexpr std::array<std::uint32_t, warpSize> kZeroLanes{};

/**
 * d[lane] = f(a[lane], b[lane], c[lane]) for the lanes of @p exec only,
 * lowest lane first. A lane reads its sources before writing its own
 * destination, so @p d may be one of the source rows.
 */
template <typename F>
void
mapLanes(ActiveMask exec, std::uint32_t *d, const std::uint32_t *a,
         const std::uint32_t *b, const std::uint32_t *c, F f)
{
    for (ActiveMask m = exec; m != 0; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        d[lane] = f(a[lane], b[lane], c[lane]);
    }
}

/** Lift a binary op on @p T onto raw 32-bit lane values. */
template <typename T, typename F>
auto
lift(F f)
{
    return [f](std::uint32_t x, std::uint32_t y, std::uint32_t) {
        return std::bit_cast<std::uint32_t>(
            T(f(std::bit_cast<T>(x), std::bit_cast<T>(y))));
    };
}

/** The ALU opcodes that write a register (all but Setp and Selp). */
void
aluLanes(const Instruction &inst, ActiveMask exec, std::uint32_t *d,
         const std::uint32_t *a, const std::uint32_t *b,
         const std::uint32_t *c)
{
    using U = std::uint32_t;
    using S = std::int32_t;
    const DataType t = inst.type;
    const auto map = [&](auto f) { mapLanes(exec, d, a, b, c, f); };
    // Integer Add/Sub/Mul/Mad wrap as unsigned for S32 too.
    const auto arith = [&](auto f) {
        if (t == DataType::F32)
            map(lift<float>(f));
        else
            map(lift<U>(f));
    };
    const auto ordered = [&](auto f) {
        switch (t) {
          case DataType::F32: return map(lift<float>(f));
          case DataType::S32: return map(lift<S>(f));
          case DataType::U32: return map(lift<U>(f));
        }
    };
    const auto asF = [](U v) { return std::bit_cast<float>(v); };

    switch (inst.op) {
      case Opcode::Mov:
        return map([](U x, U, U) { return x; });
      case Opcode::Add:
        return arith(std::plus<>{});
      case Opcode::Sub:
        return arith(std::minus<>{});
      case Opcode::Mul:
        return arith(std::multiplies<>{});
      case Opcode::Mad:
        if (t == DataType::F32) {
            return map([asF](U x, U y, U z) {
                return std::bit_cast<U>(asF(x) * asF(y) + asF(z));
            });
        }
        return map([](U x, U y, U z) { return x * y + z; });
      case Opcode::Div:
        if (t == DataType::F32)
            return map(lift<float>(std::divides<>{}));
        // PTX-like: integer division by zero saturates (all ones).
        if (t == DataType::S32)
            return map(lift<S>([](S x, S y) { return y == 0 ? -1 : x / y; }));
        return map([](U x, U y, U) { return y == 0 ? ~U(0) : x / y; });
      case Opcode::Rem:
        if (t == DataType::S32)
            return map(lift<S>([](S x, S y) { return y == 0 ? x : x % y; }));
        return map([](U x, U y, U) { return y == 0 ? x : x % y; });
      case Opcode::Min:
        return ordered([](auto x, auto y) { return std::min(x, y); });
      case Opcode::Max:
        return ordered([](auto x, auto y) { return std::max(x, y); });
      case Opcode::And:
        return map(lift<U>(std::bit_and<>{}));
      case Opcode::Or:
        return map(lift<U>(std::bit_or<>{}));
      case Opcode::Xor:
        return map(lift<U>(std::bit_xor<>{}));
      case Opcode::Not:
        return map([](U x, U, U) { return ~x; });
      case Opcode::Shl:
        return map([](U x, U y, U) { return y >= 32 ? 0 : x << y; });
      case Opcode::Shr:
        if (t == DataType::S32) {
            return map([](U x, U y, U) {
                return y >= 32 ? U(S(x) >> 31) : U(S(x) >> y);
            });
        }
        return map([](U x, U y, U) { return y >= 32 ? 0 : x >> y; });
      case Opcode::CvtF2I:
        return map([asF](U x, U, U) { return U(S(asF(x))); });
      case Opcode::CvtI2F:
        return map([](U x, U, U) { return std::bit_cast<U>(float(S(x))); });
      default:
        break;
    }
    DTBL_PANIC("aluLanes on non-ALU opcode");
}

/** Lanes of @p exec whose cmp(a, b) holds, read as @p T. */
template <typename T>
ActiveMask
compareLanes(CmpOp cmp, ActiveMask exec, const std::uint32_t *a,
             const std::uint32_t *b)
{
    const auto test = [&](auto pred) {
        ActiveMask bits = 0;
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            if (pred(std::bit_cast<T>(a[lane]), std::bit_cast<T>(b[lane])))
                bits |= ActiveMask(1) << lane;
        }
        return bits;
    };
    switch (cmp) {
      case CmpOp::Eq: return test([](T x, T y) { return x == y; });
      case CmpOp::Ne: return test([](T x, T y) { return x != y; });
      case CmpOp::Lt: return test([](T x, T y) { return x < y; });
      case CmpOp::Le: return test([](T x, T y) { return x <= y; });
      case CmpOp::Gt: return test([](T x, T y) { return x > y; });
      case CmpOp::Ge: return test([](T x, T y) { return x >= y; });
    }
    return 0;
}

ActiveMask
compareLanes(CmpOp cmp, DataType t, ActiveMask exec, const std::uint32_t *a,
             const std::uint32_t *b)
{
    switch (t) {
      case DataType::U32: return compareLanes<std::uint32_t>(cmp, exec, a, b);
      case DataType::S32: return compareLanes<std::int32_t>(cmp, exec, a, b);
      case DataType::F32: return compareLanes<float>(cmp, exec, a, b);
    }
    return 0;
}

} // namespace

Smx::Smx(unsigned id, Gpu &gpu)
    : id_(id), gpu_(gpu), cfg_(gpu.config()),
      coalescer_(gpu.config().l1.lineBytes),
      warps_(gpu.config().maxResidentWarpsPerSmx),
      lastIssued_(gpu.config().warpSchedulersPerSmx, -1),
      schedMask_(gpu.config().warpSchedulersPerSmx, 0),
      freeTbSlots_(gpu.config().maxResidentTbPerSmx),
      freeThreads_(gpu.config().maxResidentThreadsPerSmx),
      freeRegs_(gpu.config().regsPerSmx),
      freeSmem_(gpu.config().sharedMemPerSmx),
      kernelStall_(gpu.program().size() + 1)
{
    readyAt_.fill(infiniteCycle);
    for (unsigned slot = 0; slot < warps_.size(); ++slot)
        schedMask_[slot % schedMask_.size()] |= SlotMask(1) << slot;

    Pmu &pmu = gpu.pmu();
    const std::string prefix = "smx" + std::to_string(id);
    pmu.probe(prefix + ".resident_warps", PmuUnit::Smx,
              [this] { return std::uint64_t(residentWarps()); },
              std::int32_t(id));
    for (std::size_t r = 0; r < kNumStallReasons; ++r) {
        pmu.probe(prefix + ".slot." + stallReasonName(StallReason(r)),
                  PmuUnit::Smx, [this, r] { return stallSlotCycles_[r]; },
                  std::int32_t(id));
    }
}

bool
Smx::canAccept(const KernelFunction &fn, std::uint32_t dyn_smem_bytes) const
{
    const unsigned threads = unsigned(fn.tbDim.count());
    const unsigned numWarps = (threads + warpSize - 1) / warpSize;
    const unsigned hwThreads = numWarps * warpSize;
    const unsigned regs = hwThreads * fn.numRegs;
    const std::uint32_t smem = fn.sharedMemBytes + dyn_smem_bytes;
    if (freeTbSlots_ == 0 || freeThreads_ < hwThreads || freeRegs_ < regs ||
        freeSmem_ < smem) {
        return false;
    }
    // Need numWarps free warp slots (any slots suffice).
    return warps_.size() - residentWarps() >= numWarps;
}

void
Smx::startTb(const TbAssignment &asg, Cycle now)
{
#if DTBL_PMU_ENABLED
    if (gpu_.pmu().collecting())
        gpu_.pmuNoteTbStart(asg.func);
#endif
    const KernelFunction &fn = gpu_.function(asg.func);
    auto tb = std::make_unique<ThreadBlock>();
    tb->asg = asg;
    tb->ctaId = unflatten(asg.blkFlat, asg.gridDim);
    tb->numThreads = unsigned(fn.tbDim.count());
    tb->numWarps = (tb->numThreads + warpSize - 1) / warpSize;
    tb->sharedMem.assign(fn.sharedMemBytes + asg.sharedMemBytes, 0);

    const unsigned hwThreads = tb->numWarps * warpSize;
    tb->threadsUsed = hwThreads;
    tb->regsUsed = hwThreads * fn.numRegs;
    tb->smemUsed = fn.sharedMemBytes + asg.sharedMemBytes;

    DTBL_ASSERT(freeTbSlots_ > 0 && freeThreads_ >= hwThreads &&
                    freeRegs_ >= tb->regsUsed && freeSmem_ >= tb->smemUsed,
                "startTb without resources on SMX ", id_);
    --freeTbSlots_;
    freeThreads_ -= hwThreads;
    freeRegs_ -= tb->regsUsed;
    freeSmem_ -= tb->smemUsed;

    ThreadBlock *tbp = tb.get();
    for (unsigned w = 0; w < tb->numWarps; ++w) {
        // Lowest free warp slot.
        const unsigned slot = unsigned(std::countr_one(occupied_));
        DTBL_ASSERT(slot < warps_.size(), "no free warp slot");
        warps_[slot] = std::make_unique<Warp>(tbp, &fn, w, slot);
        occupied_ |= SlotMask(1) << slot;
        eligible_ |= SlotMask(1) << slot;
        age_[slot] = nextAgeStamp_++;
        readyAt_[slot] = now + 1;
        stallClass_[slot] = StallReason::NoInstruction; // nothing fetched
        gpu_.ledger().bindWarpSlot(id_, slot, asg.func);
        tbp->liveSlots |= SlotMask(1) << slot;
    }
    nextWake_ = std::min(nextWake_, now + 1);
    tbs_.push_back(std::move(tb));
}

int
Smx::pickSlot(unsigned sched, Cycle now)
{
    // readyAt_ is infiniteCycle for free and barrier-parked slots, so
    // "readyAt_ <= now" alone means eligible and ready.

    // Greedy: stick with the last-issued warp while it remains ready.
    const std::int32_t last = lastIssued_[sched];
    if (last >= 0 && readyAt_[last] <= now)
        return last;

    // Then oldest: smallest age among this scheduler's ready warps.
    int best = -1;
    std::uint64_t bestAge = ~std::uint64_t(0);
    for (SlotMask m = eligible_ & schedMask_[sched]; m != 0; m &= m - 1) {
        const int slot = std::countr_zero(m);
        if (readyAt_[slot] <= now && age_[slot] < bestAge) {
            best = slot;
            bestAge = age_[slot];
        }
    }
    if (best >= 0)
        lastIssued_[sched] = best;
    return best;
}

unsigned
Smx::tick(Cycle now)
{
    if (now < nextWake_) {
        // Asleep (or empty): no warp can issue before nextWake_, so the
        // tick would pick nothing and change no state. The cycle loop
        // only calls a sleeping SMX while the PMU collects.
#if DTBL_PMU_ENABLED
        if (gpu_.pmu().collecting())
            accountStallSlots(now, 1, 0);
#endif
        return 0;
    }
    // Record issuers by slot, not pointer: issue() may retire the warp.
    SlotMask issuedSlots = 0;
    unsigned issued = 0;
    for (unsigned sched = 0; sched < cfg_.warpSchedulersPerSmx; ++sched) {
        const int slot = pickSlot(sched, now);
        if (slot < 0)
            continue;
        issuedSlots |= SlotMask(1) << slot;
        issue(*warps_[slot], now);
        ++issued;
    }
    refreshNextWake();
#if DTBL_PMU_ENABLED
    if (gpu_.pmu().collecting())
        accountStallSlots(now, 1, issuedSlots);
#endif
    return issued;
}

void
Smx::refreshNextWake()
{
    // Free and barrier-parked slots hold infiniteCycle, so the eligible
    // slots alone give the exact min.
    Cycle next = infiniteCycle;
    for (SlotMask m = eligible_; m != 0; m &= m - 1)
        next = std::min(next, readyAt_[std::countr_zero(m)]);
    nextWake_ = next;
}

void
Smx::accountStallSlots(Cycle now, std::uint64_t n, SlotMask issued)
{
    if (occupied_ == 0 && issued == 0) {
        const std::uint64_t idle = n * warps_.size();
        stallSlotCycles_[std::size_t(StallReason::IdleNoWarp)] += idle;
        kernelStall_.back()[std::size_t(StallReason::IdleNoWarp)] += idle;
        return;
    }
    for (std::size_t slot = 0; slot < warps_.size(); ++slot) {
        const SlotMask bit = SlotMask(1) << slot;
        StallReason r;
        if (issued & bit)
            r = StallReason::Issued; // counts warps that retired mid-tick
        else if (!(occupied_ & bit))
            r = StallReason::IdleNoWarp;
        else if (!(eligible_ & bit))
            r = StallReason::Barrier;
        else if (readyAt_[slot] > now)
            r = stallClass_[slot];
        else
            r = StallReason::NoInstruction; // ready but not selected
        stallSlotCycles_[std::size_t(r)] += n;

        // Attribute the slot-cycles to the kernel holding the slot. An
        // Issued slot whose warp retired mid-tick is charged to the
        // kernel that last held it (sticky ledger binding); slots no
        // kernel occupies land in the idle bucket (last row).
        std::size_t k = kernelStall_.size() - 1;
        if (r != StallReason::IdleNoWarp) {
            const KernelFuncId f =
                (occupied_ & bit)
                    ? warps_[slot]->tb()->asg.func
                    : gpu_.ledger().slotLastFunc(id_, unsigned(slot));
            if (f != invalidKernelFunc)
                k = f;
        }
        kernelStall_[k][std::size_t(r)] += n;
    }
}

void
Smx::accountSkippedCycles(Cycle now, std::uint64_t n)
{
    accountStallSlots(now, n, 0);
}

const std::uint32_t *
Smx::operandLanes(const Warp &w, const Operand &op, ActiveMask exec,
                  LaneValues &buf) const
{
    switch (op.kind) {
      case Operand::Kind::Reg:
        return w.regRow(op.value);
      case Operand::Kind::Imm:
        buf.fill(op.value);
        return buf.data();
      case Operand::Kind::Special:
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            buf[lane] = w.sreg(SReg(op.value), lane);
        }
        return buf.data();
      case Operand::Kind::None:
        break;
    }
    return kZeroLanes.data();
}

void
Smx::issue(Warp &w, Cycle now)
{
    StackEntry &t = w.top();
    const Instruction &inst = w.fn()->code[t.pc];
    const ActiveMask active = t.mask & ~w.exitedMask();
    DTBL_ASSERT(active != 0, "issuing a warp with no live lanes");

    ActiveMask exec = active;
    if (inst.pred >= 0) {
        const ActiveMask pm = w.predMask(unsigned(inst.pred));
        exec &= inst.predSense ? pm : ~pm;
    }

    SimStats &stats = gpu_.stats();
    ++stats.warpInstrsIssued;
    stats.activeLaneSum += std::popcount(exec);

#if DTBL_PMU_ENABLED
    if (gpu_.pmu().collecting())
        gpu_.pmuNoteIssue(w.tb()->asg.func);
#endif

#if DTBL_CHECK_ENABLED
    if (Sanitizer *san = gpu_.sanitizer())
        san->onIssue(w, inst, t.pc, exec, active);
#endif

    switch (inst.op) {
      case Opcode::Bra:
        execBranch(w, inst, exec, active);
        setReady(w, now + cfg_.aluLatency, StallReason::Reconvergence);
        break;
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::Atom:
        execMemory(w, inst, exec, now);
        t.pc += 1;
        break;
      case Opcode::Bar:
        t.pc += 1;
        execBarrier(w, now);
        break;
      case Opcode::Exit:
        execExit(w, exec);
        t.pc += 1;
        setReady(w, now + 1, StallReason::PipelineBusy);
        break;
      case Opcode::GetPBuf:
      case Opcode::StreamCreate:
      case Opcode::LaunchDevice:
      case Opcode::LaunchAgg:
        execLaunch(w, inst, exec, now);
        t.pc += 1;
        break;
      case Opcode::Nop:
        t.pc += 1;
        setReady(w, now + cfg_.aluLatency, StallReason::PipelineBusy);
        break;
      default:
        execAlu(w, inst, exec, now);
        t.pc += 1;
        break;
    }

    w.cleanupStack();
    if (w.finished)
        finishWarp(w, now);
}

void
Smx::execAlu(Warp &w, const Instruction &inst, ActiveMask exec, Cycle now)
{
    LaneValues bufA, bufB, bufC;
    const std::uint32_t *a = operandLanes(w, inst.src[0], exec, bufA);
    const std::uint32_t *b = operandLanes(w, inst.src[1], exec, bufB);
    switch (inst.op) {
      case Opcode::Setp:
        w.writePredLanes(unsigned(inst.pdst), exec,
                         compareLanes(inst.cmp, inst.type, exec, a, b));
        break;
      case Opcode::Selp: {
        const ActiveMask p = w.predMask(inst.src[2].value);
        std::uint32_t *d = w.regRow(unsigned(inst.dst));
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            d[lane] = (p >> lane) & 1 ? a[lane] : b[lane];
        }
        break;
      }
      default: {
        const std::uint32_t *c = inst.op == Opcode::Mad
                                     ? operandLanes(w, inst.src[2], exec,
                                                    bufC)
                                     : kZeroLanes.data();
        aluLanes(inst, exec, w.regRow(unsigned(inst.dst)), a, b, c);
        break;
      }
    }
    const bool heavy = inst.op == Opcode::Div || inst.op == Opcode::Rem;
    setReady(w, now + (heavy ? cfg_.sfuLatency : cfg_.aluLatency),
             StallReason::PipelineBusy);
}

void
Smx::execMemory(Warp &w, const Instruction &inst, ActiveMask exec,
                Cycle now)
{
    GlobalMemory &mem = gpu_.mem();
    ThreadBlock &tb = *w.tb();

    // Every lane loop below walks the set bits of exec in ascending lane
    // order: same-address stores and atomics resolve last-lane-wins.
    LaneValues bufA;
    const std::uint32_t *base = operandLanes(w, inst.src[0], exec, bufA);
    std::array<Addr, warpSize> addrs{};
    for (ActiveMask m = exec; m != 0; m &= m - 1) {
        const unsigned lane = unsigned(std::countr_zero(m));
        addrs[lane] = Addr(base[lane]) + Addr(std::int64_t(inst.memOffset));
    }

    if (exec == 0) {
        setReady(w, now + cfg_.aluLatency, StallReason::PipelineBusy);
        return;
    }

#if DTBL_CHECK_ENABLED
    if (Sanitizer *san = gpu_.sanitizer())
        san->onMemory(w, inst, w.top().pc, addrs, exec);
#endif

    // Stored / atomic operand values (unused by loads).
    LaneValues bufV;
    const std::uint32_t *val =
        inst.op == Opcode::Ld ? kZeroLanes.data()
                              : operandLanes(w, inst.src[1], exec, bufV);

    switch (inst.space) {
      case MemSpace::Param: {
        // Parameter buffers live in global memory but are served by a
        // constant-cache-like path with L1-hit latency.
        if (inst.op != Opcode::Ld)
            DTBL_PANIC("stores to parameter space are not allowed");
        std::uint32_t *d = w.regRow(unsigned(inst.dst));
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            d[lane] = mem.read(tb.asg.paramAddr + addrs[lane], inst.width);
        }
        setReady(w, now + cfg_.l1.hitLatency, StallReason::DataHazard);
        return;
      }
      case MemSpace::Shared: {
        if (inst.op == Opcode::Atom)
            DTBL_PANIC("shared-memory atomics not modelled");
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            const Addr a = addrs[lane];
            DTBL_ASSERT(a + inst.width <= tb.sharedMem.size(),
                        "shared-memory access out of bounds in ",
                        w.fn()->name, " addr=", a, " size=",
                        tb.sharedMem.size());
            if (inst.op == Opcode::Ld) {
                std::uint32_t v = 0;
                std::memcpy(&v, &tb.sharedMem[a], inst.width);
                w.writeReg(unsigned(inst.dst), lane, v);
            } else {
                std::memcpy(&tb.sharedMem[a], &val[lane], inst.width);
            }
        }
        setReady(w, now + cfg_.sharedMemLatency, StallReason::DataHazard);
        return;
      }
      case MemSpace::Global:
        break;
    }

    // Global memory: functional at issue + coalesced timing.
    if (inst.op == Opcode::Ld) {
        std::uint32_t *d = w.regRow(unsigned(inst.dst));
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            d[lane] = mem.read(addrs[lane], inst.width);
        }
        Cycle done = now;
        for (Addr seg : coalescer_.coalesce(addrs, exec, inst.width))
            done = std::max(done, gpu_.memSys().load(id_, seg, now));
        setReady(w, done, StallReason::MemoryPending);
    } else if (inst.op == Opcode::St) {
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            mem.write(addrs[lane], val[lane], inst.width);
        }
        Cycle accept = now;
        for (Addr seg : coalescer_.coalesce(addrs, exec, inst.width))
            accept = std::max(accept, gpu_.memSys().store(id_, seg, now));
        // Stores retire through the write queue without stalling —
        // unless the contention model delays write-buffer acceptance
        // (L2 bank-port queuing), which back-pressures the warp.
        if (cfg_.modelMemContention && accept > now + cfg_.aluLatency) {
            setReady(w, accept, StallReason::MemoryPending);
        } else {
            setReady(w, now + cfg_.aluLatency, StallReason::PipelineBusy);
        }
    } else { // Atom
        LaneValues bufC;
        const std::uint32_t *cmp =
            inst.atom == AtomOp::Cas
                ? operandLanes(w, inst.src[2], exec, bufC)
                : kZeroLanes.data();
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            const Addr a = addrs[lane];
            const std::uint32_t v = val[lane];
            const std::uint32_t old = mem.read32(a);
            std::uint32_t next = old;
            switch (inst.atom) {
              case AtomOp::Add:
                next = inst.type == DataType::F32
                           ? std::bit_cast<std::uint32_t>(
                                 std::bit_cast<float>(old) +
                                 std::bit_cast<float>(v))
                           : old + v;
                break;
              case AtomOp::Min:
                next = inst.type == DataType::S32
                           ? std::uint32_t(std::min(std::int32_t(old),
                                                    std::int32_t(v)))
                           : std::min(old, v);
                break;
              case AtomOp::Max:
                next = inst.type == DataType::S32
                           ? std::uint32_t(std::max(std::int32_t(old),
                                                    std::int32_t(v)))
                           : std::max(old, v);
                break;
              case AtomOp::Cas:
                next = old == cmp[lane] ? v : old;
                break;
              case AtomOp::Exch:
                next = v;
                break;
              case AtomOp::Or:
                next = old | v;
                break;
              case AtomOp::And:
                next = old & v;
                break;
            }
            mem.write32(a, next);
            if (inst.dst >= 0)
                w.writeReg(unsigned(inst.dst), lane, old);
        }
        Cycle done = now + cfg_.atomicLatency;
        for (Addr seg : coalescer_.coalesce(addrs, exec, inst.width))
            done = std::max(done, gpu_.memSys().atomic(id_, seg, now));
        setReady(w, done, StallReason::MemoryPending);
    }
}

void
Smx::execBranch(Warp &w, const Instruction &inst, ActiveMask exec,
                ActiveMask active)
{
    StackEntry &t = w.top();
    const ActiveMask taken = exec;
    const ActiveMask fall = active & ~exec;
    if (taken == 0) {
        t.pc += 1;
    } else if (fall == 0) {
        t.pc = inst.target;
    } else {
        w.diverge(inst.reconv, taken, inst.target, fall, t.pc + 1);
    }
}

void
Smx::execBarrier(Warp &w, Cycle now)
{
    ThreadBlock &tb = *w.tb();
    eligible_ &= ~(SlotMask(1) << w.slot());
    readyAt_[w.slot()] = infiniteCycle;
    ++tb.warpsAtBarrier;
    if (tb.warpsAtBarrier == tb.numWarps - tb.warpsFinished)
        releaseBarrier(tb, now);
}

void
Smx::releaseBarrier(ThreadBlock &tb, Cycle now)
{
#if DTBL_CHECK_ENABLED
    if (Sanitizer *san = gpu_.sanitizer())
        san->onBarrierRelease(tb);
#endif
    tb.warpsAtBarrier = 0;
    // Only this TB's own warps: a slot freed by one of its warps that
    // exited early may since hold another TB's warp, parked at its own
    // barrier.
    const SlotMask parked = tb.liveSlots & ~eligible_;
    for (SlotMask m = parked; m != 0; m &= m - 1) {
        const int slot = std::countr_zero(m);
        readyAt_[slot] = now + 1;
        stallClass_[slot] = StallReason::Barrier;
    }
    eligible_ |= parked;
}

void
Smx::execExit(Warp &w, ActiveMask exec)
{
    w.exitLanes(exec);
}

void
Smx::execLaunch(Warp &w, const Instruction &inst, ActiveMask exec,
                Cycle now)
{
    DeviceRuntime &rt = gpu_.runtime();
    const unsigned callers = std::popcount(exec);
    const GpuConfig &cfg = cfg_;
    // Launch operands (read by LaunchDevice and LaunchAgg only).
    LaneValues bufT, bufP;
    const std::uint32_t *tbsLanes = kZeroLanes.data();
    const std::uint32_t *paramLanes = kZeroLanes.data();
    if (inst.isLaunch()) {
        tbsLanes = operandLanes(w, inst.launch.numTbs, exec, bufT);
        paramLanes = operandLanes(w, inst.launch.paramAddr, exec, bufP);
    }

    switch (inst.op) {
      case Opcode::GetPBuf: {
        const std::uint32_t bytes = inst.src[0].value;
        std::uint32_t *d = w.regRow(unsigned(inst.dst));
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            d[std::countr_zero(m)] =
                std::uint32_t(rt.getParameterBuffer(bytes));
        }
        setReady(w,
                 now + std::max<Cycle>(1,
                                       rt.latGetParameterBuffer(callers)),
                 StallReason::LaunchPending);
        return;
      }
      case Opcode::StreamCreate:
        setReady(w,
                 now + std::max<Cycle>(1,
                                       callers ? rt.latStreamCreate() : 1),
                 StallReason::LaunchPending);
        return;
      case Opcode::LaunchDevice: {
        const Cycle lat = rt.latLaunchDevice(callers);
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            const std::uint32_t numTbs = tbsLanes[lane];
            if (numTbs == 0)
                continue;
            const Addr param = paramLanes[lane];
            const std::uint32_t paramBytes = rt.claimParamBytes(param);
            gpu_.stats().reserveLaunchBytes(cfg.cdpKernelRecordBytes);
            gpu_.deviceLaunchKernel(
                inst.launch.func, numTbs, param,
                inst.launch.sharedMemBytes, now + std::max<Cycle>(1, lat),
                now, paramBytes + cfg.cdpKernelRecordBytes);
        }
        setReady(w, now + std::max<Cycle>(1, lat), StallReason::LaunchPending);
        return;
      }
      case Opcode::LaunchAgg: {
        aggReqs_.clear();
        for (ActiveMask m = exec; m != 0; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            const std::uint32_t numTbs = tbsLanes[lane];
            if (numTbs == 0)
                continue;
            const Addr param = paramLanes[lane];
            const std::uint32_t paramBytes = rt.claimParamBytes(param);
            gpu_.stats().reserveLaunchBytes(cfg.aggGroupRecordBytes);
            AggLaunchRequest r;
            r.func = inst.launch.func;
            r.numTbs = numTbs;
            r.paramAddr = param;
            r.sharedMemBytes = inst.launch.sharedMemBytes;
            // Device-wide hardware thread index: distinct SMXs must map
            // to distinct AGT slots or the spill rate saturates at the
            // cross-SMX collision rate independent of the table size.
            r.hwTid = id_ * cfg.maxResidentThreadsPerSmx +
                      w.slot() * warpSize + lane;
            r.launchCycle = now;
            r.footprintBytes = paramBytes + cfg.aggGroupRecordBytes;
            aggReqs_.push_back(r);
        }
        const Cycle lat =
            aggReqs_.empty() ? 1
                             : gpu_.dtblScheduler().launchLatency(
                                   unsigned(aggReqs_.size()));
        if (!aggReqs_.empty())
            gpu_.submitAggLaunches(aggReqs_, now + std::max<Cycle>(1, lat));
        setReady(w, now + std::max<Cycle>(1, lat),
                 StallReason::LaunchPending);
        return;
      }
      default:
        DTBL_PANIC("execLaunch on non-launch opcode");
    }
}

void
Smx::finishWarp(Warp &w, Cycle now)
{
    ThreadBlock &tb = *w.tb();
    const unsigned slot = w.slot();
#if DTBL_CHECK_ENABLED
    // Shadow state is keyed by address; drop it before the slot can be
    // reused by a new warp at the same address.
    if (Sanitizer *san = gpu_.sanitizer())
        san->onWarpFinish(w);
#endif
    for (auto &li : lastIssued_) {
        if (li == std::int32_t(slot))
            li = -1;
    }
    ++tb.warpsFinished;
    tb.liveSlots &= ~(SlotMask(1) << slot);
    occupied_ &= ~(SlotMask(1) << slot);
    eligible_ &= ~(SlotMask(1) << slot);
    readyAt_[slot] = infiniteCycle;
    warps_[slot].reset(); // destroys w; do not touch it afterwards
    gpu_.ledger().unbindWarpSlot(id_, slot);

    if (tb.finished()) {
        finishTb(tb, now);
    } else if (tb.warpsAtBarrier > 0 &&
               tb.warpsAtBarrier == tb.numWarps - tb.warpsFinished) {
        releaseBarrier(tb, now);
    }
}

void
Smx::finishTb(ThreadBlock &tb, Cycle now)
{
#if DTBL_CHECK_ENABLED
    if (Sanitizer *san = gpu_.sanitizer())
        san->onTbFinish(tb);
#endif
    ++freeTbSlots_;
    freeThreads_ += tb.threadsUsed;
    freeRegs_ += tb.regsUsed;
    freeSmem_ += tb.smemUsed;
    const TbAssignment asg = tb.asg;
    auto it = std::find_if(tbs_.begin(), tbs_.end(),
                           [&](const auto &p) { return p.get() == &tb; });
    DTBL_ASSERT(it != tbs_.end(), "finishing unknown TB");
    tbs_.erase(it);
    gpu_.trace().record(now, TraceEvent::TbRetire, traceLaneSmxBase + id_,
                        std::uint64_t(std::int64_t(asg.agei)), asg.blkFlat);
    gpu_.notifyTbComplete(asg, now);
}

} // namespace dtbl
