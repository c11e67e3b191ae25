/**
 * @file
 * Differential tests for the SMX's SIMT issue path. Every ALU opcode,
 * under every DataType and every operand kind (register, immediate,
 * special register) in each source position, runs on a grid whose TBs
 * end in a partial warp, with lanes masked off by a guard predicate or
 * by a divergent branch. Each lane's result is compared with an in-test
 * scalar reference; lanes that did not execute must keep their
 * register and predicate values. Further cases pin that an inactive
 * lane is never evaluated (a signed INT_MIN / -1 there must not trap)
 * and that same-address stores and exchanges resolve last-lane-wins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "isa/kernel_builder.hh"

using namespace dtbl;

namespace {

// 3 TBs of 48 threads: each TB's second warp has 16 live lanes.
constexpr unsigned kTbThreads = 48;
constexpr unsigned kTbs = 3;
constexpr unsigned kThreads = kTbThreads * kTbs;
/** Input words per thread: x, y, z, w. */
constexpr unsigned kInWords = 4;

/** Opcodes executed by Smx::execAlu. */
constexpr std::array kAluOps = {
    Opcode::Mov, Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Mad,
    Opcode::Div, Opcode::Rem, Opcode::Min, Opcode::Max, Opcode::And,
    Opcode::Or, Opcode::Xor, Opcode::Not, Opcode::Shl, Opcode::Shr,
    Opcode::Setp, Opcode::Selp, Opcode::CvtF2I, Opcode::CvtI2F,
};
constexpr std::array kTypes = {DataType::U32, DataType::S32,
                               DataType::F32};
constexpr std::array kCmps = {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt,
                              CmpOp::Le, CmpOp::Gt, CmpOp::Ge};

enum class Kind { Reg, Imm, Special };
constexpr std::array kKinds = {Kind::Reg, Kind::Imm, Kind::Special};

/** How lanes are masked off around the instruction under test. */
enum class Mask { FullWarp, Predicated, Divergent };

std::string
maskName(Mask m)
{
    switch (m) {
      case Mask::FullWarp: return "FullWarp";
      case Mask::Predicated: return "Predicated";
      case Mask::Divergent: return "Divergent";
    }
    return "?";
}

void
PrintTo(Mask m, std::ostream *os)
{
    *os << maskName(m);
}

// Immediates and special registers used per source position.
constexpr std::array<std::uint32_t, 3> kImm = {
    0x40490fdbu, // 3.14159f; positive as S32
    7u,
    0x3fc00000u, // 1.5f
};
constexpr std::array<SReg, 3> kSReg = {SReg::TidX, SReg::LaneId,
                                       SReg::CtaIdX};

bool
isUnary(Opcode op)
{
    return op == Opcode::Mov || op == Opcode::Not || op == Opcode::CvtF2I ||
           op == Opcode::CvtI2F;
}

/** Ops whose F32 form is IEEE arithmetic (a NaN result may vary). */
bool
isFloatArith(Opcode op)
{
    return op == Opcode::Add || op == Opcode::Sub || op == Opcode::Mul ||
           op == Opcode::Mad || op == Opcode::Div;
}

struct AluCase
{
    Opcode op;
    DataType type;
    CmpOp cmp = CmpOp::Eq;
};

std::vector<AluCase>
allCases()
{
    std::vector<AluCase> cases;
    for (Opcode op : kAluOps) {
        for (DataType t : kTypes) {
            if (op == Opcode::Setp) {
                for (CmpOp c : kCmps)
                    cases.push_back({op, t, c});
            } else {
                cases.push_back({op, t});
            }
        }
    }
    return cases;
}

// --- scalar per-lane reference ------------------------------------------

float asF(std::uint32_t v) { return std::bit_cast<float>(v); }
std::uint32_t fromF(float v) { return std::bit_cast<std::uint32_t>(v); }
std::int32_t asS(std::uint32_t v) { return std::int32_t(v); }

std::uint32_t
refAlu(Opcode op, DataType t, std::uint32_t a, std::uint32_t b,
       std::uint32_t c)
{
    const bool fp = t == DataType::F32;
    const bool sg = t == DataType::S32;
    switch (op) {
      case Opcode::Mov: return a;
      case Opcode::Add: return fp ? fromF(asF(a) + asF(b)) : a + b;
      case Opcode::Sub: return fp ? fromF(asF(a) - asF(b)) : a - b;
      case Opcode::Mul: return fp ? fromF(asF(a) * asF(b)) : a * b;
      case Opcode::Mad:
        return fp ? fromF(asF(a) * asF(b) + asF(c)) : a * b + c;
      case Opcode::Div:
        if (fp)
            return fromF(asF(a) / asF(b));
        if (b == 0)
            return 0xffffffffu;
        return sg ? std::uint32_t(asS(a) / asS(b)) : a / b;
      case Opcode::Rem:
        if (b == 0)
            return a;
        return sg ? std::uint32_t(asS(a) % asS(b)) : a % b;
      case Opcode::Min:
        if (fp)
            return fromF(std::min(asF(a), asF(b)));
        return sg ? std::uint32_t(std::min(asS(a), asS(b))) : std::min(a, b);
      case Opcode::Max:
        if (fp)
            return fromF(std::max(asF(a), asF(b)));
        return sg ? std::uint32_t(std::max(asS(a), asS(b))) : std::max(a, b);
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Shl: return b >= 32 ? 0 : a << b;
      case Opcode::Shr:
        if (sg)
            return std::uint32_t(b >= 32 ? asS(a) >> 31 : asS(a) >> b);
        return b >= 32 ? 0 : a >> b;
      case Opcode::CvtF2I: return std::uint32_t(std::int32_t(asF(a)));
      case Opcode::CvtI2F: return fromF(float(asS(a)));
      default: break;
    }
    ADD_FAILURE() << "no reference for opcode " << int(op);
    return 0;
}

bool
refCompare(CmpOp cmp, DataType t, std::uint32_t a, std::uint32_t b)
{
    const auto test = [cmp](auto x, auto y) {
        switch (cmp) {
          case CmpOp::Eq: return x == y;
          case CmpOp::Ne: return x != y;
          case CmpOp::Lt: return x < y;
          case CmpOp::Le: return x <= y;
          case CmpOp::Gt: return x > y;
          case CmpOp::Ge: return x >= y;
        }
        return false;
    };
    switch (t) {
      case DataType::U32: return test(a, b);
      case DataType::S32: return test(asS(a), asS(b));
      case DataType::F32: return test(asF(a), asF(b));
    }
    return false;
}

// --- inputs ----------------------------------------------------------------

/** A mix of edge values, small signed ints, raw bits and finite floats. */
std::uint32_t
pickValue(Rng &rng)
{
    static constexpr std::array<std::uint32_t, 8> edges = {
        0u, 1u, 31u, 32u, 0x80000000u, 0x7fffffffu, 0xffffffffu,
        0x3f800000u};
    switch (rng.next() % 4) {
      case 0: return edges[rng.next() % edges.size()];
      case 1: return std::uint32_t(std::int32_t(rng.next() % 2001) - 1000);
      case 2: return std::uint32_t(rng.next());
      default:
        return fromF(float(std::int32_t(rng.next() % 2000001) - 1000000) /
                     16.0f);
    }
}

struct Inputs
{
    // Per thread: x, y (any value), z (a finite float in int range, the
    // CvtF2I register source and Mad's addend) and w (mask bits).
    std::vector<std::uint32_t> words;

    std::uint32_t x(unsigned t) const { return words[t * kInWords]; }
    std::uint32_t y(unsigned t) const { return words[t * kInWords + 1]; }
    std::uint32_t z(unsigned t) const { return words[t * kInWords + 2]; }
    std::uint32_t w(unsigned t) const { return words[t * kInWords + 3]; }
};

Inputs
makeInputs(std::uint64_t seed)
{
    Rng rng(seed);
    Inputs in;
    in.words.resize(kThreads * kInWords);
    for (unsigned t = 0; t < kThreads; ++t) {
        std::uint32_t x = pickValue(rng);
        std::uint32_t y = pickValue(rng);
        // INT_MIN / -1 traps on a live lane; SignedOverflowOnInactiveLane
        // covers it on a dead one.
        if (x == 0x80000000u && y == 0xffffffffu)
            y = 3;
        const std::uint32_t z = fromF(
            float(std::int32_t(rng.next() % 20001) - 10000) / 8.0f);
        in.words[t * kInWords] = x;
        in.words[t * kInWords + 1] = y;
        in.words[t * kInWords + 2] = z;
        in.words[t * kInWords + 3] = std::uint32_t(rng.next());
    }
    return in;
}

// --- the kernel under test -----------------------------------------------

std::uint32_t
sentinel(unsigned tid, std::size_t c)
{
    return (tid ^ 0x5a5a0000u) + std::uint32_t(c);
}

/** Case c runs when its guard bit (w & 1) equals this sense. */
bool
caseSense(std::size_t c)
{
    return c % 2 == 0;
}

/**
 * One kernel running every case in turn. Case c writes its destination
 * (a register preset to sentinel(tid, c), or a predicate preset to
 * (w & 4) != 0, read back through selp) to out[c * kThreads + tid].
 */
KernelFuncId
buildAluKernel(Program &prog, const std::vector<AluCase> &cases, Mask mask,
               const std::array<Kind, 3> &kinds)
{
    KernelBuilder b("alu_diff", Dim3{kTbThreads});
    const Reg tid = b.globalThreadIdX();
    const Reg inBase = b.add(b.ldParam(0), b.shl(tid, 4));
    const Reg outBase = b.add(b.ldParam(4), b.shl(tid, 2));
    const std::array<Reg, 3> regSrc = {
        b.ld(MemSpace::Global, inBase, 0), b.ld(MemSpace::Global, inBase, 4),
        b.ld(MemSpace::Global, inBase, 8)};
    const Reg w = b.ld(MemSpace::Global, inBase, 12);
    const Pred guard = b.setp(CmpOp::Ne, DataType::U32, b.and_(w, 1u),
                              Val(0u));
    const Pred selector = b.setp(CmpOp::Ne, DataType::U32, b.and_(w, 2u),
                                 Val(0u));

    for (std::size_t c = 0; c < cases.size(); ++c) {
        const AluCase &ac = cases[c];
        Instruction inst;
        inst.op = ac.op;
        inst.type = ac.type;
        inst.cmp = ac.cmp;
        const unsigned numSrc =
            ac.op == Opcode::Mad ? 3 : isUnary(ac.op) ? 1 : 2;
        for (unsigned i = 0; i < numSrc; ++i) {
            switch (kinds[i]) {
              case Kind::Reg: {
                // CvtF2I reads z: a float whose int conversion is defined.
                const Reg r = ac.op == Opcode::CvtF2I ? regSrc[2]
                                                      : regSrc[i];
                inst.src[i] = Operand::reg(r.idx);
                break;
              }
              case Kind::Imm:
                inst.src[i] = Operand::imm(kImm[i]);
                break;
              case Kind::Special:
                inst.src[i] = Operand::special(kSReg[i]);
                break;
            }
        }

        Pred q{};
        Reg d{};
        if (ac.op == Opcode::Setp) {
            q = b.setp(CmpOp::Ne, DataType::U32, b.and_(w, 4u), Val(0u));
            inst.pdst = std::int16_t(q.idx);
        } else {
            d = b.xor_(tid, Val(0x5a5a0000u));
            b.binaryTo(d, Opcode::Add, DataType::U32, d,
                       Val(std::uint32_t(c)));
            inst.dst = std::int16_t(d.idx);
            if (ac.op == Opcode::Selp)
                inst.src[2] = Operand::imm(selector.idx);
        }

        switch (mask) {
          case Mask::FullWarp:
            b.emit(inst);
            break;
          case Mask::Predicated:
            inst.pred = std::int16_t(guard.idx);
            inst.predSense = caseSense(c);
            b.emit(inst);
            break;
          case Mask::Divergent:
            b.if_(guard, [&] { b.emit(inst); }, caseSense(c));
            break;
        }

        const Reg result = ac.op == Opcode::Setp ? b.selp(q, 1u, 0u) : d;
        b.st(MemSpace::Global, outBase, result,
             std::int32_t(c * kThreads * 4));
    }
    return b.build(prog);
}

std::uint32_t
sourceValue(const Inputs &in, const AluCase &ac, Kind kind, unsigned i,
            unsigned t)
{
    switch (kind) {
      case Kind::Reg:
        if (ac.op == Opcode::CvtF2I || i == 2)
            return in.z(t);
        return i == 0 ? in.x(t) : in.y(t);
      case Kind::Imm:
        return kImm[i];
      case Kind::Special:
        switch (kSReg[i]) {
          case SReg::TidX: return t % kTbThreads;
          case SReg::LaneId: return (t % kTbThreads) % warpSize;
          case SReg::CtaIdX: return t / kTbThreads;
          default: break;
        }
        break;
    }
    ADD_FAILURE() << "unhandled source";
    return 0;
}

void
checkAluKernel(Mask mask, const std::array<Kind, 3> &kinds,
               std::uint64_t seed)
{
    const std::vector<AluCase> cases = allCases();
    Program prog;
    const KernelFuncId k = buildAluKernel(prog, cases, mask, kinds);
    const Inputs in = makeInputs(seed);

    Gpu gpu(GpuConfig::k20c(), prog);
    const Addr inAddr = gpu.mem().upload(in.words);
    const Addr outAddr =
        gpu.mem().allocate(std::uint64_t(cases.size()) * kThreads * 4);
    gpu.launch(k, Dim3{kTbs},
               {std::uint32_t(inAddr), std::uint32_t(outAddr)});
    gpu.synchronize();
    const auto out = gpu.mem().download<std::uint32_t>(
        outAddr, cases.size() * kThreads);

    for (std::size_t c = 0; c < cases.size(); ++c) {
        const AluCase &ac = cases[c];
        for (unsigned t = 0; t < kThreads; ++t) {
            const bool active = mask == Mask::FullWarp ||
                                ((in.w(t) & 1) != 0) == caseSense(c);
            const std::uint32_t a = sourceValue(in, ac, kinds[0], 0, t);
            const std::uint32_t bv = sourceValue(in, ac, kinds[1], 1, t);
            const std::uint32_t cv = sourceValue(in, ac, kinds[2], 2, t);
            std::uint32_t want;
            if (ac.op == Opcode::Setp) {
                want = active ? refCompare(ac.cmp, ac.type, a, bv)
                              : (in.w(t) & 4) != 0;
            } else if (!active) {
                want = sentinel(t, c);
            } else if (ac.op == Opcode::Selp) {
                want = (in.w(t) & 2) != 0 ? a : bv;
            } else {
                want = refAlu(ac.op, ac.type, a, bv, cv);
            }
            const std::uint32_t got = out[c * kThreads + t];
            // IEEE leaves a NaN result's payload open, and the compiler
            // may swap the operands of a commutative float op.
            const bool bothNaN = ac.type == DataType::F32 &&
                                 isFloatArith(ac.op) &&
                                 std::isnan(asF(got)) &&
                                 std::isnan(asF(want));
            ASSERT_TRUE(got == want || bothNaN)
                << "got " << got << " want " << want << " case " << c << " op "
                << int(ac.op) << " type " << int(ac.type) << " cmp "
                << int(ac.cmp) << " thread " << t << " active " << active
                << " a=" << a << " b=" << bv << " c=" << cv;
        }
    }
}

class SmxIssueAlu : public ::testing::TestWithParam<Mask>
{
};

} // namespace

TEST_P(SmxIssueAlu, EveryOpcodeTypeAndOperandKindMatchesScalarReference)
{
    const Mask mask = GetParam();
    std::uint64_t seed = 1;
    for (Kind k0 : kKinds) {
        for (Kind k1 : kKinds) {
            for (Kind k2 : kKinds) {
                SCOPED_TRACE("kinds " + std::to_string(int(k0)) + "," +
                             std::to_string(int(k1)) + "," +
                             std::to_string(int(k2)));
                checkAluKernel(mask, {k0, k1, k2}, seed++);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Masks, SmxIssueAlu,
                         ::testing::Values(Mask::FullWarp,
                                           Mask::Predicated,
                                           Mask::Divergent),
                         [](const auto &info) {
                             return maskName(info.param);
                         });

TEST(SmxIssue, SignedOverflowOnInactiveLaneDoesNotTrap)
{
    // Lane 5 holds INT_MIN / -1, which traps on x86 if evaluated; its
    // guard is off (predicated Div) and it sits on the untaken side of
    // a divergent branch (Rem), so neither may touch it.
    constexpr unsigned kLane = 5;
    Program prog;
    KernelBuilder b("int_min_div", Dim3{warpSize});
    const Reg tid = b.globalThreadIdX();
    const Reg in = b.add(b.ldParam(0), b.shl(tid, 3));
    const Reg out = b.add(b.ldParam(4), b.shl(tid, 3));
    const Reg x = b.ld(MemSpace::Global, in, 0);
    const Reg y = b.ld(MemSpace::Global, in, 4);
    const Pred live = b.setp(CmpOp::Ne, DataType::U32, tid, Val(kLane));
    const Reg q = b.mov(0x11111111u);
    const Reg r = b.mov(0x22222222u);
    b.setGuard(live);
    b.binaryTo(q, Opcode::Div, DataType::S32, x, y);
    b.if_(live,
          [&] { b.binaryTo(r, Opcode::Rem, DataType::S32, x, y); });
    b.st(MemSpace::Global, out, q, 0);
    b.st(MemSpace::Global, out, r, 4);
    const KernelFuncId k = b.build(prog);

    std::vector<std::uint32_t> words(2 * warpSize);
    for (unsigned t = 0; t < warpSize; ++t) {
        words[2 * t] = std::uint32_t(-std::int32_t(t) * 7 - 3);
        words[2 * t + 1] = t % 3 == 0 ? 0xffffffffu : t + 1;
    }
    words[2 * kLane] = 0x80000000u;
    words[2 * kLane + 1] = 0xffffffffu;

    Gpu gpu(GpuConfig::k20c(), prog);
    const Addr inAddr = gpu.mem().upload(words);
    const Addr outAddr = gpu.mem().allocate(2 * warpSize * 4);
    gpu.launch(k, Dim3{1}, {std::uint32_t(inAddr), std::uint32_t(outAddr)});
    gpu.synchronize();
    const auto got = gpu.mem().download<std::uint32_t>(outAddr, 2 * warpSize);
    for (unsigned t = 0; t < warpSize; ++t) {
        const std::int32_t xs = std::int32_t(words[2 * t]);
        const std::int32_t ys = std::int32_t(words[2 * t + 1]);
        const bool on = t != kLane;
        EXPECT_EQ(got[2 * t], on ? std::uint32_t(xs / ys) : 0x11111111u)
            << "lane " << t;
        EXPECT_EQ(got[2 * t + 1], on ? std::uint32_t(xs % ys) : 0x22222222u)
            << "lane " << t;
    }
}

TEST(SmxIssue, SameAddressStoresAndExchangesKeepTheHigherLane)
{
    // Lanes 3, 17 and 30 store tid + 100 to one global word, one shared
    // word, and exchange tid + 200 into a third global word; every other
    // lane is predicated off. The highest lane's value must remain, and
    // each exchange returns the previous (lower) lane's value.
    Program prog;
    KernelBuilder b("last_lane_wins", Dim3{warpSize}, 4);
    const Reg tid = b.globalThreadIdX();
    const Reg base = b.ldParam(0);
    const Reg olds = b.add(b.ldParam(4), b.shl(tid, 2));
    const Pred pick = b.setp(
        CmpOp::Ne, DataType::U32,
        b.and_(b.shr(Val(std::uint32_t((1u << 3) | (1u << 17) | (1u << 30))),
                     tid),
               1u),
        Val(0u));
    const Reg old = b.mov(0xeeeeeeeeu);
    b.if_(pick, [&] {
        b.st(MemSpace::Global, base, b.add(tid, 100u), 0);
        b.st(MemSpace::Shared, Val(0u), b.add(tid, 100u), 0);
        b.movTo(old, b.atom(AtomOp::Exch, DataType::U32,
                            b.add(base, 4u), b.add(tid, 200u)));
    });
    b.bar();
    const Pred lane0 = b.setp(CmpOp::Eq, DataType::U32, tid, Val(0u));
    b.if_(lane0, [&] {
        b.st(MemSpace::Global, base, b.ld(MemSpace::Shared, Val(0u)), 8);
    });
    b.st(MemSpace::Global, olds, old);
    const KernelFuncId k = b.build(prog);

    Gpu gpu(GpuConfig::k20c(), prog);
    const Addr cells = gpu.mem().upload(
        std::vector<std::uint32_t>{0u, 0xabcdu, 0u});
    const Addr oldAddr = gpu.mem().allocate(warpSize * 4);
    gpu.launch(k, Dim3{1}, {std::uint32_t(cells), std::uint32_t(oldAddr)});
    gpu.synchronize();
    const auto c = gpu.mem().download<std::uint32_t>(cells, 3);
    EXPECT_EQ(c[0], 130u) << "global store";
    EXPECT_EQ(c[1], 230u) << "atomic exchange";
    EXPECT_EQ(c[2], 130u) << "shared store";
    const auto o = gpu.mem().download<std::uint32_t>(oldAddr, warpSize);
    for (unsigned t = 0; t < warpSize; ++t) {
        const std::uint32_t want = t == 3    ? 0xabcdu
                                   : t == 17 ? 203u
                                   : t == 30 ? 217u
                                             : 0xeeeeeeeeu;
        EXPECT_EQ(o[t], want) << "lane " << t;
    }
}
