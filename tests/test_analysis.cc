/**
 * @file
 * Tests for the dtbl-analyze static analysis framework: CFG +
 * dominators, interval value ranges, warp uniformity, the
 * interprocedural launch graph with AGT budgets, the static race
 * check, and — end to end — sanitizer check-elision, which must speed
 * runs up without changing a single finding, cycle or trace bit.
 */

#include <chrono>

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/cfg.hh"
#include "apps/registry.hh"
#include "harness/runner.hh"
#include "isa/kernel_builder.hh"

using namespace dtbl;

namespace {

/** One representative per application family (paper Table 4 order). */
const std::vector<std::string> kFamilyReps = {
    "amr_combustion", "bht",           "bfs_citation", "clr_citation",
    "regx_darpa",     "pre_movielens", "join_uniform", "sssp_citation",
};

bool
hasRule(const std::vector<Diagnostic> &diags, CheckRule rule)
{
    for (const Diagnostic &d : diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/** Everything two runs of the same benchmark must agree on. */
void
expectIdenticalRuns(const BenchResult &a, const BenchResult &b,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.report.cycles, b.report.cycles);
    EXPECT_EQ(a.trace.hash, b.trace.hash);
    EXPECT_EQ(a.trace.total, b.trace.total);
    EXPECT_EQ(a.report.csvRow(), b.report.csvRow());
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.checkErrors, b.checkErrors);
    EXPECT_EQ(a.checkWarnings, b.checkWarnings);
    ASSERT_EQ(a.checkFindings.size(), b.checkFindings.size());
    for (std::size_t i = 0; i < a.checkFindings.size(); ++i) {
        EXPECT_EQ(a.checkFindings[i].funcId, b.checkFindings[i].funcId);
        EXPECT_EQ(a.checkFindings[i].pc, b.checkFindings[i].pc);
        EXPECT_EQ(int(a.checkFindings[i].rule),
                  int(b.checkFindings[i].rule));
        EXPECT_EQ(a.checkFindings[i].message, b.checkFindings[i].message);
    }
}

} // namespace

// --- CFG ---------------------------------------------------------------

TEST(Cfg, DiamondDominators)
{
    Program prog;
    KernelBuilder b("diamond", Dim3{32});
    Reg tid = b.mov(SReg::TidX);
    Pred p = b.setp(CmpOp::Lt, DataType::U32, tid, Val(16u));
    Reg r = b.reg();
    b.ifElse(
        p, [&] { b.movTo(r, Val(1u)); }, [&] { b.movTo(r, Val(2u)); });
    Reg out = b.ldParam(0);
    b.st(MemSpace::Global, b.add(out, b.shl(tid, 2)), r);
    const KernelFuncId k = b.build(prog);

    const Cfg cfg(prog.function(k));
    ASSERT_GE(cfg.numBlocks(), 4u);
    EXPECT_FALSE(cfg.fallsOffEnd());

    const std::uint32_t entry = cfg.blockOf(0);
    EXPECT_EQ(cfg.rpo().front(), entry);
    // Every reachable block is dominated by the entry.
    for (std::uint32_t bb : cfg.rpo())
        EXPECT_TRUE(cfg.dominates(entry, bb));

    // Locate then / else / join via the movTo(1)/movTo(2) defs and the
    // final store.
    const KernelFunction &fn = prog.function(k);
    std::uint32_t thenB = Cfg::noBlock, elseB = Cfg::noBlock;
    for (std::int32_t pc = 0; pc < std::int32_t(fn.code.size()); ++pc) {
        const Instruction &inst = fn.code[pc];
        if (inst.op == Opcode::Mov &&
            inst.src[0].kind == Operand::Kind::Imm) {
            if (inst.src[0].value == 1u)
                thenB = cfg.blockOf(pc);
            if (inst.src[0].value == 2u)
                elseB = cfg.blockOf(pc);
        }
    }
    const std::uint32_t joinB =
        cfg.blockOf(std::int32_t(fn.code.size()) - 1);
    ASSERT_NE(thenB, Cfg::noBlock);
    ASSERT_NE(elseB, Cfg::noBlock);
    EXPECT_NE(thenB, elseB);
    // Neither arm dominates the join; the entry does, and the arms'
    // immediate dominator chains reach the entry.
    EXPECT_FALSE(cfg.dominates(thenB, joinB));
    EXPECT_FALSE(cfg.dominates(elseB, joinB));
    EXPECT_TRUE(cfg.dominates(entry, joinB));
    EXPECT_TRUE(cfg.dominates(entry, thenB));
}

TEST(Cfg, InstSuccessors)
{
    std::vector<std::int32_t> out;

    Instruction bra;
    bra.op = Opcode::Bra;
    bra.target = 7;
    instSuccessors(bra, 2, 10, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 7);

    bra.pred = 0; // predicated: also falls through
    instSuccessors(bra, 2, 10, out);
    ASSERT_EQ(out.size(), 2u);

    Instruction exit;
    exit.op = Opcode::Exit;
    instSuccessors(exit, 2, 10, out);
    EXPECT_TRUE(out.empty());

    Instruction add;
    add.op = Opcode::Add;
    instSuccessors(add, 9, 10, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 10); // falls off the end
}

// --- interval ranges ---------------------------------------------------

TEST(Ranges, ProvesTidIndexedAccesses)
{
    Program prog;
    KernelBuilder b("proven", Dim3{64}, /*shared_mem_bytes=*/256);
    Reg tid = b.mov(SReg::TidX);           // [0, 63]
    Reg n = b.ldParam(0);                  // proven param site
    Reg off = b.shl(tid, Val(2u));         // [0, 252]
    b.st(MemSpace::Shared, off, n);        // 252 + 4 <= 256: proven
    const KernelFuncId k = b.build(prog);

    const Cfg cfg(prog.function(k));
    const RangeResult rr = analyzeRanges(cfg);
    EXPECT_EQ(rr.paramSites, rr.paramProven);
    EXPECT_GE(rr.paramProven, 1u);
    EXPECT_GE(rr.paramProvenEnd, 4u);
    EXPECT_EQ(rr.sharedSites, 1u);
    EXPECT_EQ(rr.sharedProven, 1u);
    EXPECT_TRUE(rr.diags.empty());
}

TEST(Ranges, FlagsDefiniteSharedOob)
{
    Program prog;
    KernelBuilder b("oob_static", Dim3{32}, /*shared_mem_bytes=*/256);
    Reg addr = b.mov(Val(512u)); // constant, provably past the segment
    b.st(MemSpace::Shared, addr, Val(1u));
    const KernelFuncId k = b.build(prog);

    const Cfg cfg(prog.function(k));
    const RangeResult rr = analyzeRanges(cfg);
    EXPECT_EQ(rr.sharedProven, 0u);
    ASSERT_TRUE(hasRule(rr.diags, CheckRule::StaticOob));
    for (const Diagnostic &d : rr.diags)
        EXPECT_EQ(int(d.severity), int(Severity::Warning));
}

// --- uniformity --------------------------------------------------------

TEST(Uniformity, ClassifiesRegisters)
{
    Program prog;
    KernelBuilder b("shapes", Dim3{64});
    Reg ntid = b.mov(SReg::NTidX);       // uniform
    Reg tid = b.mov(SReg::TidX);         // affine stride 1
    Reg scaled = b.shl(tid, Val(2u));    // affine stride 4
    Reg base = b.ldParam(0);             // uniform (TB-wide constant)
    Reg addr = b.add(base, scaled);      // affine stride 4
    Reg v = b.ld(MemSpace::Global, addr); // non-uniform address: divergent
    b.st(MemSpace::Global, addr, b.add(v, Val(1u)));
    const KernelFuncId k = b.build(prog);

    const UniformityResult ur = analyzeUniformity(prog.function(k));
    EXPECT_TRUE(ur.regs[ntid.idx].isUniform());
    EXPECT_TRUE(ur.regs[base.idx].isUniform());
    EXPECT_EQ(ur.regs[tid.idx], LaneFact::affine(1));
    EXPECT_EQ(ur.regs[scaled.idx], LaneFact::affine(4));
    EXPECT_EQ(ur.regs[addr.idx], LaneFact::affine(4));
    EXPECT_TRUE(ur.regs[v.idx].isDivergent());
    EXPECT_GE(ur.uniformRegs, 2u);
    EXPECT_GE(ur.affineRegs, 3u);
    EXPECT_GE(ur.divergentRegs, 1u);
}

TEST(Uniformity, FlagsDivergentLaunchSites)
{
    // Child first so the parent can reference its id.
    Program prog;
    KernelBuilder child("child", Dim3{32});
    child.st(MemSpace::Global, child.ldParam(0), Val(1u));
    const KernelFuncId c = child.build(prog);

    KernelBuilder b("parent", Dim3{32}, 0, 64);
    // Load from a lane-varying address: divergent TB count.
    Reg lanePtr =
        b.add(b.ldParam(0), b.shl(b.mov(SReg::TidX), Val(2u)));
    Reg cnt = b.ld(MemSpace::Global, lanePtr);
    Reg buf = b.getParameterBuffer(16);             // per-lane buffer
    b.st(MemSpace::Global, buf, Val(0u));
    b.launchDevice(c, cnt, buf);
    const KernelFuncId p = b.build(prog);

    const UniformityResult ur = analyzeUniformity(prog.function(p));
    ASSERT_EQ(ur.launches.size(), 1u);
    EXPECT_EQ(ur.launches[0].callee, c);
    EXPECT_FALSE(ur.launches[0].numTbs.isUniform());
    EXPECT_FALSE(ur.launches[0].paramAddr.isUniform());
    EXPECT_TRUE(ur.launches[0].divergentFanOut());
    EXPECT_TRUE(hasRule(ur.diags, CheckRule::DivergentLaunch));

    // A fully uniform launch site must stay silent.
    Program prog2;
    KernelBuilder child2("child2", Dim3{32});
    child2.st(MemSpace::Global, child2.ldParam(0), Val(1u));
    const KernelFuncId c2 = child2.build(prog2);
    KernelBuilder u("uparent", Dim3{32}, 0, 64);
    Reg uaddr = u.mov(u.ldParam(0)); // TB-uniform parameter address
    u.launchDevice(c2, Val(4u), uaddr);
    const KernelFuncId p2 = u.build(prog2);

    const UniformityResult ur2 = analyzeUniformity(prog2.function(p2));
    ASSERT_EQ(ur2.launches.size(), 1u);
    EXPECT_FALSE(ur2.launches[0].divergentFanOut());
    EXPECT_FALSE(hasRule(ur2.diags, CheckRule::DivergentLaunch));
}

// --- launch graph ------------------------------------------------------

TEST(LaunchGraph, DepthChainAndBudget)
{
    // leaf <- mid <- root: depth 2 from the root, no cycle.
    Program prog;
    KernelBuilder leaf("leaf", Dim3{32});
    leaf.st(MemSpace::Global, leaf.ldParam(0), Val(1u));
    const KernelFuncId l = leaf.build(prog);

    KernelBuilder mid("mid", Dim3{32}, 0, 64);
    {
        Reg buf = mid.getParameterBuffer(8);
        mid.st(MemSpace::Global, buf, Val(0u));
        mid.launchAggGroup(l, Val(1u), buf);
    }
    const KernelFuncId m = mid.build(prog);

    KernelBuilder root("root", Dim3{32}, 0, 64);
    {
        Reg buf = root.getParameterBuffer(8);
        root.st(MemSpace::Global, buf, Val(0u));
        root.launchAggGroup(m, Val(1u), buf);
    }
    const KernelFuncId r = root.build(prog);

    std::vector<UniformityResult> uni;
    for (KernelFuncId id = 0; id < prog.size(); ++id)
        uni.push_back(analyzeUniformity(prog.function(id)));
    const GpuConfig cfg = GpuConfig::k20c();
    const LaunchGraph g = buildLaunchGraph(prog, cfg, uni);

    ASSERT_EQ(g.nodes.size(), 3u);
    ASSERT_EQ(g.edges.size(), 2u);
    EXPECT_FALSE(g.hasCycle);
    EXPECT_EQ(g.maxDepth, 2);
    EXPECT_EQ(g.nodes[l].depth, 0);
    EXPECT_EQ(g.nodes[m].depth, 1);
    EXPECT_EQ(g.nodes[r].depth, 2);
    EXPECT_TRUE(g.nodes[r].isRoot);
    EXPECT_FALSE(g.nodes[m].isRoot);

    // Per-lane launch semantics: every resident warp at an agg site can
    // produce warpSize launches, which dwarfs the paper's 1024-entry
    // aggregation table on the 13-SMX K20c.
    const std::uint64_t residentWarps =
        std::uint64_t(cfg.numSmx) * cfg.maxResidentWarpsPerSmx;
    EXPECT_EQ(g.worstCaseAggLaunches, residentWarps * warpSize);
    EXPECT_EQ(g.aggTableCapacity, cfg.agtSize);
    EXPECT_TRUE(g.aggBudgetExceeded);
    EXPECT_TRUE(hasRule(g.diags, CheckRule::LaunchBudget));
    EXPECT_FALSE(hasRule(g.diags, CheckRule::LaunchRecursion));
}

TEST(LaunchGraph, RecursionIsUnbounded)
{
    // AMR-style self-launching kernel: its own id is prog.size() at
    // build time (Program::add allows exactly this).
    Program prog;
    const KernelFuncId self = KernelFuncId(prog.size());
    KernelBuilder b("recurse", Dim3{32}, 0, 64);
    Reg buf = b.getParameterBuffer(8);
    b.st(MemSpace::Global, buf, Val(0u));
    b.launchDevice(self, Val(1u), buf);
    const KernelFuncId k = b.build(prog);
    ASSERT_EQ(k, self);

    std::vector<UniformityResult> uni;
    uni.push_back(analyzeUniformity(prog.function(k)));
    const LaunchGraph g =
        buildLaunchGraph(prog, GpuConfig::k20c(), uni);
    EXPECT_TRUE(g.hasCycle);
    EXPECT_EQ(g.maxDepth, -1);
    EXPECT_TRUE(g.nodes[k].onCycle);
    EXPECT_EQ(g.nodes[k].depth, -1);
    EXPECT_TRUE(hasRule(g.diags, CheckRule::LaunchRecursion));
}

// --- static races ------------------------------------------------------

TEST(Races, SameWordCrossWarpWriteIsFlagged)
{
    Program prog;
    KernelBuilder b("racy", Dim3{64}, /*shared_mem_bytes=*/256);
    b.st(MemSpace::Shared, Val(0u), b.mov(SReg::TidX));
    const KernelFuncId k = b.build(prog);

    const Cfg cfg(prog.function(k));
    const RaceResult rr = analyzeRaces(cfg);
    EXPECT_TRUE(rr.usesShared);
    EXPECT_TRUE(rr.hasSharedWrites);
    EXPECT_FALSE(rr.singleWarp);
    EXPECT_FALSE(rr.trivialRaceFree);
    EXPECT_FALSE(rr.provenRaceFree);
    EXPECT_GE(rr.conflictPairs, 1u);
    EXPECT_TRUE(hasRule(rr.diags, CheckRule::StaticRace));
}

TEST(Races, AffineDisjointAccessesAreProvenFree)
{
    // Each thread owns its own 4-byte slot: scale 4 >= width 4.
    Program prog;
    KernelBuilder b("disjoint", Dim3{64}, /*shared_mem_bytes=*/256);
    Reg off = b.shl(b.mov(SReg::TidX), Val(2u));
    b.st(MemSpace::Shared, off, b.mov(SReg::TidX));
    Reg v = b.ld(MemSpace::Shared, off);
    b.st(MemSpace::Global, b.add(b.ldParam(0), off), v);
    const KernelFuncId k = b.build(prog);

    const Cfg cfg(prog.function(k));
    const RaceResult rr = analyzeRaces(cfg);
    EXPECT_TRUE(rr.hasSharedWrites);
    EXPECT_FALSE(rr.trivialRaceFree); // affine proofs are not elision-grade
    EXPECT_TRUE(rr.provenRaceFree);
    EXPECT_TRUE(rr.diags.empty());
}

TEST(Races, BarrierSeparatesConflictingSites)
{
    // Two stores with different per-thread strides overlap across
    // threads, so only the barrier between them makes the kernel clean.
    const auto buildKernel = [](Program &prog, bool with_bar) {
        KernelBuilder b(with_bar ? "sync" : "nosync", Dim3{64},
                        /*shared_mem_bytes=*/512);
        Reg tid = b.mov(SReg::TidX);
        b.st(MemSpace::Shared, b.shl(tid, Val(2u)), tid); // 4 * tid
        if (with_bar)
            b.bar();
        b.st(MemSpace::Shared, b.shl(tid, Val(3u)), tid); // 8 * tid
        return b.build(prog);
    };

    Program racy;
    const Cfg cfgRacy(racy.function(buildKernel(racy, false)));
    const RaceResult rrRacy = analyzeRaces(cfgRacy);
    EXPECT_FALSE(rrRacy.provenRaceFree);
    EXPECT_TRUE(hasRule(rrRacy.diags, CheckRule::StaticRace));

    Program clean;
    const Cfg cfgClean(clean.function(buildKernel(clean, true)));
    const RaceResult rrClean = analyzeRaces(cfgClean);
    EXPECT_TRUE(rrClean.provenRaceFree);
    EXPECT_TRUE(rrClean.diags.empty());
}

TEST(Races, TrivialProofs)
{
    // Single-warp TB: the runtime cross-warp predicate can never fire.
    Program prog;
    KernelBuilder b("onewarp", Dim3{32}, /*shared_mem_bytes=*/256);
    b.st(MemSpace::Shared, Val(0u), b.mov(SReg::TidX));
    const Cfg cfg(prog.function(b.build(prog)));
    const RaceResult rr = analyzeRaces(cfg);
    EXPECT_TRUE(rr.singleWarp);
    EXPECT_TRUE(rr.trivialRaceFree);
    EXPECT_TRUE(rr.diags.empty());

    // Read-only shared use is race-free regardless of TB shape.
    Program prog2;
    KernelBuilder ro("readonly", Dim3{64}, /*shared_mem_bytes=*/256);
    Reg v = ro.ld(MemSpace::Shared, ro.shl(ro.mov(SReg::TidX), Val(2u)));
    ro.st(MemSpace::Global, ro.add(ro.ldParam(0), v), v);
    const Cfg cfg2(prog2.function(ro.build(prog2)));
    const RaceResult rr2 = analyzeRaces(cfg2);
    EXPECT_FALSE(rr2.hasSharedWrites);
    EXPECT_TRUE(rr2.trivialRaceFree);
}

// --- whole-program analysis over the benchmark suite -------------------

TEST(Analyzer, AllFamiliesAnalyzeClean)
{
    for (const std::string &id : kFamilyReps) {
        for (Mode m : evalModes) {
            SCOPED_TRACE(id + " " + modeName(m));
            auto app = makeBenchmark(id);
            Program prog;
            app->build(prog, m);
            const ProgramAnalysis pa = analyzeProgram(
                prog, configForMode(m, GpuConfig::k20c()));

            // The benchmark kernels are correct code: any
            // Error-severity diagnostic is a false positive.
            EXPECT_EQ(pa.errorCount, 0u);
            for (const Diagnostic &d : pa.diagnostics)
                EXPECT_EQ(int(d.severity), int(Severity::Warning));

            EXPECT_EQ(pa.kernels.size(), prog.size());
            for (const KernelAnalysis &ka : pa.kernels)
                EXPECT_GE(ka.numBlocks, 1u);

            // Dynamic-parallelism modes must produce a launch graph
            // with at least one device-launch edge; Flat must not.
            if (usesDynamicParallelism(m)) {
                EXPECT_GE(pa.graph.edges.size(), 1u);
                EXPECT_TRUE(pa.graph.maxDepth >= 1 || pa.graph.hasCycle);
            } else {
                EXPECT_TRUE(pa.graph.edges.empty());
                EXPECT_EQ(pa.graph.maxDepth, 0);
            }
        }
    }
}

TEST(Analyzer, ReportsAreDeterministic)
{
    auto app = makeBenchmark("bfs_citation");
    Program prog;
    app->build(prog, Mode::Dtbl);
    const ProgramAnalysis a = analyzeProgram(prog);
    const ProgramAnalysis b = analyzeProgram(prog);
    EXPECT_FALSE(a.textReport("t").empty());
    EXPECT_EQ(a.textReport("t"), b.textReport("t"));
    EXPECT_EQ(a.jsonReport("bfs_citation", "DTBL"),
              b.jsonReport("bfs_citation", "DTBL"));
}

TEST(Analyzer, AccessSafetyFactsForCleanKernel)
{
    Program prog;
    KernelBuilder b("clean", Dim3{32}, /*shared_mem_bytes=*/128);
    Reg tid = b.mov(SReg::TidX);
    Reg base = b.ldParam(0);
    Reg off = b.shl(tid, 2);
    b.st(MemSpace::Shared, off, tid);
    Reg v = b.ld(MemSpace::Shared, off);
    b.st(MemSpace::Global, b.add(base, off), v);
    const KernelFuncId k = b.build(prog);

    const AccessSafety safety = computeAccessSafety(prog);
    const KernelAccessSafety *ks = safety.of(k);
    ASSERT_NE(ks, nullptr);
    EXPECT_TRUE(ks->uninitAllSafe);
    EXPECT_TRUE(ks->sharedRaceFree); // single warp
    EXPECT_GE(ks->paramProvenEnd, 4u);
    unsigned paramProven = 0, sharedProven = 0;
    for (bool safe : ks->paramSafe)
        paramProven += safe;
    for (bool safe : ks->sharedSafe)
        sharedProven += safe;
    EXPECT_EQ(paramProven, 1u);
    EXPECT_EQ(sharedProven, 2u);
}

// --- check-elision: identical findings, measurable speedup -------------

TEST(Elision, SweepIsBitIdenticalAndFaster)
{
    using clock = std::chrono::steady_clock;
    // Each side's time per family is the min of kRuns runs, the two
    // sides interleaved, so a burst of host load hits both alike.
    constexpr int kRuns = 3;
    std::chrono::nanoseconds elidedWall{0}, fullWall{0};
    std::uint64_t totalElided = 0;
    std::uint64_t totalBatched = 0;

    for (const std::string &id : kFamilyReps) {
        RunOptions on;
        on.checkLevel = int(CheckLevel::Full);
        on.elideChecks = true;
        RunOptions off = on;
        off.elideChecks = false;

        const auto timedRun = [&](const RunOptions &opts,
                                  std::chrono::nanoseconds &best) {
            auto app = makeBenchmark(id);
            const auto t0 = clock::now();
            BenchResult r = runBenchmark(*app, Mode::Dtbl,
                                         GpuConfig::k20c(), opts);
            best = std::min<std::chrono::nanoseconds>(best,
                                                      clock::now() - t0);
            return r;
        };
        auto bestOn = std::chrono::nanoseconds::max();
        auto bestOff = std::chrono::nanoseconds::max();
        const BenchResult a = timedRun(on, bestOn);
        const BenchResult b = timedRun(off, bestOff);
        for (int i = 1; i < kRuns; ++i) {
            timedRun(on, bestOn);
            timedRun(off, bestOff);
        }
        elidedWall += bestOn;
        fullWall += bestOff;

        expectIdenticalRuns(a, b, id);
        EXPECT_TRUE(a.verified);
        EXPECT_EQ(a.checkErrors, 0u);
        EXPECT_EQ(b.checkElided, 0u);
        EXPECT_EQ(b.checkBatched, 0u);
        totalElided += a.checkElided;
        totalBatched += a.checkBatched;
    }

    // The proofs must actually fire...
    EXPECT_GT(totalElided, 0u);
    EXPECT_GT(totalBatched, 0u);
    // ...and buy wall-clock time across the sweep (elision removes the
    // per-instruction Full-tier shadow tracking for proven kernels).
    EXPECT_LT(elidedWall.count(), fullWall.count())
        << "elided sweep took " << elidedWall.count() / 1e6
        << " ms vs " << fullWall.count() / 1e6
        << " ms without elision (min of " << kRuns << " per family)";
}

TEST(Elision, FaultyProgramsKeepIdenticalFindings)
{
    // Seeded-bug kernels: elision must take its fallback paths and
    // report exactly what the unelided sanitizer reports.
    struct Case
    {
        const char *name;
        CheckRule rule;
        std::function<KernelFuncId(Program &)> build;
        std::function<std::vector<std::uint32_t>(Gpu &)> params;
    };
    const std::vector<Case> cases = {
        {"oob_global", CheckRule::OobGlobal,
         [](Program &prog) {
             KernelBuilder b("oob_global", Dim3{32});
             Reg addr = b.ldParam(0);
             b.st(MemSpace::Global, b.add(addr, b.shl(b.mov(SReg::TidX), 2)),
                  Val(1u));
             return b.build(prog);
         },
         [](Gpu &gpu) {
             // 64-byte buffer, 32 lanes x 4 bytes starting at +64: every
             // lane lands past the end.
             const Addr buf = gpu.mem().allocate(64);
             return std::vector<std::uint32_t>{std::uint32_t(buf + 64)};
         }},
        {"oob_param", CheckRule::OobParam,
         [](Program &prog) {
             // The child's load at offset 32 is inside its declared
             // 64-byte param space (statically proven safe), but the
             // parent binds only an 8-byte parameter buffer — the
             // hoisted per-TB liveness check fails and elision must
             // fall back to the per-lane loop that reports the bug.
             KernelBuilder child("oob_param_child", Dim3{1}, 0, 64);
             Reg out = child.ldParam(0);
             Reg v = child.ldParam(32);
             child.st(MemSpace::Global, out, v);
             const KernelFuncId c = child.build(prog);

             KernelBuilder b("oob_param", Dim3{1}, 0, 8);
             Reg dst = b.ldParam(0);
             Reg buf = b.getParameterBuffer(8);
             b.st(MemSpace::Global, buf, dst);
             b.launchDevice(c, Val(1u), buf);
             return b.build(prog);
         },
         [](Gpu &gpu) {
             const Addr buf = gpu.mem().allocate(64);
             return std::vector<std::uint32_t>{std::uint32_t(buf)};
         }},
        {"uninit", CheckRule::UninitRead,
         [](Program &prog) {
             KernelBuilder b("uninit", Dim3{32});
             Reg tid = b.mov(SReg::TidX);
             Reg out = b.ldParam(0);
             Reg v = b.reg();
             Pred lower = b.setp(CmpOp::Lt, DataType::U32, tid, Val(16u));
             b.if_(lower, [&] { b.movTo(v, Val(7u)); });
             b.st(MemSpace::Global, b.add(out, b.shl(tid, 2)), v);
             return b.build(prog);
         },
         [](Gpu &gpu) {
             const Addr buf = gpu.mem().allocate(32 * 4);
             return std::vector<std::uint32_t>{std::uint32_t(buf)};
         }},
        {"shared_race", CheckRule::SharedRace,
         [](Program &prog) {
             KernelBuilder b("shared_race", Dim3{64},
                             /*shared_mem_bytes=*/256);
             b.st(MemSpace::Shared, Val(0u), b.mov(SReg::TidX));
             return b.build(prog);
         },
         [](Gpu &) { return std::vector<std::uint32_t>{}; }},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Program prog;
        const KernelFuncId k = c.build(prog);

        const auto run = [&](bool elide) {
            Gpu gpu(GpuConfig::k20c(), prog);
            const auto params = c.params(gpu);
            gpu.enableChecks(CheckLevel::Full, elide);
            gpu.launch(k, Dim3{1}, params);
            gpu.synchronize();
            const Sanitizer *san = gpu.sanitizer();
            EXPECT_NE(san, nullptr);
            return std::make_tuple(san->findings(), san->errorCount(),
                                   san->warningCount());
        };
        const auto [fa, ea, wa] = run(true);
        const auto [fb, eb, wb] = run(false);
        EXPECT_TRUE(hasRule(fa, c.rule));
        EXPECT_EQ(ea, eb);
        EXPECT_EQ(wa, wb);
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].funcId, fb[i].funcId);
            EXPECT_EQ(fa[i].pc, fb[i].pc);
            EXPECT_EQ(int(fa[i].rule), int(fb[i].rule));
            EXPECT_EQ(fa[i].message, fb[i].message);
        }
    }
}
