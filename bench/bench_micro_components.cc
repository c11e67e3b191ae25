/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot components:
 * AGT allocation, the coalescer, the cache model, the DRAM model, the
 * MSHR file, the contended memory system and end-to-end simulated
 * kernel throughput, dense and on sparse divergent warps. These guard
 * the simulator's own performance (host wall-clock), not the modelled
 * GPU's.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/agt.hh"
#include "gpu/gpu.hh"
#include "isa/kernel_builder.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"
#include "mem/memory_system.hh"
#include "mem/mshr.hh"

using namespace dtbl;

namespace {

void
BM_AgtAllocateRelease(benchmark::State &state)
{
    Agt agt(unsigned(state.range(0)));
    AggGroup proto;
    proto.numTbs = 4;
    unsigned tid = 0;
    for (auto _ : state) {
        const std::int32_t id = agt.allocate(proto, tid++);
        benchmark::DoNotOptimize(agt.group(id).onChip);
        agt.release(id);
    }
}
BENCHMARK(BM_AgtAllocateRelease)->Arg(512)->Arg(1024)->Arg(2048);

void
BM_CoalescerSequential(benchmark::State &state)
{
    Coalescer c(128);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = 0x1000 + i * 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(c.coalesce(addrs, fullMask, 4));
}
BENCHMARK(BM_CoalescerSequential);

void
BM_CoalescerScattered(benchmark::State &state)
{
    Coalescer c(128);
    Rng rng(7);
    std::array<Addr, warpSize> addrs{};
    for (unsigned i = 0; i < warpSize; ++i)
        addrs[i] = rng.nextBounded(1 << 20) * 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(c.coalesce(addrs, fullMask, 4));
}
BENCHMARK(BM_CoalescerScattered);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg{16 * 1024, 128, 4, 28};
    Cache cache(cfg, Cache::WritePolicy::WriteThrough);
    Rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(1 << 22), false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_DramAccess(benchmark::State &state)
{
    Dram dram(DramConfig{}, 128);
    Rng rng(17);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.nextBounded(1 << 24) * 128, false, now));
        ++now;
    }
}
BENCHMARK(BM_DramAccess);

/**
 * An L2-shaped (128-entry) MSHR file kept full: the find / full /
 * nextFree / allocate sequence of the L2 primary-miss path, with fills
 * retiring 400-800 cycles out, so nearly every miss waits for the
 * earliest entry and its allocate prunes it.
 */
void
BM_MshrFullFile(benchmark::State &state)
{
    Mshr mshr(128, 8);
    Rng rng(23);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr line = rng.nextBounded(1 << 16);
        if (Mshr::Entry *e = mshr.find(line, now)) {
            benchmark::DoNotOptimize(mshr.merge(*e));
        } else {
            Cycle issue = now;
            if (mshr.full(now))
                issue = mshr.nextFree();
            mshr.allocate(line, issue + 400 + rng.nextBounded(400), issue);
        }
        now += 2;
    }
}
BENCHMARK(BM_MshrFullFile);

/**
 * Scattered single-line loads from every SMX in turn through the
 * default contended memory model (L1/L2 MSHRs, banked L2, DRAM), one
 * load per simulated cycle: mostly misses that exhaust the MSHR files.
 */
void
BM_MemorySystemLoadContended(benchmark::State &state)
{
    const GpuConfig cfg = GpuConfig::k20c();
    SimStats stats;
    MemorySystem ms(cfg, stats);
    Rng rng(29);
    Cycle now = 0;
    unsigned smx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ms.load(smx, rng.nextBounded(1 << 24) * 4, now));
        smx = (smx + 1) % cfg.numSmx;
        ++now;
    }
}
BENCHMARK(BM_MemorySystemLoadContended);

/** End-to-end: simulated warp instructions per host second. */
void
BM_SimulatedVectorAdd(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Program prog;
        KernelBuilder b("vecadd", Dim3{128});
        Reg tid = b.globalThreadIdX();
        Reg nReg = b.ldParam(0);
        Pred oob = b.setp(CmpOp::Ge, DataType::U32, tid, nReg);
        b.exitIf(oob);
        Reg aB = b.ldParam(4);
        Reg oB = b.ldParam(8);
        Reg off = b.shl(tid, 2);
        Reg v = b.ld(MemSpace::Global, b.add(aB, off));
        b.st(MemSpace::Global, b.add(oB, off), b.add(v, 1u));
        const KernelFuncId k = b.build(prog);
        GpuConfig cfg = GpuConfig::k20c();
        cfg.globalMemBytes = 8 * 1024 * 1024;
        Gpu gpu(cfg, prog);
        const std::uint32_t n = 65536;
        const Addr a = gpu.mem().allocate(n * 4);
        const Addr o = gpu.mem().allocate(n * 4);
        state.ResumeTiming();

        gpu.launch(k, Dim3{n / 128},
                   {n, std::uint32_t(a), std::uint32_t(o)});
        gpu.synchronize();
        state.counters["warp_instrs"] = benchmark::Counter(
            double(gpu.stats().warpInstrsIssued),
            benchmark::Counter::kIsRate);
        state.counters["sim_cycles"] = benchmark::Counter(
            double(gpu.now()), benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_SimulatedVectorAdd)->Unit(benchmark::kMillisecond);

/**
 * The SIMT issue path on sparse warps: one TB of 4 warps on one SMX
 * (the other 12 sleep), warp w keeping w + 1 live lanes through a
 * 256-iteration ALU chain, as in the irregular families' mostly
 * inactive warps.
 */
void
BM_SimulatedDivergentAlu(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Program prog;
        KernelBuilder b("divergent_alu", Dim3{4 * warpSize});
        Reg tid = b.mov(SReg::TidX);
        Reg live = b.add(b.shr(tid, 5u), 1u);
        b.exitIf(b.setp(CmpOp::Ge, DataType::U32, Val(SReg::LaneId), live));
        Reg acc = b.mov(tid);
        b.forRange(Val(0u), Val(256u), [&](Reg i) {
            b.binaryTo(acc, Opcode::Mul, DataType::U32, acc, Val(2654435761u));
            b.binaryTo(acc, Opcode::Add, DataType::U32, acc, i);
            b.binaryTo(acc, Opcode::Xor, DataType::U32, acc, Val(SReg::TidX));
            b.binaryTo(acc, Opcode::Shr, DataType::U32, acc, Val(1u));
        });
        b.st(MemSpace::Global, b.add(b.ldParam(0), b.shl(tid, 2u)), acc);
        const KernelFuncId k = b.build(prog);
        GpuConfig cfg = GpuConfig::k20c();
        cfg.globalMemBytes = 8 * 1024 * 1024;
        Gpu gpu(cfg, prog);
        const Addr o = gpu.mem().allocate(4 * warpSize * 4);
        state.ResumeTiming();

        gpu.launch(k, Dim3{1}, {std::uint32_t(o)});
        gpu.synchronize();
        state.counters["warp_instrs"] = benchmark::Counter(
            double(gpu.stats().warpInstrsIssued),
            benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_SimulatedDivergentAlu)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
