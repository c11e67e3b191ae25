#include "gpu/gpu.hh"

#include <algorithm>
#include <sstream>

#include "analysis/analyzer.hh"
#include "common/log.hh"
#include "stats/host_prof.hh"

namespace dtbl {

Gpu::Gpu(const GpuConfig &cfg, const Program &prog)
    : cfg_(cfg), prog_(prog), mem_(cfg.globalMemBytes),
      memSys_(cfg_, stats_, &trace_, &pmu_), runtime_(cfg_, mem_, stats_),
      streams_(cfg.numHwqs), kmu_(cfg_, &trace_), kd_(cfg_, &trace_),
      agt_(cfg.agtSize, &trace_, &pmu_),
      dtblSched_(agt_, cfg_, stats_, &trace_), ledger_(cfg_, kd_.size())
{
    cfg_.validate();
    trace_.nameLane(traceLaneKmu, "KMU");
    trace_.nameLane(traceLaneKd, "KernelDistributor");
    trace_.nameLane(traceLaneAgt, "AGT/DTBL");
    trace_.nameLane(traceLaneMem, "Memory");
    registerPmuProbes();
    for (unsigned i = 0; i < cfg_.numSmx; ++i) {
        trace_.nameLane(traceLaneSmxBase + i, "SMX " + std::to_string(i));
        smxs_.push_back(std::make_unique<Smx>(i, *this));
    }
    sched_ = std::make_unique<SmxScheduler>(cfg_, prog_, kd_, kmu_, agt_,
                                            dtblSched_, streams_, stats_,
                                            smxs_, ledger_, &trace_,
                                            &pmu_);
}

void
Gpu::registerPmuProbes()
{
    if (!Pmu::compiledIn)
        return;
    pmu_.probe("gpu.resident_warps", PmuUnit::Gpu, [this] {
        std::uint64_t r = 0;
        for (const auto &s : smxs_)
            r += s->residentWarps();
        return r;
    });
    pmu_.probe("gpu.warp_instrs", PmuUnit::Gpu,
               [this] { return stats_.warpInstrsIssued; });
    pmu_.probe("gpu.active_lanes", PmuUnit::Gpu,
               [this] { return stats_.activeLaneSum; });
    pmu_.probe("gpu.tbs_completed", PmuUnit::Gpu,
               [this] { return stats_.tbsCompleted; });
    pmu_.probe("gpu.kernels_completed", PmuUnit::Gpu,
               [this] { return stats_.kernelsCompleted; });
    pmu_.probe("kmu.pending_device", PmuUnit::Kmu, [this] {
        return std::uint64_t(kmu_.pendingDeviceKernels());
    });
    pmu_.probe("cdp.device_launches", PmuUnit::Kmu,
               [this] { return stats_.deviceKernelLaunches; });
    pmu_.probe("kd.valid_entries", PmuUnit::Kd,
               [this] { return std::uint64_t(kd_.validCount()); });
    pmu_.probe("dtbl.agg_launches", PmuUnit::Sched,
               [this] { return stats_.aggGroupLaunches; });
    pmu_.probe("dtbl.agg_coalesced", PmuUnit::Sched,
               [this] { return stats_.aggGroupsCoalesced; });
    pmu_.probe("dtbl.agg_fallback", PmuUnit::Sched,
               [this] { return stats_.aggGroupsFallback; });
    pmu_.probe("dtbl.agt_overflows", PmuUnit::Sched,
               [this] { return stats_.agtOverflows; });
    pmu_.probe("dtbl.pending_launch_bytes", PmuUnit::Gpu,
               [this] { return stats_.pendingLaunchBytes; });
    pmu_.probe("dtbl.peak_pending_launch_bytes", PmuUnit::Gpu,
               [this] { return stats_.peakPendingLaunchBytes; });
    pmu_.probe("mem.l1_hits", PmuUnit::Mem,
               [this] { return stats_.l1Hits; });
    pmu_.probe("mem.l1_misses", PmuUnit::Mem,
               [this] { return stats_.l1Misses; });
    pmu_.probe("mem.l2_hits", PmuUnit::Mem,
               [this] { return stats_.l2Hits; });
    pmu_.probe("mem.l2_misses", PmuUnit::Mem,
               [this] { return stats_.l2Misses; });
    for (std::size_t i = 0; i < prog_.size(); ++i) {
        std::string base =
            "kernel." + prog_.function(KernelFuncId(i)).name;
        if (pmu_.indexOf(base + ".tbs") >= 0)
            base += "@" + std::to_string(i); // disambiguate name clashes
        kernelTbs_.push_back(pmu_.counter(base + ".tbs", PmuUnit::Kernel,
                                          std::int32_t(i)));
        kernelInstrs_.push_back(
            pmu_.counter(base + ".instrs", PmuUnit::Kernel,
                         std::int32_t(i)));
        for (std::size_t r = 0; r < kNumStallReasons; ++r) {
            pmu_.probe(base + ".slot." + stallReasonName(StallReason(r)),
                       PmuUnit::Kernel,
                       [this, i, r] {
                           std::uint64_t v = 0;
                           for (const auto &s : smxs_)
                               v += s->kernelStallSlotCycles(i)[r];
                           return v;
                       },
                       std::int32_t(i));
        }
    }
    // The idle bucket: slot-cycles no kernel occupies (row prog.size()).
    const std::size_t idleRow = prog_.size();
    for (std::size_t r = 0; r < kNumStallReasons; ++r) {
        pmu_.probe("kernel.(idle).slot." +
                       std::string(stallReasonName(StallReason(r))),
                   PmuUnit::Kernel,
                   [this, idleRow, r] {
                       std::uint64_t v = 0;
                       for (const auto &s : smxs_)
                           v += s->kernelStallSlotCycles(idleRow)[r];
                       return v;
                   },
                   std::int32_t(idleRow));
    }
}

void
Gpu::enableProfiling(Cycle window)
{
    if (!Pmu::compiledIn) {
        DTBL_WARN("profiling requested but the PMU is compiled out; "
                  "rebuild with -DDTBL_ENABLE_PMU=ON");
        return;
    }
    if (window == 0)
        window = kDefaultProfileWindow;
    pmu_.setCollecting(true);
    profiler_ = std::make_unique<IntervalProfiler>(pmu_, window);
}

void
Gpu::launch(KernelFuncId func, Dim3 grid,
            const std::vector<std::uint32_t> &params, std::int32_t stream,
            std::uint32_t dyn_smem)
{
    const KernelFunction &fn = prog_.function(func);
    const std::uint32_t paramBytes =
        std::max<std::uint32_t>(fn.paramBytes,
                                std::uint32_t(params.size()) * 4);
    const Addr paramAddr = mem_.allocate(std::max(paramBytes, 4u), 256);
    for (std::size_t i = 0; i < params.size(); ++i)
        mem_.write32(paramAddr + i * 4, params[i]);

    KernelLaunch l;
    l.func = func;
    l.grid = grid;
    l.paramAddr = paramAddr;
    l.sharedMemBytes = dyn_smem;
    l.stream = stream;
    l.launchCycle = now_;
    kmu_.enqueueHost(l, streams_.hwqFor(stream));
    streams_.kernelLaunched(stream);
}

void
Gpu::deviceLaunchKernel(KernelFuncId func, std::uint32_t num_tbs,
                        Addr param, std::uint32_t smem, Cycle arrival,
                        Cycle launch_cycle, std::uint64_t footprint_bytes)
{
    const KernelFunction &fn = prog_.function(func);
    ++stats_.deviceKernelLaunches;
    stats_.dynamicLaunchThreadSum +=
        std::uint64_t(num_tbs) * fn.tbDim.count();

    KernelLaunch l;
    l.func = func;
    l.grid = Dim3{num_tbs, 1, 1};
    l.paramAddr = param;
    l.sharedMemBytes = smem;
    l.deviceLaunched = true;
    l.launchCycle = launch_cycle;
    l.footprintBytes = footprint_bytes;
    l.trackWaitingTime = true;
    kmu_.enqueueDevice(l, arrival);
}

void
Gpu::enableChecks(CheckLevel level, bool elide)
{
    if (level == CheckLevel::Off) {
        san_.reset();
        safety_.reset();
        return;
    }
    if (!Sanitizer::compiledIn) {
        DTBL_WARN("runtime checks requested but compiled out; rebuild "
                  "with -DDTBL_ENABLE_CHECK=ON");
        return;
    }
    if (elide && level >= CheckLevel::Memory) {
        DTBL_HPROF_SCOPE("analysis");
        safety_ = std::make_unique<AccessSafety>(computeAccessSafety(prog_));
    } else {
        safety_.reset();
    }
    san_ = std::make_unique<Sanitizer>(level, mem_, safety_.get());
}

void
Gpu::checkDrainInvariants()
{
    // After synchronize() the machine drained: every Kernel Distributor
    // entry must be released, every AGT record freed, the launch-path
    // counters consistent and all reserved launch-metadata bytes
    // returned. Violations are simulator bugs, not app bugs.
    for (std::size_t i = 0; i < kd_.size(); ++i) {
        const Kde &e = kd_.entry(std::int32_t(i));
        if (e.valid) {
            std::ostringstream os;
            os << "KDE " << i << " (func " << e.func
               << ") still valid after drain";
            san_->report(CheckRule::LeakKde, Severity::Error, os.str());
            continue;
        }
        // Released entries must have a clean scheduling state; LAGEI is
        // provenance only and may keep its last value.
        if (e.nagei >= 0 || e.pendingAggGroups != 0 ||
            e.liveAggGroups != 0 || e.exeBl != 0) {
            std::ostringstream os;
            os << "released KDE " << i << " has dangling linkage (nagei="
               << e.nagei << " pending=" << e.pendingAggGroups
               << " live=" << e.liveAggGroups << " exeBl=" << e.exeBl
               << ")";
            san_->report(CheckRule::KdeLinkage, Severity::Error, os.str());
        }
    }
    if (agt_.liveCount() != 0 || agt_.onChipCount() != 0) {
        std::ostringstream os;
        os << agt_.liveCount() << " AGT group record(s) and "
           << agt_.onChipCount() << " on-chip slot(s) live after drain";
        san_->report(CheckRule::LeakAgt, Severity::Error, os.str());
    }
    if (stats_.aggGroupsCoalesced + stats_.aggGroupsFallback !=
        stats_.aggGroupLaunches) {
        std::ostringstream os;
        os << "coalesced (" << stats_.aggGroupsCoalesced
           << ") + fallback (" << stats_.aggGroupsFallback
           << ") != aggregated launches (" << stats_.aggGroupLaunches
           << ")";
        san_->report(CheckRule::AggCount, Severity::Error, os.str());
    }
    if (stats_.pendingLaunchBytes != 0) {
        std::ostringstream os;
        os << stats_.pendingLaunchBytes
           << " launch-metadata byte(s) still reserved after drain";
        san_->report(CheckRule::LeakLaunchBytes, Severity::Error,
                     os.str());
    }
}

void
Gpu::submitAggLaunches(const std::vector<AggLaunchRequest> &reqs,
                       Cycle when)
{
    sched_->enqueueAggRequests(reqs, when);
}

void
Gpu::notifyTbComplete(const TbAssignment &asg, Cycle now)
{
    sched_->notifyTbComplete(asg, now);
}

bool
Gpu::idle() const
{
    if (!kmu_.idle() || !kd_.empty() || !sched_->idle())
        return false;
    for (const auto &s : smxs_) {
        if (!s->idle())
            return false;
    }
    return true;
}

void
Gpu::synchronize()
{
    while (!idle()) {
        bool progress = false;
        {
            DTBL_HPROF_SCOPE("sched");
            progress = sched_->tick(now_);
        }

        unsigned issued = 0;
        unsigned resident = 0;
        {
            DTBL_HPROF_SCOPE("smx");
            // A sleeping SMX's tick changes nothing, so only those due
            // are ticked. While the PMU collects, every SMX ticks so that
            // each cycle's stall slots are charged as it happens.
#if DTBL_PMU_ENABLED
            const bool tickAll = pmu_.collecting();
#else
            constexpr bool tickAll = false;
#endif
            for (auto &s : smxs_) {
                if (tickAll || now_ >= s->earliestReady())
                    issued += s->tick(now_);
                resident += s->residentWarps();
            }
        }
        if (resident > 0) {
            ++stats_.busyCycles;
            stats_.residentWarpCycleSum += resident;
        }

        if (!progress && issued == 0) {
            // Nothing happened this cycle: fast-forward to the next
            // event (warp wakeup, KMU arrival, dispatch-latency expiry).
            Cycle next = sched_->nextEventCycle(now_);
            for (const auto &s : smxs_)
                next = std::min(next, s->earliestReady());
            if (next == infiniteCycle) {
                if (idle())
                    break;
                DTBL_PANIC("simulation deadlock at cycle ", now_);
            }
            if (next > now_ + 1) {
                const Cycle skip = next - now_ - 1;
                if (resident > 0) {
                    stats_.busyCycles += skip;
                    stats_.residentWarpCycleSum +=
                        std::uint64_t(resident) * skip;
                }
#if DTBL_PMU_ENABLED
                // The machine is frozen across the skip (no warp wakes
                // inside it), so one classification covers all cycles.
                if (pmu_.collecting()) {
                    for (auto &s : smxs_)
                        s->accountSkippedCycles(now_, skip);
                }
#endif
                now_ += skip;
            }
        }
        ++now_;
#if DTBL_PMU_ENABLED
        if (profiler_) {
            DTBL_HPROF_SCOPE("pmu");
            profiler_->sampleUpTo(now_);
        }
#endif
        if (now_ > maxCycles_)
            DTBL_FATAL("simulation exceeded ", maxCycles_, " cycles");
    }
    stats_.totalCycles = now_;
#if DTBL_CHECK_ENABLED
    if (san_ && san_->level() >= CheckLevel::Invariants)
        checkDrainInvariants();
#endif
}

MetricsReport
Gpu::report(const std::string &bench, const std::string &mode)
{
    memSys_.finalizeInto(stats_);
    stats_.totalCycles = now_;
    stats_.stallSlotCycles.fill(0); // recompute: report() may be re-run
    for (const auto &s : smxs_) {
        const auto &sc = s->stallSlotCycles();
        for (std::size_t i = 0; i < kNumStallReasons; ++i)
            stats_.stallSlotCycles[i] += sc[i];
    }
    MetricsReport r = MetricsReport::from(stats_, bench, mode, cfg_.numSmx,
                                          cfg_.maxResidentWarpsPerSmx);
    r.traceHash = trace_.hash();
    r.traceEvents = trace_.total();
    r.dispatchPolicy = dispatchPolicyName(cfg_.dispatchPolicy);
    if (r.stallSlotCyclesTotal > 0) {
        for (std::size_t k = 0; k <= prog_.size(); ++k) {
            std::array<std::uint64_t, kNumStallReasons> row{};
            std::uint64_t sum = 0;
            for (const auto &s : smxs_) {
                const auto &sc = s->kernelStallSlotCycles(k);
                for (std::size_t i = 0; i < kNumStallReasons; ++i) {
                    row[i] += sc[i];
                    sum += sc[i];
                }
            }
            if (sum == 0)
                continue;
            const std::string name =
                k < prog_.size()
                    ? prog_.function(KernelFuncId(k)).name
                    : std::string("(idle)");
            r.kernelStallSlotCycles.emplace_back(name, row);
        }
    }
    if (profiler_) {
        profiler_->finalize(now_);
        r.profileSamples = profiler_->numSamples();
        r.sampledPeakResidentWarps =
            profiler_->sampledPeakByName("gpu.resident_warps");
        r.sampledPeakAgtLive = profiler_->sampledPeakByName("agt.live");
        r.sampledPeakPendingLaunchBytes =
            profiler_->sampledPeakByName("dtbl.pending_launch_bytes");
    }
    return r;
}

} // namespace dtbl
