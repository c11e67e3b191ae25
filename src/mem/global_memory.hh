/**
 * @file
 * Functional backing store for device global memory plus a bump allocator.
 *
 * The timing model (caches/DRAM) is separate; this class only holds the
 * bytes. Device addresses are 32-bit in the ISA, so the store is < 4GB.
 * The store is calloc'd: pages no run touches stay unbacked zero pages,
 * so a device with 64 MiB costs only the memory its kernels use.
 */

#ifndef DTBL_MEM_GLOBAL_MEMORY_HH
#define DTBL_MEM_GLOBAL_MEMORY_HH

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dtbl {

class GlobalMemory
{
  public:
    explicit GlobalMemory(std::uint64_t size_bytes);

    std::uint64_t size() const { return size_; }

    /**
     * Allocate @p bytes with the given alignment; never freed (bump
     * allocation, matching the simple device-side allocator the paper's
     * runtime uses for parameter buffers).
     */
    Addr allocate(std::uint64_t bytes, std::uint64_t align = 256);

    /** Bytes currently allocated. */
    std::uint64_t allocated() const { return brk_; }

    /**
     * Does [a, a+bytes) fall inside one allocation? Backs the runtime
     * sanitizer's OOB checks; the registry is always maintained (one
     * record per allocate call, negligible cost under bump allocation).
     */
    bool inLiveAllocation(Addr a, std::uint64_t bytes) const;

    std::size_t numAllocations() const { return allocs_.size(); }

    // --- typed access -----------------------------------------------
    std::uint32_t read32(Addr a) const;
    void write32(Addr a, std::uint32_t v);
    std::uint16_t read16(Addr a) const;
    void write16(Addr a, std::uint16_t v);
    std::uint8_t read8(Addr a) const;
    void write8(Addr a, std::uint8_t v);

    /** Width-dispatched read/write (width in {1, 2, 4}). */
    std::uint32_t read(Addr a, unsigned width) const;
    void write(Addr a, std::uint32_t v, unsigned width);

    float readF32(Addr a) const;
    void writeF32(Addr a, float v);

    // --- bulk host access ---------------------------------------------
    void copyToDevice(Addr dst, const void *src, std::uint64_t bytes);
    void copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const;

    /** Host-side convenience: upload a vector, returns its address. */
    template <typename T>
    Addr
    upload(const std::vector<T> &v, std::uint64_t align = 256)
    {
        Addr a = allocate(v.size() * sizeof(T) + (v.empty() ? 4 : 0), align);
        if (!v.empty())
            copyToDevice(a, v.data(), v.size() * sizeof(T));
        return a;
    }

    template <typename T>
    std::vector<T>
    download(Addr a, std::size_t count) const
    {
        std::vector<T> v(count);
        if (count)
            copyFromDevice(v.data(), a, count * sizeof(T));
        return v;
    }

  private:
    struct Allocation
    {
        Addr base = 0;
        std::uint64_t bytes = 0;
    };

    void check(Addr a, std::uint64_t bytes) const;

    struct FreeBytes
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    std::unique_ptr<std::uint8_t[], FreeBytes> data_;
    std::uint64_t size_;
    /** All allocations, base-ascending (bump allocation never frees). */
    std::vector<Allocation> allocs_;
    std::uint64_t brk_ = 256; // keep address 0 unused (null)
};

} // namespace dtbl

#endif // DTBL_MEM_GLOBAL_MEMORY_HH
