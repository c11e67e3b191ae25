#include "mem/global_memory.hh"

#include <algorithm>
#include <bit>

namespace dtbl {

GlobalMemory::GlobalMemory(std::uint64_t size_bytes) : size_(size_bytes)
{
    DTBL_ASSERT(size_bytes < (1ull << 32),
                "device addresses are 32-bit; memory must be < 4GB");
    // calloc, not a zero-filled vector: the kernel hands out zero pages
    // lazily, so untouched device memory is neither written nor resident.
    data_.reset(static_cast<std::uint8_t *>(
        std::calloc(std::max<std::uint64_t>(size_bytes, 1), 1)));
    if (!data_)
        DTBL_FATAL("cannot allocate ", size_bytes, "B of device memory");
}

Addr
GlobalMemory::allocate(std::uint64_t bytes, std::uint64_t align)
{
    DTBL_ASSERT(align > 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
    const Addr base = (brk_ + align - 1) & ~(align - 1);
    if (base + bytes > size_) {
        DTBL_FATAL("device out of memory: need ", bytes, "B at ", base,
                   ", have ", size_, "B total");
    }
    brk_ = base + bytes;
    allocs_.push_back({base, bytes});
    return base;
}

bool
GlobalMemory::inLiveAllocation(Addr a, std::uint64_t bytes) const
{
    // Bases are strictly increasing: find the last allocation at or
    // below a and test containment.
    auto it = std::upper_bound(allocs_.begin(), allocs_.end(), a,
                               [](Addr v, const Allocation &al) {
                                   return v < al.base;
                               });
    if (it == allocs_.begin())
        return false;
    --it;
    return a >= it->base && a + bytes <= it->base + it->bytes;
}

void
GlobalMemory::check(Addr a, std::uint64_t bytes) const
{
    if (a + bytes > size_ || a == 0) {
        DTBL_PANIC("device memory access out of bounds: addr=", a,
                   " size=", bytes, " mem=", size_);
    }
}

std::uint32_t
GlobalMemory::read32(Addr a) const
{
    check(a, 4);
    std::uint32_t v;
    std::memcpy(&v, &data_[a], 4);
    return v;
}

void
GlobalMemory::write32(Addr a, std::uint32_t v)
{
    check(a, 4);
    std::memcpy(&data_[a], &v, 4);
}

std::uint16_t
GlobalMemory::read16(Addr a) const
{
    check(a, 2);
    std::uint16_t v;
    std::memcpy(&v, &data_[a], 2);
    return v;
}

void
GlobalMemory::write16(Addr a, std::uint16_t v)
{
    check(a, 2);
    std::memcpy(&data_[a], &v, 2);
}

std::uint8_t
GlobalMemory::read8(Addr a) const
{
    check(a, 1);
    return data_[a];
}

void
GlobalMemory::write8(Addr a, std::uint8_t v)
{
    check(a, 1);
    data_[a] = v;
}

std::uint32_t
GlobalMemory::read(Addr a, unsigned width) const
{
    switch (width) {
      case 1: return read8(a);
      case 2: return read16(a);
      case 4: return read32(a);
      default: DTBL_PANIC("bad access width ", width);
    }
}

void
GlobalMemory::write(Addr a, std::uint32_t v, unsigned width)
{
    switch (width) {
      case 1: write8(a, std::uint8_t(v)); return;
      case 2: write16(a, std::uint16_t(v)); return;
      case 4: write32(a, v); return;
      default: DTBL_PANIC("bad access width ", width);
    }
}

float
GlobalMemory::readF32(Addr a) const
{
    return std::bit_cast<float>(read32(a));
}

void
GlobalMemory::writeF32(Addr a, float v)
{
    write32(a, std::bit_cast<std::uint32_t>(v));
}

void
GlobalMemory::copyToDevice(Addr dst, const void *src, std::uint64_t bytes)
{
    check(dst, bytes);
    std::memcpy(&data_[dst], src, bytes);
}

void
GlobalMemory::copyFromDevice(void *dst, Addr src, std::uint64_t bytes) const
{
    check(src, bytes);
    std::memcpy(dst, &data_[src], bytes);
}

} // namespace dtbl
