#include "nvm/nvm_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace asymnvm {

NvmDevice::NvmDevice(uint64_t size)
    : mem_(static_cast<uint8_t *>(std::calloc(size, 1))), size_(size)
{
    if (size < 4096)
        throw std::invalid_argument("NvmDevice: size too small");
    if (!mem_)
        throw std::bad_alloc();
}

void
NvmDevice::read(uint64_t off, void *dst, size_t len) const
{
    std::shared_lock lock(mu_);
    assert(off + len <= size_);
    std::memcpy(dst, mem_.get() + off, len);
}

void
NvmDevice::write(uint64_t off, const void *src, size_t len)
{
    std::unique_lock lock(mu_);
    assert(off + len <= size_);
    Pending p;
    p.off = off;
    p.old_bytes.assign(mem_.get() + off, mem_.get() + off + len);
    pending_.push_back(std::move(p));
    std::memcpy(mem_.get() + off, src, len);
    bytes_written_ += len;
}

uint64_t
NvmDevice::read64(uint64_t off) const
{
    uint64_t v;
    read(off, &v, sizeof(v));
    return v;
}

void
NvmDevice::write64Atomic(uint64_t off, uint64_t v)
{
    std::unique_lock lock(mu_);
    assert(off + sizeof(v) <= size_);
    std::memcpy(mem_.get() + off, &v, sizeof(v));
    bytes_written_ += sizeof(v);
    // Atomic verbs are immediately durable; no journal entry.
}

uint64_t
NvmDevice::compareAndSwap64(uint64_t off, uint64_t expected,
                            uint64_t desired)
{
    std::unique_lock lock(mu_);
    assert(off + 8 <= size_);
    uint64_t cur;
    std::memcpy(&cur, mem_.get() + off, 8);
    if (cur == expected) {
        std::memcpy(mem_.get() + off, &desired, 8);
        bytes_written_ += 8;
    }
    return cur;
}

uint64_t
NvmDevice::fetchAdd64(uint64_t off, uint64_t delta)
{
    std::unique_lock lock(mu_);
    assert(off + 8 <= size_);
    uint64_t cur;
    std::memcpy(&cur, mem_.get() + off, 8);
    const uint64_t next = cur + delta;
    std::memcpy(mem_.get() + off, &next, 8);
    bytes_written_ += 8;
    return cur;
}

void
NvmDevice::persist()
{
    std::unique_lock lock(mu_);
    pending_.clear();
}

namespace {

bool
allZero(const uint8_t *p, size_t len)
{
    return p[0] == 0 && std::memcmp(p, p + 1, len - 1) == 0;
}

} // namespace

void
NvmDevice::copyFrom(const NvmDevice &src)
{
    std::unique_lock dst_lock(mu_, std::defer_lock);
    std::shared_lock src_lock(src.mu_, std::defer_lock);
    std::lock(dst_lock, src_lock);
    assert(src.size_ == size_);
    constexpr uint64_t kPage = 4096;
    for (uint64_t off = 0; off < size_; off += kPage) {
        const size_t len = static_cast<size_t>(std::min(kPage, size_ - off));
        const uint8_t *from = src.mem_.get() + off;
        uint8_t *to = mem_.get() + off;
        // Untouched calloc pages on both sides stay unfaulted.
        if (allZero(from, len) && allZero(to, len))
            continue;
        std::memcpy(to, from, len);
    }
    pending_.clear(); // the copy is durable, as is everything staged
    bytes_written_ += size_;
}

size_t
NvmDevice::pendingWrites() const
{
    std::shared_lock lock(mu_);
    return pending_.size();
}

void
NvmDevice::crash()
{
    crashPartial(0);
}

void
NvmDevice::crashPartial(size_t keep_writes)
{
    std::unique_lock lock(mu_);
    // Roll back in reverse order so overlapping writes restore correctly.
    while (pending_.size() > keep_writes) {
        const Pending &p = pending_.back();
        std::memcpy(mem_.get() + p.off, p.old_bytes.data(),
                    p.old_bytes.size());
        pending_.pop_back();
    }
    pending_.clear(); // the surviving prefix is now durable
}

void
NvmDevice::applyTornWrite(uint64_t off, const void *src, size_t len,
                          size_t keep_bytes)
{
    std::unique_lock lock(mu_);
    assert(off + len <= size_);
    keep_bytes = std::min(keep_bytes, len);
    // Stage the full write as the in-flight DMA would...
    Pending p;
    p.off = off;
    p.old_bytes.assign(mem_.get() + off, mem_.get() + off + len);
    std::memcpy(mem_.get() + off, src, len);
    bytes_written_ += len;
    // ...then power fails mid-transfer: the tail beyond keep_bytes rolls
    // back and the surviving prefix is immediately durable (no journal
    // entry remains, so a later crash() cannot undo it).
    std::memcpy(mem_.get() + off + keep_bytes, p.old_bytes.data() + keep_bytes,
                len - keep_bytes);
}

} // namespace asymnvm
