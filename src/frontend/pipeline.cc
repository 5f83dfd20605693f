#include "frontend/pipeline.h"

#include <pthread.h>

#include <mutex>
#include <new>

namespace asymnvm {

namespace {

/**
 * Freed coroutine frames kept for reuse by the thread that freed them,
 * matched by exact frame size (each coroutine function has one). A
 * serial loop allocates and frees one frame per operation, so a few
 * slots turn that malloc/free pair into a slot swap.
 *
 * The storage is trivially destructible on purpose: a thread_local with
 * a destructor registers it through a small heap allocation at first
 * use, and that one block moved the glibc heap layout enough to add
 * 20 MB to the failover benchmark's peak RSS. Thread exit drains the
 * cache through a pthread key instead; the main thread's frames stay
 * reachable from its thread-local storage until the process ends.
 */
struct FrameCache
{
    static constexpr unsigned kSlots = 8;
    void *frame[kSlots];
    std::size_t size[kSlots];
    unsigned next_victim; //!< round-robin eviction once every slot is full
    bool drain_registered;
};

thread_local FrameCache cache;
pthread_key_t drain_key;
std::once_flag drain_key_once;

void
drain(void *arg)
{
    FrameCache &c = *static_cast<FrameCache *>(arg);
    for (void *&p : c.frame) {
        ::operator delete(p);
        p = nullptr;
    }
}

} // namespace

void *
frameAlloc(std::size_t n)
{
    FrameCache &c = cache;
    for (unsigned i = 0; i < FrameCache::kSlots; ++i) {
        if (c.frame[i] != nullptr && c.size[i] == n) {
            void *p = c.frame[i];
            c.frame[i] = nullptr;
            return p;
        }
    }
    return ::operator new(n);
}

void
frameFree(void *p, std::size_t n)
{
    FrameCache &c = cache;
    if (!c.drain_registered) {
        std::call_once(drain_key_once,
                       [] { pthread_key_create(&drain_key, drain); });
        pthread_setspecific(drain_key, &c);
        c.drain_registered = true;
    }
    unsigned slot = FrameCache::kSlots;
    for (unsigned i = 0; i < FrameCache::kSlots; ++i) {
        if (c.frame[i] == nullptr) {
            slot = i;
            break;
        }
    }
    if (slot == FrameCache::kSlots) {
        slot = c.next_victim++ % FrameCache::kSlots;
        ::operator delete(c.frame[slot]);
    }
    c.frame[slot] = p;
    c.size[slot] = n;
}

} // namespace asymnvm
