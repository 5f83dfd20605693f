#include "trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint64_t
hostNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint32_t
Tracer::open(const char *name, const char *layer, uint32_t track,
             uint64_t vnow)
{
    if (!enabled_)
        return 0;
    const uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(
        Span{name, layer, track, parent, vnow, vnow, hostNowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
}

void
Tracer::finish(uint32_t id, uint64_t vnow)
{
    if (id == 0)
        return;
    Span &sp = spans_[id - 1];
    sp.v1 = vnow;
    sp.h1 = hostNowNs();
}

uint32_t
Tracer::begin(const char *name, const char *layer, uint32_t track,
              uint64_t vnow)
{
    const uint32_t id = open(name, layer, track, vnow);
    if (id != 0)
        stack_.push_back(id);
    return id;
}

void
Tracer::end(uint32_t id, uint64_t vnow)
{
    if (id == 0)
        return;
    finish(id, vnow);
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // Chrome trace-event "complete" events on the virtual timeline (ts in
    // microseconds); host times ride along in args, relative to the first
    // span, so the simulator's own cost per span is readable too.
    const uint64_t h_base = spans_.empty() ? 0 : spans_.front().h0;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &sp = spans_[i];
        const uint64_t h1 = sp.h1 < sp.h0 ? sp.h0 : sp.h1; // never closed
        const uint64_t v1 = sp.v1 < sp.v0 ? sp.v0 : sp.v1;
        std::fprintf(
            f,
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %" PRIu32 ", \"ts\": %.3f, "
            "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %" PRIu32
            ", \"vstart_ns\": %" PRIu64 ", \"vdur_ns\": %" PRIu64
            ", \"host_start_ns\": %" PRIu64 ", \"host_dur_ns\": %" PRIu64
            "}}%s\n",
            sp.name, sp.layer, sp.track, sp.v0 / 1000.0,
            (v1 - sp.v0) / 1000.0, i + 1, sp.parent, sp.v0, v1 - sp.v0,
            sp.h0 - h_base, h1 - sp.h0, i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
