#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * Span recorder for traced benchmark runs.
 *
 * The benchmark opens a span around every call it makes into a layer of
 * the library: each setup step, each operation, pipelined window or
 * transaction, each explicit flushAll, and each failover episode. A span
 * carries the virtual clock of the session it ran on and the host steady
 * clock at both ends, so one trace explains both the simulated cost and
 * the simulator's own cost. Spans stay in memory and are written out as
 * Chrome trace-event JSON when the run ends.
 *
 * Recording only reads clocks; it never advances one. A traced run's
 * virtual-time metrics therefore equal the untraced run's bit for bit,
 * and the difference in host time between the two is the tracing
 * overhead.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace perfbench {

/** Host steady-clock time in nanoseconds. */
uint64_t hostNowNs();

/** In-memory span log of one run; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Open a span nested in the innermost open one. @p track groups the
     * spans of one session (0 is the benchmark's own track).
     * Returns the span id, 0 when tracing is off.
     */
    uint32_t begin(const char *name, const char *layer, uint32_t track,
                   uint64_t vnow);

    /** Close the innermost open span, which must be @p id. */
    void end(uint32_t id, uint64_t vnow);

    /**
     * Open a span that overlaps the nested ones instead of enclosing
     * them (a failover episode spans several operations); its parent is
     * the innermost open span. Closed by finish().
     */
    uint32_t open(const char *name, const char *layer, uint32_t track,
                  uint64_t vnow);
    void finish(uint32_t id, uint64_t vnow);

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

    size_t spanCount() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        const char *layer;
        uint32_t track;
        uint32_t parent; //!< enclosing span id, 0 = none
        uint64_t v0, v1; //!< virtual ns
        uint64_t h0, h1; //!< host ns
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/**
 * RAII span over a scope, timed on @p clock (nullptr before any session
 * exists: the span then sits at virtual time 0).
 */
class Scope
{
  public:
    Scope(Tracer &tr, const char *name, const char *layer, uint32_t track,
          const asymnvm::SimClock *clock)
        : tr_(tr), clock_(clock),
          id_(tr.begin(name, layer, track, clock ? clock->now() : 0))
    {}
    ~Scope() { tr_.end(id_, clock_ ? clock_->now() : 0); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tr_;
    const asymnvm::SimClock *clock_;
    uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
