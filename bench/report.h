#ifndef ASYMNVM_BENCH_REPORT_H_
#define ASYMNVM_BENCH_REPORT_H_

/**
 * @file
 * The one bench report writer.
 *
 * Every bench binary collects its cells in a Report and writes them to
 * BENCH_<name>.json, `<name>` being the binary's name minus `bench_`.
 * A cell is `{labels, virt, host}`. `virt` holds perfbench's metric
 * schema (perfbench/src/metrics.h: report() over one measured run) plus
 * the bench's own columns. Outside the threaded benches it is a pure
 * function of the code, so the tiny-mode files are committed under
 * bench/baseline/ and each bench's gate compares them exactly. `host`
 * holds host wall time and is never compared. Doubles are written
 * round-trip exact (`%.17g`).
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "metrics.h"

namespace asymnvm::bench {

using perfbench::Metrics;

/** A cell's coordinates in its table, written in this order. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** What one cell measured. */
struct Cell
{
    Metrics virt;
    Metrics host;
};

/**
 * Measures one cell: the virtual latency of every measured call through
 * perfbench's CallLog, and the counters of the sessions and back-ends it
 * watches, turned into perfbench's metrics by report(). It only reads
 * clocks and counters, so a metered run prints what an unmetered one
 * does.
 */
class Meter
{
  public:
    Meter();

    /** The common cell: one session on one back-end, from now on. */
    Meter(FrontendSession &s, BackendNode &be) : Meter()
    {
        watch(s);
        watch(be);
    }

    /**
     * Time @p s from now on and count its counters (since its last
     * resetStats, as perfbench's SessionTally does).
     */
    void watch(FrontendSession &s);

    /** Count @p be's counters from now on. */
    void watch(BackendNode &be);

    /**
     * Run @p fn as one measured call on @p s: its session clock delta is
     * one latency sample. Threads may meter their own sessions at once.
     */
    template <typename Fn>
    void
    call(FrontendSession &s, Fn &&fn)
    {
        const uint64_t v0 = s.clock().now();
        const uint64_t flushes = s.txFlushes();
        fn();
        record(s.clock().now() - v0, s.txFlushes() != flushes);
    }

    /** Key/value pairs the measured calls wrote (for nvm.write_amp). */
    void wrotePairs(uint64_t n);

    /**
     * Close the cell after @p ops operations. Its virtual time is the
     * slowest watched session's since watch().
     */
    Cell finish(uint64_t ops);

  private:
    void record(uint64_t vns, bool committed);

    std::mutex mu_;
    perfbench::Measured m_;
    uint64_t host0_;
    std::vector<std::pair<FrontendSession *, uint64_t>> sessions_;
    std::vector<std::pair<BackendNode *, perfbench::BackendTally>> backends_;
};

/** A bench's cells, written once at the end of the run. */
class Report
{
  public:
    /** @p name: the binary's name minus `bench_`. */
    explicit Report(std::string name) : name_(std::move(name)) {}

    void add(Labels labels, Cell cell);

    /** Write BENCH_<name>.json into the working directory. */
    bool write() const;

  private:
    std::string name_;
    std::vector<std::pair<Labels, Cell>> cells_;
};

/** A number as a label (`%g`). */
std::string num(double v);

} // namespace asymnvm::bench

#endif // ASYMNVM_BENCH_REPORT_H_
