#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace asymnvm::bench {

namespace {

/** Calls per host-time chunk of the CallLog (its host split is unused). */
constexpr uint64_t kChunkCalls = 1000;

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
writeMap(std::FILE *f, const char *key, const Metrics &m)
{
    std::fprintf(f, "\"%s\": {", key);
    const char *sep = "";
    for (const auto &[name, v] : m) {
        std::fprintf(f, "%s%s: ", sep, quoted(name).c_str());
        if (std::isfinite(v))
            std::fprintf(f, "%.17g", v);
        else
            std::fprintf(f, "null");
        sep = ", ";
    }
    std::fprintf(f, "}");
}

} // namespace

Meter::Meter() : m_(kChunkCalls), host0_(perfbench::hostNowNs()) {}

void
Meter::watch(FrontendSession &s)
{
    sessions_.emplace_back(&s, s.clock().now());
}

void
Meter::watch(BackendNode &be)
{
    backends_.emplace_back(&be, perfbench::BackendTally::of(be));
}

void
Meter::record(uint64_t vns, bool committed)
{
    std::lock_guard lock(mu_);
    m_.calls.record(vns, committed);
}

void
Meter::wrotePairs(uint64_t n)
{
    std::lock_guard lock(mu_);
    m_.user_bytes_written += n * perfbench::kPairBytes;
}

Cell
Meter::finish(uint64_t ops)
{
    std::lock_guard lock(mu_);
    m_.ops = ops;
    for (const auto &[s, t0] : sessions_) {
        m_.vns = std::max(m_.vns, s->clock().now() - t0);
        m_.sess.add(*s);
    }
    for (const auto &[be, tally0] : backends_) {
        m_.be += perfbench::BackendTally::of(*be) - tally0;
        m_.nvm_alloc_bytes += perfbench::allocatedBytes(*be);
    }
    m_.mirror_bytes = m_.be.repl_bytes;
    perfbench::Result r;
    perfbench::report(m_, perfbench::SetupTimes{}, perfbench::RunConfig{},
                      &r);
    const double host_ns =
        static_cast<double>(perfbench::hostNowNs() - host0_);
    return {std::move(r.virt),
            {{"host_s", host_ns / 1e9},
             {"host_ns_per_op",
              ops == 0 ? 0.0 : host_ns / static_cast<double>(ops)}}};
}

void
Report::add(Labels labels, Cell cell)
{
    cells_.emplace_back(std::move(labels), std::move(cell));
}

bool
Report::write() const
{
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    // One cell per line, so a baseline diff points at the cell.
    std::fprintf(f, "{\"bench\": %s, \"cells\": [\n",
                 quoted(name_).c_str());
    for (size_t i = 0; i < cells_.size(); ++i) {
        const auto &[labels, cell] = cells_[i];
        std::fprintf(f, "{\"labels\": {");
        const char *sep = "";
        for (const auto &[k, v] : labels) {
            std::fprintf(f, "%s%s: %s", sep, quoted(k).c_str(),
                         quoted(v).c_str());
            sep = ", ";
        }
        std::fprintf(f, "}, ");
        writeMap(f, "virt", cell.virt);
        std::fprintf(f, ", ");
        writeMap(f, "host", cell.host);
        std::fprintf(f, "}%s\n", i + 1 == cells_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    const bool ok = std::fclose(f) == 0;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return ok;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

} // namespace asymnvm::bench
