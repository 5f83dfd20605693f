/**
 * @file
 * Entry point of the benchmark binary: one round of one workload.
 *
 *   perfbench --workload kv_write|read_pipelined|tatp|failover
 *             --seed N [--scale full|tiny] [--trace FILE]
 *
 * Prints one JSON object on its last line of stdout: the op counts, the
 * output-check verdict, the virtual-time and counter metrics ("virt",
 * deterministic for a seed) and the host-time and memory metrics
 * ("host"). With --trace the spans of the round are written to FILE as
 * Chrome trace-event JSON. run.py drives rounds of this binary and
 * aggregates them.
 */

#include <sys/resource.h>

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void
printString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(std::isprint(static_cast<unsigned char>(c)) ? c : '?');
    }
    std::putchar('"');
}

void
printMetrics(const char *key, const Metrics &m)
{
    std::printf(", \"%s\": {", key);
    bool first = true;
    for (const auto &[name, value] : m) {
        // %.17g round-trips a double exactly, so equal metric maps print
        // byte-identical text.
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                    std::isfinite(value) ? value : 0.0);
        first = false;
    }
    std::printf("}");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "kv_write|read_pipelined|tatp|failover --seed N "
                 "[--scale full|tiny] [--trace FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig rc;
    rc.process_start_ns = hostNowNs();
    std::string workload, trace_path;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            workload = val;
        } else if (flag == "--seed") {
            char *end = nullptr;
            rc.seed = std::strtoull(val, &end, 10);
            have_seed = end != val && *end == '\0';
        } else if (flag == "--scale") {
            if (std::strcmp(val, "tiny") != 0 &&
                std::strcmp(val, "full") != 0)
                return usage();
            rc.tiny = std::strcmp(val, "tiny") == 0;
        } else if (flag == "--trace") {
            trace_path = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_seed)
        return usage();

    Tracer tracer(!trace_path.empty());
    Result res;
    if (workload == "kv_write")
        res = runKvWrite(rc, tracer);
    else if (workload == "read_pipelined")
        res = runReadPipelined(rc, tracer);
    else if (workload == "tatp")
        res = runTatp(rc, tracer);
    else if (workload == "failover")
        res = runFailover(rc, tracer);
    else
        return usage();

    if (tracer.enabled() && !tracer.write(trace_path))
        res.fail("cannot write trace file " + trace_path);
    for (const std::string &e : res.errors)
        std::fprintf(stderr, "perfbench: %s\n", e.c_str());

    res.virt["failed_op_frac"] =
        res.attempted == 0 ? 1.0
                           : static_cast<double>(res.failed) /
                                 static_cast<double>(res.attempted);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    res.host["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::printf("{\"workload\": ");
    printString(workload);
    std::printf(", \"seed\": %" PRIu64 ", \"scale\": \"%s\", "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"correct\": %s, \"spans\": %zu, \"errors\": [",
                rc.seed, rc.tiny ? "tiny" : "full", res.attempted,
                res.failed,
                res.failed == 0 && res.attempted > 0 ? "true" : "false",
                tracer.spanCount());
    for (size_t i = 0; i < res.errors.size(); ++i) {
        if (i > 0)
            std::printf(", ");
        printString(res.errors[i]);
    }
    std::printf("]");
    printMetrics("virt", res.virt);
    printMetrics("host", res.host);
    std::printf(", \"host_chunks\": [");
    for (size_t i = 0; i < res.host_chunks.size(); ++i)
        std::printf("%s%.17g", i == 0 ? "" : ", ", res.host_chunks[i]);
    std::printf("]}\n");
    return 0;
}
