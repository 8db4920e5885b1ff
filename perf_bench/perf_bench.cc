/**
 * @file
 * perf_bench: the repository's benchmark binary. One process runs one
 * workload (a fixed set of verification cells, see workloads.h) through
 * the verifier's real entry point, verif::runResilientVerification, for
 * a fixed measuring window, checks every verdict against the
 * known-answer table, and prints one JSON result line.
 *
 *   perf_bench --workload <hunt|prove|deep_prove|budget> --seed <n>
 *              --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
 * pass of layers.h instead, reports the per-layer metrics and writes a
 * Chrome trace-event file. Both modes write a result file with the
 * provenance and per-cell detail to --out-dir. README.md documents the
 * workloads and metrics; run.py builds and runs this binary.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/parse.h"
#include "base/stopwatch.h"
#include "layers.h"
#include "verif/runner.h"
#include "workloads.h"

using namespace csl;
using namespace csl::perf_bench;

namespace {

/** Set-up repetitions per cell at the start of every pass; setup_s
 * reports their median. Spreading them over the run lets the median
 * see the same host phases the passes see. */
constexpr int kSetupRepsPerPass = 3;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    std::string outDir = ".";
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "perf_bench: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: perf_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        const std::string value = argv[++i];
        auto bad = [&] {
            usageError("bad value '" + value + "' for " + flag);
        };
        if (flag == "--workload") {
            if (workloadCells(value).empty())
                bad();
            opts.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            auto seed = parseUnsigned(value);
            if (!seed)
                bad();
            opts.seed = *seed;
        } else if (flag == "--seconds") {
            auto secs = parseDouble(value);
            if (!secs || *secs <= 0)
                bad();
            opts.seconds = *secs;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                bad();
            opts.trace = value == "1";
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload) {
        std::string names;
        for (const std::string &name : workloadNames())
            names += (names.empty() ? "" : ", ") + name;
        usageError("--workload is required (one of " + names + ")");
    }
    return opts;
}

/** Why this build's numbers are not comparable; empty when they are. */
std::string
incomparableBuild()
{
#ifndef __OPTIMIZE__
    return "the build is unoptimized";
#elif !defined(NDEBUG)
    return "assertions are enabled (a Debug-style build)";
#else
    if (std::string(PERF_BENCH_CXX_FLAGS).find("-fsanitize") !=
        std::string::npos)
        return "the build is sanitized";
    return "";
#endif
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/** Peak resident set size since the last resetPeakRss(), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    return 0;
}

/**
 * Hand freed heap back to the kernel, then restart the VmHWM peak at the
 * current RSS (Linux clear_refs "5"), so the next peak is what one cell
 * needs on top of the live heap - not what earlier cells left cached in
 * the allocator. If the kernel refuses the reset, VmHWM stays the
 * whole-process peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** The seed's cell order for one pass (Fisher-Yates). */
std::vector<size_t>
passOrder(size_t cells, uint64_t seed, size_t pass)
{
    std::vector<size_t> order(cells);
    std::iota(order.begin(), order.end(), size_t(0));
    uint64_t state = seed * 0x100000001B3ull + pass;
    for (size_t i = cells; i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Every run of one cell in this process. */
struct CellRecord
{
    std::vector<double> walls;
    std::vector<double> setups;
    std::vector<double> peaksMb;
    std::vector<std::string> verdicts;
};

/** Outcome counts over every run attempted in this process. */
struct Accounting
{
    size_t attempted = 0;
    size_t failed = 0;
    size_t decided = 0;
    double budgetOverrun = 0;

    void
    record(const Cell &cell, const CellRun &run, CellRecord &record)
    {
        ++attempted;
        failed += run.ok ? 0 : 1;
        decided += run.verdict == mc::Verdict::Attack ||
                   run.verdict == mc::Verdict::Proof;
        budgetOverrun = std::max(budgetOverrun,
                                 run.seconds - cell.task.timeoutSeconds);
        record.walls.push_back(run.seconds);
        record.verdicts.push_back(std::string(mc::verdictName(run.verdict)) +
                                  "@" + std::to_string(run.depth));
    }
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + jsonQuoted(metrics[i].name) +
               ": {\"value\": " + num(metrics[i].value) +
               ", \"unit\": " + jsonQuoted(metrics[i].unit) + "}";
    return out + "}";
}

std::string
provenanceJson(const Options &opts, double load_at_start)
{
    std::ostringstream oss;
    oss << "{\"git_sha\": " << jsonQuoted(PERF_BENCH_GIT_SHA)
        << ", \"git_dirty\": " << jsonQuoted(PERF_BENCH_GIT_DIRTY)
        << ", \"build_type\": " << jsonQuoted(PERF_BENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonQuoted(PERF_BENCH_COMPILER)
        << ", \"cxx_flags\": " << jsonQuoted(PERF_BENCH_CXX_FLAGS)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"seed\": " << opts.seed
        << ", \"seconds\": " << num(opts.seconds)
        << ", \"loadavg_1m\": " << num(load_at_start) << "}";
    return oss.str();
}

/** One untraced runner run; an exception counts as a failed run. */
CellRun
runCell(const Cell &cell, std::vector<double> &peaks_mb)
{
    resetPeakRss();
    CellRun run;
    Stopwatch watch;
    try {
        verif::RunnerResult rr = verif::runResilientVerification(cell.task);
        run.verdict = rr.result.verdict;
        run.depth = rr.result.depth;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_bench: %s threw: %s\n",
                     cell.name.c_str(), e.what());
    }
    run.seconds = watch.seconds();
    peaks_mb.push_back(peakRssMb());
    run.ok = answerIsCorrect(cell, run.verdict, run.depth);
    if (!run.ok)
        std::fprintf(stderr, "perf_bench: %s answered %s at depth %zu\n",
                     cell.name.c_str(), mc::verdictName(run.verdict),
                     run.depth);
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const std::string why = incomparableBuild();
    if (!why.empty()) {
        std::fprintf(stderr,
                     "perf_bench: refusing to measure: %s; rebuild with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     why.c_str());
        return 2;
    }
    double load[1] = {0};
    if (getloadavg(load, 1) != 1)
        load[0] = -1;

    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "perf_bench: cannot create %s: %s\n",
                     opts.outDir.c_str(), ec.message().c_str());
        return 1;
    }

    const std::vector<Cell> cells = workloadCells(opts.workload);
    std::vector<CellRecord> records(cells.size());
    Accounting acc;
    Stopwatch window;
    std::vector<Metric> metrics;
    SpanLog log;
    LayerTotals totals;
    std::vector<double> pass_cpu;
    size_t passes = 0;

    // Whole passes while the next one, as long as the last, still fits
    // the window; always at least one.
    double last_pass = 0;
    do {
        Stopwatch pass_watch;
        if (!opts.trace)
            for (int rep = 0; rep < kSetupRepsPerPass; ++rep)
                for (size_t c = 0; c < cells.size(); ++c)
                    records[c].setups.push_back(
                        buildCellSetup(cells[c], nullptr)->seconds());
        const double cpu_before = cpuSeconds();
        for (size_t c : passOrder(cells.size(), opts.seed, passes)) {
            const CellRun run =
                opts.trace ? traceCell(cells[c], opts.outDir, log, totals)
                           : runCell(cells[c], records[c].peaksMb);
            acc.record(cells[c], run, records[c]);
        }
        pass_cpu.push_back(cpuSeconds() - cpu_before);
        last_pass = pass_watch.seconds();
        ++passes;
    } while (window.seconds() + last_pass <= opts.seconds);

    const std::string stem =
        opts.outDir + "/" + opts.workload + "-seed" +
        std::to_string(opts.seed) + (opts.trace ? "-layers" : "");
    if (opts.trace) {
        metrics = layerMetrics(totals, passes);
        const std::string trace_path = stem + ".trace.json";
        if (!log.writeChromeTrace(trace_path)) {
            std::fprintf(stderr, "perf_bench: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
    } else {
        double log_sum = 0, setup_s = 0, peak_mb = 0;
        for (const CellRecord &record : records) {
            log_sum += std::log(median(record.walls));
            setup_s += median(record.setups);
            peak_mb = std::max(peak_mb, median(record.peaksMb));
        }
        metrics = {
            {"verdict_s", "s", std::exp(log_sum / double(records.size()))},
            {"cpu_s", "s", median(pass_cpu)},
            {"setup_s", "s", setup_s},
            {"peak_rss_mb", "MB", peak_mb},
        };
    }

    // Human-readable per-cell table, then the result file.
    std::ostringstream cells_json;
    for (size_t c = 0; c < cells.size(); ++c) {
        const CellRecord &r = records[c];
        const auto [lo, hi] = std::minmax_element(r.walls.begin(),
                                                  r.walls.end());
        std::printf("%-32s %-12s median %.3fs min %.3fs max %.3fs n %zu\n",
                    cells[c].name.c_str(), r.verdicts.front().c_str(),
                    median(r.walls), *lo, *hi, r.walls.size());
        cells_json << (c ? ", " : "") << "{\"name\": "
                   << jsonQuoted(cells[c].name) << ", \"verdicts\": [";
        for (size_t i = 0; i < r.verdicts.size(); ++i)
            cells_json << (i ? ", " : "") << jsonQuoted(r.verdicts[i]);
        cells_json << "], \"wall_s\": {\"median\": " << num(median(r.walls))
                   << ", \"min\": " << num(*lo) << ", \"max\": " << num(*hi)
                   << ", \"n\": " << r.walls.size() << "}";
        if (!r.setups.empty())
            cells_json << ", \"setup_s_median\": " << num(median(r.setups));
        cells_json << "}";
    }

    const double attempted = double(acc.attempted);
    const std::string metrics_json = metricsJson(metrics);
    std::ofstream result(stem + ".json", std::ios::trunc);
    result << "{\"workload\": " << jsonQuoted(opts.workload)
           << ", \"trace\": " << (opts.trace ? "true" : "false")
           << ", \"provenance\": " << provenanceJson(opts, load[0])
           << ", \"correct\": " << (acc.failed == 0 ? "true" : "false")
           << ", \"attempted\": " << acc.attempted
           << ", \"failed\": " << acc.failed << ", \"passes\": " << passes
           << ", \"accounting\": {\"decided_frac\": "
           << num(double(acc.decided) / attempted)
           << ", \"failed_frac\": " << num(double(acc.failed) / attempted)
           << ", \"budget_overrun_s\": "
           << num(std::max(0.0, acc.budgetOverrun))
           << "}, \"metrics\": " << metrics_json << ", \"cells\": ["
           << cells_json.str() << "]}\n";
    result.flush();
    if (!result) {
        std::fprintf(stderr, "perf_bench: cannot write %s.json\n",
                     stem.c_str());
        return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                acc.failed == 0 ? "true" : "false", acc.attempted,
                acc.failed, metrics_json.c_str());
    return 0;
}
