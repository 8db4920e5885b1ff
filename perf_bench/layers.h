/**
 * @file
 * The per-layer side of perf_bench: building a cell's verification
 * circuit the way the runner does (the set-up every run times), and the
 * traced pass that times the calls into each layer's public functions
 * from outside and records them as Chrome trace-event spans.
 */

#ifndef CSL_PERF_BENCH_LAYERS_H_
#define CSL_PERF_BENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stopwatch.h"
#include "rtl/transform/passes.h"
#include "shadow/shadow_builder.h"
#include "workloads.h"

namespace csl::perf_bench {

/** User + system CPU seconds of this process, all threads included. */
double cpuSeconds();

/** @p text as a JSON string literal. */
std::string jsonQuoted(const std::string &text);

/** A named measurement with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** One complete ("ph":"X") event of the Chrome trace. */
struct Span
{
    std::string name;
    std::string cell;
    double startUs = 0;
    double durUs = 0;
};

/** Spans kept in memory and written once when the run ends. */
class SpanLog
{
  public:
    /** Microseconds since the log was created. */
    double nowUs() const { return clock_.seconds() * 1e6; }

    void add(const std::string &name, const std::string &cell,
             double start_us, double end_us)
    {
        spans_.push_back({name, cell, start_us, end_us - start_us});
    }

    /** Write the Chrome trace-event JSON Perfetto loads; false on an
     * I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Stopwatch clock_;
    std::vector<Span> spans_;
};

/** A cell's verification circuit, built as runResilientVerification
 * builds it before its first engine stage. */
struct CellSetup
{
    rtl::Circuit original;
    shadow::ShadowHarness harness;
    rtl::transform::ReductionResult reduction;
    /** Houdini candidates mapped into the reduced circuit. */
    std::vector<rtl::NetId> candidates;
    bool preflightClean = true;
    double buildSeconds = 0;
    double preflightSeconds = 0;
    double reduceSeconds = 0;

    double seconds() const
    {
        return buildSeconds + preflightSeconds + reduceSeconds;
    }
};

/** Shadow build + pre-flight lint + reduction; spans go to @p log when
 * it is non-null. */
std::unique_ptr<CellSetup> buildCellSetup(const Cell &cell, SpanLog *log);

/** Per-layer sums over a workload's traced cells. */
class LayerTotals
{
  public:
    void add(const std::string &key, double value) { sums_[key] += value; }
    double get(const std::string &key) const;

  private:
    std::map<std::string, double> sums_;
};

/** What one runner run of a cell answered, and whether the bench's
 * checks held (the known answer; on traced runs also the layer calls'
 * answers and the witness replay). */
struct CellRun
{
    mc::Verdict verdict = mc::Verdict::Diagnosed;
    size_t depth = 0;
    double seconds = 0;
    bool ok = false;
};

/**
 * One traced pass over @p cell: the runner run, then each layer's public
 * entry point called on its own (set-up, Houdini, the engine portfolio,
 * a BMC-shaped SAT loop, witness audit, journal save). @p scratch_dir
 * receives a temporary journal file, removed again.
 */
CellRun traceCell(const Cell &cell, const std::string &scratch_dir,
                  SpanLog &log, LayerTotals &totals);

/** The per-layer metrics of @p passes traced passes, in BENCHMARK.json
 * order: sums per pass, ratios recomputed from the sums. */
std::vector<Metric> layerMetrics(const LayerTotals &totals, size_t passes);

} // namespace csl::perf_bench

#endif // CSL_PERF_BENCH_LAYERS_H_
