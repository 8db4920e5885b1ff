/**
 * @file
 * Shared helpers for the reproduction bench binaries: budget flags and
 * aligned table printing. Each bench regenerates one table/figure from
 * the paper's evaluation (see EXPERIMENTS.md for the mapping).
 */

#ifndef CSL_BENCH_BENCH_UTIL_H_
#define CSL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "base/parse.h"

namespace csl::bench {

/** A positive budget parsed from @p text; a bad or missing value exits
 * 2 naming the offending @p source. */
inline double
parseBudget(const char *text, const char *source)
{
    std::optional<double> seconds =
        text ? parseDouble(text) : std::nullopt;
    if (!seconds || *seconds <= 0) {
        std::fprintf(stderr, "bad value '%s' for %s\n", text ? text : "",
                     source);
        std::exit(2);
    }
    return *seconds;
}

/**
 * Per-cell wall-clock budget in seconds. Defaults to @p def; override
 * with `--budget <seconds>` (first flag) or the CSL_BENCH_BUDGET
 * environment variable. The paper's timeout is 7 days on a Xeon server;
 * scale expectations accordingly.
 */
inline double
budgetSeconds(int argc, char **argv, double def)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--budget") == 0)
            return parseBudget(i + 1 < argc ? argv[i + 1] : nullptr,
                               "--budget");
    if (const char *env = std::getenv("CSL_BENCH_BUDGET"))
        return parseBudget(env, "CSL_BENCH_BUDGET");
    return def;
}

/** printf a row with a fixed-width first column. */
inline void
row(const std::string &head, const std::string &body)
{
    std::printf("%-28s %s\n", head.c_str(), body.c_str());
}

inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace csl::bench

#endif // CSL_BENCH_BENCH_UTIL_H_
