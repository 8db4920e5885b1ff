#include "mc/portfolio.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "base/stopwatch.h"

namespace csl::mc {

namespace {

/** One engine's slot in a portfolio run. */
struct EngineRun
{
    std::unique_ptr<rtl::Circuit> clone; ///< null on the inline path
    std::unique_ptr<Engine> engine;
    EngineResult result;
    double seconds = 0;
};

} // namespace

CheckResult
checkProperty(const rtl::Circuit &circuit, const CheckOptions &options)
{
    Stopwatch watch;

    std::vector<EngineKind> kinds = options.engines;
    if (kinds.empty()) {
        // Default set: both engines report minimal-depth attacks, so the
        // facade stays depth-exact for the cross-check oracle. PDR joins
        // only by explicit selection (runner proof stages, --engines).
        kinds.push_back(EngineKind::Bmc);
        if (options.tryProof)
            kinds.push_back(EngineKind::KInduction);
    }

    EngineConfig config;
    config.maxDepth = options.maxDepth;
    config.assumedInvariants = options.assumedInvariants;
    config.decisionSeed = options.decisionSeed;
    config.startSafeDepth = options.startSafeDepth;

    FactBoard board;
    board.publishSafeBound(options.startSafeDepth);

    // The shared time bound. Engines observe a caller cancellation
    // through this slice's shared flag; first-winner cancellation goes
    // through Engine::cancel() instead - cancelling the slice would
    // cancel the caller's deadline too (slices share the flag).
    Deadline shared =
        options.deadline ? options.deadline->slice(options.timeoutSeconds)
                         : Deadline::in(options.timeoutSeconds);

    const size_t n = kinds.size();
    std::vector<EngineRun> runs(n);
    for (size_t i = 0; i < n; ++i) {
        if (n == 1) {
            // Single engine: run inline on the caller's circuit.
            runs[i].engine = makeEngine(kinds[i], circuit, config);
        } else {
            // Private clone per engine: NetIds are indices into value
            // arrays, so they stay valid across the copy and the
            // engines' invariant/bound facts remain exchangeable.
            runs[i].clone = std::make_unique<rtl::Circuit>(circuit);
            runs[i].engine = makeEngine(kinds[i], *runs[i].clone, config);
        }
    }

    std::mutex winner_mutex;
    int winner = -1;

    auto drive = [&](size_t i) {
        Stopwatch engine_watch;
        // Budgets are single-thread objects: one per engine, all bounded
        // by the shared (atomic) deadline slice.
        Budget budget(options.timeoutSeconds);
        budget.attachDeadline(shared);
        runs[i].result = runEngine(*runs[i].engine, &budget, &board);
        runs[i].seconds = engine_watch.seconds();

        // First conclusive verdict wins; losers are cancelled through
        // their thread-safe interrupt and conclude at the next poll.
        if (runs[i].result.conclusive()) {
            std::lock_guard<std::mutex> lock(winner_mutex);
            if (winner < 0) {
                winner = static_cast<int>(i);
                for (size_t j = 0; j < n; ++j)
                    if (j != i)
                        runs[j].engine->cancel();
            }
        }
    };

    if (n == 1) {
        drive(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(n);
        for (size_t i = 0; i < n; ++i)
            threads.emplace_back(drive, i);
        for (std::thread &t : threads)
            t.join();
    }

    CheckResult result;
    result.importedFacts = board.imports();
    size_t best_bound = board.safeBound();
    bool any_bounded = false;
    for (size_t i = 0; i < n; ++i) {
        const EngineResult &er = runs[i].result;
        EngineOutcome outcome;
        outcome.kind = kinds[i];
        outcome.verdict = er.verdict;
        outcome.depth = er.depth;
        outcome.seconds = runs[i].seconds;
        outcome.conflicts = er.conflicts;
        outcome.deepestSafeBound = er.deepestSafeBound;
        outcome.importedFacts = er.importedFacts;
        outcome.winner = static_cast<int>(i) == winner;
        result.engines.push_back(std::move(outcome));
        result.conflicts += er.conflicts;
        best_bound = std::max(best_bound, er.deepestSafeBound);
        any_bounded |= er.verdict == Verdict::BoundedSafe;
    }
    result.deepestSafeBound = best_bound;

    if (winner >= 0) {
        EngineResult &won = runs[winner].result;
        result.verdict = won.verdict;
        result.depth = won.depth;
        result.trace = std::move(won.trace);
        result.winner = engineKindName(kinds[winner]);
    } else {
        // No engine concluded Attack/Proof: synthesize the strongest
        // sound partial verdict from the pooled facts.
        result.verdict =
            any_bounded ? Verdict::BoundedSafe : Verdict::Timeout;
        result.depth = best_bound;
    }
    result.seconds = watch.seconds();
    return result;
}

} // namespace csl::mc
