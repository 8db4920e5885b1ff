/**
 * @file
 * Explicit-state exhaustive reachability for tiny circuits.
 *
 * Enumerates every initial state (symbolic-init register assignment
 * satisfying the init constraints) and every input assignment at every
 * step, pruning paths whose per-cycle constraints fail - the exact
 * semantics the SAT-based engines implement symbolically. Exponential,
 * so only usable for circuits with a handful of state/input bits, where
 * it serves as an independent oracle for cross-validating BMC and
 * k-induction in the property-test suites. ExhaustiveEngine puts the
 * same exploration behind the Engine interface.
 */

#ifndef CSL_MC_EXHAUSTIVE_H_
#define CSL_MC_EXHAUSTIVE_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "base/budget.h"
#include "mc/engine.h"
#include "mc/trace.h"
#include "rtl/circuit.h"

namespace csl::mc {

/** Expanded-state limit of exhaustiveCheck() and ExhaustiveEngine. */
constexpr size_t kExhaustiveMaxStates = 1 << 20;

/** Result of an exhaustive exploration. */
struct ExhaustiveResult
{
    bool completed = false;    ///< state budget sufficed
    bool badReachable = false; ///< some bad net fires on a legal path
    /** Earliest cycle at which a bad fires (when badReachable). */
    size_t badDepth = 0;
    size_t statesVisited = 0;
    /** A minimal-depth witness path (when badReachable). */
    std::optional<Trace> trace;
};

/**
 * Explore @p circuit exhaustively. Gives up (completed=false) once more
 * than @p max_states distinct states have been expanded or the total
 * symbolic bit-width exceeds practical limits (~20 bits).
 *
 * @p budget is charged one unit per expanded state; its exhaustion - or
 * @p stop turning true (the portfolio's thread-safe cancellation) -
 * abandons the exploration with completed=false.
 */
ExhaustiveResult exhaustiveCheck(const rtl::Circuit &circuit,
                                 size_t max_states = kExhaustiveMaxStates,
                                 Budget *budget = nullptr,
                                 const std::atomic<bool> *stop = nullptr);

/**
 * exhaustiveCheck() as an Engine: a single (possibly long) step,
 * cancellable through its stop flag. A completed exploration is an
 * Attack (minimal-depth trace) or a Proof (depth = states visited);
 * anything else is a Timeout. It shares no facts.
 */
class ExhaustiveEngine final : public Engine
{
  public:
    explicit ExhaustiveEngine(const rtl::Circuit &circuit)
        : circuit_(circuit)
    {
    }

    EngineKind kind() const override { return EngineKind::Exhaustive; }
    void start(FactBoard *board, Budget *budget) override;
    bool step() override;
    void cancel() override;
    EngineResult takeResult() override { return std::move(result_); }

  private:
    const rtl::Circuit &circuit_;
    Budget *budget_ = nullptr;
    std::atomic<bool> cancelled_{false};
    EngineResult result_;
};

} // namespace csl::mc

#endif // CSL_MC_EXHAUSTIVE_H_
