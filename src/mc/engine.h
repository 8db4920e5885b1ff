/**
 * @file
 * The uniform model-checking engine abstraction behind the portfolio
 * facade (DESIGN.md "Engine layer").
 *
 * Every backend - BMC, k-induction, PDR, exhaustive enumeration - is an
 * `Engine` built by makeEngine() from one EngineConfig, with the same
 * life cycle (runEngine() drives it):
 *
 *     engine->start(&board, &budget);   // bind shared facts + budget
 *     while (!engine->step()) { }       // bounded units of work
 *     EngineResult r = engine->takeResult();
 *
 * step() performs one engine-specific unit (a BMC frame, one induction
 * depth, one PDR major round) and returns true once the engine has
 * concluded. cancel() is thread-safe and asynchronous: it interrupts the
 * engine's SAT solvers mid-solve (sat::Solver::requestInterrupt) so a
 * portfolio sibling can stop a losing engine the moment a conclusive
 * verdict exists.
 *
 * The FactBoard is the exchange for the one *monotone* fact engines
 * share: the bad-free depth bound only ever grows, so an engine may
 * import it at any point without unsoundness - a stale read is merely
 * less helpful, never wrong.
 */

#ifndef CSL_MC_ENGINE_H_
#define CSL_MC_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "mc/trace.h"
#include "rtl/circuit.h"

namespace csl::mc {

/** Final verdict of a verification task. */
enum class Verdict {
    Attack,      ///< counterexample found (a real attack program)
    Proof,       ///< unbounded proof completed
    BoundedSafe, ///< no attack up to maxDepth, no proof attempted/found
    Timeout,     ///< budget exhausted without an answer
    Diagnosed,   ///< static pre-flight found the circuit ill-formed;
                 ///< no engine was run (details in the lint report)
};

/** Render a verdict for tables. */
const char *verdictName(Verdict verdict);

/** The available model-checking backends. */
enum class EngineKind {
    Bmc,        ///< incremental bounded model checking (attack hunting)
    KInduction, ///< k-induction with strengthening invariants
    Pdr,        ///< property-directed reachability (IC3)
    Exhaustive, ///< explicit-state BFS oracle (tiny circuits only)
};

/** Short stable name: "bmc", "kind", "pdr", "exh". */
const char *engineKindName(EngineKind kind);

/** Parse one engine name (accepts the aliases "kinduction",
 * "k-induction" and "exhaustive"). */
std::optional<EngineKind> parseEngineKind(const std::string &name);

/** Parse a comma-separated engine list, e.g. "bmc,kind,pdr".
 * Duplicates collapse; "" parses to the empty list (= defaults).
 * Returns std::nullopt when any element is empty or unknown. */
std::optional<std::vector<EngineKind>>
parseEngineList(const std::string &csv);

/** Render an engine set back to its comma-separated form. */
std::string engineListName(const std::vector<EngineKind> &kinds);

/**
 * Thread-safe exchange of the bad-free depth bound between concurrently
 * running engines, plus an import counter. The bound is a max (frames
 * 0..bound-1 proven bad-free), so it only ever grows; that monotonicity
 * is what makes mid-run sharing sound under any thread interleaving:
 * importing an old snapshot can never inject a fact that later turns
 * false.
 */
class FactBoard
{
  public:
    /** Record that frames 0..depth-1 are bad-free. Keeps the max. */
    void publishSafeBound(size_t depth);

    /** Deepest published bad-free bound. */
    size_t safeBound() const;

    /** Count a fact import by some engine (telemetry). */
    void countImport();

    /** Total facts imported across all engines. */
    uint64_t imports() const;

  private:
    mutable std::mutex mutex_;
    size_t safeBound_ = 0;
    std::atomic<uint64_t> imports_{0};
};

/** Per-engine configuration (the engine-agnostic subset of
 * CheckOptions; time limits live in the Budget passed to start()). */
struct EngineConfig
{
    /** Maximum BMC depth / induction k. */
    size_t maxDepth = 40;
    /** Trusted strengthening invariants (Houdini survivors). */
    std::vector<rtl::NetId> assumedInvariants;
    /** Non-zero: perturb the SAT decision heuristics. */
    uint64_t decisionSeed = 0;
    /** Frames a previous run of this circuit proved bad-free. */
    size_t startSafeDepth = 0;
};

/** What an engine concluded, plus its salvageable partial answers. */
struct EngineResult
{
    Verdict verdict = Verdict::Timeout;
    /** Attack: cex frame. Proof: inductive depth / closing frame. */
    size_t depth = 0;
    std::optional<Trace> trace;
    uint64_t conflicts = 0;
    /** Deepest bound this engine knows to be bad-free. */
    size_t deepestSafeBound = 0;
    /** Facts this engine imported from the FactBoard. */
    uint64_t importedFacts = 0;

    /** Attack and Proof decide the property; the rest are partial. */
    bool conclusive() const
    {
        return verdict == Verdict::Attack || verdict == Verdict::Proof;
    }
};

/**
 * A model-checking backend behind the uniform contract described in the
 * file comment. Engines are single-owner: start()/step()/takeResult()
 * belong to one driving thread; only cancel() may be called from
 * another thread.
 */
class Engine
{
  public:
    virtual ~Engine();

    virtual EngineKind kind() const = 0;

    /** Short name for reports ("bmc", "kind", ...). */
    const char *name() const { return engineKindName(kind()); }

    /**
     * Bind the shared fact board (may be null) and the budget charged by
     * this engine's solvers. Must be called once, before step().
     */
    virtual void start(FactBoard *board, Budget *budget) = 0;

    /**
     * One bounded unit of work. Returns true when the engine has
     * concluded (verdict available via takeResult()); false to continue.
     * Engines import/publish FactBoard facts between units.
     */
    virtual bool step() = 0;

    /**
     * Thread-safe asynchronous cancellation: interrupt the engine's
     * solvers; the engine concludes with Timeout at the next step()
     * boundary. Partial facts (safe bounds) remain valid.
     */
    virtual void cancel() = 0;

    /** The conclusion; valid once step() returned true. */
    virtual EngineResult takeResult() = 0;
};

/** Construct a backend over @p circuit. The circuit must stay alive and
 * unchanged for the engine's lifetime. */
std::unique_ptr<Engine> makeEngine(EngineKind kind,
                                   const rtl::Circuit &circuit,
                                   EngineConfig config = {});

/**
 * Start @p engine on @p board (may be null) and @p budget (may be null:
 * unlimited), step it to a conclusion and collect the result. When the
 * budget runs out between steps the engine is cancelled and stepped once
 * more, so it concludes with Timeout and keeps its partial facts.
 */
EngineResult runEngine(Engine &engine, Budget *budget,
                       FactBoard *board = nullptr);

} // namespace csl::mc

#endif // CSL_MC_ENGINE_H_
