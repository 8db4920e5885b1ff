/**
 * @file
 * The one-call property-checking facade used by the verification schemes
 * and benches - now a concurrent first-winner portfolio over the uniform
 * Engine interface (see mc/engine.h and DESIGN.md "Engine layer").
 *
 * Each selected engine runs on its own thread over a private clone of
 * the circuit; the first conclusive verdict (Attack or Proof) wins and
 * cancels the others through the thread-safe solver interrupt. While
 * running, engines share the monotone bad-free bound through a FactBoard,
 * so e.g. a BMC-published safe bound shortens a sibling k-induction's
 * base case mid-run.
 */

#ifndef CSL_MC_PORTFOLIO_H_
#define CSL_MC_PORTFOLIO_H_

#include <optional>
#include <string>
#include <vector>

#include "base/deadline.h"
#include "mc/engine.h"
#include "mc/kinduction.h"
#include "rtl/circuit.h"

namespace csl::mc {

/** Portfolio configuration. */
struct CheckOptions
{
    /** Maximum BMC depth / induction k. */
    size_t maxDepth = 40;
    /** Wall-clock limit (the paper's 7-day timeout, scaled down). */
    double timeoutSeconds = 600.0;
    /** Attempt unbounded proofs; when false only BMC runs (unless an
     * explicit engine set overrides the default below). */
    bool tryProof = true;
    /** Trusted strengthening invariants for the induction step. */
    std::vector<rtl::NetId> assumedInvariants;
    /**
     * Cooperative deadline bounding the run in addition to
     * timeoutSeconds; cancelling it stops the engines at the next
     * conflict. Staged-fallback runs hand each stage a slice this way.
     */
    std::optional<Deadline> deadline;
    /** Non-zero: perturb the SAT decision heuristic (witness retries). */
    uint64_t decisionSeed = 0;
    /** Frames a previous run of this circuit proved bad-free (resume). */
    size_t startSafeDepth = 0;
    /**
     * Engines to race. Empty selects the default set: {bmc, kind} when
     * tryProof, {bmc} otherwise (both report minimal-depth attacks, so
     * the default facade stays depth-exact for the cross-check oracle).
     * A single-element set runs inline with no thread or clone.
     */
    std::vector<EngineKind> engines;
};

/** Telemetry for one engine of a portfolio run. */
struct EngineOutcome
{
    EngineKind kind = EngineKind::Bmc;
    Verdict verdict = Verdict::Timeout;
    size_t depth = 0;
    double seconds = 0;
    uint64_t conflicts = 0;
    size_t deepestSafeBound = 0;
    uint64_t importedFacts = 0;
    bool winner = false;
};

/** Outcome summary. */
struct CheckResult
{
    Verdict verdict = Verdict::Timeout;
    size_t depth = 0; ///< cex frame or proof k or deepest safe bound
    std::optional<Trace> trace;
    double seconds = 0;
    uint64_t conflicts = 0; ///< summed over all engines
    /** Deepest bound proven bad-free - the salvageable partial answer,
     * filled in even when the verdict is Timeout. */
    size_t deepestSafeBound = 0;
    /** Engine that produced the verdict ("bmc", "kind", ...); empty when
     * no engine concluded (the verdict was synthesized). */
    std::string winner;
    /** Facts imported across engines through the FactBoard. */
    uint64_t importedFacts = 0;
    /** Per-engine telemetry, in engine-set order. */
    std::vector<EngineOutcome> engines;
};

/** Check that no bad net of @p circuit is reachable. */
CheckResult checkProperty(const rtl::Circuit &circuit,
                          const CheckOptions &options = {});

} // namespace csl::mc

#endif // CSL_MC_PORTFOLIO_H_
