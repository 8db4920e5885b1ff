/**
 * @file
 * k-induction - the unbounded-proof engine (the role of JasperGold's
 * Mp/AM proof engines in the paper's setup).
 *
 * The step case runs on a free initial state: any k+1-cycle path that
 * satisfies the environment constraints, is bad-free for k cycles and
 * ends in a bad state. If no such path exists (Unsat) and BMC has shown
 * the first k frames reachable from the real initial state are bad-free,
 * the property holds for unbounded time.
 *
 * Optional strengthening invariants (1-bit nets known to hold in all
 * reachable states, e.g. the survivors of the LEAVE-style Houdini search)
 * are asserted in every step-case frame; callers are responsible for
 * their validity - proveInductiveInvariants() provides a sound way to
 * establish it.
 */

#ifndef CSL_MC_KINDUCTION_H_
#define CSL_MC_KINDUCTION_H_

#include <memory>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "bitblast/cnf_builder.h"
#include "bitblast/unroller.h"
#include "mc/bmc.h"
#include "rtl/circuit.h"
#include "sat/solver.h"

namespace csl::mc {

/**
 * k-induction as an Engine: interleaved base-case BMC (the inherited
 * Bmc frames, with its FactBoard imports and publishes) and the
 * inductive step. One step() is one induction depth k: the base case up
 * to k, then the step query at k. Concludes with Proof (depth = k),
 * Attack (base-case counterexample), BoundedSafe once k exceeds
 * maxDepth, or Timeout.
 */
class KInduction final : public Bmc
{
  public:
    KInduction(const rtl::Circuit &circuit, EngineConfig config);
    ~KInduction() override;

    EngineKind kind() const override { return EngineKind::KInduction; }
    bool step() override;
    void cancel() override;
    EngineResult takeResult() override;

  private:
    sat::Solver stepSolver_;
    std::unique_ptr<bitblast::CnfBuilder> stepCnf_;
    std::unique_ptr<bitblast::Unroller> stepUnroller_;

    size_t k_ = 1; ///< next induction depth to try
};

/**
 * Houdini-style validity check for candidate invariants: returns the
 * maximal subset of @p candidates that is (a) implied by the first
 * @p window frames from the initial state and (b) jointly
 * @p window-inductive under the circuit's constraints (assumed in frames
 * 0..window-1, checked at frame `window`). Nets in the returned set may
 * safely be used as assumedInvariants: by k-induction they hold in every
 * reachable state.
 *
 * A window > 1 lets candidates survive whose one-step counterexamples
 * are excused by environment constraints a few cycles later - e.g. a
 * bound-to-commit load's transiently differing result is vindicated by
 * the contract assumption at its commit, which lies within the window
 * but not within one step.
 *
 * Returns std::nullopt on budget exhaustion (or when the
 * `houdini.interrupt` fault point fires). In that case, when
 * @p partial_out is non-null it receives the candidate set as pruned so
 * far - NOT yet proven inductive, but a sound and smaller seed for
 * restarting the search (the Houdini loop only ever removes candidates,
 * so a resumed run over the pruned set converges to the same fixpoint).
 *
 * @p threads > 1 shards the phase-1 initial-window pruning across that
 * many worker threads, each pruning its shard in place on a private
 * clone of the circuit; the shards' survivors are then merged in sorted
 * order. Pruning is per-candidate, so sharding does not change which
 * candidates survive. The phase-2 joint fixpoint is inherently
 * sequential and always runs single-threaded.
 */
std::optional<std::vector<rtl::NetId>> proveInductiveInvariants(
    const rtl::Circuit &circuit, std::vector<rtl::NetId> candidates,
    Budget *budget = nullptr, size_t window = 1,
    std::vector<rtl::NetId> *partial_out = nullptr, size_t threads = 1);

} // namespace csl::mc

#endif // CSL_MC_KINDUCTION_H_
