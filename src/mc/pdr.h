/**
 * @file
 * Property-directed reachability (PDR / IC3) over the bit-blasted
 * encoding - the class of engine inside commercial proof tools (the
 * paper's JasperGold "Mp"/"AM" engines). Unlike k-induction, PDR
 * discovers its own inductive strengthening clause by clause, so it can
 * close goals whose invariants are not expressible by our relational
 * templates (DESIGN.md Section 6b).
 *
 * Implementation notes:
 *  - frames are monotone clause sets over the frame-0 register bits,
 *    realized with per-frame activation literals in a single incremental
 *    solver holding a two-frame unrolling (current state -> next state);
 *  - environment constraints are asserted in both frames; initial-state
 *    membership is decided by a dedicated one-frame solver (our initial
 *    states are a CNF predicate, not a cube);
 *  - blocked cubes are generalized with unsat-core shrinking
 *    (Solver::failedAssumptions) followed by bounded literal dropping,
 *    keeping cubes disjoint from the initial states.
 */

#ifndef CSL_MC_PDR_H_
#define CSL_MC_PDR_H_

#include <memory>

#include "base/budget.h"
#include "mc/engine.h"
#include "rtl/circuit.h"

namespace csl::mc {

/**
 * PDR as an Engine. One step() is one major round: the depth-0 check on
 * the first call, afterwards one level k (block every bad state
 * reachable within F_k, then propagate clauses forward). After the
 * block loop at level k succeeds no bad state is reachable within k
 * steps, so the bound k+1 is published to the FactBoard. Concludes with
 * Proof (depth = closing frame), Attack (depth = trace length - 1, with
 * a concrete witness stitched from the obligation chain when the chain
 * is complete), or Timeout (depth = frames built).
 *
 * Uses EngineConfig::assumedInvariants: trusted 1-bit nets holding in
 * every reachable state (e.g. Houdini survivors), asserted in every
 * frame - the standard "PDR with lemmas" strengthening. Sound:
 * restricting the search to invariant states cannot hide reachable bad
 * states. maxDepth does not bound PDR; a fixed frame cap is the safety
 * net instead.
 */
class Pdr final : public Engine
{
  public:
    Pdr(const rtl::Circuit &circuit, EngineConfig config);
    ~Pdr() override;

    EngineKind kind() const override { return EngineKind::Pdr; }
    void start(FactBoard *board, Budget *budget) override;
    bool step() override;
    void cancel() override;
    EngineResult takeResult() override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace csl::mc

#endif // CSL_MC_PDR_H_
