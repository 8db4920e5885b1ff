/**
 * @file
 * A LEAVE-style verification scheme (Wang et al., CCS 2023), reproduced
 * for the paper's Section 7.1.3 comparison: automatically generated
 * relational invariant candidates (equality of corresponding state in
 * the two processor copies) are pruned to an inductive subset with a
 * Houdini loop; the surviving invariants then support a 1-inductive
 * proof attempt of the contract property. When the survivors are too
 * weak the scheme reports UNKNOWN - on out-of-order processors the
 * candidates are violated by transient state and the search collapses,
 * exactly the failure mode the paper describes.
 */

#ifndef CSL_LEAVE_INVARIANT_SEARCH_H_
#define CSL_LEAVE_INVARIANT_SEARCH_H_

#include <optional>
#include <string>

#include "base/budget.h"
#include "base/deadline.h"
#include "contract/contract.h"
#include "proc/presets.h"

namespace csl::leave {

/** Outcome of a LEAVE-style run. */
struct LeaveResult
{
    enum class Kind {
        Proof,   ///< invariants found and property proven inductively
        Unknown, ///< invariant search failed to support a proof
        Timeout,
    };
    Kind kind = Kind::Unknown;
    size_t candidates = 0; ///< generated candidate invariants
    size_t survivors = 0;  ///< candidates surviving the Houdini loop
    /**
     * Timeout only: candidates still alive when the Houdini loop was
     * interrupted - unproven, but a sound (and smaller) seed for a
     * resumed search. 0 when the search finished or never started.
     */
    size_t pruningFront = 0;
    double seconds = 0;
};

const char *leaveResultName(LeaveResult::Kind kind);

/** Options for the LEAVE-style run. */
struct LeaveOptions
{
    contract::Contract contract = contract::Contract::Sandboxing;
    double timeoutSeconds = 600.0;
    /** Induction depth for the final proof attempt (LEAVE uses 1). */
    size_t proofDepth = 1;
    /** Optional cooperative deadline/cancellation (staged runs). */
    std::optional<Deadline> deadline;
    /**
     * Worker threads for the Houdini candidate-pruning phase. Each
     * shard prunes a slice of the candidate family in place over its
     * own circuit clone and the survivors are merged afterwards; >1
     * speeds up the initial prune without changing the surviving set
     * (the joint fixpoint afterwards is order-independent).
     */
    size_t houdiniThreads = 1;
};

/** Run the LEAVE-style scheme on @p spec. */
LeaveResult runLeave(const proc::CoreSpec &spec,
                     const LeaveOptions &options);

} // namespace csl::leave

#endif // CSL_LEAVE_INVARIANT_SEARCH_H_
