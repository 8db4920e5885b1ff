#include "leave/invariant_search.h"

#include "base/logging.h"
#include "base/stopwatch.h"
#include "contract/contract.h"
#include "mc/kinduction.h"
#include "rtl/builder.h"

namespace csl::leave {

using proc::CoreIfc;
using rtl::Builder;
using rtl::NetId;
using rtl::Sig;

const char *
leaveResultName(LeaveResult::Kind kind)
{
    switch (kind) {
      case LeaveResult::Kind::Proof: return "PROOF";
      case LeaveResult::Kind::Unknown: return "UNKNOWN";
      case LeaveResult::Kind::Timeout: return "TIMEOUT";
    }
    return "?";
}

namespace {

/**
 * LEAVE's property encoding: two copies compared cycle-aligned, without
 * the shadow two-phase machinery (its in-order targets need neither
 * re-alignment nor drain tracking; the paper notes LEAVE handles the two
 * requirements only "in a limited way for in-order processors").
 */
struct LeaveCircuit
{
    rtl::Circuit circuit;
    std::vector<NetId> candidates;
};

void
buildLeaveCircuit(LeaveCircuit &lc, const proc::CoreSpec &spec,
                  contract::Contract contract)
{
    Builder b(lc.circuit);
    const isa::IsaConfig &ic = spec.isaConfig();
    CoreIfc cpu1 = proc::buildCore(b, spec, "cpu1");
    CoreIfc cpu2 = proc::buildCore(b, spec, "cpu2");

    for (size_t i = 0; i < ic.imemSize; ++i)
        b.assumeInit(b.eq(cpu1.imem->word(i), cpu2.imem->word(i)));
    for (size_t i = 0; i < ic.secretStart(); ++i)
        b.assumeInit(b.eq(cpu1.dmem->word(i), cpu2.dmem->word(i)));
    for (size_t r = 0; r < cpu1.archRegs.size(); ++r)
        b.assumeInit(b.eq(cpu1.archRegs[r], cpu2.archRegs[r]));

    // Cycle-aligned contract constraint check on the commit streams.
    std::vector<Sig> diffs;
    for (size_t k = 0; k < cpu1.commits.size(); ++k) {
        const proc::CommitSlot &s1 = cpu1.commits[k];
        const proc::CommitSlot &s2 = cpu2.commits[k];
        Sig o1 = contract::isaObservation(b, s1, contract);
        Sig o2 = contract::isaObservation(b, s2, contract);
        Sig masked1 = b.mux(s1.valid, o1, b.lit(0, o1.width));
        Sig masked2 = b.mux(s2.valid, o2, b.lit(0, o2.width));
        diffs.push_back(b.ne(b.concat(s1.valid, masked1),
                             b.concat(s2.valid, masked2)));
    }
    b.assume(b.notOf(b.orAll(diffs)), "leave.contractHolds");

    // Leakage assertion: per-cycle microarchitectural equality.
    Sig one = b.one();
    Sig uarch1 = contract::uarchObservation(b, cpu1, one);
    Sig uarch2 = contract::uarchObservation(b, cpu2, one);
    b.assertAlways(b.eq(uarch1, uarch2), "leave.leak");

    // Auto-generated candidates: every register of copy 1 equals its
    // name-twin in copy 2 (the LEAVE paper's candidate family). Secret
    // memory words are generated too and die in the init check.
    const rtl::Circuit &c = lc.circuit;
    size_t index = 0;
    for (NetId reg : c.registers()) {
        std::string name = c.name(reg);
        if (name.rfind("cpu1.", 0) != 0)
            continue;
        NetId twin = c.findByName("cpu2." + name.substr(5));
        if (twin == rtl::kNoNet)
            continue;
        int width = c.net(reg).width;
        Sig eq_net = b.named(b.eq(Sig{reg, width}, Sig{twin, width}),
                             "leave.cand" + std::to_string(index++));
        lc.candidates.push_back(eq_net.id);
    }
    b.finish();
}

} // namespace

LeaveResult
runLeave(const proc::CoreSpec &spec, const LeaveOptions &options)
{
    Stopwatch watch;
    LeaveResult result;
    Budget budget(options.timeoutSeconds);
    if (options.deadline)
        budget.attachDeadline(*options.deadline);

    LeaveCircuit lc;
    buildLeaveCircuit(lc, spec, options.contract);
    result.candidates = lc.candidates.size();

    std::vector<NetId> pruning_front;
    auto survivors = mc::proveInductiveInvariants(
        lc.circuit, lc.candidates, &budget, /*window=*/1, &pruning_front,
        options.houdiniThreads);
    if (!survivors) {
        result.kind = LeaveResult::Kind::Timeout;
        result.pruningFront = pruning_front.size();
        result.seconds = watch.seconds();
        return result;
    }
    result.survivors = survivors->size();

    mc::EngineConfig config;
    config.maxDepth = options.proofDepth;
    config.assumedInvariants = *survivors;
    auto engine = mc::makeEngine(mc::EngineKind::KInduction, lc.circuit,
                                 std::move(config));
    switch (mc::runEngine(*engine, &budget).verdict) {
      case mc::Verdict::Proof:
        result.kind = LeaveResult::Kind::Proof;
        break;
      case mc::Verdict::Timeout:
        result.kind = LeaveResult::Kind::Timeout;
        break;
      default:
        // Attack or BoundedSafe - insufficient invariants: LEAVE reports
        // UNKNOWN (false counterexamples; cannot tell secure from
        // insecure).
        result.kind = LeaveResult::Kind::Unknown;
        break;
    }
    result.seconds = watch.seconds();
    return result;
}

} // namespace csl::leave
