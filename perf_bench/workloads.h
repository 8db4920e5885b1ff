/**
 * @file
 * The perf_bench workloads: fixed verification cells with a hand-written
 * known-answer table. README.md gives the reason for every choice; the
 * per-cell notes here give what each cell is expected to answer.
 */

#ifndef CSL_PERF_BENCH_WORKLOADS_H_
#define CSL_PERF_BENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "mc/engine.h"
#include "verif/task.h"

namespace csl::perf_bench {

/** What a cell must answer for its run to count as correct. */
enum class Expect {
    Attack,    ///< ATTACK at exactly Cell::depth
    Proof,     ///< PROOF (any k: the winning engine picks the depth)
    NotAttack, ///< PROOF, BOUNDED-SAFE or TIMEOUT; ATTACK is wrong
};

/** One verification cell (core x defense x contract) of a workload. */
struct Cell
{
    std::string name;
    verif::VerificationTask task;
    Expect expect = Expect::Proof;
    /**
     * Attack cells: the attack frame. Other cells: the last frame the
     * traced run's BMC-shaped solver loop solves - the proof k, or the
     * last frame of the safe bound the runner reaches inside the budget
     * - fixed so that the per-layer SAT counters repeat exactly.
     */
    size_t depth = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
inline const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"hunt", "prove",
                                                   "deep_prove", "budget"};
    return names;
}

/** Attack hunt on an undefended core: BMC only, differing secrets. */
inline Cell
huntCell(const char *name, proc::CoreSpec core, size_t attack_depth)
{
    Cell cell;
    cell.name = name;
    cell.task.core = core;
    cell.task.contract = contract::Contract::Sandboxing;
    cell.task.maxDepth = 12;
    cell.task.tryProof = false;
    cell.task.assumeSecretsDiffer = true;
    cell.task.timeoutSeconds = 120;
    cell.expect = Expect::Attack;
    cell.depth = attack_depth;
    return cell;
}

/** Full staged run of a defended core that must end in PROOF. */
inline Cell
proofCell(const char *name, proc::CoreSpec core,
          contract::Contract contract, size_t proof_k)
{
    Cell cell;
    cell.name = name;
    cell.task.core = core;
    cell.task.contract = contract;
    cell.task.timeoutSeconds = 120;
    cell.expect = Expect::Proof;
    cell.depth = proof_k;
    return cell;
}

/** A Fig. 2 Delay_spectre / constant-time sweep point (plain memory,
 * ROB size @p rob), as bench/fig2_scaling.cc builds it. */
inline Cell
fig2Cell(const char *name, int rob, size_t proof_k)
{
    proc::CoreSpec core =
        proc::simpleOoOSpec(defense::Defense::DelaySpectre);
    core.ooo.robSize = rob;
    core.ooo.hasCache = false;
    Cell cell = proofCell(name, core, contract::Contract::ConstantTime,
                          proof_k);
    cell.task.maxDepth = 28;
    return cell;
}

/** The cells of @p workload (empty for an unknown name). */
inline std::vector<Cell>
workloadCells(const std::string &workload)
{
    using defense::Defense;
    using contract::Contract;
    if (workload == "hunt")
        return {huntCell("SimpleOoO/None/sb",
                         proc::simpleOoOSpec(Defense::None), 8),
                huntCell("RideLite/None/sb",
                         proc::rideLiteSpec(Defense::None), 8),
                huntCell("BoomLike/None/sb",
                         proc::boomLikeSpec(Defense::None), 7)};
    if (workload == "prove")
        return {proofCell("InOrder/None/sb", proc::inOrderSpec(),
                          Contract::Sandboxing, 1),
                proofCell("SimpleOoO/DelayFuturistic/sb",
                          proc::simpleOoOSpec(Defense::DelayFuturistic),
                          Contract::Sandboxing, 1),
                proofCell("SimpleOoO/NoFwdFuturistic/sb",
                          proc::simpleOoOSpec(Defense::NoFwdFuturistic),
                          Contract::Sandboxing, 1),
                proofCell("SimpleOoO/DelayFuturistic/ct",
                          proc::simpleOoOSpec(Defense::DelayFuturistic),
                          Contract::ConstantTime, 1)};
    if (workload == "deep_prove")
        return {fig2Cell("SimpleOoO-rob2/DelaySpectre/ct", 2, 6),
                fig2Cell("SimpleOoO-rob3/DelaySpectre/ct", 3, 11)};
    if (workload == "budget") {
        Cell cell = proofCell(
            "SimpleOoO/DelaySpectre/sb",
            proc::simpleOoOSpec(Defense::DelaySpectre),
            Contract::Sandboxing, 8);
        cell.task.timeoutSeconds = 3;
        cell.expect = Expect::NotAttack;
        return {cell};
    }
    return {};
}

/** True when @p verdict at @p depth is the known answer of @p cell. */
inline bool
answerIsCorrect(const Cell &cell, mc::Verdict verdict, size_t depth)
{
    switch (cell.expect) {
      case Expect::Attack:
        return verdict == mc::Verdict::Attack && depth == cell.depth;
      case Expect::Proof:
        return verdict == mc::Verdict::Proof;
      case Expect::NotAttack:
        return verdict == mc::Verdict::Proof ||
               verdict == mc::Verdict::BoundedSafe ||
               verdict == mc::Verdict::Timeout;
    }
    return false;
}

} // namespace csl::perf_bench

#endif // CSL_PERF_BENCH_WORKLOADS_H_
