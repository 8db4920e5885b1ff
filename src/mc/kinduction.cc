#include "mc/kinduction.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <unordered_map>

#include "base/faultpoint.h"
#include "base/logging.h"

namespace csl::mc {

using rtl::NetId;

KInduction::KInduction(const rtl::Circuit &circuit, EngineConfig config)
    : Bmc(circuit, std::move(config))
{
    stepCnf_ = std::make_unique<bitblast::CnfBuilder>(stepSolver_);
    stepUnroller_ = std::make_unique<bitblast::Unroller>(
        circuit, *stepCnf_, /*free_initial_state=*/true,
        config_.assumedInvariants);
    if (config_.decisionSeed != 0)
        stepSolver_.setDecisionSeed(config_.decisionSeed);
}

KInduction::~KInduction() = default;

void
KInduction::cancel()
{
    Bmc::cancel();
    stepSolver_.requestInterrupt();
}

EngineResult
KInduction::takeResult()
{
    EngineResult result = Bmc::takeResult();
    result.conflicts += stepSolver_.stats().conflicts;
    return result;
}

bool
KInduction::step()
{
    importBound();
    if (cancelled_.load(std::memory_order_relaxed)) {
        conclude(Verdict::Timeout, k_ - 1);
        return true;
    }
    if (k_ > config_.maxDepth) {
        conclude(Verdict::BoundedSafe, config_.maxDepth);
        return true;
    }
    const size_t k = k_;

    // Base case: frames 0..k-1 must be bad-free from the real initial
    // state. Frames already checked or imported are skipped.
    sat::Status base = extendTo(k, budget_);
    publishBound();
    if (base == sat::Status::Sat)
        return true; // extendTo recorded the attack
    if (base == sat::Status::Unknown) {
        conclude(Verdict::Timeout, k);
        return true;
    }

    // Step case: a constraint-satisfying path with k bad-free frames
    // followed by a bad frame, from an arbitrary (not necessarily
    // reachable) starting state.
    const size_t had_frames = stepUnroller_->numFrames();
    stepUnroller_->ensureFrames(k + 1);
    for (size_t f = had_frames; f < k + 1; ++f) {
        for (NetId inv : config_.assumedInvariants)
            stepCnf_->assertLit(stepUnroller_->wordOf(inv, f)[0]);
    }
    // Frames 0..k-1 are bad-free in the step case. Units for frames
    // 0..k-2 were already added by earlier iterations.
    stepCnf_->assertLit(~stepUnroller_->badLit(k - 1));

    sat::Status status =
        stepSolver_.solve({stepUnroller_->badLit(k)}, budget_);
    if (status == sat::Status::Unsat) {
        conclude(Verdict::Proof, k);
        return true;
    }
    if (status == sat::Status::Unknown) {
        conclude(Verdict::Timeout, k);
        return true;
    }
    // Sat: the property is not k-inductive; deepen.
    ++k_;
    return false;
}

namespace {

/**
 * Houdini phase 1: drop candidates violated in the first `window` frames
 * from a legal initial state (the base case of the invariants' own
 * k-induction). Batched: one "is any candidate false at frame f?" query
 * per frame; on SAT, drop the violated candidates and retry. Returns
 * false on interruption, with @p candidates holding the pruned-so-far
 * set. Pruning is per-candidate, so any partition of the candidate set
 * prunes to the same survivors - the property the sharded parallel path
 * below relies on.
 */
bool
pruneInitWindow(const rtl::Circuit &circuit,
                std::vector<NetId> &candidates, size_t window,
                Budget *budget)
{
    if (candidates.empty())
        return true;
    sat::Solver solver;
    bitblast::CnfBuilder cnf(solver);
    bitblast::Unroller unroller(circuit, cnf,
                                /*free_initial_state=*/false,
                                candidates);
    for (size_t f = 0; f < window; ++f) {
        unroller.ensureFrames(f + 1);
        for (;;) {
            if (fault::shouldFire("houdini.interrupt"))
                return false;
            std::vector<sat::Lit> holds;
            holds.reserve(candidates.size());
            for (NetId c : candidates)
                holds.push_back(unroller.wordOf(c, f)[0]);
            sat::Status status =
                solver.solve({~cnf.andAll(holds)}, budget);
            if (status == sat::Status::Unknown)
                return false;
            if (status == sat::Status::Unsat)
                break; // all remaining candidates hold at frame f
            std::vector<NetId> kept;
            for (NetId c : candidates)
                if (solver.modelValue(unroller.wordOf(c, f)[0]))
                    kept.push_back(c);
            csl_assert(kept.size() < candidates.size(),
                       "init pruning made no progress");
            candidates = std::move(kept);
            if (candidates.empty())
                return true;
        }
    }
    return true;
}

} // namespace

std::optional<std::vector<NetId>>
proveInductiveInvariants(const rtl::Circuit &circuit,
                         std::vector<NetId> candidates, Budget *budget,
                         size_t window, std::vector<NetId> *partial_out,
                         size_t threads)
{
    if (candidates.empty())
        return candidates;
    csl_assert(window >= 1, "window must be at least 1");
    // On interruption, hand back the pruning progress made so far (see
    // header comment): a resumed search restarts from the smaller set.
    auto interrupted = [&]() -> std::optional<std::vector<NetId>> {
        if (partial_out)
            *partial_out = candidates;
        return std::nullopt;
    };

    if (threads > 1 && candidates.size() >= 2 * threads) {
        // Shard phase 1 across worker threads: each prunes its share of
        // the candidates in place on a private clone of the circuit
        // (private solver state). The shards partition the set, so their
        // union is exactly the sequential survivor set.
        const size_t shard_count = std::min(threads, candidates.size());
        std::vector<std::vector<NetId>> shards(shard_count);
        for (size_t i = 0; i < candidates.size(); ++i)
            shards[i % shard_count].push_back(candidates[i]);
        std::vector<rtl::Circuit> clones(shard_count, circuit);
        std::atomic<bool> any_interrupted{false};
        std::vector<std::thread> workers;
        workers.reserve(shard_count);
        for (size_t t = 0; t < shard_count; ++t) {
            workers.emplace_back([&, t] {
                // Budgets are single-thread objects: derive a per-shard
                // one from the caller's remaining wall clock (and its
                // deadline, whose cancellation flag is shared+atomic).
                Budget shard_budget(budget ? budget->secondsLeft()
                                           : std::numeric_limits<
                                                 double>::infinity());
                if (budget && budget->deadline())
                    shard_budget.attachDeadline(*budget->deadline());
                if (!pruneInitWindow(clones[t], shards[t], window,
                                     budget ? &shard_budget : nullptr))
                    any_interrupted.store(true,
                                          std::memory_order_relaxed);
            });
        }
        for (std::thread &w : workers)
            w.join();
        // Each shard now holds its survivors (or, when interrupted, its
        // pruned-so-far set - exactly what a restart needs).
        candidates.clear();
        for (const std::vector<NetId> &shard : shards)
            candidates.insert(candidates.end(), shard.begin(), shard.end());
        std::sort(candidates.begin(), candidates.end());
        if (any_interrupted.load(std::memory_order_relaxed))
            return interrupted();
        if (candidates.empty())
            return candidates;
    } else {
        if (!pruneInitWindow(circuit, candidates, window, budget))
            return interrupted();
        if (candidates.empty())
            return candidates;
    }

    // Phase 2: Houdini fixpoint on joint window-inductiveness: assume
    // every candidate in frames 0..window-1, require them at `window`.
    // Each candidate gets one activation literal implying it in every
    // assumed frame, so the solver sees real clauses (strong propagation)
    // and the assumption count stays at |candidates|.
    sat::Solver solver;
    bitblast::CnfBuilder cnf(solver);
    bitblast::Unroller unroller(circuit, cnf, /*free_initial_state=*/true,
                                candidates);
    unroller.ensureFrames(window + 1);
    std::unordered_map<NetId, sat::Lit> activation;
    for (NetId c : candidates) {
        sat::Lit act = cnf.fresh();
        for (size_t f = 0; f < window; ++f)
            solver.addClause(~act, unroller.wordOf(c, f)[0]);
        activation.emplace(c, act);
    }
    while (!candidates.empty()) {
        if (fault::shouldFire("houdini.interrupt"))
            return interrupted();
        std::vector<sat::Lit> assumptions;
        assumptions.reserve(candidates.size() + 1);
        for (NetId c : candidates)
            assumptions.push_back(activation.at(c));
        std::vector<sat::Lit> final_holds;
        final_holds.reserve(candidates.size());
        for (NetId c : candidates)
            final_holds.push_back(unroller.wordOf(c, window)[0]);
        assumptions.push_back(~cnf.andAll(final_holds));

        sat::Status status = solver.solve(assumptions, budget);
        if (status == sat::Status::Unknown)
            return interrupted();
        if (status == sat::Status::Unsat)
            break; // fixpoint: all remaining candidates are inductive
        // Drop every candidate the counterexample-to-induction violates.
        std::vector<NetId> kept;
        for (NetId c : candidates) {
            if (solver.modelValue(unroller.wordOf(c, window)[0]))
                kept.push_back(c);
        }
        csl_assert(kept.size() < candidates.size(),
                   "Houdini made no progress");
        candidates = std::move(kept);
    }
    return candidates;
}

} // namespace csl::mc
