#include "mc/bmc.h"

#include <algorithm>

#include "base/logging.h"
#include "mc/trace.h"

namespace csl::mc {

Bmc::Bmc(const rtl::Circuit &circuit, EngineConfig config)
    : config_(std::move(config)), circuit_(circuit)
{
    cnf_ = std::make_unique<bitblast::CnfBuilder>(solver_);
    unroller_ = std::make_unique<bitblast::Unroller>(
        circuit, *cnf_, /*free_initial_state=*/false);
    if (config_.decisionSeed != 0)
        solver_.setDecisionSeed(config_.decisionSeed);
}

Bmc::~Bmc() = default;

void
Bmc::start(FactBoard *board, Budget *budget)
{
    board_ = board;
    budget_ = budget;
    markSafeUpTo(std::min(config_.startSafeDepth, config_.maxDepth));
    publishBound();
}

bool
Bmc::step()
{
    importBound();
    if (cancelled_.load(std::memory_order_relaxed)) {
        conclude(Verdict::Timeout, checked_);
        return true;
    }
    if (checked_ >= config_.maxDepth) {
        conclude(Verdict::BoundedSafe, checked_);
        return true;
    }
    sat::Status status = extendTo(checked_ + 1, budget_);
    publishBound();
    if (status == sat::Status::Unsat)
        return false; // deepen
    if (status == sat::Status::Unknown)
        conclude(Verdict::Timeout, checked_);
    return true; // Sat: extendTo recorded the attack
}

void
Bmc::cancel()
{
    cancelled_.store(true, std::memory_order_relaxed);
    solver_.requestInterrupt();
}

EngineResult
Bmc::takeResult()
{
    result_.conflicts = solver_.stats().conflicts;
    result_.deepestSafeBound = checked_;
    return std::move(result_);
}

sat::Status
Bmc::extendTo(size_t depth, Budget *budget)
{
    for (size_t k = checked_; k < depth; ++k) {
        unroller_->ensureFrames(k + 1);
        sat::Status status = solver_.solve({unroller_->badLit(k)}, budget);
        if (status == sat::Status::Sat) {
            result_.verdict = Verdict::Attack;
            result_.depth = k;
            result_.trace = extractTrace(circuit_, *unroller_, k + 1);
            return status;
        }
        if (status == sat::Status::Unknown)
            return status;
        // Unsat: depth k is safe; record it so the fact is reused by
        // later queries here and by siblings through the board.
        solver_.addClause(~unroller_->badLit(k));
        checked_ = k + 1;
        if (budget && budget->exhausted())
            return sat::Status::Unknown;
    }
    return sat::Status::Unsat;
}

void
Bmc::markSafeUpTo(size_t depth)
{
    if (depth <= checked_)
        return;
    unroller_->ensureFrames(depth);
    for (size_t k = checked_; k < depth; ++k)
        solver_.addClause(~unroller_->badLit(k));
    checked_ = depth;
}

void
Bmc::importBound()
{
    if (!board_)
        return;
    size_t bound = std::min(board_->safeBound(), config_.maxDepth);
    if (bound > checked_) {
        markSafeUpTo(bound);
        ++result_.importedFacts;
        board_->countImport();
    }
}

void
Bmc::publishBound()
{
    if (board_)
        board_->publishSafeBound(checked_);
}

void
Bmc::conclude(Verdict verdict, size_t depth)
{
    result_.verdict = verdict;
    result_.depth = depth;
}

} // namespace csl::mc
