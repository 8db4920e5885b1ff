// Tests for the uniform Engine interface and the concurrent
// first-winner portfolio: thread-safe solver interruption, FactBoard
// monotone fact sharing, cancellation races, verdict determinism, and
// the runner/journal plumbing for explicit engine sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "base/budget.h"
#include "mc/engine.h"
#include "mc/portfolio.h"
#include "mc/trace.h"
#include "proc/presets.h"
#include "rtl/builder.h"
#include "sat/solver.h"
#include "verif/journal.h"
#include "verif/runner.h"

namespace csl {
namespace {

using mc::EngineKind;
using mc::Verdict;
using rtl::Builder;
using rtl::Circuit;
using rtl::Sig;

// A counter that asserts it never reaches `target` (same harness as
// mc_test.cc: attack at cycle `target` when reachable).
void
buildCounter(Circuit &circuit, int width, uint64_t target,
             uint64_t step = 1)
{
    Builder b(circuit);
    Sig c = b.reg("c", width, 0);
    b.connect(c, b.addConst(c, step));
    b.assertAlways(b.ne(c, b.lit(target, width)), "c_ne_target");
    b.finish();
}

// --- Engine-set parsing ---------------------------------------------------

TEST(EngineKind, ParseAndName)
{
    EXPECT_EQ(mc::parseEngineKind("bmc"), EngineKind::Bmc);
    EXPECT_EQ(mc::parseEngineKind("kind"), EngineKind::KInduction);
    EXPECT_EQ(mc::parseEngineKind("kinduction"), EngineKind::KInduction);
    EXPECT_EQ(mc::parseEngineKind("k-induction"), EngineKind::KInduction);
    EXPECT_EQ(mc::parseEngineKind("pdr"), EngineKind::Pdr);
    EXPECT_EQ(mc::parseEngineKind("exh"), EngineKind::Exhaustive);
    EXPECT_EQ(mc::parseEngineKind("exhaustive"), EngineKind::Exhaustive);
    EXPECT_FALSE(mc::parseEngineKind("jaspergold").has_value());

    EXPECT_STREQ(mc::engineKindName(EngineKind::Bmc), "bmc");
    EXPECT_STREQ(mc::engineKindName(EngineKind::KInduction), "kind");
    EXPECT_STREQ(mc::engineKindName(EngineKind::Pdr), "pdr");
    EXPECT_STREQ(mc::engineKindName(EngineKind::Exhaustive), "exh");
}

TEST(EngineKind, ParseListRoundTrip)
{
    auto kinds = mc::parseEngineList("bmc,kind,pdr");
    ASSERT_TRUE(kinds.has_value());
    ASSERT_EQ(kinds->size(), 3u);
    EXPECT_EQ(mc::engineListName(*kinds), "bmc,kind,pdr");

    EXPECT_FALSE(mc::parseEngineList("bmc,,kind").has_value());
    EXPECT_FALSE(mc::parseEngineList("bmc,nope").has_value());
    auto empty = mc::parseEngineList("");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

// --- Thread-safe solver interruption --------------------------------------

/** Pigeonhole principle PHP(pigeons, holes): unsat and exponentially
 * hard for CDCL when pigeons = holes + 1 - keeps solve() busy long
 * enough for a cross-thread interrupt to land mid-search. */
void
buildPigeonhole(sat::Solver &s, int pigeons, int holes)
{
    std::vector<std::vector<sat::Var>> x(pigeons);
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            x[p].push_back(s.newVar());
    for (int p = 0; p < pigeons; ++p) {
        std::vector<sat::Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(sat::mkLit(x[p][h]));
        s.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addClause(sat::mkLit(x[p1][h], true),
                            sat::mkLit(x[p2][h], true));
}

TEST(SolverInterrupt, LatchedRequestShortCircuitsSolve)
{
    sat::Solver s;
    sat::Var a = s.newVar();
    s.addClause(sat::mkLit(a));
    s.requestInterrupt();
    EXPECT_EQ(s.solve(), sat::Status::Unknown);
    // The request latches across solves until cleared.
    EXPECT_EQ(s.solve(), sat::Status::Unknown);
    s.clearInterrupt();
    EXPECT_EQ(s.solve(), sat::Status::Sat);
}

TEST(SolverInterrupt, CrossThreadInterruptStopsAHardSolve)
{
    sat::Solver s;
    buildPigeonhole(s, 12, 11);
    std::thread killer([&s] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        s.requestInterrupt();
    });
    sat::Status status = s.solve();
    killer.join();
    // PHP(12,11) takes far longer than 100ms to refute; the interrupt
    // must surface as Unknown, never a wrong Sat/Unsat.
    EXPECT_EQ(status, sat::Status::Unknown);
}

// --- FactBoard ------------------------------------------------------------

TEST(FactBoard, SafeBoundIsMonotoneMax)
{
    mc::FactBoard board;
    EXPECT_EQ(board.safeBound(), 0u);
    board.publishSafeBound(5);
    board.publishSafeBound(3); // stale publish must not regress
    EXPECT_EQ(board.safeBound(), 5u);
    board.publishSafeBound(9);
    EXPECT_EQ(board.safeBound(), 9u);
}

TEST(FactBoard, ImportsAreCounted)
{
    mc::FactBoard board;
    EXPECT_EQ(board.imports(), 0u);
    board.countImport();
    board.countImport();
    EXPECT_EQ(board.imports(), 2u);
}

TEST(FactBoard, PublishedBoundIsImportedByEngines)
{
    // A pre-published safe bound must reach a BMC engine through the
    // board (the same path a sibling's mid-run publish takes) and be
    // counted as an import; the verdict must stay exact.
    Circuit circuit;
    buildCounter(circuit, 4, 7);
    mc::EngineConfig config;
    config.maxDepth = 20;
    mc::FactBoard board;
    board.publishSafeBound(6); // frames 0..5 genuinely bad-free
    Budget budget(60.0);
    auto engine = mc::makeEngine(EngineKind::Bmc, circuit, config);
    mc::EngineResult r = mc::runEngine(*engine, &budget, &board);
    EXPECT_EQ(r.verdict, Verdict::Attack);
    EXPECT_EQ(r.depth, 7u);
    EXPECT_GE(r.importedFacts, 1u);
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_TRUE(mc::replayTrace(circuit, *r.trace).badReached);
}

TEST(FactBoard, BmcBoundShortensKInductionBaseCase)
{
    // The portfolio's headline interaction: a safe bound published by a
    // (simulated) BMC sibling lets k-induction skip re-proving base
    // frames. The k-induction engine must import it and still conclude.
    Circuit circuit;
    buildCounter(circuit, 4, 3, /*step=*/2); // unreachable: proof
    mc::EngineConfig config;
    config.maxDepth = 16;
    mc::FactBoard board;
    board.publishSafeBound(8);
    Budget budget(60.0);
    auto engine = mc::makeEngine(EngineKind::KInduction, circuit, config);
    mc::EngineResult r = mc::runEngine(*engine, &budget, &board);
    EXPECT_EQ(r.verdict, Verdict::Proof);
    EXPECT_GE(r.importedFacts, 1u);
}

// --- Engine contract ------------------------------------------------------

TEST(EngineContract, CancelBeforeStepConcludesWithTimeout)
{
    // Every backend must honour a cancel() that lands between start()
    // and its first step: that step concludes, with Timeout, even on a
    // circuit each engine would otherwise decide at once.
    Circuit circuit;
    buildCounter(circuit, 4, 6);
    for (EngineKind kind :
         {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr,
          EngineKind::Exhaustive}) {
        mc::FactBoard board;
        Budget budget(60.0);
        auto engine = mc::makeEngine(kind, circuit);
        engine->start(&board, &budget);
        engine->cancel();
        EXPECT_TRUE(engine->step()) << mc::engineKindName(kind);
        mc::EngineResult r = engine->takeResult();
        EXPECT_EQ(r.verdict, Verdict::Timeout) << mc::engineKindName(kind);
        EXPECT_FALSE(r.trace.has_value()) << mc::engineKindName(kind);
    }
}

// --- Engines through the portfolio ---------------------------------------

TEST(Portfolio, SingleEngineSetsMatchOnAttackCircuit)
{
    Circuit circuit;
    buildCounter(circuit, 4, 6);
    for (EngineKind kind :
         {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr,
          EngineKind::Exhaustive}) {
        mc::CheckOptions opts;
        opts.maxDepth = 20;
        opts.engines = {kind};
        mc::CheckResult r = mc::checkProperty(circuit, opts);
        EXPECT_EQ(r.verdict, Verdict::Attack) << mc::engineKindName(kind);
        EXPECT_EQ(r.winner, mc::engineKindName(kind));
        ASSERT_TRUE(r.trace.has_value()) << mc::engineKindName(kind);
        mc::ReplayResult replay = mc::replayTrace(circuit, *r.trace);
        EXPECT_TRUE(replay.badReached) << mc::engineKindName(kind);
        EXPECT_TRUE(replay.constraintsHeld) << mc::engineKindName(kind);
        EXPECT_EQ(r.trace->length, r.depth + 1)
            << mc::engineKindName(kind);
    }
}

TEST(Portfolio, SingleEngineSetsMatchOnProofCircuit)
{
    Circuit circuit;
    buildCounter(circuit, 4, 3, /*step=*/2); // even counter, odd target
    for (EngineKind kind : {EngineKind::KInduction, EngineKind::Pdr,
                            EngineKind::Exhaustive}) {
        mc::CheckOptions opts;
        opts.maxDepth = 20;
        opts.engines = {kind};
        mc::CheckResult r = mc::checkProperty(circuit, opts);
        EXPECT_EQ(r.verdict, Verdict::Proof) << mc::engineKindName(kind);
        EXPECT_EQ(r.winner, mc::engineKindName(kind));
    }
    // BMC alone cannot prove: bounded-safe at the depth limit.
    mc::CheckOptions opts;
    opts.maxDepth = 20;
    opts.engines = {EngineKind::Bmc};
    mc::CheckResult r = mc::checkProperty(circuit, opts);
    EXPECT_EQ(r.verdict, Verdict::BoundedSafe);
    EXPECT_GE(r.deepestSafeBound, 20u);
}

TEST(Portfolio, FirstWinnerCancelsSiblings)
{
    // Full four-engine race on an attack circuit. Exactly one engine is
    // marked winner, the adopted verdict is its conclusive one, and the
    // first winner's cancel() must have stopped the others (they either
    // concluded on their own or report a non-conclusive timeout - both
    // fine - but the call must return promptly either way).
    Circuit circuit;
    buildCounter(circuit, 4, 6);
    mc::CheckOptions opts;
    opts.maxDepth = 20;
    opts.timeoutSeconds = 120;
    opts.engines = {EngineKind::Bmc, EngineKind::KInduction,
                    EngineKind::Pdr, EngineKind::Exhaustive};
    mc::CheckResult r = mc::checkProperty(circuit, opts);
    EXPECT_EQ(r.verdict, Verdict::Attack);
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_TRUE(mc::replayTrace(circuit, *r.trace).badReached);
    ASSERT_EQ(r.engines.size(), 4u);
    size_t winners = 0;
    for (const mc::EngineOutcome &eo : r.engines) {
        if (eo.winner) {
            ++winners;
            EXPECT_EQ(mc::engineKindName(eo.kind), r.winner);
            EXPECT_TRUE(eo.verdict == Verdict::Attack);
        }
    }
    EXPECT_EQ(winners, 1u);
    EXPECT_FALSE(r.winner.empty());
}

TEST(Portfolio, RepeatedRunsAreVerdictDeterministic)
{
    // Identical options => identical verdict, run after run, despite
    // the scheduling race deciding the winner (satellite: determinism).
    Circuit attack_circuit, proof_circuit;
    buildCounter(attack_circuit, 4, 6);
    buildCounter(proof_circuit, 4, 3, /*step=*/2);
    mc::CheckOptions opts;
    opts.maxDepth = 20;
    opts.engines = {EngineKind::Bmc, EngineKind::KInduction,
                    EngineKind::Pdr};
    for (int run = 0; run < 4; ++run) {
        mc::CheckResult a = mc::checkProperty(attack_circuit, opts);
        EXPECT_EQ(a.verdict, Verdict::Attack) << "run " << run;
        mc::CheckResult p = mc::checkProperty(proof_circuit, opts);
        EXPECT_EQ(p.verdict, Verdict::Proof) << "run " << run;
    }
}

TEST(Portfolio, DefaultSetKeepsAttackDepthMinimal)
{
    // With no explicit engine set the facade must stay depth-exact
    // (cross-check oracle contract): the default engines all report
    // minimal-depth counterexamples.
    Circuit circuit;
    buildCounter(circuit, 4, 6);
    mc::CheckResult r = mc::checkProperty(circuit, {.maxDepth = 20});
    EXPECT_EQ(r.verdict, Verdict::Attack);
    EXPECT_EQ(r.depth, 6u);
}

TEST(Portfolio, CancelledEnginesStillSalvagePartialFacts)
{
    // A portfolio whose engines cannot conclude within the budget must
    // synthesize the pooled bound instead of dropping it. PDR is left
    // out: it cracks this parity property via clause generalization.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 24, 0);
    b.connect(c, b.addConst(c, 2));
    b.assertAlways(b.ne(c, b.lit(0xffffff, 24)), "never_odd");
    b.finish();
    mc::CheckOptions opts;
    opts.maxDepth = 100000;
    opts.timeoutSeconds = 0.3;
    opts.engines = {EngineKind::Bmc, EngineKind::KInduction};
    mc::CheckResult r = mc::checkProperty(circuit, opts);
    // Depending on machine speed the run either times out mid-hunt or
    // (very fast machines) bounds out; both must carry the pooled bound.
    ASSERT_TRUE(r.verdict == Verdict::Timeout ||
                r.verdict == Verdict::BoundedSafe)
        << mc::verdictName(r.verdict);
    EXPECT_GT(r.deepestSafeBound, 0u);
    EXPECT_EQ(r.depth, r.deepestSafeBound);
    EXPECT_TRUE(r.winner.empty());
}

// --- Runner + journal plumbing -------------------------------------------

TEST(RunnerEngines, ExplicitSetIsUsedRecordedAndReadopted)
{
    std::string path = testing::TempDir() + "portfolio_engines.journal";
    std::remove(path.c_str());

    verif::VerificationTask task;
    task.core = proc::inOrderSpec();
    task.contract = contract::Contract::Sandboxing;
    task.maxDepth = 20;
    task.timeoutSeconds = 120;

    verif::RunnerOptions ropts;
    ropts.journalPath = path;
    ropts.engines = {EngineKind::KInduction};
    verif::RunnerResult rr = verif::runResilientVerification(task, ropts);
    ASSERT_EQ(rr.result.verdict, Verdict::Proof);
    EXPECT_EQ(rr.winningEngine, "kind");

    auto journal = verif::Journal::load(path);
    ASSERT_TRUE(journal.has_value());
    EXPECT_EQ(journal->param("engines"), "kind");
    EXPECT_EQ(journal->winningEngine, "kind");
    bool solver_stage_seen = false;
    for (const verif::Journal::Stage &stage : journal->stages)
        if (stage.name == "kinduction") {
            solver_stage_seen = true;
            EXPECT_EQ(stage.winner, "kind");
        }
    EXPECT_TRUE(solver_stage_seen);

    // Resume with an empty set: the journal's engine set is re-adopted
    // and the verdict reproduced.
    verif::RunnerOptions resume_opts;
    resume_opts.journalPath = path;
    resume_opts.resume = true;
    verif::RunnerResult resumed =
        verif::runResilientVerification(task, resume_opts);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.result.verdict, Verdict::Proof);
    EXPECT_EQ(resumed.winningEngine, "kind");
    std::remove(path.c_str());
}

TEST(Journal, WinnerAndImportsSurviveRoundTrip)
{
    verif::Journal journal;
    journal.fingerprint = "cafe";
    journal.winningEngine = "pdr";
    journal.importedFacts = 3;
    journal.stages.push_back({"kinduction", "PROOF", 5, 1.25, "kind"});
    journal.stages.push_back({"bmc", "TIMEOUT", 9, 0.5, ""});

    std::string path = testing::TempDir() + "portfolio_journal.txt";
    ASSERT_TRUE(journal.save(path));
    auto loaded = verif::Journal::load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->winningEngine, "pdr");
    EXPECT_EQ(loaded->importedFacts, 3u);
    ASSERT_EQ(loaded->stages.size(), 2u);
    EXPECT_EQ(loaded->stages[0].winner, "kind");
    EXPECT_EQ(loaded->stages[1].winner, "");
}

// --- Parallel Houdini prune ----------------------------------------------

TEST(HoudiniThreads, ShardedPruneMatchesSequential)
{
    // Candidate family with inductive and non-inductive members; the
    // sharded prune must converge to exactly the sequential survivors.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 4, 0);
    Sig d = b.reg("d", 4, 0);
    b.connect(c, b.incMod(c, 8));
    b.connect(d, b.incMod(d, 8));
    std::vector<rtl::NetId> candidates;
    candidates.push_back(b.named(b.ult(c, b.lit(8, 4)), "c_lt_8").id);
    candidates.push_back(b.named(b.eq(c, b.lit(3, 4)), "c_is_3").id);
    candidates.push_back(b.named(b.ult(d, b.lit(8, 4)), "d_lt_8").id);
    candidates.push_back(b.named(b.eq(c, d), "c_eq_d").id);
    candidates.push_back(b.named(b.ult(c, b.lit(3, 4)), "c_lt_3").id);
    candidates.push_back(b.named(b.ule(d, b.lit(9, 4)), "d_le_9").id);
    b.assertAlways(b.one(), "true_prop");
    b.finish();

    auto sequential = mc::proveInductiveInvariants(circuit, candidates);
    ASSERT_TRUE(sequential.has_value());
    auto sharded = mc::proveInductiveInvariants(
        circuit, candidates, nullptr, /*window=*/1, nullptr,
        /*threads=*/3);
    ASSERT_TRUE(sharded.has_value());
    std::vector<rtl::NetId> seq = *sequential, par = *sharded;
    std::sort(seq.begin(), seq.end());
    std::sort(par.begin(), par.end());
    EXPECT_EQ(seq, par);
}

} // namespace
} // namespace csl
