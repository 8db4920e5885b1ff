// Tests for BMC, k-induction, trace extraction/replay and the
// checkProperty facade, on small circuits with known answers.

#include <gtest/gtest.h>

#include "mc/engine.h"
#include "mc/kinduction.h"
#include "mc/portfolio.h"
#include "mc/trace.h"
#include "rtl/builder.h"

namespace csl::mc {
namespace {

using rtl::Builder;
using rtl::Circuit;
using rtl::Sig;

// A counter that asserts it never reaches `target`.
void
buildCounter(Circuit &circuit, int width, uint64_t target, uint64_t step = 1)
{
    Builder b(circuit);
    Sig c = b.reg("c", width, 0);
    b.connect(c, b.addConst(c, step));
    b.assertAlways(b.ne(c, b.lit(target, width)), "c_ne_target");
    b.finish();
}

// Build one engine through makeEngine and drive it to a conclusion.
EngineResult
runKind(EngineKind kind, const Circuit &circuit, size_t max_depth,
        FactBoard *board = nullptr,
        std::vector<rtl::NetId> invariants = {})
{
    EngineConfig config;
    config.maxDepth = max_depth;
    config.assumedInvariants = std::move(invariants);
    std::unique_ptr<Engine> engine =
        makeEngine(kind, circuit, std::move(config));
    return runEngine(*engine, nullptr, board);
}

TEST(Bmc, FindsCounterexampleAtExactDepth)
{
    Circuit circuit;
    buildCounter(circuit, 4, 7);
    EngineResult r = runKind(EngineKind::Bmc, circuit, 20);
    ASSERT_EQ(r.verdict, Verdict::Attack);
    EXPECT_EQ(r.depth, 7u); // counter hits 7 at cycle 7
    ASSERT_TRUE(r.trace.has_value());
    ReplayResult replay = replayTrace(circuit, *r.trace);
    EXPECT_TRUE(replay.constraintsHeld);
    EXPECT_TRUE(replay.badReached);
}

TEST(Bmc, BoundedSafeBelowThreshold)
{
    Circuit circuit;
    buildCounter(circuit, 4, 9);
    FactBoard board;
    EngineResult r =
        runKind(EngineKind::Bmc, circuit, 9, &board); // frames 0..8 only
    EXPECT_EQ(r.verdict, Verdict::BoundedSafe);
    EXPECT_EQ(r.depth, 9u);
    EXPECT_EQ(r.deepestSafeBound, 9u);
    EXPECT_EQ(board.safeBound(), 9u);
    // Resuming deeper from the published bound finds the bug without
    // re-checking old depths: frames 0..8 arrive as one import.
    EngineResult r2 = runKind(EngineKind::Bmc, circuit, 12, &board);
    ASSERT_EQ(r2.verdict, Verdict::Attack);
    EXPECT_EQ(r2.depth, 9u);
    EXPECT_EQ(r2.importedFacts, 1u);
}

TEST(Bmc, UnreachableTargetStaysSafe)
{
    Circuit circuit;
    buildCounter(circuit, 4, 3, /*step=*/2); // even counter, odd target
    EXPECT_EQ(runKind(EngineKind::Bmc, circuit, 40).verdict,
              Verdict::BoundedSafe);
}

TEST(KInduction, ProvesSimpleInvariant)
{
    // c counts 0..9 then wraps to 0; assert c != 12. The target is
    // unreachable; /\ c<=9 is not needed because c != 12 is preserved
    // only when c stays < 10... k-induction needs a few frames here.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 4, 0);
    b.connect(c, b.incMod(c, 10));
    b.assertAlways(b.ne(c, b.lit(12, 4)), "c_ne_12");
    b.finish();

    EngineResult r = runKind(EngineKind::KInduction, circuit, 16);
    EXPECT_EQ(r.verdict, Verdict::Proof);
}

TEST(KInduction, FindsCexViaBaseCase)
{
    Circuit circuit;
    buildCounter(circuit, 4, 5);
    EngineResult r = runKind(EngineKind::KInduction, circuit, 16);
    ASSERT_EQ(r.verdict, Verdict::Attack);
    EXPECT_EQ(r.depth, 5u);
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_TRUE(replayTrace(circuit, *r.trace).badReached);
}

TEST(KInduction, NonInductiveWithoutInvariantNeedsHigherK)
{
    // Two counters in lockstep; assert equality-derived property that is
    // 1-inductive, proving at k=1.
    Circuit circuit;
    Builder b(circuit);
    Sig a = b.reg("a", 4, 0);
    Sig c = b.reg("c", 4, 0);
    b.connect(a, b.addConst(a, 1));
    b.connect(c, b.addConst(c, 1));
    b.assertAlways(b.eq(a, c), "a_eq_c");
    b.finish();
    EngineResult r = runKind(EngineKind::KInduction, circuit, 16);
    EXPECT_EQ(r.verdict, Verdict::Proof);
    EXPECT_EQ(r.depth, 1u);
}

TEST(KInduction, AssumedInvariantEnablesProof)
{
    // r holds a value < 4 forever (init 0, next = (r+1) & 3), and q
    // mirrors r. Property: q != 9. Without knowing r < 4 the step case
    // at small k fails only if q can be 9 while matching r... q==r is
    // the needed lemma; feed it as an assumed invariant.
    Circuit circuit;
    Builder b(circuit);
    Sig r = b.reg("r", 4, 0);
    Sig q = b.reg("q", 4, 0);
    Sig next = b.andOf(b.addConst(r, 1), b.lit(3, 4));
    b.connect(r, next);
    b.connect(q, next);
    Sig inv = b.named(b.eq(q, r), "q_eq_r");
    b.assertAlways(b.ne(q, b.lit(9, 4)), "q_ne_9");
    b.finish();

    // First establish the lemma is inductive via Houdini.
    auto proved = proveInductiveInvariants(circuit, {inv.id});
    ASSERT_TRUE(proved.has_value());
    ASSERT_EQ(proved->size(), 1u);

    EXPECT_EQ(
        runKind(EngineKind::KInduction, circuit, 8, nullptr, *proved)
            .verdict,
        Verdict::Proof);
}

TEST(Houdini, DropsNonInvariantCandidates)
{
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 4, 0);
    b.connect(c, b.incMod(c, 8));
    Sig good = b.named(b.ult(c, b.lit(8, 4)), "c_lt_8");
    Sig bad_init = b.named(b.eq(c, b.lit(3, 4)), "c_is_3");
    Sig bad_step = b.named(b.ult(c, b.lit(3, 4)), "c_lt_3");
    b.assertAlways(b.one(), "true_prop");
    b.finish();

    auto proved = proveInductiveInvariants(
        circuit, {good.id, bad_init.id, bad_step.id});
    ASSERT_TRUE(proved.has_value());
    ASSERT_EQ(proved->size(), 1u);
    EXPECT_EQ((*proved)[0], good.id);
}

TEST(Houdini, KeepsMutuallyDependentInvariants)
{
    // x and y advance together; x==y and y==x are each inductive only
    // jointly with the other (trivially identical here, but the joint
    // check must not oscillate).
    Circuit circuit;
    Builder b(circuit);
    Sig x = b.reg("x", 3, 0);
    Sig y = b.reg("y", 3, 0);
    b.connect(x, b.addConst(y, 1));
    b.connect(y, b.addConst(x, 1));
    Sig inv1 = b.named(b.eq(x, y), "x_eq_y");
    Sig inv2 = b.named(b.ule(x, y), "x_le_y");
    b.assertAlways(b.one(), "true_prop");
    b.finish();

    auto proved = proveInductiveInvariants(circuit, {inv1.id, inv2.id});
    ASSERT_TRUE(proved.has_value());
    EXPECT_EQ(proved->size(), 2u);
}

TEST(Trace, FormatListsCycles)
{
    Circuit circuit;
    buildCounter(circuit, 4, 3);
    EngineResult r = runKind(EngineKind::Bmc, circuit, 10);
    ASSERT_EQ(r.verdict, Verdict::Attack);
    rtl::NetId c = circuit.findByName("c");
    std::string s = formatTrace(circuit, *r.trace, {c});
    EXPECT_NE(s.find("cycle 0: c=0"), std::string::npos);
    EXPECT_NE(s.find("cycle 3: c=3"), std::string::npos);
}

TEST(CheckProperty, AttackProofAndBoundedSafe)
{
    {
        Circuit circuit;
        buildCounter(circuit, 4, 6);
        CheckResult r = checkProperty(circuit, {.maxDepth = 20});
        EXPECT_EQ(r.verdict, Verdict::Attack);
        EXPECT_EQ(r.depth, 6u);
    }
    {
        Circuit circuit;
        buildCounter(circuit, 4, 3, /*step=*/2);
        CheckResult r = checkProperty(circuit, {.maxDepth = 20});
        EXPECT_EQ(r.verdict, Verdict::Proof);
    }
    {
        Circuit circuit;
        buildCounter(circuit, 4, 9);
        CheckOptions opts;
        opts.maxDepth = 5;
        opts.tryProof = false;
        CheckResult r = checkProperty(circuit, opts);
        EXPECT_EQ(r.verdict, Verdict::BoundedSafe);
    }
}

TEST(CheckProperty, TimeoutOnTinyBudget)
{
    // A 24-bit counter with an unreachable odd target: induction will not
    // converge quickly, and the budget is microscopic. The depth bound
    // must be deep enough that a dedicated BMC engine cannot finish the
    // (trivially unsat) frame sweep within the budget and report an
    // honest BoundedSafe instead.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 24, 0);
    b.connect(c, b.addConst(c, 2));
    b.assertAlways(b.ne(c, b.lit(0xffffff, 24)), "never_odd");
    b.finish();
    CheckOptions opts;
    opts.maxDepth = 1000000;
    opts.timeoutSeconds = 0.05;
    CheckResult r = checkProperty(circuit, opts);
    EXPECT_EQ(r.verdict, Verdict::Timeout);
    // The pooled partial facts survive the timeout.
    EXPECT_GT(r.deepestSafeBound, 0u);
}

TEST(VerdictName, AllNamed)
{
    EXPECT_STREQ(verdictName(Verdict::Attack), "ATTACK");
    EXPECT_STREQ(verdictName(Verdict::Proof), "PROOF");
    EXPECT_STREQ(verdictName(Verdict::BoundedSafe), "BOUNDED-SAFE");
    EXPECT_STREQ(verdictName(Verdict::Timeout), "TIMEOUT");
}

} // namespace
} // namespace csl::mc
