// Tests for the PDR/IC3 engine: known-answer circuits, agreement with
// the explicit-state oracle on random circuits, and constraint handling.

#include <gtest/gtest.h>

#include <random>

#include "mc/engine.h"
#include "mc/exhaustive.h"
#include "rtl/builder.h"

namespace csl::mc {
namespace {

using rtl::Builder;
using rtl::Circuit;
using rtl::Sig;

void
buildCounter(Circuit &circuit, int width, uint64_t target, uint64_t step = 1)
{
    Builder b(circuit);
    Sig c = b.reg("c", width, 0);
    b.connect(c, b.addConst(c, step));
    b.assertAlways(b.ne(c, b.lit(target, width)), "prop");
    b.finish();
}

// Build a PDR engine through makeEngine and drive it to a conclusion.
EngineResult
checkWithPdr(const Circuit &circuit, Budget *budget = nullptr)
{
    std::unique_ptr<Engine> engine = makeEngine(EngineKind::Pdr, circuit);
    return runEngine(*engine, budget);
}

TEST(Pdr, FindsCexOnReachableBad)
{
    Circuit circuit;
    buildCounter(circuit, 4, 7);
    EngineResult r = checkWithPdr(circuit);
    EXPECT_EQ(r.verdict, Verdict::Attack);
}

TEST(Pdr, ProvesUnreachableBad)
{
    Circuit circuit;
    buildCounter(circuit, 4, 3, /*step=*/2); // even counter, odd target
    EngineResult r = checkWithPdr(circuit);
    EXPECT_EQ(r.verdict, Verdict::Proof);
}

TEST(Pdr, BadAtDepthZero)
{
    Circuit circuit;
    Builder b(circuit);
    Sig r = b.symbolicReg("r", 3);
    b.connect(r, r);
    b.assertAlways(b.ne(r, b.lit(5, 3)), "prop");
    b.finish();
    EngineResult res = checkWithPdr(circuit);
    EXPECT_EQ(res.verdict, Verdict::Attack);
    EXPECT_EQ(res.depth, 0u);
}

TEST(Pdr, InitConstraintsRespected)
{
    // Init constraint pins the symbolic register away from the target;
    // the register never moves, so the property holds.
    Circuit circuit;
    Builder b(circuit);
    Sig r = b.symbolicReg("r", 3);
    b.connect(r, r);
    b.assumeInit(b.ult(r, b.lit(4, 3)), "small");
    b.assertAlways(b.ne(r, b.lit(6, 3)), "prop");
    b.finish();
    EngineResult res = checkWithPdr(circuit);
    EXPECT_EQ(res.verdict, Verdict::Proof);
}

TEST(Pdr, PerCycleConstraintsPrunePaths)
{
    // Counter increments by a free input, but the environment constrains
    // the input to zero: the target stays unreachable.
    Circuit circuit;
    Builder b(circuit);
    Sig in = b.input("in", 4);
    Sig c = b.reg("c", 4, 0);
    b.connect(c, b.add(c, in));
    b.assume(b.eqConst(in, 0), "in_zero");
    b.assertAlways(b.ne(c, b.lit(5, 4)), "prop");
    b.finish();
    EngineResult res = checkWithPdr(circuit);
    EXPECT_EQ(res.verdict, Verdict::Proof);
}

TEST(Pdr, ProvesPropertyThatDefeatsLowKInduction)
{
    // The classic k-induction-hostile example: a counter that wraps
    // through a long unreachable tail. PDR discovers the invariant.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 5, 0);
    b.connect(c, b.incMod(c, 20));        // reachable: 0..19
    b.assertAlways(b.ne(c, b.lit(27, 5)), "prop");
    b.finish();
    EngineResult res = checkWithPdr(circuit);
    EXPECT_EQ(res.verdict, Verdict::Proof);
}

TEST(Pdr, ProvesParityInvariantThatDefeatsKInduction)
{
    // A 24-bit even counter with an odd target: plain k-induction needs
    // k ~ 2^23, but PDR generalizes straight to the parity clause.
    Circuit circuit;
    Builder b(circuit);
    Sig c = b.reg("c", 24, 0);
    b.connect(c, b.addConst(c, 2));
    b.assertAlways(b.ne(c, b.lit(0xffffff, 24)), "prop");
    b.finish();
    Budget budget(60.0);
    EngineResult res = checkWithPdr(circuit, &budget);
    EXPECT_EQ(res.verdict, Verdict::Proof);
}

TEST(Pdr, TimeoutOnTinyBudget)
{
    // A multiplier-dense random circuit under a microscopic work budget.
    Circuit circuit;
    Builder b(circuit);
    Sig a = b.reg("a", 12, 3);
    Sig c = b.reg("c", 12, 5);
    b.connect(a, b.mul(a, c));
    b.connect(c, b.add(b.mul(c, c), a));
    b.assertAlways(b.ne(b.mul(a, c), b.lit(0xabc, 12)), "prop");
    b.finish();
    Budget budget(1e9, /*work=*/3);
    EngineResult res = checkWithPdr(circuit, &budget);
    EXPECT_EQ(res.verdict, Verdict::Timeout);
}

// Random-circuit agreement with the explicit-state oracle (the same
// generator the BMC/k-induction cross-check uses).
void
randomCircuit(Circuit &circuit, std::mt19937_64 &rng)
{
    Builder b(circuit);
    const int width = 2 + int(rng() % 2); // 2..3 bits
    std::vector<Sig> regs;
    for (int i = 0; i < 2; ++i) {
        bool symbolic = rng() % 3 == 0;
        regs.push_back(symbolic
                           ? b.symbolicReg("r" + std::to_string(i), width)
                           : b.reg("r" + std::to_string(i), width,
                                   rng() % (1ull << width)));
    }
    Sig in = b.input("in", width);
    std::vector<Sig> pool = regs;
    pool.push_back(in);
    pool.push_back(b.lit(rng() % (1ull << width), width));
    auto pick = [&]() { return pool[rng() % pool.size()]; };
    for (int i = 0; i < 8; ++i) {
        Sig x = pick(), y = pick();
        switch (rng() % 4) {
          case 0: pool.push_back(b.add(x, y)); break;
          case 1: pool.push_back(b.xorOf(x, y)); break;
          case 2: pool.push_back(b.andOf(x, y)); break;
          case 3: pool.push_back(b.mux(b.eq(x, y), x, y)); break;
        }
    }
    for (Sig reg : regs)
        b.connect(reg, pick());
    b.assume(b.ne(in, b.lit(rng() % (1ull << width), width)), "assume");
    b.assertAlways(b.ne(pick(), b.lit(rng() % (1ull << width), width)),
                   "assert");
    b.finish();
}

class PdrCrossCheck : public ::testing::TestWithParam<int>
{};

TEST_P(PdrCrossCheck, AgreesWithExhaustiveOracle)
{
    std::mt19937_64 rng(31000 + GetParam());
    for (int round = 0; round < 10; ++round) {
        Circuit circuit;
        randomCircuit(circuit, rng);
        ExhaustiveResult oracle = exhaustiveCheck(circuit);
        ASSERT_TRUE(oracle.completed);
        Budget budget(30.0);
        EngineResult res = checkWithPdr(circuit, &budget);
        if (res.verdict == Verdict::Timeout)
            continue; // budget-bound; no verdict to compare
        EXPECT_EQ(res.verdict == Verdict::Attack, oracle.badReachable)
            << "round " << round << ": PDR said "
            << (res.verdict == Verdict::Attack ? "cex" : "proof")
            << ", oracle bad-reachable=" << oracle.badReachable;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdrCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace csl::mc
