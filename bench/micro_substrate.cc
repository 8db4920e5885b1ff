/**
 * @file
 * google-benchmark microbenchmarks for the verification substrate: SAT
 * solving, circuit construction, bit-blasting, simulation, and BMC
 * throughput. These quantify the engine the reproduction rests on
 * (JasperGold's role in the paper).
 */

#include <benchmark/benchmark.h>

#include <random>

#include "bitblast/cnf_builder.h"
#include "bitblast/unroller.h"
#include "mc/engine.h"
#include "proc/presets.h"
#include "rtl/builder.h"
#include "sat/solver.h"
#include "shadow/shadow_builder.h"
#include "sim/simulator.h"

using namespace csl;

namespace {

void
addPigeonhole(sat::Solver &solver, int holes)
{
    int pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> x(pigeons,
                                         std::vector<sat::Var>(holes));
    for (auto &row : x)
        for (auto &v : row)
            v = solver.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<sat::Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(sat::mkLit(x[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                solver.addClause(sat::mkLit(x[p1][h], true),
                                 sat::mkLit(x[p2][h], true));
}

void
BM_SatPigeonhole(benchmark::State &state)
{
    for (auto _ : state) {
        sat::Solver solver;
        addPigeonhole(solver, int(state.range(0)));
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(6)->Arg(7);

void
BM_SatRandom3Sat(benchmark::State &state)
{
    const int num_vars = int(state.range(0));
    const int num_clauses = int(num_vars * 4.1);
    for (auto _ : state) {
        state.PauseTiming();
        std::mt19937 rng(42);
        sat::Solver solver;
        for (int i = 0; i < num_vars; ++i)
            solver.newVar();
        for (int i = 0; i < num_clauses; ++i) {
            std::vector<sat::Lit> clause;
            for (int j = 0; j < 3; ++j)
                clause.push_back(
                    sat::mkLit(int(rng() % num_vars), rng() & 1));
            solver.addClause(clause);
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(60)->Arg(100)->Arg(140);

void
BM_BuildShadowCircuit(benchmark::State &state)
{
    proc::CoreSpec spec = proc::simpleOoOSpec();
    for (auto _ : state) {
        rtl::Circuit circuit;
        shadow::ShadowOptions opts;
        shadow::buildShadowCircuit(circuit, spec, opts);
        benchmark::DoNotOptimize(circuit.numNets());
    }
}
BENCHMARK(BM_BuildShadowCircuit);

void
BM_BitblastShadowFrame(benchmark::State &state)
{
    rtl::Circuit circuit;
    shadow::ShadowOptions opts;
    proc::CoreSpec spec = proc::simpleOoOSpec();
    shadow::buildShadowCircuit(circuit, spec, opts);
    for (auto _ : state) {
        sat::Solver solver;
        bitblast::CnfBuilder cnf(solver);
        bitblast::Unroller unroller(circuit, cnf, false);
        unroller.ensureFrames(size_t(state.range(0)));
        benchmark::DoNotOptimize(solver.numVars());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitblastShadowFrame)->Arg(1)->Arg(4)->Arg(8);

void
BM_SimulateShadowPair(benchmark::State &state)
{
    rtl::Circuit circuit;
    shadow::ShadowOptions opts;
    proc::CoreSpec spec = proc::simpleOoOSpec();
    shadow::buildShadowCircuit(circuit, spec, opts);
    sim::Simulator simulator(circuit);
    for (auto _ : state)
        simulator.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateShadowPair);

void
BM_BmcShadowDepth(benchmark::State &state)
{
    rtl::Circuit circuit;
    shadow::ShadowOptions opts;
    opts.assumeSecretsDiffer = true;
    proc::CoreSpec spec =
        proc::simpleOoOSpec(defense::Defense::DelayFuturistic);
    shadow::buildShadowCircuit(circuit, spec, opts);
    mc::EngineConfig config;
    config.maxDepth = size_t(state.range(0));
    for (auto _ : state) {
        auto bmc = mc::makeEngine(mc::EngineKind::Bmc, circuit, config);
        benchmark::DoNotOptimize(mc::runEngine(*bmc, nullptr).verdict);
    }
}
BENCHMARK(BM_BmcShadowDepth)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
