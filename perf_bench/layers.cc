#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "bitblast/cnf_builder.h"
#include "bitblast/unroller.h"
#include "mc/kinduction.h"
#include "mc/portfolio.h"
#include "mc/trace.h"
#include "rtl/analysis/analysis.h"
#include "sat/solver.h"
#include "verif/journal.h"
#include "verif/runner.h"

namespace csl::perf_bench {

namespace {

/** Upper bound on the bench's own solver loop (see traceCell). */
constexpr double kLayerCapSeconds = 120;

/** Run @p fn; record it as a span when @p log is non-null. Returns the
 * elapsed seconds either way. */
template <class F>
double
timed(SpanLog *log, const char *name, const std::string &cell, F &&fn)
{
    if (!log) {
        Stopwatch watch;
        fn();
        return watch.seconds();
    }
    const double start = log->nowUs();
    fn();
    const double end = log->nowUs();
    log->add(name, cell, start, end);
    return (end - start) / 1e6;
}

/** The portfolio the runner races in its first solver stage. */
std::vector<mc::EngineKind>
firstStageEngines(const verif::VerificationTask &task)
{
    if (!task.tryProof)
        return {mc::EngineKind::Bmc};
    return {mc::EngineKind::Bmc, mc::EngineKind::KInduction,
            mc::EngineKind::Pdr};
}

} // namespace

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string
jsonQuoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"perf_bench\"}}";
    char num[64];
    for (const Span &span : spans_) {
        const std::string layer = span.name.substr(0, span.name.find('.'));
        out << ",\n{\"name\":" << jsonQuoted(span.name)
            << ",\"cat\":" << jsonQuoted(layer)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1";
        std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f",
                      span.startUs, span.durUs);
        out << num << ",\"args\":{\"cell\":" << jsonQuoted(span.cell)
            << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return bool(out);
}

double
LayerTotals::get(const std::string &key) const
{
    auto it = sums_.find(key);
    return it == sums_.end() ? 0.0 : it->second;
}

std::unique_ptr<CellSetup>
buildCellSetup(const Cell &cell, SpanLog *log)
{
    const verif::VerificationTask &task = cell.task;
    auto setup = std::make_unique<CellSetup>();

    // Mirrors the runner's ContractShadow circuit: candidates only when
    // a proof will be attempted.
    shadow::ShadowOptions sopts;
    sopts.contract = task.contract;
    sopts.enablePause = task.enablePause;
    sopts.enableDrainCheck = task.enableDrainCheck;
    sopts.assumeSecretsDiffer = task.assumeSecretsDiffer;
    sopts.excludeMisaligned = task.excludeMisaligned;
    sopts.excludeOutOfRange = task.excludeOutOfRange;
    sopts.emitRelationalCandidates = task.autoStrengthen && task.tryProof;
    setup->buildSeconds = timed(log, "shadow.build", cell.name, [&] {
        setup->harness =
            shadow::buildShadowCircuit(setup->original, task.core, sopts);
    });

    const std::vector<rtl::NetId> &candidates =
        setup->harness.relationalCandidates;
    rtl::analysis::Report report;
    setup->preflightSeconds =
        timed(log, "analysis.preflight", cell.name, [&] {
            rtl::analysis::AnalysisOptions aopts;
            aopts.extraRoots = candidates;
            report = rtl::analysis::runAll(setup->original, aopts);
            report.merge(setup->harness.preflight);
        });
    setup->preflightClean = !report.hasErrors();

    std::vector<rtl::NetId> roots = candidates;
    if (setup->harness.quiescentCandidate != rtl::kNoNet)
        roots.push_back(setup->harness.quiescentCandidate);
    setup->reduceSeconds = timed(log, "transform.reduce", cell.name, [&] {
        setup->reduction =
            rtl::transform::PassManager().run(setup->original, roots);
    });

    // Same id translation as the runner: unmapped and proven-constant
    // candidates have nothing left to prove; merged ones collapse.
    const rtl::transform::NetMap &map = setup->reduction.map;
    std::unordered_set<rtl::NetId> seen;
    for (rtl::NetId id : candidates) {
        const rtl::NetId mapped = map.mapped(id);
        if (mapped == rtl::kNoNet || map.constantOf(id))
            continue;
        if (seen.insert(mapped).second)
            setup->candidates.push_back(mapped);
    }
    return setup;
}

CellRun
traceCell(const Cell &cell, const std::string &scratch_dir, SpanLog &log,
          LayerTotals &t)
{
    const verif::VerificationTask &task = cell.task;
    const std::string &name = cell.name;
    const bool attack = cell.expect == Expect::Attack;
    const double cell_start = log.nowUs();
    CellRun out;

    // --- The runner itself: the end-to-end call, with its stage split.
    verif::RunnerResult rr;
    out.seconds = timed(&log, "runner", name, [&] {
        rr = verif::runResilientVerification(task);
    });
    out.verdict = rr.result.verdict;
    out.depth = rr.result.depth;
    out.ok = true;
    auto check = [&](bool held, const char *what) {
        if (!held)
            std::fprintf(stderr, "perf_bench: %s: %s\n", name.c_str(), what);
        out.ok = out.ok && held;
    };
    check(answerIsCorrect(cell, out.verdict, out.depth),
          "runner answer differs from the known answer");
    t.add("runner.s", out.seconds);
    for (const verif::StageOutcome &stage : rr.stages) {
        if (stage.name.rfind("houdini", 0) == 0)
            t.add("runner.houdini_s", stage.seconds);
        else if (stage.name.rfind("kinduction", 0) == 0)
            t.add("runner.proof_stage_s", stage.seconds);
        else if (stage.name == "bmc")
            t.add("runner.bmc_stage_s", stage.seconds);
    }
    t.add("runner.reduce_s", rr.reductionSeconds);
    t.add("runner.safe_depth", double(rr.deepestSafeBound));
    t.add("runner.audit_retries", double(rr.auditRetries));

    // --- Set-up: shadow build, pre-flight lint, reduction.
    std::unique_ptr<CellSetup> setup = buildCellSetup(cell, &log);
    check(setup->preflightClean, "pre-flight lint reported errors");
    const rtl::Circuit &original = setup->original;
    const rtl::Circuit &reduced = setup->reduction.circuit;
    t.add("shadow.build_s", setup->buildSeconds);
    t.add("shadow.nets", double(original.numNets()));
    t.add("analysis.preflight_s", setup->preflightSeconds);
    t.add("transform.reduce_s", setup->reduceSeconds);
    t.add("transform.nets_out", double(reduced.numNets()));
    t.add("transform.regs_out", double(reduced.registers().size()));

    // --- Houdini, window 1, on the runner's candidates (none on hunt).
    std::vector<rtl::NetId> invariants;
    const double houdini_s = timed(&log, "houdini", name, [&] {
        Budget budget(task.timeoutSeconds / 4);
        auto survivors = mc::proveInductiveInvariants(
            reduced, setup->candidates, &budget, 1);
        if (survivors)
            invariants = *survivors;
    });
    t.add("houdini.s", houdini_s);
    t.add("houdini.candidates", double(setup->candidates.size()));
    t.add("houdini.survivors", double(invariants.size()));

    // --- The engine race of the runner's first solver stage, on the
    // slice of the budget the runner would grant it.
    mc::CheckOptions copts;
    copts.maxDepth = task.maxDepth;
    copts.tryProof = task.tryProof;
    copts.engines = firstStageEngines(task);
    copts.assumedInvariants = invariants;
    copts.timeoutSeconds =
        task.tryProof ? verif::RunnerOptions{}.stage1Fraction *
                            (task.timeoutSeconds - houdini_s)
                      : task.timeoutSeconds;
    mc::CheckResult cres;
    const double cpu_before = cpuSeconds();
    const double portfolio_s = timed(&log, "portfolio", name, [&] {
        cres = mc::checkProperty(reduced, copts);
    });
    t.add("portfolio.cpu_s", cpuSeconds() - cpu_before);
    check(answerIsCorrect(cell, cres.verdict, cres.depth),
          "portfolio answer differs from the known answer");
    double decided_at = copts.timeoutSeconds;
    for (const mc::EngineOutcome &engine : cres.engines) {
        const std::string prefix =
            std::string("engine.") + mc::engineKindName(engine.kind);
        t.add(prefix + ".conflicts", double(engine.conflicts));
        t.add(prefix + ".safe_depth", double(engine.deepestSafeBound));
        if (engine.winner) {
            t.add(prefix + ".wins", 1);
            t.add("portfolio.winner_conflicts", double(engine.conflicts));
            decided_at = engine.seconds;
        }
    }
    t.add("portfolio.s", portfolio_s);
    t.add("portfolio.cancel_lag_s", portfolio_s - decided_at);
    t.add("portfolio.conflicts", double(cres.conflicts));
    t.add("portfolio.imported_facts", double(cres.importedFacts));

    // --- A BMC-shaped loop straight on sat::Solver, to the cell's known
    // depth: bit-blasting per frame, then one solve per frame.
    sat::Solver solver;
    bitblast::CnfBuilder cnf(solver);
    bitblast::Unroller unroller(reduced, cnf, /*free_initial_state=*/false);
    // A safety cap only: every cell's known depth solves far inside it.
    Budget sat_budget(kLayerCapSeconds);
    const size_t frames = cell.depth + 1;
    double unroll_s = 0, solve_s = 0;
    size_t solves = 0;
    // Attack cells must be Sat at the last frame only; every other
    // frame, and every frame of the other cells, Unsat.
    bool sat_ok = true;
    for (size_t k = 0; k < frames && sat_ok; ++k) {
        unroll_s += timed(&log, "bitblast.frame", name,
                          [&] { unroller.ensureFrames(k + 1); });
        sat::Status status = sat::Status::Unknown;
        solve_s += timed(&log, "sat.solve", name, [&] {
            status = solver.solve({unroller.badLit(k)}, &sat_budget);
        });
        ++solves;
        const bool bad_expected = attack && k + 1 == frames;
        sat_ok = status == (bad_expected ? sat::Status::Sat
                                         : sat::Status::Unsat);
        if (status == sat::Status::Unsat)
            solver.addClause(~unroller.badLit(k));
    }
    if (sat_ok && !attack) {
        // A bad-free run of the same length, for the audit below.
        sat::Status status = sat::Status::Unknown;
        solve_s += timed(&log, "sat.solve", name,
                         [&] { status = solver.solve({}); });
        ++solves;
        sat_ok = status == sat::Status::Sat;
    }
    check(sat_ok, "BMC-shaped solver loop missed the known depth");
    const sat::SolverStats &stats = solver.stats();
    t.add("bitblast.unroll_s", unroll_s);
    t.add("bitblast.vars", double(solver.numVars()));
    t.add("bitblast.clauses", double(solver.numClauses()));
    t.add("sat.solve_s", solve_s);
    t.add("sat.solves", double(solves));
    t.add("sat.conflicts", double(stats.conflicts));
    t.add("sat.decisions", double(stats.decisions));
    t.add("sat.propagations", double(stats.propagations));
    t.add("sat.restarts", double(stats.restarts));
    t.add("sat.learnt_lits", double(stats.learntLiterals));

    // --- Witness audit: map the loop's model back to the original
    // netlist and replay it. The bad net must fire exactly on attacks.
    double audit_s = 0;
    if (sat_ok) {
        mc::Trace found = mc::extractTrace(reduced, unroller, frames);
        mc::Trace trace;
        const double translate_s =
            timed(&log, "audit.translate", name, [&] {
                trace = mc::translateTrace(original, setup->reduction.map,
                                           found);
            });
        mc::ReplayResult replay;
        const double replay_s = timed(&log, "audit.replay", name, [&] {
            replay = mc::replayTrace(original, trace);
        });
        check(replay.initConstraintsHeld && replay.constraintsHeld &&
                  replay.badReached == attack,
              "witness replay disagrees with the solver model");
        t.add("audit.translate_s", translate_s);
        t.add("audit.replay_s", replay_s);
        t.add("audit.cycles", double(trace.length));
        audit_s = translate_s + replay_s;
    }

    // --- Journal: the run's checkpoint written once to a temp file.
    verif::Journal journal;
    journal.fingerprint = verif::fingerprintCircuit(original);
    journal.params = verif::journalParams(task);
    journal.reduction = rr.reductionPipeline;
    for (const verif::StageOutcome &stage : rr.stages)
        journal.stages.push_back({stage.name, mc::verdictName(stage.verdict),
                                  stage.depth, stage.seconds, stage.winner});
    journal.bmcSafeDepth = rr.deepestSafeBound;
    journal.winningEngine = rr.winningEngine;
    journal.finalVerdict = mc::verdictName(rr.result.verdict);
    const std::string path = scratch_dir + "/perf_bench-journal.tmp";
    bool saved = false;
    t.add("journal.save_s", timed(&log, "journal.save", name,
                                  [&] { saved = journal.save(path); }));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    check(saved && !ec, "journal save failed");
    t.add("journal.bytes", ec ? 0.0 : double(bytes));
    std::filesystem::remove(path, ec);

    // Spans standing in for the runner's own work on this cell: set-up,
    // Houdini, the first race and, on attacks, the witness audit.
    t.add("trace.covered_s", setup->seconds() + houdini_s + portfolio_s +
                                 (attack ? audit_s : 0.0));
    log.add("cell", name, cell_start, log.nowUs());
    return out;
}

std::vector<Metric>
layerMetrics(const LayerTotals &t, size_t passes)
{
    const double n = double(std::max<size_t>(passes, 1));
    auto ratio = [&](const char *num, const char *den) {
        const double d = t.get(den);
        return d > 0 ? t.get(num) / d : 0.0;
    };
    const double runner_s = t.get("runner.s");
    auto share = [&](const char *key) {
        return runner_s > 0 ? t.get(key) / runner_s : 0.0;
    };
    const double other_share =
        1.0 - share("runner.houdini_s") - share("runner.proof_stage_s") -
        share("runner.bmc_stage_s") - share("runner.reduce_s");

    std::vector<Metric> out;
    auto per_pass = [&](const char *key, const char *unit) {
        out.push_back({key, unit, t.get(key) / n});
    };
    per_pass("shadow.build_s", "s");
    per_pass("shadow.nets", "count");
    per_pass("analysis.preflight_s", "s");
    per_pass("transform.reduce_s", "s");
    per_pass("transform.nets_out", "count");
    per_pass("transform.regs_out", "count");
    per_pass("bitblast.unroll_s", "s");
    per_pass("bitblast.vars", "count");
    per_pass("bitblast.clauses", "count");
    per_pass("sat.solve_s", "s");
    per_pass("sat.solves", "count");
    per_pass("sat.conflicts", "count");
    per_pass("sat.decisions", "count");
    per_pass("sat.propagations", "count");
    per_pass("sat.restarts", "count");
    per_pass("sat.learnt_lits", "count");
    out.push_back(
        {"sat.props_per_s", "1/s", ratio("sat.propagations", "sat.solve_s")});
    per_pass("houdini.s", "s");
    per_pass("houdini.candidates", "count");
    per_pass("houdini.survivors", "count");
    out.push_back({"houdini.survivor_frac", "ratio",
                   ratio("houdini.survivors", "houdini.candidates")});
    per_pass("portfolio.s", "s");
    per_pass("portfolio.cancel_lag_s", "s");
    per_pass("portfolio.cpu_s", "s");
    per_pass("portfolio.conflicts", "count");
    out.push_back({"portfolio.useful_frac", "ratio",
                   ratio("portfolio.winner_conflicts",
                         "portfolio.conflicts")});
    per_pass("portfolio.imported_facts", "count");
    for (const char *engine : {"bmc", "kind", "pdr"})
        for (const char *what : {"conflicts", "safe_depth", "wins"}) {
            const std::string key =
                std::string("engine.") + engine + "." + what;
            out.push_back({key, "count", t.get(key) / n});
        }
    per_pass("audit.translate_s", "s");
    per_pass("audit.replay_s", "s");
    per_pass("audit.cycles", "count");
    per_pass("journal.save_s", "s");
    per_pass("journal.bytes", "bytes");
    per_pass("runner.s", "s");
    out.push_back(
        {"runner.houdini_share", "ratio", share("runner.houdini_s")});
    out.push_back(
        {"runner.proof_share", "ratio", share("runner.proof_stage_s")});
    out.push_back({"runner.bmc_share", "ratio", share("runner.bmc_stage_s")});
    out.push_back({"runner.reduce_share", "ratio", share("runner.reduce_s")});
    out.push_back({"runner.other_share", "ratio", other_share});
    per_pass("runner.safe_depth", "count");
    per_pass("runner.audit_retries", "count");
    out.push_back({"trace.coverage", "ratio", share("trace.covered_s")});
    return out;
}

} // namespace csl::perf_bench
