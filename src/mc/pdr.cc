#include "mc/pdr.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/bits.h"
#include "base/logging.h"
#include "bitblast/cnf_builder.h"
#include "bitblast/unroller.h"
#include "mc/trace.h"
#include "sat/solver.h"

namespace csl::mc {

using rtl::NetId;
using sat::Lit;
using sat::Status;

namespace {

/** Upper bound on frames (safety net; Proof/Cex usually earlier). */
constexpr size_t kMaxFrames = 200;
/** Literal-dropping attempts per generalization. */
constexpr size_t kGeneralizeAttempts = 32;

/** A (partial) assignment to the frame-0 state bits. */
struct Cube
{
    /** (state-bit index, value) pairs, sorted by index. */
    std::vector<std::pair<int, bool>> bits;

    bool operator==(const Cube &o) const = default;
};

} // namespace

/** The PDR engine state. */
struct Pdr::Impl
{
    Impl(const rtl::Circuit &circuit, const std::vector<NetId> &invariants)
        : circuit_(circuit), transCnf_(transSolver_),
          trans_(circuit, transCnf_, /*free_initial_state=*/true,
                 invariants),
          initCnf_(initSolver_),
          init_(circuit, initCnf_, /*free_initial_state=*/false,
                invariants)
    {
        trans_.ensureFrames(2);
        init_.ensureFrames(1);
        for (NetId inv : invariants) {
            transCnf_.assertLit(trans_.wordOf(inv, 0)[0]);
            transCnf_.assertLit(trans_.wordOf(inv, 1)[0]);
            initCnf_.assertLit(init_.wordOf(inv, 0)[0]);
        }

        // Flatten the cone registers into indexed state bits.
        for (NetId reg : circuit.registers()) {
            if (!trans_.cone()[reg])
                continue;
            const auto &w0 = trans_.wordOf(reg, 0);
            const auto &w1 = trans_.wordOf(reg, 1);
            const auto &wi = init_.cone()[reg] ? init_.wordOf(reg, 0)
                                               : bitblast::Word{};
            for (size_t b = 0; b < w0.size(); ++b) {
                state0_.push_back(w0[b]);
                state1_.push_back(w1[b]);
                stateInit_.push_back(b < wi.size() ? wi[b]
                                                   : initCnf_.trueLit());
                initKnown_.push_back(b < wi.size());
                bitOwner_.emplace_back(reg, static_cast<int>(b));
            }
        }

        // Frame 0 is the initial-state predicate, encoded in the
        // transition solver under its activation literal: concrete
        // register bits plus the init-constraint nets at frame 0.
        Lit act0 = transCnf_.fresh();
        acts_.push_back(act0);
        ownedCubes_.emplace_back(); // frame 0 owns no blocked cubes
        size_t bit = 0;
        for (NetId reg : circuit.registers()) {
            if (!trans_.cone()[reg])
                continue;
            const rtl::Net &n = circuit.net(reg);
            for (int b = 0; b < n.width; ++b, ++bit) {
                if (!n.symbolicInit) {
                    Lit l = state0_[bit];
                    transSolver_.addClause(
                        ~act0, bitAt(n.imm, b) ? l : ~l);
                }
            }
        }
        for (NetId c : circuit.initConstraints())
            transSolver_.addClause(~act0, trans_.wordOf(c, 0)[0]);
    }

    /** One major round; see the Pdr class comment. */
    bool
    stepOnce()
    {
        if (done_)
            return true;

        if (!started_) {
            started_ = true;
            // Depth-0: a bad initial state.
            Status status = solveTrans({acts_[0], trans_.badLit(0)});
            if (status == Status::Sat) {
                result_.verdict = Verdict::Attack;
                result_.depth = 0;
                Cube state = extractState();
                Trace trace;
                trace.length = 1;
                trace.initialRegs = regsOf(state);
                trace.inputs.push_back(inputsAt0());
                result_.trace = std::move(trace);
                return conclude();
            }
            if (status == Status::Unknown)
                return conclude(); // Timeout
            safeBound_ = 1; // no bad initial state: cycle 0 is safe
            k_ = 1;
            newFrame(); // acts_[1]
            return false;
        }

        if (k_ >= kMaxFrames)
            return conclude(); // frame budget exhausted: Timeout

        // Block all bad states reachable within F_k.
        for (;;) {
            std::vector<Lit> assumptions = frameAssumptions(k_);
            assumptions.push_back(trans_.badLit(0));
            Status status = solveTrans(assumptions);
            if (status == Status::Unknown)
                return conclude();
            if (status == Status::Unsat)
                break;
            Cube bad_state = extractState();
            // Remember the inputs making this state bad: the final
            // cycle of a counterexample trace through it.
            badInputs_.emplace(keyOf(bad_state), inputsAt0());
            if (!blockObligation(bad_state, k_))
                return conclude(); // cex or timeout (result_ filled)
        }
        // F_k overapproximates the states reachable within k steps and
        // now contains no bad state, so cycles 0..k are bad-free - a
        // BMC-style safe bound of k+1, publishable to the fact board.
        safeBound_ = k_ + 1;

        // Propagation: push blocked cubes forward; a fully pushed
        // frame is an inductive invariant.
        newFrame(); // acts_[k+1]
        for (size_t i = 1; i <= k_; ++i) {
            auto cubes = ownedCubes_[i]; // copy: we mutate below
            for (const Cube &c : cubes) {
                std::vector<Lit> assumptions = frameAssumptions(i);
                for (auto [bit, value] : c.bits)
                    assumptions.push_back(value ? state1_[bit]
                                                : ~state1_[bit]);
                Status status = solveTrans(assumptions);
                if (status == Status::Unknown)
                    return conclude();
                if (status == Status::Unsat)
                    moveCube(c, i, i + 1);
            }
            if (ownedCubes_[i].empty()) {
                result_.verdict = Verdict::Proof;
                result_.depth = i;
                return conclude();
            }
        }
        ++k_;
        return false;
    }

    // --- Queries ---------------------------------------------------------

    Status
    solveTrans(const std::vector<Lit> &assumptions)
    {
        return transSolver_.solve(assumptions, budget_);
    }

    bool
    exhausted() const
    {
        return budget_ && budget_->exhausted();
    }

    /** Latch the final result fields; step() returns true from now on.
     * A Timeout reports the number of frames built as its depth. */
    bool
    conclude()
    {
        done_ = true;
        if (result_.verdict == Verdict::Timeout)
            result_.depth = acts_.size() - 1;
        return true;
    }

    /** Assumptions activating F_j in the transition solver. */
    std::vector<Lit>
    frameAssumptions(size_t j) const
    {
        std::vector<Lit> assumptions;
        for (size_t i = std::max<size_t>(j, 1); i < acts_.size(); ++i)
            assumptions.push_back(acts_[i]);
        if (j == 0)
            assumptions.push_back(acts_[0]);
        return assumptions;
    }

    /** Read the frame-0 state bits of the last Sat model. */
    Cube
    extractState()
    {
        Cube cube;
        cube.bits.reserve(state0_.size());
        for (size_t j = 0; j < state0_.size(); ++j)
            cube.bits.emplace_back(int(j),
                                   transSolver_.modelValue(state0_[j]));
        return cube;
    }

    // --- Counterexample reconstruction -----------------------------------
    //
    // Every obligation cube is a *full* assignment to the state bits
    // (extractState reads them all), so its bit string is a unique key.
    // blockObligation records, for each predecessor model, the successor
    // key plus the frame-0 input values of that model; the top-level bad
    // queries record the inputs under which a state is bad. When an
    // obligation reaches frame 0 the chain is stitched back into a
    // concrete Trace.

    std::string
    keyOf(const Cube &cube) const
    {
        std::string key(cube.bits.size(), '0');
        for (size_t j = 0; j < cube.bits.size(); ++j)
            key[j] = cube.bits[j].second ? '1' : '0';
        return key;
    }

    /** Register values of a full frame-0 cube. */
    std::unordered_map<NetId, uint64_t>
    regsOf(const Cube &cube) const
    {
        std::unordered_map<NetId, uint64_t> regs;
        for (auto [bit, value] : cube.bits) {
            auto [reg, pos] = bitOwner_[bit];
            if (value)
                regs[reg] |= uint64_t(1) << pos;
            else
                regs.try_emplace(reg, 0);
        }
        return regs;
    }

    /** Frame-0 input values of the last Sat model. */
    std::unordered_map<NetId, uint64_t>
    inputsAt0() const
    {
        std::unordered_map<NetId, uint64_t> inputs;
        for (NetId in : circuit_.inputs()) {
            if (trans_.cone()[in])
                inputs[in] = trans_.valueOf(in, 0);
        }
        return inputs;
    }

    /** Stitch the obligation chain from initial state @p s0 into a
     * Trace; leaves result_.trace absent when the chain is broken. */
    void
    buildCexTrace(const Cube &s0)
    {
        Trace trace;
        trace.initialRegs = regsOf(s0);
        std::string cur = keyOf(s0);
        size_t guard = parent_.size() + 2;
        while (guard-- > 0) {
            auto bad = badInputs_.find(cur);
            if (bad != badInputs_.end()) {
                trace.inputs.push_back(bad->second);
                trace.length = trace.inputs.size();
                result_.depth = trace.length - 1;
                result_.trace = std::move(trace);
                return;
            }
            auto link = parent_.find(cur);
            if (link == parent_.end())
                return; // chain broken: report the Cex without a trace
            trace.inputs.push_back(link->second.inputs);
            cur = link->second.succ;
        }
    }

    /** Does the cube intersect the initial states? */
    bool
    intersectsInit(const Cube &cube)
    {
        std::vector<Lit> assumptions;
        for (auto [bit, value] : cube.bits) {
            if (!initKnown_[bit])
                continue; // outside the init cone: unconstrained
            assumptions.push_back(value ? stateInit_[bit]
                                        : ~stateInit_[bit]);
        }
        return initSolver_.solve(assumptions, budget_) != Status::Unsat;
    }

    /**
     * Is `cube` unreachable from F_{i-1} \ cube in one step?
     * On UNSAT, *core receives the subset of cube literals (as state-bit
     * indices into cube.bits) present in the final conflict.
     */
    Status
    relativeInduction(const Cube &cube, size_t i,
                      std::vector<std::pair<int, bool>> *core)
    {
        // not-cube clause, activated just for the queries on this cube.
        Lit tmp = transCnf_.fresh();
        std::vector<Lit> clause{~tmp};
        for (auto [bit, value] : cube.bits)
            clause.push_back(value ? ~state0_[bit] : state0_[bit]);
        transSolver_.addClause(clause);

        std::vector<Lit> assumptions = frameAssumptions(i - 1);
        assumptions.push_back(tmp);
        std::vector<Lit> primed;
        for (auto [bit, value] : cube.bits) {
            Lit l = value ? state1_[bit] : ~state1_[bit];
            assumptions.push_back(l);
            primed.push_back(l);
        }
        Status status = solveTrans(assumptions);
        // Permanently deactivate the temporary clause.
        transSolver_.addClause(~tmp);
        if (status == Status::Unsat && core) {
            core->clear();
            const auto &failed = transSolver_.failedAssumptions();
            for (size_t idx = 0; idx < cube.bits.size(); ++idx) {
                if (std::find(failed.begin(), failed.end(),
                              primed[idx]) != failed.end())
                    core->push_back(cube.bits[idx]);
            }
        }
        return status;
    }

    /** Shrink a blocked cube while keeping it blocked and init-disjoint. */
    Cube
    generalize(Cube cube, size_t i)
    {
        // 1. Unsat-core shrink.
        std::vector<std::pair<int, bool>> core;
        if (relativeInduction(cube, i, &core) == Status::Unsat &&
            !core.empty()) {
            Cube shrunk;
            shrunk.bits = core;
            // Re-add literals until the cube excludes the initial states.
            if (intersectsInit(shrunk)) {
                for (auto bit : cube.bits) {
                    if (std::find(shrunk.bits.begin(), shrunk.bits.end(),
                                  bit) != shrunk.bits.end())
                        continue;
                    shrunk.bits.push_back(bit);
                    if (!intersectsInit(shrunk))
                        break;
                }
                std::sort(shrunk.bits.begin(), shrunk.bits.end());
            }
            if (!intersectsInit(shrunk))
                cube = shrunk;
        }

        // 2. Bounded literal dropping.
        size_t attempts = kGeneralizeAttempts;
        for (size_t idx = 0; idx < cube.bits.size() && attempts > 0;) {
            if (cube.bits.size() <= 1)
                break;
            Cube trial = cube;
            trial.bits.erase(trial.bits.begin() + idx);
            --attempts;
            if (!intersectsInit(trial) &&
                relativeInduction(trial, i, nullptr) == Status::Unsat) {
                cube = trial; // idx now points at the next literal
            } else {
                ++idx;
            }
        }
        return cube;
    }

    /** Block the states in `cube` (and generalizations) at frame `i`. */
    void
    addBlocked(const Cube &cube, size_t i)
    {
        std::vector<Lit> clause{~acts_[i]};
        for (auto [bit, value] : cube.bits)
            clause.push_back(value ? ~state0_[bit] : state0_[bit]);
        transSolver_.addClause(clause);
        ownedCubes_[i].push_back(cube);
    }

    void
    moveCube(const Cube &cube, size_t from, size_t to)
    {
        auto &owned = ownedCubes_[from];
        owned.erase(std::remove(owned.begin(), owned.end(), cube),
                    owned.end());
        addBlocked(cube, to);
    }

    void
    newFrame()
    {
        acts_.push_back(transCnf_.fresh());
        ownedCubes_.emplace_back();
    }

    /**
     * Recursively block the obligation (state, frame). Returns false when
     * the run is over (result_ filled with Attack or left as Timeout).
     */
    bool
    blockObligation(const Cube &state, size_t k)
    {
        // Obligations ordered by frame (lowest first).
        std::multimap<size_t, Cube> queue;
        queue.emplace(k, state);
        while (!queue.empty()) {
            if (exhausted())
                return false;
            auto it = queue.begin();
            size_t i = it->first;
            Cube s = it->second;
            if (i == 0) {
                // A predecessor chain reached the initial states.
                result_.verdict = Verdict::Attack;
                result_.depth = k;
                buildCexTrace(s);
                return false;
            }
            Status status = relativeInduction(s, i, nullptr);
            if (status == Status::Unknown)
                return false;
            if (status == Status::Sat) {
                // Predecessor in F_{i-1}: block it first. Record the
                // link (predecessor -> s under these inputs) for
                // counterexample reconstruction.
                Cube pred = extractState();
                parent_.emplace(keyOf(pred),
                                Link{keyOf(s), inputsAt0()});
                queue.emplace(i - 1, std::move(pred));
                continue;
            }
            // Blocked: generalize, record, and push the obligation
            // forward so deeper frames re-examine it.
            Cube c = generalize(s, i);
            addBlocked(c, i);
            queue.erase(it);
            if (i < k)
                queue.emplace(i + 1, s);
        }
        return true;
    }

    const rtl::Circuit &circuit_;
    FactBoard *board_ = nullptr;
    Budget *budget_ = nullptr;
    std::atomic<bool> cancelled_{false};

    sat::Solver transSolver_;
    bitblast::CnfBuilder transCnf_;
    bitblast::Unroller trans_;
    sat::Solver initSolver_;
    bitblast::CnfBuilder initCnf_;
    bitblast::Unroller init_;

    std::vector<Lit> state0_, state1_, stateInit_;
    std::vector<bool> initKnown_;
    std::vector<std::pair<NetId, int>> bitOwner_; ///< state bit -> (reg, bit)
    std::vector<Lit> acts_;
    std::vector<std::vector<Cube>> ownedCubes_;

    struct Link
    {
        std::string succ;
        std::unordered_map<NetId, uint64_t> inputs;
    };
    std::unordered_map<std::string, Link> parent_;
    std::unordered_map<std::string, std::unordered_map<NetId, uint64_t>>
        badInputs_;

    bool started_ = false;
    bool done_ = false;
    size_t k_ = 0;
    size_t safeBound_ = 0;
    EngineResult result_;
};

Pdr::Pdr(const rtl::Circuit &circuit, EngineConfig config)
{
    csl_assert(circuit.finalized(), "PDR requires a finalized circuit");
    impl_ = std::make_unique<Impl>(circuit, config.assumedInvariants);
}

Pdr::~Pdr() = default;

void
Pdr::start(FactBoard *board, Budget *budget)
{
    impl_->board_ = board;
    impl_->budget_ = budget;
}

bool
Pdr::step()
{
    Impl &pdr = *impl_;
    if (pdr.cancelled_.load(std::memory_order_relaxed))
        return pdr.conclude(); // Timeout
    bool done = pdr.stepOnce();
    if (pdr.board_)
        pdr.board_->publishSafeBound(pdr.safeBound_);
    return done;
}

void
Pdr::cancel()
{
    impl_->cancelled_.store(true, std::memory_order_relaxed);
    impl_->transSolver_.requestInterrupt();
    impl_->initSolver_.requestInterrupt();
}

EngineResult
Pdr::takeResult()
{
    EngineResult &result = impl_->result_;
    result.conflicts = impl_->transSolver_.stats().conflicts +
                       impl_->initSolver_.stats().conflicts;
    result.deepestSafeBound = impl_->safeBound_;
    return std::move(result);
}

} // namespace csl::mc
