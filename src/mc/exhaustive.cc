#include "mc/exhaustive.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/bits.h"
#include "base/logging.h"
#include "sim/simulator.h"

namespace csl::mc {

using rtl::Net;
using rtl::NetId;

namespace {

/** Pack register values into one key (total state width must be <= 64). */
struct StatePacker
{
    std::vector<NetId> regs;
    std::vector<int> widths;
    int totalBits = 0;

    explicit StatePacker(const rtl::Circuit &circuit)
    {
        for (NetId reg : circuit.registers()) {
            regs.push_back(reg);
            int width = circuit.net(reg).width;
            widths.push_back(width);
            totalBits += width;
        }
    }

    uint64_t
    pack(const std::unordered_map<NetId, uint64_t> &values) const
    {
        uint64_t key = 0;
        for (size_t i = 0; i < regs.size(); ++i) {
            auto it = values.find(regs[i]);
            uint64_t v = it == values.end() ? 0 : it->second;
            key = (key << widths[i]) | truncBits(v, widths[i]);
        }
        return key;
    }

    std::unordered_map<NetId, uint64_t>
    unpack(uint64_t key) const
    {
        std::unordered_map<NetId, uint64_t> values;
        for (size_t i = regs.size(); i-- > 0;) {
            values[regs[i]] = key & maskBits(widths[i]);
            key >>= widths[i];
        }
        return values;
    }
};

} // namespace

ExhaustiveResult
exhaustiveCheck(const rtl::Circuit &circuit, size_t max_states,
                Budget *budget, const std::atomic<bool> *stop)
{
    ExhaustiveResult result;
    StatePacker packer(circuit);
    auto cancelled = [&] {
        if (stop && stop->load(std::memory_order_relaxed))
            return true;
        return budget && budget->exhausted();
    };

    int symbolic_bits = 0;
    std::vector<NetId> symbolic;
    for (NetId reg : circuit.registers()) {
        if (circuit.net(reg).symbolicInit) {
            symbolic.push_back(reg);
            symbolic_bits += circuit.net(reg).width;
        }
    }
    int input_bits = 0;
    for (NetId in : circuit.inputs())
        input_bits += circuit.net(in).width;

    if (packer.totalBits > 40 || symbolic_bits > 20 || input_bits > 16) {
        result.completed = false;
        return result; // too large for explicit enumeration
    }

    sim::Simulator simulator(circuit);

    // Enumerate initial states.
    std::unordered_map<uint64_t, size_t> depth_of; // state -> min depth
    std::deque<uint64_t> queue;
    for (uint64_t assign = 0; assign < (1ull << symbolic_bits); ++assign) {
        if (budget)
            budget->charge(1);
        if (cancelled())
            return result; // completed stays false
        std::unordered_map<NetId, uint64_t> init;
        uint64_t rest = assign;
        for (NetId reg : symbolic) {
            int width = circuit.net(reg).width;
            init[reg] = rest & maskBits(width);
            rest >>= width;
        }
        simulator.reset(init);
        // Check init constraints under some input (init constraints must
        // not depend on inputs for this oracle; evaluate with zeros).
        simulator.evaluate();
        if (!simulator.initConstraintsHold())
            continue;
        std::unordered_map<NetId, uint64_t> full;
        for (NetId reg : circuit.registers())
            full[reg] = simulator.value(reg);
        uint64_t key = packer.pack(full);
        if (depth_of.emplace(key, 0).second)
            queue.push_back(key);
    }

    auto decode_inputs = [&](uint64_t in_assign) {
        std::unordered_map<NetId, uint64_t> inputs;
        for (NetId in : circuit.inputs()) {
            int width = circuit.net(in).width;
            inputs[in] = in_assign & maskBits(width);
            in_assign >>= width;
        }
        return inputs;
    };

    // BFS over (state, input) successors. pred records, for each state,
    // the state+input edge that first discovered it (BFS order makes
    // that a minimal-depth path) so a witness trace can be rebuilt.
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> pred;
    uint64_t bad_key = 0, bad_assign = 0;
    while (!queue.empty()) {
        uint64_t key = queue.front();
        queue.pop_front();
        size_t depth = depth_of[key];
        ++result.statesVisited;
        if (result.statesVisited > max_states)
            return result; // completed stays false
        if (budget)
            budget->charge(1);
        if (cancelled())
            return result;

        for (uint64_t in_assign = 0; in_assign < (1ull << input_bits);
             ++in_assign) {
            simulator.reset(packer.unpack(key));
            std::unordered_map<NetId, uint64_t> inputs =
                decode_inputs(in_assign);
            simulator.evaluate(inputs);
            if (!simulator.constraintsHold())
                continue; // assumption prunes this edge
            if (simulator.anyBad()) {
                if (!result.badReachable || depth < result.badDepth) {
                    result.badReachable = true;
                    result.badDepth = depth;
                    bad_key = key;
                    bad_assign = in_assign;
                }
                continue; // count the failure; path ends at the bad
            }
            simulator.tick();
            simulator.evaluate(inputs); // settle register outputs
            std::unordered_map<NetId, uint64_t> full;
            for (NetId reg : circuit.registers())
                full[reg] = simulator.value(reg);
            uint64_t next_key = packer.pack(full);
            if (depth_of.emplace(next_key, depth + 1).second) {
                pred.emplace(next_key, std::make_pair(key, in_assign));
                queue.push_back(next_key);
            }
        }
    }
    result.completed = true;

    if (result.badReachable) {
        // Walk the discovery edges back to an initial state, then emit
        // the inputs forward, ending with the bad-firing assignment.
        std::vector<uint64_t> chain;
        uint64_t cur = bad_key;
        for (auto it = pred.find(cur); it != pred.end();
             it = pred.find(cur)) {
            chain.push_back(it->second.second);
            cur = it->second.first;
        }
        Trace trace;
        trace.initialRegs = packer.unpack(cur);
        for (size_t i = chain.size(); i-- > 0;)
            trace.inputs.push_back(decode_inputs(chain[i]));
        trace.inputs.push_back(decode_inputs(bad_assign));
        trace.length = trace.inputs.size();
        result.trace = std::move(trace);
    }
    return result;
}

void
ExhaustiveEngine::start(FactBoard *, Budget *budget)
{
    budget_ = budget;
}

bool
ExhaustiveEngine::step()
{
    ExhaustiveResult explored = exhaustiveCheck(
        circuit_, kExhaustiveMaxStates, budget_, &cancelled_);
    if (explored.completed && explored.badReachable) {
        result_.verdict = Verdict::Attack;
        result_.depth = explored.badDepth;
        result_.trace = std::move(explored.trace);
    } else if (explored.completed) {
        result_.verdict = Verdict::Proof;
        result_.depth = explored.statesVisited;
    } else {
        result_.verdict = Verdict::Timeout;
    }
    return true;
}

void
ExhaustiveEngine::cancel()
{
    cancelled_.store(true, std::memory_order_relaxed);
}

} // namespace csl::mc
