#include "mc/engine.h"

#include <algorithm>

#include "base/logging.h"
#include "mc/bmc.h"
#include "mc/exhaustive.h"
#include "mc/kinduction.h"
#include "mc/pdr.h"

namespace csl::mc {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Attack: return "ATTACK";
      case Verdict::Proof: return "PROOF";
      case Verdict::BoundedSafe: return "BOUNDED-SAFE";
      case Verdict::Timeout: return "TIMEOUT";
      case Verdict::Diagnosed: return "DIAGNOSED";
    }
    return "?";
}

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Bmc: return "bmc";
      case EngineKind::KInduction: return "kind";
      case EngineKind::Pdr: return "pdr";
      case EngineKind::Exhaustive: return "exh";
    }
    return "?";
}

std::optional<EngineKind>
parseEngineKind(const std::string &name)
{
    if (name == "bmc")
        return EngineKind::Bmc;
    if (name == "kind" || name == "kinduction" || name == "k-induction")
        return EngineKind::KInduction;
    if (name == "pdr")
        return EngineKind::Pdr;
    if (name == "exh" || name == "exhaustive")
        return EngineKind::Exhaustive;
    return std::nullopt;
}

std::optional<std::vector<EngineKind>>
parseEngineList(const std::string &csv)
{
    std::vector<EngineKind> kinds;
    if (csv.empty())
        return kinds; // empty list = "use the defaults"
    size_t pos = 0;
    for (;;) {
        size_t comma = csv.find(',', pos);
        size_t end = comma == std::string::npos ? csv.size() : comma;
        std::optional<EngineKind> kind =
            parseEngineKind(csv.substr(pos, end - pos));
        if (!kind)
            return std::nullopt; // unknown or empty element
        if (std::find(kinds.begin(), kinds.end(), *kind) == kinds.end())
            kinds.push_back(*kind);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return kinds;
}

std::string
engineListName(const std::vector<EngineKind> &kinds)
{
    std::string out;
    for (EngineKind kind : kinds) {
        if (!out.empty())
            out += ',';
        out += engineKindName(kind);
    }
    return out;
}

// ---------------------------------------------------------------------------
// FactBoard

void
FactBoard::publishSafeBound(size_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    safeBound_ = std::max(safeBound_, depth);
}

size_t
FactBoard::safeBound() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return safeBound_;
}

void
FactBoard::countImport()
{
    imports_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
FactBoard::imports() const
{
    return imports_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Engines

Engine::~Engine() = default;

std::unique_ptr<Engine>
makeEngine(EngineKind kind, const rtl::Circuit &circuit,
           EngineConfig config)
{
    switch (kind) {
      case EngineKind::Bmc:
        return std::make_unique<Bmc>(circuit, std::move(config));
      case EngineKind::KInduction:
        return std::make_unique<KInduction>(circuit, std::move(config));
      case EngineKind::Pdr:
        return std::make_unique<Pdr>(circuit, std::move(config));
      case EngineKind::Exhaustive:
        return std::make_unique<ExhaustiveEngine>(circuit);
    }
    csl_panic("unknown engine kind");
    return nullptr;
}

EngineResult
runEngine(Engine &engine, Budget *budget, FactBoard *board)
{
    engine.start(board, budget);
    while (!engine.step()) {
        if (budget && budget->exhausted()) {
            // Latch the engine's own interrupt so the next step is
            // guaranteed to conclude (with Timeout), then collect.
            engine.cancel();
            engine.step();
            break;
        }
    }
    return engine.takeResult();
}

} // namespace csl::mc
