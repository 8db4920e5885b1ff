/**
 * @file
 * Incremental bounded model checking - the attack-finding engine
 * (JasperGold's "Ht" hunting engine in the paper's setup).
 */

#ifndef CSL_MC_BMC_H_
#define CSL_MC_BMC_H_

#include <atomic>
#include <memory>

#include "base/budget.h"
#include "bitblast/cnf_builder.h"
#include "bitblast/unroller.h"
#include "mc/engine.h"
#include "rtl/circuit.h"
#include "sat/solver.h"

namespace csl::mc {

/**
 * Incremental BMC as an Engine: one solver instance accumulates all
 * frames; each depth k is queried via the assumption literal bad(k).
 * One step() solves one frame. Every proven bound is published to the
 * FactBoard, and deeper bounds published by siblings are imported
 * (frames adopted as bad-free without solving). Concludes with Attack
 * (minimal-depth trace), BoundedSafe at maxDepth, or Timeout.
 *
 * startSafeDepth is the checkpoint/resume path: frames a previous run of
 * the same circuit already verified are adopted the same way (the caller
 * vouches for the match; verif::Journal guards it with a task
 * fingerprint).
 */
class Bmc : public Engine
{
  public:
    Bmc(const rtl::Circuit &circuit, EngineConfig config);
    ~Bmc() override;

    EngineKind kind() const override { return EngineKind::Bmc; }
    void start(FactBoard *board, Budget *budget) override;
    bool step() override;
    void cancel() override;
    EngineResult takeResult() override;

  protected:
    /**
     * Solve frames checked_..depth-1 in order. An Unsat frame is added
     * as a unit (bad-free from here on); Sat records the attack in
     * result_. Returns Unsat when every frame is bad-free, Sat on an
     * attack, and Unknown when a solve was interrupted or the budget ran
     * out after a frame.
     */
    sat::Status extendTo(size_t depth, Budget *budget);

    /** Adopt a deeper bound from the board, capped at maxDepth. */
    void importBound();

    /** Publish checked_ to the board. */
    void publishBound();

    /** Latch a non-attack verdict. */
    void conclude(Verdict verdict, size_t depth);

    EngineConfig config_;
    Budget *budget_ = nullptr;
    std::atomic<bool> cancelled_{false};

  private:
    /** Declare frames 0..@p depth-1 bad-free without solving. The frames
     * are still unrolled so later queries can build on them. */
    void markSafeUpTo(size_t depth);

    const rtl::Circuit &circuit_;
    FactBoard *board_ = nullptr;
    EngineResult result_;
    size_t checked_ = 0; ///< number of frames proven bad-free
    sat::Solver solver_;
    std::unique_ptr<bitblast::CnfBuilder> cnf_;
    std::unique_ptr<bitblast::Unroller> unroller_;
};

} // namespace csl::mc

#endif // CSL_MC_BMC_H_
