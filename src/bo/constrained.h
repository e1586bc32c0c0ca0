#pragma once
/// \file constrained.h
/// \brief Constrained asynchronous EasyBO (the paper's stated future work).
///
/// The paper (§II-A): "Our proposed approach can also be easily extended to
/// handle constrained optimization problem, which will be discussed in
/// future work." This module supplies that extension in the standard
/// feasibility-weighted form (Gardner et al., ICML'14) merged with EasyBO's
/// asynchronous loop and penalization:
///
///   * the objective is modeled by the usual GP;
///   * each constraint g_i (feasible iff g_i(x) >= 0) gets its own GP;
///   * the acquisition is alpha_EasyBO(x, w) weighted by the probability of
///     feasibility  prod_i Phi(mu_i(x) / sigma_i(x))  (acq::FeasibleEasyBo);
///   * the incumbent used for reporting is the best FEASIBLE observation.
///
/// There is no second loop: run_constrained_bo is a BoEngine run with
/// constraints (AskTellCore's constrained mode), so constrained runs get
/// the main loop's supervision, dedup, failure policies (a throwing or
/// non-finite constraint is an evaluation failure), telemetry and both
/// executor backends. Checkpointing is not supported with constraints.
///
/// Typical analog-sizing use: maximize the FOM subject to PM >= 60 deg,
/// gain >= 60 dB, power <= budget (see examples/constrained_sizing.cpp).

#include <functional>
#include <vector>

#include "bo/config.h"
#include "bo/engine.h"
#include "bo/result.h"
#include "opt/objective.h"

namespace easybo::bo {

/// Result of a constrained run. `best_x`/`best_y`/`best_constraints` refer
/// to the best FEASIBLE point; `found_feasible` is false when no
/// evaluation satisfied all constraints (then they fall back to the
/// least-infeasible point by constraint slack).
struct ConstrainedResult : BoResult {
  bool found_feasible = false;
  /// Successful evaluations that satisfied every constraint.
  std::size_t num_feasible = 0;
};

/// Runs constrained asynchronous EasyBO on a VirtualExecutor: builds a
/// BoEngine with \p constraints, runs it and adds the feasibility summary.
/// config.mode must be AsyncBatch or Sequential (synchronous batching is
/// orthogonal and not provided here); config.acq must be EasyBo;
/// config.checkpoint_path must be empty. Constraint evaluations are
/// assumed to come from the same simulation as the objective (no extra
/// simulation cost). For a ThreadExecutor, construct the BoEngine with
/// the constraints directly.
ConstrainedResult run_constrained_bo(
    const BoConfig& config, const opt::Bounds& bounds,
    const opt::Objective& objective, const std::vector<Constraint>& constraints,
    const std::function<double(const linalg::Vec&)>& sim_time = nullptr);

}  // namespace easybo::bo
