#include "bo/constrained.h"

#include "common/error.h"

namespace easybo::bo {

ConstrainedResult run_constrained_bo(
    const BoConfig& config, const opt::Bounds& bounds,
    const opt::Objective& objective,
    const std::vector<Constraint>& constraints,
    const std::function<double(const linalg::Vec&)>& sim_time) {
  EASYBO_REQUIRE(!constraints.empty(),
                 "run_constrained_bo needs at least one constraint; use the "
                 "plain engine otherwise");
  BoEngine engine(config, bounds, objective, sim_time, constraints);
  ConstrainedResult result;
  static_cast<BoResult&>(result) = engine.run();
  for (const EvalRecord& e : result.evals) {
    if (!e.failed && constraint_violation(e.constraints) == 0.0) {
      ++result.num_feasible;
    }
  }
  result.found_feasible =
      !result.best_constraints.empty() &&
      constraint_violation(result.best_constraints) == 0.0;
  return result;
}

}  // namespace easybo::bo
