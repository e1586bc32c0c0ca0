// Tests for constrained asynchronous EasyBO (bo/constrained.h) and the
// BUCB / LP extension acquisitions in the engine.

#include "bo/constrained.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "sched/executor.h"
#include "test_temp_dir.h"

namespace easybo::bo {
namespace {

BoConfig quick_config(std::uint64_t seed) {
  BoConfig c;
  c.mode = Mode::AsyncBatch;
  c.acq = AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 4;
  c.init_points = 12;
  c.max_sims = 60;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 128;
  c.acq_opt.random_candidates = 64;
  c.acq_opt.refine_evals = 60;
  c.trainer.max_iters = 20;
  c.trainer.restarts = 1;
  return c;
}

// Maximize x+y on [0,1]^2 subject to x + y <= 1 (feasible optimum: the
// x+y=1 line, value 1).
TEST(ConstrainedBo, FindsConstrainedOptimumOnSimplex) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};

  const auto r = run_constrained_bo(quick_config(1), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_GT(r.best_y, 0.9);
  EXPECT_LE(r.best_y, 1.0 + 1e-9);
  EXPECT_GE(r.best_constraints[0], 0.0);
}

TEST(ConstrainedBo, BestIsActuallyFeasible) {
  // Unconstrained optimum of the sphere is at 0, but we require x0 >= 1:
  // the feasible optimum sits on the constraint boundary.
  opt::Bounds bounds{{-3.0, -3.0}, {3.0, 3.0}};
  auto objective = [](const linalg::Vec& x) {
    return -(x[0] * x[0] + x[1] * x[1]);
  };
  std::vector<Constraint> cons = {
      {"x0>=1", [](const linalg::Vec& x) { return x[0] - 1.0; }}};

  const auto r = run_constrained_bo(quick_config(2), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_GE(r.best_x[0], 1.0 - 1e-9);
  // Feasible optimum is -1 (at x = (1, 0)).
  EXPECT_GT(r.best_y, -1.6);
}

TEST(ConstrainedBo, MultipleConstraintsAllRespected) {
  opt::Bounds bounds{{0.0, 0.0}, {2.0, 2.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] * x[1]; };
  std::vector<Constraint> cons = {
      {"x0<=1.5", [](const linalg::Vec& x) { return 1.5 - x[0]; }},
      {"x1<=1.0", [](const linalg::Vec& x) { return 1.0 - x[1]; }},
  };
  const auto r = run_constrained_bo(quick_config(3), bounds, objective, cons);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_LE(r.best_x[0], 1.5 + 1e-9);
  EXPECT_LE(r.best_x[1], 1.0 + 1e-9);
  EXPECT_GT(r.best_y, 1.0);  // feasible max is 1.5
}

TEST(ConstrainedBo, ReportsInfeasibleWhenNothingSatisfies) {
  opt::Bounds bounds{{0.0}, {1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0]; };
  // Impossible constraint.
  std::vector<Constraint> cons = {
      {"impossible", [](const linalg::Vec&) { return -1.0; }}};
  auto cfg = quick_config(4);
  cfg.max_sims = 30;
  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  EXPECT_FALSE(r.found_feasible);
  EXPECT_EQ(r.num_feasible, 0u);
  EXPECT_EQ(r.num_evals(), 30u);
}

TEST(ConstrainedBo, SequentialModeWorks) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  auto cfg = quick_config(5);
  cfg.mode = Mode::Sequential;
  cfg.batch = 1;
  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  EXPECT_TRUE(r.found_feasible);
  EXPECT_GT(r.best_y, 0.85);
}

TEST(ConstrainedBo, RejectsBadSetups) {
  opt::Bounds bounds{{0.0}, {1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0]; };
  std::vector<Constraint> cons = {
      {"ok", [](const linalg::Vec&) { return 1.0; }}};

  EXPECT_THROW(run_constrained_bo(quick_config(6), bounds, objective, {}),
               InvalidArgument);
  auto sync = quick_config(7);
  sync.mode = Mode::SyncBatch;
  EXPECT_THROW(run_constrained_bo(sync, bounds, objective, cons),
               InvalidArgument);
  std::vector<Constraint> null_con = {{"null", nullptr}};
  EXPECT_THROW(
      run_constrained_bo(quick_config(8), bounds, objective, null_con),
      InvalidArgument);
  // The journal and snapshot formats hold no constraint values.
  auto durable = quick_config(13);
  durable.checkpoint_path = test_temp_path("easybo_constrained");
  EXPECT_THROW(run_constrained_bo(durable, bounds, objective, cons),
               InvalidArgument);
}

// A failing constraint is an evaluation failure: the supervisor classifies
// it and on_eval_failure handles it exactly like a failing objective.
struct ConstraintFault {
  const char* name;
  double (*fault)();  ///< what the constraint does on its faulty call
  const char* failure;
  const char* counter;
};

// Print the case by name: gtest's default byte dump includes pointers,
// so test names would change between runs.
void PrintTo(const ConstraintFault& c, std::ostream* os) { *os << c.name; }

class ConstraintFailure : public ::testing::TestWithParam<ConstraintFault> {};

TEST_P(ConstraintFailure, IsDiscardedLikeAnObjectiveFailure) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  auto calls = std::make_shared<int>(0);
  const auto fault = GetParam().fault;
  std::vector<Constraint> cons = {
      {"sum<=1", [calls, fault](const linalg::Vec& x) {
         if (++*calls == 15) return fault();
         return 1.0 - x[0] - x[1];
       }}};
  auto cfg = quick_config(14);
  cfg.max_sims = 30;
  cfg.on_eval_failure = EvalFailurePolicy::Discard;
  cfg.collect_metrics = true;

  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  std::size_t failed = 0;
  for (const auto& e : r.evals) {
    if (!e.failed) continue;
    ++failed;
    EXPECT_EQ(e.failure, GetParam().failure);
    EXPECT_TRUE(std::isnan(e.y));
    EXPECT_TRUE(e.constraints.empty());
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(r.metrics.counter(GetParam().counter), 1u);
  EXPECT_EQ(r.metrics.counter("eval.discarded"), 1u);
  EXPECT_TRUE(r.found_feasible);
}

INSTANTIATE_TEST_SUITE_P(
    ConstrainedBo, ConstraintFailure,
    ::testing::Values(
        ConstraintFault{"Throws",
                        []() -> double {
                          throw std::runtime_error("constraint crashed");
                        },
                        "exception", "eval.exceptions"},
        ConstraintFault{"NaN",
                        [] { return std::numeric_limits<double>::quiet_NaN(); },
                        "non_finite", "eval.nonfinite"}),
    [](const ::testing::TestParamInfo<ConstraintFault>& info) {
      return std::string(info.param.name);
    });

TEST(ConstrainedBo, PenalizeRecordsTheLowestObservedConstraintValues) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  auto calls = std::make_shared<int>(0);
  std::vector<Constraint> cons = {
      {"sum<=1",
       [calls](const linalg::Vec& x) {
         if (++*calls == 20) throw std::runtime_error("constraint crashed");
         return 1.0 - x[0] - x[1];
       }},
      {"x0>=0.2", [](const linalg::Vec& x) { return x[0] - 0.2; }}};
  auto cfg = quick_config(15);
  cfg.max_sims = 30;
  cfg.on_eval_failure = EvalFailurePolicy::Penalize;

  const auto r = run_constrained_bo(cfg, bounds, objective, cons);
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  std::size_t penalized = 0;
  for (std::size_t i = 0; i < r.evals.size(); ++i) {
    if (!r.evals[i].failed) continue;
    ++penalized;
    // The pseudo-observation's constraint row is the column-wise minimum
    // over everything observed before it.
    linalg::Vec lowest(cons.size(), std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < i; ++k) {
      for (std::size_t c = 0; c < cons.size(); ++c) {
        lowest[c] = std::min(lowest[c], r.evals[k].constraints[c]);
      }
    }
    EXPECT_EQ(r.evals[i].constraints, lowest);
  }
  EXPECT_EQ(penalized, 1u);
  ASSERT_TRUE(r.found_feasible);
  EXPECT_GE(r.best_constraints[0], 0.0);
  EXPECT_GE(r.best_constraints[1], 0.0);
}

TEST(ConstrainedBo, EngineRunsOnAThreadExecutor) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  auto cfg = quick_config(16);
  cfg.max_sims = 30;
  sched::ThreadExecutor exec(2);
  BoEngine engine(cfg, bounds, objective, nullptr, cons);
  const auto r = engine.run(exec);
  ASSERT_EQ(r.num_evals(), cfg.max_sims);
  for (const auto& e : r.evals) {
    ASSERT_EQ(e.constraints.size(), 1u);
    EXPECT_DOUBLE_EQ(e.constraints[0], 1.0 - e.x[0] - e.x[1]);
  }
  ASSERT_EQ(r.best_constraints.size(), 1u);
  EXPECT_GE(r.best_constraints[0], 0.0);
}

TEST(ConstrainedBo, DeterministicForFixedSeed) {
  opt::Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  auto objective = [](const linalg::Vec& x) { return x[0] + x[1]; };
  std::vector<Constraint> cons = {
      {"sum<=1", [](const linalg::Vec& x) { return 1.0 - x[0] - x[1]; }}};
  const auto a = run_constrained_bo(quick_config(9), bounds, objective, cons);
  const auto b = run_constrained_bo(quick_config(9), bounds, objective, cons);
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
  EXPECT_EQ(a.num_feasible, b.num_feasible);
}

// ---------------------------------------------------------------------------
// BUCB / LP extension acquisitions through the engine
// ---------------------------------------------------------------------------

TEST(ExtensionAcq, BucbRunsInBothBatchModes) {
  const auto tf = easybo::circuit::sphere(2);
  for (Mode mode : {Mode::SyncBatch, Mode::AsyncBatch}) {
    auto cfg = quick_config(10);
    cfg.acq = AcqKind::Bucb;
    cfg.mode = mode;
    const auto r = run_bo(cfg, tf.bounds, tf.fn);
    EXPECT_EQ(r.num_evals(), cfg.max_sims);
    EXPECT_GT(r.best_y, -1.0) << to_string(mode);
  }
}

TEST(ExtensionAcq, LpRunsAndConverges) {
  const auto tf = easybo::circuit::sphere(2);
  auto cfg = quick_config(11);
  cfg.acq = AcqKind::Lp;
  cfg.mode = Mode::AsyncBatch;
  const auto r = run_bo(cfg, tf.bounds, tf.fn);
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  EXPECT_GT(r.best_y, -1.0);
}

TEST(ExtensionAcq, LabelsAndValidation) {
  auto cfg = quick_config(12);
  cfg.acq = AcqKind::Bucb;
  cfg.mode = Mode::AsyncBatch;
  cfg.batch = 7;
  EXPECT_EQ(cfg.label(), "BUCB-7");
  cfg.acq = AcqKind::Lp;
  EXPECT_EQ(cfg.label(), "LP-7");
  cfg.mode = Mode::Sequential;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace easybo::bo
