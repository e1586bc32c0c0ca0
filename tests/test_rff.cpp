/// \file test_rff.cpp
/// \brief Random-Fourier-feature GP backend: determinism, convergence to
/// the exact GP as M grows, incremental-vs-scratch bit-parity, fixed rng
/// consumption, and the engine plumbing — config validation, proxy
/// training, and the checkpoint fingerprint's backend-swap refusal.

#include "gp/rff.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "bo/checkpoint.h"
#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/rng.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "io/journal.h"
#include "obs/recording.h"
#include "test_temp_dir.h"

namespace easybo {
namespace {

using gp::GpRegressor;
using gp::RffRegressor;
using gp::SquaredExponentialArd;
using gp::Vec;

constexpr std::uint64_t kFeatureSeed = 0x52FFB0C4D5E6F7A8ULL;

/// Smooth 2-d test function on the unit square.
double f(const Vec& x) {
  return std::sin(3.0 * x[0]) * std::cos(2.0 * x[1]) + 0.5 * x[0];
}

std::vector<Vec> make_inputs(std::size_t n, Rng& rng) {
  std::vector<Vec> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.uniform_vector(2));
  return xs;
}

Vec targets(const std::vector<Vec>& xs) {
  Vec ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = f(xs[i]);
  return ys;
}

RffRegressor make_rff(std::size_t m) {
  return RffRegressor(easybo::gp::make_kernel("se", 2), 1e-6, m,
                      kFeatureSeed);
}

TEST(Rff, FitPredictIsDeterministic) {
  Rng rng(11);
  const auto xs = make_inputs(40, rng);
  const Vec ys = targets(xs);

  RffRegressor a = make_rff(64);
  RffRegressor b = make_rff(64);
  a.set_data(xs, ys);
  b.set_data(xs, ys);
  a.fit();
  b.fit();

  Rng probe(7);
  for (int i = 0; i < 20; ++i) {
    const Vec x = probe.uniform_vector(2);
    const auto pa = a.predict(x);
    const auto pb = b.predict(x);
    EXPECT_EQ(pa.mean, pb.mean);
    EXPECT_EQ(pa.var, pb.var);
  }
  EXPECT_EQ(a.log_marginal_likelihood(), b.log_marginal_likelihood());
}

TEST(Rff, RejectsNonSeKernels) {
  EXPECT_THROW(RffRegressor(easybo::gp::make_kernel("matern52", 2), 1e-6, 32,
                            kFeatureSeed),
               InvalidArgument);
}

TEST(Rff, GradientTrainingIsExplicitlyUnsupported) {
  RffRegressor rff = make_rff(16);
  EXPECT_FALSE(rff.supports_lml_gradient());
  Rng rng(1);
  const auto xs = make_inputs(5, rng);
  rff.set_data(xs, targets(xs));
  rff.fit();
  EXPECT_THROW(rff.lml_gradient(), InvalidArgument);
  // And the trainer routes it away rather than crashing mid-descent.
  Rng trng(2);
  EXPECT_THROW(gp::train_mle(rff, trng, {}), InvalidArgument);
}

/// Mean |phi(x)^T phi(x') - k(x, x')| over random pairs.
double feature_error(std::size_t m) {
  RffRegressor rff = make_rff(m);
  // A token fit builds the feature map for the current hyperparameters.
  rff.set_data({{0.5, 0.5}}, {0.0});
  rff.fit();
  const SquaredExponentialArd kernel(1.0, Vec{1.0, 1.0});
  Rng rng(13);
  double err = 0.0;
  const int pairs = 200;
  for (int i = 0; i < pairs; ++i) {
    const Vec x = rng.uniform_vector(2);
    const Vec y = rng.uniform_vector(2);
    const Vec px = rff.features(x);
    const Vec py = rff.features(y);
    err += std::abs(linalg::dot(px, py) - kernel(x, y));
  }
  return err / pairs;
}

// Monte-Carlo spectral approximation: error decays roughly as 1/sqrt(M).
TEST(Rff, FeatureMapApproximatesTheKernel) {
  const double e64 = feature_error(64);
  const double e1024 = feature_error(1024);
  EXPECT_LT(e1024, e64);
  EXPECT_LT(e1024, 0.05);
}

/// RMSE between RFF and exact-GP posterior means over a probe grid, with
/// both models at identical hyperparameters.
double posterior_gap(std::size_t m, const std::vector<Vec>& xs,
                     const Vec& ys, const GpRegressor& exact) {
  RffRegressor rff = make_rff(m);
  rff.set_log_hyperparams(exact.log_hyperparams());
  rff.set_data(xs, ys);
  rff.fit();
  Rng probe(17);
  double acc = 0.0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const Vec x = probe.uniform_vector(2);
    const double d = rff.predict(x).mean - exact.predict(x).mean;
    acc += d * d;
  }
  return std::sqrt(acc / n);
}

TEST(Rff, PosteriorConvergesToExactGpAsFeaturesGrow) {
  Rng rng(19);
  const auto xs = make_inputs(30, rng);
  const Vec ys = targets(xs);
  GpRegressor exact(easybo::gp::make_kernel("se", 2), 1e-6);
  exact.set_data(xs, ys);
  exact.fit();

  const double g16 = posterior_gap(16, xs, ys, exact);
  const double g128 = posterior_gap(128, xs, ys, exact);
  const double g1024 = posterior_gap(1024, xs, ys, exact);
  EXPECT_LT(g128, g16);
  EXPECT_LT(g1024, g128);
  EXPECT_LT(g1024, 0.05);
}

// The incremental absorb (appended rows into the feature Gram) must be
// bit-identical to a from-scratch rebuild — snapshot/resume equivalence
// depends on it.
TEST(Rff, IncrementalAbsorbMatchesScratchBitwise) {
  Rng rng(23);
  const auto xs = make_inputs(25, rng);
  const Vec ys = targets(xs);

  RffRegressor inc = make_rff(64);
  obs::RecordingSink sink;
  inc.set_trace(&sink);
  inc.set_data({xs.begin(), xs.begin() + 20}, {ys.begin(), ys.begin() + 20});
  inc.fit();
  ASSERT_EQ(sink.counter("gp.rff_refactor"), 1u);
  for (std::size_t i = 20; i < 25; ++i) inc.add_point(xs[i], ys[i]);
  inc.fit();
  EXPECT_EQ(sink.counter("gp.rff_extend"), 5u);
  EXPECT_EQ(sink.counter("gp.rff_refactor"), 1u);  // no rebuild

  RffRegressor scratch = make_rff(64);
  scratch.set_data(xs, ys);
  scratch.fit();

  Rng probe(29);
  for (int i = 0; i < 20; ++i) {
    const Vec x = probe.uniform_vector(2);
    EXPECT_EQ(inc.predict(x).mean, scratch.predict(x).mean);
    EXPECT_EQ(inc.predict(x).var, scratch.predict(x).var);
  }
  EXPECT_EQ(inc.log_marginal_likelihood(),
            scratch.log_marginal_likelihood());
}

// Changing hyperparameters re-SCALES the frozen spectral draws rather than
// redrawing them: the model stays a deterministic function of (seed, data,
// hyperparameters) and a round trip restores the exact posterior.
TEST(Rff, HyperparameterRoundTripRestoresPosterior) {
  Rng rng(31);
  const auto xs = make_inputs(20, rng);
  const Vec ys = targets(xs);
  RffRegressor rff = make_rff(64);
  rff.set_data(xs, ys);
  // Enter through the log-space setter so "restore" replays the exact
  // same exp() calls (exp(log(x)) is not an identity at the last ulp).
  const Vec lp = {0.0, std::log(0.4), std::log(0.3), std::log(1e-6)};
  rff.set_log_hyperparams(lp);
  rff.fit();
  const Vec x = {0.3, 0.6};
  const auto before = rff.predict(x);

  Vec moved = lp;
  moved[1] += 0.7;
  rff.set_log_hyperparams(moved);
  rff.fit();
  EXPECT_NE(rff.predict(x).mean, before.mean);

  rff.set_log_hyperparams(lp);
  rff.fit();
  EXPECT_EQ(rff.predict(x).mean, before.mean);
  EXPECT_EQ(rff.predict(x).var, before.var);
}

// Weight-space sampling consumes exactly 2M normals no matter how many
// candidates are evaluated — the property that keeps proposal streams
// aligned across candidate-set sizes.
TEST(Rff, SamplePosteriorConsumesFixedDrawCount) {
  Rng rng(37);
  const auto xs = make_inputs(15, rng);
  RffRegressor rff = make_rff(32);
  rff.set_data(xs, targets(xs));
  rff.fit();

  Rng ra(5), rb(5);
  (void)rff.sample_posterior(make_inputs(3, rng), ra);
  (void)rff.sample_posterior(make_inputs(9, rng), rb);
  EXPECT_EQ(ra.normal(), rb.normal());
}

// Joint coherence: one weight draw induces a consistent function, so two
// evaluations of the SAME sample at the same point agree.
TEST(Rff, SampleIsAConsistentFunction) {
  Rng rng(41);
  const auto xs = make_inputs(15, rng);
  RffRegressor rff = make_rff(32);
  rff.set_data(xs, targets(xs));
  rff.fit();

  const Vec x = {0.25, 0.75};
  Rng ra(9);
  const Vec fa = rff.sample_posterior({x, x}, ra);
  EXPECT_EQ(fa[0], fa[1]);
}

TEST(Rff, HallucinateShrinksVarianceAtPendingPoints) {
  Rng rng(43);
  const auto xs = make_inputs(20, rng);
  RffRegressor rff = make_rff(128);
  rff.set_data(xs, targets(xs));
  rff.fit();

  const Vec pend = {0.9, 0.9};
  const double var_before = rff.predict(pend).var;

  obs::RecordingSink sink;
  rff.set_trace(&sink);
  const auto overlay = rff.hallucinate({pend}, /*pin_mean=*/true);
  EXPECT_EQ(sink.counter("gp.hallucinate"), 1u);
  EXPECT_EQ(overlay->num_points(), 21u);
  EXPECT_LT(overlay->predict(pend).var, var_before);
  // A pseudo observation placed AT the predictive mean leaves the mean
  // field unchanged (its residual is zero), so only the variance moves.
  EXPECT_NEAR(overlay->predict(pend).mean, rff.predict(pend).mean, 1e-6);
}

// ---------------------------------------------------------------------------
// BoConfig plumbing
// ---------------------------------------------------------------------------

TEST(RffConfig, ValidatesBackendCombinations) {
  bo::BoConfig c;
  c.gp_backend = "rff";
  EXPECT_NO_THROW(c.validate());
  c.kernel = "matern52";
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.kernel = "se";
  c.rff_features = 2;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.rff_features = 128;
  c.rff_train_subset = 1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.rff_train_subset = 512;
  c.gp_backend = "cholesky";  // not a backend
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(RffConfig, BackendChangesTheFingerprint) {
  const auto tf = circuit::branin();
  bo::BoConfig exact_cfg;
  bo::BoConfig rff_cfg;
  rff_cfg.gp_backend = "rff";
  EXPECT_NE(bo::config_fingerprint(exact_cfg, tf.bounds),
            bo::config_fingerprint(rff_cfg, tf.bounds));
  // So do the approximation knobs that shape the proposal stream.
  bo::BoConfig more_features = rff_cfg;
  more_features.rff_features = 256;
  EXPECT_NE(bo::config_fingerprint(rff_cfg, tf.bounds),
            bo::config_fingerprint(more_features, tf.bounds));
  bo::BoConfig pinned;
  pinned.pin_hallucinated_mean = true;
  EXPECT_NE(bo::config_fingerprint(bo::BoConfig{}, tf.bounds),
            bo::config_fingerprint(pinned, tf.bounds));
}

// ---------------------------------------------------------------------------
// Engine level
// ---------------------------------------------------------------------------

bo::BoConfig rff_engine_cfg(std::uint64_t seed) {
  bo::BoConfig c;
  c.mode = bo::Mode::AsyncBatch;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 4;
  c.init_points = 10;
  c.max_sims = 40;
  c.seed = seed;
  c.gp_backend = "rff";
  c.rff_features = 128;
  c.acq_opt.sobol_candidates = 128;
  c.acq_opt.random_candidates = 64;
  c.acq_opt.refine_evals = 60;
  c.trainer.max_iters = 20;
  c.trainer.restarts = 1;
  return c;
}

TEST(RffEngine, SolvesBraninThroughProxyTraining) {
  const auto tf = circuit::branin();
  bo::BoConfig cfg = rff_engine_cfg(3);
  cfg.collect_metrics = true;
  const auto r = bo::BoEngine(cfg, tf.bounds, tf.fn).run();
  EXPECT_EQ(r.num_evals(), cfg.max_sims);
  // The approximate posterior still optimizes the easy 2-d landscape.
  EXPECT_NEAR(r.best_y, tf.max_value, 0.3);
  // Hyperparameters were trained through the exact-GP proxy (the backend
  // has no gradient), and proposals hallucinated without exact factors.
  EXPECT_GT(r.metrics.counter("bo.proxy_train"), 0u);
  EXPECT_GT(r.metrics.counter("gp.hallucinate"), 0u);
  EXPECT_EQ(r.metrics.counter("gp.chol_extend"), 0u);
}

TEST(RffEngine, ReproducibleForFixedSeed) {
  const auto tf = circuit::branin();
  const auto a = bo::BoEngine(rff_engine_cfg(5), tf.bounds, tf.fn).run();
  const auto b = bo::BoEngine(rff_engine_cfg(5), tf.bounds, tf.fn).run();
  ASSERT_EQ(a.num_evals(), b.num_evals());
  for (std::size_t i = 0; i < a.num_evals(); ++i) {
    EXPECT_EQ(a.evals[i].x, b.evals[i].x) << "eval " << i;
  }
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
}

// Swapping the GP backend mid-run would silently change every proposal
// after the swap: the checkpoint fingerprint must refuse the resume.
TEST(RffEngine, ResumeRefusesABackendSwap) {
  const auto tf = circuit::branin();
  bo::BoConfig cfg = rff_engine_cfg(7);
  cfg.gp_backend = "exact";  // run (and checkpoint) on the exact backend
  cfg.max_sims = 20;
  cfg.checkpoint_path = test_temp_path("easybo_rff_swap");
  std::remove(bo::journal_file(cfg.checkpoint_path).c_str());
  std::remove(bo::snapshot_file(cfg.checkpoint_path).c_str());
  (void)bo::BoEngine(cfg, tf.bounds, tf.fn).run();

  bo::BoConfig swapped = cfg;
  swapped.gp_backend = "rff";
  bo::BoEngine engine(swapped, tf.bounds, tf.fn);
  try {
    engine.resume(cfg.checkpoint_path);
    FAIL() << "resume was expected to refuse the backend swap";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint config mismatch"),
              std::string::npos)
        << "message: " << e.what();
  }
}

}  // namespace
}  // namespace easybo
