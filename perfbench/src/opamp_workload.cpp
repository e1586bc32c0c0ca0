/// \file opamp_workload.cpp
/// \brief Workload opamp_async_b10: the paper's headline configuration
/// (EasyBO-B, asynchronous batch, B=10, op-amp d=10, 300 simulations)
/// run in-process through BoEngine::run on the virtual-time executor.
///
/// One unit is one whole 300-sim run with its own seed. Units repeat
/// until the time limit; the unit in flight at the limit is stopped
/// through the engine's stop token and counts for nothing. A turn is the
/// wall time between two consecutive objective calls after the initial
/// design: one observe plus one suggest of the engine.

#include <algorithm>
#include <atomic>
#include <cmath>

#include "bo/ask_tell.h"
#include "bo/engine.h"
#include "circuit/benchmark.h"
#include "obs/recording.h"
#include "workloads.h"

namespace perfbench {
namespace {

using easybo::linalg::Vec;
namespace bo = easybo::bo;
namespace obs = easybo::obs;

constexpr std::size_t kSims = 300;
constexpr std::size_t kBatch = 10;
/// The objective call whose value the "y" plant perturbs.
constexpr std::size_t kPlantCall = 37;

bo::BoConfig opamp_config(const easybo::circuit::SizingBenchmark& bench,
                          std::uint64_t seed, std::size_t sims) {
  bo::BoConfig c;  // default acquisition and trainer options
  c.mode = bo::Mode::AsyncBatch;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = kBatch;
  c.init_points = bench.init_points;
  c.max_sims = sims;
  c.seed = seed;
  return c;
}

struct Unit {
  bo::BoResult result;
  std::vector<Vec> issued;      ///< objective arguments, call order
  std::vector<double> turn_ms;  ///< BO-phase turns
  double wall_s = 0.0;
  bool whole = false;
};

/// One engine run. \p deadline_armed lets the time limit stop it.
Unit run_unit(const easybo::circuit::SizingBenchmark& bench,
              std::uint64_t seed, std::size_t sims, Clock::time_point deadline,
              bool deadline_armed, bool plant, obs::TraceSink* sink) {
  Unit u;
  std::atomic<bool> stop{false};
  std::vector<Clock::time_point> calls;
  calls.reserve(sims);
  u.issued.reserve(sims);
  auto objective = [&](const Vec& x) {
    calls.push_back(Clock::now());
    u.issued.push_back(x);
    double y = bench.fom(x);
    if (plant && u.issued.size() == kPlantCall) y += 1e-6;
    if (deadline_armed && calls.back() >= deadline) stop.store(true);
    return y;
  };
  const bo::BoConfig cfg = opamp_config(bench, seed, sims);
  const auto t0 = Clock::now();
  bo::BoEngine engine(cfg, bench.bounds, objective,
                      [&bench](const Vec& x) { return bench.sim_time(x); });
  engine.set_stop_token(&stop);
  if (sink != nullptr) engine.set_trace(sink);
  u.result = engine.run();
  u.wall_s = seconds_since(t0);
  u.whole = !u.result.interrupted && u.result.evals.size() == sims;
  for (std::size_t i = cfg.init_points + 1; i < calls.size(); ++i) {
    u.turn_ms.push_back(
        std::chrono::duration<double, std::milli>(calls[i] - calls[i - 1])
            .count());
  }
  return u;
}

bool bits_less(const Vec& a, const Vec& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// The oracle of one run: the checks of every evaluation, plus the
/// whole-run checks when the run was not stopped early.
void check_unit(const easybo::circuit::SizingBenchmark& bench, const Unit& u,
                std::size_t index, std::size_t sims, Report& report) {
  const std::string tag = "opamp run " + std::to_string(index) + ": ";
  const auto& evals = u.result.evals;
  bool in_bounds = true, y_exact = true, none_failed = true;
  for (const auto& e : evals) {
    for (std::size_t k = 0; k < e.x.size(); ++k) {
      in_bounds = in_bounds && e.x.size() == bench.bounds.dim() &&
                  e.x[k] >= bench.bounds.lower[k] &&
                  e.x[k] <= bench.bounds.upper[k];
    }
    const double expect = bench.fom(e.x);
    y_exact = y_exact && std::isfinite(e.y) && e.y == expect;
    none_failed = none_failed && !e.failed;
  }
  report.check(in_bounds, tag + "every x within the design bounds");
  report.check(y_exact,
               tag + "every y finite and bit-equal to the op-amp FOM at x");
  report.check(none_failed, tag + "no evaluation failed");
  if (!u.whole) return;
  report.check(evals.size() == sims && u.issued.size() == sims,
               tag + "exactly max_sims evaluations issued and recorded");
  std::vector<Vec> issued = u.issued, recorded;
  for (const auto& e : evals) recorded.push_back(e.x);
  std::sort(issued.begin(), issued.end(), bits_less);
  std::sort(recorded.begin(), recorded.end(), bits_less);
  report.check(issued == recorded,
               tag + "every issued proposal observed exactly once");
  report.check(std::adjacent_find(issued.begin(), issued.end()) ==
                   issued.end(),
               tag + "no proposal issued twice");
  double best = -INFINITY;
  for (const auto& e : evals) best = std::max(best, e.y);
  report.check(!evals.empty() && u.result.best_y == best,
               tag + "reported best equals the maximum recorded y");
}

/// Strict suggest/observe alternation of a standalone AskTellCore on the
/// op-amp configuration: the bo layer's per-call times.
void report_bo_alternation(const easybo::circuit::SizingBenchmark& bench,
                           std::uint64_t seed, Report& report) {
  constexpr std::size_t kProbeSims = 100;
  bo::AskTellCore core(opamp_config(bench, seed, kProbeSims), bench.bounds);
  std::vector<double> suggest_ms, observe_ms;
  for (std::size_t i = 0; i < kProbeSims; ++i) {
    auto t0 = Clock::now();
    const bo::Suggestion s = core.suggest();
    if (!s.is_init) suggest_ms.push_back(ms_since(t0));
    bo::Outcome o;
    o.value = bench.fom(s.x);
    t0 = Clock::now();
    core.observe(s.tag, o);
    if (!s.is_init) observe_ms.push_back(ms_since(t0));
  }
  report.percentile_metric("bo.suggest_ms_p50", suggest_ms, 0.5, "ms");
  report.percentile_metric("bo.observe_ms_p50", observe_ms, 0.5, "ms");
}

}  // namespace

void report_bo_phase_probe(const Args& args, Report& report) {
  const auto bench = easybo::circuit::make_opamp_benchmark();
  obs::RecordingSink rec;
  const Unit u = run_unit(bench, derive_seed(args.seed, 99), kSims,
                          Clock::now(), false, false, &rec);
  check_unit(bench, u, 0, kSims, report);
  report.metric("bo.phase.acq_maximize_s",
                rec.seconds(obs::Phase::AcqMaximize), "s");
  report.metric("bo.phase.hyper_refit_s", rec.seconds(obs::Phase::HyperRefit),
                "s");
  report.metric("bo.phase.model_fit_s", rec.seconds(obs::Phase::ModelFit),
                "s");
  report.metric("bo.hyper_refits",
                static_cast<double>(u.result.hyper_refits), "count");
}

void run_opamp(const Args& args, const RunDir& dir, Report& report) {
  const auto bench = easybo::circuit::make_opamp_benchmark();

  // Set-up: build the problem and run a short warm-up engine run (so the
  // timed loop starts with warm caches), three times; the median counts.
  const double setup_s = median_seconds(3, [&](int i) {
    const auto b = easybo::circuit::make_opamp_benchmark();
    // A fixed seed: the same set-up work on every run.
    const Unit warm = run_unit(b, derive_seed(0x5e7u, 7, i), 40,
                               Clock::now(), false, false, nullptr);
    report.check(warm.whole, "opamp warm-up run completed");
  });

  // Timed loop. The first unit (the first two when traced: one of each
  // kind) always completes; later ones are stopped at the limit.
  const std::size_t guaranteed = args.trace ? 2 : 1;
  std::vector<Unit> units;
  std::vector<obs::RecordingSink> sinks(64);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  while (units.size() < guaranteed || Clock::now() < deadline) {
    const std::size_t i = units.size();
    const bool traced = args.trace && i % 2 == 0 && i / 2 < sinks.size();
    // Traced runs pair each traced unit with an untraced one of the same
    // seed (telemetry is inert, so both do the same work).
    const std::size_t seed_index = args.trace ? i / 2 : i;
    units.push_back(run_unit(bench, derive_seed(args.seed, 1, seed_index),
                             kSims, deadline, i >= guaranteed,
                             args.plant == "y" && i == 0,
                             traced ? &sinks[i / 2] : nullptr));
    if (!units.back().whole) break;
  }
  const double rss = peak_rss_mb();

  std::size_t whole = 0, sims = 0, attempted = 0, failed = 0;
  double wall = 0.0;
  std::vector<double> turns, traced_s, untraced_s;
  std::vector<double> acq_s, refit_s, fit_s, refits;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    check_unit(bench, u, i, kSims, report);
    for (const auto& e : u.result.evals) {
      ++attempted;
      if (e.failed) ++failed;
    }
    if (!u.whole) continue;
    ++whole;
    sims += u.result.evals.size();
    wall += u.wall_s;
    turns.insert(turns.end(), u.turn_ms.begin(), u.turn_ms.end());
    const bool traced = args.trace && i % 2 == 0;
    (traced ? traced_s : untraced_s).push_back(u.wall_s);
    if (traced) {
      const auto& rec = sinks[i / 2];
      acq_s.push_back(rec.seconds(obs::Phase::AcqMaximize));
      refit_s.push_back(rec.seconds(obs::Phase::HyperRefit));
      fit_s.push_back(rec.seconds(obs::Phase::ModelFit));
      refits.push_back(static_cast<double>(u.result.hyper_refits));
    }
  }
  report.check(whole >= 1, "at least one whole op-amp run");
  report.phase("opamp sims", attempted, failed);
  report.info("opamp: " + std::to_string(whole) + " whole 300-sim runs of " +
              std::to_string(units.size()) + " started");
  if (!units.empty()) {
    StreamDigest d;
    for (const auto& e : units.front().result.evals) {
      for (const double v : e.x) d.add(v);
    }
    report.info("digest opamp_async_b10 first-run proposal stream " +
                d.hex());
  }

  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("success_rate",
                  attempted == 0 ? 0.0
                                 : static_cast<double>(attempted - failed) /
                                       static_cast<double>(attempted),
                  "ratio");
    report.metric("evals_per_s", wall > 0 ? static_cast<double>(sims) / wall
                                          : 0.0,
                  "1/s");
    report.percentile_metric("turn_ms_p50", turns, 0.5, "ms");
    return;
  }
  report.metric("bo.phase.acq_maximize_s", median(acq_s), "s");
  report.metric("bo.phase.hyper_refit_s", median(refit_s), "s");
  report.metric("bo.phase.model_fit_s", median(fit_s), "s");
  report.metric("bo.hyper_refits", median(refits), "count");
  report_trace_overhead(untraced_s, traced_s, report);
  report_bo_alternation(bench, derive_seed(args.seed, 3), report);
  report_serve_pool_probe(args, dir, report);
}

}  // namespace perfbench
