// Tests for the live telemetry layer (obs/stream, obs/online_stats) and
// the adaptive refit cadence it feeds: CEMA matches its closed form and
// P-squared tracks true quantiles; the StreamSink's drop-oldest
// backpressure accounts for every event exactly (enqueued == emitted +
// dropped, seq gaps == drops, "obs.stream_dropped" forwarded); many
// producers against a live drainer stay race-free (the TSan CI job covers
// this); the JSONL tail is well-formed hello..bye; streaming is
// behaviorally inert (a seeded engine run proposes bit-identically with
// the sink on or off — the ISSUE's determinism bar); and
// adaptive_refit_gap() plus the AskTellCore wiring behind
// adapt_refit_cadence stretch the refit schedule without touching the
// default path.

#include "obs/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bo/ask_tell.h"
#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/online_stats.h"
#include "obs/recording.h"
#include "test_temp_dir.h"

namespace easybo::obs {
namespace {

std::string temp_stream(const std::string& name) {
  return test_temp_path("easybo_stream_" + name + ".jsonl");
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Minimal field scrape for the one-line frames this sink emits; no JSON
/// parser in the test keeps the format assertions honest about the bytes.
bool frame_is(const std::string& line, const std::string& type) {
  return line.find("\"type\":\"" + type + "\"") != std::string::npos;
}

std::uint64_t u64_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  return std::stoull(line.substr(pos + needle.size()));
}

// --- online statistics ----------------------------------------------------

TEST(Cema, MatchesClosedFormAndIsUnbiasedAtEveryN) {
  const double alpha = 0.3;
  Cema cema(alpha);
  double biased = 0.0;
  const std::vector<double> xs = {4.0, 2.0, 7.0, 7.0, 1.0, 3.5};
  for (std::size_t n = 0; n < xs.size(); ++n) {
    cema.add(xs[n]);
    biased = (1.0 - alpha) * biased + alpha * xs[n];
    const double correction =
        1.0 - std::pow(1.0 - alpha, static_cast<double>(n + 1));
    EXPECT_NEAR(cema.value(), biased / correction, 1e-12);
  }
  EXPECT_EQ(cema.count(), xs.size());
}

TEST(Cema, FirstSampleIsExactAndConstantInputIsFixed) {
  Cema cema(0.05);
  EXPECT_EQ(cema.value(), 0.0);  // before any sample
  cema.add(42.0);
  // value_1 = alpha*x / (1 - (1-alpha)): x up to the rounding of the
  // correction term itself — the corrected EMA has no warm-up bias.
  EXPECT_NEAR(cema.value(), 42.0, 1e-9);
  for (int i = 0; i < 200; ++i) cema.add(42.0);
  EXPECT_NEAR(cema.value(), 42.0, 1e-9);
}

TEST(Cema, TracksAStepChange) {
  Cema cema(0.2);
  for (int i = 0; i < 50; ++i) cema.add(1.0);
  for (int i = 0; i < 50; ++i) cema.add(10.0);
  EXPECT_GT(cema.value(), 9.0);  // converged most of the way to the step
  EXPECT_LT(cema.value(), 10.0 + 1e-9);
}

TEST(P2Quantile, ExactForFirstFiveSamples) {
  P2Quantile p50(0.5);
  p50.add(9.0);
  EXPECT_DOUBLE_EQ(p50.value(), 9.0);
  p50.add(1.0);
  p50.add(5.0);
  // Exact sample median of {1, 5, 9}.
  EXPECT_DOUBLE_EQ(p50.value(), 5.0);
}

TEST(P2Quantile, ConvergesOnUniformSamples) {
  // A deterministic LCG-shuffled sweep of [0, 1): the P-squared estimate
  // of p50/p90 must land near the true quantiles.
  P2Quantile p50(0.5);
  P2Quantile p90(0.9);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform();
    p50.add(x);
    p90.add(x);
  }
  EXPECT_NEAR(p50.value(), 0.5, 0.05);
  EXPECT_NEAR(p90.value(), 0.9, 0.05);
}

TEST(OnlineStat, JsonCarriesEveryField) {
  OnlineStat s;
  s.add(2.0);
  s.add(4.0);
  const std::string j = s.json();
  EXPECT_NE(j.find("\"count\":2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"total\":6"), std::string::npos) << j;
  EXPECT_NE(j.find("\"last\":4"), std::string::npos) << j;
  EXPECT_NE(j.find("\"cema\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p50\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p90\":"), std::string::npos) << j;
}

// --- stream sink ----------------------------------------------------------

TEST(StreamSink, EmitsWellFormedHelloFramesBye) {
  const std::string path = temp_stream("basic");
  {
    StreamOptions o;
    o.source = "unit-test";
    StreamSink sink(path, o);
    sink.add_counter("bo.hyper_refit", 2);
    sink.add_time(Phase::ModelFit, 0.25);
  }  // destructor closes
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines.front().find("\"stream\":\"easybo.stream.v1\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"source\":\"unit-test\""),
            std::string::npos);
  EXPECT_TRUE(frame_is(lines.back(), "bye"));
  EXPECT_EQ(u64_field(lines.back(), "events"), 2u);
  EXPECT_EQ(u64_field(lines.back(), "dropped_total"), 0u);
  bool saw_counter = false;
  bool saw_span = false;
  for (const auto& line : lines) {
    if (frame_is(line, "counter")) {
      saw_counter = true;
      EXPECT_NE(line.find("\"name\":\"bo.hyper_refit\""), std::string::npos);
      EXPECT_EQ(u64_field(line, "delta"), 2u);
    }
    if (frame_is(line, "span")) {
      saw_span = true;
      EXPECT_NE(line.find("\"phase\":\"model_fit\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_span);
  std::remove(path.c_str());
}

TEST(StreamSink, ThrowsWhenThePathCannotBeOpened) {
  EXPECT_THROW(
      StreamSink("/nonexistent-dir-for-sure/stream.jsonl", StreamOptions{}),
      Error);
}

TEST(StreamSink, ForcedBackpressureDropsOldestWithExactAccounting) {
  const std::string path = temp_stream("backpressure");
  RecordingSink rec;
  {
    StreamOptions o;
    o.queue_capacity = 8;
    o.manual_drain = true;  // no drainer: the queue MUST overflow
    StreamSink sink(path, o, &rec);
    for (int i = 0; i < 100; ++i) {
      sink.add_counter("tick", static_cast<std::uint64_t>(i));
    }
    sink.drain_now();
    const StreamStats stats = sink.stats();
    EXPECT_EQ(stats.enqueued, 100u);
    EXPECT_EQ(stats.dropped, 92u);  // capacity 8 survives of 100, exactly
    EXPECT_EQ(stats.emitted, 8u);
    sink.close();
    const StreamStats end = sink.stats();
    EXPECT_EQ(end.enqueued, end.emitted + end.dropped);
  }
  // Drop-oldest: the surviving events are the LAST 8 (seq 92..99), and the
  // seq gap in the tail is the drop count made visible to consumers.
  std::vector<std::uint64_t> seqs;
  std::uint64_t drop_frame_total = 0;
  for (const auto& line : read_lines(path)) {
    if (frame_is(line, "counter")) seqs.push_back(u64_field(line, "seq"));
    if (frame_is(line, "drop")) {
      drop_frame_total = u64_field(line, "dropped_total");
    }
  }
  ASSERT_EQ(seqs.size(), 8u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], 92u + i);
  }
  EXPECT_EQ(drop_frame_total, 92u);
  // The loss is mirrored onto the forwarded sink for the post-hoc report.
  EXPECT_EQ(rec.counter("obs.stream_dropped"), 92u);
  // The forwarded sink saw every event regardless of queue drops: the
  // stream degrades, the record does not.
  EXPECT_EQ(rec.counter("tick"), 99u * 100u / 2u);
  std::remove(path.c_str());
}

TEST(StreamSink, ManyProducersOneDrainerLosesNothingWhenSized) {
  const std::string path = temp_stream("producers");
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  {
    StreamOptions o;
    o.queue_capacity = kProducers * kPerProducer + 16;  // no overflow
    o.drain_interval_s = 0.001;
    StreamSink sink(path, o);
    std::vector<std::thread> producers;
    std::atomic<bool> go{false};
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&sink, &go, p] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerProducer; ++i) {
          if (i % 2 == 0) {
            sink.add_counter("producer.tick", 1);
          } else {
            sink.add_time(Phase::ObjectiveEval, 0.001 * (p + 1));
          }
        }
      });
    }
    go.store(true);
    for (auto& t : producers) t.join();
    sink.close();
    const StreamStats stats = sink.stats();
    EXPECT_EQ(stats.enqueued, static_cast<std::uint64_t>(kProducers) *
                                  kPerProducer);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.emitted, stats.enqueued);
    // The drainer folded every ObjectiveEval span into the online stats.
    EXPECT_EQ(stats.eval_latency.count(),
              static_cast<std::uint64_t>(kProducers) * (kPerProducer / 2));
  }
  // Seqs in the tail are strictly increasing with no gap (nothing dropped).
  std::uint64_t expect_seq = 0;
  for (const auto& line : read_lines(path)) {
    if (!frame_is(line, "counter") && !frame_is(line, "span")) continue;
    EXPECT_EQ(u64_field(line, "seq"), expect_seq);
    ++expect_seq;
  }
  EXPECT_EQ(expect_seq, static_cast<std::uint64_t>(kProducers) *
                            kPerProducer);
  std::remove(path.c_str());
}

TEST(StreamSink, OnlineStatsTrackTheContractedNames) {
  const std::string path = temp_stream("stats");
  StreamOptions o;
  o.manual_drain = true;
  StreamSink sink(path, o);
  sink.add_time(Phase::ObjectiveEval, 2.0);
  sink.add_time(Phase::ObjectiveEval, 4.0);
  sink.add_time(Phase::ModelFit, 100.0);         // not eval latency
  sink.add_counter("acq.inner_evals", 640);
  sink.add_counter("eval.retries", 3);
  sink.add_counter("bo.hyper_refit", 1);         // not tracked
  sink.drain_now();
  const StreamStats stats = sink.stats();
  EXPECT_EQ(stats.eval_latency.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.eval_latency.total(), 6.0);
  EXPECT_EQ(stats.acq_inner_evals.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.acq_inner_evals.last(), 640.0);
  EXPECT_EQ(stats.eval_retries.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.eval_retries.total(), 3.0);
  const std::string j = sink.stats_json();
  EXPECT_NE(j.find("\"eval_latency\":{\"count\":2"), std::string::npos) << j;
  sink.close();
  std::remove(path.c_str());
}

TEST(StreamSink, RecordingSinkIsFoundThroughTheForwardChain) {
  const std::string path = temp_stream("chain");
  RecordingSink rec;
  StreamSink sink(path, StreamOptions{}, &rec);
  EXPECT_EQ(sink.recording_sink(), &rec);
  StreamSink unforwarded(path + ".2", StreamOptions{});
  EXPECT_EQ(unforwarded.recording_sink(), nullptr);
  sink.close();
  unforwarded.close();
  std::remove(path.c_str());
  std::remove((path + ".2").c_str());
}

// --- determinism: streaming must never shape the run ----------------------

std::vector<double> run_best_trace(obs::TraceSink* sink) {
  circuit::TestFunction tf = circuit::branin();
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::AsyncBatch;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 3;
  cfg.init_points = 6;
  cfg.max_sims = 16;
  cfg.seed = 11;
  cfg.acq_opt.sobol_candidates = 64;
  cfg.acq_opt.random_candidates = 32;
  cfg.acq_opt.refine_evals = 20;
  cfg.trainer.max_iters = 8;
  cfg.trainer.restarts = 1;
  bo::BoEngine engine(cfg, tf.bounds, tf.fn, nullptr);
  if (sink != nullptr) engine.set_trace(sink);
  const bo::BoResult result = engine.run();
  std::vector<double> ys;
  ys.reserve(result.evals.size());
  for (const auto& e : result.evals) ys.push_back(e.y);
  ys.push_back(result.best_y);
  return ys;
}

TEST(StreamSink, SeededRunIsBitIdenticalWithStreamingEnabled) {
  const std::vector<double> null_sink = run_best_trace(nullptr);
  const std::string path = temp_stream("determinism");
  std::vector<double> streamed;
  {
    StreamSink sink(path, StreamOptions{});
    streamed = run_best_trace(&sink);
  }
  ASSERT_EQ(null_sink.size(), streamed.size());
  for (std::size_t i = 0; i < null_sink.size(); ++i) {
    // Bit-identical, not approximately equal: the sink must not perturb
    // one RNG draw or reorder one floating-point operation.
    EXPECT_EQ(null_sink[i], streamed[i]) << "eval " << i;
  }
  const auto lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(frame_is(lines.back(), "bye"));
  EXPECT_EQ(u64_field(lines.back(), "dropped_total"), 0u);
  std::remove(path.c_str());
}

// --- adaptive refit cadence -----------------------------------------------

TEST(AdaptiveRefitGap, AmortizesRefitCostOverEvalCost) {
  // refit 1 s, evals 1 s, budget 10% -> wait 10 observations.
  EXPECT_EQ(bo::adaptive_refit_gap(1.0, 1.0, 0.1, 5), 10u);
  // Cheap refit relative to evals: clamped up to refit_every.
  EXPECT_EQ(bo::adaptive_refit_gap(0.001, 10.0, 0.1, 5), 5u);
  // Expensive refit: stretched, then clamped at 64x refit_every.
  EXPECT_EQ(bo::adaptive_refit_gap(100.0, 0.01, 0.1, 5), 320u);
  // Fractional gaps round up (ceil), never down to over-refit.
  EXPECT_EQ(bo::adaptive_refit_gap(1.05, 1.0, 0.1, 5), 11u);
}

TEST(AdaptiveRefitGap, DegenerateEstimatesHitTheClamps) {
  // No eval cost signal (0 s evals) -> the cap, not a divide-by-zero.
  EXPECT_EQ(bo::adaptive_refit_gap(1.0, 0.0, 0.1, 5), 320u);
  EXPECT_EQ(bo::adaptive_refit_gap(1.0, -1.0, 0.1, 5), 320u);
  // Zero-cost refit -> the floor.
  EXPECT_EQ(bo::adaptive_refit_gap(0.0, 1.0, 0.1, 5), 5u);
  // refit_every 0 still yields a progressing schedule.
  EXPECT_GE(bo::adaptive_refit_gap(1.0, 1.0, 0.1, 0), 1u);
}

TEST(AdaptRefitCadence, OffByDefaultAndAbsentFromTheFingerprint) {
  bo::BoConfig cfg;
  EXPECT_FALSE(cfg.adapt_refit_cadence);
  circuit::TestFunction tf = circuit::branin();
  bo::BoConfig on = cfg;
  on.adapt_refit_cadence = true;
  on.adapt_refit_budget = 0.5;
  // Fingerprint-neutral: flipping the knob must not strand checkpoints.
  EXPECT_EQ(bo::config_fingerprint(cfg, tf.bounds),
            bo::config_fingerprint(on, tf.bounds));
}

TEST(AdaptRefitCadence, BudgetMustBePositive) {
  bo::BoConfig cfg;
  cfg.adapt_refit_budget = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.adapt_refit_budget = -0.1;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(AdaptRefitCadence, StretchesTheScheduleWhenRefitsDominate) {
  // Hand-drive an AskTellCore with the knob on. Observed outcomes carry
  // zero-width [start, finish) windows, so the eval CEMA never gets a
  // sample and the first adaptive refit falls back to n + refit_every;
  // feeding real durations then engages adaptive_refit_gap. Either way
  // the schedule must keep progressing and counting refits.
  circuit::TestFunction tf = circuit::branin();
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::Sequential;
  cfg.acq = bo::AcqKind::Ei;
  cfg.batch = 1;
  cfg.init_points = 4;
  cfg.max_sims = 12;
  cfg.seed = 3;
  cfg.refit_every = 2;
  cfg.adapt_refit_cadence = true;
  cfg.adapt_refit_budget = 0.1;
  cfg.acq_opt.sobol_candidates = 32;
  cfg.acq_opt.random_candidates = 16;
  cfg.acq_opt.refine_evals = 10;
  cfg.trainer.max_iters = 5;
  cfg.trainer.restarts = 1;
  RecordingSink rec;
  bo::AskTellCore core(cfg, tf.bounds);
  core.set_trace(&rec);
  double now = 0.0;
  while (core.num_observations() < cfg.max_sims) {
    const bo::Suggestion s = core.suggest(now);
    bo::Outcome o;
    o.status = sched::EvalStatus::Ok;
    o.value = tf.fn(s.x);
    o.start = now;
    o.finish = now + 1.0;  // 1 virtual second per eval feeds the CEMA
    core.observe(s.tag, o);
    now += 1.0;
  }
  EXPECT_GT(core.hyper_refits(), 0u);
  // Adaptive rescheduling fired at least once after the CEMAs warmed up.
  EXPECT_GT(rec.counter("bo.adapt_refit"), 0u);
  EXPECT_EQ(rec.counter("bo.hyper_refit"), core.hyper_refits());
}

}  // namespace
}  // namespace easybo::obs
