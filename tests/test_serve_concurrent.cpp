// Concurrency tests for the thread-safe SessionHost: parallel clients on
// disjoint sessions reproduce the exact single-threaded proposal streams
// (the tentpole guarantee: different sessions never block each other,
// the same session never interleaves), a single session hammered from
// many threads stays coherent, overload shedding kicks in at the
// in-flight cap while the health probe keeps answering.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/fs_fault.h"
#include "io/json.h"
#include "obs/recording.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "test_temp_dir.h"

namespace easybo::serve {
namespace {

using linalg::Vec;

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_temp_path("easybo_conc_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string quick_config_json(std::uint64_t seed) {
  bo::BoConfig cfg;
  cfg.mode = bo::Mode::Sequential;
  cfg.acq = bo::AcqKind::EasyBo;
  cfg.penalize = true;
  cfg.batch = 1;
  cfg.init_points = 3;
  cfg.max_sims = 6;
  cfg.seed = seed;
  cfg.on_eval_failure = bo::EvalFailurePolicy::Discard;
  cfg.acq_opt.sobol_candidates = 32;
  cfg.acq_opt.random_candidates = 16;
  cfg.acq_opt.refine_evals = 15;
  cfg.trainer.max_iters = 8;
  cfg.trainer.restarts = 1;
  opt::Bounds bounds;
  bounds.lower = {0.0, 0.0};
  bounds.upper = {1.0, 1.0};
  return session_config_json(cfg, bounds);
}

double objective_of(const Vec& x) {
  double s = 0.0;
  for (const double v : x) s += std::sin(3.0 * v) + v * v;
  return s;
}

struct Suggested {
  std::size_t tag = 0;
  Vec x;
};

Suggested parse_suggest_reply(const std::string& reply) {
  EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  const io::JsonValue j = io::parse_json(reply.substr(3));
  Suggested s;
  s.tag = static_cast<std::size_t>(j.at("tag").as_double());
  for (const auto& v : j.at("x").as_array()) s.x.push_back(v.as_double());
  return s;
}

std::vector<Vec> drive_to_exhaustion(SessionHost& host,
                                     const std::string& name) {
  std::vector<Vec> xs;
  for (;;) {
    const std::string reply = host.handle_line("SUGGEST " + name);
    if (reply.rfind("ERR ", 0) == 0) {
      EXPECT_NE(reply.find("budget exhausted"), std::string::npos) << reply;
      break;
    }
    const Suggested s = parse_suggest_reply(reply);
    xs.push_back(s.x);
    const std::string ob = host.handle_line(
        "OBSERVE " + name + " " + std::to_string(s.tag) + " " +
        io::json_number(objective_of(s.x)));
    EXPECT_EQ(ob.rfind("OK ", 0), 0u) << ob;
  }
  return xs;
}

TEST(ServeConcurrent, DisjointSessionsInParallelMatchSerialStreams) {
  // Reference streams, one session at a time on a single-threaded host.
  const int kThreads = 4;
  const int kPerThread = 3;
  std::vector<std::string> names;
  std::vector<std::string> configs;
  std::vector<std::vector<Vec>> expected;
  {
    const std::string dir = fresh_dir("serial_ref");
    SessionHost host(dir, 4);
    for (int i = 0; i < kThreads * kPerThread; ++i) {
      names.push_back("sess" + std::to_string(i));
      configs.push_back(quick_config_json(1000 + i));
      EXPECT_EQ(host.handle_line("NEW " + names[i] + " " + configs[i])
                    .rfind("OK ", 0),
                0u);
      expected.push_back(drive_to_exhaustion(host, names[i]));
      EXPECT_FALSE(expected.back().empty());
    }
  }

  // Same sessions, driven from kThreads threads at once, with max_live
  // far below the session count so eviction/resume churns concurrently.
  const std::string dir = fresh_dir("parallel");
  SessionHost host(dir, 4);
  std::vector<std::vector<std::vector<Vec>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const int i = t * kPerThread + k;
        const std::string created =
            host.handle_line("NEW " + names[i] + " " + configs[i]);
        EXPECT_EQ(created.rfind("OK ", 0), 0u) << created;
        got[t].push_back(drive_to_exhaustion(host, names[i]));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) {
      const int i = t * kPerThread + k;
      SCOPED_TRACE(names[i]);
      ASSERT_EQ(got[t][k].size(), expected[i].size());
      for (std::size_t p = 0; p < expected[i].size(); ++p) {
        EXPECT_EQ(got[t][k][p], expected[i][p]) << "proposal " << p;
      }
    }
  }
  // Eviction skips busy sessions, so the live set may sit above
  // max_live by at most the number of commands that were in flight when
  // the last trim ran — never unboundedly.
  EXPECT_LE(host.live_count(), host.max_live() + kThreads);
  EXPECT_EQ(host.quarantined_count(), 0u);
}

TEST(ServeConcurrent, OneSessionHammeredFromManyThreadsStaysCoherent) {
  const std::string dir = fresh_dir("hammer");
  SessionHost host(dir, 4);
  const std::string config = quick_config_json(55);
  ASSERT_EQ(host.handle_line("NEW h " + config).rfind("OK ", 0), 0u);

  // Each thread races SUGGEST→OBSERVE against the others. The per-slot
  // lock serializes each command; protocol ERRs (budget, nothing
  // pending) are expected — lost updates, interleaved replies, or a
  // wedged host are not.
  std::atomic<int> exhausted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int spin = 0; spin < 300; ++spin) {
        const std::string reply = host.handle_line("SUGGEST h");
        if (reply.rfind("OK ", 0) == 0) {
          const Suggested s = parse_suggest_reply(reply);
          host.handle_line("OBSERVE h " + std::to_string(s.tag) + " " +
                           io::json_number(objective_of(s.x)));
          continue;
        }
        if (reply.find("budget exhausted") != std::string::npos) {
          exhausted.fetch_add(1);
          return;
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(exhausted.load(), 0);

  const std::string status = host.handle_line("STATUS h");
  ASSERT_EQ(status.rfind("OK ", 0), 0u) << status;
  const io::JsonValue j = io::parse_json(status.substr(3));
  EXPECT_EQ(j.at("observed").as_double(), 6.0) << status;
  // And the files round-trip: a fresh host sees the same terminal state.
  SessionHost reopened(dir, 4);
  const std::string status2 = reopened.handle_line("STATUS h");
  ASSERT_EQ(status2.rfind("OK ", 0), 0u);
  EXPECT_EQ(io::parse_json(status2.substr(3)).at("observed").as_double(),
            6.0);
}

TEST(ServeConcurrent, InflightCapShedsWhileHealthProbeStillAnswers) {
  const std::string dir = fresh_dir("shed");
  HostLimits limits;
  limits.max_inflight = 1;
  SessionHost host(dir, 4, limits);
  const std::string config = quick_config_json(77);
  ASSERT_EQ(host.handle_line("NEW slow " + config).rfind("OK ", 0), 0u);

  // Stall every storage operation so the worker thread's SUGGEST dwells
  // inside the host long enough for the main thread to collide with it
  // deterministically (the injector's stall channel, not sleeps in the
  // test, controls the overlap).
  io::FsFaultPlan plan;
  plan.stall_every = 1;
  plan.stall_seconds = 0.15;
  io::ScopedFsFaults faults(plan);

  std::string worker_reply;
  std::thread worker([&] {
    worker_reply = host.handle_line("SUGGEST slow");
  });
  // Wait until the worker's request is inside handle_line.
  for (int spin = 0; spin < 2000; ++spin) {
    const std::string health = host.handle_line("STATUS");
    ASSERT_EQ(health.rfind("OK ", 0), 0u);
    if (health.find("\"inflight\":1") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string shed = host.handle_line("SUGGEST slow");
  EXPECT_EQ(shed.rfind("ERR busy", 0), 0u) << shed;
  EXPECT_GE(host.shed_count(), 1u);
  // The health probe is exempt from shedding even at the cap.
  EXPECT_EQ(host.handle_line("STATUS").rfind("OK ", 0), 0u);
  worker.join();
  EXPECT_EQ(worker_reply.rfind("OK ", 0), 0u) << worker_reply;

  // Shed requests left no mark on the session: the stream continues.
  const std::string status = host.handle_line("STATUS slow");
  EXPECT_EQ(status.rfind("OK ", 0), 0u);
}

TEST(ServeConcurrent, CountersMirrorToTheTraceSink) {
  const std::string dir = fresh_dir("trace");
  HostLimits limits;
  limits.max_inflight = 1;
  SessionHost host(dir, 4, limits);
  obs::RecordingSink sink;
  host.set_trace(&sink);
  const std::string config = quick_config_json(88);
  ASSERT_EQ(host.handle_line("NEW t " + config).rfind("OK ", 0), 0u);
  const Suggested s = parse_suggest_reply(host.handle_line("SUGGEST t"));
  {
    io::FsFaultPlan plan;
    plan.eio_every = 1;
    plan.max_faults = 1;
    io::ScopedFsFaults faults(plan);
    const std::string reply =
        host.handle_line("OBSERVE t " + std::to_string(s.tag) + " 1.0");
    EXPECT_EQ(reply.rfind("ERR storage", 0), 0u) << reply;
  }
  EXPECT_EQ(sink.counter("serve.quarantined"), 1u);
  EXPECT_GE(sink.counter("serve.io_faults"), 1u);
  host.set_trace(nullptr);
}

}  // namespace
}  // namespace easybo::serve
