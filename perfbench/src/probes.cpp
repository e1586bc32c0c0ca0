/// \file probes.cpp
/// \brief Per-layer probes: public functions of each layer timed on
/// seeded states at fixed n. The same procedure runs in every traced
/// run, whatever the workload.
///
/// Data for the linalg/gp/acq probes is the op-amp problem (d=10) in the
/// unit cube, z-scored, under a fixed SE-ARD kernel. Session states for
/// the io/serve probes are built with a standalone AskTellCore and
/// written through its own snapshot path, so a host resumes them exactly
/// as it would resume an evicted session.

#include <cmath>
#include <filesystem>
#include <memory>

#include "acq/acq_optimizer.h"
#include "acq/acquisition.h"
#include "bo/ask_tell.h"
#include "bo/checkpoint.h"
#include "circuit/opamp.h"
#include "circuit/testfunc.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/trainer.h"
#include "io/journal.h"
#include "io/json.h"
#include "linalg/cholesky.h"
#include "serve/host.h"
#include "serve/session.h"
#include "serve/session_config.h"
#include "serve/tcp_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using easybo::Rng;
using easybo::linalg::Vec;
namespace acq = easybo::acq;
namespace bo = easybo::bo;
namespace gp = easybo::gp;
namespace io = easybo::io;
namespace linalg = easybo::linalg;
namespace serve = easybo::serve;

constexpr std::size_t kDim = 10;

/// Seeded op-amp data: n points in the unit cube and their z-scored FOM.
struct Data {
  std::vector<Vec> xs;
  Vec ys;
};

Data opamp_data(std::size_t n, std::uint64_t seed) {
  const auto bounds = easybo::circuit::opamp_bounds();
  const gp::BoxNormalizer box(bounds.lower, bounds.upper);
  Rng rng(seed);
  Data d;
  for (std::size_t i = 0; i < n; ++i) {
    d.xs.push_back(rng.uniform_vector(kDim));
    d.ys.push_back(easybo::circuit::opamp_fom(box.from_unit(d.xs.back())));
  }
  gp::ZScore z;
  z.refit(d.ys);
  d.ys = z.transform(d.ys);
  return d;
}

gp::GpRegressor fitted_gp(const Data& d) {
  gp::GpRegressor g(
      std::make_unique<gp::SquaredExponentialArd>(1.0, Vec(kDim, 0.4)), 1e-4);
  g.set_data(d.xs, d.ys);
  g.fit();
  return g;
}

/// Median milliseconds of \p times calls of \p fn.
template <typename F>
double median_ms(int times, F&& fn) {
  return median_seconds(times, [&](int) { fn(); }) * 1e3;
}

void probe_circuit(std::uint64_t seed, Report& report) {
  const auto bounds = easybo::circuit::opamp_bounds();
  const gp::BoxNormalizer box(bounds.lower, bounds.upper);
  Rng rng(seed);
  std::vector<Vec> xs;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(box.from_unit(rng.uniform_vector(kDim)));
  }
  double sink = 0.0;
  const double ms = median_ms(5, [&] {
    for (const Vec& x : xs) sink += easybo::circuit::opamp_fom(x);
  });
  report.check(std::isfinite(sink), "op-amp FOM finite on the probe points");
  report.metric("circuit.opamp_eval_us", ms * 1e3 / 2000.0, "us");
}

void probe_linalg(std::uint64_t seed, Report& report) {
  for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
    const Data d = opamp_data(n, seed + n);
    const gp::SquaredExponentialArd k(1.0, Vec(kDim, 0.4));
    linalg::Matrix gram = k.gram(d.xs);
    gram.add_diagonal(1e-4);
    std::unique_ptr<linalg::Cholesky> chol;
    const double ms = median_ms(n == 300 ? 5 : 3, [&] {
      chol = std::make_unique<linalg::Cholesky>(gram);
    });
    report.metric("linalg.cholesky_ms.n" + std::to_string(n), ms, "ms");
    if (n == 1000) {
      // n^3/3 flops: the multiply-adds of an unblocked Cholesky.
      const double flops = std::pow(static_cast<double>(n), 3) / 3.0;
      report.metric("linalg.cholesky_gflops.n1000", flops / (ms * 1e-3) / 1e9,
                    "GFLOP/s");
      Vec sol;
      const double solve_ms =
          median_ms(21, [&] { sol = chol->solve_lower(d.ys); });
      report.check(std::isfinite(sol.back()), "triangular solve finite");
      report.metric("linalg.solve_lower_us.n1000", solve_ms * 1e3, "us");
    }
  }
}

void probe_gp(std::uint64_t seed, Report& report) {
  Rng rng(seed);
  std::vector<Vec> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(rng.uniform_vector(kDim));
  for (const std::size_t n :
       {std::size_t{50}, std::size_t{300}, std::size_t{1000}}) {
    const Data d = opamp_data(n, seed + n);
    gp::GpRegressor g = fitted_gp(d);
    double acc = 0.0;
    const double ms = median_ms(5, [&] {
      for (const Vec& q : queries) acc += g.predict(q).var;
    });
    report.check(std::isfinite(acc), "GP predictions finite");
    report.metric("gp.predict_us.n" + std::to_string(n),
                  ms * 1e3 / static_cast<double>(queries.size()), "us");
    if (n == 50) continue;
    // A fresh model each time: a refit of unchanged data is cached.
    report.metric("gp.fit_ms.n" + std::to_string(n),
                  median_ms(n == 300 ? 5 : 3, [&] { g = fitted_gp(d); }),
                  "ms");
    if (n != 300) continue;
    const std::vector<Vec> pending(queries.begin(), queries.begin() + 9);
    std::unique_ptr<gp::Regressor> hal;
    report.metric("gp.hallucinate_us.n300.k9",
                  median_ms(21, [&] { hal = g.hallucinate(pending, false); }) *
                      1e3,
                  "us");
    Vec grad;
    report.metric("gp.lml_gradient_ms.n300",
                  median_ms(5, [&] { grad = g.lml_gradient(); }), "ms");
    report.check(std::isfinite(grad.front()), "LML gradient finite");
    Rng train_rng(seed ^ 0x7u);
    const double train_ms = median_ms(1, [&] {
      gp::train_mle(g, train_rng, bo::BoConfig{}.trainer);
    });
    report.metric("gp.train_mle_ms.n300", train_ms, "ms");
  }
}

void probe_acq(std::uint64_t seed, Report& report) {
  double per_eval_us = 0.0;
  for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
    const Data d = opamp_data(n, seed + n);
    const gp::GpRegressor g = fitted_gp(d);
    const acq::WeightedUcb fn(&g, &g, 0.5);
    std::size_t evals = 0;
    Rng rng(seed ^ n);
    const double ms = median_ms(n == 300 ? 3 : 1, [&] {
      const auto r = acq::maximize_acquisition(fn, kDim, rng, {d.xs.front()},
                                               bo::BoConfig{}.acq_opt);
      evals = r.num_evals;
    });
    report.metric("acq.maximize_ms.n" + std::to_string(n), ms, "ms");
    if (n == 300) {
      report.metric("acq.evals_per_call", static_cast<double>(evals),
                    "count");
      per_eval_us = ms * 1e3 / static_cast<double>(evals);
    }
  }
  report.metric("acq.us_per_eval.n300", per_eval_us, "us");
}

/// A session of \p config grown by \p n strict suggest/observe turns in a
/// standalone core, then written where a host resumes it.
struct SeededSession {
  std::string name;
  std::string base;
  std::string config;
  std::unique_ptr<bo::AskTellCore> core;
};

SeededSession seed_session(const std::string& dir, const std::string& name,
                           const std::string& config, std::size_t n) {
  const auto& f = client_objective();
  SeededSession s;
  s.name = name;
  s.base = dir + "/" + name;
  s.config = config;
  const serve::SessionSpec spec = serve::parse_session_config(config);
  s.core = std::make_unique<bo::AskTellCore>(spec.config, spec.bounds);
  for (std::size_t i = 0; i < n; ++i) {
    const bo::Suggestion sg = s.core->suggest(static_cast<double>(i));
    bo::Outcome o;
    o.value = f.fn(sg.x);
    o.start = static_cast<double>(i);
    o.finish = static_cast<double>(i + 1);
    s.core->observe(sg.tag, o);
  }
  s.core->set_checkpoint_path(s.base);
  s.core->start_fresh_journal();
  s.core->write_snapshot(static_cast<double>(n), 0.0, Rng(1).save());
  io::atomic_write_file(dir + "/" + name + ".config", config);
  return s;
}

void probe_io_and_serve(const Args& args, const RunDir& dir, Report& report) {
  const auto& f = client_objective();
  for (const std::size_t n :
       {std::size_t{50}, std::size_t{300}, std::size_t{1000}}) {
    // Turns cost O(n); fewer samples at n=1000 keep the probe short.
    const std::size_t turns = n == 1000 ? 11 : 21;
    const std::string sub = dir.fresh_subdir("probe-n" + std::to_string(n));
    SeededSession s =
        seed_session(sub, "p" + std::to_string(n),
                     init_only_session_config(derive_seed(args.seed, 50, n),
                                           n + turns + 2),
                     n);
    const std::string spath = bo::snapshot_file(s.base);
    report.metric("io.snapshot_bytes.n" + std::to_string(n),
                  static_cast<double>(std::filesystem::file_size(spath)),
                  "bytes");
    if (n == 1000) {
      std::string payload;
      report.metric("io.snapshot_serialize_ms.n1000", median_ms(5, [&] {
                      payload = s.core->make_snapshot(1000.0, 0.0,
                                                      Rng(1).save())
                                    .to_payload();
                    }),
                    "ms");
      const std::string framed = io::frame_line(payload);
      const std::string wpath = sub + "/write-probe";
      report.metric("io.atomic_write_ms.n1000", median_ms(5, [&] {
                      io::atomic_write_file(wpath, framed);
                    }),
                    "ms");
      std::size_t parsed_obs = 0;
      report.metric("io.snapshot_parse_ms.n1000", median_ms(5, [&] {
                      const auto jr = io::read_journal(spath);
                      parsed_obs = bo::BoCheckpoint::parse(jr.payloads.at(0))
                                       .obs_x.size();
                    }),
                    "ms");
      report.check(parsed_obs == 1000, "snapshot parses back to n=1000");

      // A 1000-record journal, appended record by record (each fsync'd).
      const std::string jpath = sub + "/journal-probe";
      std::vector<double> append_us;
      {
        io::JournalWriter w;
        w.open(jpath, 0);
        bo::JournalHeader h;
        h.seed = args.seed;
        w.append(h.to_payload());
        for (std::size_t k = 0; k < 1000; ++k) {
          bo::JournalRecord r;
          r.index = k;
          r.tag = k;
          r.status = "ok";
          r.action = "observed";
          r.x = s.core->proposal(k);
          r.y = s.core->evals()[k].y;
          const std::string p = r.to_payload();
          const auto t0 = Clock::now();
          w.append(p);
          append_us.push_back(seconds_since(t0) * 1e6);
        }
      }
      report.metric("io.journal_append_us", median(append_us), "us");
      std::size_t records = 0;
      report.metric("io.read_journal_ms.n1000", median_ms(5, [&] {
                      const auto jr = io::read_journal(jpath);
                      records = 0;
                      for (std::size_t i = 1; i < jr.payloads.size(); ++i) {
                        const auto r = bo::JournalRecord::parse(jr.payloads[i]);
                        records += r.tag == i - 1;
                      }
                    }),
                    "ms");
      report.check(records == 1000, "journal reads back 1000 records");
    }
    s.core.reset();

    // Turns over loopback on the seeded session: the first one resumes
    // it and is not timed.
    serve::SessionHost host(sub, 2);
    serve::TcpServer server(host, serve::TcpOptions{});
    server.start();
    std::vector<double> turn_ms;
    std::size_t bad = 0;
    {
      LineClient client(server.port());
      for (std::size_t t = 0; t <= turns; ++t) {
        const auto t0 = Clock::now();
        const std::string sr = client.request("SUGGEST " + s.name);
        const double sms = ms_since(t0);
        if (sr.rfind("OK ", 0) != 0) {
          ++bad;
          break;
        }
        const auto j = io::parse_json(sr.substr(3));
        Vec x;
        for (const auto& v : j.at("x").as_array()) x.push_back(v.as_double());
        const std::string line =
            "OBSERVE " + s.name + " " +
            std::to_string(static_cast<std::size_t>(j.at("tag").as_double())) +
            " " + io::json_number(f.fn(x));
        const auto t1 = Clock::now();
        const std::string orep = client.request(line);
        const double oms = ms_since(t1);
        if (orep.rfind("OK ", 0) != 0) {
          ++bad;
          break;
        }
        if (t > 0) turn_ms.push_back(sms + oms);
      }
      if (n == 50) {
        std::vector<double> rtt;
        for (int i = 0; i < 200; ++i) {
          const auto t0 = Clock::now();
          bad += client.request("STATUS").rfind("OK ", 0) != 0;
          rtt.push_back(ms_since(t0));
        }
        report.metric("serve.transport_ms_mean", mean(rtt), "ms");
      }
    }
    server.stop();
    report.check(bad == 0, "probe session at n=" + std::to_string(n) +
                               " resumed and served OK");
    report.percentile_metric("serve.turn_ms_p50.n" + std::to_string(n),
                             turn_ms, 0.5, "ms");
  }

  // Resume of an evicted BO session at n=150 (snapshot parse, journal
  // read, model rebuild), straight through Session::resume.
  const std::string sub = dir.fresh_subdir("probe-resume");
  SeededSession s = seed_session(
      sub, "r150", churn_session_config(derive_seed(args.seed, 51), 160), 150);
  s.core.reset();
  std::size_t restored = 0;
  const double ms = median_ms(5, [&] {
    auto session = serve::Session::resume(
        s.name, serve::parse_session_config(s.config), s.base);
    restored = session->core().num_observations();
  });
  report.check(restored == 150, "resumed session holds n=150");
  report.metric("serve.resume_ms.n150", ms, "ms");
}

}  // namespace

void run_probes(const Args& args, const RunDir& dir, Report& report) {
  const auto t0 = Clock::now();
  probe_circuit(derive_seed(args.seed, 40), report);
  probe_linalg(derive_seed(args.seed, 41), report);
  probe_gp(derive_seed(args.seed, 42), report);
  probe_acq(derive_seed(args.seed, 43), report);
  probe_io_and_serve(args, dir, report);
  report.info("probes took " + std::to_string(seconds_since(t0)) + " s");
}

}  // namespace perfbench
