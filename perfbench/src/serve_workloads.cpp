/// \file serve_workloads.cpp
/// \brief Workload serve_churn: closed-loop clients driving an
/// in-process SessionHost through TcpServer over loopback, checked
/// afterwards against standalone AskTellCore replays; and the small
/// pooled serve probe the other workload's traced run uses.
///
/// A unit is one client's fixed batch of fresh sessions, each driven
/// from n=0 through a fixed number of suggest/observe turns (round-robin
/// when the batch holds several sessions) and then CLOSEd. A client's
/// first unit always completes; later units stop at the time limit and
/// their sessions' streams are still checked, as prefixes. Throughput
/// and latency count whole units only, so a faster program runs more
/// units of the same size, never larger archives.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "bo/ask_tell.h"
#include "bo/checkpoint.h"
#include "circuit/testfunc.h"
#include "io/journal.h"
#include "io/json.h"
#include "obs/recording.h"
#include "serve/host.h"
#include "serve/session_config.h"
#include "serve/tcp_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using easybo::linalg::Vec;
namespace bo = easybo::bo;
namespace io = easybo::io;
namespace obs = easybo::obs;
namespace serve = easybo::serve;

constexpr std::size_t kDim = 10;

/// serve_churn: 2 clients x 16 sessions through max_live 8 and a 2-worker
/// pool; every turn after the first sweep resumes an evicted session.
/// One client per worker: a turn's latency is its own service time, not a
/// wait behind another client's turn, which on a shared host amplified
/// run-to-run drift of turn_ms_p50.
constexpr std::size_t kChurnClients = 2;
constexpr std::size_t kChurnSessions = 16;
constexpr std::size_t kChurnTurns = 40;
constexpr std::size_t kChurnMaxLive = 8;
constexpr std::size_t kChurnWorkers = 2;
/// The turn whose OBSERVE the "observation" plant perturbs.
constexpr std::size_t kPlantTurn = 23;

/// What one load (a host, its clients and their units) is made of.
struct LoadSpec {
  std::string prefix;  ///< session name prefix
  std::size_t clients = 1;
  std::size_t sessions_per_unit = 1;
  std::size_t turns = 1;  ///< per session per unit
  std::size_t max_live = 8;
  std::size_t workers = 0;
  std::size_t max_units = 1000000;  ///< per client
  std::function<std::string(std::uint64_t, std::size_t)> config;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< 0 = no time limit (max_units only)
  bool plant = false;    ///< perturb one observation of client 0
  bool count_resumes = false;
  /// Install this sink on the host from mid-window on (traced runs).
  obs::RecordingSink* midway_sink = nullptr;
};

/// One session as the client saw it.
struct SessionRun {
  std::string name;
  std::string config;
  std::vector<std::size_t> tags;
  std::vector<Vec> xs;
};

struct UnitRun {
  double start_s = 0.0;  ///< since the window opened
  double end_s = 0.0;
  bool whole = false;
  std::size_t turns = 0;
  std::vector<double> suggest_ms, observe_ms, turn_ms;
};

struct ClientRun {
  std::vector<UnitRun> units;
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::size_t resumes = 0;
  std::vector<std::string> errors;
};

/// A running host + transport in a fresh state directory.
struct Server {
  Server(std::string dir, std::size_t max_live, std::size_t workers)
      : state_dir(std::move(dir)) {
    serve::HostLimits limits;
    limits.serve_workers = workers;
    // No deadlines and no queue-wait shedding: a load run, not a cut run.
    limits.request_deadline_s = 0.0;
    limits.queue_wait_s = 0.0;
    host = std::make_unique<serve::SessionHost>(state_dir, max_live, limits);
    server = std::make_unique<serve::TcpServer>(*host, serve::TcpOptions{});
    server->start();
  }
  ~Server() { server->stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::string state_dir;
  std::unique_ptr<serve::SessionHost> host;
  std::unique_ptr<serve::TcpServer> server;
};

bool ok_reply(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

/// All clients, run concurrently until every one has finished its units
/// or hit the time limit.
struct Load {
  std::vector<ClientRun> clients;
  std::vector<std::vector<SessionRun>> sessions;  ///< per client
  double window_s = 0.0;
  std::string health;  ///< STATUS health plane at the end of the window
};

Load run_load(const LoadSpec& spec, Server& srv) {
  Load load;
  load.clients.resize(spec.clients);
  load.sessions.resize(spec.clients);
  const auto start = Clock::now();
  const double half = spec.seconds / 2.0;

  auto client_main = [&](std::size_t c) {
    ClientRun& cr = load.clients[c];
    std::vector<SessionRun>& sessions = load.sessions[c];
    LineClient client(srv.server->port());
    auto request = [&](const std::string& line) {
      ++cr.requests;
      std::string reply = client.request(line);
      if (!ok_reply(reply)) {
        ++cr.failed;
        cr.errors.push_back(line.substr(0, 40) + " -> " + reply);
      }
      return reply;
    };
    // Only a client's first unit is exempt from the time limit.
    auto past_limit = [&](std::size_t u) {
      return u > 0 && spec.seconds > 0 && seconds_since(start) >= spec.seconds;
    };
    for (std::size_t u = 0; u < spec.max_units; ++u) {
      if (past_limit(u)) break;
      const double now_s = seconds_since(start);
      // set_trace is an atomic store: every client may install the sink.
      if (spec.midway_sink != nullptr && now_s >= half) {
        srv.host->set_trace(spec.midway_sink);
      }
      UnitRun unit;
      unit.start_s = now_s;
      const std::size_t first = sessions.size();
      for (std::size_t j = 0; j < spec.sessions_per_unit; ++j) {
        SessionRun s;
        s.name = spec.prefix + std::to_string(c) + "u" + std::to_string(u) +
                 "s" + std::to_string(j);
        s.config = spec.config(
            derive_seed(spec.seed, 100 + c, u * spec.sessions_per_unit + j),
            spec.turns);
        if (!ok_reply(request("NEW " + s.name + " " + s.config))) return;
        sessions.push_back(std::move(s));
      }
      bool cut = false;
      for (std::size_t t = 0; t < spec.turns && !cut; ++t) {
        for (std::size_t j = 0; j < spec.sessions_per_unit; ++j) {
          if (past_limit(u)) {
            cut = true;
            break;
          }
          SessionRun& s = sessions[first + j];
          if (spec.count_resumes && !srv.host->is_live(s.name)) ++cr.resumes;
          auto t0 = Clock::now();
          const std::string sr = request("SUGGEST " + s.name);
          const double suggest_ms = ms_since(t0);
          if (!ok_reply(sr)) return;
          const io::JsonValue j_sr = io::parse_json(sr.substr(3));
          const auto tag =
              static_cast<std::size_t>(j_sr.at("tag").as_double());
          Vec x;
          for (const auto& v : j_sr.at("x").as_array()) {
            x.push_back(v.as_double());
          }
          double y = client_objective().fn(x);
          if (spec.plant && c == 0 && u == 0 && j == 0 && t == kPlantTurn) {
            y += 1e-3;
          }
          t0 = Clock::now();
          const std::string orep = request("OBSERVE " + s.name + " " +
                                           std::to_string(tag) + " " +
                                           io::json_number(y));
          const double observe_ms = ms_since(t0);
          if (!ok_reply(orep)) return;
          s.tags.push_back(tag);
          s.xs.push_back(std::move(x));
          unit.suggest_ms.push_back(suggest_ms);
          unit.observe_ms.push_back(observe_ms);
          unit.turn_ms.push_back(suggest_ms + observe_ms);
          ++unit.turns;
        }
      }
      for (std::size_t j = 0; j < spec.sessions_per_unit; ++j) {
        if (!ok_reply(request("CLOSE " + sessions[first + j].name))) return;
      }
      unit.end_s = seconds_since(start);
      unit.whole = !cut;
      cr.units.push_back(std::move(unit));
      if (cut) break;
    }
  };

  std::vector<std::thread> threads;
  std::vector<std::string> thread_errors(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_main(c);
      } catch (const std::exception& e) {
        thread_errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  load.window_s = seconds_since(start);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    if (!thread_errors[c].empty()) {
      ++load.clients[c].failed;
      load.clients[c].errors.push_back("client: " + thread_errors[c]);
    }
  }
  load.health = srv.host->handle_line("STATUS");
  srv.host->set_trace(nullptr);
  return load;
}

/// Whole-unit aggregates of a load.
struct Aggregate {
  std::size_t whole_units = 0;
  std::size_t units = 0;
  double evals_per_s = 0.0;
  std::vector<double> suggest_ms, observe_ms, turn_ms;
  std::vector<double> traced_unit_s, untraced_unit_s;
  std::size_t requests = 0, failed = 0, resumes = 0;
};

Aggregate aggregate(const Load& load, double half_s) {
  Aggregate a;
  for (const ClientRun& cr : load.clients) {
    a.requests += cr.requests;
    a.failed += cr.failed;
    a.resumes += cr.resumes;
    std::size_t turns = 0;
    double span_s = 0.0;
    for (const UnitRun& u : cr.units) {
      ++a.units;
      if (!u.whole) continue;
      ++a.whole_units;
      turns += u.turns;
      span_s += u.end_s - u.start_s;
      a.suggest_ms.insert(a.suggest_ms.end(), u.suggest_ms.begin(),
                          u.suggest_ms.end());
      a.observe_ms.insert(a.observe_ms.end(), u.observe_ms.begin(),
                          u.observe_ms.end());
      a.turn_ms.insert(a.turn_ms.end(), u.turn_ms.begin(), u.turn_ms.end());
      if (u.start_s >= half_s) {
        a.traced_unit_s.push_back(u.end_s - u.start_s);
      } else if (u.end_s < half_s) {
        a.untraced_unit_s.push_back(u.end_s - u.start_s);
      }
    }
    if (span_s > 0) a.evals_per_s += static_cast<double>(turns) / span_s;
  }
  return a;
}

/// The oracle: each session's stream against a standalone AskTellCore
/// built from the same wire-round-tripped config, in strict alternation,
/// for as many turns as the session got; then its durable journal
/// against the same replay. Runs on up to 4 threads.
void check_sessions(const Load& load, std::size_t turns,
                    const std::string& state_dir, Report& report,
                    std::vector<double>* suggest_ms,
                    std::vector<double>* observe_ms, StreamDigest* digest) {
  std::vector<const SessionRun*> all;
  for (const auto& per_client : load.sessions) {
    for (const auto& s : per_client) all.push_back(&s);
  }
  std::vector<std::string> verdicts(all.size());
  std::vector<std::vector<double>> sugg(all.size()), obsv(all.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < all.size(); i = next++) {
      const SessionRun& s = *all[i];
      try {
        const serve::SessionSpec spec = serve::parse_session_config(s.config);
        bo::AskTellCore core(spec.config, spec.bounds);
        std::vector<Vec> unit_x;
        std::vector<double> ys;
        for (std::size_t k = 0; k < s.xs.size(); ++k) {
          auto t0 = Clock::now();
          const bo::Suggestion sg = core.suggest();
          sugg[i].push_back(ms_since(t0));
          if (sg.tag != s.tags[k] || sg.x != s.xs[k]) {
            verdicts[i] = "proposal " + std::to_string(k) +
                          " differs from the standalone replay";
            break;
          }
          bo::Outcome o;
          o.value = client_objective().fn(sg.x);
          t0 = Clock::now();
          core.observe(sg.tag, o);
          obsv[i].push_back(ms_since(t0));
          unit_x.push_back(sg.unit_x);
          ys.push_back(o.value);
        }
        if (!verdicts[i].empty()) continue;
        const auto jr = io::read_journal(
            bo::journal_file(state_dir + "/" + s.name));
        if (jr.payloads.size() != s.xs.size() + 1) {
          verdicts[i] = "journal holds " +
                        std::to_string(jr.payloads.size() - 1) +
                        " records for " + std::to_string(s.xs.size()) +
                        " turns";
          continue;
        }
        for (std::size_t k = 0; k < s.xs.size(); ++k) {
          const auto rec = bo::JournalRecord::parse(jr.payloads[k + 1]);
          if (rec.tag != s.tags[k] || rec.x != unit_x[k] || rec.y != ys[k] ||
              rec.status != "ok") {
            verdicts[i] = "journal record " + std::to_string(k) +
                          " differs from the standalone replay";
            break;
          }
        }
      } catch (const std::exception& e) {
        verdicts[i] = std::string("replay failed: ") + e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  const std::size_t n_threads = std::min<std::size_t>(4, all.size());
  for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  std::size_t bad = 0, prefixes = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    prefixes += all[i]->xs.size() < turns;
    if (!verdicts[i].empty()) {
      ++bad;
      if (bad <= 5) {
        report.info("session " + all[i]->name + ": " + verdicts[i]);
      }
    }
    if (suggest_ms != nullptr) {
      suggest_ms->insert(suggest_ms->end(), sugg[i].begin(), sugg[i].end());
    }
    if (observe_ms != nullptr) {
      observe_ms->insert(observe_ms->end(), obsv[i].begin(), obsv[i].end());
    }
  }
  report.check(bad == 0, std::to_string(bad) + " of " +
                             std::to_string(all.size()) +
                             " session streams or journals differ from "
                             "their standalone AskTellCore replay");
  report.phase("replay sessions", all.size(), bad);
  report.info("replayed " + std::to_string(all.size()) + " sessions, " +
              std::to_string(prefixes) + " compared as prefixes");
  if (digest != nullptr && !load.sessions.empty() &&
      !load.sessions.front().empty()) {
    for (const Vec& x : load.sessions.front().front().xs) {
      for (const double v : x) digest->add(v);
    }
  }
}

void check_host(const Server& srv, const Load& load, Report& report) {
  const auto& h = *srv.host;
  report.check(h.deadline_cut_count() == 0 && h.queue_shed_count() == 0 &&
                   h.watchdog_trip_count() == 0 &&
                   h.quarantined_count() == 0 && h.shed_count() == 0 &&
                   h.io_fault_count() == 0,
               "host deadline_cut, queue_shed, watchdog_trip, quarantined, "
               "shed and io_fault counters all read 0");
  std::size_t failed = 0;
  for (const auto& cr : load.clients) {
    failed += cr.failed;
    for (std::size_t i = 0; i < cr.errors.size() && i < 3; ++i) {
      report.info("error: " + cr.errors[i]);
    }
  }
  report.check(failed == 0, "every reply is OK");
}

double health_ms(const std::string& health, const char* stat,
                 const char* field) {
  if (health.rfind("OK ", 0) != 0) return 0.0;
  const io::JsonValue j = io::parse_json(health.substr(3));
  const io::JsonValue* s = j.find(stat);
  return s == nullptr ? 0.0 : s->at(field).as_double() * 1e3;
}

/// Builds a server in a fresh state directory, touches the served path
/// with one short session, and warms the model path in-process with the
/// workload's config (fixed seeds): the set-up a run pays before its
/// window opens. Mostly CPU, so its time repeats across runs.
std::unique_ptr<Server> set_up(const RunDir& dir, const std::string& name,
                               const LoadSpec& spec, Report& report) {
  constexpr std::uint64_t kWarmSeed = 0x5e7u;
  auto srv = std::make_unique<Server>(dir.fresh_subdir(name), spec.max_live,
                                      spec.workers);
  LoadSpec warm = spec;
  warm.prefix = "warm";
  warm.seed = kWarmSeed;
  warm.clients = 1;
  warm.sessions_per_unit = 1;
  warm.turns = 3;  // of a session configured like the workload's
  warm.config = [&spec](std::uint64_t seed, std::size_t) {
    return spec.config(seed, spec.turns);
  };
  warm.max_units = 1;
  warm.seconds = 0.0;
  warm.plant = false;
  warm.count_resumes = false;
  warm.midway_sink = nullptr;
  const Load l = run_load(warm, *srv);
  report.check(l.clients.front().failed == 0, "warm-up replies are OK");
  for (std::size_t k = 0; k < spec.clients; ++k) {
    const serve::SessionSpec s =
        serve::parse_session_config(spec.config(derive_seed(kWarmSeed, k),
                                                spec.turns));
    bo::AskTellCore core(s.config, s.bounds);
    for (std::size_t t = 0; t < spec.turns; ++t) {
      const bo::Suggestion sg = core.suggest();
      bo::Outcome o;
      o.value = client_objective().fn(sg.x);
      core.observe(sg.tag, o);
    }
  }
  return srv;
}

}  // namespace

void run_serve_churn(const Args& args, const RunDir& dir, Report& report) {
  const std::string name = "serve_churn";
  LoadSpec spec;
  spec.prefix = "chu";
  spec.clients = kChurnClients;
  spec.sessions_per_unit = kChurnSessions;
  spec.turns = kChurnTurns;
  spec.max_live = kChurnMaxLive;
  spec.workers = kChurnWorkers;
  spec.config = churn_session_config;
  spec.seed = args.seed;
  spec.seconds = args.seconds;
  spec.plant = args.plant == "observation";
  spec.count_resumes = args.trace;
  obs::RecordingSink sink;
  if (args.trace) spec.midway_sink = &sink;

  std::unique_ptr<Server> srv;
  int attempt = 0;
  const double setup_s = median_seconds(3, [&](int) {
    srv.reset();
    srv = set_up(dir, name + "-" + std::to_string(attempt++), spec, report);
  });

  const Load load = run_load(spec, *srv);
  const double rss = peak_rss_mb();
  const Aggregate a = aggregate(load, args.trace ? args.seconds / 2.0 : 1e300);
  check_host(*srv, load, report);
  const std::string state_dir = srv->state_dir;
  srv.reset();  // stop the transport and the pool before replaying

  report.phase(name + " requests", a.requests, a.failed);
  report.info(name + ": " + std::to_string(a.whole_units) +
              " whole units of " + std::to_string(a.units) + " started, " +
              std::to_string(load.clients.size()) + " clients, window " +
              std::to_string(load.window_s) + " s");
  for (std::size_t c = 0; c < load.clients.size(); ++c) {
    std::string line = "client " + std::to_string(c) + " unit seconds:";
    for (const UnitRun& u : load.clients[c].units) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.3f%s", u.end_s - u.start_s,
                    u.whole ? "" : "(cut)");
      line += buf;
    }
    report.info(line);
  }
  report.check(a.whole_units >= load.clients.size(),
               "every client completed at least one whole unit");
  std::vector<double> replay_suggest, replay_observe;
  StreamDigest digest;
  check_sessions(load, spec.turns, state_dir, report, &replay_suggest,
                 &replay_observe, &digest);
  report.info(std::string("digest ") + name +
              " first-session proposal stream " + digest.hex());

  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("success_rate",
                  a.requests == 0 ? 0.0
                                  : static_cast<double>(a.requests - a.failed) /
                                        static_cast<double>(a.requests),
                  "ratio");
    report.metric("evals_per_s", a.evals_per_s, "1/s");
    report.percentile_metric("turn_ms_p50", a.turn_ms, 0.5, "ms");
    return;
  }
  // The p99 turn does not repeat within a tenth across runs, so it is a
  // per-layer diagnostic rather than an end-to-end metric.
  report.percentile_metric("serve.turn_ms_p99", a.turn_ms, 0.99, "ms");
  report.percentile_metric("serve.suggest_ms_p50", a.suggest_ms, 0.5, "ms");
  report.percentile_metric("serve.suggest_ms_p99", a.suggest_ms, 0.99, "ms");
  report.percentile_metric("serve.observe_ms_p50", a.observe_ms, 0.5, "ms");
  report.percentile_metric("serve.observe_ms_p99", a.observe_ms, 0.99, "ms");
  report.percentile_metric("bo.suggest_ms_p50", replay_suggest, 0.5, "ms");
  report.percentile_metric("bo.observe_ms_p50", replay_observe, 0.5, "ms");
  report.metric("serve.resumes", static_cast<double>(a.resumes), "count");
  report.metric("serve.queue_wait_ms_p90",
                health_ms(load.health, "queue_wait", "p90"), "ms");
  report.metric("serve.exec_ms_cema", health_ms(load.health, "exec", "cema"),
                "ms");
  report_trace_overhead(a.untraced_unit_s, a.traced_unit_s, report);
  report.info("traced half: session turnaround " +
              std::to_string(sink.seconds(obs::Phase::ObjectiveEval)) +
              " s over " +
              std::to_string(sink.spans(obs::Phase::ObjectiveEval)) +
              " spans, checkpoint " +
              std::to_string(sink.seconds(obs::Phase::Checkpoint)) + " s");
  report_bo_phase_probe(args, report);
}

const easybo::circuit::TestFunction& client_objective() {
  static const auto f = easybo::circuit::ackley(kDim);
  return f;
}

std::string init_only_session_config(std::uint64_t seed, std::size_t turns) {
  bo::BoConfig c;
  c.mode = bo::Mode::Sequential;
  c.acq = bo::AcqKind::EasyBo;
  c.batch = 1;
  c.init_points = turns;
  c.max_sims = turns + 1;
  c.seed = seed;
  c.on_eval_failure = bo::EvalFailurePolicy::Discard;
  return serve::session_config_json(c, client_objective().bounds);
}

std::string churn_session_config(std::uint64_t seed, std::size_t sims) {
  bo::BoConfig c;
  c.mode = bo::Mode::Sequential;
  c.acq = bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = 1;
  c.init_points = 10;
  c.max_sims = sims;
  c.seed = seed;
  c.on_eval_failure = bo::EvalFailurePolicy::Discard;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return serve::session_config_json(c, client_objective().bounds);
}

void report_serve_pool_probe(const Args& args, const RunDir& dir,
                             Report& report) {
  LoadSpec spec;
  spec.prefix = "pool";
  spec.clients = 2;
  spec.sessions_per_unit = 2;
  spec.turns = 30;
  spec.max_live = 2;
  spec.workers = 2;
  spec.max_units = 1;
  spec.config = churn_session_config;
  spec.seed = derive_seed(args.seed, 77);
  spec.count_resumes = true;
  Server srv(dir.fresh_subdir("pool-probe"), spec.max_live, spec.workers);
  const Load load = run_load(spec, srv);
  check_host(srv, load, report);
  check_sessions(load, spec.turns, srv.state_dir, report, nullptr, nullptr,
                 nullptr);
  const Aggregate a = aggregate(load, 1e300);
  report.percentile_metric("serve.suggest_ms_p50", a.suggest_ms, 0.5, "ms");
  report.percentile_metric("serve.suggest_ms_p99", a.suggest_ms, 0.99, "ms");
  report.percentile_metric("serve.observe_ms_p50", a.observe_ms, 0.5, "ms");
  report.percentile_metric("serve.observe_ms_p99", a.observe_ms, 0.99, "ms");
  report.percentile_metric("serve.turn_ms_p99", a.turn_ms, 0.99, "ms");
  report.metric("serve.resumes", static_cast<double>(a.resumes), "count");
  report.metric("serve.queue_wait_ms_p90",
                health_ms(load.health, "queue_wait", "p90"), "ms");
  report.metric("serve.exec_ms_cema", health_ms(load.health, "exec", "cema"),
                "ms");
}

void report_trace_overhead(const std::vector<double>& untraced_unit_s,
                           const std::vector<double>& traced_unit_s,
                           Report& report) {
  const double u = median(untraced_unit_s);
  const double t = median(traced_unit_s);
  report.info("tracing overhead from " + std::to_string(traced_unit_s.size()) +
              " traced and " + std::to_string(untraced_unit_s.size()) +
              " untraced whole units");
  report.metric("trace.overhead_pct", u > 0 && t > 0 ? (t / u - 1.0) * 100.0
                                                     : 0.0,
                "%");
}

}  // namespace perfbench
