/// \file main.cpp
/// \brief Benchmark program entry point.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--state-root <dir>] [--plant observation|y]
///   perfbench --list-metrics
///
/// Runs one workload, its correctness checks and (traced) the per-layer
/// probes, prints every metric by name with its unit, and ends with the
/// JSON result line. Exit status: 0 when every check passed, 1 when a
/// check failed, 2 on bad arguments or an error that stopped the run.
/// --list-metrics prints each metric name, prefixed by the --trace value
/// of the runs that report it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "setup_s", "peak_rss_mb", "success_rate", "evals_per_s",
      "turn_ms_p50"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "acq.maximize_ms.n300",      "acq.maximize_ms.n1000",
      "acq.evals_per_call",        "acq.us_per_eval.n300",
      "gp.predict_us.n50",         "gp.predict_us.n300",
      "gp.predict_us.n1000",       "gp.hallucinate_us.n300.k9",
      "gp.fit_ms.n300",            "gp.fit_ms.n1000",
      "gp.train_mle_ms.n300",      "gp.lml_gradient_ms.n300",
      "linalg.cholesky_ms.n300",   "linalg.cholesky_ms.n1000",
      "linalg.cholesky_gflops.n1000", "linalg.solve_lower_us.n1000",
      "bo.phase.acq_maximize_s",   "bo.phase.hyper_refit_s",
      "bo.phase.model_fit_s",      "bo.hyper_refits",
      "bo.suggest_ms_p50",         "bo.observe_ms_p50",
      "io.snapshot_bytes.n50",     "io.snapshot_bytes.n300",
      "io.snapshot_bytes.n1000",   "io.atomic_write_ms.n1000",
      "io.snapshot_serialize_ms.n1000", "io.journal_append_us",
      "io.snapshot_parse_ms.n1000", "io.read_journal_ms.n1000",
      "serve.turn_ms_p50.n50",     "serve.turn_ms_p50.n300",
      "serve.turn_ms_p50.n1000",   "serve.resume_ms.n150",
      "serve.resumes",             "serve.queue_wait_ms_p90",
      "serve.exec_ms_cema",        "serve.transport_ms_mean",
      "serve.suggest_ms_p50",      "serve.suggest_ms_p99",
      "serve.observe_ms_p50",      "serve.observe_ms_p99",
      "serve.turn_ms_p99",
      "circuit.opamp_eval_us",     "trace.overhead_pct"};
  return names;
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "opamp_async_b10|serve_churn --seed N "
               "--seconds S --trace 0|1 [--state-root DIR] "
               "[--plant observation|y]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.state_root = ".bench_build/state";
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    for (const auto& n : end_to_end_metric_names()) {
      std::printf("0 %s\n", n.c_str());
    }
    for (const auto& n : per_layer_metric_names()) {
      std::printf("1 %s\n", n.c_str());
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--state-root") {
      args.state_root = val;
    } else if (key == "--plant") {
      args.plant = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  if (!args.plant.empty() && args.plant != "observation" && args.plant != "y") {
    return usage("--plant must be observation or y");
  }

  Report report;
  try {
    const RunDir dir(args.state_root);
    std::printf("perfbench %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    if (args.workload == "opamp_async_b10") {
      run_opamp(args, dir, report);
    } else if (args.workload == "serve_churn") {
      run_serve_churn(args, dir, report);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    if (args.trace) run_probes(args, dir, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }
  return report.finish(args.trace ? per_layer_metric_names()
                                  : end_to_end_metric_names());
}
