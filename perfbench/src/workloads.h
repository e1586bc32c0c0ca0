#pragma once
/// \file workloads.h
/// \brief The benchmark's workloads and per-layer probes.
///
/// A workload function runs set-up, the timed loop and every correctness
/// check, and adds its metrics to the report: the end-to-end metrics
/// when untraced, its share of the per-layer metrics when traced.
/// run_probes() adds the per-layer metrics measured on seeded states at
/// fixed n, which are the same procedure on every workload.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/testfunc.h"
#include "common.h"

namespace perfbench {

/// The serve clients' objective (Ackley, d=10), evaluated on the client.
const easybo::circuit::TestFunction& client_objective();

/// Wire config of a session whose \p turns turns are all initial-design
/// turns (the budget exceeds the design by one sim, as it must).
std::string init_only_session_config(std::uint64_t seed, std::size_t turns);

/// Wire config of a sequential EasyBO session of \p sims sims with
/// bench/serve_load's cheap acquisition and trainer settings.
std::string churn_session_config(std::uint64_t seed, std::size_t sims);

/// Names of the metrics each mode must report (BENCHMARK.json mirrors
/// these lists; main() checks the report against them).
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

void run_opamp(const Args& args, const RunDir& dir, Report& report);
void run_serve_churn(const Args& args, const RunDir& dir, Report& report);

/// Per-layer probes shared by every traced run (linalg, gp, acq, io,
/// circuit, serve turn buckets, resume and transport).
void run_probes(const Args& args, const RunDir& dir, Report& report);

/// The 300-sim op-amp EasyBO-B run's phase split, measured by one traced
/// run (serve_churn calls this from its traced run; the op-amp workload
/// reads it off its own runs).
void report_bo_phase_probe(const Args& args, Report& report);

/// The serve plane's per-layer metrics measured on a small fixed pooled
/// host, for the workload whose own loop has no served sessions.
void report_serve_pool_probe(const Args& args, const RunDir& dir,
                             Report& report);

/// Wall seconds per unit, traced units over untraced units minus one, in
/// percent: the tracing overhead measured inside one run.
void report_trace_overhead(const std::vector<double>& untraced_unit_s,
                           const std::vector<double>& traced_unit_s,
                           Report& report);

}  // namespace perfbench
