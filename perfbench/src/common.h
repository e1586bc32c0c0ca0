#pragma once
/// \file common.h
/// \brief Shared pieces of the benchmark program: arguments, clocks,
/// percentiles, the result report (human lines + the final JSON line),
/// the per-run state directory and a blocking loopback line client.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Command-line arguments (see run.py for the meaning of each).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Planted defect for the oracle liveness tests: "" (none), "observation"
  /// (serve: one OBSERVE carries a perturbed y) or "y" (opamp: the
  /// objective returns one perturbed value).
  std::string plant;
  /// Directory under which the per-run state directory is created.
  std::string state_root;
};

/// A seed for stream \p a / item \p b derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// Nearest-rank percentile (q in [0,1]) of \p xs; 0 for an empty sample.
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}
double mean(const std::vector<double>& xs);

/// Peak resident set size (VmHWM) of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a over the bit patterns of proposal coordinates: a digest of a
/// proposal stream that two builds can compare without a golden value.
class StreamDigest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Collects the run's metrics, checks and per-phase operation counts, and
/// prints them: one human-readable line each, then the JSON result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile metric; the human line states its sample count.
  void percentile_metric(const std::string& name,
                         const std::vector<double>& samples, double q,
                         const std::string& unit);
  /// One phase's operations: attempted = succeeded + failed.
  void phase(const std::string& name, std::size_t attempted,
             std::size_t failed);
  /// Records one correctness check; any failed check makes the run
  /// incorrect.
  void check(bool ok, const std::string& what);
  void info(const std::string& line);

  bool correct() const { return failed_checks_ == 0 && checks_ > 0; }
  /// Checks that exactly the \p expected metrics were reported, prints
  /// everything (the last line is the JSON result object) and returns the
  /// exit status: 0 when every check passed, 1 otherwise.
  int finish(const std::vector<std::string>& expected);

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checks_ = 0;
  std::size_t failed_checks_ = 0;
};

/// The run's private state directory: a fresh directory under the state
/// root, created exclusively and removed (with everything under it) when
/// this object dies. Subdirectories are created exclusively too, so no
/// run can ever resume another run's sessions.
class RunDir {
 public:
  explicit RunDir(const std::string& root);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// Creates "<path>/<name>"; throws when it already exists.
  std::string fresh_subdir(const std::string& name) const;

 private:
  std::string path_;
};

/// Minimal blocking TCP line client over loopback.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  /// Sends one request line and returns the one reply line. Throws on a
  /// transport failure.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Runs \p fn \p times times and returns the median wall seconds.
double median_seconds(int times, const std::function<void(int)>& fn);

}  // namespace perfbench
