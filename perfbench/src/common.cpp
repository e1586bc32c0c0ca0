#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t s = seed ^ 0x9E3779B97F4A7C15ull;
  easybo::splitmix64(s);
  s ^= a * 0xBF58476D1CE4E5B9ull;
  easybo::splitmix64(s);
  s ^= b * 0x94D049BB133111EBull;
  return easybo::splitmix64(s);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(xs.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return xs[idx];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image that exec'd this one (the launcher's).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void StreamDigest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ull;
  }
}

void StreamDigest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

std::string StreamDigest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  lines_.push_back("metric " + name + " = " + number(value) + " " + unit);
}

void Report::percentile_metric(const std::string& name,
                               const std::vector<double>& samples, double q,
                               const std::string& unit) {
  metric(name, percentile(samples, q), unit);
  lines_.back() += "  (n=" + std::to_string(samples.size()) + ")";
}

void Report::phase(const std::string& name, std::size_t attempted,
                   std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  lines_.push_back("phase " + name + ": attempted " +
                   std::to_string(attempted) + ", succeeded " +
                   std::to_string(attempted - failed) + ", failed " +
                   std::to_string(failed));
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    lines_.push_back("CHECK FAILED: " + what);
  }
}

void Report::info(const std::string& line) { lines_.push_back(line); }

int Report::finish(const std::vector<std::string>& expected) {
  std::vector<std::string> got;
  for (const auto& m : metrics_) got.push_back(m.name);
  std::sort(got.begin(), got.end());
  std::vector<std::string> want = expected;
  std::sort(want.begin(), want.end());
  check(got == want, "the reported metrics are exactly the listed ones");
  for (const auto& l : lines_) std::printf("%s\n", l.c_str());
  std::printf("checks: %zu run, %zu failed\n", checks_, failed_checks_);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(
                                    attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) json += ", ";
    json += quote(metrics_[i].name) + ": {\"value\": " +
            number(metrics_[i].value) +
            ", \"unit\": " + quote(metrics_[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

RunDir::RunDir(const std::string& root) {
  std::filesystem::create_directories(root);
  std::string tmpl = root + "/run-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("cannot create a run directory under " + root);
  }
  path_ = buf.data();
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string RunDir::fresh_subdir(const std::string& name) const {
  const std::string dir = path_ + "/" + name;
  if (!std::filesystem::create_directory(dir)) {
    throw std::runtime_error("state directory " + dir +
                             " already exists; refusing to reuse it");
  }
  return dir;
}

LineClient::LineClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the loopback server failed");
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::request(const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() failed");
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection lost mid-reply");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double median_seconds(int times, const std::function<void(int)>& fn) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    secs.push_back(seconds_since(t0));
  }
  return median(secs);
}

}  // namespace perfbench
