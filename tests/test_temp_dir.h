#pragma once
// One temporary directory per test process: created on first use with
// mkdtemp under ::testing::TempDir(), removed with everything in it when
// the process exits. Unique names keep parallel runs of the same binary
// apart; the removal keeps the temp dir from filling with files named
// after tests. A forked child (the kill -9 tests) inherits the path but
// never removes it — only the process that created it does.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace easybo {

/// "<per-process dir>/<name>", for tests that need a file or directory
/// path of their own.
inline std::string test_temp_path(const std::string& name) {
  struct Dir {
    Dir() : owner(::getpid()) {
      std::string pattern = ::testing::TempDir() + "easybo_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " +
                                 ::testing::TempDir());
      }
      path = pattern;
    }
    ~Dir() {
      if (::getpid() != owner) return;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    pid_t owner;
    std::string path;
  };
  static const Dir dir;
  return dir.path + "/" + name;
}

}  // namespace easybo
