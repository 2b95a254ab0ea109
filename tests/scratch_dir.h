#ifndef STETHO_TESTS_SCRATCH_DIR_H_
#define STETHO_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace stetho {

/// A fresh directory under the test temp dir, removed with its contents
/// when the test ends. A fixed path would let one run's files leak into
/// the next (a server's query names restart at s0, so a stale postmortem
/// from an earlier run matches a later run's expected file name).
/// path() is empty when the directory could not be created.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    std::string pattern = testing::TempDir() + prefix + "_XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace stetho

#endif  // STETHO_TESTS_SCRATCH_DIR_H_
