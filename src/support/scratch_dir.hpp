// A private scratch directory: <temp dir>/<stem>XXXXXX with a unique
// suffix (mkdtemp), removed with everything in it when the owner goes
// out of scope.  Runs that keep durable checkpoints put them here, so two
// runs of the same program at once never clobber each other's files.
#pragma once

#include <stdlib.h>  // mkdtemp (POSIX)

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace hyades {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem) {
    const std::string pattern =
        (std::filesystem::temp_directory_path() / (stem + "XXXXXX")).string();
    path_ = pattern;
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::filesystem::filesystem_error(
          "mkdtemp", pattern, std::error_code(errno, std::generic_category()));
    }
  }
  ~ScratchDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace hyades
