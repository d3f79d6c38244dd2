// A temporary directory unique to one test process: mkdtemp under the
// system temp root, removed with its contents when the object dies, so
// test binaries that run side by side never share or delete each
// other's files.
#pragma once

#include <stdlib.h>  // mkdtemp (POSIX)

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace gnn4ip::test {

class ScratchDir {
 public:
  /// Creates `<temp>/<prefix>_XXXXXX` with a fresh random suffix.
  explicit ScratchDir(const std::string& prefix) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX"))
            .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + pattern);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// An emptied subdirectory `leaf`, created if missing.
  [[nodiscard]] std::string fresh(const std::string& leaf) const {
    const std::filesystem::path dir = path_ / leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace gnn4ip::test
