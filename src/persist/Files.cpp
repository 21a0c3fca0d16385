//===- persist/Files.cpp - Crash-safe file primitives ---------------------===//

#include "persist/Files.h"

#include "support/Audit.h"

#include <cerrno>
#include <filesystem>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

using namespace mutk::persist;

namespace {

/// write(2) the whole buffer, retrying EINTR and short writes.
bool writeAllFd(int Fd, const std::uint8_t *Data, std::size_t Size) {
  std::size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<std::size_t>(N);
  }
  return true;
}

int openRetry(const char *Path, int Flags, mode_t Mode) {
  for (;;) {
    int Fd = ::open(Path, Flags, Mode);
    if (Fd >= 0 || errno != EINTR)
      return Fd;
  }
}

} // namespace

bool mutk::persist::ensureDir(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return false;
  return std::filesystem::is_directory(Dir, Ec) && !Ec;
}

std::optional<std::vector<std::uint8_t>>
mutk::persist::readFile(const std::string &Path) {
  int Fd = openRetry(Path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (Fd < 0)
    return std::nullopt;
  std::vector<std::uint8_t> Bytes;
  std::uint8_t Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return std::nullopt;
    }
    if (N == 0)
      break;
    Bytes.insert(Bytes.end(), Chunk, Chunk + N);
  }
  ::close(Fd);
  return Bytes;
}

bool mutk::persist::writeFileAtomic(const std::string &Path,
                                    const std::vector<std::uint8_t> &Bytes) {
  // The temp file must live on the same filesystem as the target or the
  // rename stops being atomic; "next to it" guarantees that.
  std::string Temp = Path + ".tmp";
  int Fd = openRetry(Temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0644);
  if (Fd < 0)
    return false;
  bool Ok = writeAllFd(Fd, Bytes.data(), Bytes.size());
  // Data must be stable before the rename publishes the file, or a crash
  // could leave a correctly-named file with missing tail pages.
  if (Ok && ::fsync(Fd) != 0)
    Ok = false;
  if (::close(Fd) != 0)
    Ok = false;
  if (Ok && ::rename(Temp.c_str(), Path.c_str()) != 0)
    Ok = false;
  if (!Ok)
    ::unlink(Temp.c_str());
  return Ok;
}

bool mutk::persist::removeFile(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove(Path, Ec);
  return !std::filesystem::exists(Path, Ec);
}

std::uint64_t mutk::persist::fileSize(const std::string &Path) {
  std::error_code Ec;
  std::uint64_t Size = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : Size;
}

std::optional<std::vector<std::uint8_t>>
mutk::persist::readFileRange(const std::string &Path, std::uint64_t Offset,
                             std::size_t Size) {
  int Fd = openRetry(Path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (Fd < 0)
    return std::nullopt;
  std::vector<std::uint8_t> Bytes(Size);
  std::size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::pread(Fd, Bytes.data() + Done, Size - Done,
                        static_cast<off_t>(Offset + Done));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Done += static_cast<std::size_t>(N);
  }
  ::close(Fd);
  if (Done != Size)
    return std::nullopt;
  return Bytes;
}

bool mutk::persist::syncDescriptor(int Fd) {
  return Fd >= 0 && ::fdatasync(Fd) == 0;
}

AppendFile::~AppendFile() { close(); }

AppendFile::AppendFile(AppendFile &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)) {}

AppendFile &AppendFile::operator=(AppendFile &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
  }
  return *this;
}

bool AppendFile::open(const std::string &Path) {
  close();
  Fd = openRetry(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  return Fd >= 0;
}

bool AppendFile::append(const std::vector<std::uint8_t> &Bytes) {
  if (Fd < 0)
    return false;
  return writeAllFd(Fd, Bytes.data(), Bytes.size());
}

bool AppendFile::truncate(std::uint64_t Size) {
  if (Fd < 0)
    return false;
  for (;;) {
    if (::ftruncate(Fd, static_cast<off_t>(Size)) == 0)
      return true;
    if (errno != EINTR)
      return false;
  }
}

void AppendFile::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

std::string mutk::persist::buildFlavor() {
#ifdef NDEBUG
  std::string Flavor = "release";
#else
  std::string Flavor = "debug";
#endif
#if MUTK_AUDIT_ENABLED
  Flavor += "+audit";
#endif
#if defined(__SANITIZE_ADDRESS__)
  Flavor += "+asan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  Flavor += "+asan";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  Flavor += "+tsan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  Flavor += "+tsan";
#endif
#endif
  return Flavor;
}
