//===- persist/Files.h - Crash-safe file primitives -------------*- C++ -*-===//
///
/// \file
/// The only place in the repo that writes durable state to disk. Two
/// primitives cover every persist-layer need:
///
///  - `writeFileAtomic`: write-to-temp + fsync + rename, so a reader (or
///    a crash) never observes a half-written snapshot or checkpoint. The
///    rename is atomic on POSIX within one filesystem; the temp file
///    lives next to the target to guarantee that.
///  - `AppendFile`: an `O_APPEND` descriptor for write-ahead logs, flushed
///    with `syncDescriptor`.
///
/// Everything uses raw POSIX descriptors — `scripts/lint.sh` forbids
/// `std::ofstream`/`fopen` under `src/persist/` precisely so no code
/// path can bypass the atomicity discipline by accident.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_PERSIST_FILES_H
#define MUTK_PERSIST_FILES_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mutk::persist {

/// Creates \p Dir (and parents) if missing. \returns false on failure.
bool ensureDir(const std::string &Dir);

/// Reads a whole file; nullopt when it does not exist or cannot be read.
std::optional<std::vector<std::uint8_t>> readFile(const std::string &Path);

/// Atomically replaces \p Path with \p Bytes: writes `Path + ".tmp"`,
/// fsyncs it, then renames over the target. On any failure the target is
/// left untouched (the temp file is cleaned up best-effort).
bool writeFileAtomic(const std::string &Path,
                     const std::vector<std::uint8_t> &Bytes);

/// Removes a file if present; true when it no longer exists.
bool removeFile(const std::string &Path);

/// Size of a file in bytes, 0 when absent.
std::uint64_t fileSize(const std::string &Path);

/// Reads \p Size bytes of \p Path starting at \p Offset; nullopt when the
/// file cannot be read or ends first.
std::optional<std::vector<std::uint8_t>>
readFileRange(const std::string &Path, std::uint64_t Offset, std::size_t Size);

/// fdatasync()s \p Fd. Takes the bare descriptor so a caller can flush
/// an `AppendFile` without holding the lock that guards the object; it
/// must keep the descriptor open until the call returns.
bool syncDescriptor(int Fd);

/// An append-only log file handle (`O_APPEND`, created when missing).
/// Appends go straight to the descriptor; `syncDescriptor(fd())` forces
/// them to stable storage. Move-only.
class AppendFile {
public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(AppendFile &&Other) noexcept;
  AppendFile &operator=(AppendFile &&Other) noexcept;
  AppendFile(const AppendFile &) = delete;
  AppendFile &operator=(const AppendFile &) = delete;

  /// Opens \p Path for appending. \returns false on failure.
  bool open(const std::string &Path);
  bool isOpen() const { return Fd >= 0; }

  /// Appends the whole buffer (retries short writes and EINTR). A
  /// failure can leave part of the buffer behind.
  bool append(const std::vector<std::uint8_t> &Bytes);

  /// Cuts the file back to \p Size bytes (drops a partial append).
  bool truncate(std::uint64_t Size);

  /// The descriptor, -1 when closed.
  int fd() const { return Fd; }

  void close();

private:
  int Fd = -1;
};

/// The build flavor baked into durable-file headers: "release", "asan"
/// or "tsan". Sanitizer builds deliberately do not share cache state
/// with release builds (and vice versa) — a flavor mismatch is treated
/// as a cold start, which keeps every CI leg hermetic.
std::string buildFlavor();

} // namespace mutk::persist

#endif // MUTK_PERSIST_FILES_H
