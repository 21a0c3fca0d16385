//===- bench/ledger/Daemon.cpp - A real mutkd under the ledger ------------===//

#include "Daemon.h"

#include "service/Client.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace ledger;

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto ReadyTimeout = std::chrono::seconds(30);
constexpr auto ExitTimeout = std::chrono::seconds(10);

/// The `build=` value of the `listening` record in \p LogPath.
std::string listeningFlavor(const std::string &LogPath) {
  std::ifstream In(LogPath);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find("msg=\"listening\"") == std::string::npos)
      continue;
    std::size_t At = Line.find(" build=");
    if (At == std::string::npos)
      return "";
    At += 7;
    return Line.substr(At, Line.find(' ', At) - At);
  }
  return "";
}

std::string lastLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line, Last;
  while (std::getline(In, Line))
    if (!Line.empty())
      Last = Line;
  return Last;
}

} // namespace

std::unique_ptr<Daemon> Daemon::spawn(const Options &O, std::string *Error) {
  std::vector<std::string> Argv = {O.Binary, "--unix", O.Socket};
  Argv.insert(Argv.end(), O.Args.begin(), O.Args.end());
  std::vector<char *> CArgv;
  for (std::string &A : Argv)
    CArgv.push_back(A.data());
  CArgv.push_back(nullptr);

  // Everything the child needs is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  int LogFd = ::open(O.LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0644);
  int NullFd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  if (LogFd < 0 || NullFd < 0) {
    if (Error)
      *Error = "cannot open " + O.LogPath + ": " + std::strerror(errno);
    if (LogFd >= 0)
      ::close(LogFd);
    if (NullFd >= 0)
      ::close(NullFd);
    return nullptr;
  }
  pid_t Parent = ::getpid();
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    ::dup2(NullFd, STDIN_FILENO);
    ::dup2(NullFd, STDOUT_FILENO);
    ::dup2(LogFd, STDERR_FILENO);
    ::execv(CArgv[0], CArgv.data());
    ::_exit(127);
  }
  ::close(LogFd);
  ::close(NullFd);
  if (Pid < 0) {
    if (Error)
      *Error = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }

  std::unique_ptr<Daemon> D(new Daemon());
  D->Opts = O;
  D->Pid = Pid;
  Clock::time_point Deadline = Clock::now() + ReadyTimeout;
  for (;;) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      D->Reaped = true;
      if (Error)
        *Error = "mutkd exited during start-up: " + lastLine(O.LogPath);
      return nullptr;
    }
    mutk::ServiceClient Probe;
    if (Probe.connectUnix(O.Socket) && Probe.ping())
      break;
    if (Clock::now() > Deadline) {
      if (Error)
        *Error = "mutkd did not answer a ping within 30 s";
      return nullptr; // the destructor kills and reaps it
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  D->Flavor = listeningFlavor(O.LogPath);
  return D;
}

Daemon::~Daemon() { teardown(); }

bool Daemon::teardown(std::string *Error) {
  if (Reaped)
    return true;
  {
    mutk::ServiceClient Control;
    if (Control.connectUnix(Opts.Socket))
      Control.shutdownServer();
  }
  int Status = 0;
  bool Exited = false;
  Clock::time_point Deadline = Clock::now() + ExitTimeout;
  while (Clock::now() < Deadline) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!Exited) {
    ::kill(Pid, SIGKILL);
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    if (Error)
      *Error = "mutkd ignored Shutdown for 10 s and was killed";
  }
  Reaped = true;
  // mutkd unlinks its socket on a clean stop; a killed one leaves it.
  ::unlink(Opts.Socket.c_str());
  bool Clean = Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (Exited && !Clean && Error)
    *Error = "mutkd exited abnormally: " + lastLine(Opts.LogPath);
  return Clean;
}

std::optional<double> Daemon::cpuMillis() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  std::size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return std::nullopt;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream Fields(Text.substr(Close + 1));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && Fields >> Field; ++I) {
    if (I == 14)
      UTime = std::strtoull(Field.c_str(), nullptr, 10);
    if (I == 15)
      STime = std::strtoull(Field.c_str(), nullptr, 10);
  }
  long Ticks = ::sysconf(_SC_CLK_TCK);
  if (Ticks <= 0)
    return std::nullopt;
  return 1000.0 * static_cast<double>(UTime + STime) /
         static_cast<double>(Ticks);
}

std::optional<double> Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
  return std::nullopt;
}

std::optional<double> ledger::jsonNumber(const std::string &Json,
                                         const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return std::nullopt;
  const char *Start = Json.c_str() + At + Needle.size();
  char *End = nullptr;
  double Value = std::strtod(Start, &End);
  if (End == Start)
    return std::nullopt;
  return Value;
}

bool ledger::childProcessesRemain() {
  // WNOWAIT leaves a zombie in place to be found; only "no children at
  // all" fails with ECHILD.
  siginfo_t Info{};
  return ::waitid(P_ALL, 0, &Info, WEXITED | WNOHANG | WNOWAIT) == 0;
}
