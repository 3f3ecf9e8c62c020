#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/resource.h"

namespace perfbench {

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path, int cpu) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // The child must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof set, &set);
    }
    const int null = ::open("/dev/null", O_RDONLY);
    ::dup2(null, 0);
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  return pid;
}

bool terminate_and_wait(pid_t pid, double timeout_s) {
  ::kill(pid, SIGTERM);
  const itm::obs::Stopwatch watch;
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (done < 0) return false;
    if (watch.elapsed_s() > timeout_s) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return false;
}

ScopedPin::ScopedPin(int cpu) {
  if (cpu < 0 || ::sched_getaffinity(0, sizeof previous_, &previous_) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pinned_ = ::sched_setaffinity(0, sizeof set, &set) == 0;
}

ScopedPin::~ScopedPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof previous_, &previous_);
}

int allowed_cpu(int n) {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set) && n-- == 0) return cpu;
  }
  return -1;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Value of a "Key:   value" line in a /proc status-style file.
std::uint64_t field(const std::string& text, const std::string& key) {
  const std::string line = key + ":";
  std::size_t at = text.rfind(line, 0) == 0 ? 0 : text.find("\n" + line);
  if (at == std::string::npos) return 0;
  if (text[at] == '\n') ++at;
  return std::strtoull(text.c_str() + at + line.size(), nullptr, 10);
}

}  // namespace

ProcSample sample_process(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  ProcSample sample;
  // Fields 14/15 (utime, stime) follow the parenthesised command name.
  const std::string stat = slurp(dir + "/stat");
  const auto close_paren = stat.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream is(stat.substr(close_paren + 2));
    std::string skip;
    for (int i = 3; i < 14; ++i) is >> skip;
    double utime = 0;
    double stime = 0;
    is >> utime >> stime;
    sample.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  const std::string io = slurp(dir + "/io");
  sample.syscr = field(io, "syscr");
  sample.syscw = field(io, "syscw");
  sample.hwm_mb = static_cast<double>(field(slurp(dir + "/status"), "VmHWM")) / 1024.0;
  if (DIR* tasks = ::opendir((dir + "/task").c_str())) {
    while (const dirent* entry = ::readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      const std::string status = slurp(dir + "/task/" + entry->d_name + "/status");
      sample.ctx_switches += field(status, "voluntary_ctxt_switches") +
                             field(status, "nonvoluntary_ctxt_switches");
    }
    ::closedir(tasks);
  }
  return sample;
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
