// Child processes and /proc readings for the serve workloads.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Starts `argv` with stdin from /dev/null and stdout/stderr appended to
// `log_path`, pinned to CPU `cpu` when it is >= 0. Throws
// std::runtime_error when the process cannot start.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv,
                          const std::string& log_path, int cpu = -1);

// Pins the calling thread to CPU `cpu` for the object's lifetime (no-op
// when `cpu` < 0), restoring the previous affinity afterwards.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t previous_{};
};

// The n-th CPU this process may run on, or -1 when there are not that many.
[[nodiscard]] int allowed_cpu(int n);

// Sends SIGTERM and waits up to `timeout_s` for the child to exit, then
// SIGKILLs and reaps it. Returns true when it exited on its own with
// status 0.
bool terminate_and_wait(pid_t pid, double timeout_s);

// Connects to an AF_UNIX stream socket; -1 on failure.
[[nodiscard]] int connect_unix(const std::string& path);

// Cumulative counters of a live process, summed over its threads.
struct ProcSample {
  double cpu_s = 0.0;           // utime + stime
  std::uint64_t syscr = 0;      // read-like syscalls
  std::uint64_t syscw = 0;      // write-like syscalls
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary, all tasks
  double hwm_mb = 0.0;          // VmHWM
};
[[nodiscard]] ProcSample sample_process(pid_t pid);

// This process's CPU time (user + system) in seconds.
[[nodiscard]] double self_cpu_s();

}  // namespace perfbench
