#include "obs/recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "obs/metrics.h"

namespace itm::obs {

namespace {

// The in-flight stage name, readable from a signal handler. Publish
// protocol: zero the length, copy bytes + terminator, then store the new
// length (release). The buffer is always null-terminated within bounds, so
// even a torn read yields printable text.
constexpr std::size_t kStageBufBytes = 96;
char g_stage_buf[kStageBufBytes] = "";
std::atomic<std::uint32_t> g_stage_len{0};

void set_current_stage(std::string_view name) {
  const std::size_t n = name.size() < kStageBufBytes - 1
                            ? name.size()
                            : kStageBufBytes - 1;
  g_stage_len.store(0, std::memory_order_release);
  std::memcpy(g_stage_buf, name.data(), n);
  g_stage_buf[n] = '\0';
  g_stage_len.store(static_cast<std::uint32_t>(n), std::memory_order_release);
}

// Async-signal-safe unsigned decimal formatting; returns chars written.
std::size_t format_u64(char* out, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

// write() the whole buffer, retrying short writes; best-effort (postmortem
// path — nothing useful to do on error).
void write_all(int fd, const char* data, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

// clock_gettime is on the POSIX async-signal-safe list; fine for both the
// normal and the handler path.
std::uint64_t wall_ms_now() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

}  // namespace

const char* current_stage() { return g_stage_buf; }

FlightRecorder::~FlightRecorder() { flush(); }

void FlightRecorder::enable(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("FlightRecorder: cannot open '" + path + "'");
  }
  flushed_.store(false, std::memory_order_release);
  fd_.store(fd, std::memory_order_release);
}

void FlightRecorder::event(std::string_view name, std::string_view fields) {
  if (!enabled() || flushed_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(record_mutex_);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % kSlots];

  char line[kSlotBytes];
  const char* stage = current_stage();
  int n = std::snprintf(
      line, sizeof line, "{\"ts_ms\": %llu, \"seq\": %llu, \"event\": \"%.*s\"",
      static_cast<unsigned long long>(wall_ms_now()),
      static_cast<unsigned long long>(seq), static_cast<int>(name.size()),
      name.data());
  if (n > 0 && stage[0] != '\0') {
    n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n),
                       ", \"stage\": \"%s\"", stage);
  }
  if (n > 0 && !fields.empty()) {
    n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n),
                       ", %.*s", static_cast<int>(fields.size()),
                       fields.data());
  }
  if (n < 0 || static_cast<std::size_t>(n) + 2 >= sizeof line) {
    // Over-long payload: degrade to the fixed keys so the line stays JSON.
    n = std::snprintf(line, sizeof line,
                      "{\"ts_ms\": %llu, \"seq\": %llu, \"event\": \"%.*s\"",
                      static_cast<unsigned long long>(wall_ms_now()),
                      static_cast<unsigned long long>(seq),
                      static_cast<int>(name.size()), name.data());
  }
  n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n),
                     "}\n");

  slot.len.store(0, std::memory_order_release);
  std::memcpy(slot.bytes, line, static_cast<std::size_t>(n));
  slot.len.store(static_cast<std::uint32_t>(n), std::memory_order_release);
}

void FlightRecorder::write_ring(int fd) noexcept {
  const std::uint64_t total = seq_.load(std::memory_order_acquire);
  const std::size_t start =
      total > kSlots ? static_cast<std::size_t>(total % kSlots) : 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Slot& slot = slots_[(start + i) % kSlots];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len > 0 && len <= kSlotBytes) write_all(fd, slot.bytes, len);
  }
}

void FlightRecorder::flush() {
  const std::lock_guard lock(record_mutex_);
  if (flushed_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  write_ring(fd);
  ::close(fd);
  fd_.store(-1, std::memory_order_release);
}

void FlightRecorder::flush_from_signal(int signo) noexcept {
  // No locks, no allocation: a handler may have interrupted a thread that
  // holds record_mutex_. Torn slots read len==0 and are skipped.
  if (flushed_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  write_ring(fd);
  // Final line naming the in-flight stage, formatted without snprintf.
  char line[kStageBufBytes + 96];
  std::size_t n = 0;
  const auto append = [&](const char* text) {
    const std::size_t len = std::strlen(text);
    std::memcpy(line + n, text, len);
    n += len;
  };
  append("{\"ts_ms\": ");
  n += format_u64(line + n, wall_ms_now());
  append(", \"seq\": ");
  n += format_u64(line + n, seq_.load(std::memory_order_relaxed));
  append(", \"event\": \"signal\", \"signo\": ");
  n += format_u64(line + n, static_cast<std::uint64_t>(signo < 0 ? 0 : signo));
  append(", \"stage\": \"");
  append(g_stage_buf);  // always null-terminated, [a-z0-9_.] content
  append("\"}\n");
  write_all(fd, line, n);
  ::close(fd);
  fd_.store(-1, std::memory_order_release);
}

FlightRecorder& recorder() {
  static FlightRecorder instance;
  return instance;
}

namespace {

void crash_signal_handler(int signo) {
  recorder().flush_from_signal(signo);
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void terminate_flush() {
  recorder().flush_from_signal(0);
  // Chaining to the displaced handler is deliberate: whatever the embedder
  // installed (often a logging hook that allocates) runs after our ring is
  // already on disk, so its safety is its own problem — and the default
  // handler is the common case. itm-lint: allow(signal-safety)
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

void install_crash_flush() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  for (const int signo : {SIGTERM, SIGINT, SIGSEGV, SIGABRT}) {
    struct sigaction action {};
    action.sa_handler = crash_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(signo, &action, nullptr);
  }
  g_previous_terminate = std::set_terminate(terminate_flush);
}

// ---- ProgressMeter ----

ProgressMeter::~ProgressMeter() { disable(); }

void ProgressMeter::enable() {
  if (enabled_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_release);
  run_watch_.reset();
  thread_ = std::thread([this] { heartbeat_loop(); });
}

void ProgressMeter::disable() {
  if (!enabled_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void ProgressMeter::begin_stage(std::string_view name, std::size_t index,
                                std::size_t total) {
  {
    const std::lock_guard lock(stage_mutex_);
    stage_name_.assign(name);
    stage_index_ = index;
    stage_total_ = total;
    stage_watch_.reset();
    units_expected_.store(0, std::memory_order_relaxed);
    units_completed_.store(0, std::memory_order_relaxed);
  }
  if (enabled()) emit_line();
}

void ProgressMeter::end_stage() {
  const std::lock_guard lock(stage_mutex_);
  stage_name_.clear();
}

void ProgressMeter::heartbeat_loop() {
  // ~1 s heartbeat, polling stop_ at 100 ms so disable() is responsive.
  std::size_t ticks = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (++ticks % 10 != 0) continue;
    emit_line();
  }
}

void ProgressMeter::emit_line() {
  std::string stage;
  std::size_t index = 0;
  std::size_t total = 0;
  double stage_s = 0;
  {
    const std::lock_guard lock(stage_mutex_);
    stage = stage_name_;
    index = stage_index_;
    total = stage_total_;
    stage_s = stage_watch_.elapsed_s();
  }
  const double run_s = run_watch_.elapsed_s();
  const double rss_mib =
      static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0);
  const std::uint64_t expected = units_expected_.load(std::memory_order_relaxed);
  const std::uint64_t completed =
      units_completed_.load(std::memory_order_relaxed);

  char eta[32];
  if (!stage.empty() && completed > 0 && expected > completed) {
    const double eta_s = stage_s * static_cast<double>(expected - completed) /
                         static_cast<double>(completed);
    std::snprintf(eta, sizeof eta, "eta ~%.0fs", eta_s);
  } else {
    std::snprintf(eta, sizeof eta, "eta -");
  }

  if (stage.empty()) {
    std::fprintf(stderr, "[itm] run %.1fs | rss %.1f MiB\n", run_s, rss_mib);
  } else if (total > 0) {
    std::fprintf(stderr,
                 "[itm] stage %zu/%zu %s %.1fs | run %.1fs | rss %.1f MiB | "
                 "%s\n",
                 index, total, stage.c_str(), stage_s, run_s, rss_mib, eta);
  } else {
    std::fprintf(stderr, "[itm] %s %.1fs | run %.1fs | rss %.1f MiB | %s\n",
                 stage.c_str(), stage_s, run_s, rss_mib, eta);
  }
  heartbeats_.fetch_add(1, std::memory_order_relaxed);

  if (recorder().enabled()) {
    char fields[128];
    std::snprintf(fields, sizeof fields,
                  "\"run_s\": %.1f, \"rss_mib\": %.1f, \"done\": %llu, "
                  "\"expected\": %llu",
                  run_s, rss_mib, static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(expected));
    recorder().event("progress", fields);
  }
}

ProgressMeter& progress() {
  static ProgressMeter instance;
  return instance;
}

// ---- StageScope ----

StageScope::StageScope(std::string_view name, std::size_t index,
                       std::size_t total)
    : name_(name), span_(name), rss_before_(current_rss_bytes()) {
  set_current_stage(name_);
  progress().begin_stage(name_, index, total);
  if (recorder().enabled()) {
    char fields[96];
    std::snprintf(fields, sizeof fields,
                  "\"rss_bytes\": %llu, \"index\": %zu, \"total\": %zu",
                  static_cast<unsigned long long>(rss_before_), index, total);
    recorder().event("stage.begin", fields);
  }
}

StageScope::~StageScope() { close(); }

double StageScope::close() {
  if (!open_) return 0;
  open_ = false;
  const double seconds = span_.close();
  const std::uint64_t rss_after = current_rss_bytes();
  const auto delta = static_cast<std::int64_t>(rss_after) -
                     static_cast<std::int64_t>(rss_before_);
  auto& reg = metrics();
  reg.gauge(name_ + ".rss_bytes", Determinism::kWallClock)
      .set(static_cast<std::int64_t>(rss_after));
  reg.gauge(name_ + ".rss_delta_bytes", Determinism::kWallClock).set(delta);
  reg.gauge(name_ + ".wall_us", Determinism::kWallClock)
      .set(static_cast<std::int64_t>(seconds * 1e6));
  if (recorder().enabled()) {
    char fields[128];
    std::snprintf(fields, sizeof fields,
                  "\"wall_s\": %.3f, \"rss_bytes\": %llu, "
                  "\"rss_delta_bytes\": %lld",
                  seconds, static_cast<unsigned long long>(rss_after),
                  static_cast<long long>(delta));
    recorder().event("stage.end", fields);
  }
  progress().end_stage();
  set_current_stage("");
  return seconds;
}

}  // namespace itm::obs
