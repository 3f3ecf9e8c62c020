#include "serve/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "net/parse.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/resource.h"
#include "serve/delta.h"
#include "serve/snapshot_reader.h"

namespace itm::serve {

namespace {

// Graceful-shutdown flag. The signal handler performs exactly one atomic
// store (itm-lint signal-safety); everything else — drain, journal flush,
// exit — happens on the session loop after the blocking read returns.
std::atomic<bool> g_shutdown{false};

// The longest line a session accepts, newline excluded: room for
// `apply-delta <PATH_MAX path>`, and a cap on what one client can make the
// server buffer. A longer line ends the session with one error line.
constexpr std::size_t kMaxLineBytes = 8192;

void served_signal_handler(int /*signo*/) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// True for the control verbs, which the session loop handles itself. The
// verb splits off on the whitespace queries split on (net/parse.h), so
// `epoch\r` is the control verb, as `stats\r` is the query.
bool is_control(std::string_view line) {
  const std::string_view verb = next_token(line);
  return verb == "swap-snapshot" || verb == "apply-delta" || verb == "epoch" ||
         verb == "quit";
}

std::optional<std::string> slurp_file(const std::string& path,
                                      std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) {
    if (error != nullptr) *error = path + ": read failed";
    return std::nullopt;
  }
  return std::move(buffer).str();
}

// Adds a quiesced epoch's query and cache counts to the current registry.
// Every epoch is counted once: when a swap retires it, or when run()
// returns while it is live. The counts depend only on the query lines the
// epoch answered, in order: not on batching, timing or thread count.
void count_epoch(const Epoch& epoch) {
  const QueryEngine::CacheCounts cache = epoch.engine().cache_counts();
  obs::count("serve.queries", epoch.queries());
  obs::count("serve.cache.hits", cache.hits);
  obs::count("serve.cache.misses", cache.misses);
  obs::count("serve.cache.evictions", cache.evictions);
}

}  // namespace

// ---- Epoch ----

std::unique_ptr<Epoch> Epoch::from_file(std::uint64_t id,
                                        const std::string& path,
                                        std::size_t cache_capacity,
                                        std::string* error) {
  auto mapped = MmapSnapshot::open(path, error);
  if (!mapped) return nullptr;
  std::unique_ptr<Epoch> epoch(new Epoch(id));
  epoch->checksum_ = snapshot_checksum(mapped->bytes());
  epoch->mapped_ = std::move(*mapped);
  epoch->engine_ =
      std::make_unique<QueryEngine>(epoch->mapped_->view(), cache_capacity);
  return epoch;
}

std::unique_ptr<Epoch> Epoch::from_bytes(std::uint64_t id, std::string bytes,
                                         std::size_t cache_capacity,
                                         std::string* error) {
  std::unique_ptr<Epoch> epoch(new Epoch(id));
  epoch->blob_ = std::move(bytes);
  const auto view = borrow_snapshot(epoch->blob_, error);
  if (!view) return nullptr;
  epoch->checksum_ = snapshot_checksum(epoch->blob_);
  epoch->engine_ = std::make_unique<QueryEngine>(*view, cache_capacity);
  return epoch;
}

std::string_view Epoch::bytes() const {
  if (mapped_) return mapped_->bytes();
  return blob_;
}

void Epoch::answer_batch(std::vector<std::string>& lines,
                         net::Executor& executor) const {
  queries_ += lines.size();
  engine_->answer_batch(lines, executor, latency_);
}

// ---- Server ----

Server::Server(ServedOptions options, net::Executor& executor)
    : options_(std::move(options)), executor_(&executor) {
  executor.set_batch_count_class(obs::Determinism::kWallClock);
}

bool Server::start(std::string* error) {
  auto epoch = Epoch::from_file(next_epoch_id_, options_.snapshot_path,
                                options_.cache_capacity, error);
  if (!epoch) return false;
  ++next_epoch_id_;
  install_epoch(std::move(epoch), "load");
  return true;
}

void Server::install_epoch(std::unique_ptr<const Epoch> next,
                           const char* how) {
  {
    std::ostringstream fields;
    fields << "\"epoch\": " << next->id() << ", \"how\": \"" << how
           << "\", \"checksum\": \"" << hex64(next->checksum())
           << "\", \"bytes\": " << next->bytes().size();
    obs::recorder().event("epoch.install", fields.str());
  }
  obs::gauge_set("serve.resident.epoch_bytes",
                 static_cast<std::int64_t>(next->bytes().size()));
  obs::gauge_set("serve.resident.epoch_id",
                 static_cast<std::int64_t>(next->id()));
  const std::unique_ptr<const Epoch> retired =
      std::exchange(epoch_, std::move(next));
  if (retired) {  // the initial load is not a swap
    ++swaps_;
    obs::count("serve.served.swaps");
    std::ostringstream fields;
    fields << "\"epoch\": " << retired->id()
           << ", \"queries\": " << retired->queries() << ", \"p50_us\": "
           << retired->latency().quantile(0.50) << ", \"p99_us\": "
           << retired->latency().quantile(0.99) << ", \"p999_us\": "
           << retired->latency().quantile(0.999);
    obs::recorder().event("epoch.retire", fields.str());
    count_epoch(*retired);
  }
}

bool Server::swap_snapshot(const std::string& path, std::string* error) {
  auto next = Epoch::from_file(next_epoch_id_, path, options_.cache_capacity,
                               error);
  if (!next) return false;
  ++next_epoch_id_;
  install_epoch(std::move(next), "swap-snapshot");
  return true;
}

bool Server::apply_delta_file(const std::string& path, std::string* error) {
  const auto delta = slurp_file(path, error);
  if (!delta) return false;
  const Epoch* base = epoch_.get();
  if (base == nullptr) {
    if (error != nullptr) *error = "no epoch loaded";
    return false;
  }
  const obs::Stopwatch watch;
  auto target = apply_delta(base->view(), base->bytes(), *delta, error);
  if (!target) return false;
  auto next = Epoch::from_bytes(next_epoch_id_, std::move(*target),
                                options_.cache_capacity, error);
  if (!next) return false;
  obs::gauge_set("serve.delta_apply_us",
                 static_cast<std::int64_t>(watch.elapsed_us()),
                 obs::Determinism::kWallClock);
  ++next_epoch_id_;
  install_epoch(std::move(next), "apply-delta");
  return true;
}

std::string Server::control(const std::string& line, bool* quit) {
  std::string_view rest = line;
  const std::string_view verb = next_token(rest);
  if (verb == "quit") {
    *quit = true;
    return "ok bye";
  }
  if (verb == "epoch") {
    const Epoch* epoch = epoch_.get();
    if (epoch == nullptr) return "error: no epoch loaded";
    std::ostringstream os;
    os << "epoch " << epoch->id() << " checksum=" << hex64(epoch->checksum())
       << " swaps=" << swaps_ << " queries=" << epoch->queries()
       << " p50_us=" << epoch->latency().quantile(0.50)
       << " p99_us=" << epoch->latency().quantile(0.99)
       << " p999_us=" << epoch->latency().quantile(0.999);
    return os.str();
  }
  const std::string path(next_token(rest));
  if (path.empty()) return "error: " + std::string(verb) + " needs a path";
  std::string error;
  const bool ok = verb == "swap-snapshot" ? swap_snapshot(path, &error)
                                          : apply_delta_file(path, &error);
  if (!ok) return "error: " + error;
  std::ostringstream os;
  os << "ok epoch=" << epoch_->id() << " checksum="
     << hex64(epoch_->checksum());
  return os.str();
}

// The one session transport: buffered line reads from one fd, replies
// queued and written to another (or the same) fd in one loop per batch.
class Server::LineIo {
 public:
  LineIo(int in_fd, int out_fd) : in_(in_fd), out_(out_fd) {
    struct stat st {};
    out_is_socket_ = ::fstat(out_fd, &st) == 0 && S_ISSOCK(st.st_mode);
  }

  // The next line, newline stripped. False at EOF, on a read error or a
  // requested shutdown, and on a line longer than kMaxLineBytes.
  [[nodiscard]] bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', pos_);
      if ((nl == std::string::npos ? buffer_.size() : nl) - pos_ >
          kMaxLineBytes) {
        overlong_ = true;
        return false;
      }
      if (nl != std::string::npos) {
        line.assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (eof_) return false;
      // Drop the consumed lines first: the buffer never holds more than
      // one partial line plus one chunk, however fast the client sends.
      buffer_.erase(0, pos_);
      pos_ = 0;
      char chunk[4096];
      const ssize_t n = ::read(in_, chunk, sizeof chunk);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        eof_ = true;
        if (buffer_.empty()) return false;
        line = std::move(buffer_);  // unterminated final line
        buffer_.clear();
        return true;
      } else if (errno != EINTR) {
        eof_ = true;
        return false;
      } else if (shutdown_requested()) {
        return false;
      }
    }
  }

  // True when input is waiting: a buffered line, or bytes poll() reports
  // readable now. Batches form from pipelined queries without blocking
  // the replies to the ones already read.
  [[nodiscard]] bool more_buffered() const {
    if (pos_ < buffer_.size()) return true;
    if (eof_) return false;
    pollfd pfd{in_, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0;
  }

  [[nodiscard]] bool overlong() const { return overlong_; }

  void write_line(std::string_view line) {
    pending_.append(line);
    pending_.push_back('\n');
  }

  // Writes every queued reply in one loop. False when a write fails: the
  // reader hung up (EPIPE, ECONNRESET) and the session must end.
  [[nodiscard]] bool flush() {
    std::string_view rest = pending_;
    while (!rest.empty()) {
      // MSG_NOSIGNAL: a socket peer that hung up yields EPIPE here instead
      // of a process-killing SIGPIPE (pipes rely on SIGPIPE being ignored).
      const ssize_t n =
          out_is_socket_
              ? ::send(out_, rest.data(), rest.size(), MSG_NOSIGNAL)
              : ::write(out_, rest.data(), rest.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    pending_.clear();
    return rest.empty();
  }

 private:
  int in_;
  int out_;
  bool out_is_socket_ = false;
  std::string buffer_;  // input read but not yet consumed, from pos_
  std::size_t pos_ = 0;
  bool eof_ = false;
  bool overlong_ = false;
  std::string pending_;  // replies queued since the last flush
};

void Server::answer_batch(std::vector<std::string>& lines, LineIo& io) {
  if (lines.empty()) return;
  epoch_->answer_batch(lines, *executor_);
  for (const std::string& answer : lines) io.write_line(answer);
  lines.clear();
}

void Server::serve_session(int in_fd, int out_fd) {
  LineIo io(in_fd, out_fd);
  std::vector<std::string> batch;
  std::string line;
  bool quit = false;
  bool open = true;  // false once a reply could not be written
  while (open && !quit && !shutdown_requested() && io.read_line(line)) {
    const bool silent = line.empty() || line.front() == '#';
    const bool verb = !silent && is_control(line);
    if (!silent && !verb) batch.push_back(std::move(line));
    if (verb || batch.size() >= options_.max_batch || !io.more_buffered()) {
      // Control verbs are sequencing points: every query received before
      // the verb is answered against the epoch it arrived under.
      answer_batch(batch, io);
      if (verb) io.write_line(control(line, &quit));
      open = io.flush();
    }
  }
  if (!open) return;
  // Drain: in-flight queries are answered even when a shutdown signal, EOF
  // or an overlong line ended the session mid-batch.
  answer_batch(batch, io);
  if (io.overlong()) {
    io.write_line("error: line longer than " + std::to_string(kMaxLineBytes) +
                  " bytes; closing session");
  }
  (void)io.flush();
}

int Server::run() {
  int code = 0;
  if (options_.listen_path.empty()) {
    serve_session(STDIN_FILENO, STDOUT_FILENO);
  } else {
    code = run_unix();
  }
  count_epoch(*epoch_);
  return code;
}

int Server::run_unix() {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) {
    std::cerr << "error: socket: " << std::strerror(errno) << "\n";
    return 4;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.listen_path.size() >= sizeof addr.sun_path) {
    std::cerr << "error: socket path too long\n";
    ::close(listener);
    return 4;
  }
  std::strncpy(addr.sun_path, options_.listen_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(options_.listen_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 4) != 0) {
    std::cerr << "error: " << options_.listen_path << ": "
              << std::strerror(errno) << "\n";
    ::close(listener);
    return 4;
  }

  while (!shutdown_requested()) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      std::cerr << "error: accept: " << std::strerror(errno) << "\n";
      break;
    }
    serve_session(fd, fd);
    ::close(fd);
  }
  ::close(listener);
  ::unlink(options_.listen_path.c_str());
  return 0;
}

void Server::request_shutdown() {
  g_shutdown.store(true, std::memory_order_relaxed);
}

bool Server::shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void Server::clear_shutdown() {
  g_shutdown.store(false, std::memory_order_relaxed);
}

void Server::install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = served_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking reads return EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  sigaction(SIGPIPE, &ignore, nullptr);
}

}  // namespace itm::serve
