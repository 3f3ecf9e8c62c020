#include "serve/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

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

// The longest line a socket session accepts, newline excluded: room for
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

std::string first_token(std::string_view line) {
  std::size_t b = line.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  std::size_t e = line.find_first_of(" \t", b);
  if (e == std::string_view::npos) e = line.size();
  return std::string(line.substr(b, e - b));
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

}  // namespace

// ---- Epoch ----

Epoch::Epoch(std::uint64_t id, std::size_t cache_capacity) : id_(id) {
  caches_.reserve(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) caches_.emplace_back(cache_capacity);
}

std::unique_ptr<Epoch> Epoch::from_file(std::uint64_t id,
                                        const std::string& path,
                                        std::size_t cache_capacity,
                                        std::string* error) {
  auto mapped = MmapSnapshot::open(path, error);
  if (!mapped) return nullptr;
  std::unique_ptr<Epoch> epoch(new Epoch(id, cache_capacity));
  epoch->checksum_ = snapshot_checksum(mapped->bytes());
  epoch->mapped_ = std::move(*mapped);
  // Engine result cache 0: caching lives in the per-slot caches, whose
  // slot-exclusivity makes them safe; the shared engine stays const.
  epoch->engine_ =
      std::make_unique<QueryEngine>(epoch->mapped_->view(), std::size_t{0});
  return epoch;
}

std::unique_ptr<Epoch> Epoch::from_bytes(std::uint64_t id, std::string bytes,
                                         std::size_t cache_capacity,
                                         std::string* error) {
  std::unique_ptr<Epoch> epoch(new Epoch(id, cache_capacity));
  epoch->blob_ = std::move(bytes);
  const auto view = borrow_snapshot(epoch->blob_, error);
  if (!view) return nullptr;
  epoch->checksum_ = snapshot_checksum(epoch->blob_);
  epoch->engine_ = std::make_unique<QueryEngine>(*view, std::size_t{0});
  return epoch;
}

std::string_view Epoch::bytes() const {
  if (mapped_) return mapped_->bytes();
  return blob_;
}

std::string Epoch::answer(std::size_t slot, const std::string& line) const {
  const obs::ScopedLatencyUs timer(latency_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  LruCache<std::string>& cache = caches_[slot];
  if (auto hit = cache.get(line)) return *hit;
  std::string result = engine_->answer(line);
  cache.put(line, result);
  return result;
}

// ---- EpochManager ----

EpochManager::~EpochManager() {
  delete current_.load(std::memory_order_acquire);
}

std::unique_ptr<const Epoch> EpochManager::install(
    std::unique_ptr<const Epoch> next) {
  const Epoch* old = current_.exchange(next.release(), std::memory_order_seq_cst);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  if (old == nullptr) return nullptr;
  // Grace wait: a reader that pinned `old` before the exchange keeps it
  // alive through its slot; one that pinned after sees the new pointer on
  // its re-check and repins. Once every slot has let go of `old`, no
  // reader can acquire it again (the current pointer no longer holds it).
  for (auto& slot : pins_) {
    while (slot.load(std::memory_order_seq_cst) == old) {
      std::this_thread::yield();
    }
  }
  return std::unique_ptr<const Epoch>(old);
}

const Epoch* EpochManager::pin(std::size_t slot) {
  auto& hazard = pins_[slot];
  const Epoch* epoch = current_.load(std::memory_order_seq_cst);
  for (;;) {
    hazard.store(epoch, std::memory_order_seq_cst);
    const Epoch* again = current_.load(std::memory_order_seq_cst);
    if (again == epoch) return epoch;
    // A swap raced between the load and the pin; chase the new epoch.
    epoch = again;
  }
}

void EpochManager::unpin(std::size_t slot) {
  pins_[slot].store(nullptr, std::memory_order_release);
}

// ---- Server ----

Server::Server(ServedOptions options, net::Executor& executor)
    : options_(std::move(options)), executor_(&executor) {}

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
  const auto retired = epochs_.install(std::move(next));
  obs::count("serve.served.swaps");
  if (retired) {
    std::ostringstream fields;
    fields << "\"epoch\": " << retired->id()
           << ", \"queries\": " << retired->queries() << ", \"p50_us\": "
           << retired->latency().quantile(0.50) << ", \"p99_us\": "
           << retired->latency().quantile(0.99) << ", \"p999_us\": "
           << retired->latency().quantile(0.999);
    obs::recorder().event("epoch.retire", fields.str());
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
  const Epoch* base = epochs_.current();
  if (base == nullptr) {
    if (error != nullptr) *error = "no epoch loaded";
    return false;
  }
  const obs::Stopwatch watch;
  auto target = apply_delta(base->bytes(), *delta, error);
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

bool Server::is_control(std::string_view line) const {
  const std::string verb = first_token(line);
  return verb == "swap-snapshot" || verb == "apply-delta" || verb == "epoch" ||
         verb == "quit";
}

std::string Server::control(const std::string& line, bool* quit) {
  std::istringstream is(line);
  std::string verb;
  is >> verb;
  if (verb == "quit") {
    *quit = true;
    return "ok bye";
  }
  if (verb == "epoch") {
    const Epoch* epoch = epochs_.current();
    if (epoch == nullptr) return "error: no epoch loaded";
    std::ostringstream os;
    os << "epoch " << epoch->id() << " checksum=" << hex64(epoch->checksum())
       << " swaps=" << epochs_.swaps() << " queries=" << epoch->queries()
       << " p50_us=" << epoch->latency().quantile(0.50)
       << " p99_us=" << epoch->latency().quantile(0.99)
       << " p999_us=" << epoch->latency().quantile(0.999);
    return os.str();
  }
  std::string path;
  is >> path;
  if (path.empty()) return "error: " + verb + " needs a path";
  std::string error;
  const bool ok = verb == "swap-snapshot" ? swap_snapshot(path, &error)
                                          : apply_delta_file(path, &error);
  if (!ok) return "error: " + error;
  const Epoch* epoch = epochs_.current();
  std::ostringstream os;
  os << "ok epoch=" << epoch->id() << " checksum=" << hex64(epoch->checksum());
  return os.str();
}

void Server::answer_batch(const std::vector<std::string>& lines, LineIo& io) {
  if (lines.empty()) return;
  std::vector<std::string> answers(lines.size());
  if (lines.size() == 1) {
    const EpochPin pin(epochs_, 0);
    answers[0] = pin->answer(0, lines[0]);
  } else {
    executor_->parallel_for(
        lines.size(), [this, &lines, &answers](const net::Executor::Shard& s) {
          const EpochPin pin(epochs_, s.index);
          for (std::size_t i = s.begin; i < s.end; ++i) {
            answers[i] = pin->answer(s.index, lines[i]);
          }
        });
  }
  for (const std::string& answer : answers) io.write_line(answer);
  obs::count("serve.served.queries", lines.size());
}

void Server::serve(LineIo& io) {
  std::vector<std::string> batch;
  std::string line;
  bool quit = false;
  while (!quit && !shutdown_requested()) {
    if (!io.read_line(line)) break;
    if (is_control(line)) {
      // Control verbs are sequencing points: every query received before
      // the verb is answered against the epoch it arrived under.
      answer_batch(batch, io);
      batch.clear();
      io.write_line(control(line, &quit));
      continue;
    }
    batch.push_back(line);
    if (batch.size() >= options_.max_batch || !io.more_buffered()) {
      answer_batch(batch, io);
      batch.clear();
    }
  }
  // Drain: in-flight queries are answered even when a shutdown signal or
  // EOF ended the session mid-batch.
  answer_batch(batch, io);
}

void Server::serve_session(std::istream& in, std::ostream& out) {
  LineIo io;
  io.read_line = [&in](std::string& line) {
    return static_cast<bool>(std::getline(in, line));
  };
  io.more_buffered = [&in] { return in.rdbuf()->in_avail() > 0; };
  io.write_line = [&out](std::string_view line) {
    out << line << '\n';
  };
  serve(io);
  out.flush();
}

int Server::run() {
  if (!options_.listen_path.empty()) return run_unix();
  serve_session(std::cin, std::cout);
  return 0;
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

    // Line transport over the connection fd: buffered reads, poll() for
    // "more input already available" so batches form from pipelined
    // queries without blocking the response.
    std::string buffer;
    std::size_t pos = 0;
    bool eof = false;
    bool overlong = false;
    LineIo io;
    io.read_line = [fd, &buffer, &pos, &eof, &overlong](std::string& line) {
      for (;;) {
        const std::size_t nl = buffer.find('\n', pos);
        if ((nl == std::string::npos ? buffer.size() : nl) - pos >
            kMaxLineBytes) {
          overlong = true;
          return false;
        }
        if (nl != std::string::npos) {
          line.assign(buffer, pos, nl - pos);
          pos = nl + 1;
          if (pos == buffer.size()) {
            buffer.clear();
            pos = 0;
          }
          return true;
        }
        if (eof) return false;
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0) {
          buffer.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0) {
          eof = true;
          if (pos < buffer.size()) {  // unterminated final line
            line.assign(buffer, pos, buffer.size() - pos);
            buffer.clear();
            pos = 0;
            return true;
          }
          return false;
        } else if (errno != EINTR) {
          eof = true;
          return false;
        } else if (g_shutdown.load(std::memory_order_relaxed)) {
          return false;
        }
      }
    };
    io.more_buffered = [fd, &buffer, &pos] {
      if (pos < buffer.size()) return true;
      pollfd pfd{fd, POLLIN, 0};
      return ::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0;
    };
    io.write_line = [fd](std::string_view line) {
      std::string out(line);
      out.push_back('\n');
      std::size_t written = 0;
      while (written < out.size()) {
        // MSG_NOSIGNAL: a peer that hung up mid-reply yields EPIPE here
        // instead of a process-killing SIGPIPE.
        const ssize_t n = ::send(fd, out.data() + written,
                                 out.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;  // peer went away; the session loop ends on read EOF
        }
        written += static_cast<std::size_t>(n);
      }
    };
    serve(io);
    if (overlong) {
      io.write_line("error: line longer than " +
                    std::to_string(kMaxLineBytes) + " bytes; closing session");
    }
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
}

}  // namespace itm::serve
