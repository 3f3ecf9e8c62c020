// Session-protocol tests for the resident server: batches answer in order
// and byte-identically to a standalone QueryEngine, blank and `#` lines get
// no reply, control verbs swap epochs mid-session with clean sequencing,
// bad inputs produce in-band errors without killing the session, and the
// graceful-shutdown flag drains instead of dropping work. Sessions run over
// fds (socket pairs here, a listening unix socket below); a client that
// vanishes mid-reply or sends an endless line cannot kill or bloat the
// server, and a failed send ends the session.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "obs/metrics.h"
#include "serve/delta.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// Connects to a unix socket, retrying while the listener comes up.
// Returns the fd, or -1 when nothing listens within ~5 s.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Sends all of `bytes`, stopping quietly when the peer goes away.
void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

// Reads until EOF (or a reset peer) and returns everything received.
std::string recv_all(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return out;
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = core::Scenario::generate(core::tiny_config(808));
    core::MapBuilder builder(*scenario);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    const auto map = builder.build(options);
    std::ostringstream os;
    write_snapshot(map, *scenario, os);
    base_bytes_ = new std::string(os.str());

    std::string error;
    Snapshot target = *read_snapshot(std::string_view(*base_bytes_), &error);
    target.addresses_probed += 777;
    target.ases.front().activity += 1.0;
    std::ostringstream tos;
    write_snapshot(target, tos);
    target_bytes_ = new std::string(tos.str());
    delta_bytes_ = new std::string(
        *diff_snapshots(*base_bytes_, *target_bytes_, &error));

    base_path_ = new std::string(write_temp(*base_bytes_, "base.itms"));
    target_path_ = new std::string(write_temp(*target_bytes_, "target.itms"));
    delta_path_ = new std::string(write_temp(*delta_bytes_, "delta.itmsd"));

    // A delta chain from the base: each step changes the stats line and
    // the activity ranking.
    chain_ = new std::vector<std::string>{*base_bytes_};
    chain_delta_paths_ = new std::vector<std::string>;
    Snapshot step = *read_snapshot(std::string_view(*base_bytes_), &error);
    for (std::size_t k = 1; k <= kChainSteps; ++k) {
      step.addresses_probed += 1000 + k;
      step.ases.front().activity += static_cast<double>(k);
      std::ostringstream sos;
      write_snapshot(step, sos);
      chain_->push_back(sos.str());
      const auto delta =
          diff_snapshots((*chain_)[k - 1], (*chain_)[k], &error);
      ASSERT_TRUE(delta.has_value()) << error;
      const std::string name = "chain" + std::to_string(k) + ".itmsd";
      chain_delta_paths_->push_back(write_temp(*delta, name.c_str()));
    }
  }
  static void TearDownTestSuite() {
    for (const std::string& path : *chain_delta_paths_) {
      std::remove(path.c_str());
    }
    delete chain_delta_paths_;
    delete chain_;
    std::remove(base_path_->c_str());
    std::remove(target_path_->c_str());
    std::remove(delta_path_->c_str());
    delete delta_path_;
    delete target_path_;
    delete base_path_;
    delete delta_bytes_;
    delete target_bytes_;
    delete base_bytes_;
  }

  void SetUp() override { Server::clear_shutdown(); }
  void TearDown() override { Server::clear_shutdown(); }

  static std::string write_temp(const std::string& bytes, const char* name) {
    // Per-process name: ctest runs each test in its own process, in
    // parallel, and every process removes its files at suite teardown.
    std::string path = ::testing::TempDir() + "server_test_" +
                       std::to_string(::getpid()) + "_" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // A reference answer computed outside the server.
  static std::string expect_answer(const std::string& snapshot_bytes,
                                   const std::string& query) {
    std::string error;
    const auto view = borrow_snapshot(snapshot_bytes, &error);
    EXPECT_TRUE(view.has_value()) << error;
    return QueryEngine(*view, 0).answer(query);
  }

  // `itm served --listen` on a background thread: Server::run() on a unix
  // socket until the destructor requests shutdown and wakes the accept.
  class SocketServer {
   public:
    explicit SocketServer(const char* name)
        : executor_(2),
          path_(::testing::TempDir() + "server_test_" +
                std::to_string(::getpid()) + "_" + name + ".sock"),
          server_(options(path_), executor_) {
      std::string error;
      const bool started = server_.start(&error);
      EXPECT_TRUE(started) << error;
      if (started) {
        thread_ = std::thread([this] { exit_code_ = server_.run(); });
      }
    }
    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;
    ~SocketServer() {
      if (!thread_.joinable()) return;
      Server::request_shutdown();
      const int fd = connect_unix(path_);
      if (fd >= 0) ::close(fd);
      thread_.join();
      EXPECT_EQ(exit_code_, 0);
    }
    // One complete session: send `input`, half-close, read to EOF.
    [[nodiscard]] std::string session(const std::string& input) const {
      const int fd = connect_unix(path_);
      EXPECT_GE(fd, 0) << "no listener on " << path_;
      if (fd < 0) return "";
      send_all(fd, input);
      ::shutdown(fd, SHUT_WR);
      std::string out = recv_all(fd);
      ::close(fd);
      return out;
    }
    [[nodiscard]] const std::string& path() const { return path_; }

   private:
    static ServedOptions options(const std::string& listen_path) {
      ServedOptions o;
      o.snapshot_path = *base_path_;
      o.listen_path = listen_path;
      return o;
    }
    net::Executor executor_;
    std::string path_;
    Server server_;
    int exit_code_ = -1;
    std::thread thread_;  // last: it runs server_ and writes exit_code_
  };

  // A connected AF_UNIX stream pair: [0] for the server, [1] for the test.
  struct SocketPair {
    int fd[2] = {-1, -1};
    SocketPair() {
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fd), 0);
    }
    ~SocketPair() {
      for (const int f : fd) {
        if (f >= 0) ::close(f);
      }
    }
    SocketPair(const SocketPair&) = delete;
    SocketPair& operator=(const SocketPair&) = delete;
    void close_peer() {
      ::close(fd[1]);
      fd[1] = -1;
    }
  };

  // Runs one session over socket pairs: the whole input is written and
  // half-closed first (it must fit the socket buffer), then the replies
  // are read back as lines.
  static std::vector<std::string> run_session(Server& server,
                                              const std::string& input) {
    SocketPair in;
    SocketPair out;
    send_all(in.fd[1], input);
    in.close_peer();
    server.serve_session(in.fd[0], out.fd[0]);
    ::close(out.fd[0]);
    out.fd[0] = -1;
    return lines_of(recv_all(out.fd[1]));
  }

  static constexpr std::size_t kChainSteps = 4;

  static std::string* base_bytes_;
  static std::string* target_bytes_;
  static std::string* delta_bytes_;
  static std::string* base_path_;
  static std::string* target_path_;
  static std::string* delta_path_;
  static std::vector<std::string>* chain_;  // base, then each step's bytes
  static std::vector<std::string>* chain_delta_paths_;  // step k-1 -> k
};

std::string* ServerTest::base_bytes_ = nullptr;
std::string* ServerTest::target_bytes_ = nullptr;
std::string* ServerTest::delta_bytes_ = nullptr;
std::string* ServerTest::base_path_ = nullptr;
std::string* ServerTest::target_path_ = nullptr;
std::string* ServerTest::delta_path_ = nullptr;
std::vector<std::string>* ServerTest::chain_ = nullptr;
std::vector<std::string>* ServerTest::chain_delta_paths_ = nullptr;

TEST_F(ServerTest, StartRejectsBadSnapshots) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = "/no/such/file.itms";
  Server missing(options, executor);
  std::string error;
  EXPECT_FALSE(missing.start(&error));
  EXPECT_FALSE(error.empty());

  const std::string garbage = write_temp("not a snapshot", "garbage.itms");
  options.snapshot_path = garbage;
  Server invalid(options, executor);
  error.clear();
  EXPECT_FALSE(invalid.start(&error));
  EXPECT_FALSE(error.empty());
  std::remove(garbage.c_str());
}

TEST_F(ServerTest, SessionAnswersMatchEngineInOrder) {
  net::Executor executor(2);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  options.max_batch = 2;  // force several multi-query executor batches
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<std::string> queries = {
      "stats",       "top-as 3",       "lookup 10.0.0.1",
      "top-country 2", "bogus line",   "outage 4808",
  };
  std::string input;
  for (const auto& q : queries) input += q + "\n";
  input += "quit\n";
  const auto responses = run_session(server, input);
  ASSERT_EQ(responses.size(), queries.size() + 1);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(responses[i], expect_answer(*base_bytes_, queries[i]))
        << queries[i];
  }
  EXPECT_EQ(responses.back(), "ok bye");
}

TEST_F(ServerTest, BlankAndCommentLinesGetNoReply) {
  net::Executor executor(2);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // An unterminated last line is answered too.
  const auto responses =
      run_session(server, "# leading comment\n\nstats\n\n#x\ntop-as 3");
  EXPECT_EQ(responses,
            (std::vector<std::string>{expect_answer(*base_bytes_, "stats"),
                                      expect_answer(*base_bytes_,
                                                    "top-as 3")}));
  EXPECT_EQ(server.epoch()->queries(), 2u);
}

TEST_F(ServerTest, CommentLineDoesNotHoldBackTheBatch) {
  const SocketServer served("comment");
  const int fd = connect_unix(served.path());
  ASSERT_GE(fd, 0);
  // The client waits for its reply with the connection open: the comment
  // read after the query must not keep the query's batch waiting for
  // more input.
  send_all(fd, "stats\n# waiting for the reply\n");
  std::string reply;
  while (reply.find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 10000), 1) << "no reply within 10 s";
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0);
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply, expect_answer(*base_bytes_, "stats") + "\n");
}

TEST_F(ServerTest, FailedSendEndsTheSession) {
  net::Executor executor(2);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  options.max_batch = 2;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // 4,000 pipelined queries, and a reader that already hung up: the first
  // batch's send fails, and the session stops there instead of answering
  // every query into a closed socket.
  SocketPair in;
  SocketPair out;
  std::string input;
  for (int i = 0; i < 4000; ++i) input += "stats\n";
  send_all(in.fd[1], input);
  in.close_peer();
  out.close_peer();
  server.serve_session(in.fd[0], out.fd[0]);
  EXPECT_EQ(server.epoch()->queries(), 2u);
}

TEST_F(ServerTest, EpochVerbReportsStateAndSessionsResume) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto responses = run_session(server, "stats\nepoch\nquit\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], expect_answer(*base_bytes_, "stats"));
  const std::string prefix =
      "epoch 0 checksum=" + hex64(snapshot_checksum(*base_bytes_));
  EXPECT_EQ(responses[1].rfind(prefix, 0), 0u) << responses[1];
  EXPECT_NE(responses[1].find(" swaps=0 "), std::string::npos);
  EXPECT_NE(responses[1].find(" p99_us="), std::string::npos);
  EXPECT_EQ(responses[2], "ok bye");

  // The server survives the session; a second one answers afresh.
  const auto again = run_session(server, "stats\n");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], expect_answer(*base_bytes_, "stats"));
}

// A CRLF client: the control verbs split on the same whitespace as queries,
// so `epoch\r` and `quit\r` are verbs, not unknown queries.
TEST_F(ServerTest, ControlVerbsAcceptATrailingCarriageReturn) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto responses =
      run_session(server, "stats\r\nepoch\r\nquit\r\nstats\r\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], expect_answer(*base_bytes_, "stats"));
  EXPECT_EQ(responses[1].rfind("epoch 0 checksum=" +
                                   hex64(snapshot_checksum(*base_bytes_)) +
                                   " swaps=0 queries=1 ",
                               0),
            0u)
      << responses[1];
  EXPECT_EQ(responses[2], "ok bye");
}

TEST_F(ServerTest, SwapSnapshotIsASequencingPoint) {
  net::Executor executor(2);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto responses = run_session(
      server, "stats\nswap-snapshot " + *target_path_ + "\nstats\nquit\n");
  ASSERT_EQ(responses.size(), 4u);
  // The query before the verb answers against the old epoch, the one after
  // against the new — and the two stats lines must actually differ.
  EXPECT_EQ(responses[0], expect_answer(*base_bytes_, "stats"));
  EXPECT_EQ(responses[1], "ok epoch=1 checksum=" +
                              hex64(snapshot_checksum(*target_bytes_)));
  EXPECT_EQ(responses[2], expect_answer(*target_bytes_, "stats"));
  EXPECT_NE(responses[2], responses[0]);
  EXPECT_EQ(responses[3], "ok bye");
}

TEST_F(ServerTest, ApplyDeltaSwapsToByteIdenticalTarget) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto responses = run_session(
      server, "apply-delta " + *delta_path_ + "\nstats\nepoch\nquit\n");
  ASSERT_EQ(responses.size(), 4u);
  // The post-apply checksum equals the fresh target snapshot's checksum —
  // the wire-visible form of the byte-identity guarantee.
  EXPECT_EQ(responses[0], "ok epoch=1 checksum=" +
                              hex64(snapshot_checksum(*target_bytes_)));
  EXPECT_EQ(responses[1], expect_answer(*target_bytes_, "stats"));
  EXPECT_EQ(responses[2].rfind("epoch 1 checksum=", 0), 0u) << responses[2];
  EXPECT_EQ(responses[3], "ok bye");
  EXPECT_EQ(server.epoch()->bytes(),
            std::string_view(*target_bytes_));
}

TEST_F(ServerTest, DeltaChainAnswersLikeAFreshEngineAtEveryStep) {
  net::Executor executor(2);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Probes before and after every apply-delta: each delta applies to the
  // live epoch the previous one installed, and each verb is a sequencing
  // point, so every probe answers exactly as a fresh engine over the
  // version the session has reached.
  const std::vector<std::string> probes = {"stats", "top-as 3"};
  std::string input;
  std::vector<std::string> expected;
  for (std::size_t k = 0; k <= kChainSteps; ++k) {
    for (const std::string& probe : probes) {
      input += probe + "\n";
      expected.push_back(expect_answer((*chain_)[k], probe));
    }
    if (k == kChainSteps) break;
    input += "apply-delta " + (*chain_delta_paths_)[k] + "\n";
    expected.push_back("ok epoch=" + std::to_string(k + 1) + " checksum=" +
                       hex64(snapshot_checksum((*chain_)[k + 1])));
  }
  input += "quit\n";
  expected.push_back("ok bye");
  EXPECT_EQ(run_session(server, input), expected);
  // Every step must answer differently, or the probes prove nothing.
  for (std::size_t k = 1; k <= kChainSteps; ++k) {
    EXPECT_NE(expect_answer((*chain_)[k], "stats"),
              expect_answer((*chain_)[k - 1], "stats"));
  }
}

TEST_F(ServerTest, SwapCountExcludesTheInitialLoad) {
  obs::MetricsRegistry registry;
  const obs::ScopedMetrics scope(registry);
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(registry.counter_value("serve.served.swaps"), std::nullopt);

  const auto responses = run_session(
      server, "apply-delta " + *delta_path_ + "\nepoch\nquit\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[1].rfind("epoch 1 checksum=", 0), 0u) << responses[1];
  EXPECT_NE(responses[1].find(" swaps=1 "), std::string::npos)
      << responses[1];
  EXPECT_EQ(server.swaps(), 1u);
  EXPECT_EQ(registry.counter_value("serve.served.swaps"), 1u);
}

TEST_F(ServerTest, ControlErrorsStayInBand) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const auto responses = run_session(server,
                                     "swap-snapshot /no/such.itms\n"
                                     "apply-delta\n"
                                     "apply-delta " + *base_path_ + "\n"
                                     "stats\nquit\n");
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].rfind("error: ", 0), 0u) << responses[0];
  EXPECT_EQ(responses[1], "error: apply-delta needs a path");
  EXPECT_EQ(responses[2].rfind("error: ", 0), 0u) << responses[2];
  // The epoch is untouched and the session keeps serving.
  EXPECT_EQ(responses[3], expect_answer(*base_bytes_, "stats"));
  EXPECT_EQ(responses[4], "ok bye");
  EXPECT_EQ(server.epoch()->id(), 0u);
}

TEST_F(ServerTest, ShutdownFlagEndsSessionsAndClears) {
  net::Executor executor(1);
  ServedOptions options;
  options.snapshot_path = *base_path_;
  Server server(options, executor);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  EXPECT_FALSE(Server::shutdown_requested());
  Server::request_shutdown();
  EXPECT_TRUE(Server::shutdown_requested());
  // A session started after the flag is set stops before reading input.
  const auto responses = run_session(server, "stats\nstats\n");
  EXPECT_TRUE(responses.empty());

  Server::clear_shutdown();
  const auto after = run_session(server, "stats\n");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], expect_answer(*base_bytes_, "stats"));
}

TEST_F(ServerTest, ClientClosingMidReplyDoesNotKillTheServer) {
  const SocketServer served("sigpipe");
  {
    // Far more reply bytes than a socket buffer holds, and a client that
    // hangs up without reading any of them: the server's writes hit a
    // closed peer. Plain write() would raise SIGPIPE and end the process.
    const int fd = connect_unix(served.path());
    ASSERT_GE(fd, 0);
    std::string input;
    for (int i = 0; i < 4000; ++i) input += "top-as 100\n";
    send_all(fd, input);
    ::close(fd);
  }
  // Still alive: the next session is answered in full.
  EXPECT_EQ(lines_of(served.session("stats\nquit\n")),
            (std::vector<std::string>{expect_answer(*base_bytes_, "stats"),
                                      "ok bye"}));
}

TEST_F(ServerTest, OverlongLineEndsTheSessionWithOneError) {
  const SocketServer served("overlong");
  // A query, then 1 MiB with no newline. The query is answered, the
  // endless line gets one deterministic error, and the session closes
  // without the server buffering the rest.
  const auto responses =
      lines_of(served.session("stats\n" + std::string(1 << 20, 'x')));
  EXPECT_EQ(responses,
            (std::vector<std::string>{
                expect_answer(*base_bytes_, "stats"),
                "error: line longer than 8192 bytes; closing session"}));
  // A path at PATH_MAX still fits under the limit.
  const std::string long_path = "/" + std::string(4095, 'p');
  const auto control = lines_of(served.session("apply-delta " + long_path +
                                               "\nstats\nquit\n"));
  ASSERT_EQ(control.size(), 3u);
  EXPECT_EQ(control[0].rfind("error: ", 0), 0u) << control[0];
  EXPECT_EQ(control[0].find("line longer"), std::string::npos);
  EXPECT_EQ(control[1], expect_answer(*base_bytes_, "stats"));
  EXPECT_EQ(control[2], "ok bye");
}

// An Epoch on its own: answers through its answer cache and counts what
// it answered.
using HotSwapTest = ServerTest;

TEST_F(HotSwapTest, EpochAnswersAndCounts) {
  std::string error;
  const auto epoch =
      Epoch::from_bytes(0, *base_bytes_, /*cache_capacity=*/64, &error);
  ASSERT_NE(epoch, nullptr) << error;
  EXPECT_EQ(epoch->checksum(), snapshot_checksum(*base_bytes_));
  EXPECT_EQ(epoch->bytes(), std::string_view(*base_bytes_));
  std::vector<std::string> lines{"stats", "stats"};
  epoch->answer_batch(lines, net::Executor::serial());
  EXPECT_EQ(lines[0], expect_answer(*base_bytes_, "stats"));
  EXPECT_EQ(lines[1], lines[0]);
  EXPECT_EQ(epoch->engine().cache_counts().hits, 1u);
  EXPECT_EQ(epoch->queries(), 2u);
}

}  // namespace
}  // namespace itm::serve
