// Tests for the benchmark's own code: seeded generators, the percentile
// rule, span self time, and failure counting against a live server.
//
//   ctest --test-dir .bench_build/cmake   (or: python3 perfbench/run.py --selftest)
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "proc.h"
#include "net/executor.h"
#include "serve/delta.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "spans.h"
#include "stats.h"
#include "streams.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ") failed\n"; \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

using itm::serve::Snapshot;

// A small valid snapshot: 2 countries, 20 ASes, 50 client /24s, one
// service mapping, two endpoints and a recommended link.
Snapshot synthetic_snapshot() {
  Snapshot snap;
  snap.seed = 7;
  snap.addresses_probed = 12800;
  snap.observed_links = 40;
  for (int i = 0; i < 20; ++i) snap.strings.push_back("AS-" + std::to_string(i));
  snap.strings.push_back("Country-0");
  snap.strings.push_back("Country-1");
  snap.strings.push_back("Operator");
  snap.countries = {{0, 20}, {1, 21}};
  for (std::uint32_t i = 0; i < 20; ++i) {
    snap.ases.push_back({i, i, i % 2, i % 3, i % 2 == 0 ? 1u : 0u, 1.5 * (i + 1)});
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    snap.prefixes.push_back({(10u << 24) + i * 256, 24, i % 20});
  }
  snap.endpoints.push_back({(11u << 24) + 1, 3, 22, 2, 48.0, 2.0});
  snap.endpoints.push_back({(11u << 24) + 2, 4, itm::serve::kNoRef, 0, 0.0, 0.0});
  itm::serve::ServiceMapping mapping;
  mapping.service = 3;
  for (std::uint32_t i = 0; i < 10; ++i) {
    mapping.entries.push_back({(10u << 24) + i * 256, 24, (11u << 24) + 1});
  }
  snap.mappings.push_back(mapping);
  snap.links.push_back({0, 1, 0.5});
  return snap;
}

std::string bytes_of(const Snapshot& snap) {
  std::ostringstream os;
  itm::serve::write_snapshot(snap, os);
  return os.str();
}

void test_generators_are_deterministic() {
  const Snapshot snap = synthetic_snapshot();
  std::string error;
  CHECK(itm::serve::read_snapshot(bytes_of(snap), &error).has_value());
  CHECK(perfbench::lookup_stream(snap, 5, 500) == perfbench::lookup_stream(snap, 5, 500));
  CHECK(perfbench::lookup_stream(snap, 5, 500) != perfbench::lookup_stream(snap, 6, 500));
  CHECK(perfbench::mixed_stream(snap, 5, 500) == perfbench::mixed_stream(snap, 5, 500));
  CHECK(perfbench::mixed_stream(snap, 5, 500) != perfbench::mixed_stream(snap, 6, 500));
  // Every verb of the mix appears in it.
  const auto mixed = perfbench::mixed_stream(snap, 5, 2000);
  for (const char* verb : {"lookup ", "as ", "outage ", "country ", "top-as ", "top-country ",
                           "stats"}) {
    bool seen = false;
    for (const auto& line : mixed) seen = seen || line.rfind(verb, 0) == 0;
    CHECK(seen);
  }

  const auto chain = perfbench::snapshot_chain(snap, 9, 3);
  CHECK(chain == perfbench::snapshot_chain(snap, 9, 3));
  CHECK(chain != perfbench::snapshot_chain(snap, 10, 3));
  CHECK(chain.size() == 3 && chain[0] == bytes_of(snap));
  // Snapshot k is k probing increments on from the base.
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const auto next = itm::serve::read_snapshot(chain[k], &error);
    CHECK(next && next->addresses_probed == snap.addresses_probed + 4096 * k);
  }
  const auto deltas = perfbench::chain_deltas(chain);
  CHECK(deltas == perfbench::chain_deltas(chain));
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const auto target = itm::serve::apply_delta(chain[k], deltas[k], &error);
    CHECK(target && *target == chain[(k + 1) % chain.size()]);
  }
}

void test_percentile_rule() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  auto p99 = perfbench::percentile(samples, 0.99);
  CHECK(p99 && *p99 == 990.0);  // exactly ten samples beyond
  samples.pop_back();
  CHECK(!perfbench::percentile(samples, 0.99));  // 999 samples: nine beyond
  std::vector<double> twenty(20, 1.0);
  CHECK(perfbench::percentile(twenty, 0.5).has_value());
  std::vector<double> nineteen(19, 1.0);
  CHECK(!perfbench::percentile(nineteen, 0.5));
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_self_time() {
  perfbench::SpanRecorder spans(1);
  const std::size_t root = spans.add("root", perfbench::SpanRecorder::kNoParent, 0, 100);
  const std::size_t a = spans.add("a", root, 10, 40);
  spans.add("leaf", a, 15, 20);
  spans.add("b", root, 30, 60);   // overlaps a: counted once
  spans.add("c", root, 90, 120);  // clipped to the root's end
  const auto self = spans.self_s();
  const auto ns = [](double s) { return static_cast<long>(s * 1e9 + 0.5); };
  CHECK(ns(self.at("root")) == 40);
  CHECK(ns(self.at("a")) == 25);
  CHECK(ns(self.at("leaf")) == 5);
  CHECK(ns(self.at("b")) == 30);
  CHECK(ns(self.at("c")) == 30);
  CHECK(ns(spans.total_s("a")) == 30);
  std::ostringstream os;
  spans.write_chrome_trace(os);
  CHECK(os.str().find("\"parent\": null") != std::string::npos);
  CHECK(os.str().find("\"run\": 1") != std::string::npos);
}

// A wrong expected answer and a corrupted delta, sent to a real in-process
// server over its socket, are counted as failures; the good replies pass.
void test_failures_are_counted() {
  char dir_template[] = "perfbench-test-XXXXXX";
  const std::string dir = ::mkdtemp(dir_template);
  const Snapshot snap = synthetic_snapshot();
  const auto chain = perfbench::snapshot_chain(snap, 3, 2);
  auto deltas = perfbench::chain_deltas(chain);
  const std::string snapshot_path = dir + "/base.itms";
  std::ofstream(snapshot_path, std::ios::binary) << chain[0];
  std::ofstream(dir + "/good.itmsd", std::ios::binary) << deltas[0];
  std::string corrupt = deltas[1];
  corrupt[corrupt.size() / 2] ^= 0x5a;
  std::ofstream(dir + "/corrupt.itmsd", std::ios::binary) << corrupt;

  std::string error;
  const auto view0 = itm::serve::borrow_snapshot(chain[0], &error);
  const auto view1 = itm::serve::borrow_snapshot(chain[1], &error);
  const itm::serve::QueryEngine engine0(*view0, 0);
  const itm::serve::QueryEngine engine1(*view1, 0);

  perfbench::Plan plan;
  plan.chain_checksums = {itm::serve::snapshot_checksum(chain[0]),
                          itm::serve::snapshot_checksum(chain[1])};
  using Kind = perfbench::StreamItem::Kind;
  plan.answers = {engine0.answer("as 3"), "as 4 name=wrong", engine1.answer("top-as 3")};
  plan.items = {{Kind::kQuery, "as 3", 0},
                {Kind::kQuery, "as 4", 1},  // wrong expectation
                {Kind::kApplyDelta, "apply-delta " + dir + "/good.itmsd", 1},
                {Kind::kEpoch, "epoch", 1},
                {Kind::kQuery, "top-as 3", 2},
                {Kind::kApplyDelta, "apply-delta " + dir + "/corrupt.itmsd", 0}};

  itm::net::Executor executor(1);
  itm::serve::ServedOptions options;
  options.snapshot_path = snapshot_path;
  options.listen_path = dir + "/s.sock";
  itm::serve::Server server(options, executor);
  CHECK(server.start(&error));
  itm::serve::Server::clear_shutdown();
  std::thread thread([&server] { (void)server.run(); });
  int fd = -1;
  for (int i = 0; i < 2000 && fd < 0; ++i) {
    fd = perfbench::connect_unix(options.listen_path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(fd >= 0);
  perfbench::ClientOptions client{2, 60.0};
  client.max_items = plan.items.size();
  std::uint64_t epoch_id = 0;
  const auto result = perfbench::run_closed_loop(fd, plan, client, epoch_id);
  ::close(fd);
  itm::serve::Server::request_shutdown();
  const int wake = perfbench::connect_unix(options.listen_path);  // unblock accept()
  if (wake >= 0) ::close(wake);
  thread.join();
  itm::serve::Server::clear_shutdown();

  CHECK(result.attempted == 6);
  CHECK(result.failed == 2);   // the wrong answer and the corrupted delta
  CHECK(result.queries == 2);  // "as 3" and "top-as 3" on the delta's epoch
  CHECK(result.apply_ms.size() == 1);
  CHECK(result.server_p50_us.size() == 1);
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  test_generators_are_deterministic();
  test_percentile_rule();
  test_self_time();
  test_failures_are_counted();
  if (g_failures == 0) std::cout << "perfbench_tests: all passed\n";
  return g_failures == 0 ? 0 : 1;
}
