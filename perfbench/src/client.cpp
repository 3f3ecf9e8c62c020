#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <deque>

#include "obs/resource.h"

namespace perfbench {

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[value & 0xf]);
    value >>= 4;
  } while (value != 0);
  return out;
}

namespace {

// Reads "key=<number>" from a reply line; -1 when absent.
double number_after(const std::string& line, const std::string& key) {
  const auto at = line.find(" " + key + "=");
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
}

struct Pending {
  std::size_t item;
  std::uint64_t sent_ns;
};

}  // namespace

ClientResult run_closed_loop(int fd, const Plan& plan,
                             const ClientOptions& options,
                             std::uint64_t& epoch_id) {
  ClientResult result;
  result.query_latency_us.reserve(1u << 20);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  const auto fail = [&result](const std::string& why) {
    ++result.failed;
    if (result.first_failure.empty()) result.first_failure = why;
  };
  const auto check = [&](const StreamItem& item, const std::string& reply,
                         std::uint64_t latency_ns) {
    if (reply.rfind("error:", 0) == 0) {
      fail("error reply to '" + item.line + "': " + reply);
      return;
    }
    switch (item.kind) {
      case StreamItem::Kind::kQuery:
        if (reply != plan.answers[item.ref]) {
          fail("wrong answer to '" + item.line + "': " + reply);
          return;
        }
        ++result.queries;
        result.query_latency_us.push_back(static_cast<double>(latency_ns) * 1e-3);
        return;
      case StreamItem::Kind::kEpoch: {
        const std::string want = "epoch " + std::to_string(epoch_id) +
                                 " checksum=" + hex64(plan.chain_checksums[item.ref]) + " ";
        if (reply.rfind(want, 0) != 0) {
          fail("wrong epoch reply: " + reply);
          return;
        }
        result.server_p50_us.push_back(number_after(reply, "p50_us"));
        result.server_p99_us.push_back(number_after(reply, "p99_us"));
        return;
      }
      case StreamItem::Kind::kApplyDelta: {
        ++epoch_id;
        const std::string want = "ok epoch=" + std::to_string(epoch_id) +
                                 " checksum=" + hex64(plan.chain_checksums[item.ref]);
        if (reply != want) {
          fail("wrong apply-delta reply: " + reply);
          return;
        }
        result.apply_ms.push_back(static_cast<double>(latency_ns) * 1e-6);
        return;
      }
    }
  };

  std::deque<Pending> pending;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::size_t next = 0;
  // Time stamps are nanoseconds since the loop started.
  const itm::obs::Stopwatch clock;
  const auto deadline = static_cast<std::uint64_t>(options.seconds * 1e9);
  const auto stall_ns = static_cast<std::uint64_t>(kStallTimeoutS * 1e9);
  std::uint64_t last_progress = 0;
  bool closed = false;
  bool stalled = false;

  for (;;) {
    std::uint64_t now = clock.elapsed_ns();
    const bool issuing =
        now < deadline && (options.max_items == 0 || result.attempted < options.max_items);
    if (issuing) {
      while (pending.size() < options.in_flight &&
             (options.max_items == 0 || result.attempted < options.max_items)) {
        const StreamItem& item = plan.items[next % plan.items.size()];
        out += item.line;
        out += '\n';
        pending.push_back({next % plan.items.size(), now});
        ++next;
        ++result.attempted;
      }
    }
    if (out_pos < out.size()) {
      const ssize_t n = ::write(fd, out.data() + out_pos, out.size() - out_pos);
      if (n > 0) {
        out_pos += static_cast<std::size_t>(n);
        if (out_pos == out.size()) {
          out.clear();
          out_pos = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        closed = true;
      }
    }
    if (closed || (!issuing && pending.empty())) break;

    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    ::poll(&pfd, 1, 50);
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      else if (errno != EAGAIN && errno != EINTR) closed = true;
      break;
    }
    now = clock.elapsed_ns();
    std::size_t begin = 0;
    for (std::size_t nl; (nl = in.find('\n', begin)) != std::string::npos; begin = nl + 1) {
      if (pending.empty()) {
        fail("unsolicited reply: " + in.substr(begin, nl - begin));
        continue;
      }
      const Pending p = pending.front();
      pending.pop_front();
      check(plan.items[p.item], in.substr(begin, nl - begin), now - p.sent_ns);
      last_progress = now;
    }
    in.erase(0, begin);
    if (closed) break;
    if (now - last_progress > stall_ns && !pending.empty()) {
      stalled = true;
      break;
    }
  }
  // Whatever is still outstanding never got an answer.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    fail(stalled ? "no reply within the stall timeout"
                 : "connection closed with replies outstanding");
  }
  result.wall_s = static_cast<double>(last_progress) * 1e-9;
  return result;
}

}  // namespace perfbench
