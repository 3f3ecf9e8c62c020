#include "scan/ecs_mapper.h"

#include "dns/cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itm::scan {

std::unordered_map<Ipv4Prefix, Ipv4Addr> EcsMapper::sweep(
    const cdn::Service& service, std::span<const Ipv4Prefix> prefixes,
    net::Executor& executor) const {
  ITM_SPAN("scan.ecs.sweep");
  // Each ECS query is an independent read of the authoritative server;
  // answers land in per-index slots, then insert in prefix order.
  const auto answers = executor.parallel_map<dns::AuthoritativeAnswer>(
      prefixes.size(), [this, &service, prefixes](std::size_t i) {
        return authoritative_->answer(service, prefixes[i], vantage_city_);
      });
  std::unordered_map<Ipv4Prefix, Ipv4Addr> out;
  out.reserve(prefixes.size());
  std::uint64_t scoped = 0;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    out.emplace(prefixes[i], answers[i].address);
    // The authoritative echoes either a /24 scope (ECS honored) or the
    // global scope (query answered by resolver location alone).
    if (answers[i].cache_scope != dns::DnsCache::kGlobalScope) ++scoped;
  }
  obs::count("scan.ecs.queries", prefixes.size());
  obs::count("scan.ecs.scoped_answers", scoped);
  obs::count("scan.ecs.sweeps");
  return out;
}

}  // namespace itm::scan
