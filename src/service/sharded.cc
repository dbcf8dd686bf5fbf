#include "src/service/sharded.h"

#include <algorithm>
#include <cinttypes>

#include "src/heap/region_manager.h"
#include "src/util/random.h"

namespace rolp {

ConsistentHashRouter::ConsistentHashRouter(int shards) : shards_(shards) {
  ring_.reserve(static_cast<size_t>(shards) * kVnodes);
  for (int s = 0; s < shards; s++) {
    uint64_t seed = 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(s) << 32);
    for (int v = 0; v < kVnodes; v++) {
      ring_.emplace_back(SplitMix64(&seed), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ConsistentHashRouter::ShardFor(uint64_t key) const {
  uint64_t point = Mix64(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(point, -1));
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around the ring
  }
  return it->second;
}

ShardedServiceOptions ShardedServiceOptions::FromEnv() {
  ShardedServiceOptions o;
  o.shards = EnvShardCount();
  o.service = ServiceOptions::FromEnv();
  o.uncommit_ms = HeapArenaOptions::FromEnv().uncommit_ms;
  return o;
}

void PrintShardedReport(std::FILE* out, const ShardedServiceResult& r) {
  std::fprintf(out,
               "sharded service: shards=%zu offered=%" PRIu64 " (%.0f rps%s)\n",
               r.shards.size(), r.offered, r.offered_rps,
               r.calibrated_rps > 0 ? " calibrated" : "");
  for (size_t s = 0; s < r.shards.size(); s++) {
    std::fprintf(out, "shard %zu: slo=%s\n", s, r.shards[s].slo_pass ? "pass" : "FAIL");
    PrintServiceReport(out, r.shards[s]);
  }
  if (r.rss_load_bytes > 0) {
    std::fprintf(out, "rss: load=%.1fMB settled=%.1fMB (drop %.1f%%)\n",
                 static_cast<double>(r.rss_load_bytes) / (1024.0 * 1024.0),
                 static_cast<double>(r.rss_settled_bytes) / (1024.0 * 1024.0),
                 100.0 * (1.0 - static_cast<double>(r.rss_settled_bytes) /
                                    static_cast<double>(r.rss_load_bytes)));
  }
  // The merged lateness percentiles are in the merged verdict (verdict_json).
  const SloReporter::Snapshot& s = r.slo;
  std::fprintf(out,
               "merged: total=%" PRIu64 " ok=%" PRIu64 " miss=%" PRIu64
               " rejected=%" PRIu64 " shed=%" PRIu64 " error_rate=%.3f\n",
               s.total, s.ok, s.deadline_miss, s.rejected, s.shed, s.error_rate);
}

}  // namespace rolp
