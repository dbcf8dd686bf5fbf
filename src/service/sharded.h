// Sharded multi-VM service front end (DESIGN.md section 15): N independent VM
// shards behind one open-loop generator. Keys route to shards by consistent
// hashing, each shard runs its own admission/queue/workers/SLO sub-window,
// and the per-shard reporters merge into one verdict at the end — the
// multi-socket deployment shape ROLP targets, scaled down to one process.
//
// The harness itself is the open-loop engine in open_loop.cc: RunService is
// its one-shard case, RunShardedService builds N shards from a factory. This
// header adds what a multi-VM run needs on top: the router, the options and
// result types, and the report.
#ifndef SRC_SERVICE_SHARDED_H_
#define SRC_SERVICE_SHARDED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/service/open_loop.h"

namespace rolp {

// Consistent-hash ring: 64 points per shard on a 64-bit ring, lookups by
// binary search. Stable under shard-count changes in the usual
// consistent-hashing sense (only ~1/N of keys move), which is what a real
// front end needs for shard scale-out; here it also guarantees every key maps
// to exactly one shard — the routing-conservation property the tests check.
class ConsistentHashRouter {
 public:
  explicit ConsistentHashRouter(int shards);

  int ShardFor(uint64_t key) const;
  int shards() const { return shards_; }

 private:
  static constexpr int kVnodes = 64;

  int shards_;
  std::vector<std::pair<uint64_t, int>> ring_;  // (point, shard), sorted
};

struct ShardedServiceOptions {
  int shards = 1;
  // Per-run knobs; `workers` is per shard, and the calibrated rate scales by
  // the shard count (each shard contributes capacity).
  ServiceOptions service;
  // After the last arrival drains, run one full collection per shard and
  // watch process RSS settle for up to 2 x uncommit_ms (0 skips the watch).
  // The observed drop lands in the verdict JSON.
  int64_t uncommit_ms = 0;

  // service from ServiceOptions::FromEnv, shards from EnvShardCount, uncommit
  // watch from the heap's HeapArenaOptions::FromEnv.
  static ShardedServiceOptions FromEnv();
};

struct ShardedServiceResult {
  // One full ServiceResult per shard: VM statistics, counters, governor
  // activity and the shard's sub-window verdict. A shard's `offered` counts
  // the fresh arrivals routed to it.
  std::vector<ServiceResult> shards;
  uint64_t offered = 0;  // fresh arrivals generated (== sum of shard offered)
  double offered_rps = 0.0;
  double calibrated_rps = 0.0;  // per-shard capacity probe (0 = rate given)
  bool survived = true;
  bool slo_pass = false;          // merged verdict
  std::string verdict_json;       // merged SLO_VERDICT payload
  SloReporter::Snapshot slo;      // merged windows/segments/counts

  // RSS settle watch (with uncommit_ms 0, both hold the load-stop RSS).
  uint64_t rss_load_bytes = 0;     // at load stop
  uint64_t rss_settled_bytes = 0;  // minimum observed within the watch window
};

// Runs `factory(shard)`-built workloads across `options.shards` VM shards
// under one open-loop arrival schedule. Prints nothing.
ShardedServiceResult RunShardedService(
    const VmConfig& vm_config,
    const std::function<std::unique_ptr<Workload>(int shard)>& factory,
    const ShardedServiceOptions& options);

// Per-shard service reports (PrintServiceReport) under one header, then the
// merged outcome counts and the RSS settle watch.
void PrintShardedReport(std::FILE* out, const ShardedServiceResult& result);

}  // namespace rolp

#endif  // SRC_SERVICE_SHARDED_H_
