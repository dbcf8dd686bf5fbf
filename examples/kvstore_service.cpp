// A latency-sensitive key-value service (the paper's Cassandra scenario):
// runs the LSM-style store under a chosen collector and prints the report an
// SLA owner would look at.
//
//   ./kvstore_service [g1|cms|zgc|ng2c|rolp] [seconds] [open|closed]
//
// `open` (the default) drives the store open-loop: arrivals follow a schedule
// fixed in advance at ROLP_SERVICE_RATE requests/s (0 = calibrate capacity
// closed-loop, then offer 2x that — deliberate overload), lateness is charged
// from the scheduled arrival so GC pauses cannot hide behind coordinated
// omission, and the run ends with an SLO_VERDICT line a CI gate can parse.
// ROLP_SHARDS=N (N > 1) spreads the open-loop run over N VM shards.
// `closed` keeps the original as-fast-as-possible bench loop.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/service/open_loop.h"
#include "src/service/sharded.h"
#include "src/workloads/driver.h"
#include "src/workloads/kvstore.h"

using namespace rolp;

namespace {

int RunClosed(const VmConfig& config, KvStoreWorkload& workload, double seconds,
              const std::string& gc_name) {
  DriverOptions run;
  run.duration_s = seconds;
  run.warmup_s = seconds * 0.4;

  std::printf("running %s for %.0fs under %s (closed loop, warmup %.0fs excluded)...\n",
              workload.name().c_str(), seconds, gc_name.c_str(), run.warmup_s);
  RunResult r = RunWorkload(config, workload, run);

  std::printf("\nthroughput: %.0f ops/s over %.1fs (%llu ops)\n", r.throughput, r.measured_s,
              static_cast<unsigned long long>(r.ops));
  std::printf("memtable flushes: %llu, compactions: %llu\n",
              static_cast<unsigned long long>(workload.flushes()),
              static_cast<unsigned long long>(workload.compactions()));
  std::printf("\nGC pause profile (%llu pauses%s):\n",
              static_cast<unsigned long long>(r.pause_count_alltime),
              r.pause_log_truncated ? ", ring truncated; all-time aggregates" : "");
  for (double p : {50.0, 90.0, 99.0, 99.9, 100.0}) {
    std::printf("  p%-6.1f %8.2f ms\n", p, r.PausePercentileMs(p));
  }
  std::printf("  total   %8.2f ms stopped (%.2f%% of run)\n", r.TotalPauseMs(),
              r.TotalPauseMs() / (r.measured_s * 10.0));
  std::printf("max heap used: %.1f MB\n", static_cast<double>(r.max_used_bytes) / 1048576.0);
  if (r.first_decision_cycle > 0) {
    std::printf("ROLP learned its first lifetime decisions at GC cycle %llu\n",
                static_cast<unsigned long long>(r.first_decision_cycle));
  }
  return 0;
}

int RunOpen(const VmConfig& config, KvStoreWorkload& workload, ServiceOptions svc,
            double seconds, const std::string& gc_name) {
  svc.duration_s = seconds;

  std::printf("running %s for %.0fs under %s (open loop, %s)...\n",
              workload.name().c_str(), seconds, gc_name.c_str(),
              svc.rate_rps > 0 ? "fixed rate"
                               : "calibrating capacity, then deliberate overload");
  ServiceResult r = RunService(config, workload, svc);

  std::printf("\n");
  PrintServiceReport(stdout, r);
  std::printf("memtable flushes: %llu, compactions: %llu\n",
              static_cast<unsigned long long>(workload.flushes()),
              static_cast<unsigned long long>(workload.compactions()));
  // Machine-readable gate line (scripts/check_slo.py parses this).
  std::printf("SLO_VERDICT %s\n", r.verdict_json.c_str());
  return r.survived ? 0 : 1;
}

int RunSharded(const VmConfig& config, const KvStoreOptions& options,
               ShardedServiceOptions sharded, double seconds, const std::string& gc_name) {
  sharded.service.duration_s = seconds;

  std::printf("running kvstore for %.0fs under %s across %d VM shards (open loop, %s)...\n",
              seconds, gc_name.c_str(), sharded.shards,
              sharded.service.rate_rps > 0
                  ? "fixed rate"
                  : "calibrating capacity, then deliberate overload");
  ShardedServiceResult r = RunShardedService(
      config, [&options](int) { return std::make_unique<KvStoreWorkload>(options); },
      sharded);

  std::printf("\n");
  PrintShardedReport(stdout, r);
  // Machine-readable gate line (scripts/check_slo.py parses this). The merged
  // verdict carries "shards":N plus the RSS settle watch results.
  std::printf("SLO_VERDICT %s\n", r.verdict_json.c_str());
  return r.survived ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string gc_name = argc > 1 ? argv[1] : "rolp";
  double seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
  std::string mode = argc > 3 ? argv[3] : "open";

  VmConfig config;
  std::string error;
  if (!VmConfig::ParseFlags({"-Xmx96m", "-XX:GC=" + gc_name}, &config, &error)) {
    std::fprintf(stderr, "%s\nusage: %s [g1|cms|zgc|ng2c|rolp] [seconds] [open|closed]\n",
                 error.c_str(), argv[0]);
    return 1;
  }
  config.young_fraction = 0.10;
  config.jit.hot_threshold = 100;

  KvStoreOptions options;
  options.write_fraction = 0.75;  // the paper's write-intensive YCSB mix
  options.memtable_flush_rows = 24000;

  if (mode == "closed") {
    KvStoreWorkload workload(options);
    return RunClosed(config, workload, seconds, gc_name);
  }
  if (mode != "open") {
    std::fprintf(stderr, "unknown mode '%s'\nusage: %s [gc] [seconds] [open|closed]\n",
                 mode.c_str(), argv[0]);
    return 1;
  }
  ShardedServiceOptions sharded = ShardedServiceOptions::FromEnv();
  if (sharded.shards > 1) {
    return RunSharded(config, options, sharded, seconds, gc_name);
  }
  KvStoreWorkload workload(options);
  return RunOpen(config, workload, sharded.service, seconds, gc_name);
}
