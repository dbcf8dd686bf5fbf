// Market-data ingest comparison (DESIGN.md §16): the identical three-stage
// pipeline (feed parse -> order-book update -> derived analytics) under four
// memory arms — pooled-manual slab pools (no GC), G1-style regional,
// ROLP+NG2C pretenuring, and ZGC — in one invocation, ending with a single
// machine-readable INGEST_VERDICT line that scripts/check_ingest.py gates.
//
//   marketdata_pipeline [arm ...]
//
// Arms: pooled | g1 | rolp | zgc | all (default: all). Environment knobs:
//   ROLP_INGEST_RATE        events/s schedule           (default 100000)
//   ROLP_INGEST_EVENTS      scheduled events per arm    (default 300000)
//   ROLP_FAULTS / ROLP_CHAOS  fault injection over the ingest.* points
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/fault_injection.h"
#include "src/workloads/marketdata/pipeline.h"

using rolp::marketdata::ArmKind;
using rolp::marketdata::IngestOptions;
using rolp::marketdata::IngestResult;

namespace {

void SplitArms(const std::string& spec, std::vector<ArmKind>* arms) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string tok = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok == "all") {
      arms->assign({ArmKind::kPooled, ArmKind::kG1, ArmKind::kRolp, ArmKind::kZgc});
    } else if (!tok.empty()) {
      ArmKind arm;
      if (!rolp::marketdata::ParseArm(tok, &arm)) {
        std::fprintf(stderr, "unknown arm '%s' (pooled|g1|rolp|zgc|all)\n", tok.c_str());
        std::exit(2);
      }
      arms->push_back(arm);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The pooled arm never constructs a VM (which is where fault specs are
  // normally loaded), so arm the ingest.* fault points here for every arm.
  rolp::FaultInjection::Instance().LoadFromEnv();
  rolp::FaultInjection::Instance().LoadChaosFromEnv();

  std::vector<ArmKind> arms;
  for (int i = 1; i < argc; i++) {
    SplitArms(argv[i], &arms);
  }
  if (arms.empty()) {
    SplitArms("all", &arms);
  }

  IngestOptions options = IngestOptions::FromEnv();
  std::printf("marketdata ingest: %llu events @ %.0f eps, heap %zu MB, warmup %.0f%%\n",
              static_cast<unsigned long long>(options.events), options.rate_eps,
              options.heap_mb, options.warmup_fraction * 100.0);

  std::vector<IngestResult> results;
  bool all_survived = true;
  for (ArmKind arm : arms) {
    IngestResult r = rolp::marketdata::RunIngest(arm, options);
    std::printf(
        "  %-6s survived=%d analyzed=%llu offered=%.0f eps  jitter p50=%.1fus "
        "p99=%.1fus p99.9=%.1fus max=%.1fus  alloc=%.0fns/ev  gc_pauses=%llu "
        "max_pause=%.2fms\n",
        rolp::marketdata::ArmName(arm), r.survived ? 1 : 0,
        static_cast<unsigned long long>(r.analyzed), r.offered_eps,
        static_cast<double>(r.p50_ns) / 1e3, static_cast<double>(r.p99_ns) / 1e3,
        static_cast<double>(r.p999_ns) / 1e3, static_cast<double>(r.max_ns) / 1e3,
        r.alloc_ns_per_event, static_cast<unsigned long long>(r.gc_pauses),
        r.max_pause_ms);
    std::fflush(stdout);
    all_survived = all_survived && r.survived;
    results.push_back(r);
  }

  std::string verdict = rolp::marketdata::IngestVerdictJson(results, options);
  std::printf("INGEST_VERDICT %s\n", verdict.c_str());
  return all_survived ? 0 : 1;
}
