// Cassandra-like in-memory key-value store driven by a YCSB-style generator.
//
// Lifetime structure mirrors the real system (paper Table 1 workloads):
//   * request/response scratch objects        -> die young
//   * memtable rows and values                 -> middle-lived (die at flush)
//   * sealed sstables (sorted immutable runs)  -> long-lived, die at compaction
//   * the store skeleton (bucket arrays)       -> immortal
//
// The put path reaches the row-allocation site through two call paths
// (fresh insert vs. overwrite), giving ROLP real context-conflict material.
#ifndef SRC_WORKLOADS_KVSTORE_H_
#define SRC_WORKLOADS_KVSTORE_H_

#include <atomic>
#include <vector>

#include "src/util/spinlock.h"
#include "src/workloads/workload.h"

namespace rolp {

struct KvStoreOptions {
  double write_fraction = 0.75;  // WI=0.75, RW=0.50, RI=0.25
  uint64_t num_keys = 60000;
  uint64_t value_bytes = 512;
  // Rows per memtable before it is flushed into an sstable.
  uint64_t memtable_flush_rows = 4000;
  // Transient request-parsing scratch allocated per operation (request/
  // response churn; this is what keeps young collections frequent relative
  // to memtable epochs, as in the real system).
  uint64_t request_scratch_bytes = 2048;
  // Sstables kept before compaction merges the two oldest.
  uint64_t max_sstables = 6;
  uint64_t seed = 0x5eed;
};

class KvStoreWorkload : public Workload {
 public:
  explicit KvStoreWorkload(const KvStoreOptions& options);
  ~KvStoreWorkload() override;

  std::string name() const override;
  void Setup(VM& vm, RuntimeThread& t) override;
  void Op(RuntimeThread& t, uint64_t op_index) override;
  void ConfigureFilter(PackageFilter* filter) const override;
  void Teardown() override;

  // Introspection for tests.
  uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  uint64_t compactions() const { return compactions_.load(std::memory_order_relaxed); }
  uint64_t reads_hit() const { return reads_hit_.load(std::memory_order_relaxed); }
  // Whether a sealed sstable holds `key`: the read path Get takes on a
  // memtable miss. Safe beside a running Flush or Compact.
  bool SealedContains(RuntimeThread& t, uint64_t key);
  // Copies of the sealed key arrays, oldest first. Call only while no other
  // thread flushes.
  std::vector<std::vector<uint64_t>> SealedRuns(RuntimeThread& t);

 private:
  void Put(RuntimeThread& t, uint64_t key);
  void Get(RuntimeThread& t, uint64_t key);
  void Flush(RuntimeThread& t);
  void Compact(RuntimeThread& t);
  Object* FindRow(RuntimeThread& t, Object* bucket_head, uint64_t key);

  KvStoreOptions options_;
  VM* vm_ = nullptr;

  // Classes.
  ClassId row_cls_ = 0;      // {next, value} + key payload
  ClassId sstable_cls_ = 0;  // ref array wrapper is plain ref array

  // Methods / sites / call sites.
  MethodId m_put_ = 0, m_get_ = 0, m_flush_ = 0, m_compact_ = 0, m_row_alloc_ = 0,
           m_value_alloc_ = 0, m_net_ = 0;
  uint32_t site_row_ = 0, site_value_ = 0, site_sstable_ = 0, site_scratch_ = 0,
           site_bucket_ = 0;
  uint32_t cs_net_put_ = 0;          // dispatcher -> put
  uint32_t cs_net_get_ = 0;          // dispatcher -> get
  uint32_t cs_put_row_insert_ = 0;   // put -> row_alloc (fresh insert path)
  uint32_t cs_put_row_update_ = 0;   // put -> row_alloc (overwrite path)
  uint32_t cs_put_value_ = 0;        // put -> value_alloc
  uint32_t cs_flush_build_ = 0;      // flush -> sstable build
  uint32_t cs_get_net_ = 0;          // get -> value_alloc (scratch copy)

  // Heap state.
  GlobalRef memtable_;           // ref array of bucket heads
  GlobalRef sstables_;           // ref array ring of sealed tables
  std::atomic<uint64_t> memtable_rows_{0};
  std::atomic<uint64_t> sstable_count_{0};
  uint64_t buckets_ = 0;

  SpinLock gen_lock_;          // guards the key generator + write coin
  SpinLock maintenance_lock_;  // serializes flush/compact
  ZipfianGenerator keys_;
  Random rng_;
  // Flush's off-heap keyspace bitmap (num_keys bits, all clear between
  // flushes), guarded by maintenance_lock_.
  std::vector<uint64_t> flush_keys_;

  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> reads_hit_{0};
};

}  // namespace rolp

#endif  // SRC_WORKLOADS_KVSTORE_H_
