#include "src/workloads/kvstore.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "src/runtime/frame.h"
#include "src/util/check.h"

namespace rolp {

namespace {
// Row payload: [0] next ref, [8] value ref, [16] key. 24 bytes.
constexpr uint32_t kRowNext = 0;
constexpr uint32_t kRowValue = 8;
constexpr uint32_t kRowKey = 16;

uint64_t BucketFor(uint64_t key, uint64_t buckets) { return Mix64(key) & (buckets - 1); }

// The key field is written by the inserting thread and read by concurrent
// list walkers (Get/Put/Flush on other mutators); relaxed atomics keep the
// lock-free read path while making the accesses well-defined.
uint64_t RowKey(Object* row) {
  return std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(row->payload() + kRowKey))
      .load(std::memory_order_relaxed);
}

void SetRowKey(Object* row, uint64_t key) {
  std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(row->payload() + kRowKey))
      .store(key, std::memory_order_relaxed);
}

// A sealed key array is a sorted run of distinct keys. Its unused tail repeats
// the last key, so the whole array stays sorted and a lookup matches only keys
// the run holds; an empty run holds only kNoKey (keys lie in [0, num_keys)).
constexpr uint64_t kNoKey = ~uint64_t{0};

void PadRun(uint64_t* keys, uint64_t written, uint64_t capacity) {
  std::fill(keys + written, keys + capacity, written == 0 ? kNoKey : keys[written - 1]);
}

const uint64_t* RunKeys(Object* key_arr) {
  return reinterpret_cast<const uint64_t*>(key_arr->DataArrayBytes());
}

uint64_t RunLength(Object* key_arr) { return key_arr->ArrayLength() / sizeof(uint64_t); }
}  // namespace

KvStoreWorkload::KvStoreWorkload(const KvStoreOptions& options)
    : options_(options),
      keys_(options.num_keys, 0.99, options.seed),
      rng_(options.seed),
      flush_keys_((options.num_keys + 63) / 64) {}

KvStoreWorkload::~KvStoreWorkload() = default;

std::string KvStoreWorkload::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cassandra-%02d%%w",
                static_cast<int>(options_.write_fraction * 100));
  return buf;
}

void KvStoreWorkload::ConfigureFilter(PackageFilter* filter) const {
  // Paper Table 1: cassandra.db, cassandra.utils, cassandra.memory.
  filter->Include("cassandra.db");
  filter->Include("cassandra.utils");
  filter->Include("cassandra.memory");
}

void KvStoreWorkload::Setup(VM& vm, RuntimeThread& t) {
  vm_ = &vm;
  row_cls_ = vm.heap().classes().RegisterInstance("cassandra.db.Row", 24, {kRowNext, kRowValue});

  JitEngine& jit = vm.jit();
  m_net_ = jit.RegisterMethod("cassandra.net.Dispatcher::handle", 180);
  m_put_ = jit.RegisterMethod("cassandra.db.Memtable::put", 220);
  m_get_ = jit.RegisterMethod("cassandra.db.Memtable::get", 200);
  m_flush_ = jit.RegisterMethod("cassandra.db.Memtable::flush", 300);
  m_compact_ = jit.RegisterMethod("cassandra.db.Compaction::compact", 400);
  m_row_alloc_ = jit.RegisterMethod("cassandra.db.Row::create", 60);
  m_value_alloc_ = jit.RegisterMethod("cassandra.utils.Values::allocate", 48);

  // Allocation sites. NG2C oracle hints (used only in NG2C mode): memtable
  // rows/values are middle-lived (gen 2); sealed sstable arrays are
  // long-lived (old); scratch has no hint.
  site_row_ = jit.RegisterAllocSite(m_row_alloc_, /*ng2c_hint=*/2);
  site_value_ = jit.RegisterAllocSite(m_value_alloc_, /*ng2c_hint=*/2);
  site_sstable_ = jit.RegisterAllocSite(m_flush_, /*ng2c_hint=*/kOldGenId);
  site_scratch_ = jit.RegisterAllocSite(m_net_, 0);
  site_bucket_ = jit.RegisterAllocSite(m_put_, 0);

  // Call sites. The value-allocation factory is reached from put (values
  // live until the flush) and from get (scratch copies die immediately) —
  // the paper's factory-method conflict (sections 1 and 4).
  cs_net_put_ = jit.RegisterCallSite(m_net_, m_put_);
  cs_net_get_ = jit.RegisterCallSite(m_net_, m_get_);
  cs_put_row_insert_ = jit.RegisterCallSite(m_put_, m_row_alloc_);
  cs_put_row_update_ = jit.RegisterCallSite(m_put_, m_row_alloc_);
  cs_put_value_ = jit.RegisterCallSite(m_put_, m_value_alloc_);
  cs_get_net_ = jit.RegisterCallSite(m_get_, m_value_alloc_);
  cs_flush_build_ = jit.RegisterCallSite(m_flush_, m_compact_);

  // The rest of the platform: cold framework code outside the data path
  // (never executed, never profiled) so site-density metrics are realistic.
  RegisterBackgroundCode(jit, "cassandra.net", 3000, 2, 3);
  RegisterBackgroundCode(jit, "cassandra.io", 2000, 2, 3);
  RegisterBackgroundCode(jit, "cassandra.gms", 1000, 2, 3);
  RegisterBackgroundCode(jit, "jdk.util", 2000, 2, 4);

  buckets_ = 1;
  while (buckets_ < options_.num_keys / 8) {
    buckets_ *= 2;
  }

  HandleScope scope(t);
  Object* mt = t.AllocateRefArray(site_bucket_, buckets_);
  ROLP_CHECK(mt != nullptr);
  memtable_ = vm.NewGlobalRoot(mt);
  Object* tables = t.AllocateRefArray(RuntimeThread::kNoSite, options_.max_sstables + 1);
  ROLP_CHECK(tables != nullptr);
  sstables_ = vm.NewGlobalRoot(tables);
}

Object* KvStoreWorkload::FindRow(RuntimeThread& t, Object* head, uint64_t key) {
  Object* row = head;
  while (row != nullptr) {
    if (RowKey(row) == key) {
      return row;
    }
    row = t.LoadField(row, kRowNext);
  }
  return nullptr;
}

void KvStoreWorkload::Put(RuntimeThread& t, uint64_t key) {
  HandleScope scope(t);
  uint64_t bucket = BucketFor(key, buckets_);
  Object* mt = vm_->LoadGlobal(memtable_);
  bool exists = FindRow(t, t.LoadElem(mt, bucket), key) != nullptr;

  // Value allocation (middle-lived: dies at flush).
  Local value;
  {
    MethodFrame f(t, cs_put_value_);
    value = t.NewLocal(t.AllocateDataArray(site_value_, options_.value_bytes));
  }
  if (value.get() == nullptr) {
    return;  // OOM: drop the op
  }
  // Touch the value (the "serialization" work).
  char* bytes = value.get()->DataArrayBytes();
  for (uint64_t i = 0; i < options_.value_bytes; i += 64) {
    bytes[i] = static_cast<char>(key + i);
  }

  // Row allocation through one of two call paths (insert vs. overwrite).
  Local row;
  if (exists) {
    MethodFrame f(t, cs_put_row_update_);
    row = t.NewLocal(t.AllocateInstance(site_row_, row_cls_));
  } else {
    MethodFrame f(t, cs_put_row_insert_);
    row = t.NewLocal(t.AllocateInstance(site_row_, row_cls_));
  }
  if (row.get() == nullptr) {
    return;
  }
  // Re-load everything after allocation (objects may have moved).
  mt = vm_->LoadGlobal(memtable_);
  Object* head = t.LoadElem(mt, bucket);
  Object* r = row.get();
  SetRowKey(r, key);
  t.StoreField(r, kRowNext, head);
  t.StoreField(r, kRowValue, value.get());
  t.StoreElem(mt, bucket, r);

  if (memtable_rows_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      options_.memtable_flush_rows) {
    Flush(t);
  }
}

void KvStoreWorkload::Get(RuntimeThread& t, uint64_t key) {
  HandleScope scope(t);
  Object* mt = vm_->LoadGlobal(memtable_);
  Object* row = FindRow(t, t.LoadElem(mt, BucketFor(key, buckets_)), key);
  if (row != nullptr) {
    reads_hit_.fetch_add(1, std::memory_order_relaxed);
    Local lv = t.NewLocal(t.LoadField(row, kRowValue));
    // Response scratch: same factory allocation site as put-values, but this
    // copy dies immediately (the conflict ROLP must untangle).
    Local copy;
    {
      MethodFrame f(t, cs_get_net_);
      copy = t.NewLocal(t.AllocateDataArray(site_value_, options_.value_bytes));
    }
    if (copy.get() != nullptr && lv.get() != nullptr) {
      std::memcpy(copy.get()->DataArrayBytes(), lv.get()->DataArrayBytes(),
                  options_.value_bytes);
    }
    return;
  }
  // Miss in the memtable: look the key up in the sealed sstables.
  if (SealedContains(t, key)) {
    reads_hit_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool KvStoreWorkload::SealedContains(RuntimeThread& t, uint64_t key) {
  // Newest run first. Compact slides the ring down in place ([a, b, c] ->
  // [merged, c]); walking down reads each slot after the one above it, so a
  // lookup sees every run that was sealed when it started.
  Object* tables = vm_->LoadGlobal(sstables_);
  uint64_t n = std::min<uint64_t>(sstable_count_.load(std::memory_order_acquire),
                                  tables->ArrayLength());
  for (uint64_t i = n; i-- > 0;) {
    Object* sst = t.LoadElem(tables, i);
    Object* key_arr = sst == nullptr ? nullptr : t.LoadElem(sst, 0);
    if (key_arr != nullptr &&
        std::binary_search(RunKeys(key_arr), RunKeys(key_arr) + RunLength(key_arr), key)) {
      return true;
    }
  }
  return false;
}

std::vector<std::vector<uint64_t>> KvStoreWorkload::SealedRuns(RuntimeThread& t) {
  std::vector<std::vector<uint64_t>> runs;
  Object* tables = vm_->LoadGlobal(sstables_);
  uint64_t n = std::min<uint64_t>(sstable_count_.load(std::memory_order_relaxed),
                                  tables->ArrayLength());
  for (uint64_t i = 0; i < n; i++) {
    Object* sst = t.LoadElem(tables, i);
    Object* key_arr = sst == nullptr ? nullptr : t.LoadElem(sst, 0);
    if (key_arr != nullptr) {
      runs.emplace_back(RunKeys(key_arr), RunKeys(key_arr) + RunLength(key_arr));
    }
  }
  return runs;
}

void KvStoreWorkload::Flush(RuntimeThread& t) {
  // Flush allocates while holding the lock; waiters must keep polling.
  LockAtSafepoint(maintenance_lock_, t);
  std::lock_guard<SpinLock> guard(maintenance_lock_, std::adopt_lock);
  uint64_t rows = memtable_rows_.load(std::memory_order_relaxed);
  if (rows < options_.memtable_flush_rows) {
    return;  // another thread flushed first
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  HandleScope scope(t);

  if (sstable_count_.load(std::memory_order_relaxed) >= options_.max_sstables) {
    Compact(t);
  }

  // "Serialize" the memtable: a key array and a (often humongous) data blob,
  // both long-lived; then drop all rows (they die together: epochal).
  Local keys;
  Local blob;
  {
    MethodFrame f(t, cs_flush_build_);
    keys = t.NewLocal(t.AllocateDataArray(site_sstable_, rows * sizeof(uint64_t)));
    blob = t.NewLocal(t.AllocateDataArray(site_sstable_, rows * 64));
  }
  if (keys.get() == nullptr || blob.get() == nullptr) {
    return;
  }
  // The run is sorted as it is built: each row marks its key in the keyspace
  // bitmap, and the marked keys are emitted in order, one copy each.
  Object* mt = vm_->LoadGlobal(memtable_);
  for (uint64_t b = 0; b < buckets_; b++) {
    for (Object* row = t.LoadElem(mt, b); row != nullptr; row = t.LoadField(row, kRowNext)) {
      uint64_t k = RowKey(row);
      flush_keys_[k / 64] |= uint64_t{1} << (k % 64);
    }
    t.StoreElem(mt, b, nullptr);  // drop the chain: rows + values die
  }
  uint64_t* out_keys = reinterpret_cast<uint64_t*>(keys.get()->DataArrayBytes());
  uint64_t capacity = RunLength(keys.get());
  uint64_t written = 0;
  for (uint64_t w = 0; w < flush_keys_.size(); w++) {
    // Rows Put after `rows` was read may not fit; they are dropped unsealed.
    for (uint64_t bits = flush_keys_[w]; bits != 0 && written < capacity; bits &= bits - 1) {
      out_keys[written++] = w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits));
    }
    flush_keys_[w] = 0;
  }
  PadRun(out_keys, written, capacity);
  Local sst = t.NewLocal(t.AllocateRefArray(RuntimeThread::kNoSite, 2));
  if (sst.get() == nullptr) {
    return;
  }
  t.StoreElem(sst.get(), 0, keys.get());
  t.StoreElem(sst.get(), 1, blob.get());
  Object* tables = vm_->LoadGlobal(sstables_);
  uint64_t idx = sstable_count_.load(std::memory_order_relaxed);
  if (idx < tables->ArrayLength()) {
    t.StoreElem(tables, idx, sst.get());
    sstable_count_.store(idx + 1, std::memory_order_release);
  }
  memtable_rows_.store(0, std::memory_order_relaxed);
}

void KvStoreWorkload::Compact(RuntimeThread& t) {
  compactions_.fetch_add(1, std::memory_order_relaxed);
  HandleScope scope(t);
  Object* tables = vm_->LoadGlobal(sstables_);
  Local a = t.NewLocal(t.LoadElem(tables, 0));
  Local b = t.NewLocal(t.LoadElem(tables, 1));
  if (a.get() == nullptr || b.get() == nullptr) {
    return;
  }
  uint64_t ka = t.LoadElem(a.get(), 0)->ArrayLength();
  uint64_t kb = t.LoadElem(b.get(), 0)->ArrayLength();
  uint64_t ba = t.LoadElem(a.get(), 1)->ArrayLength();
  uint64_t bb = t.LoadElem(b.get(), 1)->ArrayLength();
  // The merge keeps one copy of each key, so merged runs are bounded by the
  // finite keyspace without dropping any key: a union of two runs holds at
  // most num_keys distinct keys and at most their two lengths together.
  uint64_t key_cap = options_.num_keys * sizeof(uint64_t);
  uint64_t merged_key_bytes = std::min(ka + kb, key_cap);
  uint64_t merged_blob_bytes = std::min(ba + bb, key_cap * 8);
  Local merged_keys;
  Local merged_blob;
  {
    MethodFrame f(t, cs_flush_build_);
    merged_keys = t.NewLocal(t.AllocateDataArray(site_sstable_, merged_key_bytes));
    merged_blob = t.NewLocal(t.AllocateDataArray(site_sstable_, merged_blob_bytes));
  }
  if (merged_keys.get() == nullptr || merged_blob.get() == nullptr) {
    return;
  }
  // Merge the two sorted runs (the merge work), skipping repeated keys.
  tables = vm_->LoadGlobal(sstables_);
  Object* ak = t.LoadElem(t.LoadElem(tables, 0), 0);
  Object* bk = t.LoadElem(t.LoadElem(tables, 1), 0);
  const uint64_t* ia = RunKeys(ak);
  const uint64_t* ib = RunKeys(bk);
  const uint64_t* ea = ia + RunLength(ak);
  const uint64_t* eb = ib + RunLength(bk);
  uint64_t* out_keys = reinterpret_cast<uint64_t*>(merged_keys.get()->DataArrayBytes());
  uint64_t capacity = RunLength(merged_keys.get());
  uint64_t written = 0;
  while (ia != ea || ib != eb) {
    uint64_t k = (ib == eb || (ia != ea && *ia <= *ib)) ? *ia++ : *ib++;
    if (k != kNoKey && (written == 0 || out_keys[written - 1] != k)) {
      ROLP_CHECK(written < capacity);
      out_keys[written++] = k;
    }
  }
  PadRun(out_keys, written, capacity);
  Local merged = t.NewLocal(t.AllocateRefArray(RuntimeThread::kNoSite, 2));
  if (merged.get() == nullptr) {
    return;
  }
  t.StoreElem(merged.get(), 0, merged_keys.get());
  t.StoreElem(merged.get(), 1, merged_blob.get());
  // Slide the ring: [merged, t2, t3, ...]. The two originals die.
  tables = vm_->LoadGlobal(sstables_);
  t.StoreElem(tables, 0, merged.get());
  uint64_t n = sstable_count_.load(std::memory_order_relaxed);
  for (uint64_t i = 1; i + 1 < n; i++) {
    t.StoreElem(tables, i, t.LoadElem(tables, i + 1));
  }
  if (n >= 2) {
    t.StoreElem(tables, n - 1, nullptr);
    sstable_count_.store(n - 1, std::memory_order_release);
  }
}

void KvStoreWorkload::Op(RuntimeThread& t, uint64_t op_index) {
  uint64_t key;
  bool write;
  {
    std::lock_guard<SpinLock> guard(gen_lock_);
    key = keys_.Next();
    write = rng_.NextDouble() < options_.write_fraction;
  }
  // Request parsing scratch: dies with the op (control-path objects; the
  // cassandra.net package is outside the profiling filter).
  {
    HandleScope scope(t);
    Local scratch =
        t.NewLocal(t.AllocateDataArray(site_scratch_, options_.request_scratch_bytes));
    (void)scratch;
  }
  if (write) {
    MethodFrame f(t, cs_net_put_);
    Put(t, key);
  } else {
    MethodFrame f(t, cs_net_get_);
    Get(t, key);
  }
}

void KvStoreWorkload::Teardown() {
  memtable_ = GlobalRef();
  sstables_ = GlobalRef();
}

}  // namespace rolp
