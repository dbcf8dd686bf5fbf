// Work-stealing deques for the parallel pause engine.
//
// StealableTaskQueue<T> is a Chase-Lev deque (Chase & Lev, SPAA '05, with the
// C11 memory orders of Lê et al., PPoPP '13, except that bottom_ stores are
// release stores instead of fence + relaxed — see the comment in Push): the
// owning worker pushes and pops at the bottom with no synchronization in the
// common case; thieves steal from the top with one CAS. This replaces the static `for (i = w;
// i < n; i += n)` striding the GC phases used to use — with striding, one
// worker landing on a dense remembered-set region serializes the pause;
// with stealing, the objects it discovers are picked up by idle workers.
//
// WorkStealingPool<T> bundles one deque per GC worker with the shared
// outstanding-work counter used for termination detection: the counter
// covers every queued unit (scan units up front, items at Push), so
// "outstanding == 0" means globally done even while items are in flight
// between queues. Workers that find all queues empty spin on the counter
// (polling heartbeats / cancellation at the call site) rather than exiting
// early and dropping work a straggler might still publish.
//
// Finishing a unit does not touch the shared counter: FinishOne(w) adds one
// to a credit private to worker w, Push(w) spends that credit before it
// increments the counter, and the credit is subtracted from the counter in
// one batch once it reaches kCreditBatch and always before TryGet(w) reports
// empty. Invariant: counter = true outstanding work + the workers' unflushed
// credit, so the counter is never below the true outstanding work and Done()
// can never fire early; since every worker flushes before it can start
// waiting on Done(), the credit cannot hold termination back either. A
// worker that keeps scanning costs the counter one RMW per kCreditBatch
// units instead of two per object.
//
// Item type T must be trivially copyable and lock-free as std::atomic<T>
// (the GC uses Object*).
#ifndef SRC_GC_STEALABLE_QUEUE_H_
#define SRC_GC_STEALABLE_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"

namespace rolp {

// Unit size for chunked claiming of root slots / region shards during GC
// pauses. Small enough to balance, large enough that the claim cost (one
// fetch_add) amortizes.
constexpr size_t kStealChunk = 64;

template <typename T>
class StealableTaskQueue {
 public:
  explicit StealableTaskQueue(size_t initial_capacity = 1024)
      : buffer_(new Buffer(NextPow2(initial_capacity))) {}

  ~StealableTaskQueue() { delete buffer_.load(std::memory_order_relaxed); }

  StealableTaskQueue(const StealableTaskQueue&) = delete;
  StealableTaskQueue& operator=(const StealableTaskQueue&) = delete;

  // Owner only. Never fails: grows the backing buffer when full.
  void Push(T value) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<int64_t>(buf->capacity) - 1) {
      buf = Grow(buf, t, b);
    }
    buf->Put(b, value);
    // Every bottom_ store is a release store (not Lê et al.'s fence +
    // relaxed): a thief's acquire load of bottom_ may read *any* later owner
    // store — including Pop's restore path — so each one must carry the
    // happens-before edge that publishes the item contents. Also keeps the
    // synchronization visible to race detectors that don't model fences.
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only. LIFO (depth-first — keeps the trace cache-warm).
  bool Pop(T* out) {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Empty: restore.
      bottom_.store(b + 1, std::memory_order_release);
      return false;
    }
    T value = buf->Get(b);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_release);
        return false;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_release);
    }
    *out = value;
    return true;
  }

  // Any thread. FIFO from the top.
  bool Steal(T* out) {
    int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) {
      return false;  // observed empty
    }
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    T value = buf->Get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;  // lost the race; caller retries elsewhere
    }
    *out = value;
    return true;
  }

  bool Empty() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

  size_t capacity() const {
    return buffer_.load(std::memory_order_relaxed)->capacity;
  }

 private:
  struct Buffer {
    explicit Buffer(size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T>[cap]) {}
    const size_t capacity;
    const size_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;

    T Get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(std::memory_order_relaxed);
    }
    void Put(int64_t i, T v) {
      slots[static_cast<size_t>(i) & mask].store(v, std::memory_order_relaxed);
    }
  };

  static size_t NextPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p < 8 ? 8 : p;
  }

  Buffer* Grow(Buffer* old, int64_t t, int64_t b) {
    auto fresh = std::make_unique<Buffer>(old->capacity * 2);
    for (int64_t i = t; i < b; i++) {
      fresh->Put(i, old->Get(i));
    }
    Buffer* raw = fresh.get();
    buffer_.store(raw, std::memory_order_release);
    // A thief that loaded the old buffer pointer may still be reading from
    // it; retire rather than free. Retired buffers are reclaimed with the
    // queue (their total size is bounded: a geometric series below 1x the
    // final buffer).
    retired_.push_back(std::unique_ptr<Buffer>(old));
    fresh.release();
    return raw;
  }

  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> retired_;  // owner-only (Grow)
};

// One deque per worker plus the shared termination counter and the
// per-worker termination credit.
template <typename T>
class WorkStealingPool {
 public:
  // Finished units a worker may hold back from the shared counter.
  static constexpr int64_t kCreditBatch = 64;

  explicit WorkStealingPool(uint32_t num_workers)
      : queues_(num_workers), credit_(num_workers) {
    for (auto& q : queues_) {
      q = std::make_unique<StealableTaskQueue<T>>();
    }
  }

  uint32_t size() const { return static_cast<uint32_t>(queues_.size()); }

  // Registers `n` units of work counted outside Push: scan units claimed via
  // a shared cursor (before workers start), or an item injected by a thread
  // that is not a worker (before it is published).
  void AddOutstanding(int64_t n) {
    outstanding_.fetch_add(n, std::memory_order_relaxed);
  }

  // Queues an item on worker w's deque. Only the thread running item id w.
  void Push(uint32_t w, T value) {
    int64_t& credit = credit_[w].units;
    if (credit > 0) {
      credit--;  // cancels one finished unit the counter still includes
    } else {
      outstanding_.fetch_add(1, std::memory_order_relaxed);
    }
    queues_[w]->Push(value);
  }

  // Marks one unit (queued item or externally-counted scan unit) finished by
  // worker w. Only the thread running item id w. The credit is indexed by
  // item id, not by thread, so an item the WorkerPool requeues after its
  // worker died inherits it.
  void FinishOne(uint32_t w) {
    if (++credit_[w].units >= kCreditBatch) {
      Flush(w);
    }
  }

  // All queued and externally-counted work done? Exact once every worker
  // has flushed, which each does before TryGet reports empty.
  bool Done() const { return outstanding_.load(std::memory_order_acquire) == 0; }

  // Pops from w's own deque, then tries to steal round-robin from the
  // others. Returns false when everything looked empty, after flushing w's
  // credit (caller checks Done() and spins otherwise — a straggler may still
  // publish work).
  bool TryGet(uint32_t w, T* out) {
    if (queues_[w]->Pop(out)) {
      return true;
    }
    uint32_t n = size();
    for (uint32_t i = 1; i < n; i++) {
      if (queues_[(w + i) % n]->Steal(out)) {
        return true;
      }
    }
    Flush(w);
    return false;
  }

  StealableTaskQueue<T>& queue(uint32_t w) { return *queues_[w]; }

 private:
  struct alignas(64) Credit {
    int64_t units = 0;
  };

  void Flush(uint32_t w) {
    int64_t& credit = credit_[w].units;
    if (credit > 0) {
      outstanding_.fetch_sub(credit, std::memory_order_acq_rel);
      credit = 0;
    }
  }

  std::vector<std::unique_ptr<StealableTaskQueue<T>>> queues_;
  std::vector<Credit> credit_;  // indexed by item id; one cache line each
  alignas(64) std::atomic<int64_t> outstanding_{0};
};

}  // namespace rolp

#endif  // SRC_GC_STEALABLE_QUEUE_H_
