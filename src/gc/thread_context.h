// Per-mutator GC-visible state and the registry/safepoint protocol.
//
// A MutatorContext is embedded in every runtime thread. It carries the TLAB
// and the thread's local root slots (handles). The SafepointManager
// implements a classic cooperative stop-the-world protocol: mutators poll at
// allocation and method-entry sites; a thread wanting to run a VM operation
// (a GC pause) requests a stop, waits for all other registered mutators to
// park, runs the operation, and releases them.
#ifndef SRC_GC_THREAD_CONTEXT_H_
#define SRC_GC_THREAD_CONTEXT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "src/heap/object.h"
#include "src/heap/roots.h"
#include "src/heap/tlab.h"
#include "src/util/histogram.h"

namespace rolp {

struct MutatorContext {
  uint32_t thread_id = 0;
  Tlab tlab;
  // Local root slots (handle stack). deque: elements never move, so the GC
  // can treat element addresses as stable slots for the duration of a pause.
  std::deque<std::atomic<Object*>> local_roots;
};

class SafepointManager {
 public:
  // Blocks while an operation is active, so a new thread never runs inside a
  // pause. The caller must not itself be a registered, unparked thread: the
  // operation would wait for it to park.
  void RegisterThread(MutatorContext* ctx);
  void UnregisterThread(MutatorContext* ctx);

  // Fast-path check used by mutators; parks the thread if a VM operation is
  // pending.
  void Poll(MutatorContext* ctx) {
    if (__builtin_expect(requested_.load(std::memory_order_acquire), 0)) {
      PollSlow(ctx);
    }
  }

  // Tries to stop the world with `self` as the VM-operation thread. Returns
  // true if the caller now owns the stopped world and must call
  // EndOperation(). Returns false if another operation ran first (the caller
  // parked during it and should re-check its allocation).
  bool BeginOperation(MutatorContext* self);
  void EndOperation(MutatorContext* self);

  // While the world is stopped, iterates all registered mutator contexts
  // (including the VM-operation thread itself).
  template <typename Fn>
  void ForEachThread(Fn&& fn) {
    std::lock_guard<std::mutex> guard(mu_);
    for (MutatorContext* ctx : threads_) {
      fn(ctx);
    }
  }

  size_t NumThreads() const {
    std::lock_guard<std::mutex> guard(mu_);
    return threads_.size();
  }

  // Marks the current thread as safe (as if parked) for the duration of a
  // blocking operation, e.g. a sleep in the bench driver.
  class ScopedSafeRegion {
   public:
    ScopedSafeRegion(SafepointManager* sp, MutatorContext* ctx);
    ~ScopedSafeRegion();
    ScopedSafeRegion(const ScopedSafeRegion&) = delete;
    ScopedSafeRegion& operator=(const ScopedSafeRegion&) = delete;

   private:
    SafepointManager* sp_;
    MutatorContext* ctx_;
  };

  // Total safepoint stops performed (diagnostics).
  uint64_t OperationCount() const { return operations_.load(std::memory_order_relaxed); }

  // Time-to-safepoint: per operation, the nanoseconds from the stop request
  // to the last other thread parking. One sample per OperationCount().
  LogHistogram TtspHistogramSnapshot() const {
    std::lock_guard<std::mutex> guard(mu_);
    return ttsp_ns_;
  }

 private:
  void PollSlow(MutatorContext* ctx);

  mutable std::mutex mu_;
  std::condition_variable cv_resume_;  // mutators wait here while stopped
  std::condition_variable cv_stopped_; // VM-op thread waits for mutators to park
  std::vector<MutatorContext*> threads_;
  std::atomic<bool> requested_{false};
  bool operation_active_ = false;
  size_t parked_ = 0;
  std::atomic<uint64_t> operations_{0};
  LogHistogram ttsp_ns_;  // guarded by mu_
};

// The one root walk: while the world is stopped, calls fn(slot) on every
// global root slot, then on each registered thread's local root slots. With
// no SafepointManager only the global roots are walked.
template <typename Fn>
void ForEachRootSlot(GlobalRoots& globals, SafepointManager* safepoints, Fn&& fn) {
  globals.ForEach(fn);
  if (safepoints == nullptr) {
    return;
  }
  safepoints->ForEachThread([&](MutatorContext* ctx) {
    for (auto& slot : ctx->local_roots) {
      fn(&slot);
    }
  });
}

}  // namespace rolp

#endif  // SRC_GC_THREAD_CONTEXT_H_
