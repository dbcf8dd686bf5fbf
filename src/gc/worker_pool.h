// Persistent pool of GC worker threads. Work is dispatched as "run fn(w) for
// every item id w in [0, size())"; phases partition their inputs by item id.
// Each item runs exactly once per RunTask call on whichever worker claims it,
// so the historical "one invocation per worker id" contract is preserved —
// ids stay distinct and dense — while letting surviving workers pick up the
// items of a worker that died mid-pause.
//
// Robustness contract (GC watchdog support):
//  - Tasks may publish liveness via Heartbeat(item_id): one relaxed atomic
//    store, and nothing at all unless heartbeats were enabled.
//  - A worker thread that dies (simulated by the "gc.worker.die" fail point)
//    abandons its claimed item; RunTask (or the watchdog, via
//    ReclaimAbandonedItems) requeues it onto survivors. Item bodies must
//    therefore tolerate partial re-execution — all GC phases here do, because
//    marking is idempotent on the atomic mark bitmap and evacuation installs
//    forwarding pointers with CAS.
//  - Destruction joins with a timeout: a worker wedged inside a task is
//    detached and reported instead of deadlocking the VM. All shared state
//    lives in a shared_ptr owned jointly by the pool and every worker thread,
//    so a detached straggler can never touch freed memory.
//
// Pause brackets: a collector opens a PauseBracket for the length of a
// stop-the-world pause. Opening it wakes the workers once; until it closes
// they spin between items instead of parking, and RunTask spin-waits on the
// completion count for a short fixed bound before it sleeps on a condvar, so
// the pause's short back-to-back phases pay no wake-ups and a long phase
// does not hold one more CPU. Closing it parks the workers at once.
// Dispatches outside a bracket (the concurrent-evacuation driver, tests)
// park and wake as before. Either way a finishing worker notifies the
// dispatcher only when it is the last one and the dispatcher has parked.
#ifndef SRC_GC_WORKER_POOL_H_
#define SRC_GC_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rolp {

// Watchdog-facing view of one worker thread, taken under the pool mutex.
struct WorkerActivity {
  bool alive = false;
  int64_t current_item = -1;  // item id being run, -1 when idle
  uint64_t heartbeat = 0;     // last published heartbeat for current_item
};

// Books the CPU time pool threads spend in item bodies to the code that
// dispatched them. While a WorkerCpuSink is alive on a thread, every RunTask
// (and so every ParallelFor) that thread dispatches adds the summed
// CLOCK_THREAD_CPUTIME_ID deltas of its item bodies to the innermost sink.
// Items the dispatching thread runs inline are not counted: they are already
// part of that thread's own CPU time. A sink's total also counts toward the
// sink it is nested in, matching how thread-CPU deltas nest.
class WorkerCpuSink {
 public:
  WorkerCpuSink() : outer_(current_) { current_ = this; }
  ~WorkerCpuSink() {
    current_ = outer_;
    if (outer_ != nullptr) {
      outer_->ns_ += ns_;
    }
  }
  WorkerCpuSink(const WorkerCpuSink&) = delete;
  WorkerCpuSink& operator=(const WorkerCpuSink&) = delete;

  uint64_t ns() const { return ns_; }

 private:
  friend class WorkerPool;
  static inline thread_local WorkerCpuSink* current_ = nullptr;
  WorkerCpuSink* outer_;
  uint64_t ns_ = 0;
};

class WorkerPool {
 public:
  explicit WorkerPool(uint32_t num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs task(w) exactly once for each w in [0, size()) and blocks until all
  // invocations complete. Items abandoned by dead workers are requeued onto
  // survivors; if every worker is dead the caller runs the leftovers inline.
  // Must not be called re-entrantly.
  void RunTask(const std::function<void(uint32_t)>& task);

  // Runs fn(item_id, begin, end) over [0, count) in chunks claimed from a
  // shared cursor — self-balancing where a static stride is not. Runs inline
  // on the calling thread when the range fits one chunk or the pool has a
  // single worker. Blocks until the whole range is processed; the usual
  // RunTask dead-worker requeue applies (chunks are claimed inside the item
  // body, so a worker dying at the fail points never strands a chunk).
  void ParallelFor(size_t count, size_t chunk,
                   const std::function<void(uint32_t, size_t, size_t)>& fn);

  uint32_t size() const { return num_workers_; }

  // Keeps the workers hot for the length of a stop-the-world pause (see the
  // file comment). Brackets nest; the outermost one wakes and parks.
  class PauseBracket {
   public:
    explicit PauseBracket(WorkerPool* pool);
    ~PauseBracket();
    PauseBracket(const PauseBracket&) = delete;
    PauseBracket& operator=(const PauseBracket&) = delete;

   private:
    WorkerPool* pool_;
  };

  // RunTask calls that reached the workers (ParallelFor calls run inline do
  // not count), and times a worker went to sleep on its condvar.
  uint64_t dispatches() const;
  uint64_t parks() const;
  // Times a RunTask caller stopped spinning and slept on its condvar.
  uint64_t waiter_parks() const;

  // --- Heartbeats (watchdog) ----------------------------------------------
  // When disabled (default), Heartbeat is a single relaxed load + branch.
  void EnableHeartbeats(bool on);
  void Heartbeat(uint32_t item_id) {
    if (!state_->heartbeats_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    HeartbeatSlot& slot = state_->heartbeats[item_id];
    slot.published.store(slot.published.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
  uint64_t HeartbeatValue(uint32_t item_id) const {
    return state_->heartbeats[item_id].published.load(std::memory_order_relaxed);
  }

  // --- Watchdog escalation hooks ------------------------------------------
  // Worker threads still alive (have not exited or died mid-task).
  uint32_t alive_workers() const;
  // Requeues items claimed by dead workers back onto the pending queue.
  // Returns how many items were requeued. Safe from any thread.
  uint32_t ReclaimAbandonedItems();
  std::vector<WorkerActivity> SnapshotWorkerActivity() const;

  // Cumulative count of items requeued after worker death (this pool).
  uint64_t items_requeued() const;

  // --- Shutdown policy -----------------------------------------------------
  // How long the destructor waits for workers before detach-and-report.
  void set_shutdown_timeout_ms(uint32_t ms) { shutdown_timeout_ms_ = ms; }
  // Process-wide count of workers ever detached at shutdown (post-mortem
  // visibility for tests and crash context).
  static uint64_t detached_workers_total();

 private:
  struct HeartbeatSlot {
    alignas(64) std::atomic<uint64_t> published{0};
  };

  // Everything worker threads touch. Jointly owned so detached threads
  // outliving the pool stay memory-safe.
  struct PoolState {
    explicit PoolState(uint32_t n);

    mutable std::mutex mu;
    std::condition_variable cv_work;   // workers: new items, pause or shutdown
    std::condition_variable cv_done;   // RunTask: progress made
    std::condition_variable cv_exit;   // destructor: a worker exited

    // Guarded by mu.
    const std::function<void(uint32_t)>* task = nullptr;
    std::vector<uint32_t> pending;     // unclaimed item ids
    uint32_t total_items = 0;
    uint64_t items_cpu_ns = 0;         // worker-thread CPU of this dispatch
    bool shutdown = false;
    uint32_t pause_depth = 0;          // open PauseBrackets
    std::vector<bool> alive;           // per worker thread
    std::vector<bool> exited;          // per worker thread (left WorkerLoop)
    std::vector<int64_t> current_item; // per worker thread, -1 = none
    uint64_t requeued_total = 0;
    uint64_t dispatches = 0;
    uint64_t parks = 0;
    bool waiter_parked = false;        // RunTask sleeps on cv_done
    uint64_t waiter_parks = 0;

    // Written under mu, read lock-free by spinning threads.
    std::atomic<uint32_t> completed{0};
    // Bumped under mu on every change a spinning thread must act on: a
    // dispatch, a requeue, a bracket closing, shutdown.
    std::atomic<uint64_t> epoch{0};

    // Lock-free.
    std::atomic<bool> heartbeats_enabled{false};
    std::vector<HeartbeatSlot> heartbeats;  // indexed by item id
  };

  static void WorkerLoop(std::shared_ptr<PoolState> s, uint32_t thread_index);
  // Requeues items held by dead workers; caller holds s->mu.
  static uint32_t ReclaimAbandonedLocked(PoolState& s);

  const uint32_t num_workers_;
  uint32_t shutdown_timeout_ms_ = 2000;
  std::shared_ptr<PoolState> state_;
  std::vector<std::thread> threads_;
};

}  // namespace rolp

#endif  // SRC_GC_WORKER_POOL_H_
