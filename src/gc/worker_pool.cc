#include "src/gc/worker_pool.h"

#include <chrono>
#include <thread>

#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/spinlock.h"

namespace rolp {

namespace {

std::atomic<uint64_t> g_detached_workers_total{0};

// How often a waiting RunTask requeues the items of dead workers.
constexpr uint64_t kReclaimPollNs = 10 * 1000 * 1000;
// How long RunTask spins inside a pause before it parks on cv_done. Waking
// a parked dispatcher cost about 0.3 ms of kv-g1-open pause p50 on a 4-vCPU
// VM, so the bound covers a typical young evacuation (about 3 ms there);
// longer phases no longer keep one more CPU busy throughout.
constexpr uint64_t kDispatchSpinNs = 5 * 1000 * 1000;
// Spinners yield this often so that, with more threads than CPUs, the thread
// they wait on still gets to run.
constexpr uint32_t kSpinsPerYield = 64;

// Spins while keep_spinning() holds, pausing the core between checks.
template <typename Pred>
void SpinWhile(Pred keep_spinning) {
  for (uint32_t i = 1; keep_spinning(); i++) {
    if (i % kSpinsPerYield == 0) {
      std::this_thread::yield();
    } else {
      CpuRelax();
    }
  }
}

}  // namespace

WorkerPool::PoolState::PoolState(uint32_t n)
    : alive(n, true), exited(n, false), current_item(n, -1), heartbeats(n) {}

WorkerPool::WorkerPool(uint32_t num_workers)
    : num_workers_(num_workers), state_(std::make_shared<PoolState>(num_workers)) {
  ROLP_CHECK(num_workers >= 1);
  threads_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; w++) {
    std::shared_ptr<PoolState> s = state_;
    threads_.emplace_back([s, w] { WorkerLoop(s, w); });
  }
}

WorkerPool::~WorkerPool() {
  PoolState& s = *state_;
  {
    std::lock_guard<std::mutex> guard(s.mu);
    s.shutdown = true;
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  s.cv_work.notify_all();
  s.cv_done.notify_all();  // wake an in-flight RunTask so it can abandon

  std::vector<bool> exited_snapshot;
  {
    std::unique_lock<std::mutex> lock(s.mu);
    s.cv_exit.wait_for(lock, std::chrono::milliseconds(shutdown_timeout_ms_), [&] {
      for (uint32_t w = 0; w < num_workers_; w++) {
        if (!s.exited[w]) {
          return false;
        }
      }
      return true;
    });
    exited_snapshot = s.exited;
  }
  for (uint32_t w = 0; w < num_workers_; w++) {
    if (exited_snapshot[w]) {
      threads_[w].join();
    } else {
      // Wedged inside a task: detach rather than deadlock the destructor.
      // The thread keeps a shared_ptr to PoolState, so it can never touch
      // freed pool memory; it exits on its own once the task unblocks.
      threads_[w].detach();
      g_detached_workers_total.fetch_add(1, std::memory_order_relaxed);
      ROLP_LOG_ERROR("WorkerPool: worker %u did not exit within %u ms at shutdown; "
                     "detached (task still blocked)",
                     w, shutdown_timeout_ms_);
    }
  }
}

uint64_t WorkerPool::detached_workers_total() {
  return g_detached_workers_total.load(std::memory_order_relaxed);
}

void WorkerPool::EnableHeartbeats(bool on) {
  state_->heartbeats_enabled.store(on, std::memory_order_relaxed);
}

uint32_t WorkerPool::alive_workers() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  uint32_t n = 0;
  for (uint32_t w = 0; w < num_workers_; w++) {
    n += s.alive[w] ? 1 : 0;
  }
  return n;
}

uint32_t WorkerPool::ReclaimAbandonedLocked(PoolState& s) {
  uint32_t reclaimed = 0;
  for (size_t w = 0; w < s.current_item.size(); w++) {
    if (!s.alive[w] && s.current_item[w] >= 0) {
      s.pending.push_back(static_cast<uint32_t>(s.current_item[w]));
      s.current_item[w] = -1;
      reclaimed++;
    }
  }
  if (reclaimed > 0) {
    s.requeued_total += reclaimed;
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  return reclaimed;
}

uint32_t WorkerPool::ReclaimAbandonedItems() {
  PoolState& s = *state_;
  uint32_t reclaimed;
  {
    std::lock_guard<std::mutex> guard(s.mu);
    reclaimed = ReclaimAbandonedLocked(s);
  }
  if (reclaimed > 0) {
    s.cv_work.notify_all();
  }
  return reclaimed;
}

std::vector<WorkerActivity> WorkerPool::SnapshotWorkerActivity() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  std::vector<WorkerActivity> out(num_workers_);
  for (uint32_t w = 0; w < num_workers_; w++) {
    out[w].alive = s.alive[w];
    out[w].current_item = s.current_item[w];
    if (s.current_item[w] >= 0) {
      out[w].heartbeat =
          s.heartbeats[s.current_item[w]].published.load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t WorkerPool::items_requeued() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  return s.requeued_total;
}

uint64_t WorkerPool::dispatches() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  return s.dispatches;
}

uint64_t WorkerPool::parks() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  return s.parks;
}

uint64_t WorkerPool::waiter_parks() const {
  PoolState& s = *state_;
  std::lock_guard<std::mutex> guard(s.mu);
  return s.waiter_parks;
}

WorkerPool::PauseBracket::PauseBracket(WorkerPool* pool) : pool_(pool) {
  PoolState& s = *pool_->state_;
  bool first;
  {
    std::lock_guard<std::mutex> guard(s.mu);
    first = s.pause_depth++ == 0;
  }
  if (first) {
    s.cv_work.notify_all();
  }
}

WorkerPool::PauseBracket::~PauseBracket() {
  PoolState& s = *pool_->state_;
  std::lock_guard<std::mutex> guard(s.mu);
  if (--s.pause_depth == 0) {
    s.epoch.fetch_add(1, std::memory_order_release);  // spinning workers go park
  }
}

void WorkerPool::RunTask(const std::function<void(uint32_t)>& task) {
  // Copy the shared state handle and size up front: if the pool is destroyed
  // while this dispatch is abandoned at shutdown, `this` may dangle but the
  // state must not.
  std::shared_ptr<PoolState> sp = state_;
  PoolState& s = *sp;
  const uint32_t n = num_workers_;
  std::unique_lock<std::mutex> lock(s.mu);
  ROLP_CHECK(s.task == nullptr);
  s.task = &task;
  s.completed.store(0, std::memory_order_relaxed);
  s.total_items = n;
  s.items_cpu_ns = 0;
  s.pending.clear();
  for (uint32_t w = n; w > 0; w--) {
    s.pending.push_back(w - 1);  // pop_back claims ascending ids
  }
  s.dispatches++;
  s.epoch.fetch_add(1, std::memory_order_release);  // spinning workers
  s.cv_work.notify_all();                            // parked workers

  uint64_t poll_at = NowNs() + kReclaimPollNs;
  // Inside a pause, spin for a short bound first; outside one, park at once.
  const uint64_t park_at = s.pause_depth > 0 ? NowNs() + kDispatchSpinNs : 0;
  while (s.completed.load(std::memory_order_relaxed) < s.total_items) {
    if (s.shutdown) {
      // Pool is being destroyed under us (a worker is wedged and the owner
      // gave up): abandon the dispatch rather than wait forever.
      ROLP_LOG_WARN("WorkerPool: shutdown during dispatch; abandoning %u incomplete item(s)",
                    s.total_items - s.completed.load(std::memory_order_relaxed));
      break;
    }
    uint64_t now = NowNs();
    if (now < poll_at) {
      if (!s.waiter_parked && now < park_at) {
        // Spin until the items complete, the pool's state changes, or the
        // spin bound runs out.
        const uint64_t seen = s.epoch.load(std::memory_order_relaxed);
        const uint32_t total = s.total_items;
        lock.unlock();
        SpinWhile([&] {
          return s.completed.load(std::memory_order_acquire) < total &&
                 s.epoch.load(std::memory_order_acquire) == seen && NowNs() < park_at;
        });
        lock.lock();
      } else {
        // Parked until the last item finishes (its worker notifies only a
        // parked waiter), shutdown, or the dead-worker poll is due.
        if (!s.waiter_parked) {
          s.waiter_parked = true;
          s.waiter_parks++;
        }
        s.cv_done.wait_for(lock, std::chrono::nanoseconds(poll_at - now), [&] {
          return s.completed.load(std::memory_order_relaxed) >= s.total_items || s.shutdown;
        });
      }
      continue;
    }
    poll_at = now + kReclaimPollNs;
    // Dead workers abandon their claimed item; hand it to survivors.
    if (ReclaimAbandonedLocked(s) > 0) {
      s.cv_work.notify_all();
    }
    uint32_t alive = 0;
    for (uint32_t w = 0; w < n; w++) {
      alive += s.alive[w] ? 1 : 0;
    }
    if (alive == 0) {
      // No survivors: the dispatching thread finishes the pause itself.
      while (!s.pending.empty()) {
        uint32_t item = s.pending.back();
        s.pending.pop_back();
        lock.unlock();
        task(item);
        lock.lock();
        s.completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  s.task = nullptr;
  s.waiter_parked = false;
  if (WorkerCpuSink::current_ != nullptr) {
    WorkerCpuSink::current_->ns_ += s.items_cpu_ns;
  }
}

void WorkerPool::ParallelFor(size_t count, size_t chunk,
                             const std::function<void(uint32_t, size_t, size_t)>& fn) {
  if (count == 0) {
    return;
  }
  if (chunk == 0) {
    chunk = 1;
  }
  if (num_workers_ == 1 || count <= chunk) {
    fn(0, 0, count);
    return;
  }
  std::atomic<size_t> cursor{0};
  RunTask([&](uint32_t item) {
    for (;;) {
      size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) {
        return;
      }
      Heartbeat(item);
      size_t end = begin + chunk < count ? begin + chunk : count;
      fn(item, begin, end);
    }
  });
}

void WorkerPool::WorkerLoop(std::shared_ptr<PoolState> state, uint32_t thread_index) {
  PoolState& s = *state;
  std::unique_lock<std::mutex> lock(s.mu);
  while (true) {
    if (s.shutdown) {
      s.alive[thread_index] = false;
      s.exited[thread_index] = true;
      lock.unlock();
      s.cv_exit.notify_all();
      return;
    }
    if (s.task == nullptr || s.pending.empty()) {
      if (s.pause_depth > 0) {
        // Inside a pause: stay hot until the next dispatch, requeue, the
        // bracket closing or shutdown.
        const uint64_t seen = s.epoch.load(std::memory_order_relaxed);
        lock.unlock();
        SpinWhile([&] { return s.epoch.load(std::memory_order_acquire) == seen; });
        lock.lock();
      } else {
        s.parks++;
        s.cv_work.wait(lock, [&] {
          return s.shutdown || s.pause_depth > 0 || (s.task != nullptr && !s.pending.empty());
        });
      }
      continue;
    }
    uint32_t item = s.pending.back();
    s.pending.pop_back();
    s.current_item[thread_index] = item;
    const std::function<void(uint32_t)>* task = s.task;
    lock.unlock();
    if (ROLP_FAULT_POINT("gc.worker.stall")) {
      // Simulated straggler: the pause waits for this worker's stall.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ROLP_FAULT_POINT("gc.worker.die")) {
      // Simulated worker death mid-item: exit without completing the claimed
      // item. RunTask (or the watchdog) requeues it onto survivors.
      {
        std::lock_guard<std::mutex> guard(s.mu);
        s.alive[thread_index] = false;
        s.exited[thread_index] = true;
      }
      s.cv_done.notify_all();
      s.cv_exit.notify_all();
      return;
    }
    uint64_t cpu0 = ThreadCpuNs();
    (*task)(item);
    uint64_t cpu_ns = ThreadCpuNs() - cpu0;
    lock.lock();
    s.current_item[thread_index] = -1;
    s.items_cpu_ns += cpu_ns;
    // Under mu, so a waiter either sees the count before it parks or is
    // parked already and gets the notify.
    const bool wake = s.completed.fetch_add(1, std::memory_order_release) + 1 >= s.total_items &&
                      s.waiter_parked;
    lock.unlock();
    if (wake) {
      s.cv_done.notify_all();
    }
    lock.lock();
  }
}

}  // namespace rolp
