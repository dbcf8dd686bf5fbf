#include "src/gc/thread_context.h"

#include "src/util/check.h"
#include "src/util/clock.h"

namespace rolp {

void SafepointManager::RegisterThread(MutatorContext* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  // A running operation counted its parked threads when it began and may be
  // collecting the regions a new thread would allocate into: join after it.
  cv_resume_.wait(lock, [&] { return !operation_active_; });
  threads_.push_back(ctx);
}

void SafepointManager::UnregisterThread(MutatorContext* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < threads_.size(); i++) {
    if (threads_[i] == ctx) {
      threads_[i] = threads_.back();
      threads_.pop_back();
      break;
    }
  }
  // The VM-op thread may be waiting for this thread to park; its target count
  // just dropped.
  cv_stopped_.notify_all();
}

void SafepointManager::PollSlow(MutatorContext* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  while (operation_active_) {
    parked_++;
    cv_stopped_.notify_all();
    cv_resume_.wait(lock, [&] { return !operation_active_; });
    parked_--;
  }
}

bool SafepointManager::BeginOperation(MutatorContext* self) {
  std::unique_lock<std::mutex> lock(mu_);
  if (operation_active_) {
    // Someone else is stopping the world; behave like a polled mutator.
    parked_++;
    cv_stopped_.notify_all();
    cv_resume_.wait(lock, [&] { return !operation_active_; });
    parked_--;
    return false;
  }
  operation_active_ = true;
  requested_.store(true, std::memory_order_release);
  uint64_t requested_ns = NowNs();
  // Wait until every other registered thread is parked.
  cv_stopped_.wait(lock, [&] { return parked_ + 1 >= threads_.size(); });
  ttsp_ns_.Record(NowNs() - requested_ns);
  operations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SafepointManager::EndOperation(MutatorContext* self) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    ROLP_CHECK(operation_active_);
    operation_active_ = false;
    requested_.store(false, std::memory_order_release);
  }
  cv_resume_.notify_all();
}

SafepointManager::ScopedSafeRegion::ScopedSafeRegion(SafepointManager* sp, MutatorContext* ctx)
    : sp_(sp), ctx_(ctx) {
  std::lock_guard<std::mutex> guard(sp_->mu_);
  sp_->parked_++;
  sp_->cv_stopped_.notify_all();
}

SafepointManager::ScopedSafeRegion::~ScopedSafeRegion() {
  std::unique_lock<std::mutex> lock(sp_->mu_);
  // Must not resume while a VM operation is running.
  sp_->cv_resume_.wait(lock, [&] { return !sp_->operation_active_; });
  sp_->parked_--;
}

}  // namespace rolp
