#include "par/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace zeiot::par {

namespace {

/// True while the current thread is executing a pool task (any pool).
/// Guards against nested parallel regions blocking on their own pool.
thread_local bool t_in_pool_task = false;

/// Sentinel the index counter is parked at between jobs: any fetch_add
/// from a straggling worker yields a value >= every possible task count.
constexpr std::size_t kParked = std::numeric_limits<std::size_t>::max() / 2;

}  // namespace

std::size_t default_threads() {
  if (const char* env = std::getenv("ZEIOT_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return v > 512 ? 512 : static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl {
  std::mutex m;
  std::condition_variable cv_work;   // workers wait for a new generation
  std::condition_variable cv_done;   // caller waits for active == 0
  // Job state.  fn/total are atomics because workers read them without the
  // lock; publication order (fn, total, then next) plus the acquire/release
  // pairing on `next` makes those reads well-defined.
  std::atomic<const std::function<void(std::size_t)>*> fn{nullptr};
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> next{kParked};
  // Workers inside work(), guarded by m.  run() returns only once this is
  // zero, so no worker can carry an index it claimed for one job into the
  // next: a claim is always read against the job it was claimed from.
  std::size_t active = 0;
  std::uint64_t generation = 0;      // guarded by m
  bool shutdown = false;             // guarded by m
  std::exception_ptr error;          // guarded by m; lowest failing index
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::vector<std::thread> workers;

  /// Consumes task indices until the job is drained.  Runs on workers and
  /// on the calling thread alike.
  void work() {
    t_in_pool_task = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_acq_rel);
      if (i >= total.load(std::memory_order_acquire)) break;
      const auto* f = fn.load(std::memory_order_acquire);
      try {
        (*f)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
    t_in_pool_task = false;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m);
        cv_work.wait(lk, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        ++active;
      }
      work();
      std::lock_guard<std::mutex> lk(m);
      if (--active == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(std::make_unique<Impl>()),
      num_threads_(num_threads == 0 ? default_threads() : num_threads) {
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    impl_->workers.emplace_back([s = impl_.get()] { s->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->shutdown = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_->workers.empty() || count == 1 || t_in_pool_task) {
    // Serial / nested execution: same index order a one-thread pool uses,
    // and the first throwing index propagates naturally.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Impl* s = impl_.get();
  {
    std::lock_guard<std::mutex> lk(s->m);
    s->error = nullptr;
    s->error_index = std::numeric_limits<std::size_t>::max();
    s->fn.store(&fn, std::memory_order_relaxed);
    s->total.store(count, std::memory_order_relaxed);
    // Publish last: a worker that observes the fresh counter value also
    // observes fn/total (release paired with the acquire in work()).
    s->next.store(0, std::memory_order_release);
    ++s->generation;
  }
  s->cv_work.notify_all();
  s->work();  // the caller participates
  std::exception_ptr err;
  {
    // Every index is claimed once the caller's work() returns, and every
    // claim is made inside some worker's work(); once no worker is inside,
    // every task has finished.
    std::unique_lock<std::mutex> lk(s->m);
    s->cv_done.wait(lk, [&] { return s->active == 0; });
    // Park the counter so workers that wake late for this generation take
    // no index; they leave work() without touching the next job.
    s->next.store(kParked, std::memory_order_release);
    err = s->error;
    s->error = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_threads());
  return pool;
}

}  // namespace zeiot::par
