#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"

namespace xr::runtime {

namespace {

// Pool telemetry. Counters are thread-shard cheap; the queue-depth gauge
// is only touched on enqueue/dequeue, which already take the pool mutex.
obs::Counter& pool_tasks() {
  static obs::Counter c("runtime.pool.tasks");
  return c;
}
obs::Gauge& pool_queue_depth() {
  static obs::Gauge g("runtime.pool.queue_depth");
  return g;
}
obs::Histogram& pool_task_ms() {
  static obs::Histogram h("runtime.pool.task_ms",
                          obs::Histogram::latency_bounds_ms());
  return h;
}

}  // namespace

struct ThreadPool::State {
  std::mutex mtx;
  std::condition_variable cv;
  std::deque<std::function<void()>> jobs;
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t threads) : state_(std::make_unique<State>()) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  // Construct the statics the workers touch before this pool finishes
  // constructing, so they are destroyed after it: at exit the shared
  // pool's destructor joins workers that may still be finishing a
  // parallel_for helper job, which then records its time.
  (void)pool_tasks();
  (void)pool_queue_depth();
  (void)pool_task_ms();
  // A 1-thread pool runs everything inline: no workers, no queue traffic.
  if (threads_ == 1) return;
  workers_.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mtx);
    state_->stop = true;
  }
  state_->cv.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::enqueue(std::function<void()> job) {
  pool_tasks().add();
  if (threads_ == 1) {  // inline execution preserves strict ordering
    const auto t0 = std::chrono::steady_clock::now();
    job();
    pool_task_ms().observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mtx);
    if (state_->stop)
      throw std::runtime_error("ThreadPool: submit after shutdown");
    state_->jobs.push_back(std::move(job));
    pool_queue_depth().set(double(state_->jobs.size()));
  }
  state_->cv.notify_one();
}

namespace {
/// True while the current thread is executing a pool job. Guards against
/// nested parallel_for deadlock: a worker that blocked waiting for helper
/// jobs it enqueued behind itself could never see them scheduled.
thread_local bool t_inside_pool_worker = false;
}  // namespace

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(state_->mtx);
      state_->cv.wait(lock,
                      [&] { return state_->stop || !state_->jobs.empty(); });
      if (state_->jobs.empty()) return;  // stop requested, queue drained
      job = std::move(state_->jobs.front());
      state_->jobs.pop_front();
      pool_queue_depth().set(double(state_->jobs.size()));
    }
    const auto t0 = std::chrono::steady_clock::now();
    job();
    pool_task_ms().observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
}

namespace {

/// Shared state of one parallel_for: a chunked work-stealing index range.
struct LoopContext {
  std::function<void(std::size_t)> f;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> live_runners{0};

  std::mutex mtx;
  std::condition_variable done_cv;
  std::exception_ptr error;

  void run() {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      try {
        for (std::size_t i = begin; i < end; ++i) f(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mtx);
        if (!error) error = std::current_exception();
        next.store(n);  // abandon unclaimed chunks
        break;
      }
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mtx);
      last = --live_runners == 0;
    }
    if (last) done_cv.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f,
                              std::size_t grain) {
  if (n == 0) return;
  // Grain utilization telemetry: how many chunks a loop splits into
  // relative to its index count tells whether the auto-grain heuristic is
  // feeding workers µs-crumbs or starving the steal queue.
  static obs::Counter calls("runtime.pool.parallel_for.calls");
  static obs::Counter indices("runtime.pool.parallel_for.indices");
  static obs::Counter chunks("runtime.pool.parallel_for.chunks");
  static obs::Gauge last_grain("runtime.pool.last_grain");
  calls.add();
  indices.add(n);
  // Serial inline path: 1-thread pools, single-index loops, and calls made
  // from inside a pool job (nested parallelism would deadlock — the caller
  // would wait on helper jobs queued behind its own).
  if (threads_ == 1 || n == 1 || t_inside_pool_worker) {
    chunks.add();  // the whole range runs as one inline chunk
    last_grain.set(double(n));
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  auto ctx = std::make_shared<LoopContext>();
  ctx->f = f;  // copy: helpers may outlive the caller's reference
  ctx->n = n;
  // Auto grain: ~8 contiguous chunks per runner balances load without
  // per-point contention on `next` — submitting one task per point would
  // drown µs-scale model evaluations in queue traffic (the regression the
  // fig4b baseline recorded). A chunk is a contiguous index range so
  // results stay ordered.
  ctx->chunk = grain ? grain : std::max<std::size_t>(1, n / (threads_ * 8));
  chunks.add((n + ctx->chunk - 1) / ctx->chunk);
  last_grain.set(double(ctx->chunk));

  const std::size_t helpers = std::min(threads_, n - 1);
  ctx->live_runners.store(helpers + 1);  // + the calling thread
  for (std::size_t t = 0; t < helpers; ++t) enqueue([ctx] { ctx->run(); });
  ctx->run();

  std::unique_lock<std::mutex> lock(ctx->mtx);
  ctx->done_cv.wait(lock, [&] { return ctx->live_runners.load() == 0; });
  // Move the error out of the context, which a helper may release after
  // this call returns: the exception's last reference then drops on this
  // thread, not in the helper's uninstrumented libstdc++ refcount, which
  // ThreadSanitizer reported as a race with the caller's catch block.
  if (const std::exception_ptr error = std::exchange(ctx->error, nullptr))
    std::rethrow_exception(error);
}

}  // namespace xr::runtime
