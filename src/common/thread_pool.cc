#include "common/thread_pool.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.h"

namespace topl {

std::size_t ProcessCpuCount() {
  // The main thread's mask (pid == its tid), not the caller's: a pinned
  // client thread must not shrink the count for everyone it sizes.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) : num_threads_(num_threads) {
  if (num_threads_ == 0) num_threads_ = ProcessCpuCount();
  // Started here rather than on the first Submit, so that they inherit this
  // thread's CPU mask: a pinned first submitter must not confine the pool.
  queue_workers_.reserve(num_threads_);
  for (std::size_t t = 0; t < num_threads_; ++t) {
    queue_workers_.emplace_back([this] { QueueWorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    workers.swap(queue_workers_);  // empty on a second call: idempotent
  }
  queue_cv_.notify_all();
  for (auto& worker : workers) worker.join();
}

bool ThreadPool::is_shutdown() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return stopping_;
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body,
                             std::size_t grain) {
  ParallelForWithWorker(
      begin, end, [&body](std::size_t, std::size_t i) { body(i); }, grain);
}

void ThreadPool::ParallelForWithWorker(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  if (num_threads_ == 1 || total <= grain) {
    for (std::size_t i = begin; i < end; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> next{begin};
  auto worker = [&](std::size_t worker_id) {
    for (;;) {
      const std::size_t chunk_begin = next.fetch_add(grain);
      if (chunk_begin >= end) return;
      const std::size_t chunk_end = std::min(end, chunk_begin + grain);
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(worker_id, i);
    }
  };
  const std::size_t spawn = std::min(num_threads_ - 1, (total + grain - 1) / grain);
  std::vector<std::thread> threads;
  threads.reserve(spawn);
  for (std::size_t t = 0; t < spawn; ++t) {
    threads.emplace_back(worker, t + 1);
  }
  worker(0);  // The calling thread participates as worker 0.
  for (auto& t : threads) t.join();
}

bool ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // A task queued after shutdown began might never be claimed (workers are
    // gone or draining), so reject it; Submit turns the rejection into a
    // typed error.
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return true;
}

void ThreadPool::QueueWorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t ThreadPool::PendingTasks() const {
  return in_flight_.load(std::memory_order_relaxed);
}

// Shared between the group handle and the claim tokens it enqueues. The
// tokens only hold the State (not the TaskGroup), so a token drained by a
// queue worker after the group's Wait() already ran everything is harmless.
struct ThreadPool::TaskGroup::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> pending;  // spawned, not yet claimed
  std::size_t running = 0;                    // claimed, not yet finished
  std::exception_ptr error;

  // Pops one pending subtask (nullptr when none) and marks it running.
  std::function<void()> Claim() {
    std::lock_guard<std::mutex> lock(mu);
    if (pending.empty()) return nullptr;
    std::function<void()> fn = std::move(pending.front());
    pending.pop_front();
    ++running;
    return fn;
  }

  void Finish(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e && !error) error = std::move(e);
    if (--running == 0 && pending.empty()) cv.notify_all();
  }

  void Run(std::function<void()> fn) {
    std::exception_ptr e;
    try {
      fn();
    } catch (...) {
      e = std::current_exception();
    }
    Finish(std::move(e));
  }
};

ThreadPool::TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

ThreadPool::TaskGroup::~TaskGroup() {
  std::lock_guard<std::mutex> lock(state_->mu);
  TOPL_CHECK(state_->pending.empty() && state_->running == 0,
             "TaskGroup destroyed with outstanding subtasks; call Wait()");
}

void ThreadPool::TaskGroup::Spawn(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->pending.push_back(std::move(fn));
  }
  // Offer the unit of work to the queue workers via a claim token. A
  // single-threaded pool skips the offer: Wait() runs everything inline, so
  // its subtasks never run beside the spawning thread.
  if (pool_->num_threads_ > 1) {
    pool_->Enqueue([state = state_] {
      if (std::function<void()> fn = state->Claim()) state->Run(std::move(fn));
    });
  }
}

void ThreadPool::TaskGroup::Wait() {
  // Help-first: drain our own pending subtasks on this thread. Queue workers
  // racing us just find an empty pending list.
  while (std::function<void()> fn = state_->Claim()) state_->Run(std::move(fn));
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] {
      return state_->running == 0 && state_->pending.empty();
    });
    error = std::exchange(state_->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace topl
