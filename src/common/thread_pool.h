#ifndef TOPL_COMMON_THREAD_POOL_H_
#define TOPL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace topl {

/// CPUs in the process's affinity mask (what taskset or a cgroup cpuset
/// allows), at least 1. Unlike std::thread::hardware_concurrency(), a
/// restricted process gets its real share, so sizing threads by it does not
/// oversubscribe.
std::size_t ProcessCpuCount();

/// \brief Fixed-size worker pool for data-parallel work and async tasks.
///
/// Two independent execution modes share one thread budget:
///
///  - ParallelFor / ParallelForWithWorker: blocking data-parallel loops over
///    an index range, used by the offline precomputation phase (Algorithm 2)
///    and by Engine::SearchBatch. Workers are spawned per call and the
///    calling thread participates, so nested use cannot deadlock.
///
///  - Submit: enqueues one task on persistent queue workers (started by the
///    constructor, joined by the destructor) and returns a std::future for
///    its result. This backs Engine::Submit's async query serving. Tasks run
///    FIFO and never on the calling thread; a task must not block on another
///    task submitted to the same pool, or all queue workers can end up
///    waiting on queued work.
///
///  - TaskGroup: structured nested fan-out. Unlike Submit, a TaskGroup may
///    be used *from inside* a pool task (or ParallelFor body): Wait() never
///    parks the caller while group work is runnable — it executes unclaimed
///    subtasks itself — so fanning out sub-tasks from a worker cannot
///    deadlock even when every queue worker is busy. This is what gives one
///    query intra-query parallelism while the same pool serves other queries.
///
/// The queue workers start in the constructor, so they run on the CPUs of
/// the thread that constructed the pool, whichever thread submits first.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 means ProcessCpuCount().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains nothing: queued tasks not yet started are still executed, then
  /// the queue workers are joined (equivalent to Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Stops accepting Submit tasks, runs everything already queued, and joins
  /// the queue workers. Idempotent; safe to race with concurrent Submit
  /// calls (they either make it into the queue and run, or their future
  /// fails with the typed shutdown error). Must not be called from a pool
  /// task. After Shutdown, Submit never deadlocks and never leaves a broken
  /// promise: the returned future throws std::runtime_error on get().
  void Shutdown();

  /// True once Shutdown() (or the destructor) has begun. Advisory — a false
  /// return can be stale by the time the caller acts on it; Submit itself is
  /// always safe either way.
  bool is_shutdown() const;

  /// Runs body(i) for every i in [begin, end), distributing chunks of
  /// `grain` consecutive indices over the workers. Blocks until all
  /// iterations complete. body must be safe to invoke concurrently for
  /// distinct i. With num_threads() == 1 the loop runs inline.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body,
                   std::size_t grain = 64);

  /// Like ParallelFor, but the body also receives the worker id in
  /// [0, num_threads()), so callers can maintain per-worker scratch state
  /// (e.g., one PropagationEngine per worker in the precompute phase).
  void ParallelForWithWorker(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t worker, std::size_t i)>& body,
      std::size_t grain = 64);

  /// Runs fn() on a persistent queue worker and returns a future for its
  /// result. Exceptions propagate through the future. After Shutdown() the
  /// task is rejected: it never runs, and the future throws
  /// std::runtime_error("ThreadPool is shut down") from get() — a defined,
  /// typed failure instead of UB or a deadlock.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    // fn lives in a shared_ptr so the enqueued closure stays copyable
    // (std::function) even for move-only callables.
    auto body = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
    const bool accepted = Enqueue([promise, body]() {
      try {
        if constexpr (std::is_void_v<R>) {
          (*body)();
          promise->set_value();
        } else {
          promise->set_value((*body)());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    if (!accepted) {
      promise->set_exception(std::make_exception_ptr(
          std::runtime_error("ThreadPool is shut down")));
    }
    return future;
  }

  /// Number of Submit tasks enqueued but not yet finished (approximate;
  /// intended for tests and monitoring).
  std::size_t PendingTasks() const;

  /// \brief A set of subtasks whose completion the spawning thread joins.
  ///
  /// Spawned subtasks are offered to the pool's queue workers, but ownership
  /// of each unit of work stays with the group: Wait() keeps popping
  /// unclaimed subtasks and running them on the calling thread, then blocks
  /// only for subtasks already *running* elsewhere. Safe to use from any
  /// thread, including pool workers (nested fan-out) — the help-first join
  /// means progress never depends on a free worker.
  ///
  /// Not reusable across Wait() rounds concurrently: one thread spawns and
  /// waits; after Wait() returns the group may spawn again.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool);
    ~TaskGroup();  // aborts if outstanding subtasks were never waited for
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Adds one subtask. With a single-threaded pool the subtask simply runs
    /// during Wait() on the calling thread.
    void Spawn(std::function<void()> fn);

    /// Runs/joins every spawned subtask; on return all have finished.
    /// Exceptions thrown by subtasks are rethrown here (first one wins).
    void Wait();

   private:
    struct State;
    ThreadPool* pool_;
    std::shared_ptr<State> state_;
  };

 private:
  friend class TaskGroup;

  /// False when the pool is shut down (the task was not queued).
  bool Enqueue(std::function<void()> task);
  void QueueWorkerLoop();

  std::size_t num_threads_;

  // Submit machinery; all fields below are guarded by queue_mu_ except
  // in_flight_, which queue workers decrement after finishing a task.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> queue_workers_;
  std::atomic<std::size_t> in_flight_{0};
  bool stopping_ = false;
};

}  // namespace topl

#endif  // TOPL_COMMON_THREAD_POOL_H_
