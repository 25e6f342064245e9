#ifndef TOPL_COMMON_THREAD_POOL_H_
#define TOPL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace topl {

/// \brief Fixed-size worker pool for data-parallel loops and nested
/// fan-out. Two execution modes share one thread budget:
///
///  - ParallelFor / ParallelForWithWorker: blocking data-parallel loops over
///    an index range, used by the offline precomputation phase (Algorithm 2),
///    update maintenance and Engine::SearchBatch. Workers are spawned per
///    call and the calling thread participates, so nested use cannot
///    deadlock.
///
///  - TaskGroup: structured nested fan-out over persistent queue workers
///    (started lazily on first use, joined by Shutdown or the destructor).
///    Wait() never parks the caller while group work is runnable — it
///    executes unclaimed subtasks itself — so fanning out subtasks from
///    inside a pool task or ParallelFor body cannot deadlock even when
///    every queue worker is busy. This is what gives one query intra-query
///    parallelism while the same pool serves other queries.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Equivalent to Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Stops offering TaskGroup subtasks to the queue workers, runs every
  /// subtask already offered, and joins the workers. Idempotent; must not be
  /// called from a pool task. TaskGroups keep working afterwards: Wait()
  /// runs their subtasks on the calling thread.
  void Shutdown();

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

  /// Queues a TaskGroup claim token. After Shutdown the token is dropped:
  /// the group's Wait() runs the subtask itself.
  void Enqueue(std::function<void()> task);
  void QueueWorkerLoop();

  std::size_t num_threads_;

  // Queue-worker state, guarded by queue_mu_.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> queue_workers_;
  bool stopping_ = false;
};

}  // namespace topl

#endif  // TOPL_COMMON_THREAD_POOL_H_
