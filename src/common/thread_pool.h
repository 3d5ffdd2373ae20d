// Small work-stealing thread pool used to parallelize the embarrassingly
// parallel loops of the mining driver (time shards, per-convoy extension
// and validation in PartitionedK2HopMiner). Each worker owns a deque: it pops
// its own tasks LIFO (cache-warm) and steals from the other workers FIFO
// (oldest first), so nested submissions from inside tasks stay local while
// idle workers drain the global backlog.
#ifndef K2_COMMON_THREAD_POOL_H_
#define K2_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace k2 {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads; 0 (or negative) means
  /// hardware_concurrency. The calling thread is not a worker, but
  /// ParallelFor runs tasks on it as well.
  explicit ThreadPool(int num_workers = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Called from inside a pool task, the
  /// submission lands on the submitting worker's own deque.
  void Submit(std::function<void()> task) K2_EXCLUDES(wake_mu_);

  /// Enqueues a task whose result (or exception) is delivered via a future.
  template <typename F>
  auto Async(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  /// Runs fn(slot, i) for every i in [0, n), distributing indices over the
  /// workers plus the calling thread, and blocks until all n calls finished.
  /// `slot` identifies the concurrent runner (0 <= slot <= num_workers()), so
  /// callers can hand each runner its own scratch state. A nested call from
  /// inside a ParallelFor body runs inline, reusing the enclosing
  /// invocation's slot — slot-keyed scratch stays exclusive to one thread.
  /// The first exception thrown by fn is rethrown here after all indices
  /// completed.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      K2_EXCLUDES(wake_mu_);

  /// Convenience overload without the slot id.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      K2_EXCLUDES(wake_mu_);

  /// Blocks until every task submitted so far has finished.
  void Wait() K2_EXCLUDES(wake_mu_);

 private:
  struct WorkerQueue {
    Mutex mu;
    std::deque<std::function<void()>> tasks K2_GUARDED_BY(mu);
  };

  void WorkerMain(size_t index) K2_EXCLUDES(wake_mu_);
  bool TryRunOneTask(size_t self) K2_EXCLUDES(wake_mu_);
  bool PopFrom(size_t queue_index, bool lifo, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Lock order: a thread never holds wake_mu_ and a WorkerQueue::mu at the
  // same time (push/pop finish before the wake/idle handshake starts).
  Mutex wake_mu_;
  CondVar wake_cv_;
  CondVar idle_cv_;
  std::atomic<size_t> queued_{0};    // tasks sitting in some deque
  std::atomic<size_t> inflight_{0};  // tasks popped but not yet finished
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};  // round-robin for external Submits
};

}  // namespace k2

#endif  // K2_COMMON_THREAD_POOL_H_
