#ifndef MTSHARE_COMMON_THREAD_POOL_H_
#define MTSHARE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mtshare {

/// A fixed-size worker pool for the contraction hierarchy's priority pass
/// and for fanning bench sweeps out across scenarios. Design goals, in
/// order: deterministic results (the pool never reorders *outputs* —
/// ParallelFor writes each index's result into its own slot and callers
/// reduce in index order), low overhead on small work lists (one task per
/// worker, contiguous chunks, no per-item queue traffic), and simplicity
/// (no work stealing; the sweep grids this serves are in the tens to
/// hundreds).
///
/// Tasks must not throw: the codebase communicates failure by Status/CHECK,
/// and an exception escaping a worker would terminate anyway.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int32_t size() const { return static_cast<int32_t>(workers_.size()); }

  /// Enqueues one task; the future resolves when it finishes.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [0, n), split into at most size() contiguous
  /// chunks, and blocks until all complete. The calling thread executes the
  /// first chunk itself, so a 1-thread pool degenerates to a plain loop with
  /// no synchronization beyond one empty wait.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Picks a worker count: `requested` if >= 1, else the hardware
  /// concurrency (at least 1).
  static int32_t DefaultThreads(int32_t requested);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mtshare

#endif  // MTSHARE_COMMON_THREAD_POOL_H_
