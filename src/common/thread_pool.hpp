// Work-stealing thread pool for the verification-campaign subsystem.
//
// The campaign runner fans thousands of seeded simulations across cores;
// individual seeds vary wildly in cost (a seed that provokes the Figure 2
// deadlock path can run 50x longer than a quiet one), so a single shared
// queue would serialize on the fast seeds while one worker grinds the slow
// one.  Each worker therefore owns a deque: it pushes/pops work at the back
// (LIFO, cache-warm) and, when empty, steals from the *front* of a victim's
// deque (FIFO, the oldest — and statistically largest — task).
//
// Design notes:
//   * per-deque mutexes rather than a lock-free Chase-Lev deque: campaign
//     tasks are whole simulations (milliseconds each), so queue overhead is
//     noise, and the mutex version is trivially data-race-free — which the
//     TSan CI job must be able to prove for the whole campaign stack.
//   * submit() is callable from worker threads too (a task may spawn
//     subtasks, e.g. minimization probes); external submitters round-robin
//     across deques so the initial fan-out is balanced.
//   * wait() blocks until every submitted task (including tasks submitted
//     by tasks) has finished; the pool stays usable for the next wave —
//     the campaign's --until-coverage mode runs seeds in waves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lcdc {

/// Aggregate scheduling counters, exposed so the campaign report and the
/// throughput bench can show how much stealing actually happened.
struct PoolStats {
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksStolen = 0;  ///< executed tasks that were stolen
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task.  Thread-safe; callable from worker threads (the
  /// task lands on the calling worker's own deque).
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have run.  Must not be called from a
  /// worker thread (it would deadlock on its own pending task).
  void wait();

  [[nodiscard]] PoolStats stats() const;

 private:
  struct Deque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void workerLoop(unsigned self);
  bool tryPop(unsigned self, std::function<void()>& task, bool& stolen);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards sleeping/wake + done signalling
  std::condition_variable cv_;     // workers sleep here when idle
  std::condition_variable doneCv_; // wait() sleeps here
  bool stop_ = false;

  std::atomic<std::uint64_t> pending_{0};    // submitted but not finished
  std::atomic<std::uint64_t> queued_{0};     // sitting in a deque right now
  std::atomic<std::uint64_t> nextDeque_{0};  // external submit round-robin
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
};

}  // namespace lcdc
