//===- support/ThreadPool.h - Work-queue thread pool -----------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size work-queue thread pool and a deterministic parallel-for
/// helper. Used by the suite runner, the fuzzer, and the CLI drivers to fan
/// out independent compile-and-run jobs: the paper's evaluation matrix (14
/// programs x 4 configurations) and the fuzzer's seed loop are embarrassingly
/// parallel, but every job must stay self-contained — each one builds its own
/// Module/TagTable, and results are always collected in submission order so
/// parallel output is byte-identical to serial output.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SUPPORT_THREADPOOL_H
#define RPCC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rpcc {

/// A fixed-size pool of worker threads pulling tasks from a FIFO queue.
///
/// Tasks must not touch shared mutable state unless they synchronize it
/// themselves; the intended use is jobs that write only to pre-sized,
/// per-index result slots. With zero workers every task runs inline in
/// submit(), which keeps the serial path free of threads entirely.
class ThreadPool {
public:
  /// Spawns \p Workers threads. Zero is valid: tasks then run inline.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues \p Task. A task that throws does not kill the worker; the
  /// first exception (in completion order) is stashed and rethrown by the
  /// next wait().
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first stashed task exception, if any.
  void wait();

  /// std::thread::hardware_concurrency with a sane fallback when the
  /// runtime reports zero.
  static unsigned defaultConcurrency();

  /// Worker id of the calling thread: 1..N inside a pool worker, 0 on any
  /// other thread (including the main thread and inline-mode execution).
  /// Used as the track id by the trace emitter.
  static int currentWorker();

private:
  void workerLoop(int WorkerId);
  void runTask(std::function<void()> &Task);

  /// A queued task plus its enqueue timestamp, so workers can report how
  /// long it sat in the queue (the pool.task_wait_us metric).
  struct QueuedTask {
    std::function<void()> Fn;
    uint64_t EnqueuedUs;
  };

  std::mutex Mu;
  std::condition_variable HaveWork; ///< signalled on submit and shutdown
  std::condition_variable AllDone;  ///< signalled when Pending hits zero
  std::deque<QueuedTask> Queue;
  size_t Pending = 0; ///< queued + currently running tasks
  bool Stopping = false;
  std::exception_ptr FirstError;
  std::vector<std::thread> Threads;
};

/// Runs Body(0), ..., Body(N-1) across up to \p Jobs workers.
///
/// With Jobs <= 1 (or N <= 1) the loop runs inline, in index order, on the
/// calling thread — no threads are created, so serial behavior is exactly
/// the plain for-loop. With more workers, indices are claimed from an atomic
/// counter; every index runs exactly once, but in no particular order, so
/// Body must write results only into its own index's slot. Claims are in
/// ascending order and a claimed index runs at once, so a body may wait for
/// a lower index's body to make progress (never for a higher one's), as the
/// suite runner's cells do for earlier cells' decisions. If a body throws,
/// the first exception is rethrown from parallelFor after all workers stop;
/// indices not yet claimed at that point are skipped.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Body);

} // namespace rpcc

#endif // RPCC_SUPPORT_THREADPOOL_H
