#pragma once
/// \file work_queue.h
/// \brief The library's one worker pool: fixed workers behind a bounded
/// admission queue.
///
/// Two clients share it. sched::ThreadExecutor runs objective evaluations
/// on it (capacity = workers, since the executor never submits more work
/// than it has workers). serve::SessionHost runs SUGGEST/OBSERVE on it
/// (docs/service-protocol.md § Deadlines): with session commands executed
/// directly on connection threads, one slow SUGGEST (large n, exact GP,
/// many restarts) occupies its connection for the duration and — worse —
/// holds the per-session lock against eviction. The queue decouples the
/// two: connection threads parse/validate and submit() a closure; a fixed
/// pool of workers executes it (session lock acquisition included); the
/// submitter waits on the task with its own deadline and can walk away
/// (abandon()) while the worker keeps running to a safe checkpoint.
///
/// Boundedness, in order:
///  - submit() refuses (returns null) when `capacity` tasks are already
///    queued — the caller sheds with "ERR busy" instead of queueing
///    without bound;
///  - each executing closure receives how long it sat queued, so the
///    caller can shed stale work at dequeue (the queue-wait cap) before
///    spending model math on a request whose client has given up;
///  - an abandoned task that was still queued is discarded without
///    executing at all.
///
/// The queue is deliberately protocol-agnostic: it moves opaque
/// string-reply closures and never looks inside them. All serve
/// semantics (shedding replies, deadline classification, watchdog
/// quarantine) live in SessionHost, which is where they are tested.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stop_token.h"

namespace easybo::common {

struct WorkQueueOptions {
  /// Worker threads executing tasks. Must be >= 1.
  std::size_t workers = 2;
  /// Tasks allowed to wait for a worker before submit() refuses.
  std::size_t capacity = 64;
};

class WorkQueue {
 public:
  /// What state an abandoned task was in (the submitter's deadline+grace
  /// classification depends on it — see SessionHost).
  enum class Abandon {
    Completed,  ///< finished in the race: take_reply() is valid
    Queued,     ///< never started; the worker will discard it unrun
    Running,    ///< a worker is still executing it (the watchdog case)
  };

  /// The task executed by a worker: returns the protocol reply line.
  /// Arguments: the request's cancellation token and the seconds the
  /// task spent queued before execution began.
  using Fn = std::function<std::string(const common::StopToken&, double)>;

  /// Shared between the submitting thread and the executing worker. All
  /// methods are thread-safe.
  class Task {
   public:
    /// Blocks until the reply is published or \p until passes. True when
    /// the reply is available (take_reply() is then valid).
    bool wait_until(std::chrono::steady_clock::time_point until);

    /// Blocks until the reply is published (no-deadline submitters).
    void wait();

    /// Moves the reply out; call only after wait()/wait_until() true.
    std::string take_reply();

    /// Declares the submitter gone and reports what state the task was
    /// in at that instant. After Running, the worker will invoke the
    /// submit()-time on_abandoned_done callback once the closure
    /// eventually returns; after Queued, the closure never runs at all.
    Abandon abandon();

   private:
    friend class WorkQueue;
    std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    bool started_ = false;
    bool abandoned_ = false;
    std::string reply_;
    Fn fn_;
    common::StopToken token_;
    std::chrono::steady_clock::time_point enqueued_;
    std::function<void()> on_abandoned_done_;
  };

  explicit WorkQueue(WorkQueueOptions opt);
  /// Stops accepting, drains whatever is queued (so no submitter can be
  /// left waiting forever), joins the workers.
  ~WorkQueue();

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Enqueues a task. Returns null when the admission queue is full (or
  /// the queue is shutting down) — the caller sheds, nothing was
  /// enqueued. \p on_abandoned_done runs on the worker thread after an
  /// abandoned-while-Running task's closure finally returns; SessionHost
  /// uses it to quarantine the session a runaway request was stuck on.
  std::shared_ptr<Task> submit(Fn fn, common::StopToken token,
                               std::function<void()> on_abandoned_done = {});

  /// Tasks currently waiting for a worker (excludes executing ones).
  std::size_t depth() const;
  std::size_t workers() const { return threads_.size(); }

 private:
  void worker_loop();

  WorkQueueOptions opt_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace easybo::common
