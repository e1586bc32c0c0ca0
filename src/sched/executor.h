#pragma once
/// \file executor.h
/// \brief The execution seam between the BO algorithm and the machinery
/// that actually evaluates the objective.
///
/// The paper's Algorithm 1 ("propose on an idle worker, hallucinate the
/// pending points") is one algorithm; where an evaluation runs — a
/// virtual-time discrete-event scheduler for deterministic experiments, or
/// a real std::thread pool for genuinely expensive objectives — is an
/// execution concern. BoEngine speaks only this interface, so every issue
/// policy (sequential / sync batch / async batch) and every acquisition
/// runs identically on both backends; behaviour cannot drift between them.
///
///   while (exec.has_idle_worker()) exec.submit(tag, work, duration);
///   auto done = exec.wait_next();   // blocks; rethrows worker exceptions
///
/// A work item returns an Evaluation: the objective value plus the
/// constraint values the same simulation produced (constrained runs). A
/// plain `[] { return f(x); }` converts implicitly, so unconstrained
/// callers never see the second field.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/work_queue.h"
#include "sched/event_sim.h"

namespace easybo::sched {

/// What one work item produced. The constraint values travel with the
/// attempt that computed them — through the executor, the supervisor's
/// retries and its non-finite classification — never through a side
/// table a retried or abandoned attempt could overwrite.
struct Evaluation {
  /// Implicit on purpose: a work item returning a plain double is an
  /// Evaluation without constraints.
  Evaluation(double v = 0.0) : value(v) {}

  double value;
  std::vector<double> constraints;  ///< in constraint order; empty if none
};

/// One unit of submitted work.
using Work = std::function<Evaluation()>;

/// One finished evaluation as seen by the algorithm.
struct Completion {
  std::size_t tag = 0;     ///< caller-defined payload (proposal index)
  double value = 0.0;      ///< result of the submitted work
  std::vector<double> constraints;  ///< Evaluation::constraints
  std::size_t worker = 0;  ///< worker slot that ran it
  double start = 0.0;      ///< seconds (virtual or wall) since run start
  double finish = 0.0;
};

/// Fixed pool of workers, virtual or real.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual std::size_t num_workers() const = 0;
  virtual std::size_t num_running() const = 0;
  bool has_idle_worker() const { return num_running() < num_workers(); }

  /// Starts \p work on an idle worker. \p duration is the job's virtual
  /// duration; real executors ignore it and measure wall clock instead.
  /// Throws InvalidArgument when no worker is idle.
  virtual void submit(std::size_t tag, Work work, double duration) = 0;

  /// Blocks until the earliest completion and returns it. When the work
  /// threw, the exception is rethrown HERE — the waiter owns failure
  /// handling, a worker never swallows it. Throws InvalidArgument when
  /// nothing is running.
  virtual Completion wait_next() = 0;

  /// Bounded wait: like wait_next(), but gives up after \p timeout_seconds
  /// of real blocking and returns nullopt. Executors whose completions
  /// never require real waiting (virtual time: the next completion is
  /// always computable) return wait_next() directly and never time out.
  /// Worker exceptions are rethrown here exactly as in wait_next().
  /// Throws InvalidArgument when nothing is running.
  virtual std::optional<Completion> try_wait_next(double timeout_seconds) = 0;

  /// Clock discipline: true when start/finish/now() are wall-clock seconds
  /// measured by real execution, false when they are virtual seconds fixed
  /// at submit time. EvalSupervisor keys its deadline mechanism on this —
  /// on virtual time an over-long job is cut at submit (duration capped at
  /// the deadline); on a wall clock it arms a watchdog around wait_next.
  virtual bool wall_clock() const = 0;

  /// Barrier: drains every running job, in completion order.
  std::vector<Completion> wait_all();

  /// Seconds (virtual or wall) elapsed since the executor started.
  virtual double now() const = 0;

  /// Lower-bounds the executor clock at \p t. Meaningful only for virtual
  /// time (checkpoint resume re-anchors re-submitted work at its original
  /// submission time); wall-clock executors advance on their own and
  /// ignore it. Never moves time backward or past a running completion.
  virtual void advance_to(double /*t*/) {}

  /// Sum over workers of busy time accumulated so far.
  virtual double total_busy_time() const = 0;

  /// Busy seconds accumulated by each worker slot (virtual or wall),
  /// indexed by the Completion::worker ids. Idle time of slot w over a
  /// run is now() - per_worker_busy()[w] — the per-worker utilization
  /// split the observability layer exports.
  virtual std::vector<double> per_worker_busy() const = 0;
};

/// Virtual-time executor: wraps VirtualScheduler. Work is evaluated
/// eagerly at submit time (the objectives in the experiment regime are
/// deterministic); the scheduler controls WHEN the value becomes visible
/// to the caller (wait_next), which is all that matters for the
/// information flow of the algorithm. A throwing work item is captured at
/// submit time and rethrown when ITS completion is waited for — the same
/// call site where ThreadExecutor surfaces worker exceptions, preserving
/// the backend-parity guarantee (DESIGN.md §5.0).
class VirtualExecutor final : public Executor {
 public:
  explicit VirtualExecutor(std::size_t num_workers) : sched_(num_workers) {}

  std::size_t num_workers() const override { return sched_.num_workers(); }
  std::size_t num_running() const override { return sched_.num_running(); }
  void submit(std::size_t tag, Work work, double duration) override;
  Completion wait_next() override;
  std::optional<Completion> try_wait_next(double /*timeout*/) override {
    return wait_next();  // virtual time never blocks for real
  }
  bool wall_clock() const override { return false; }
  double now() const override { return sched_.now(); }
  void advance_to(double t) override { sched_.advance_to(t); }
  double total_busy_time() const override {
    return sched_.total_busy_time();
  }
  std::vector<double> per_worker_busy() const override {
    return sched_.per_worker_busy();
  }

  /// The underlying scheduler, for schedule-trace inspection.
  const VirtualScheduler& scheduler() const { return sched_; }

 private:
  struct Outcome {
    Evaluation result;
    std::exception_ptr error;
  };

  VirtualScheduler sched_;
  std::vector<Outcome> outcomes_;  // indexed by job id
};

/// Real-threads executor on a common::WorkQueue with one worker per slot
/// (capacity = workers: submit() refuses beyond the worker count, so the
/// queue never holds more than that). The objective runs on the worker
/// thread (deferred, unlike VirtualExecutor), start/finish are wall-clock
/// seconds since construction, and a throwing objective is delivered to
/// wait_next() instead of being dropped — dropping it would leave the
/// proposer blocked forever.
class ThreadExecutor final : public Executor {
 public:
  explicit ThreadExecutor(std::size_t num_threads);

  std::size_t num_workers() const override { return free_slot_count_; }
  std::size_t num_running() const override;
  void submit(std::size_t tag, Work work, double duration) override;
  Completion wait_next() override;
  std::optional<Completion> try_wait_next(double timeout_seconds) override;
  bool wall_clock() const override { return true; }
  double now() const override;
  double total_busy_time() const override;
  std::vector<double> per_worker_busy() const override;

 private:
  struct Outcome {
    Completion completion;
    std::exception_ptr error;
  };

  double elapsed() const;

  std::chrono::steady_clock::time_point t0_;
  std::size_t free_slot_count_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Outcome> done_;
  std::vector<std::size_t> free_slots_;
  std::size_t in_flight_ = 0;
  double total_busy_ = 0.0;
  std::vector<double> busy_per_slot_;
  // Last member: its destructor drains and joins the workers while the
  // state above (mutex, queues) is still alive — in-flight tasks touch it.
  common::WorkQueue pool_;
};

}  // namespace easybo::sched
