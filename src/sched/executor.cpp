#include "sched/executor.h"

#include <utility>

#include "common/error.h"

namespace easybo::sched {

std::vector<Completion> Executor::wait_all() {
  std::vector<Completion> done;
  while (num_running() > 0) done.push_back(wait_next());
  return done;
}

// ---------------------------------------------------------------------------
// VirtualExecutor
// ---------------------------------------------------------------------------

void VirtualExecutor::submit(std::size_t tag, Work work, double duration) {
  const std::size_t job_id = sched_.submit(tag, duration);
  if (outcomes_.size() <= job_id) outcomes_.resize(job_id + 1);
  // Evaluate eagerly but deliver failures lazily: a throwing objective
  // must surface at wait_next(), exactly where ThreadExecutor rethrows
  // worker exceptions, so the engine sees one failure contract on both
  // backends.
  try {
    outcomes_[job_id].result = work();
  } catch (...) {
    outcomes_[job_id].error = std::current_exception();
  }
}

Completion VirtualExecutor::wait_next() {
  const JobRecord rec = sched_.wait_next();
  Outcome& out = outcomes_[rec.job_id];
  if (out.error) std::rethrow_exception(out.error);
  Completion c;
  c.tag = rec.tag;
  c.value = out.result.value;
  c.constraints = std::move(out.result.constraints);
  c.worker = rec.worker;
  c.start = rec.start;
  c.finish = rec.finish;
  return c;
}

// ---------------------------------------------------------------------------
// ThreadExecutor
// ---------------------------------------------------------------------------

ThreadExecutor::ThreadExecutor(std::size_t num_threads)
    : t0_(std::chrono::steady_clock::now()),
      free_slot_count_(num_threads),
      pool_(common::WorkQueueOptions{num_threads, num_threads}) {
  free_slots_.resize(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) free_slots_[i] = i;
  busy_per_slot_.assign(num_threads, 0.0);
}

double ThreadExecutor::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

std::size_t ThreadExecutor::num_running() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

double ThreadExecutor::now() const { return elapsed(); }

double ThreadExecutor::total_busy_time() const {
  std::lock_guard lock(mutex_);
  return total_busy_;
}

std::vector<double> ThreadExecutor::per_worker_busy() const {
  std::lock_guard lock(mutex_);
  return busy_per_slot_;
}

void ThreadExecutor::submit(std::size_t tag, Work work,
                            double /*duration: real executors measure*/) {
  {
    std::lock_guard lock(mutex_);
    EASYBO_REQUIRE(in_flight_ < free_slot_count_,
                   "submit with no idle worker");
    ++in_flight_;
  }
  // in_flight_ counts a task until its completion is consumed, so the
  // queue never holds more than num_workers tasks and never refuses one.
  pool_.submit([this, tag, work = std::move(work)](
                   const common::StopToken&, double) -> std::string {
    std::size_t slot;
    {
      std::lock_guard lock(mutex_);
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Outcome out;
    out.completion.tag = tag;
    out.completion.worker = slot;
    out.completion.start = elapsed();
    try {
      Evaluation result = work();
      out.completion.value = result.value;
      out.completion.constraints = std::move(result.constraints);
    } catch (...) {
      out.error = std::current_exception();
    }
    out.completion.finish = elapsed();
    {
      std::lock_guard lock(mutex_);
      free_slots_.push_back(slot);
      const double busy = out.completion.finish - out.completion.start;
      total_busy_ += busy;
      busy_per_slot_[slot] += busy;
      done_.push_back(std::move(out));
    }
    cv_.notify_one();
    return {};
  }, common::StopToken());
}

Completion ThreadExecutor::wait_next() {
  std::unique_lock lock(mutex_);
  EASYBO_REQUIRE(in_flight_ > 0, "wait_next with no running job");
  cv_.wait(lock, [this] { return !done_.empty(); });
  Outcome out = std::move(done_.front());
  done_.pop_front();
  --in_flight_;
  if (out.error) std::rethrow_exception(out.error);
  return out.completion;
}

std::optional<Completion> ThreadExecutor::try_wait_next(
    double timeout_seconds) {
  std::unique_lock lock(mutex_);
  EASYBO_REQUIRE(in_flight_ > 0, "try_wait_next with no running job");
  const bool ready =
      cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                   [this] { return !done_.empty(); });
  if (!ready) return std::nullopt;
  Outcome out = std::move(done_.front());
  done_.pop_front();
  --in_flight_;
  if (out.error) std::rethrow_exception(out.error);
  return out.completion;
}

}  // namespace easybo::sched
