#include "common/work_queue.h"

#include <exception>
#include <utility>

#include "common/error.h"

namespace easybo::common {

bool WorkQueue::Task::wait_until(
    std::chrono::steady_clock::time_point until) {
  std::unique_lock<std::mutex> lk(m_);
  return cv_.wait_until(lk, until, [this] { return done_; });
}

void WorkQueue::Task::wait() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [this] { return done_; });
}

std::string WorkQueue::Task::take_reply() {
  std::lock_guard<std::mutex> lk(m_);
  return std::move(reply_);
}

WorkQueue::Abandon WorkQueue::Task::abandon() {
  std::lock_guard<std::mutex> lk(m_);
  if (done_) return Abandon::Completed;
  abandoned_ = true;
  return started_ ? Abandon::Running : Abandon::Queued;
}

WorkQueue::WorkQueue(WorkQueueOptions opt) : opt_(opt) {
  EASYBO_REQUIRE(opt_.workers >= 1, "WorkQueue: workers must be >= 1");
  EASYBO_REQUIRE(opt_.capacity >= 1, "WorkQueue: capacity must be >= 1");
  threads_.reserve(opt_.workers);
  for (std::size_t i = 0; i < opt_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkQueue::~WorkQueue() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::shared_ptr<WorkQueue::Task> WorkQueue::submit(
    Fn fn, common::StopToken token, std::function<void()> on_abandoned_done) {
  auto task = std::make_shared<Task>();
  task->fn_ = std::move(fn);
  task->token_ = std::move(token);
  task->on_abandoned_done_ = std::move(on_abandoned_done);
  task->enqueued_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_ || queue_.size() >= opt_.capacity) return nullptr;
    queue_.push_back(task);
  }
  cv_.notify_one();
  return task;
}

std::size_t WorkQueue::depth() const {
  std::lock_guard<std::mutex> lk(m_);
  return queue_.size();
}

void WorkQueue::worker_loop() {
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      // On shutdown the remaining queue is drained, not dropped: a
      // submitter could be blocked in wait() with no deadline, and a
      // published reply is the only thing that releases it.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    double queued_seconds = 0.0;
    {
      std::lock_guard<std::mutex> lk(task->m_);
      if (task->abandoned_) {
        // The submitter's deadline passed while the task was still
        // queued; it classified the abandonment as Queued and replied
        // without us. Nothing ran, so there is nothing to report.
        task->done_ = true;
        continue;
      }
      task->started_ = true;
      queued_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - task->enqueued_)
                           .count();
    }
    std::string reply;
    try {
      reply = task->fn_(task->token_, queued_seconds);
    } catch (const std::exception& e) {
      // Defense in depth: the callers' closures catch everything
      // themselves, but a worker thread must never die on a throw.
      reply = std::string("ERR ") + e.what();
    }
    std::function<void()> abandoned_done;
    {
      std::lock_guard<std::mutex> lk(task->m_);
      task->reply_ = std::move(reply);
      task->done_ = true;
      if (task->abandoned_) {
        abandoned_done = std::move(task->on_abandoned_done_);
      }
      task->cv_.notify_all();
    }
    // Outside the task mutex: the callback takes host locks of its own.
    if (abandoned_done) abandoned_done();
  }
}

}  // namespace easybo::common
