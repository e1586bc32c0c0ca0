#include "serve/session.h"

#include <limits>
#include <utility>

#include "common/error.h"
#include "io/json.h"

namespace easybo::serve {

using linalg::Vec;

namespace {

sched::EvalStatus failure_status_from(const std::string& name) {
  sched::EvalStatus status = sched::EvalStatus::Ok;
  if (!sched::parse_eval_status(name, status) ||
      status == sched::EvalStatus::Ok) {
    throw Error("observe: unknown failure status \"" + name +
                "\" (expected exception|timeout|non_finite)");
  }
  return status;
}

}  // namespace

Session::Session(std::string name, SessionSpec spec)
    : name_(std::move(name)),
      core_(std::move(spec.config), std::move(spec.bounds)) {
  // The session's snapshot files reuse the engine's schema, which carries
  // the supervisor jitter stream. A hosted session never retries (the
  // client reports one terminal outcome per tag), so the stream stays at
  // the state the engine would have seeded it with.
  Rng sup(bo::supervisor_seed(core_.config().seed));
  sup_rng_ = sup.save();
}

std::unique_ptr<Session> Session::create(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base) {
  auto s = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec)));
  s->core_.set_checkpoint_path(checkpoint_base);
  s->core_.start_fresh_journal();
  // Durable before the first reply: a host crash between NEW and the
  // first SUGGEST must still resume to a pristine session.
  s->snapshot();
  return s;
}

std::unique_ptr<Session> Session::resume(std::string name, SessionSpec spec,
                                         const std::string& checkpoint_base) {
  auto s = std::unique_ptr<Session>(
      new Session(std::move(name), std::move(spec)));
  bo::AskTellCore& core = s->core_;
  core.set_checkpoint_path(checkpoint_base);
  const bo::CheckpointFiles files =
      bo::read_checkpoint(checkpoint_base, core.config_hash());
  // Sessions write a snapshot inside create(), so a resumable session
  // normally has one, and the previous generation plus the journal tail
  // resumes to the exact same state (see snapshot()). The journal only
  // holds observes, so without any usable generation the records cannot
  // be re-applied. A journal holding no records was never observed past
  // the pristine state (a crash inside create()), and resumes to it.
  if (files.generation == bo::SnapshotGeneration::None &&
      !files.records.empty()) {
    throw io::CheckpointError(
        "cannot resume session: snapshot " +
        bo::snapshot_file(checkpoint_base) + " is " +
        (files.primary_damaged ? "damaged" : "missing") +
        " and no usable fallback snapshot exists at " +
        bo::fallback_snapshot_file(checkpoint_base));
  }
  core.restore_checkpoint(files);
  s->now_ = files.snapshot.now;
  // Rotate on the next snapshot only when the primary is known good: a
  // resume off the fallback must not rotate the damaged primary over the
  // very generation it just restored from.
  s->snapshot_valid_ = files.generation == bo::SnapshotGeneration::Primary;

  // The tail is at most the one record of a crash between journal append
  // and snapshot rename, but a longer one is the same loop.
  for (std::size_t i = files.snapshot.journal_count;
       i < files.records.size(); ++i) {
    core.replay(files.records[i]);
    s->now_ = files.records[i].finish;  // live observes tick to the finish
  }
  // Re-snapshot when the tail advanced the state, and whenever the
  // primary was not used, so the next resume finds an intact one again.
  if (files.records.size() > files.snapshot.journal_count ||
      !s->snapshot_valid_) {
    s->snapshot();
  }
  return s;
}

void Session::set_trace(obs::TraceSink* sink) {
  trace_ = sink;
  core_.set_trace(sink);
  if (sink == nullptr) inflight_wall_.clear();
}

bo::Suggestion Session::suggest(const common::StopToken* stop) {
  bo::Suggestion s = core_.suggest(now_, stop);
  // The pre-commit gate: a suggest whose deadline passed while it
  // computed must not become durable, even when the computation ignored
  // every cooperative poll on the way (the watchdog path). Before the
  // snapshot below, nothing of this suggest has been published.
  if (stop != nullptr) stop->check("suggest commit");
  // Durable before the reply leaves the process: the tag in this
  // suggestion must survive eviction and crash — the client holds it and
  // will OBSERVE it against whatever object resumes from these files.
  snapshot();
  if (trace_ != nullptr) {
    inflight_wall_[s.tag] = std::chrono::steady_clock::now();
  }
  return s;
}

void Session::record_turnaround(std::size_t tag) {
  if (trace_ == nullptr) return;
  const auto it = inflight_wall_.find(tag);
  if (it == inflight_wall_.end()) return;  // suggested by a previous process
  const auto elapsed = std::chrono::steady_clock::now() - it->second;
  inflight_wall_.erase(it);
  trace_->add_time(obs::Phase::ObjectiveEval,
                   std::chrono::duration<double>(elapsed).count());
}

SessionObserved Session::observe_ok(std::size_t tag, double y) {
  bo::Outcome o;
  o.status = sched::EvalStatus::Ok;
  o.value = y;
  o.start = tag < core_.num_proposals() ? core_.proposal_submit_time(tag)
                                        : 0.0;
  o.finish = now_ + 1.0;
  const bo::Observed ob = core_.observe(tag, o);
  now_ += 1.0;
  record_turnaround(tag);
  SessionObserved out;
  out.action = ob.action;
  // The observe is durable the moment core_.observe returns (its journal
  // append fsyncs before the model applies it); a snapshot failure here
  // only widens the journal tail the next resume replays. The request is
  // committed, so the reply stays OK — but the fault is surfaced for the
  // host's health plane.
  try {
    snapshot();
  } catch (const io::CheckpointError& e) {
    out.snapshot_failed = true;
    out.storage_error = e.what();
  }
  return out;
}

SessionObserved Session::observe_failure(std::size_t tag,
                                         const std::string& status,
                                         const std::string& error) {
  bo::Outcome o;
  o.status = failure_status_from(status);
  o.value = std::numeric_limits<double>::quiet_NaN();
  o.start = tag < core_.num_proposals() ? core_.proposal_submit_time(tag)
                                        : 0.0;
  o.finish = now_ + 1.0;
  o.error = error;
  const bo::Observed ob = core_.observe(tag, o);
  now_ += 1.0;
  record_turnaround(tag);
  SessionObserved out;
  out.action = ob.action;
  try {
    snapshot();
  } catch (const io::CheckpointError& e) {
    out.snapshot_failed = true;
    out.storage_error = e.what();
  }
  return out;
}

std::string Session::status_json() const {
  std::string s = "{";
  auto put = [&s](const std::string& key, const std::string& value) {
    if (s.size() > 1) s += ",";
    s += io::json_quote(key) + ":" + value;
  };
  put("name", io::json_quote(name_));
  put("mode", io::json_quote(to_string(core_.config().mode)));
  put("acq", io::json_quote(to_string(core_.config().acq)));
  // Counts go through std::to_string, not json_number: the shortest
  // round-trip double for 10 is "1e+01", which is silly for a count.
  put("dim", std::to_string(core_.bounds().dim()));
  put("issued", std::to_string(core_.issued()));
  put("observed", std::to_string(core_.num_observations()));
  put("max_sims", std::to_string(core_.config().max_sims));
  put("init_done", core_.init_done() ? "true" : "false");
  std::string pending = "[";
  for (const std::size_t tag : core_.pending_tags()) {
    if (pending.size() > 1) pending += ",";
    pending += std::to_string(tag);
  }
  put("pending", pending + "]");
  if (core_.has_observations()) {
    put("best_y", io::json_number(core_.best_y()));
    std::string bx = "[";
    const Vec best = core_.best_x();
    for (std::size_t i = 0; i < best.size(); ++i) {
      if (i != 0) bx += ",";
      bx += io::json_number(best[i]);
    }
    put("best_x", bx + "]");
  } else {
    put("best_y", "null");
    put("best_x", "null");
  }
  return s + "}";
}

void Session::snapshot() {
  if (snapshot_valid_) {
    const std::string& base = core_.config().checkpoint_path;
    try {
      io::try_rename_file(bo::snapshot_file(base),
                          bo::fallback_snapshot_file(base));
    } catch (const io::CheckpointError&) {
      // Rotation is defense in depth: a failed rotation leaves the
      // fallback one generation stale, which is still a valid resume
      // point — it never blocks the snapshot itself.
    }
  }
  snapshot_valid_ = false;
  core_.write_snapshot(now_, 0.0, sup_rng_);
  snapshot_valid_ = true;
}

}  // namespace easybo::serve
