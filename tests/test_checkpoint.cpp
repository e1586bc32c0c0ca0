// Tests for the crash-safe run subsystem (bo/checkpoint + io/journal +
// the engine's resume path): CRC-framed JSONL round trips, the 50-seed
// snapshot/RNG serialization regression, corruption handling (torn tail
// tolerated, interior damage and config mismatches refused with the
// documented messages), and the headline guarantee — a run killed at an
// arbitrary evaluation and resumed produces the same proposal sequence
// as the uninterrupted run, on both executor backends.

#include "bo/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "common/rng.h"
#include "io/journal.h"
#include "serve/session.h"
#include "serve/session_config.h"
#include "test_temp_dir.h"

namespace easybo::bo {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Small, fast engine configuration shared by the run-level tests.
BoConfig quick(Mode mode, std::size_t batch, std::uint64_t seed) {
  BoConfig c;
  c.mode = mode;
  c.acq = AcqKind::EasyBo;
  c.penalize = true;
  c.batch = batch;
  c.init_points = 8;
  c.max_sims = 24;
  c.seed = seed;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return c;
}

/// Varying virtual durations so async completions genuinely interleave.
double varied_sim_time(const Vec& x) {
  return 0.6 + 0.05 * std::abs(x[0]);
}

/// Checkpoint base under the test temp dir, with any files from a
/// previous run of the same test removed.
std::string fresh_base(const std::string& name) {
  const std::string base = test_temp_path("easybo_ckpt_" + name);
  std::remove(journal_file(base).c_str());
  std::remove(snapshot_file(base).c_str());
  return base;
}

/// The equivalence the subsystem promises: identical proposal sequence,
/// outcomes and virtual times. Worker attribution is deliberately NOT
/// compared — a resumed run re-submits in-flight work to a fresh idle
/// pool, which may hand out different (equally idle) worker ids without
/// affecting any proposal (docs/checkpoint-format.md).
void expect_same_run(const BoResult& a, const BoResult& b) {
  ASSERT_EQ(a.num_evals(), b.num_evals());
  for (std::size_t i = 0; i < a.num_evals(); ++i) {
    EXPECT_EQ(a.evals[i].x, b.evals[i].x) << "eval " << i;
    EXPECT_DOUBLE_EQ(a.evals[i].y, b.evals[i].y) << "eval " << i;
    EXPECT_DOUBLE_EQ(a.evals[i].start, b.evals[i].start) << "eval " << i;
    EXPECT_DOUBLE_EQ(a.evals[i].finish, b.evals[i].finish) << "eval " << i;
    EXPECT_EQ(a.evals[i].is_init, b.evals[i].is_init) << "eval " << i;
    EXPECT_EQ(a.evals[i].failed, b.evals[i].failed) << "eval " << i;
  }
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_y, b.best_y);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_NEAR(a.total_sim_time, b.total_sim_time, 1e-9);
}

/// Runs \p cfg journaled under \p base in a forked child whose objective
/// calls std::_Exit on its \p kill_at_call-th invocation — a SIGKILL
/// stand-in landing at an arbitrary point mid-run, with whatever journal
/// and snapshot exist at that instant left behind for the parent.
void run_and_kill(const BoConfig& cfg, const circuit::TestFunction& tf,
                  const std::string& base, int kill_at_call) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    int calls = 0;
    auto lethal = [&calls, &tf, kill_at_call](const Vec& x) -> double {
      if (++calls == kill_at_call) std::_Exit(0);
      return tf.fn(x);
    };
    BoConfig child_cfg = cfg;
    child_cfg.checkpoint_path = base;
    try {
      BoEngine engine(child_cfg, tf.bounds, lethal, varied_sim_time);
      engine.run();
    } catch (...) {
      std::_Exit(9);
    }
    std::_Exit(7);  // ran to completion: the kill point never hit
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child was expected to die mid-run";
}

// ---------------------------------------------------------------------------
// CRC framing and journal file reading
// ---------------------------------------------------------------------------

TEST(JournalFraming, RoundTripAndCorruptionDetection) {
  const std::string payload = R"({"k":"v","n":1})";
  const std::string line = io::frame_line(payload);
  ASSERT_GE(line.size(), 10u);
  EXPECT_EQ(line[8], ' ');

  std::string back;
  ASSERT_TRUE(io::unframe_line(line, back));
  EXPECT_EQ(back, payload);

  // Any single flipped byte — checksum or payload — fails verification.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{11}}) {
    std::string damaged = line;
    damaged[pos] = damaged[pos] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(io::unframe_line(damaged, back)) << "pos " << pos;
  }
  EXPECT_FALSE(io::unframe_line("short", back));
}

TEST(JournalFraming, TornTailIsToleratedInteriorDamageIsNot) {
  const std::string path = test_temp_path("easybo_torn.journal");
  const std::string a = io::frame_line("alpha") + "\n";
  const std::string b = io::frame_line("beta") + "\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << a << b << "deadbeef {\"trunc";  // crash mid-append: no newline
  }
  const io::JournalReadResult r = io::read_journal(path);
  ASSERT_EQ(r.payloads.size(), 2u);
  EXPECT_EQ(r.payloads[0], "alpha");
  EXPECT_EQ(r.payloads[1], "beta");
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, a.size() + b.size());

  // The same damage in the interior is not a torn tail: refuse loudly.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << a << "deadbeef {\"corrupt\"}\n" << b;
  }
  try {
    io::read_journal(path);
    FAIL() << "interior corruption must throw";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("journal corrupted: line 2"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serialization round trips
// ---------------------------------------------------------------------------

TEST(JournalRecordJson, RoundTripsEveryField) {
  JournalRecord rec;
  rec.index = 17;
  rec.tag = 23;
  rec.status = "exception";
  rec.action = "penalized";
  rec.attempts = 3;
  rec.worker = 2;
  rec.start = 1.2500000000000004;  // not representable in few digits
  rec.finish = 3.7000000000000011;
  rec.is_init = true;
  rec.x = {0.125, 0.98765432109876543, 1.0};
  rec.y = std::numeric_limits<double>::quiet_NaN();
  rec.error = "simulator said \"no\"\\core dumped";

  const JournalRecord back = JournalRecord::parse(rec.to_payload());
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.tag, rec.tag);
  EXPECT_EQ(back.status, rec.status);
  EXPECT_EQ(back.action, rec.action);
  EXPECT_EQ(back.attempts, rec.attempts);
  EXPECT_EQ(back.worker, rec.worker);
  EXPECT_EQ(back.start, rec.start);    // bit-identical, not just near
  EXPECT_EQ(back.finish, rec.finish);
  EXPECT_EQ(back.is_init, rec.is_init);
  EXPECT_EQ(back.x, rec.x);
  EXPECT_TRUE(std::isnan(back.y));     // NaN travels as JSON null
  EXPECT_EQ(back.error, rec.error);

  rec.y = -123.456789012345678;
  rec.error.clear();
  const JournalRecord ok = JournalRecord::parse(rec.to_payload());
  EXPECT_EQ(ok.y, rec.y);
  EXPECT_TRUE(ok.error.empty());
}

TEST(JournalHeaderJson, RoundTripsAndRejectsForeignSchemas) {
  JournalHeader h;
  h.schema = "easybo.journal.v1";
  h.config_hash = 0xDEADBEEFCAFEF00Dull;  // needs full 64-bit fidelity
  h.seed = 0xFFFFFFFFFFFFFFFFull;
  const JournalHeader back = JournalHeader::parse(h.to_payload());
  EXPECT_EQ(back.config_hash, h.config_hash);
  EXPECT_EQ(back.seed, h.seed);

  EXPECT_THROW(JournalHeader::parse(R"({"schema":"easybo.journal.v9"})"),
               io::CheckpointError);
  EXPECT_THROW(BoCheckpoint::parse(h.to_payload()), io::CheckpointError);
}

TEST(BoCheckpointJson, RoundTripsBitIdenticalAcross50Seeds) {
  // The snapshot is the run's full durable state; any field that fails
  // to round-trip bit-identically silently forks the proposal stream on
  // resume. Fuzz the whole struct from 50 seeds.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng fuzz(seed);
    auto rvec = [&fuzz](std::size_t n) {
      Vec v(n);
      for (double& e : v) e = fuzz.normal() * 1e3;
      return v;
    };

    BoCheckpoint snap;
    snap.config_hash = fuzz();
    snap.journal_count = seed * 3;
    snap.now = fuzz.normal() * 100.0;
    snap.busy = fuzz.uniform() * 500.0;
    snap.init_done = seed % 2 == 0;
    snap.issued = seed + 5;
    Rng prop_stream(seed * 7 + 1);
    for (std::uint64_t i = 0; i < seed % 5; ++i) (void)prop_stream.normal();
    snap.rng = prop_stream.save();
    Rng jitter_stream(seed * 13 + 2);
    snap.sup_rng = jitter_stream.save();
    const std::size_t n_obs = 1 + seed % 4;
    for (std::size_t i = 0; i < n_obs; ++i) snap.obs_x.push_back(rvec(3));
    snap.obs_y = rvec(n_obs);
    for (std::size_t i = 0; i < n_obs; ++i) {
      snap.obs_is_init.push_back(fuzz.uniform() < 0.5);
    }
    if (seed % 3 == 0) snap.failed_x.push_back(rvec(3));
    for (std::size_t i = 0; i < n_obs + 2; ++i) {
      snap.prop_x.push_back(rvec(3));
      snap.prop_init.push_back(i < 2);
      snap.prop_submit.push_back(fuzz.uniform() * 50.0);
      snap.prop_duration.push_back(fuzz.uniform() + 0.1);
    }
    snap.pending = {n_obs, n_obs + 1};
    if (seed % 4 == 0) {
      snap.hc_histories.push_back({rvec(3), rvec(3)});
      snap.hc_histories.push_back({});
    }
    if (seed % 5 == 0) {
      snap.hedge_gains = rvec(3);
      snap.hedge_nominees = {rvec(3), rvec(3), rvec(3)};
    }
    snap.next_hyper_refit = seed + 10;
    snap.hyper_refits = seed / 3;
    snap.gp_log_hyperparams = seed % 2 == 0 ? rvec(4) : Vec{};

    const BoCheckpoint back = BoCheckpoint::parse(snap.to_payload());
    EXPECT_EQ(back.config_hash, snap.config_hash);
    EXPECT_EQ(back.journal_count, snap.journal_count);
    EXPECT_EQ(back.now, snap.now);
    EXPECT_EQ(back.busy, snap.busy);
    EXPECT_EQ(back.init_done, snap.init_done);
    EXPECT_EQ(back.issued, snap.issued);
    EXPECT_EQ(back.rng, snap.rng);
    EXPECT_EQ(back.sup_rng, snap.sup_rng);
    EXPECT_EQ(back.obs_x, snap.obs_x);
    EXPECT_EQ(back.obs_y, snap.obs_y);
    EXPECT_EQ(back.obs_is_init, snap.obs_is_init);
    EXPECT_EQ(back.failed_x, snap.failed_x);
    EXPECT_EQ(back.prop_x, snap.prop_x);
    EXPECT_EQ(back.prop_init, snap.prop_init);
    EXPECT_EQ(back.prop_submit, snap.prop_submit);
    EXPECT_EQ(back.prop_duration, snap.prop_duration);
    EXPECT_EQ(back.pending, snap.pending);
    EXPECT_EQ(back.hc_histories, snap.hc_histories);
    EXPECT_EQ(back.hedge_gains, snap.hedge_gains);
    EXPECT_EQ(back.hedge_nominees, snap.hedge_nominees);
    EXPECT_EQ(back.next_hyper_refit, snap.next_hyper_refit);
    EXPECT_EQ(back.hyper_refits, snap.hyper_refits);
    EXPECT_EQ(back.gp_log_hyperparams, snap.gp_log_hyperparams);

    // The restored RNG continues the stream bit for bit.
    Rng restored(1);
    restored.load(back.rng);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(restored(), prop_stream()) << "seed " << seed;
    }
  }
}

TEST(ConfigFingerprint, SeparatesStreamsIgnoresDurabilityKnobs) {
  const auto tf = easybo::circuit::branin();
  const BoConfig base_cfg = quick(Mode::AsyncBatch, 4, 11);
  const std::uint64_t fp = config_fingerprint(base_cfg, tf.bounds);
  EXPECT_EQ(fp, config_fingerprint(base_cfg, tf.bounds));  // stable

  BoConfig other = base_cfg;
  other.seed = 12;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);
  other = base_cfg;
  other.batch = 5;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);
  other = base_cfg;
  other.lambda += 0.5;
  EXPECT_NE(config_fingerprint(other, tf.bounds), fp);

  opt::Bounds shifted = tf.bounds;
  shifted.upper[0] += 1.0;
  EXPECT_NE(config_fingerprint(base_cfg, shifted), fp);

  // Durability and observability knobs never shape proposals.
  other = base_cfg;
  other.checkpoint_path = "/somewhere/else";
  other.checkpoint_every = 9;
  other.collect_metrics = true;
  EXPECT_EQ(config_fingerprint(other, tf.bounds), fp);
}

// ---------------------------------------------------------------------------
// Run-level guarantees
// ---------------------------------------------------------------------------

TEST(Checkpointing, JournalingItselfChangesNothing) {
  const auto tf = easybo::circuit::branin();
  const BoConfig plain = quick(Mode::AsyncBatch, 4, 21);
  const BoResult ref =
      BoEngine(plain, tf.bounds, tf.fn, varied_sim_time).run();

  BoConfig journaled = plain;
  journaled.checkpoint_path = fresh_base("noop");
  const BoResult r =
      BoEngine(journaled, tf.bounds, tf.fn, varied_sim_time).run();
  expect_same_run(ref, r);
  // Here even worker ids must match: nothing was re-submitted.
  for (std::size_t i = 0; i < ref.num_evals(); ++i) {
    EXPECT_EQ(ref.evals[i].worker, r.evals[i].worker);
  }
  EXPECT_TRUE(io::file_exists(journal_file(journaled.checkpoint_path)));
  EXPECT_TRUE(io::file_exists(snapshot_file(journaled.checkpoint_path)));
}

TEST(Checkpointing, KillAndResumeMatchesUninterruptedAsync) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 11);
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  for (const int kill_at : {3, 9, 17}) {
    const std::string base =
        fresh_base("kill_async_" + std::to_string(kill_at));
    run_and_kill(cfg, tf, base, kill_at);
    BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
    const BoResult r = engine.resume(base);
    expect_same_run(ref, r);
    EXPECT_FALSE(r.resume_note.empty());
    EXPECT_FALSE(r.interrupted);
  }
}

TEST(Checkpointing, KillAndResumeMatchesUninterruptedSyncAndSequential) {
  const auto tf = easybo::circuit::branin();
  struct Case {
    Mode mode;
    std::size_t batch;
    int kill_at;
  };
  for (const Case c : {Case{Mode::SyncBatch, 4, 13},
                       Case{Mode::Sequential, 1, 12}}) {
    const BoConfig cfg = quick(c.mode, c.batch, 31);
    const BoResult ref =
        BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
    const std::string base =
        fresh_base("kill_mode_" + std::to_string(int(c.mode)));
    run_and_kill(cfg, tf, base, c.kill_at);
    BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
    expect_same_run(ref, engine.resume(base));
  }
}

TEST(Checkpointing, KillAndResumeWithSparseSnapshots) {
  // checkpoint_every > 1: the kill lands several journal lines past the
  // last snapshot, so resume must replay a real tail through the loop.
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 41);
  cfg.checkpoint_every = 5;
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
  const std::string base = fresh_base("kill_sparse");
  run_and_kill(cfg, tf, base, 14);
  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  expect_same_run(ref, engine.resume(base));
}

TEST(Checkpointing, KillAndResumeOnThreadExecutorSequential) {
  // The other executor backend. Sequential keeps the wall-clock
  // completion order deterministic; wall times are loose on resume, so
  // compare the proposal/outcome sequence only.
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::Sequential, 1, 51);

  BoResult ref;
  {
    // Scoped so the reference executor's worker is joined before fork():
    // a child forked from a multi-threaded process may not start threads
    // of its own under ThreadSanitizer.
    sched::ThreadExecutor ref_exec(1);
    BoEngine ref_engine(cfg, tf.bounds, tf.fn, nullptr);
    ref = ref_engine.run(ref_exec);
  }

  const std::string base = fresh_base("kill_threads");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    int calls = 0;
    auto lethal = [&calls, &tf](const Vec& x) -> double {
      if (++calls == 10) std::_Exit(0);
      return tf.fn(x);
    };
    BoConfig child_cfg = cfg;
    child_cfg.checkpoint_path = base;
    try {
      sched::ThreadExecutor exec(1);
      BoEngine engine(child_cfg, tf.bounds, lethal, nullptr);
      engine.run(exec);
    } catch (...) {
      std::_Exit(9);
    }
    std::_Exit(7);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  sched::ThreadExecutor exec(1);
  BoEngine engine(cfg, tf.bounds, tf.fn, nullptr);
  const BoResult r = engine.resume(base, exec);
  ASSERT_EQ(r.num_evals(), ref.num_evals());
  for (std::size_t i = 0; i < ref.num_evals(); ++i) {
    EXPECT_EQ(r.evals[i].x, ref.evals[i].x) << "eval " << i;
    EXPECT_DOUBLE_EQ(r.evals[i].y, ref.evals[i].y) << "eval " << i;
  }
  EXPECT_EQ(r.best_x, ref.best_x);
  EXPECT_DOUBLE_EQ(r.best_y, ref.best_y);
}

TEST(Checkpointing, GracefulStopDrainsSavesAndResumes) {
  // A graceful stop is a deliberate deviation from the uninterrupted
  // schedule: the engine stops issuing new work and drains what's in
  // flight, so the resumed run is NOT a bit-replica of the never-stopped
  // run (that guarantee belongs to kill -9, where the pending set is
  // restored with its original submit times — the KillAndResume tests
  // above). What graceful stop + resume must deliver instead: nothing
  // drained is lost, the resumed run extends the partial run exactly,
  // finishes the budget, and the whole stop-then-resume pipeline is
  // deterministic end to end.
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = quick(Mode::AsyncBatch, 4, 61);

  auto stop_then_resume = [&](const std::string& base) -> BoResult {
    std::atomic<bool> stop{false};
    std::atomic<int> calls{0};
    auto counting = [&](const Vec& x) -> double {
      if (++calls == 12) stop.store(true);
      return tf.fn(x);
    };
    BoConfig journaled = cfg;
    journaled.checkpoint_path = base;
    BoEngine first(journaled, tf.bounds, counting, varied_sim_time);
    first.set_stop_token(&stop);
    const BoResult partial = first.run();
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.num_evals(), cfg.max_sims);
    EXPECT_GE(partial.num_evals(), 12u);  // in-flight work was drained

    BoEngine second(cfg, tf.bounds, tf.fn, varied_sim_time);
    const BoResult full = second.resume(base);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.num_evals(), cfg.max_sims);
    // Every drained eval survived, in order, bit-identical.
    const std::size_t prefix =
        std::min(full.num_evals(), partial.num_evals());
    for (std::size_t i = 0; i < prefix; ++i) {
      EXPECT_EQ(full.evals[i].x, partial.evals[i].x) << "eval " << i;
      EXPECT_DOUBLE_EQ(full.evals[i].y, partial.evals[i].y) << "eval " << i;
      EXPECT_DOUBLE_EQ(full.evals[i].start, partial.evals[i].start);
      EXPECT_DOUBLE_EQ(full.evals[i].finish, partial.evals[i].finish);
    }
    return full;
  };

  const BoResult a = stop_then_resume(fresh_base("graceful_a"));
  const BoResult b = stop_then_resume(fresh_base("graceful_b"));
  expect_same_run(a, b);  // the pipeline itself is deterministic
}

TEST(Checkpointing, ResumeOfCompletedRunIsIdempotent) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::SyncBatch, 4, 71);
  cfg.checkpoint_path = fresh_base("idempotent");
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(cfg.checkpoint_path);
  expect_same_run(ref, r);
  EXPECT_FALSE(r.interrupted);
}

TEST(Checkpointing, ResumeToleratesATornJournalTail) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 81);
  cfg.checkpoint_path = fresh_base("torn");
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();

  // A crash mid-append leaves a half-written final line; resume must
  // truncate it away and carry on without losing any completed eval.
  {
    std::ofstream out(journal_file(cfg.checkpoint_path),
                      std::ios::binary | std::ios::app);
    out << "deadbeef {\"index\":99,\"half";
  }
  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(cfg.checkpoint_path);
  expect_same_run(ref, r);
  // The reopened journal was truncated back to intact lines.
  const auto journal = io::read_journal(journal_file(cfg.checkpoint_path));
  EXPECT_FALSE(journal.torn_tail);
  EXPECT_EQ(journal.payloads.size(), 1 + cfg.max_sims);  // header + evals
}

// ---------------------------------------------------------------------------
// Refusal paths (golden messages documented in docs/checkpoint-format.md)
// ---------------------------------------------------------------------------

/// The two resume paths every refusal must hold for: the engine's and a
/// served session's (both go through bo::read_checkpoint and
/// AskTellCore::replay).
enum class Resumer { Engine, Session };

/// The configuration each resumer's files are written and resumed under.
BoConfig refusal_config(Resumer who, std::uint64_t seed) {
  if (who == Resumer::Engine) return quick(Mode::AsyncBatch, 4, seed);
  BoConfig c = quick(Mode::Sequential, 1, seed);
  c.init_points = 3;
  c.on_eval_failure = EvalFailurePolicy::Discard;  // sessions never abort
  return c;
}

/// Writes one run's files under a fresh base. The engine's run completes
/// (its final snapshot absorbs every record). The session observes four
/// evaluations, and its snapshot is put back to the one from before the
/// last observe: the state a crash between that observe's journal append
/// and its snapshot rewrite leaves, so resume replays one record.
std::string write_run(Resumer who, std::uint64_t seed,
                      const std::string& name) {
  const auto tf = easybo::circuit::branin();
  const std::string base = fresh_base(name);
  std::remove(fallback_snapshot_file(base).c_str());
  BoConfig cfg = refusal_config(who, seed);
  if (who == Resumer::Engine) {
    cfg.checkpoint_path = base;
    (void)BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
    return base;
  }
  auto session = serve::Session::create("s", {cfg, tf.bounds}, base);
  std::string before_last;
  for (int turn = 0; turn < 4; ++turn) {
    const Suggestion sg = session->suggest();
    if (turn == 3) before_last = io::read_file(snapshot_file(base));
    session->observe_ok(sg.tag, tf.fn(sg.x));
  }
  io::atomic_write_file(snapshot_file(base), before_last);
  return base;
}

/// Rewrites the journal's last record through \p edit, re-framed so its
/// checksum holds, and makes sure resume replays it: the engine's final
/// snapshot absorbed it, so that snapshot goes (the whole journal then
/// replays); the session's snapshot is already one record behind.
void edit_last_record(Resumer who, const std::string& base,
                      const std::function<void(JournalRecord&)>& edit) {
  const std::string path = journal_file(base);
  const io::JournalReadResult jr = io::read_journal(path);
  std::string content;
  for (std::size_t i = 0; i < jr.payloads.size(); ++i) {
    std::string payload = jr.payloads[i];
    if (i + 1 == jr.payloads.size()) {
      JournalRecord rec = JournalRecord::parse(payload);
      edit(rec);
      payload = rec.to_payload();
    }
    content += io::frame_line(payload) + "\n";
  }
  io::atomic_write_file(path, content);
  if (who == Resumer::Engine) std::remove(snapshot_file(base).c_str());
}

/// For each resumer: writes a run's files, applies \p damage, and expects
/// resuming them under the seed \p resume_seed (0: the writing seed) to
/// throw a CheckpointError mentioning \p needle (the golden messages of
/// docs/checkpoint-format.md).
void expect_resume_error(
    const std::string& name, std::uint64_t seed,
    const std::function<void(Resumer, const std::string&)>& damage,
    const std::string& needle, std::uint64_t resume_seed = 0) {
  const auto tf = easybo::circuit::branin();
  for (const Resumer who : {Resumer::Engine, Resumer::Session}) {
    const bool engine = who == Resumer::Engine;
    SCOPED_TRACE(engine ? "BoEngine::resume" : "Session::resume");
    const std::string base =
        write_run(who, seed, name + (engine ? "_engine" : "_session"));
    damage(who, base);
    const BoConfig cfg =
        refusal_config(who, resume_seed != 0 ? resume_seed : seed);
    try {
      if (engine) {
        BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).resume(base);
      } else {
        serve::Session::resume("s", {cfg, tf.bounds}, base);
      }
      ADD_FAILURE() << "resume was expected to refuse";
    } catch (const io::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message: " << e.what();
    }
  }
}

TEST(ResumeRefusal, MissingJournal) {
  expect_resume_error(
      "missing", 91,
      [](Resumer, const std::string& base) {
        std::remove(journal_file(base).c_str());
      },
      "cannot resume: no journal at");
}

TEST(ResumeRefusal, ConfigMismatch) {
  expect_resume_error(
      "mismatch", 101, [](Resumer, const std::string&) {},
      "checkpoint config mismatch", /*resume_seed=*/102);
}

TEST(ResumeRefusal, InteriorJournalCorruption) {
  // Flip one payload byte in an interior line: a bad disk, not a torn
  // tail. The checksum catches it and resume refuses.
  expect_resume_error(
      "interior", 111,
      [](Resumer, const std::string& base) {
        const std::string path = journal_file(base);
        std::string content = io::read_file(path);
        const std::size_t second_line = content.find('\n') + 1;
        const std::size_t victim = second_line + 12;
        ASSERT_LT(victim, content.size());
        content[victim] = content[victim] == '0' ? '1' : '0';
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
      },
      "journal corrupted");
}

TEST(ResumeRefusal, SnapshotFromADifferentRun) {
  // Truncate the journal to fewer records than the snapshot has absorbed:
  // the snapshot is now "ahead" of the journal, which can only happen
  // when the files are not from the same run.
  expect_resume_error(
      "foreign_snap", 121,
      [](Resumer, const std::string& base) {
        const std::string path = journal_file(base);
        const std::string content = io::read_file(path);
        std::size_t pos = 0;
        for (int lines = 0; lines < 2; ++lines) {
          pos = content.find('\n', pos) + 1;
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content.substr(0, pos);  // the header and one record
      },
      "do not belong to the same run");
}

TEST(ResumeRefusal, ReplayedRecordAtAForeignPoint) {
  expect_resume_error(
      "foreign_point", 131,
      [](Resumer who, const std::string& base) {
        edit_last_record(who, base,
                         [](JournalRecord& rec) { rec.x[0] += 0.25; });
      },
      "does not match this configuration's proposal stream");
}

TEST(ResumeRefusal, ReplayedRecordOfAnEvaluationNeverIssued) {
  expect_resume_error(
      "foreign_tag", 151,
      [](Resumer who, const std::string& base) {
        edit_last_record(who, base, [](JournalRecord& rec) { rec.tag = 999; });
      },
      "never issued or is no longer in flight");
}

TEST(ResumeRefusal, ReplayedRecordWithAnUnknownStatus) {
  expect_resume_error(
      "foreign_status", 161,
      [](Resumer who, const std::string& base) {
        edit_last_record(who, base,
                         [](JournalRecord& rec) { rec.status = "melted"; });
      },
      "unknown eval status");
}

TEST(ResumeRefusal, ReplayedRecordWithAForeignAction) {
  // The record is an ok outcome; every failure policy observes it, so a
  // journaled "penalized" can only come from other files or another
  // build.
  expect_resume_error(
      "foreign_action", 141,
      [](Resumer who, const std::string& base) {
        edit_last_record(who, base,
                         [](JournalRecord& rec) { rec.action = "penalized"; });
      },
      "disagree on failure policy");
}

// A session falls back to the previous generation instead (and refuses
// when that is gone too; tests/test_serve_faults.cpp), but an engine
// never rotates one aside.
TEST(ResumeRefusal, EngineRefusesADamagedSnapshot) {
  const std::string base = write_run(Resumer::Engine, 171, "damaged_snap");
  const std::string path = snapshot_file(base);
  const std::string content = io::read_file(path);
  io::atomic_write_file(path, content.substr(0, content.size() / 2));
  const auto tf = easybo::circuit::branin();
  BoEngine engine(refusal_config(Resumer::Engine, 171), tf.bounds, tf.fn,
                  varied_sim_time);
  try {
    engine.resume(base);
    FAIL() << "resume was expected to refuse";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("is damaged"), std::string::npos)
        << "message: " << e.what();
  }
}

// A journal without an intact header and without a snapshot is what a
// crash before the header's fsync leaves: nothing was ever evaluated, so
// resume starts the run afresh and reproduces it.
TEST(Checkpointing, HeaderlessJournalWithoutSnapshotStartsAfresh) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = quick(Mode::AsyncBatch, 4, 181);
  cfg.checkpoint_path = fresh_base("headerless");
  const BoResult ref =
      BoEngine(cfg, tf.bounds, tf.fn, varied_sim_time).run();
  std::remove(snapshot_file(cfg.checkpoint_path).c_str());
  io::atomic_write_file(journal_file(cfg.checkpoint_path), "3c82de30 {\"sch");

  BoEngine engine(cfg, tf.bounds, tf.fn, varied_sim_time);
  const BoResult r = engine.resume(cfg.checkpoint_path);
  expect_same_run(ref, r);
  EXPECT_EQ(r.resume_note, "resumed from " + cfg.checkpoint_path +
                               ": 0 evaluations restored, 0 replayed from "
                               "the journal, 0 re-submitted");
}

// ---------------------------------------------------------------------------
// Compatibility: files an earlier build wrote still resume
// ---------------------------------------------------------------------------

/// Copies the committed fixture base \p name (tests/golden/checkpoint_v1/,
/// written by tests/tools/write_checkpoint_fixture.cpp) into a fresh temp
/// dir, since resuming rewrites the files, and returns the copy's base.
std::string fixture_copy(const std::string& name) {
  namespace fs = std::filesystem;
  const std::string src =
      std::string(EASYBO_TESTS_GOLDEN_DIR) + "/checkpoint_v1/" + name;
  const std::string dir = test_temp_path("easybo_compat_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* suffix :
       {".config", ".journal", ".snapshot", ".snapshot.old"}) {
    if (fs::exists(src + suffix)) {
      fs::copy_file(src + suffix, dir + "/" + name + suffix);
    }
  }
  return dir + "/" + name;
}

std::vector<JournalRecord> journal_records(const std::string& base) {
  const io::JournalReadResult jr = io::read_journal(journal_file(base));
  std::vector<JournalRecord> records;
  for (std::size_t i = 1; i < jr.payloads.size(); ++i) {
    records.push_back(JournalRecord::parse(jr.payloads[i]));
  }
  return records;
}

double max_y(const std::vector<JournalRecord>& records) {
  double best = -std::numeric_limits<double>::infinity();
  for (const JournalRecord& r : records) best = std::max(best, r.y);
  return best;
}

// Every expectation below compares against values read from the files,
// never against floating point re-derived by this build, so it holds in
// every sanitizer configuration.

TEST(CheckpointCompat, CompletedEngineRunResumes) {
  const std::string base = fixture_copy("engine");
  const serve::SessionSpec spec =
      serve::parse_session_config(io::read_file(base + ".config"));
  const std::vector<JournalRecord> records = journal_records(base);
  ASSERT_EQ(records.size(), spec.config.max_sims);

  BoEngine engine(spec.config, spec.bounds, circuit::branin().fn);
  const BoResult r = engine.resume(base);
  ASSERT_EQ(r.num_evals(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(r.evals[i].y, records[i].y) << "eval " << i;
  }
  EXPECT_EQ(r.best_y, max_y(records));
  EXPECT_EQ(r.resume_note, "resumed from " + base + ": " +
                               std::to_string(records.size()) +
                               " evaluations restored, 0 replayed from the "
                               "journal, 0 re-submitted");
}

TEST(CheckpointCompat, SessionOneRecordBehindItsJournalResumes) {
  const std::string base = fixture_copy("session");
  const serve::SessionSpec spec =
      serve::parse_session_config(io::read_file(base + ".config"));
  const std::vector<JournalRecord> records = journal_records(base);
  const BoCheckpoint snap = BoCheckpoint::parse(
      io::read_journal(snapshot_file(base)).payloads.at(0));
  ASSERT_EQ(snap.journal_count + 1, records.size());  // the fixture's shape

  const auto session = serve::Session::resume("session", spec, base);
  const AskTellCore& core = session->core();
  EXPECT_EQ(core.num_observations(), records.size());
  EXPECT_EQ(core.issued(), snap.issued);
  std::set<std::size_t> pending(snap.pending.begin(), snap.pending.end());
  ASSERT_EQ(pending.erase(records.back().tag), 1u);
  EXPECT_EQ(core.pending_tags(), pending);
  EXPECT_EQ(core.best_y(), max_y(records));

  // The replayed tail was folded into a fresh primary snapshot.
  const BoCheckpoint after = BoCheckpoint::parse(
      io::read_journal(snapshot_file(base)).payloads.at(0));
  EXPECT_EQ(after.journal_count, records.size());
}

}  // namespace
}  // namespace easybo::bo
