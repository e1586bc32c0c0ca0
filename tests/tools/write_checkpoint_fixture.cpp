// Writes the checkpoint-compatibility fixture that tests/test_checkpoint.cpp
// (CheckpointCompat.*) resumes: files in the on-disk format that a build
// of the library produced, committed so that later builds must keep
// reading them.
//
//   write_checkpoint_fixture <out_dir>
//
// <out_dir> receives two checkpoint bases, each with the wire-format
// config (serve/session_config.h) it was written under:
//
//   engine.{config,journal,snapshot}
//       a completed, journaled BoEngine run on Branin (async, B=3);
//   session.{config,journal,snapshot,snapshot.old}
//       a served session (async, B=2) whose snapshot is one journal
//       record behind the journal: the state a crash leaves between an
//       OBSERVE's journal append and its snapshot rewrite. One suggestion
//       is still in flight.
//
// The committed copy under tests/golden/checkpoint_v1/ must not be
// regenerated by a later build: its point is that it was written before
// the code that now reads it.

#include <cstdio>
#include <string>

#include "bo/engine.h"
#include "circuit/testfunc.h"
#include "io/journal.h"
#include "serve/session.h"
#include "serve/session_config.h"

namespace {

using easybo::bo::BoConfig;
using easybo::bo::Mode;

BoConfig small_config(Mode mode, std::size_t batch, std::size_t init_points,
                      std::size_t max_sims, std::uint64_t seed) {
  BoConfig c;
  c.mode = mode;
  c.acq = easybo::bo::AcqKind::EasyBo;
  c.penalize = true;
  c.batch = batch;
  c.init_points = init_points;
  c.max_sims = max_sims;
  c.seed = seed;
  c.on_eval_failure = easybo::bo::EvalFailurePolicy::Discard;
  c.acq_opt.sobol_candidates = 64;
  c.acq_opt.random_candidates = 32;
  c.acq_opt.refine_evals = 30;
  c.trainer.max_iters = 10;
  c.trainer.restarts = 1;
  return c;
}

void write_engine(const std::string& dir) {
  const auto tf = easybo::circuit::branin();
  BoConfig cfg = small_config(Mode::AsyncBatch, 3, 4, 12, 11);
  cfg.checkpoint_every = 4;
  easybo::io::atomic_write_file(
      dir + "/engine.config",
      easybo::serve::session_config_json(cfg, tf.bounds));
  cfg.checkpoint_path = dir + "/engine";
  easybo::bo::BoEngine(cfg, tf.bounds, tf.fn).run();
}

void write_session(const std::string& dir) {
  const auto tf = easybo::circuit::branin();
  const BoConfig cfg = small_config(Mode::AsyncBatch, 2, 3, 10, 7);
  const std::string config_json =
      easybo::serve::session_config_json(cfg, tf.bounds);
  easybo::io::atomic_write_file(dir + "/session.config", config_json);
  const std::string base = dir + "/session";
  auto s = easybo::serve::Session::create(
      "session", easybo::serve::parse_session_config(config_json), base);
  auto observe = [&](const easybo::bo::Suggestion& sg) {
    s->observe_ok(sg.tag, tf.fn(sg.x));
  };
  const auto a = s->suggest();
  const auto b = s->suggest();
  observe(a);
  const auto c = s->suggest();
  observe(b);
  observe(c);  // the initial design is complete
  const auto d = s->suggest();
  const auto e = s->suggest();
  observe(d);
  const auto f = s->suggest();
  observe(e);
  (void)s->suggest();  // stays in flight

  // Journal f's outcome, then put back both snapshot generations as they
  // were before it: a crash right after the journal append.
  const std::string snap = base + ".snapshot";
  const std::string primary = easybo::io::read_file(snap);
  const std::string old = easybo::io::read_file(snap + ".old");
  observe(f);
  easybo::io::atomic_write_file(snap, primary);
  easybo::io::atomic_write_file(snap + ".old", old);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out_dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  write_engine(dir);
  write_session(dir);
  return 0;
}
