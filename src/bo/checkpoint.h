#pragma once
/// \file checkpoint.h
/// \brief Durable run state: journal records and engine snapshots.
///
/// Serialization for the crash-safe run subsystem
/// (docs/checkpoint-format.md). A run with BoConfig::checkpoint_path set
/// produces two files under that base path:
///
///   <path>.journal   append-only JSONL, one checksummed line per
///                    terminal evaluation outcome (schema
///                    "easybo.journal.v1"; the eval fields reuse the
///                    easybo.metrics.v1 eval-record shape)
///   <path>.snapshot  one checksummed line holding the full engine state
///                    at a loop boundary (schema "easybo.checkpoint.v1"),
///                    rewritten atomically every checkpoint_every
///                    completions
///
/// Resume = restore the snapshot, then *replay* the journal tail through
/// the normal engine loop with journaled completions substituted for real
/// evaluations. Because the replay runs the very same propose/update
/// code, the RNG streams, GP refit schedule and hallucination set end up
/// bit-identical to the uninterrupted run — that is the headline
/// guarantee, enforced by tests/test_checkpoint.cpp.
///
/// BoEngine::resume and serve::Session::resume both resume through
/// read_checkpoint() below and AskTellCore::replay(); each adds only its
/// own policy. The header is exposed for tests and tooling too.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/vec.h"
#include "opt/objective.h"

namespace easybo::bo {

struct BoConfig;  // bo/config.h
using linalg::Vec;

/// One journal line: the terminal outcome of one evaluation, everything
/// handle() needs to re-enact it during replay.
struct JournalRecord {
  std::size_t index = 0;    ///< completion order (journal line order)
  std::size_t tag = 0;      ///< proposal index (BoEngine prop table)
  std::string status;       ///< sched::to_string(EvalStatus)
  std::string action;       ///< observed | discarded | penalized | abort
  std::uint32_t attempts = 1;
  std::size_t worker = 0;
  double start = 0.0;       ///< executor seconds, original run's clock
  double finish = 0.0;
  bool is_init = false;
  Vec x;                    ///< unit-space proposal (replay cross-check)
  /// Observed value for ok evals; NaN otherwise (emitted as JSON null).
  double y = 0.0;
  std::string error;        ///< what() of the failure, when any

  std::string to_payload() const;
  static JournalRecord parse(const std::string& payload);
};

/// The journal's first line, binding the file to one run configuration.
struct JournalHeader {
  std::string schema;        ///< "easybo.journal.v1"
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;

  std::string to_payload() const;
  static JournalHeader parse(const std::string& payload);
};

/// Full engine state at one loop boundary. Field-by-field mirror of
/// BoEngine's private state — see the member comments in engine.h for
/// semantics.
struct BoCheckpoint {
  std::uint64_t config_hash = 0;
  std::size_t journal_count = 0;  ///< journal lines absorbed in this state
  double now = 0.0;               ///< executor clock (original run)
  double busy = 0.0;              ///< executor total busy time (original)
  bool init_done = false;         ///< post-init force-train already ran
  /// SyncBatch's deferred-model-refresh flag: an in-flight batch already
  /// produced observations the barrier update has not absorbed. Engine
  /// snapshots always write false (they sit at batch barriers); session
  /// snapshots (src/serve) are taken after every mutation and need it.
  bool sync_dirty = false;
  std::size_t issued = 0;

  RngState rng;      ///< proposal stream
  RngState sup_rng;  ///< supervisor jitter stream

  std::vector<Vec> obs_x;  ///< unit space
  Vec obs_y;
  std::vector<bool> obs_is_init;
  std::vector<Vec> failed_x;

  // Proposal table by tag, including per-tag submit time and nominal
  // duration (needed to re-submit in-flight work with its remaining
  // duration).
  std::vector<Vec> prop_x;
  std::vector<bool> prop_init;
  std::vector<double> prop_submit;
  std::vector<double> prop_duration;

  std::vector<std::size_t> pending;  ///< tags submitted but unhandled

  std::vector<std::vector<Vec>> hc_histories;  ///< pHCBO, oldest first
  Vec hedge_gains;
  std::vector<Vec> hedge_nominees;

  std::size_t next_hyper_refit = 0;
  std::size_t hyper_refits = 0;
  Vec gp_log_hyperparams;

  std::string to_payload() const;
  static BoCheckpoint parse(const std::string& payload);
};

/// Canonical fingerprint of everything that shapes the proposal stream:
/// all behavioural BoConfig knobs (checkpoint_path/checkpoint_every and
/// collect_metrics excluded — they never change proposals), the trainer
/// and acquisition-optimizer options, and the design bounds. A resume
/// whose fingerprint differs from the files' refuses to run.
std::uint64_t config_fingerprint(const BoConfig& config,
                                 const opt::Bounds& bounds);

/// Seed of the supervisor's retry-jitter stream for a run seeded with
/// \p seed: decorrelated from the proposal stream so supervision never
/// perturbs it. Snapshots carry this stream (BoCheckpoint::sup_rng).
std::uint64_t supervisor_seed(std::uint64_t seed);

/// File layout under a BoConfig::checkpoint_path base. The fallback is
/// the previous snapshot generation a served session rotates aside
/// before each rewrite (src/serve/session.h).
std::string journal_file(const std::string& base);
std::string snapshot_file(const std::string& base);
std::string fallback_snapshot_file(const std::string& base);

/// Which snapshot generation a resume restores.
enum class SnapshotGeneration { None, Primary, Fallback };

/// What one resume reads from the files under a checkpoint base, checked
/// against one configuration fingerprint (read_checkpoint()), for
/// AskTellCore::restore_checkpoint() to apply.
struct CheckpointFiles {
  std::string base;  ///< the checkpoint base the files live under
  /// The journal holds no intact header and no snapshot generation
  /// exists: the wreckage of a crash before the header became durable.
  /// Nothing was ever evaluated, so the run starts afresh.
  bool pristine = false;
  std::vector<JournalRecord> records;  ///< every intact record, in order
  std::size_t valid_bytes = 0;  ///< journal prefix before a torn tail
  bool torn_tail = false;
  SnapshotGeneration generation = SnapshotGeneration::None;
  /// "<base>.snapshot" exists but is torn or unreadable.
  bool primary_damaged = false;
  /// The chosen generation; default (journal_count 0) when None.
  BoCheckpoint snapshot;

  /// Path of the chosen generation; empty when None.
  std::string snapshot_path() const;
};

/// The one checkpoint loader behind BoEngine::resume and
/// serve::Session::resume (docs/checkpoint-format.md, "Resume
/// semantics"). Reads "<base>.journal" once and validates its header
/// fingerprint and record indices, then picks the snapshot generation:
/// "<base>.snapshot", else "<base>.snapshot.old", else none. A
/// generation that is missing, torn or unreadable is passed over; one
/// whose checksum holds but whose JSON does not is refused. Checks the
/// chosen snapshot's fingerprint and that it has not absorbed more
/// records than the journal holds. Touches no file. Throws
/// io::CheckpointError on every refusal; whether a missing or damaged
/// snapshot is fatal is the caller's policy.
CheckpointFiles read_checkpoint(const std::string& base,
                                std::uint64_t config_hash);

}  // namespace easybo::bo
