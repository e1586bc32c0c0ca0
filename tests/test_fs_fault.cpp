// Tests for the storage fault-injection seam (src/io/fs_fault.h) and for
// the journal/snapshot primitives' behaviour under it: deterministic
// every-Nth schedules, channel precedence, the fault budget, the path
// filter — and the load-bearing guarantee that a failed journal append
// rolls the file back to exactly its pre-append bytes.

#include "io/fs_fault.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "io/journal.h"
#include "test_temp_dir.h"

namespace easybo::io {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_temp_path("easybo_fsfault_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FsFault, NoInjectorMeansNoAction) {
  ASSERT_EQ(installed_fs_faults(), nullptr);
  const FsFaultAction a = fs_fault_check(FsOp::Write, "whatever");
  EXPECT_EQ(a.err, 0);
  EXPECT_FALSE(a.short_write);
  EXPECT_FALSE(a.torn_rename);
  EXPECT_EQ(a.stall_seconds, 0.0);
}

TEST(FsFault, EveryNthFsyncFailsWithEnospc) {
  FsFaultPlan plan;
  plan.enospc_every = 2;
  FsFaultInjector inj(plan);
  // The enospc channel counts only fsyncs; interleaved writes are
  // invisible to it.
  EXPECT_EQ(inj.check(FsOp::Fsync, "f").err, 0);
  EXPECT_EQ(inj.check(FsOp::Write, "f").err, 0);
  EXPECT_EQ(inj.check(FsOp::Write, "f").err, 0);
  EXPECT_EQ(inj.check(FsOp::Fsync, "f").err, ENOSPC);
  EXPECT_EQ(inj.check(FsOp::Fsync, "f").err, 0);
  EXPECT_EQ(inj.check(FsOp::Fsync, "f").err, ENOSPC);
  EXPECT_EQ(inj.faults(), 2u);
}

TEST(FsFault, MaxFaultsCapsInjectionThenLetsOperationsProceed) {
  FsFaultPlan plan;
  plan.eio_every = 1;
  plan.max_faults = 2;
  FsFaultInjector inj(plan);
  EXPECT_EQ(inj.check(FsOp::Read, "f").err, EIO);
  EXPECT_EQ(inj.check(FsOp::Open, "f").err, EIO);
  EXPECT_EQ(inj.check(FsOp::Write, "f").err, 0);
  EXPECT_EQ(inj.check(FsOp::Fsync, "f").err, 0);
  EXPECT_EQ(inj.faults(), 2u);
}

TEST(FsFault, PathFilterMakesOtherFilesIneligibleAndUncounted) {
  FsFaultPlan plan;
  plan.eio_every = 2;
  plan.path_contains = "alpha";
  FsFaultInjector inj(plan);
  // Non-matching paths neither fault nor advance the schedule.
  EXPECT_EQ(inj.check(FsOp::Write, "/state/beta.journal").err, 0);
  EXPECT_EQ(inj.check(FsOp::Write, "/state/alpha.journal").err, 0);
  EXPECT_EQ(inj.check(FsOp::Write, "/state/beta.journal").err, 0);
  EXPECT_EQ(inj.check(FsOp::Write, "/state/alpha.journal").err, EIO);
  EXPECT_EQ(inj.ops(), 2u);
}

TEST(FsFault, TornRenamePrecedesEioOnTheSameOperation) {
  FsFaultPlan plan;
  plan.eio_every = 1;
  plan.torn_rename_every = 1;
  FsFaultInjector inj(plan);
  const FsFaultAction a = inj.check(FsOp::Rename, "f");
  EXPECT_TRUE(a.torn_rename);
  EXPECT_EQ(a.err, EIO);
  // One operation, one fault — precedence picks a channel, not a stack.
  EXPECT_EQ(inj.faults(), 1u);
}

TEST(FsFault, ScopedInstallRestoresThePreviousInjector) {
  ASSERT_EQ(installed_fs_faults(), nullptr);
  {
    ScopedFsFaults outer(FsFaultPlan{});
    EXPECT_EQ(installed_fs_faults(), &outer.injector());
    {
      ScopedFsFaults inner(FsFaultPlan{});
      EXPECT_EQ(installed_fs_faults(), &inner.injector());
    }
    EXPECT_EQ(installed_fs_faults(), &outer.injector());
  }
  EXPECT_EQ(installed_fs_faults(), nullptr);
}

TEST(FsFault, FailedAppendLeavesTheJournalBitIdentical) {
  const std::string dir = fresh_dir("append_rollback");
  const std::string path = dir + "/j.journal";
  JournalWriter w;
  w.open(path);
  w.append("alpha");
  w.append("beta");
  const std::string before = read_file(path);

  // Channel per failure mode; every one must leave the file untouched.
  struct Case {
    const char* name;
    FsFaultPlan plan;
  };
  FsFaultPlan enospc;
  enospc.enospc_every = 1;
  FsFaultPlan eio;
  eio.eio_every = 1;
  FsFaultPlan shortw;
  shortw.short_write_every = 1;
  for (const Case& c : {Case{"enospc", enospc}, Case{"eio", eio},
                        Case{"short_write", shortw}}) {
    SCOPED_TRACE(c.name);
    {
      ScopedFsFaults faults(c.plan);
      EXPECT_THROW(w.append("gamma"), CheckpointError);
    }
    EXPECT_EQ(read_file(path), before);
    // The writer is still usable and the reader still sees two intact
    // records with no torn tail.
    const JournalReadResult r = read_journal(path);
    EXPECT_EQ(r.payloads.size(), 2u);
    EXPECT_FALSE(r.torn_tail);
  }
  // After the faults clear, appends continue from the rolled-back end.
  w.append("gamma");
  const JournalReadResult r = read_journal(path);
  ASSERT_EQ(r.payloads.size(), 3u);
  EXPECT_EQ(r.payloads[2], "gamma");
  EXPECT_FALSE(r.torn_tail);
}

TEST(FsFault, TornRenameLeavesAHalfWrittenDestinationAndThrows) {
  const std::string dir = fresh_dir("torn_rename");
  const std::string path = dir + "/file.snapshot";
  atomic_write_file(path, frame_line("the old complete content") + "\n");
  const std::string next = frame_line(std::string(200, 'x')) + "\n";
  {
    FsFaultPlan plan;
    plan.torn_rename_every = 1;
    ScopedFsFaults faults(plan);
    EXPECT_THROW(atomic_write_file(path, next), CheckpointError);
  }
  // The destination is a truncated prefix of the NEW content — the
  // non-atomic-replace disaster the snapshot fallback exists for.
  const std::string after = read_file(path);
  EXPECT_EQ(after, next.substr(0, next.size() / 2));
  const JournalReadResult r = read_journal(path);
  EXPECT_TRUE(r.payloads.empty());
  EXPECT_TRUE(r.torn_tail);
}

TEST(FsFault, EnospcOnSnapshotWriteLeavesTheOldSnapshotInPlace) {
  const std::string dir = fresh_dir("enospc_snapshot");
  const std::string path = dir + "/file.snapshot";
  const std::string old_content = frame_line("old") + "\n";
  atomic_write_file(path, old_content);
  {
    FsFaultPlan plan;
    plan.enospc_every = 1;
    ScopedFsFaults faults(plan);
    EXPECT_THROW(atomic_write_file(path, frame_line("new") + "\n"),
                 CheckpointError);
  }
  // The fsync of the tmp file failed before any rename: the destination
  // still holds the old complete version.
  EXPECT_EQ(read_file(path), old_content);
}

TEST(FsFault, TryRenameRotatesAndReportsMissingSource) {
  const std::string dir = fresh_dir("try_rename");
  const std::string a = dir + "/a";
  const std::string b = dir + "/b";
  EXPECT_FALSE(try_rename_file(a, b));  // nothing to rotate yet
  atomic_write_file(a, "payload");
  EXPECT_TRUE(try_rename_file(a, b));
  EXPECT_FALSE(file_exists(a));
  EXPECT_EQ(read_file(b), "payload");
}

}  // namespace
}  // namespace easybo::io
