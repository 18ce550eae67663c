// Copyright 2026 The TSP Authors.
// Robust PMutex edge cases (DESIGN.md §12, ISSUE PR 8 satellite c):
// dead-owner detection and stealing on the contended-acquire path.
//
// Each test forks a child that shares the parent's MAP_SHARED heap,
// registers its own Atlas slot (stamped with the child's pid + birth),
// takes a robust lock, and is SIGKILLed at a pipe-synchronized point.
// The parent — a survivor in the same domain — then contends on the
// same RobustLockWord and must harvest the corpse: roll back exactly
// the dead owner's open OCS, clear the word, and steal it.
//
// The fork trick makes these deterministic where the mproc drill
// (tests/faultsim/mproc_crash_test.cc) is statistical: the child stops
// at a known point in the OCS lifecycle, so each test pins down one
// branch of the harvest protocol (rollback / no-capture / pid-reuse).
// The PeerProcess tests fork live peers instead: a process's stability
// passes must reach the records that another process depends on.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "common/process_id.h"
#include "pheap/heap.h"
#include "pheap/sanitizer.h"
#include "pheap/test_util.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

/// A 64-byte persistent blob for the StoreBytes test.
struct Blob {
  std::uint64_t w[8];
};

class RobustLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("robust");
    pheap::RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 8 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    runtime_ = std::make_unique<AtlasRuntime>(
        heap_.get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime_->Initialize().ok());
    ASSERT_GT(runtime_->robust_lock_count(), 0u)
        << "runtime area too small for a robust lock table";
  }

  /// Forks a child that runs `hold` (which must end by taking `mutex`
  /// and leaving it held), then signals the parent over a pipe and
  /// pauses until the parent SIGKILLs it. Returns after the corpse is
  /// reaped, with the robust word still owned by the dead child.
  ///
  /// IMPORTANT: the parent must not have registered its own Atlas
  /// thread before calling this — fork would hand the child the
  /// parent's thread-local slot binding and the child would write
  /// under the parent's (live) identity, which can never be harvested.
  template <typename Hold>
  void ForkHoldAndKill(Hold&& hold) {
    int ready[2];
    ASSERT_EQ(pipe(ready), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: shares the MAP_SHARED mapping; its first CurrentThread()
      // claims a fresh slot stamped (child pid, child birth).
      close(ready[0]);
      hold();
      char ok = 'k';
      if (write(ready[1], &ok, 1) != 1) _exit(2);
      for (;;) pause();  // hold the lock until the SIGKILL
    }
    close(ready[1]);
    char ok = 0;
    ASSERT_EQ(read(ready[0], &ok, 1), 1) << "child died during setup";
    close(ready[0]);
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  }

  RobustTableHeader* table() { return runtime_->robust_table(); }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

constexpr std::uint64_t kOld = 0x1111111111111111ULL;
constexpr std::uint64_t kNew = 0x2222222222222222ULL;

// A child dies inside an OCS with one captured store; the surviving
// parent's contended lock() must roll that store back and steal the
// word — never publish the dead writer's update.
TEST_F(RobustLockTest, StealRollsBackDeadOwnersOpenOcs) {
  auto* word = heap_->New<std::uint64_t>(kOld);
  ASSERT_NE(word, nullptr);
  heap_->set_root(word);
  PMutex mutex(runtime_.get());
  mutex.BindRobust(runtime_->robust_lock(0));

  ForkHoldAndKill([&] {
    mutex.lock();
    runtime_->CurrentThread()->Store(word, kNew);
    // The capture published the undo record before the guarded store
    // (MAP_SHARED: both are already visible to the parent).
  });

  // Contended acquire: the word names the dead child's slot token.
  mutex.lock();
  EXPECT_EQ(*word, kOld) << "dead owner's uncommitted store leaked";
  EXPECT_EQ(table()->robust_steals.load(), 1u);
  EXPECT_EQ(table()->dead_owner_rollbacks.load(), 1u);
  EXPECT_EQ(table()->slots_harvested.load(), 1u);
  mutex.unlock();

  // The stolen lock works normally afterwards.
  mutex.lock();
  runtime_->CurrentThread()->Store(word, kNew);
  mutex.unlock();
  EXPECT_EQ(*word, kNew);
}

// Racing survivors: two threads (each via its own PMutex, simulating
// two processes whose in-process mutexes cannot serialize them) contend
// on the dead owner's word at once. The kSlotHarvesting CAS elects
// exactly one harvester, so exactly one roll-back and one counted
// steal; both threads eventually hold the lock and both increments
// survive.
TEST_F(RobustLockTest, StealRaceElectsExactlyOneHarvester) {
  auto* word = heap_->New<std::uint64_t>(kOld);
  ASSERT_NE(word, nullptr);
  heap_->set_root(word);
  PMutex held(runtime_.get());
  held.BindRobust(runtime_->robust_lock(0));

  ForkHoldAndKill([&] {
    held.lock();
    runtime_->CurrentThread()->Store(word, kNew);
  });

  std::atomic<bool> go{false};
  auto contend = [&] {
    PMutex mine(runtime_.get());
    mine.BindRobust(runtime_->robust_lock(0));
    AtlasThread* thread = runtime_->CurrentThread();  // register first
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    mine.LockWith(thread);
    thread->Store(word, *word + 1);
    mine.UnlockWith(thread);
  };
  std::thread a(contend), b(contend);
  go.store(true, std::memory_order_release);
  a.join();
  b.join();

  // Exactly one harvest happened (the election), so exactly one
  // roll-back of the dead OCS and one counted steal — then both
  // survivors' increments landed on the restored value.
  EXPECT_EQ(*word, kOld + 2);
  EXPECT_EQ(table()->robust_steals.load(), 1u);
  EXPECT_EQ(table()->dead_owner_rollbacks.load(), 1u);
  EXPECT_EQ(table()->slots_harvested.load(), 1u);
}

// A child dies holding the lock having captured nothing: the staged
// kAcquire entry was never published, so recovery-by-harvest has
// nothing to roll back — the steal must still succeed, with the
// rollback counter untouched.
TEST_F(RobustLockTest, DieBeforeCaptureStealsWithoutRollback) {
  auto* word = heap_->New<std::uint64_t>(kOld);
  ASSERT_NE(word, nullptr);
  heap_->set_root(word);
  PMutex mutex(runtime_.get());
  mutex.BindRobust(runtime_->robust_lock(0));

  ForkHoldAndKill([&] {
    mutex.lock();  // OCS open, zero captures
  });

  mutex.lock();
  EXPECT_EQ(*word, kOld);
  EXPECT_EQ(table()->robust_steals.load(), 1u);
  EXPECT_EQ(table()->dead_owner_rollbacks.load(), 0u)
      << "capture-free OCS must be invisible to rollback";
  EXPECT_EQ(table()->slots_harvested.load(), 1u);
  mutex.unlock();
}

// A child dies after a multi-word StoreBytes (plus a second partial
// overwrite) inside one OCS: the harvest must restore every byte the
// OCS touched, not just the last batch.
TEST_F(RobustLockTest, DieMidStoreBytesRollsBackWholeBatch) {
  auto* blob = heap_->New<Blob>();
  ASSERT_NE(blob, nullptr);
  {
    // Blessed initialization (the parent has no Atlas thread yet and
    // must not register one before the fork; see ForkHoldAndKill).
    pheap::ScopedWriteWindow window(blob, sizeof(Blob));
    for (int i = 0; i < 8; ++i) blob->w[i] = kOld + i;
  }
  heap_->set_root(blob);
  PMutex mutex(runtime_.get());
  mutex.BindRobust(runtime_->robust_lock(0));

  ForkHoldAndKill([&] {
    mutex.lock();
    AtlasThread* thread = runtime_->CurrentThread();
    Blob scratch;
    for (int i = 0; i < 8; ++i) scratch.w[i] = kNew + i;
    thread->StoreBytes(blob, &scratch, sizeof(Blob));
    // Second, overlapping batch in the same OCS (dedup filters the
    // second capture; rollback must still restore the *first* old
    // values, not the intermediate ones).
    std::uint64_t half[4] = {kNew + 100, kNew + 101, kNew + 102,
                             kNew + 103};
    thread->StoreBytes(&blob->w[2], half, sizeof(half));
  });

  mutex.lock();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(blob->w[i], kOld + i) << "word " << i << " not rolled back";
  }
  EXPECT_EQ(table()->dead_owner_rollbacks.load(), 1u);
  EXPECT_EQ(table()->slots_harvested.load(), 1u);
  mutex.unlock();
}

// Pid reuse: a slot stamped with a pid that is alive *right now* but
// with a different birth epoch belongs to a dead incarnation — the
// liveness check must say kPidReused (not alive) and the harvest must
// proceed. Fabricates the stamp directly (no portable way to make the
// kernel recycle a chosen pid) using this process's own live pid with
// a wrong birth tick.
TEST_F(RobustLockTest, PidReuseWithWrongBirthIsDead) {
  const ProcessIdentity self = CurrentProcess();
  ASSERT_NE(self.birth, 0u) << "/proc start-time unavailable";
  const std::uint64_t wrong_birth = self.birth + 12345;
  ASSERT_EQ(CheckLiveness(self.pid, wrong_birth), Liveness::kPidReused);

  // Fabricate a dead incarnation's claim on the last slot (the ring is
  // empty, so the harvest has nothing to roll back) and hand it the
  // robust word.
  const std::uint32_t slot_index = runtime_->area().max_threads() - 1;
  ThreadLogHeader* slot = runtime_->area().slot(slot_index);
  ASSERT_EQ(slot->in_use.load(), kSlotFree);
  slot->owner_tid = 4242;
  slot->owner_birth.store(wrong_birth, std::memory_order_relaxed);
  slot->owner_pid.store(self.pid, std::memory_order_release);
  slot->in_use.store(kSlotClaimed, std::memory_order_release);
  RobustLockWord* word = runtime_->robust_lock(1);
  word->owner.store(static_cast<std::uint64_t>(slot_index) + 1,
                    std::memory_order_release);

  PMutex mutex(runtime_.get());
  mutex.BindRobust(word);
  mutex.lock();  // must harvest the reused-pid claim, not spin forever
  EXPECT_EQ(table()->robust_steals.load(), 1u);
  EXPECT_EQ(table()->dead_owner_rollbacks.load(), 0u);
  EXPECT_EQ(table()->slots_harvested.load(), 1u);
  EXPECT_EQ(slot->in_use.load(), kSlotFree);
  EXPECT_EQ(slot->owner_pid.load(), 0u);
  mutex.unlock();
  EXPECT_EQ(word->owner.load(), 0u);
}

// Passes across processes (DESIGN.md §12). In this process, A's OCS
// releases a plain nested lock while open; B's OCS b1 takes it, and B's
// next OCS b2, under robust lock R, publishes behind b1. In a forked
// child, C takes R and records a dependency on b2. A then commits on
// the fast path, which runs no pass, and this process idles. Only our
// passes can prove b2 stable, so C can run more OCSes than its ring
// holds only if b2's unstable hand-over of R started them.
TEST_F(RobustLockTest, PeerProcessDependentStabilizesWhileWeIdle) {
  auto* blob = heap_->New<Blob>();
  ASSERT_NE(blob, nullptr);
  PMutex robust(runtime_.get());
  robust.BindRobust(runtime_->robust_lock(0));
  const std::uint64_t capacity = runtime_->area().entries_per_thread();
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(to_parent), 0);
  // Fork while this process still runs one thread.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    close(to_child[1]);
    close(to_parent[0]);
    char go = 0;
    if (read(to_child[0], &go, 1) != 1) _exit(10);
    AtlasThread* c = runtime_->CurrentThread();
    robust.LockWith(c);  // C <- b2
    c->Store(&blob->w[2], std::uint64_t{3});
    robust.UnlockWith(c);
    if (c->local_stats().deps_recorded != 1) _exit(11);
    if (write(to_parent[1], &go, 1) != 1) _exit(12);
    if (read(to_child[0], &go, 1) != 1) _exit(13);
    PMutex plain(runtime_.get());
    for (std::uint64_t i = 0; i <= capacity; ++i) {
      plain.LockWith(c);
      c->Store(&blob->w[3], i);
      plain.UnlockWith(c);
    }
    runtime_->StabilizeNow();
    const ThreadLogHeader* slot = runtime_->area().slot(c->thread_id());
    _exit(slot->stable_ocs.load() == slot->committed_ocs.load() ? 0 : 14);
  }
  close(to_child[0]);
  close(to_parent[1]);

  AtlasThread a(runtime_.get(), 20);
  AtlasThread b(runtime_.get(), 21);
  PLockWord outer;
  PLockWord l1;
  a.OnAcquire(&outer, 1);
  a.OnAcquire(&l1, 2);
  a.Store(&blob->w[0], std::uint64_t{1});
  a.OnRelease(&l1, 2);  // A stays open
  b.OnAcquire(&l1, 2);  // b1 <- A
  b.Store(&blob->w[1], std::uint64_t{1});
  b.OnRelease(&l1, 2);
  robust.LockWith(&b);
  const std::uint64_t b2 = b.current_ocs();
  b.Store(&blob->w[2], std::uint64_t{2});
  robust.UnlockWith(&b);
  ASSERT_EQ(b.local_stats().published_commits, 2u);
  ASSERT_LT(runtime_->StableOcsOf(21), b2);

  char go = 'g';
  ASSERT_EQ(write(to_child[1], &go, 1), 1);
  ASSERT_EQ(read(to_parent[0], &go, 1), 1) << "child failed to take R";
  a.OnRelease(&outer, 1);
  ASSERT_EQ(a.local_stats().fast_path_commits, 1u);
  ASSERT_EQ(write(to_child[1], &go, 1), 1);
  close(to_child[1]);
  close(to_parent[0]);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << (WIFEXITED(status)
              ? "child exited with status " +
                    std::to_string(WEXITSTATUS(status))
              : "child died of signal " + std::to_string(WTERMSIG(status)));
  EXPECT_GE(runtime_->StableOcsOf(21), b2);
}

// The same over two hops (DESIGN.md §12). In this process, A's OCS
// takes robust lock R0, then a plain lock, and releases R0 while still
// open. In child P1, B's OCS b1 takes R0, so it depends on A, and B's
// next OCS b2, under robust lock R1, publishes behind b1; then P1
// idles. In child P2, C takes R1 and depends on b2. A commits on the
// fast path. Our passes cannot see P1's records, so only P1's own,
// started when b1 handed R0 over unstable, can free C's ring.
TEST_F(RobustLockTest, PeerProcessDependentStabilizesAcrossTwoHops) {
  auto* blob = heap_->New<Blob>();
  ASSERT_NE(blob, nullptr);
  PMutex r0(runtime_.get());
  r0.BindRobust(runtime_->robust_lock(0));
  PMutex r1(runtime_.get());
  r1.BindRobust(runtime_->robust_lock(1));
  const std::uint64_t capacity = runtime_->area().entries_per_thread();
  // One pipe into each child, one shared pipe back.
  int to_p1[2];
  int to_p2[2];
  int to_parent[2];
  ASSERT_EQ(pipe(to_p1), 0);
  ASSERT_EQ(pipe(to_p2), 0);
  ASSERT_EQ(pipe(to_parent), 0);
  char token = 'g';
  // A child keeps no write end of a pipe it reads, so it sees EOF and
  // exits if this process dies.
  const auto close_child_ends = [&] {
    close(to_p1[1]);
    close(to_p2[1]);
    close(to_parent[0]);
  };
  // Fork both while this process still runs one thread.
  const pid_t p1 = fork();
  ASSERT_GE(p1, 0) << "fork failed";
  if (p1 == 0) {
    close_child_ends();
    if (read(to_p1[0], &token, 1) != 1) _exit(10);
    AtlasThread* b = runtime_->CurrentThread();
    r0.LockWith(b);  // b1 <- A
    b->Store(&blob->w[1], std::uint64_t{1});
    r0.UnlockWith(b);
    r1.LockWith(b);  // b2, behind b1
    b->Store(&blob->w[2], std::uint64_t{2});
    r1.UnlockWith(b);
    if (b->local_stats().published_commits != 2) _exit(11);
    if (write(to_parent[1], &token, 1) != 1) _exit(12);
    if (read(to_p1[0], &token, 1) != 1) _exit(13);  // idle until told
    _exit(0);
  }
  const pid_t p2 = fork();
  ASSERT_GE(p2, 0) << "fork failed";
  if (p2 == 0) {
    close_child_ends();
    if (read(to_p2[0], &token, 1) != 1) _exit(10);
    AtlasThread* c = runtime_->CurrentThread();
    r1.LockWith(c);  // C <- b2
    c->Store(&blob->w[3], std::uint64_t{3});
    r1.UnlockWith(c);
    if (c->local_stats().deps_recorded != 1) _exit(11);
    if (write(to_parent[1], &token, 1) != 1) _exit(12);
    if (read(to_p2[0], &token, 1) != 1) _exit(13);
    PMutex plain(runtime_.get());
    for (std::uint64_t i = 0; i <= capacity; ++i) {
      plain.LockWith(c);
      c->Store(&blob->w[4], i);
      plain.UnlockWith(c);
    }
    runtime_->StabilizeNow();
    const ThreadLogHeader* slot = runtime_->area().slot(c->thread_id());
    _exit(slot->stable_ocs.load() == slot->committed_ocs.load() ? 0 : 14);
  }

  AtlasThread a(runtime_.get(), 20);
  PLockWord plain;
  r0.LockWith(&a);
  a.OnAcquire(&plain, 2);
  a.Store(&blob->w[0], std::uint64_t{1});
  r0.UnlockWith(&a);  // A stays open
  ASSERT_EQ(write(to_p1[1], &token, 1), 1);
  ASSERT_EQ(read(to_parent[0], &token, 1), 1) << "P1 failed to publish";
  ASSERT_EQ(write(to_p2[1], &token, 1), 1);
  ASSERT_EQ(read(to_parent[0], &token, 1), 1) << "P2 failed to take R1";
  a.OnRelease(&plain, 2);
  ASSERT_EQ(a.local_stats().fast_path_commits, 1u);
  ASSERT_EQ(write(to_p2[1], &token, 1), 1);

  const auto describe = [](int status) {
    return WIFEXITED(status)
               ? "exited with status " + std::to_string(WEXITSTATUS(status))
               : "died of signal " + std::to_string(WTERMSIG(status));
  };
  int status = 0;
  ASSERT_EQ(waitpid(p2, &status, 0), p2);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "P2 " << describe(status);
  ASSERT_EQ(write(to_p1[1], &token, 1), 1);
  ASSERT_EQ(waitpid(p1, &status, 0), p1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "P1 " << describe(status);
  for (int fd : {to_p1[0], to_p1[1], to_p2[0], to_p2[1], to_parent[0],
                 to_parent[1]}) {
    close(fd);
  }
}

// Liveness itself, for completeness: the three verdicts.
// A robust lock is always outermost: acquired inside an open OCS it is
// refused before its mutex is taken, because released early it could
// give a live peer process a dependency on an OCS that a slot-local
// harvest later rolls back. An unbound lock may still nest inside a
// robust one: it serializes threads of one process only.
using RobustLockDeathTest = RobustLockTest;

TEST_F(RobustLockDeathTest, NestedRobustAcquisitionIsFatal) {
  PMutex robust(runtime_.get());
  robust.BindRobust(runtime_->robust_lock(0));
  PMutex plain(runtime_.get());
  EXPECT_DEATH(
      {
        PMutexLock outer(&plain);
        PMutexLock nested(&robust);
      },
      "robust PMutex \\(lock id " + std::to_string(robust.lock_id()) +
          "\\) acquired inside an open OCS");

  {
    PMutexLock outer(&robust);
    PMutexLock nested(&plain);
    EXPECT_EQ(robust.robust_word()->owner.load(),
              runtime_->CurrentThread()->thread_id() + 1u);
  }
  EXPECT_EQ(robust.robust_word()->owner.load(), 0u);
}

TEST(ProcessLivenessTest, Verdicts) {
  const ProcessIdentity self = CurrentProcess();
  EXPECT_EQ(CheckLiveness(self), Liveness::kAlive);
  // Matching an unknown (0) birth is the conservative "alive".
  EXPECT_EQ(CheckLiveness(self.pid, 0), Liveness::kAlive);
  // A pid from a dead child is kDead once reaped.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(0);
  const std::uint64_t child_birth = StartTimeOf(static_cast<std::uint32_t>(pid));
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(CheckLiveness(static_cast<std::uint32_t>(pid),
                          child_birth == 0 ? 1 : child_birth),
            Liveness::kDead);
}

}  // namespace
}  // namespace tsp::atlas
