// E5: the enabling observation of the paper (§3 + Appendix A): "If
// MAP_SHARED is specified, write references shall change the underlying
// object" — even if the writing process is SIGKILLed immediately after
// the store, with no msync and no cache flush. This is TSP-for-free on
// process crashes, and the reason every other experiment here works.

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>

#include "common/flush.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

TEST(KernelPersistenceTest, StoresSurviveSigkillWithZeroFlushes) {
  ScopedRegionFile file("kernelp");
  RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = 1 * 1024 * 1024;

  constexpr std::uint64_t kWords = 4096;
  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: create the heap, issue plain stores, signal readiness,
    // then spin until killed. No msync, no flush, no clean shutdown.
    close(ready_pipe[0]);
    auto heap_or = PersistentHeap::Create(file.path(), options);
    if (!heap_or.ok()) _exit(2);
    auto heap = std::move(*heap_or);
    GlobalFlushStats().Reset();
    auto* words = static_cast<std::uint64_t*>(heap->Alloc(kWords * 8));
    for (std::uint64_t i = 0; i < kWords; ++i) {
      words[i] = i * 0x9E3779B97F4A7C15ULL + 1;
    }
    heap->set_root(words);
    if (GlobalFlushStats().lines_flushed.load() != 0) _exit(3);
    char ok = 'k';
    if (write(ready_pipe[1], &ok, 1) != 1) _exit(4);
    for (;;) pause();  // await the SIGKILL
  }

  close(ready_pipe[1]);
  char ok = 0;
  ASSERT_EQ(read(ready_pipe[0], &ok, 1), 1) << "child failed during setup";
  close(ready_pipe[0]);
  ASSERT_EQ(ok, 'k');
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Parent: every single store issued before the kill is in the file.
  auto heap_or = PersistentHeap::Open(file.path());
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  auto heap = std::move(*heap_or);
  EXPECT_TRUE(heap->needs_recovery());
  const auto* words = heap->root<std::uint64_t>();
  ASSERT_NE(words, nullptr);
  for (std::uint64_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(words[i], i * 0x9E3779B97F4A7C15ULL + 1)
        << "store " << i << " was lost — kernel persistence violated";
  }
}

// The contrast case the paper draws: MAP_PRIVATE mappings have no
// kernel persistence — modifications die with the process.
TEST(KernelPersistenceTest, PrivateMappingsDoNotSurvive) {
  const std::string path =
      "/dev/shm/tsp_private_" + std::to_string(getpid()) + ".bin";
  unlink(path.c_str());
  {
    const int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(ftruncate(fd, 4096), 0);
    close(fd);
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int fd = open(path.c_str(), O_RDWR);
    auto* map = static_cast<std::uint64_t*>(mmap(
        nullptr, 4096, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd, 0));
    map[0] = 0xFEEDFACE;
    _exit(0);  // even an orderly exit: private pages are discarded
  }
  int status = 0;
  waitpid(pid, &status, 0);

  const int fd = open(path.c_str(), O_RDONLY);
  std::uint64_t value = 1;
  ASSERT_EQ(read(fd, &value, 8), 8);
  close(fd);
  unlink(path.c_str());
  EXPECT_EQ(value, 0u) << "MAP_PRIVATE writes must not reach the file";
}

}  // namespace
}  // namespace tsp::pheap
