// Copyright 2026 The TSP Authors.
// TSPSan tests: the dynamic half of the logged-store contract net.
//
// The death tests enable the sanitizer *inside* EXPECT_DEATH, so only
// the forked child ever runs with a protected arena; the parent process
// stays unsanitized and keeps running the rest of the suite.

#include "pheap/sanitizer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

struct SanNode {
  static constexpr std::uint32_t kPersistentTypeId = 0x53414E31;  // "SAN1"
  std::uint64_t a;
  std::uint64_t b;
};

class TspSanitizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "TSPSan's mprotect/SIGSEGV machinery conflicts with "
                    "compiler sanitizers (they own the SEGV handler)";
#endif
    file_ = std::make_unique<testing::ScopedRegionFile>("tspsan");
    RegionOptions options;
    options.size = 32 * 1024 * 1024;
    options.runtime_area_size = 2 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    registry_.Register(
        TypeInfo{SanNode::kPersistentTypeId, "SanNode", nullptr});
  }

  void TearDown() override {
    TspSanitizer::Disable();  // idempotent; death-test children never
                              // reach here (they die sanitized)
    heap_.reset();
    file_.reset();
  }

  Status Enable() {
    TspSanitizer::Options options;
    options.registry = &registry_;
    return TspSanitizer::Enable(heap_->region(), options);
  }

  std::unique_ptr<testing::ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
  TypeRegistry registry_;
};

TEST_F(TspSanitizerTest, RawStoreDies) {
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  EXPECT_DEATH(
      {
        Status status = Enable();
        if (!status.ok()) _exit(9);  // fail the death expectation
        node->a = 1;                 // unlogged write into the arena
      },
      "unlogged persistent store");
}

TEST_F(TspSanitizerTest, DiagnosticNamesTheObjectType) {
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  EXPECT_DEATH(
      {
        Status status = Enable();
        if (!status.ok()) _exit(9);
        node->b = 2;
      },
      "SanNode");
}

TEST_F(TspSanitizerTest, ProtectionIsRestoredWhenWindowCloses) {
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  EXPECT_DEATH(
      {
        Status status = Enable();
        if (!status.ok()) _exit(9);
        {
          ScopedWriteWindow window(node, sizeof(SanNode));
          node->a = 3;  // fine: window open
        }
        node->b = 4;  // window closed again: dies
      },
      "unlogged persistent store");
}

TEST_F(TspSanitizerTest, WindowedWritesAndNestingSucceed) {
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(Enable().ok());
  {
    ScopedWriteWindow outer(node, sizeof(SanNode));
    node->a = 10;
    {
      ScopedWriteWindow inner(&node->b, sizeof(node->b));
      node->b = 11;  // refcounted: inner close must not re-protect
    }
    node->a = 12;  // outer window still open
  }
  EXPECT_EQ(TspSanitizer::windows_opened(), 2u);  // outer + inner
  TspSanitizer::Disable();
  EXPECT_EQ(node->a, 12u);
  EXPECT_EQ(node->b, 11u);
}

TEST_F(TspSanitizerTest, HeapNewIsABlessedWriter) {
  ASSERT_TRUE(Enable().ok());
  // Placement-new of a fresh (unpublished) object opens its own window;
  // Free rewrites the block header through the allocator's window.
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  heap_->Free(node);
  TspSanitizer::Disable();
}

TEST_F(TspSanitizerTest, NonBlockingRangeIsExempt) {
  SanNode* node = heap_->New<SanNode>();
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(Enable().ok());
  TspSanitizer::RegisterNonBlockingRange(node, sizeof(SanNode),
                                         "test-domain");
  node->a = 21;  // raw store, but the §4.1 domain is exempt by design
  node->b = 22;
  TspSanitizer::Disable();
  EXPECT_EQ(node->a, 21u);
  EXPECT_EQ(node->b, 22u);
}

TEST_F(TspSanitizerTest, LoggedStoresPassThroughTheAtlasRuntime) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  ASSERT_NE(value, nullptr);
  {
    ScopedWriteWindow window(value, 8);
    *value = 0;  // baseline init before the sanitized OCS below
  }

  atlas::AtlasRuntime runtime(heap_.get(), PersistencePolicy::TspLogOnly());
  ASSERT_TRUE(runtime.Initialize().ok());
  ASSERT_TRUE(Enable().ok());

  atlas::PMutex mutex(&runtime);
  atlas::AtlasThread* thread = runtime.CurrentThread();
  {
    atlas::PMutexLock lock(&mutex);
    thread->Store(value, std::uint64_t{77});  // undo-logged + windowed
  }
  EXPECT_GT(TspSanitizer::windows_opened(), 0u);
  TspSanitizer::Disable();
  EXPECT_EQ(*value, 77u);
  runtime.UnregisterCurrentThread();
}

TEST_F(TspSanitizerTest, SecondEnableFails) {
  ASSERT_TRUE(Enable().ok());
  EXPECT_FALSE(Enable().ok());
  TspSanitizer::Disable();
  EXPECT_TRUE(Enable().ok());  // re-enable after disable is fine
  TspSanitizer::Disable();
}

TEST_F(TspSanitizerTest, EnabledByEnvParsesTheFlag) {
  unsetenv("TSP_SANITIZE_PERSIST");
  EXPECT_FALSE(TspSanitizer::enabled_by_env());
  setenv("TSP_SANITIZE_PERSIST", "0", 1);
  EXPECT_FALSE(TspSanitizer::enabled_by_env());
  setenv("TSP_SANITIZE_PERSIST", "1", 1);
  EXPECT_TRUE(TspSanitizer::enabled_by_env());
  unsetenv("TSP_SANITIZE_PERSIST");
}

}  // namespace
}  // namespace tsp::pheap
