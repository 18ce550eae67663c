#include "pheap/containers.h"

#include <gtest/gtest.h>

#include <string>

#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

class ContainersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("containers");
    RegionOptions options;
    options.size = 32 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
};

TEST_F(ContainersTest, PVectorPushPopIndex) {
  auto* vector = PVector<std::uint64_t>::Create(heap_.get(), 100);
  ASSERT_NE(vector, nullptr);
  EXPECT_TRUE(vector->empty());
  EXPECT_EQ(vector->capacity(), 100u);

  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vector->push_back(i * 3));
  }
  EXPECT_FALSE(vector->push_back(999)) << "capacity enforced";
  EXPECT_EQ(vector->size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ((*vector)[i], i * 3);
  }
  vector->pop_back();
  EXPECT_EQ(vector->size(), 99u);
  EXPECT_TRUE(vector->push_back(42));
  EXPECT_EQ((*vector)[99], 42u);
}

TEST_F(ContainersTest, PVectorIteration) {
  auto* vector = PVector<std::uint32_t>::Create(heap_.get(), 16);
  for (std::uint32_t i = 0; i < 10; ++i) vector->push_back(i);
  std::uint32_t sum = 0;
  for (const std::uint32_t v : *vector) sum += v;
  EXPECT_EQ(sum, 45u);
}

TEST_F(ContainersTest, PVectorStructElements) {
  struct Point {
    double x, y;
  };
  auto* vector = PVector<Point>::Create(heap_.get(), 4);
  vector->push_back({1.5, 2.5});
  vector->push_back({-3.0, 4.0});
  EXPECT_EQ((*vector)[0].x, 1.5);
  EXPECT_EQ((*vector)[1].y, 4.0);
}

TEST_F(ContainersTest, PVectorSurvivesReopen) {
  const std::string path = file_->path();
  PVector<std::uint64_t>* vector = nullptr;
  {
    vector = PVector<std::uint64_t>::Create(heap_.get(), 50);
    for (std::uint64_t i = 0; i < 20; ++i) vector->push_back(i + 100);
    heap_->set_root(vector);
    heap_->CloseClean();
    heap_.reset();
  }
  auto heap = PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  auto* reopened = (*heap)->root<PVector<std::uint64_t>>();
  ASSERT_EQ(reopened, vector) << "fixed-address mapping";
  EXPECT_EQ(reopened->size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ((*reopened)[i], i + 100);
  }
  heap_ = std::move(*heap);  // hand back for TearDown
}

TEST_F(ContainersTest, PVectorGcRegistration) {
  auto* vector = PVector<std::uint64_t>::Create(heap_.get(), 1000);
  for (int i = 0; i < 5; ++i) vector->push_back(1);
  heap_->set_root(vector);
  TypeRegistry registry;
  PVector<std::uint64_t>::RegisterType(&registry);
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(vector->size(), 5u) << "contents intact after GC";
}

TEST_F(ContainersTest, PStringAssignAndView) {
  auto* string = PString::Create(heap_.get(), 64);
  ASSERT_NE(string, nullptr);
  EXPECT_TRUE(string->empty());
  EXPECT_TRUE(string->Assign("procrastination"));
  EXPECT_EQ(string->view(), "procrastination");
  EXPECT_TRUE(string->Assign("beats prevention"));
  EXPECT_EQ(string->view(), "beats prevention");
  // Shrinking is atomic too (double buffering).
  EXPECT_TRUE(string->Assign("tsp"));
  EXPECT_EQ(string->view(), "tsp");
  EXPECT_EQ(string->size(), 3u);
}

TEST_F(ContainersTest, PStringCapacityEnforced) {
  auto* string = PString::Create(heap_.get(), 8);
  EXPECT_TRUE(string->Assign("12345678"));
  EXPECT_FALSE(string->Assign("123456789"));
  EXPECT_EQ(string->view(), "12345678") << "failed assign changes nothing";
}

TEST_F(ContainersTest, PStringAlternatesBuffers) {
  auto* string = PString::Create(heap_.get(), 32);
  // Many assigns exercise both buffers repeatedly.
  for (int i = 0; i < 100; ++i) {
    const std::string text = "value-" + std::to_string(i);
    ASSERT_TRUE(string->Assign(text));
    ASSERT_EQ(string->view(), text);
  }
}

TEST_F(ContainersTest, PStringSurvivesReopen) {
  const std::string path = file_->path();
  {
    auto* string = PString::Create(heap_.get(), 128);
    string->Assign("durable greetings");
    heap_->set_root(string);
    heap_->CloseClean();
    heap_.reset();
  }
  auto heap = PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ((*heap)->root<PString>()->view(), "durable greetings");
  heap_ = std::move(*heap);
}

}  // namespace
}  // namespace tsp::pheap
