#include "maps/mutex_hashmap.h"

#include <algorithm>
#include <bit>
#include <new>
#include <string>

#include "analysis/race_hooks.h"
#include "common/logging.h"

namespace tsp::maps {

HashMapRoot* MutexHashMap::CreateRoot(pheap::PersistentHeap* heap,
                                      const Options& options) {
  TSP_CHECK_GT(options.bucket_count, 0u);
  TSP_CHECK_LE(options.bucket_count, kMaxBuckets);
  const std::uint64_t bucket_count = std::bit_ceil(options.bucket_count);
  void* mem = heap->Alloc(BucketArray::AllocationSize(bucket_count),
                          BucketArray::kPersistentTypeId);
  if (mem == nullptr) return nullptr;
  auto* array = new (mem) BucketArray{};
  // Pre-publication init: the array is unreachable until the root
  // pointer is set, so a crash here just leaks it to the recovery GC.
  array->bucket_count = bucket_count;  // tsp-lint: allow(raw-store)
  for (std::uint64_t i = 0; i < bucket_count; ++i) {
    array->buckets[i] = nullptr;  // tsp-lint: allow(raw-store)
  }
  HashMapRoot* root = heap->New<HashMapRoot>();
  if (root == nullptr) {
    heap->Free(mem);
    return nullptr;
  }
  root->buckets = array;  // tsp-lint: allow(raw-store) -- unpublished
  return root;
}

Status MutexHashMap::CheckRoot(const HashMapRoot* root) {
  const std::uint64_t buckets = root->buckets->bucket_count;
  if (!std::has_single_bit(buckets) || buckets > kMaxBuckets) {
    return Status::Corruption(
        "mutex hash map has " + std::to_string(buckets) +
        " buckets, but this build serves only a power of two of at most "
        "2^32; use the build that wrote it");
  }
  return Status::OK();
}

void MutexHashMap::RegisterTypes(pheap::TypeRegistry* registry) {
  registry->Register(pheap::TypeInfo{
      HashMapRoot::kPersistentTypeId, "HashMapRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        visit(static_cast<const HashMapRoot*>(payload)->buckets);
      }});
  registry->Register(pheap::TypeInfo{
      BucketArray::kPersistentTypeId, "BucketArray",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* array = static_cast<const BucketArray*>(payload);
        for (std::uint64_t i = 0; i < array->bucket_count; ++i) {
          visit(array->buckets[i]);
        }
      }});
  registry->Register(pheap::TypeInfo{
      HashEntry::kPersistentTypeId, "HashEntry",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        visit(static_cast<const HashEntry*>(payload)->next);
      }});
}

MutexHashMap::MutexHashMap(pheap::PersistentHeap* heap, HashMapRoot* root,
                           atlas::AtlasRuntime* runtime,
                           const Options& options)
    : heap_(heap), runtime_(runtime) {
  TSP_CHECK(root != nullptr && root->buckets != nullptr);
  const Status root_status = CheckRoot(root);
  TSP_CHECK(root_status.ok()) << root_status.ToString();
  TSP_CHECK_GT(options.buckets_per_lock, 0u);
  buckets_ = root->buckets->buckets;
  bucket_count_ = root->buckets->bucket_count;
  // One stripe covers the whole map at most, which also keeps the
  // divisor within the reciprocal's exact range.
  buckets_per_lock_ = std::min(options.buckets_per_lock, bucket_count_);
  stripe_of_ = Reciprocal(buckets_per_lock_);
  const std::uint64_t lock_count =
      (bucket_count_ + buckets_per_lock_ - 1) / buckets_per_lock_;
  locks_.reserve(lock_count);
  for (std::uint64_t i = 0; i < lock_count; ++i) {
    locks_.push_back(std::make_unique<atlas::PMutex>(runtime_));
  }
  // Bind every lock to its persistent robust word so N processes can
  // attach the same map: lock i → robust word i is deterministic, so
  // each process's facade picks the same word for the same stripe and
  // the words arbitrate across processes. All-or-nothing: one unbound
  // stripe would silently lose cross-process exclusion, so a map with
  // more stripes than words keeps process-local locks and reports so
  // through cross_process_locks().
  if (runtime_ != nullptr && runtime_->robust_lock_count() >= lock_count) {
    for (std::uint64_t i = 0; i < lock_count; ++i) {
      locks_[i]->BindRobust(
          runtime_->robust_lock(static_cast<std::uint32_t>(i)));
    }
    cross_process_locks_ = true;
  }
}

std::uint64_t MutexHashMap::Hash(std::uint64_t key) {
  // SplitMix64 finalizer: avalanches dense integer keys.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void MutexHashMap::Put(std::uint64_t key, std::uint64_t value) {
  const std::uint64_t bucket = BucketOf(key);
  // Resolve the thread-local logging context once, before taking the
  // lock: the guard and the logged stores share it.
  atlas::PMutex* mutex = LockFor(bucket);
  atlas::AtlasThread* thread = mutex->LoggingThread();
  atlas::PMutexLock lock(mutex, thread);
  HashEntry** head = &buckets_[bucket];
  for (HashEntry* entry = *head; entry != nullptr; entry = entry->next) {
    if (entry->key == key) {
      StoreField(thread, &entry->value, value);
      return;
    }
  }
  auto* entry = static_cast<HashEntry*>(
      heap_->Alloc(sizeof(HashEntry), HashEntry::kPersistentTypeId));
  TSP_CHECK(entry != nullptr) << "persistent heap exhausted";
  if (thread != nullptr) thread->NoteAlloc(entry, HashEntry::kPersistentTypeId);
  // Initialize the entry with logged stores (Atlas instruments every
  // store in the OCS), then publish it at the bucket head.
  StoreField(thread, &entry->key, key);
  StoreField(thread, &entry->value, value);
  StoreField(thread, &entry->next, *head);
  StoreField(thread, head, entry);
}

std::optional<std::uint64_t> MutexHashMap::Get(std::uint64_t key) const {
  const std::uint64_t bucket = BucketOf(key);
  atlas::PMutexLock lock(LockFor(bucket));
  for (const HashEntry* entry = buckets_[bucket];
       entry != nullptr; entry = entry->next) {
    // TSPRace read-sampling hook: lets the detector move entries out of
    // Exclusive state so wrong-lock writers are caught, not adopted.
    analysis::HookRead(entry, sizeof(HashEntry));
    if (entry->key == key) return entry->value;
  }
  return std::nullopt;
}

std::uint64_t MutexHashMap::IncrementBy(std::uint64_t key,
                                        std::uint64_t delta) {
  const std::uint64_t bucket = BucketOf(key);
  atlas::PMutex* mutex = LockFor(bucket);
  atlas::AtlasThread* thread = mutex->LoggingThread();
  atlas::PMutexLock lock(mutex, thread);
  HashEntry** head = &buckets_[bucket];
  for (HashEntry* entry = *head; entry != nullptr; entry = entry->next) {
    if (entry->key == key) {
      const std::uint64_t new_value = entry->value + delta;
      StoreField(thread, &entry->value, new_value);
      return new_value;
    }
  }
  auto* entry = static_cast<HashEntry*>(
      heap_->Alloc(sizeof(HashEntry), HashEntry::kPersistentTypeId));
  TSP_CHECK(entry != nullptr) << "persistent heap exhausted";
  if (thread != nullptr) thread->NoteAlloc(entry, HashEntry::kPersistentTypeId);
  StoreField(thread, &entry->key, key);
  StoreField(thread, &entry->value, delta);
  StoreField(thread, &entry->next, *head);
  StoreField(thread, head, entry);
  return delta;
}

bool MutexHashMap::Remove(std::uint64_t key) {
  const std::uint64_t bucket = BucketOf(key);
  atlas::PMutex* mutex = LockFor(bucket);
  atlas::AtlasThread* thread = mutex->LoggingThread();
  atlas::PMutexLock lock(mutex, thread);
  HashEntry** link = &buckets_[bucket];
  for (HashEntry* entry = *link; entry != nullptr; entry = entry->next) {
    if (entry->key == key) {
      StoreField(thread, link, entry->next);
      if (thread != nullptr) {
        // Physical reclamation waits until the OCS is immune to
        // rollback (a cascaded rollback would resurrect the entry).
        thread->DeferFree(entry);
      } else {
        heap_->Free(entry);
      }
      return true;
    }
    link = &entry->next;
  }
  return false;
}

void MutexHashMap::ForEach(
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
  for (std::size_t lock_index = 0; lock_index < locks_.size(); ++lock_index) {
    atlas::PMutexLock lock(locks_[lock_index].get());
    const std::uint64_t first = lock_index * buckets_per_lock_;
    const std::uint64_t last =
        std::min(first + buckets_per_lock_, bucket_count_);
    for (std::uint64_t bucket = first; bucket < last; ++bucket) {
      for (const HashEntry* entry = buckets_[bucket];
           entry != nullptr; entry = entry->next) {
        fn(entry->key, entry->value);
      }
    }
  }
}

const char* MutexHashMap::name() const {
  if (runtime_ == nullptr) return "mutex-hashmap/native";
  switch (runtime_->policy().mode()) {
    case PersistenceMode::kNone:
      return "mutex-hashmap/native";
    case PersistenceMode::kLogOnly:
      return "mutex-hashmap/log-only";
    case PersistenceMode::kLogAndFlush:
      return "mutex-hashmap/log+flush";
  }
  return "mutex-hashmap";
}

void MutexHashMap::OnThreadExit() {
  if (runtime_ != nullptr) runtime_->UnregisterCurrentThread();
}

}  // namespace tsp::maps
