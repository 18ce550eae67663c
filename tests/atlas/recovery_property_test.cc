// Randomized recovery soundness. Drives several Atlas thread contexts
// through random lock/store histories, crashes at a random instant, and
// checks recovery against an independent oracle.
//
// Oracle construction: every OCS writes only *fresh* slots (never
// overwritten), so the recovered memory directly reveals which OCSes'
// effects survived. Soundness then decomposes into:
//   (A) atomicity   — each OCS's writes survive all-or-nothing;
//   (B) no phantoms — an OCS that never committed must not survive;
//   (C) closure     — if an OCS survived, every OCS it depends on
//                     (recorded lock dependency or same-thread
//                     predecessor) also survived.
// Note recovery is allowed to roll back MORE than strictly necessary
// (conservatism is sound); the oracle checks only soundness directions.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/random.h"
#include "pheap/test_util.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

constexpr int kContexts = 4;
constexpr int kLocks = 3;
constexpr std::uint64_t kSlotsPerOcs = 3;

struct OcsFact {
  int context;
  int index_on_context;            // program order position
  std::vector<std::uint64_t> slots;  // written slots (fresh)
  std::uint64_t value;               // written to each slot
  bool committed = false;
  std::set<std::pair<int, int>> deps;  // (context, index) lock deps
};

class RecoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryPropertyTest, RandomHistoriesRecoverSoundly) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Random rng(seed * 1007 + 13);

  ScopedRegionFile file("atlas_prop");
  pheap::RegionOptions region_options;
  region_options.size = 64 * 1024 * 1024;
  region_options.runtime_area_size = 8 * 1024 * 1024;

  std::vector<OcsFact> facts;
  constexpr std::uint64_t kTotalSlots = 4096;
  std::uint64_t* slots_base = nullptr;

  {
    auto heap_or = pheap::PersistentHeap::Create(file.path(),
                                                 region_options);
    ASSERT_TRUE(heap_or.ok());
    auto heap = std::move(*heap_or);
    slots_base =
        static_cast<std::uint64_t*>(heap->Alloc(kTotalSlots * 8));
    for (std::uint64_t i = 0; i < kTotalSlots; ++i) slots_base[i] = 0;
    heap->set_root(slots_base);

    AtlasRuntime runtime(heap.get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime.Initialize().ok());

    std::vector<std::unique_ptr<AtlasThread>> contexts;
    for (int c = 0; c < kContexts; ++c) {
      contexts.push_back(std::make_unique<AtlasThread>(
          &runtime, static_cast<std::uint16_t>(10 + c)));
    }
    // Simulated lock words + who last released each lock.
    PLockWord lock_words[kLocks];
    std::pair<int, int> last_releaser[kLocks];  // (context, ocs index)
    for (int l = 0; l < kLocks; ++l) {
      lock_words[l].last_release.store(0);
      lock_words[l].release_seq.store(0);
      last_releaser[l] = {-1, -1};
    }
    // Per-context open state.
    int open_fact[kContexts];
    std::vector<int> held_locks[kContexts];
    int ocs_count[kContexts] = {};
    for (int c = 0; c < kContexts; ++c) open_fact[c] = -1;
    std::uint64_t next_slot = 0;
    std::set<int> free_locks_pool;  // lock -> held by at most one context
    bool lock_held[kLocks] = {};

    const int kSteps = 120 + static_cast<int>(rng.Uniform(80));
    for (int step = 0; step < kSteps; ++step) {
      const int c = static_cast<int>(rng.Uniform(kContexts));
      AtlasThread* context = contexts[c].get();
      if (open_fact[c] < 0) {
        // Open an OCS: acquire a random free lock.
        std::vector<int> available;
        for (int l = 0; l < kLocks; ++l) {
          if (!lock_held[l]) available.push_back(l);
        }
        if (available.empty()) continue;
        const int lock =
            available[rng.Uniform(available.size())];
        lock_held[lock] = true;
        held_locks[c].push_back(lock);

        OcsFact fact;
        fact.context = c;
        fact.index_on_context = ocs_count[c]++;
        if (last_releaser[lock].first >= 0) {
          fact.deps.insert(last_releaser[lock]);
        }
        open_fact[c] = static_cast<int>(facts.size());
        facts.push_back(fact);
        context->OnAcquire(&lock_words[lock],
                           static_cast<std::uint32_t>(lock + 1));
        // Write a batch of fresh slots.
        OcsFact& open = facts[open_fact[c]];
        open.value = (seed + 1) * 1000 + static_cast<std::uint64_t>(step);
        for (std::uint64_t s = 0; s < kSlotsPerOcs; ++s) {
          const std::uint64_t slot = next_slot++;
          ASSERT_LT(slot, kTotalSlots);
          open.slots.push_back(slot);
          context->Store(&slots_base[slot], open.value);
        }
      } else {
        OcsFact& open = facts[open_fact[c]];
        if (!held_locks[c].empty() && rng.Bernoulli(0.4) &&
            held_locks[c].size() < 2) {
          // Nested acquire of another free lock (inner release below
          // creates the cross-OCS dependency edges that cascade).
          std::vector<int> available;
          for (int l = 0; l < kLocks; ++l) {
            if (!lock_held[l]) available.push_back(l);
          }
          if (!available.empty()) {
            const int lock = available[rng.Uniform(available.size())];
            lock_held[lock] = true;
            held_locks[c].push_back(lock);
            context->OnAcquire(&lock_words[lock],
                               static_cast<std::uint32_t>(lock + 1));
          }
          continue;
        }
        // Release the most recent lock; commit if outermost.
        const int lock = held_locks[c].back();
        held_locks[c].pop_back();
        context->OnRelease(&lock_words[lock],
                           static_cast<std::uint32_t>(lock + 1));
        lock_held[lock] = false;
        last_releaser[lock] = {c, open.index_on_context};
        if (held_locks[c].empty()) {
          open.committed = true;
          open_fact[c] = -1;
        }
      }
    }
    // CRASH: everything still open stays open; destroy without
    // unregister/CloseClean (the manual contexts never registered).
  }

  // --- recover ---
  auto heap_or = pheap::PersistentHeap::Open(file.path());
  ASSERT_TRUE(heap_or.ok());
  auto heap = std::move(*heap_or);
  auto stats = RecoverAtlas(heap.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  heap->FinishRecovery();

  // --- oracle checks ---
  auto* slots = heap->root<std::uint64_t>();
  auto survived = [&](const OcsFact& fact) -> int {
    int present = 0;
    for (const std::uint64_t slot : fact.slots) {
      if (slots[slot] == fact.value) ++present;
    }
    if (present == 0) return 0;
    if (present == static_cast<int>(fact.slots.size())) return 1;
    return -1;  // torn!
  };

  std::map<std::pair<int, int>, const OcsFact*> by_id;
  for (const OcsFact& fact : facts) {
    by_id[{fact.context, fact.index_on_context}] = &fact;
  }

  for (const OcsFact& fact : facts) {
    const int state = survived(fact);
    // (A) atomicity
    ASSERT_NE(state, -1) << "torn OCS (context " << fact.context
                         << ", #" << fact.index_on_context << ")";
    if (state == 1) {
      // (B) no phantoms
      EXPECT_TRUE(fact.committed)
          << "uncommitted OCS survived recovery";
      // (C) closure: lock deps and program-order predecessor survived.
      for (const auto& dep : fact.deps) {
        const OcsFact* dep_fact = by_id.at(dep);
        EXPECT_EQ(survived(*dep_fact), 1)
            << "survivor depends on a rolled-back OCS";
      }
      if (fact.index_on_context > 0) {
        const OcsFact* predecessor =
            by_id.at({fact.context, fact.index_on_context - 1});
        EXPECT_EQ(survived(*predecessor), 1)
            << "survivor's program-order predecessor was rolled back";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest,
                         ::testing::Range(0, 256));

}  // namespace
}  // namespace tsp::atlas
