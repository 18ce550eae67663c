// persistent_queue: a crash-proof work queue with zero-overhead
// persistence (the §4.1 recipe end-to-end, through the top-level
// PersistenceDomain API).
//
// Producers enqueue jobs, consumers drain them; kill the process at any
// time and the undrained jobs are still there on restart — no logging,
// no flushing, no write-ahead anything. The domain is opened with
// "tolerate process crashes, no rollback needed", which the TSP planner
// resolves to the zero-overhead plan.
//
//   $ persistent_queue /dev/shm/q.heap produce 1000   # enqueue jobs
//   $ persistent_queue /dev/shm/q.heap drain 300      # consume some
//   $ persistent_queue /dev/shm/q.heap crash          # die mid-traffic
//   $ persistent_queue /dev/shm/q.heap status         # recovers, audits

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "domain/persistence_domain.h"
#include "lockfree/queue.h"

namespace {

using tsp::domain::PersistenceDomain;
using tsp::lockfree::LockFreeQueue;
using tsp::lockfree::QueueRoot;

struct App {
  std::unique_ptr<PersistenceDomain> domain;
  std::unique_ptr<LockFreeQueue> queue;
  tsp::pheap::TypeRegistry registry;
};

bool Open(const std::string& path, App* app) {
  LockFreeQueue::RegisterTypes(&app->registry);

  PersistenceDomain::Options options;
  options.path = path;
  options.region.size = 256 * 1024 * 1024;
  options.requirements.tolerated =
      tsp::FailureSet::Of(tsp::FailureClass::kProcessCrash);
  options.requirements.needs_rollback = false;  // non-blocking algorithm

  auto domain = PersistenceDomain::Open(options, &app->registry);
  if (!domain.ok()) {
    std::fprintf(stderr, "open: %s\n", domain.status().ToString().c_str());
    return false;
  }
  app->domain = std::move(*domain);
  if (app->domain->recovered()) {
    std::printf("# recovered after a crash (GC reclaimed %llu bytes)\n",
                static_cast<unsigned long long>(
                    app->domain->recovery().gc.free_bytes +
                    app->domain->recovery().gc.tail_reclaimed_bytes));
  }

  auto* heap = app->domain->heap();
  auto* root = heap->root<QueueRoot>();
  if (root == nullptr) {
    root = LockFreeQueue::CreateRoot(heap);
    heap->set_root(root);
  }
  app->queue = std::make_unique<LockFreeQueue>(heap, root);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <heap-file> {produce N | drain N | crash | "
                 "status}\n",
                 argv[0]);
    return 2;
  }
  App app;
  if (!Open(argv[1], &app)) return 1;
  const std::string command = argv[2];

  if (command == "produce" && argc == 4) {
    const std::uint64_t n = std::strtoull(argv[3], nullptr, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      app.queue->Enqueue(i + 1);  // job ids of one batch are 1..n
    }
    std::printf("enqueued %llu jobs (queue length %llu)\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(app.queue->Validate()));
  } else if (command == "drain" && argc == 4) {
    const std::uint64_t n = std::strtoull(argv[3], nullptr, 0);
    std::uint64_t drained = 0, last = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto job = app.queue->Dequeue();
      if (!job.has_value()) break;
      last = *job;
      ++drained;
    }
    std::printf("drained %llu jobs (last id %llu, %llu remain)\n",
                static_cast<unsigned long long>(drained),
                static_cast<unsigned long long>(last),
                static_cast<unsigned long long>(app.queue->Validate()));
  } else if (command == "crash" && argc == 3) {
    std::printf("producing and draining, then dying mid-operation...\n");
    std::fflush(stdout);
    for (std::uint64_t i = 0;; ++i) {
      app.queue->Enqueue(i + 1);
      if (i % 3 == 0) app.queue->Dequeue();
      if (i == 20000) kill(getpid(), SIGKILL);
    }
  } else if (command == "status" && argc == 3) {
    const std::uint64_t length = app.queue->Validate();
    std::printf("queue length %llu; FIFO structure valid\n",
                static_cast<unsigned long long>(length));
  } else {
    std::fprintf(stderr, "unknown command\n");
    return 2;
  }

  app.queue->epoch()->UnregisterCurrentThread();
  app.queue.reset();
  app.domain->CloseClean();
  return 0;
}
