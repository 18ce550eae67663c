// Flight-recorder unit tests against a plain in-DRAM buffer standing in
// for a runtime area: layout carve/format/validate, wait-free emission
// with overwrite-oldest semantics, evidence preservation across
// attaches, and the runtime/compile-time kill switches. The
// crash-survival half (SIGKILL, read post-mortem) lives in
// trace_crash_test.cc.

#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_layout.h"
#include "obs/trace_reader.h"

namespace tsp::obs {
namespace {

constexpr std::size_t kMiB = 1ull << 20;

/// 64-byte-aligned buffer standing in for a mapped runtime area.
struct AreaBuffer {
  explicit AreaBuffer(std::size_t size)
      : size(size),
        base(static_cast<std::uint8_t*>(std::aligned_alloc(4096, size))) {}
  ~AreaBuffer() { std::free(base); }
  std::size_t size;
  std::uint8_t* base;
};

/// Recorder::Attach over `buffer`, which must not refuse; null when it
/// runs untraced.
std::unique_ptr<Recorder> AttachOk(
    const AreaBuffer& buffer,
    const Recorder::AttachOptions& options = Recorder::AttachOptions{}) {
  auto recorder = Recorder::Attach(buffer.base, buffer.size, options);
  EXPECT_TRUE(recorder.ok()) << recorder.status().ToString();
  return recorder.ok() ? std::move(*recorder) : nullptr;
}

TEST(TraceLayoutTest, ReservationCarve) {
  EXPECT_EQ(TraceReservationBytes(0), 0u);
  EXPECT_EQ(TraceReservationBytes(4 * kMiB - 1), 0u);  // too small: disabled
  EXPECT_EQ(TraceReservationBytes(4 * kMiB), 512u << 10);  // clamp low
  EXPECT_EQ(TraceReservationBytes(8 * kMiB), kMiB);        // an eighth
  EXPECT_EQ(TraceReservationBytes(64 * kMiB), 2 * kMiB);   // clamp high
}

TEST(TraceLayoutTest, FormatThenValidate) {
  AreaBuffer buffer(kMiB);
  const std::uint64_t events =
      TraceArea::Format(buffer.base, buffer.size, kDefaultMaxTraceThreads);
  ASSERT_GT(events, 0u);
  EXPECT_TRUE(TraceArea::Check(buffer.base, buffer.size).ok());
  // A shrunk mapping no longer fits the self-described geometry.
  EXPECT_FALSE(TraceArea::Check(buffer.base, buffer.size / 2).ok());
  TraceArea area(buffer.base, buffer.size);
  EXPECT_EQ(area.header()->max_threads, kDefaultMaxTraceThreads);
  EXPECT_EQ(area.header()->events_per_thread, events);
}

TEST(TraceLayoutTest, RingCapacityIsAPowerOfTwo) {
  // The default 32 MiB runtime area reserves 2 MiB: 1021 events per ring
  // would fit, and each ring holds the largest power of two below that.
  AreaBuffer buffer(TraceReservationBytes(32 * kMiB));
  EXPECT_EQ(
      TraceArea::Format(buffer.base, buffer.size, kDefaultMaxTraceThreads),
      512u);
  TraceArea area(buffer.base, buffer.size);
  EXPECT_EQ(area.event_mask(), 511u);
}

TEST(TraceLayoutTest, CheckNamesWhyAnAreaIsUnreadable) {
  AreaBuffer buffer(kMiB);
  std::memset(buffer.base, 0, buffer.size);
  EXPECT_EQ(TraceArea::Check(buffer.base, buffer.size).code(),
            StatusCode::kNotFound);
  ASSERT_GT(
      TraceArea::Format(buffer.base, buffer.size, kDefaultMaxTraceThreads),
      0u);
  ASSERT_TRUE(TraceArea::Check(buffer.base, buffer.size).ok());
  TraceAreaHeader* header = TraceArea(buffer.base, buffer.size).header();

  header->version = kTraceVersion - 1;
  Status status = TraceArea::Check(buffer.base, buffer.size);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find(
                "version " + std::to_string(kTraceVersion - 1)),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("version " + std::to_string(kTraceVersion)),
            std::string::npos)
      << status.message();
  header->version = kTraceVersion;

  const std::uint64_t events = header->events_per_thread;
  header->events_per_thread = events - 1;
  status = TraceArea::Check(buffer.base, buffer.size);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("power of two"), std::string::npos)
      << status.message();
  header->events_per_thread = events;

  header->events_offset = buffer.size;  // torn: no room for the events
  EXPECT_EQ(TraceArea::Check(buffer.base, buffer.size).code(),
            StatusCode::kCorruption);
}

#ifndef TSP_OBS_DISABLED

TEST(RecorderTest, AttachRequiresAReservation) {
  // Runtime areas below the carve threshold have no trace reservation.
  AreaBuffer buffer(kMiB);
  Recorder::AttachOptions options;
  EXPECT_EQ(AttachOk(buffer, options), nullptr);
}

TEST(RecorderTest, EmitReadBackRoundTrip) {
  AreaBuffer buffer(8 * kMiB);
  Recorder::AttachOptions options;
  options.generation = 3;
  auto recorder = AttachOk(buffer, options);
  ASSERT_NE(recorder, nullptr);

  TraceWriter* writer = recorder->writer();
  ASSERT_NE(writer, nullptr);
  // The same thread gets the same writer back.
  EXPECT_EQ(recorder->writer(), writer);

  writer->Emit(EventCode::kOcsBegin, /*arg0=*/77, /*arg1=*/0, /*aux=*/5);
  writer->Emit(EventCode::kSeqBlockLease, /*arg0=*/128, /*arg1=*/64);
  writer->Commit(/*packed_ocs=*/77);
  EXPECT_EQ(recorder->EventsRecorded(), 2u) << "a commit is not an event";

  const TraceReader reader(buffer.base, buffer.size);
  ASSERT_TRUE(reader.valid());
  const std::vector<TraceEvent> merged = reader.MergedEvents();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].code, static_cast<std::uint16_t>(EventCode::kOcsBegin));
  EXPECT_EQ(merged[0].arg0, 77u);
  EXPECT_EQ(merged[0].aux, 5u);
  EXPECT_EQ(merged[1].code,
            static_cast<std::uint16_t>(EventCode::kSeqBlockLease));
  EXPECT_LE(merged[0].stamp, merged[1].stamp);
  EXPECT_TRUE(reader.OpenOcsSpans().empty()) << "commit closes the span";
}

TEST(RecorderTest, UncommittedOcsShowsAsOpenSpan) {
  AreaBuffer buffer(8 * kMiB);
  auto recorder =
      AttachOk(buffer);
  ASSERT_NE(recorder, nullptr);
  TraceWriter* writer = recorder->writer();
  ASSERT_NE(writer, nullptr);
  writer->Emit(EventCode::kOcsBegin, 11, 0, /*aux=*/4);
  writer->Commit(11);
  writer->Emit(EventCode::kOcsBegin, 12, 0, /*aux=*/9);
  writer->Emit(EventCode::kMagazineRefill, 3, 64);  // non-OCS event after

  const TraceReader reader(buffer.base, buffer.size);
  const std::vector<OpenOcsSpan> spans = reader.OpenOcsSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].packed_ocs, 12u);
  EXPECT_EQ(spans[0].lock_id, 9u);
}

TEST(RecorderTest, OverwritesOldestWhenFull) {
  AreaBuffer buffer(8 * kMiB);
  auto recorder =
      AttachOk(buffer);
  ASSERT_NE(recorder, nullptr);
  TraceWriter* writer = recorder->writer();
  ASSERT_NE(writer, nullptr);
  const std::uint64_t capacity =
      recorder->area().header()->events_per_thread;
  ASSERT_GT(capacity, 0u);
  for (std::uint64_t i = 0; i < capacity + 10; ++i) {
    writer->Emit(EventCode::kMagazineRefill, /*arg0=*/i, 0);
  }
  const TraceReader reader(buffer.base, buffer.size);
  const std::vector<TraceEvent> events = reader.RingEvents(writer->ring_id());
  ASSERT_EQ(events.size(), capacity);
  // The oldest 10 events were overwritten; the survivors are contiguous
  // and end with the last emit.
  EXPECT_EQ(events.front().arg0, 10u);
  EXPECT_EQ(events.back().arg0, capacity + 9);
}

TEST(RecorderTest, ReattachPreservesEvidenceUntilAThreadClaims) {
  AreaBuffer buffer(8 * kMiB);
  {
    auto recorder =
        AttachOk(buffer);
    ASSERT_NE(recorder, nullptr);
    recorder->writer()->Emit(EventCode::kOcsBegin, 42, 0, 1);
    // No clean shutdown: the recorder dies with its slot still claimed,
    // like a SIGKILLed process.
  }
  auto recorder =
      AttachOk(buffer);
  ASSERT_NE(recorder, nullptr);
  // Attach only clears claims; the dead session's events survive.
  {
    const TraceReader reader(buffer.base, buffer.size);
    ASSERT_EQ(reader.MergedEvents().size(), 1u);
    EXPECT_EQ(reader.MergedEvents()[0].arg0, 42u);
  }
  // A new thread claiming the slot recycles the ring.
  std::thread([&recorder] {
    TraceWriter* writer = recorder->writer();
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->ring_id(), 0u) << "first free slot is the dead one";
    recorder->ReleaseCurrentThread();
  }).join();
  const TraceReader reader(buffer.base, buffer.size);
  EXPECT_TRUE(reader.MergedEvents().empty());
}

TEST(RecorderTest, NeverFormatsOverACrashedLegacyArea) {
  AreaBuffer buffer(8 * kMiB);
  // Garbage (no valid trace header) + allow_format=false models a
  // crashed heap written by a build without the reservation: attach must
  // not touch a single byte of potential recovery evidence.
  std::memset(buffer.base, 0xAB, buffer.size);
  Recorder::AttachOptions options;
  options.allow_format = false;
  EXPECT_EQ(AttachOk(buffer, options), nullptr);
  for (std::size_t i = 0; i < buffer.size; i += 4097) {
    ASSERT_EQ(buffer.base[i], 0xAB) << "attach wrote at offset " << i;
  }
}

// A crashed heap's trace area is evidence: one this build cannot read
// (another version, a torn geometry) is refused with TraceArea::Check's
// reason, untouched, while a clean open reformats it.
TEST(RecorderTest, UnreadableAreaIsRefusedWhenItMayNotBeFormatted) {
  AreaBuffer buffer(8 * kMiB);
  ASSERT_NE(AttachOk(buffer), nullptr);  // formats the reservation
  auto* header = reinterpret_cast<TraceAreaHeader*>(
      buffer.base + buffer.size - TraceReservationBytes(buffer.size));
  Recorder::AttachOptions crashed;
  crashed.allow_format = false;

  header->version = kTraceVersion - 1;
  auto refused = Recorder::Attach(buffer.base, buffer.size, crashed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(header->version, kTraceVersion - 1) << "refusal wrote the area";
  {
    const TraceReader reader(buffer.base, buffer.size);
    EXPECT_FALSE(reader.valid());
    EXPECT_EQ(reader.status().message(), refused.status().message());
  }
  header->version = kTraceVersion;

  const std::uint64_t events = header->events_per_thread;
  header->events_per_thread = 1021;  // a torn, pre-rounding geometry
  refused = Recorder::Attach(buffer.base, buffer.size, crashed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);

  // A clean open may format: it replaces the unreadable area.
  ASSERT_NE(AttachOk(buffer), nullptr);
  EXPECT_EQ(header->events_per_thread, events);
  EXPECT_NE(AttachOk(buffer, crashed), nullptr);
}

TEST(RecorderTest, RuntimeToggleDisablesAttach) {
  AreaBuffer buffer(8 * kMiB);
  SetTraceEnabled(false);
  EXPECT_EQ(
      AttachOk(buffer),
      nullptr);
  SetTraceEnabled(true);
  EXPECT_NE(
      AttachOk(buffer),
      nullptr);
}

TEST(RecorderTest, WritersAreDistinctPerThread) {
  AreaBuffer buffer(8 * kMiB);
  auto recorder =
      AttachOk(buffer);
  ASSERT_NE(recorder, nullptr);
  TraceWriter* main_writer = recorder->writer();
  ASSERT_NE(main_writer, nullptr);
  main_writer->Emit(EventCode::kSessionOpen, 1);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      TraceWriter* writer = recorder->writer();
      ASSERT_NE(writer, nullptr);
      for (int i = 0; i < kEventsPerThread; ++i) {
        writer->Emit(EventCode::kMagazineDrain, static_cast<std::uint64_t>(i),
                     0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder->EventsRecorded(),
            1u + static_cast<std::uint64_t>(kThreads) * kEventsPerThread);
}

#else  // TSP_OBS_DISABLED

TEST(RecorderTest, DisabledBuildNeverAttaches) {
  AreaBuffer buffer(8 * kMiB);
  EXPECT_EQ(
      AttachOk(buffer),
      nullptr);
}

#endif  // TSP_OBS_DISABLED

}  // namespace
}  // namespace tsp::obs
