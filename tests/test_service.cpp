// Multi-session reader ingest service: dispatch-queue QoS (priority, TTL,
// displacement), admission control and shedding, graceful drain, warm slot
// reuse — plus the RealtimeReader long-run lifecycle regressions (decode
// list drain, restart after stop, FDMA metrics forwarding). Labeled
// `concurrency` in CTest so the whole file runs under TSan via
// `ctest -L concurrency` on a -DARACHNET_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/reader/service/dispatch_queue.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace {

using namespace arachnet;
using reader::RxChain;
using reader::RxPacket;
using reader::service::DispatchQueue;
using reader::service::ReaderService;
using reader::service::SessionConfig;

// Renders one 0.28 s uplink window carrying a single packet with the given
// payload (same source parameters as the RealtimeReader shutdown tests).
std::vector<double> packet_wave(std::uint16_t payload, sim::Rng& rng,
                                acoustic::UplinkWaveformSynth& synth) {
  const phy::UlPacket pkt{.tid = 3, .payload = payload};
  acoustic::BackscatterSource s;
  s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

// Splits a waveform into DAQ-sized blocks and submits all of them.
template <typename Submit>
void submit_blocks(const std::vector<double>& wave, Submit&& submit) {
  constexpr std::size_t kBlock = 10000;
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    const std::size_t len = std::min(kBlock, wave.size() - off);
    submit(std::vector<double>{wave.begin() + off, wave.begin() + off + len});
  }
}

// ---------------------------------------------------------- DispatchQueue

// Keyed by session id; the tests' values are plain ints.
using Queue = DispatchQueue<int, int>;

// A fixed clock for pop().
auto at(std::uint64_t now_ns) {
  return [now_ns] { return now_ns; };
}

struct Drained {
  std::vector<int> out;
  std::vector<int> expired;
};

// One consumer popping until the queue is empty, releasing each claim at
// once. Every item here is pushed under a key equal to its value.
Drained drain(Queue& q, std::uint64_t now_ns) {
  Drained d;
  int v = 0;
  while (q.size() != 0) {
    if (q.pop(at(now_ns), &v) == Queue::Pop::kExpired) {
      d.expired.push_back(v);
    } else {
      d.out.push_back(v);
      q.release(v);
    }
  }
  return d;
}

TEST(DispatchQueue, PopsByPriorityThenFifo) {
  Queue q{8};
  // Interleave two priorities; within one priority arrival order must hold.
  ASSERT_EQ(q.push(1, 1, /*priority=*/1, 0, 0, nullptr),
            Queue::Push::kAccepted);
  ASSERT_EQ(q.push(10, 10, 5, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(2, 2, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(11, 11, 5, 0, 0, nullptr), Queue::Push::kAccepted);

  const Drained d = drain(q, 0);
  EXPECT_TRUE(d.expired.empty());
  EXPECT_EQ(d.out, (std::vector<int>{10, 11, 1, 2}));
}

TEST(DispatchQueue, FullQueueDisplacesLowestPriorityNewestOnly) {
  Queue q{2};
  ASSERT_EQ(q.push(1, 1, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(2, 2, 1, 0, 0, nullptr), Queue::Push::kAccepted);

  // Equal priority never displaces: the newcomer is rejected.
  std::optional<int> displaced;
  EXPECT_EQ(q.push(3, 3, 1, 0, 0, &displaced), Queue::Push::kRejected);
  EXPECT_FALSE(displaced.has_value());

  // A strictly higher priority evicts the lowest-priority *newest* item
  // (2, not 1 — the victim session keeps its FIFO prefix).
  EXPECT_EQ(q.push(4, 4, 9, 0, 0, &displaced), Queue::Push::kDisplaced);
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(*displaced, 2);

  EXPECT_EQ(drain(q, 0).out, (std::vector<int>{4, 1}));
}

TEST(DispatchQueue, ExpiredItemsAreHandedBackSeparately) {
  Queue q{8};
  ASSERT_EQ(q.push(1, 1, 1, /*now_ns=*/100, /*ttl_ns=*/50, nullptr),
            Queue::Push::kAccepted);  // deadline 150
  ASSERT_EQ(q.push(2, 2, 1, 100, 0, nullptr),
            Queue::Push::kAccepted);  // never expires

  const Drained d = drain(q, /*now_ns=*/200);
  EXPECT_EQ(d.expired, (std::vector<int>{1}));
  EXPECT_EQ(d.out, (std::vector<int>{2}));
}

TEST(DispatchQueue, CloseDrainsThenStops) {
  Queue q{4};
  ASSERT_EQ(q.push(7, 7, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  q.close();
  EXPECT_EQ(q.push(8, 8, 1, 0, 0, nullptr), Queue::Push::kClosed);

  int v = 0;
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 7);
  q.release(7);
  EXPECT_EQ(q.pop(at(0), &v), Queue::Pop::kClosed);  // closed and drained
}

TEST(DispatchQueue, ClaimedSessionIsSkippedWhileOtherSessionsPop) {
  // Session 1's blocks are the most urgent, but while a consumer holds
  // session 1 the next consumer gets session 2's block instead.
  Queue q{8};
  ASSERT_EQ(q.push(1, 101, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(1, 102, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(2, 201, 1, 0, 0, nullptr), Queue::Push::kAccepted);

  int v = 0;
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 101);
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 201);
  EXPECT_EQ(q.size(), 1u) << "102 stays queued behind its session's claim";
}

TEST(DispatchQueue, ReleasedSessionPopsItsNextBlockInArrivalOrder) {
  Queue q{8};
  for (int v : {101, 102, 103}) {
    ASSERT_EQ(q.push(1, v, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  }
  int v = 0;
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 101);

  // A second consumer blocks: the only queued blocks belong to the
  // claimed session. release() hands it the session's next block.
  std::atomic<bool> popped{false};
  int got = 0;
  std::thread consumer{[&] {
    EXPECT_EQ(q.pop(at(0), &got), Queue::Pop::kClaimed);
    popped.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load()) << "pop must wait while the session is held";
  q.release(1);
  consumer.join();
  EXPECT_EQ(got, 102);
  q.release(1);
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 103);
}

TEST(DispatchQueue, ExpiredBlockOfClaimedSessionIsStillHandedBack) {
  Queue q{8};
  ASSERT_EQ(q.push(1, 101, 1, 100, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(1, 102, 1, 100, /*ttl_ns=*/50, nullptr),
            Queue::Push::kAccepted);  // deadline 150

  int v = 0;
  ASSERT_EQ(q.pop(at(200), &v), Queue::Pop::kClaimed);
  EXPECT_EQ(v, 101);
  // Session 1 is held, yet its expired block comes back at once so it
  // can be counted as dropped; an expiry takes no claim.
  ASSERT_EQ(q.pop(at(200), &v), Queue::Pop::kExpired);
  EXPECT_EQ(v, 102);
  EXPECT_EQ(q.size(), 0u);
}

TEST(DispatchQueue, CloseWhileClaimedReturnsEveryBlockedConsumer) {
  // Regression for a lost wake-up: two consumers wait behind a claimed
  // session when the queue closes. Whichever takes the session's last
  // block empties the queue; its release() must still wake the other,
  // which would otherwise sleep through the drain forever.
  Queue q{8};
  ASSERT_EQ(q.push(1, 101, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  ASSERT_EQ(q.push(1, 102, 1, 0, 0, nullptr), Queue::Push::kAccepted);
  int v = 0;
  ASSERT_EQ(q.pop(at(0), &v), Queue::Pop::kClaimed);

  std::atomic<int> consumed{0};
  std::atomic<int> finished{0};
  const auto consume = [&] {
    int item = 0;
    while (q.pop(at(0), &item) == Queue::Pop::kClaimed) {
      consumed.fetch_add(1);
      q.release(1);
    }
    finished.fetch_add(1);
  };
  std::thread c1{consume};
  std::thread c2{consume};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(finished.load(), 0) << "102 is still queued behind the claim";
  q.release(1);
  c1.join();
  c2.join();
  EXPECT_EQ(consumed.load(), 1);
  EXPECT_EQ(finished.load(), 2);
  EXPECT_EQ(q.pop(at(0), &v), Queue::Pop::kClosed);
}

// ----------------------------------------------- RealtimeReader lifecycle

TEST(RealtimeReaderLifecycle, SingleChainDecodeListStaysBounded) {
  // Regression: the single-chain worker never drained chain_.packets(), so
  // a long-running session accumulated every decoded packet forever. The
  // list must be empty after each block's drain while the frame total
  // stays monotonic and exact.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};
  rtr.start();

  constexpr int kPackets = 8;
  for (int i = 0; i < kPackets; ++i) {
    const auto wave =
        packet_wave(static_cast<std::uint16_t>(0x900 + i), rng, synth);
    submit_blocks(wave, [&](std::vector<double> b) {
      ASSERT_TRUE(rtr.submit(std::move(b)));
    });
  }
  rtr.stop();

  const auto stats = rtr.stats();
  EXPECT_EQ(stats.chain_buffered_packets, 0u)
      << "decode list must be drained every block";
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok,
            static_cast<std::uint64_t>(kPackets));
  // Every decoded packet is still fetchable exactly once.
  std::size_t got = 0;
  while (rtr.wait_packet()) ++got;
  EXPECT_EQ(got, static_cast<std::size_t>(kPackets));
}

TEST(RealtimeReaderLifecycle, RestartAfterStopProcessesNewBlocks) {
  // Regression: start() after stop() silently no-oped (closed queues were
  // never reopened), so a paused reader could never resume. A stop/start
  // pair must behave as a pause: both runs' packets arrive, counters and
  // chain state carry over.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};

  rtr.start();
  submit_blocks(packet_wave(0xA01, rng, synth), [&](std::vector<double> b) {
    ASSERT_TRUE(rtr.submit(std::move(b)));
  });
  rtr.stop();
  EXPECT_FALSE(rtr.submit(std::vector<double>(100, 0.0)))
      << "submit must fail while stopped";

  rtr.start();  // restart: queues reopen, a fresh worker spawns
  submit_blocks(packet_wave(0xA02, rng, synth), [&](std::vector<double> b) {
    ASSERT_TRUE(rtr.submit(std::move(b)));
  });
  rtr.stop();

  std::vector<phy::UlPacket> got;
  while (auto pkt = rtr.wait_packet()) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, 0xA01);
  EXPECT_EQ(got[1].payload, 0xA02);
  const auto stats = rtr.stats();
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok, 2u) << "counters span both runs";
}

TEST(RealtimeReaderLifecycle, FdmaBankInheritsReaderRegistry) {
  // Regression: the constructor forwarded the reader's registry into the
  // FDMA bank through a local Params copy, leaving the *stored*
  // params().fdma->metrics null — introspection disagreed with the live
  // bank. The stored params must reflect the patch.
  telemetry::MetricsRegistry registry;
  reader::RealtimeReader::Params params;
  reader::FdmaRxChain::Params fp;
  fp.channels.push_back({.subcarrier_hz = 30000.0});
  params.fdma = fp;
  params.metrics = &registry;

  reader::RealtimeReader rtr{params};
  ASSERT_TRUE(rtr.params().fdma.has_value());
  EXPECT_EQ(rtr.params().fdma->metrics, &registry);

  // An explicitly bound bank registry is left alone.
  telemetry::MetricsRegistry bank_registry;
  fp.metrics = &bank_registry;
  reader::RealtimeReader::Params params2;
  params2.fdma = fp;
  params2.metrics = &registry;
  reader::RealtimeReader rtr2{params2};
  EXPECT_EQ(rtr2.params().fdma->metrics, &bank_registry);
}

// ------------------------------------------------------------- ReaderService

TEST(ReaderService, AdmissionRejectsBeyondBudgetAndShedsForPriority) {
  telemetry::MetricsRegistry registry;
  ReaderService::Params params;
  params.workers = 1;
  params.sessions_per_core = 2.0;  // cap: 2 active sessions
  params.metrics = &registry;
  ReaderService svc{params};
  svc.start();
  ASSERT_EQ(svc.max_sessions(), 2u);

  SessionConfig low;
  low.priority = 1;
  const auto a = svc.open_session(low);
  const auto b = svc.open_session(low);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Same priority over budget: rejected (no strictly-lower victim).
  EXPECT_FALSE(svc.open_session(low).has_value());
  EXPECT_EQ(svc.stats().admissions_rejected, 1u);
  EXPECT_EQ(svc.stats().active_sessions, 2u);

  // Higher priority over budget: the lowest-priority *newest* session (b)
  // is shed to make room.
  SessionConfig high;
  high.priority = 9;
  const auto c = svc.open_session(high);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(svc.stats().sessions_shed, 1u);
  EXPECT_EQ(svc.stats().active_sessions, 2u);

  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(b_stats.has_value());
  EXPECT_TRUE(b_stats->shed);
  EXPECT_TRUE(b_stats->closed);
  EXPECT_FALSE(svc.submit(*b, std::vector<double>(16, 0.0)))
      << "a shed session accepts no further blocks";
  EXPECT_FALSE(svc.wait_packet(*b).has_value())
      << "a shed session's output is closed";
  // The high-priority session is live.
  EXPECT_TRUE(svc.submit(*c, std::vector<double>(16, 0.0)));
  ASSERT_TRUE(a.has_value());  // silence unused warnings on release builds

  // Telemetry mirrors the counters.
  const auto snap = registry.snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& cv : snap.counters) {
      if (cv.name == name) return cv.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("session.admission_rejected"), 1u);
  EXPECT_EQ(counter("session.shed"), 1u);
}

TEST(ReaderService, PriorityDisplacementUnderFullDispatchQueue) {
  // Fill the dispatch queue from a low-priority session *before* starting
  // the workers, then push a high-priority session's blocks: each one
  // must displace a queued low-priority block, charged to its owner.
  ReaderService::Params params;
  params.workers = 1;
  params.dispatch_capacity = 4;
  ReaderService svc{params};

  SessionConfig low;
  low.priority = 1;
  low.max_blocks_in_flight = 16;
  SessionConfig high;
  high.priority = 5;
  high.max_blocks_in_flight = 16;
  const auto a = svc.open_session(low);
  const auto b = svc.open_session(high);
  ASSERT_TRUE(a && b);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)));
  }
  EXPECT_EQ(svc.stats().dispatch_depth, 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(*b, std::vector<double>(64, 0.0)))
        << "high priority must displace, not be rejected";
  }
  // All four of a's blocks were evicted pre-decode.
  const auto a_mid = svc.session_stats(*a);
  ASSERT_TRUE(a_mid.has_value());
  EXPECT_EQ(a_mid->blocks_dropped, 4u);

  // An additional low-priority push into the all-high queue is rejected.
  ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)) == false);
  EXPECT_EQ(svc.session_stats(*a)->blocks_dropped, 5u);

  svc.start();
  svc.stop();  // the workers drain the queue

  const auto a_stats = svc.session_stats(*a);
  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(a_stats && b_stats);
  EXPECT_EQ(a_stats->blocks_processed, 0u);
  EXPECT_EQ(b_stats->blocks_processed, 4u);
  EXPECT_EQ(b_stats->blocks_dropped, 0u);
  EXPECT_EQ(svc.stats().blocks_processed, 4u);
  EXPECT_EQ(svc.stats().blocks_dropped, 5u);
}

TEST(ReaderService, TtlExpiryIsCountedAsDropped) {
  // Queue blocks with a 1 ms TTL while the workers are not yet running,
  // let them age past the deadline, then start: they must be dropped as
  // expired, never decoded.
  ReaderService::Params params;
  params.workers = 1;
  ReaderService svc{params};

  SessionConfig cfg;
  cfg.ttl_s = 0.001;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.submit(*id, std::vector<double>(64, 0.0)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.start();
  svc.stop();

  const auto st = svc.session_stats(*id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->blocks_expired, 3u);
  EXPECT_EQ(st->blocks_dropped, 3u);
  EXPECT_EQ(st->blocks_processed, 0u);
  EXPECT_EQ(svc.stats().blocks_expired, 3u);
}

TEST(ReaderService, StopDrainsEverySessionsQueuedBlocks) {
  // Two sessions with packet-bearing streams; stop() right after the last
  // submit. Every accepted block must still decode and each session's
  // packets must be fetchable from its own output (chains are isolated).
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  ReaderService::Params params;
  params.workers = 2;
  params.dispatch_capacity = 256;
  ReaderService svc{params};
  svc.start();

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 64;
  const auto a = svc.open_session(cfg);
  const auto b = svc.open_session(cfg);
  ASSERT_TRUE(a && b);

  submit_blocks(packet_wave(0xB0A, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*a, std::move(blk)));
  });
  submit_blocks(packet_wave(0xB0B, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*b, std::move(blk)));
  });
  svc.stop();

  std::vector<phy::UlPacket> got_a;
  while (auto pkt = svc.wait_packet(*a)) got_a.push_back(pkt->packet);
  std::vector<phy::UlPacket> got_b;
  while (auto pkt = svc.wait_packet(*b)) got_b.push_back(pkt->packet);
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0].payload, 0xB0A);
  EXPECT_EQ(got_b[0].payload, 0xB0B);

  const auto a_stats = svc.session_stats(*a);
  ASSERT_TRUE(a_stats.has_value());
  EXPECT_EQ(a_stats->blocks_dropped, 0u);
  EXPECT_EQ(a_stats->frames_ok, 1u);
  EXPECT_EQ(svc.stats().blocks_dropped, 0u);
}

TEST(ReaderService, GracefulCloseStillDeliversInFlightPackets) {
  // close_session immediately after submitting: already-accepted blocks
  // keep decoding, the consumer gets every packet, then nullopt once the
  // last in-flight block lands.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  ReaderService::Params params;
  params.workers = 2;
  params.dispatch_capacity = 64;
  ReaderService svc{params};
  svc.start();

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 64;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  submit_blocks(packet_wave(0xC01, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*id, std::move(blk)));
  });
  ASSERT_TRUE(svc.close_session(*id));
  EXPECT_FALSE(svc.submit(*id, std::vector<double>(16, 0.0)));

  std::vector<phy::UlPacket> got;
  while (auto pkt = svc.wait_packet(*id)) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, 0xC01);
  svc.stop();
}

TEST(ReaderService, ClosedSessionSlotsAreReusedWarm) {
  ReaderService::Params params;
  params.workers = 1;
  ReaderService svc{params};
  svc.start();

  const auto a = svc.open_session(SessionConfig{});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)));
  ASSERT_TRUE(svc.close_session(*a));
  while (svc.wait_packet(*a).has_value()) {
  }  // drain to make the slot reapable

  // The next open reaps and reuses a's slot under a fresh id.
  const auto b = svc.open_session(SessionConfig{});
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b) << "session ids are never recycled";
  EXPECT_EQ(svc.stats().slots_reused, 1u);
  EXPECT_FALSE(svc.session_stats(*a).has_value())
      << "the reaped id no longer resolves";
  // The reused slot starts with clean counters and a working pipeline.
  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(b_stats.has_value());
  EXPECT_EQ(b_stats->blocks_submitted, 0u);
  ASSERT_TRUE(svc.submit(*b, std::vector<double>(64, 0.0)));
  svc.stop();
  EXPECT_EQ(svc.session_stats(*b)->blocks_processed, 1u);
}

TEST(ReaderService, PerSessionInFlightCapDropsExcess) {
  // Before start() no worker pops the queue, so the per-session cap is
  // what bounds submissions.
  ReaderService::Params params;
  params.workers = 1;
  params.dispatch_capacity = 64;
  ReaderService svc{params};

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 2;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(svc.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_TRUE(svc.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_FALSE(svc.submit(*id, std::vector<double>(16, 0.0)));
  const auto st = svc.session_stats(*id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->blocks_submitted, 3u);
  EXPECT_EQ(st->blocks_dropped, 1u);
  svc.start();
  svc.stop();
  EXPECT_EQ(svc.session_stats(*id)->blocks_processed, 2u);
}

TEST(ReaderService, PullingWorkersKeepEverySessionsPacketsInOrder) {
  // Eight sessions on four workers, every session's whole capture
  // submitted without waiting between blocks: each session must decode
  // exactly what a standalone RxChain decodes from the same blocks. Any
  // two workers touching one session at once, or a session's blocks
  // decoding out of order, breaks a packet or shifts its timestamp.
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBlocksPerSession = 56;
  sim::Rng rng{11};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  // Two packets per session; block sizes differ across sessions so
  // decodes of different sessions overlap unevenly.
  std::vector<std::vector<std::vector<double>>> blocks(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto wave = packet_wave(static_cast<std::uint16_t>(0x100 + i), rng, synth);
    const auto second =
        packet_wave(static_cast<std::uint16_t>(0x200 + i), rng, synth);
    wave.insert(wave.end(), second.begin(), second.end());
    const std::size_t nblocks = kBlocksPerSession - i;
    const std::size_t len = (wave.size() + nblocks - 1) / nblocks;
    for (std::size_t off = 0; off < wave.size(); off += len) {
      const std::size_t n = std::min(len, wave.size() - off);
      blocks[i].emplace_back(wave.begin() + off, wave.begin() + off + n);
    }
  }

  ReaderService::Params params;
  params.workers = 4;
  params.dispatch_capacity = kSessions * kBlocksPerSession;
  ReaderService svc{params};
  svc.start();
  SessionConfig cfg;
  cfg.max_blocks_in_flight = kBlocksPerSession;
  std::vector<reader::service::SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto id = svc.open_session(cfg);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  for (std::size_t b = 0; b < kBlocksPerSession; ++b) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (b < blocks[i].size()) {
        ASSERT_TRUE(svc.submit(ids[i], blocks[i][b]));
      }
    }
  }
  svc.stop();

  for (std::size_t i = 0; i < kSessions; ++i) {
    RxChain::Params cp = cfg.chain;
    cp.retain_iq_points = false;
    RxChain ref{cp};
    for (const auto& blk : blocks[i]) ref.process(blk.data(), blk.size());
    ASSERT_EQ(ref.packets().size(), 2u) << "session " << i;

    std::vector<RxPacket> got;
    while (auto pkt = svc.wait_packet(ids[i])) got.push_back(*pkt);
    ASSERT_EQ(got.size(), ref.packets().size()) << "session " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].packet, ref.packets()[k].packet) << "session " << i;
      EXPECT_EQ(got[k].time_s, ref.packets()[k].time_s) << "session " << i;
    }
    const auto st = svc.session_stats(ids[i]);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->blocks_dropped, 0u);
    EXPECT_EQ(st->crc_failures, ref.crc_failures()) << "session " << i;
  }
}

TEST(ReaderService, ScopedServicesShareOneRegistryWithoutColliding) {
  // A fleet host runs one ReaderService per reader against a single
  // registry; metrics_scope keeps every instance's rows distinct while an
  // unscoped instance keeps the historical names.
  telemetry::MetricsRegistry registry;
  ReaderService::Params p0;
  p0.workers = 1;
  p0.metrics = &registry;
  p0.metrics_scope = "r0.";
  ReaderService s0{p0};
  ReaderService::Params p1;
  p1.workers = 1;
  p1.metrics = &registry;
  p1.metrics_scope = "r1.";
  ReaderService s1{p1};
  s0.start();
  s1.start();

  const auto id = s0.open_session({});
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(s0.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_TRUE(s0.submit(*id, std::vector<double>(16, 0.0)));
  s0.stop();
  s1.stop();

  EXPECT_EQ(registry.counter("r0.service.blocks").value(), 2u);
  EXPECT_EQ(registry.counter("r1.service.blocks").value(), 0u);
  EXPECT_EQ(registry.counter("service.blocks").value(), 0u)
      << "scoped instances must not leak into the unscoped name";
}

}  // namespace
