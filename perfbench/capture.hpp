// Seeded input captures, the truth ledger, and the ledger check.
//
// Every stream is a seamless periodic capture: one loop holds a whole
// number of 0.28 s reply windows, each tag replies once per window, and
// the loop length is a whole number of carrier periods and of 10 000-
// sample blocks, so feeding the loop back to back is a continuous
// carrier with fresh packets at the same offsets. The generator walks the
// loop block by block and records every packet that completes in the
// block it submits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kSampleRate = 500000.0;  // the paper's DAQ rate
inline constexpr std::size_t kBlockSamples = 10000;  // 20 ms
inline constexpr std::size_t kWindowSamples = 140000;  // 0.28 s
inline constexpr double kChipRate = 375.0;

/// One packet of one loop: which channel (FDMA lane, or 0), which reply
/// window of the loop, what the tag sent, and the loop-local block that
/// holds its last sample.
struct Tx {
  std::uint32_t channel = 0;
  std::uint32_t window = 0;
  std::uint8_t tid = 0;
  std::uint16_t payload = 0;
  std::uint32_t complete_block = 0;
};

struct Capture {
  std::vector<double> samples;  ///< one loop, rendered once
  std::vector<Tx> tx;           ///< one loop's packets, by complete_block
  /// tx[tx_begin[b] .. tx_begin[b+1]) complete in loop-local block b.
  std::vector<std::uint32_t> tx_begin;
  std::size_t windows = 0;
  std::size_t blocks_per_loop() const noexcept {
    return samples.size() / kBlockSamples;
  }
  /// Block `g` of the endless stream (a view into the loop).
  const double* block(std::size_t g) const noexcept {
    return samples.data() + (g % blocks_per_loop()) * kBlockSamples;
  }
};

/// The FDMA bank capture: 16 tags on the uniform 3375 + 1500*k Hz grid,
/// 10 windows (2.8 s) per loop, spread phases, and amplitudes spread
/// afresh for every reply.
Capture render_bank(std::uint64_t seed);
/// Subcarrier frequencies of the bank capture's channels.
std::vector<double> bank_subcarriers();
/// One single-channel session capture: one tag, 2 windows (0.56 s) per
/// loop; `session` picks an independent seeded stream.
Capture render_session(std::uint64_t seed, std::size_t session);

/// A ledger row: one transmitted packet in the endless stream.
struct LedgerEntry {
  std::uint32_t stream = 0;
  std::uint32_t channel = 0;
  std::uint32_t loop = 0;
  std::uint32_t window = 0;
  std::uint8_t tid = 0;
  std::uint16_t payload = 0;
  std::uint64_t complete_block = 0;  ///< global block index
};

/// One input stream: the capture it walks and the due time of every block
/// submitted so far.
struct Stream {
  const Capture* cap = nullptr;
  std::vector<std::int64_t> due_ns;  ///< by global block index
  std::size_t next = 0;              ///< next block to submit
};

/// A workload's input streams and the ledger of every packet they sent.
struct Streams {
  std::vector<Capture> caps;
  std::vector<Stream> st;
  std::vector<LedgerEntry> ledger;

  /// Rewinds every stream to block 0, keeping the bookkeeping's memory.
  void reset();
  /// Sizes and touches the bookkeeping for `blocks` blocks per stream (so
  /// filling it during the run does not count as the program's memory);
  /// returns how many packets that many blocks can carry.
  std::size_t reserve(std::size_t blocks);
  /// Claims stream i's next block, due at `due_ns`: records its due time
  /// and the packets it completes. Returns the block index.
  std::size_t take(std::size_t i, std::int64_t due_ns);
  std::size_t submitted() const;
};

/// Blocks replayed past the end of the live stream, so a packet completed
/// in the last live block but emitted later is dated, not counted lost.
inline constexpr std::size_t kLookaheadBlocks = 3;

/// A packet out of the program, live or replayed.
struct Packet {
  std::uint32_t stream = 0;
  std::uint32_t channel = 0;
  std::uint8_t tid = 0;
  std::uint16_t payload = 0;
  double time_s = 0.0;
  /// Live: consumer receive time (ns). Replay: global emitting block.
  std::int64_t at = 0;
};

/// What the synchronous replay decoded for each stream, in emission
/// order.
struct ReplayResult {
  std::vector<std::vector<Packet>> packets;
};

/// Result of checking the delivered packets against the ledger.
struct Outcome {
  std::uint64_t transmitted = 0;  ///< ledger packets due by the end
  std::uint64_t delivered = 0;    ///< packets the consumer received
  std::uint64_t intact = 0;       ///< delivered and matching the ledger
  std::uint64_t lost = 0;         ///< transmitted, not delivered intact
  std::uint64_t false_packets = 0;
  std::vector<double> latency_ms;  ///< per intact packet
  /// Per intact packet: stream and emitting block (for wait analysis).
  std::vector<std::uint64_t> emit_key;
  bool replay_match = true;  ///< live set == replay-predicted set
  std::string mismatch;      ///< first mismatch, for the report
};

/// Checks `live` against the ledger of `ss` and the replay, which covers
/// every submitted block; a live packet the replay also decoded must carry
/// the replay's timestamp.
Outcome check_packets(const Streams& ss, const std::vector<Packet>& live,
                      const ReplayResult& replay);

/// Writes the ledger / a packet set as text, one row per line, sorted by
/// stream so the files compare across runs.
bool dump_ledger(const std::string& path, std::vector<LedgerEntry> ledger);
bool dump_packets(const std::string& path, std::vector<Packet> packets);

}  // namespace perfbench
