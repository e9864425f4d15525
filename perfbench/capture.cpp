#include "capture.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/sim/rng.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace arachnet;

namespace {

/// Chips per 0.28 s reply window at 375 chips/s.
constexpr std::int64_t kChipsPerWindow = 105;
/// A reply starts 6..15 chips into its window (16..40 ms): the frame
/// (82 chips) then ends at least 8 chips (21 ms) before the window does,
/// so every packet is decoded inside the window it was sent in.
constexpr std::int64_t kFirstStartChip = 6;
constexpr std::int64_t kLastStartChip = 15;
/// FM0 chips from the start of a frame to the end of its CRC: pilot plus
/// packet bits, two chips each.
constexpr std::int64_t kPacketChips =
    2 * (arachnet::phy::Fm0Encoder::kPilotBits + arachnet::phy::kUlPacketBits);

struct TagPlan {
  double subcarrier_hz = 0.0;  ///< 0 = baseband FM0 (single channel)
  double amplitude = 0.0;
  /// When set, the reflection in window w is scaled by window_gain[w].
  std::vector<double> window_gain;
  double phase_rad = 0.0;
  std::uint8_t tid = 0;
};

Capture render(const std::vector<TagPlan>& tags, std::size_t windows,
               sim::Rng& rng) {
  Capture cap;
  cap.windows = windows;
  const double samples_per_chip = kSampleRate / kChipRate;
  std::vector<acoustic::BackscatterSource> sources;
  for (std::size_t c = 0; c < tags.size(); ++c) {
    const TagPlan& tag = tags[c];
    std::int64_t half_periods = 1;
    std::optional<phy::SubcarrierModulator> mod;
    if (tag.subcarrier_hz > 0.0) {
      mod.emplace(phy::SubcarrierModulator::Params{kChipRate,
                                                   tag.subcarrier_hz});
      half_periods = mod->half_periods_per_chip();
    }
    phy::BitVector chips;
    for (std::size_t w = 0; w < windows; ++w) {
      const std::int64_t start =
          rng.uniform_int(kFirstStartChip, kLastStartChip);
      const auto payload = static_cast<std::uint16_t>(rng.uniform_int(
          std::uint64_t{1} << phy::kUlPayloadBits));
      const phy::UlPacket pkt{.tid = tag.tid, .payload = payload};
      phy::BitVector frame = phy::Fm0Encoder::encode_frame(pkt.serialize());
      if (mod) frame = mod->modulate(frame);
      const std::int64_t first =
          static_cast<std::int64_t>(w) * kChipsPerWindow + start;
      while (static_cast<std::int64_t>(chips.size()) < first * half_periods) {
        chips.push_back(false);
      }
      chips.append(frame);
      // The packet is complete once its last CRC chip is on air; the
      // frame's trailing dummy bit carries no data.
      const double end_sample =
          static_cast<double>(first + kPacketChips) * samples_per_chip;
      const auto last = static_cast<std::size_t>(std::ceil(end_sample)) - 1;
      cap.tx.push_back(Tx{static_cast<std::uint32_t>(c),
                          static_cast<std::uint32_t>(w), tag.tid, payload,
                          static_cast<std::uint32_t>(last / kBlockSamples)});
    }
    const auto total = static_cast<std::int64_t>(windows) * kChipsPerWindow *
                       half_periods;
    while (static_cast<std::int64_t>(chips.size()) < total) {
      chips.push_back(false);
    }
    acoustic::BackscatterSource src;
    if (!tag.window_gain.empty()) {
      // Per-chip reflection levels carry the gain of each chip's window;
      // the ring starts at the first window's absorptive level.
      const auto per_window = kChipsPerWindow * half_periods;
      for (std::size_t j = 0; j < chips.size(); ++j) {
        const double gain =
            tag.window_gain[j / static_cast<std::size_t>(per_window)];
        src.levels.push_back(
            (chips[j] ? src.reflect_coeff : src.absorb_coeff) * gain);
      }
      src.absorb_coeff *= tag.window_gain[0];
    }
    src.chips = std::move(chips);
    src.chip_rate = kChipRate * static_cast<double>(half_periods);
    src.amplitude = tag.amplitude;
    src.phase_rad = tag.phase_rad;
    sources.push_back(std::move(src));
  }
  const std::size_t n = windows * kWindowSamples;
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng noise = rng.split(0x6e6f697365);
  // Half a sample of slack so the truncating sample count lands on n.
  cap.samples = synth.synthesize(
      sources, (static_cast<double>(n) + 0.5) / kSampleRate, noise);
  if (cap.samples.size() != n) {
    throw std::logic_error("perfbench: capture length off the block grid");
  }
  std::stable_sort(cap.tx.begin(), cap.tx.end(),
                   [](const Tx& a, const Tx& b) {
                     return a.complete_block < b.complete_block;
                   });
  cap.tx_begin.assign(cap.blocks_per_loop() + 1, 0);
  std::size_t i = 0;
  for (std::size_t b = 0; b <= cap.blocks_per_loop(); ++b) {
    while (i < cap.tx.size() && cap.tx[i].complete_block < b) ++i;
    cap.tx_begin[b] = static_cast<std::uint32_t>(i);
  }
  return cap;
}

/// Seeded generator for one stream of one workload seed.
sim::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return sim::Rng{seed}.split(stream);
}

}  // namespace

std::vector<double> bank_subcarriers() {
  std::vector<double> f;
  for (int k = 0; k < 16; ++k) f.push_back(3375.0 + 1500.0 * k);
  return f;
}

Capture render_bank(std::uint64_t seed) {
  sim::Rng rng = stream_rng(seed, 0xba4c);
  // Tag ids: a seeded permutation of 0..15, one tag per subcarrier.
  std::vector<std::uint8_t> tids(16);
  for (std::size_t k = 0; k < tids.size(); ++k) {
    tids[k] = static_cast<std::uint8_t>(k);
  }
  for (std::size_t k = tids.size() - 1; k > 0; --k) {
    std::swap(tids[k], tids[rng.uniform_int(std::uint64_t{k + 1})]);
  }
  std::vector<TagPlan> tags;
  constexpr std::size_t kWindows = 20;
  for (double hz : bank_subcarriers()) {
    TagPlan tag{hz, 1.0, {}, rng.uniform(0.0, 2.0 * std::numbers::pi),
                tids[tags.size()]};
    // Amplitudes spread per reply, not per tag: which weak tag sits next
    // to which strong neighbour changes window to window, so one seed
    // averages over many near-far layouts.
    for (std::size_t w = 0; w < kWindows; ++w) {
      tag.window_gain.push_back(rng.uniform(0.10, 0.25));
    }
    tags.push_back(std::move(tag));
  }
  return render(tags, kWindows, rng);
}

Capture render_session(std::uint64_t seed, std::size_t session) {
  sim::Rng rng = stream_rng(seed, 0x5e55 + session);
  const TagPlan tag{0.0, rng.uniform(0.05, 0.25), {},
                    rng.uniform(0.0, 2.0 * std::numbers::pi),
                    static_cast<std::uint8_t>(rng.uniform_int(16ULL))};
  return render({tag}, 2, rng);
}

void Streams::reset() {
  st.resize(caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    st[i].cap = &caps[i];
    st[i].due_ns.clear();
    st[i].next = 0;
  }
  ledger.clear();
}

std::size_t Streams::reserve(std::size_t blocks) {
  std::size_t packets = 0;
  for (const Capture& cap : caps) {
    packets += (blocks / cap.blocks_per_loop() + 1) * cap.tx.size();
  }
  reset();
  for (Stream& s : st) prefault(s.due_ns, blocks);
  prefault(ledger, packets);
  return packets;
}

std::size_t Streams::take(std::size_t i, std::int64_t due_ns) {
  Stream& s = st[i];
  const std::size_t g = s.next++;
  s.due_ns.push_back(due_ns);
  const Capture& cap = *s.cap;
  const std::size_t bpl = cap.blocks_per_loop();
  const std::size_t b = g % bpl;
  const auto loop = static_cast<std::uint32_t>(g / bpl);
  for (std::uint32_t k = cap.tx_begin[b]; k < cap.tx_begin[b + 1]; ++k) {
    const Tx& t = cap.tx[k];
    ledger.push_back(LedgerEntry{static_cast<std::uint32_t>(i), t.channel,
                                 loop, t.window, t.tid, t.payload,
                                 static_cast<std::uint64_t>(loop) * bpl +
                                     t.complete_block});
  }
  return g;
}

std::size_t Streams::submitted() const {
  std::size_t n = 0;
  for (const Stream& s : st) n += s.next;
  return n;
}

namespace {

/// (stream, channel, loop, window) — one reply slot of the endless stream.
struct Slot {
  std::uint32_t stream, channel, loop, window;
  bool operator==(const Slot&) const = default;
};

struct SlotHash {
  std::size_t operator()(const Slot& s) const noexcept {
    std::uint64_t h = s.stream;
    h = h * 1000003u + s.channel;
    h = h * 1000003u + s.loop;
    h = h * 1000003u + s.window;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// The reply slot a decoded packet belongs to, from its sample time.
Slot slot_of(const Capture& cap, const Packet& p) {
  const auto sample = static_cast<std::uint64_t>(
      std::max(0.0, std::floor(p.time_s * kSampleRate)));
  const std::uint64_t loop_len = cap.samples.size();
  return Slot{p.stream, p.channel,
              static_cast<std::uint32_t>(sample / loop_len),
              static_cast<std::uint32_t>((sample % loop_len) / kWindowSamples)};
}

}  // namespace

Outcome check_packets(const Streams& ss, const std::vector<Packet>& live,
                      const ReplayResult& replay) {
  Outcome out;
  const auto& ledger = ss.ledger;
  std::vector<const Capture*> caps;
  std::vector<std::size_t> submitted;
  for (const Stream& s : ss.st) {
    caps.push_back(s.cap);
    submitted.push_back(s.next);
  }
  const auto note = [&](const std::string& why) {
    out.replay_match = false;
    if (out.mismatch.empty()) out.mismatch = why;
  };
  // Replay expectations by slot.
  std::unordered_map<Slot, Packet, SlotHash> expect;
  for (std::size_t s = 0; s < caps.size(); ++s) {
    for (const Packet& p : replay.packets[s]) {
      if (!expect.emplace(slot_of(*caps[s], p), p).second) {
        note("replay decoded two packets in one reply slot");
      }
    }
  }
  const auto expected = [&](const Slot& k) -> std::optional<Packet> {
    const auto it = expect.find(k);
    if (it == expect.end()) return std::nullopt;
    return it->second;
  };

  // Transmitted: ledger packets whose emission was due within the
  // submitted blocks (the replay's emitting block; the completing block
  // for a packet the replay could not decode either).
  std::unordered_map<Slot, std::size_t, SlotHash> sent;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const LedgerEntry& e = ledger[i];
    const Slot k{e.stream, e.channel, e.loop, e.window};
    const auto exp = expected(k);
    const std::uint64_t due_block =
        exp ? static_cast<std::uint64_t>(exp->at) : e.complete_block;
    if (due_block >= submitted[e.stream]) continue;
    sent.emplace(k, i);
  }
  out.transmitted = sent.size();

  std::unordered_set<Slot, SlotHash> seen;
  const auto fits = [&](const Slot& k, const Packet& p) {
    const auto it = sent.find(k);
    return it != sent.end() && ledger[it->second].tid == p.tid &&
           ledger[it->second].payload == p.payload && seen.count(k) == 0;
  };
  // A host that dropped blocks dates later packets early (its clock counts
  // processed samples), so a packet that misses its own slot claims the
  // nearest unclaimed slot, within one loop, that carries its tag and
  // payload.
  const auto claim = [&](const Packet& p) -> std::optional<Slot> {
    const Slot k0 = slot_of(*caps[p.stream], p);
    if (fits(k0, p)) return k0;
    const auto windows = static_cast<std::int64_t>(caps[p.stream]->windows);
    const std::int64_t i0 = static_cast<std::int64_t>(k0.loop) * windows +
                            k0.window;
    for (std::int64_t d = 1; d <= windows; ++d) {
      for (const std::int64_t i : {i0 + d, i0 - d}) {
        if (i < 0) continue;
        const Slot k{p.stream, p.channel,
                     static_cast<std::uint32_t>(i / windows),
                     static_cast<std::uint32_t>(i % windows)};
        if (fits(k, p)) return k;
      }
    }
    return std::nullopt;
  };
  for (const Packet& p : live) {
    ++out.delivered;
    const auto slot = claim(p);
    if (!slot) {
      ++out.false_packets;
      note("live packet outside the ledger");
      continue;
    }
    const Slot k = *slot;
    seen.insert(k);
    if (!(k == slot_of(*caps[p.stream], p))) {
      note("live packet dated outside its reply window");
    }
    const auto it = sent.find(k);
    ++out.intact;
    const auto exp = expected(k);
    if (!exp) {
      note("live packet the replay did not decode");
    } else if (exp->time_s != p.time_s) {
      note("live packet timestamp differs from the replay");
    }
    const std::uint64_t emit = exp ? static_cast<std::uint64_t>(exp->at)
                                   : ledger[it->second].complete_block;
    const auto& due = ss.st[p.stream].due_ns;
    if (emit < due.size()) {
      out.latency_ms.push_back(static_cast<double>(p.at - due[emit]) * 1e-6);
      out.emit_key.push_back(block_key(p.stream, emit));
    }
  }
  out.lost = out.transmitted - out.intact;
  // Closed-loop mirror check: every slot the replay decoded within the
  // submitted range must have arrived live.
  for (const auto& [k, i] : sent) {
    if (seen.count(k) == 0 && expected(k)) {
      note("replay decoded a packet the live run did not deliver");
      break;
    }
  }
  return out;
}

bool dump_ledger(const std::string& path, std::vector<LedgerEntry> ledger) {
  // The generator interleaves streams in scheduling order; sorted, only
  // the content is left, and the seed fixes that.
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return std::tie(a.stream, a.loop, a.window, a.channel) <
                     std::tie(b.stream, b.loop, b.window, b.channel);
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& e : ledger) {
    std::fprintf(f, "%u %u %u %u %u %u %llu\n", e.stream, e.channel, e.loop,
                 e.window, e.tid, e.payload,
                 static_cast<unsigned long long>(e.complete_block));
  }
  return std::fclose(f) == 0;
}

bool dump_packets(const std::string& path, std::vector<Packet> packets) {
  std::sort(packets.begin(), packets.end(),
            [](const Packet& a, const Packet& b) {
              return std::tie(a.stream, a.channel, a.time_s) <
                     std::tie(b.stream, b.channel, b.time_s);
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& p : packets) {
    std::fprintf(f, "%u %u %u %u %.9f\n", p.stream, p.channel, p.tid,
                 p.payload, p.time_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
