#pragma once

#include <cstdint>

namespace arachnet::telemetry {

/// Process-wide heap-operation totals (see CountingAllocatorGuard).
struct AllocCounts {
  std::uint64_t allocations = 0;    ///< operator new / new[] calls
  std::uint64_t deallocations = 0;  ///< operator delete / delete[] calls
  std::uint64_t bytes = 0;          ///< bytes requested by those news
};

/// Totals since process start. Zero (every field) when the counting
/// operators are not linked into this binary — see the linkage note on
/// CountingAllocatorGuard.
AllocCounts alloc_counts() noexcept;

/// Scoped heap-allocation counter for steady-state allocation audits.
///
/// Construction snapshots the process-wide new/delete counters; the
/// accessors report how many global heap operations happened since. The
/// intended shape is the warm-up-then-measure audit the benches and the
/// allocation-gate tests run:
///
///   run_pipeline(warmup_blocks);               // let scratch grow
///   telemetry::CountingAllocatorGuard guard;
///   run_pipeline(measured_blocks);
///   EXPECT_EQ(guard.allocations(), 0u);        // steady state is clean
///
/// How the counting works — and why this stays out of production
/// binaries: counting_alloc.cpp defines replacement global operator
/// new/new[]/delete/delete[] (all sized/nothrow/aligned variants) that
/// forward to malloc/free around relaxed atomic counter updates.
/// arachnet is a static library, so that translation unit is only pulled
/// into binaries that reference something in it — i.e. binaries that use
/// this guard (tests and benches). Every other binary links the normal
/// library operators and pays nothing. The forwarding operators compose
/// with sanitizers: ASan/TSan intercept at the malloc/free layer, which
/// the counting operators sit on top of.
///
/// The counters are process-global, so a guard measuring one thread's
/// loop will also see allocations made concurrently by other threads;
/// audits either quiesce unrelated threads or own all of them (the
/// service soak audit counts its worker pool deliberately).
class CountingAllocatorGuard {
 public:
  /// Snapshots the baselines. Allocation-free itself.
  CountingAllocatorGuard() noexcept;

  /// Heap allocations since construction.
  std::uint64_t allocations() const noexcept;
  /// Heap deallocations since construction.
  std::uint64_t deallocations() const noexcept;
  /// Heap bytes requested since construction (the sizes passed to
  /// operator new; frees do not subtract). Two runs that grow the same
  /// buffers to the same high-water marks request the same bytes.
  std::uint64_t bytes() const noexcept;

 private:
  std::uint64_t base_allocs_ = 0;
  std::uint64_t base_deallocs_ = 0;
  std::uint64_t base_bytes_ = 0;
};

}  // namespace arachnet::telemetry
