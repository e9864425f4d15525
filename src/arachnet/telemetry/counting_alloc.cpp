#include "arachnet/telemetry/counting_alloc.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// Replacement global allocation operators: malloc/free plus relaxed
// atomic counter updates (a count, and for allocations the requested
// bytes) per call. Defined in the same translation unit as the guard, so
// static-archive pull-in makes them binary-local to the tests and
// benches that audit allocations (see the header). Counting is
// unconditional — a branch per operator would cost as much as the
// increment — and the operators never allocate themselves, so they are
// reentrancy-safe.

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_deallocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void count_alloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  count_alloc(size);
  // malloc(0) may return nullptr; operator new must not (unless nothrow).
  return std::malloc(size != 0 ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  count_alloc(size);
  // posix_memalign (unlike std::aligned_alloc) does not require the size
  // to be a multiple of the alignment; its result is free()-compatible.
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;  // delete nullptr must not count or touch free
  g_deallocs.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace arachnet::telemetry {

AllocCounts alloc_counts() noexcept {
  return {g_allocs.load(std::memory_order_relaxed),
          g_deallocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

CountingAllocatorGuard::CountingAllocatorGuard() noexcept {
  const AllocCounts c = alloc_counts();
  base_allocs_ = c.allocations;
  base_deallocs_ = c.deallocations;
  base_bytes_ = c.bytes;
}

std::uint64_t CountingAllocatorGuard::allocations() const noexcept {
  return g_allocs.load(std::memory_order_relaxed) - base_allocs_;
}

std::uint64_t CountingAllocatorGuard::deallocations() const noexcept {
  return g_deallocs.load(std::memory_order_relaxed) - base_deallocs_;
}

std::uint64_t CountingAllocatorGuard::bytes() const noexcept {
  return g_bytes.load(std::memory_order_relaxed) - base_bytes_;
}

}  // namespace arachnet::telemetry
