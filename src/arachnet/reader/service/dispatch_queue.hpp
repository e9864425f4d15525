#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

namespace arachnet::reader::service {

/// Bounded priority dispatch queue between the service's submit side and
/// its decode workers — the value-based priority-queue-with-TTL idiom of
/// goby3's acomms dynamic_buffer, adapted to sample blocks:
///
///  - items are *values* (moved in, moved out — no shared ownership with
///    the producer), ordered by (priority descending, arrival ascending),
///    so within one priority the queue is FIFO and a session whose blocks
///    share one priority keeps its sample stream in order;
///  - each item carries a `Key` (its session). pop() hands out the most
///    urgent item whose key no consumer holds and claims that key until
///    release(key), so one key's items are consumed in order, one at a
///    time, by whichever consumer is free;
///  - each item may carry a time-to-live; expiry is evaluated lazily at
///    pop time against the caller's clock, and an expired item is handed
///    back — whatever its key's claim — flagged so the caller can account
///    it as a drop instead of processing stale data;
///  - overload never blocks the producer: a push into a full queue either
///    displaces the lowest-priority newest item (when the newcomer
///    strictly outranks it — the displaced value is returned so its
///    owner can be charged the drop) or is rejected outright.
///
/// Thread-safe. pop() blocks until an item is available or the queue is
/// closed and drained; everything else is non-blocking. close() makes
/// pushes fail and lets consumers drain what remains (TTL still applies
/// during the drain).
template <typename Key, typename T>
class DispatchQueue {
 public:
  enum class Push {
    kAccepted,    ///< enqueued; the queue had room
    kDisplaced,   ///< enqueued by evicting the lowest-priority newest
                  ///< item into *displaced
    kRejected,    ///< full of equal-or-higher-priority items
    kClosed,      ///< queue closed; nothing enqueued
  };

  enum class Pop {
    kClaimed,  ///< *out is live; its key is claimed until release(key)
    kExpired,  ///< *out's deadline passed; no key was claimed
    kClosed,   ///< closed and drained; *out untouched
  };

  explicit DispatchQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    free_nodes_.reserve(capacity_);
  }

  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  /// Enqueues `value` for `key` at `priority`. `ttl_ns` of 0 never expires;
  /// otherwise the item expires at `now_ns + ttl_ns`. On kDisplaced the
  /// evicted value is moved into *displaced (which must be non-null when
  /// displacement is possible, i.e. always in practice).
  Push push(Key key, T value, int priority, std::uint64_t now_ns,
            std::uint64_t ttl_ns, std::optional<T>* displaced) {
    std::lock_guard lock{mutex_};
    if (closed_) return Push::kClosed;
    Push outcome = Push::kAccepted;
    if (items_.size() >= capacity_) {
      // Victim: lowest priority, newest arrival (the ordering's last
      // element). Evicting the newest keeps the victim session's
      // already-queued FIFO prefix intact.
      auto victim = std::prev(items_.end());
      if (victim->priority >= priority) return Push::kRejected;
      auto node = items_.extract(victim);
      if (displaced != nullptr) displaced->emplace(std::move(node.value().value));
      stash(std::move(node));
      outcome = Push::kDisplaced;
    }
    Item item{priority, next_seq_++, ttl_ns == 0 ? 0 : now_ns + ttl_ns, key,
              std::move(value)};
    if (free_nodes_.empty()) {
      items_.insert(std::move(item));
    } else {
      // Steady state: recycle an extracted tree node instead of paying a
      // heap allocation per push (the decode loop's zero-allocation
      // contract rides on this).
      auto node = std::move(free_nodes_.back());
      free_nodes_.pop_back();
      node.value() = std::move(item);
      items_.insert(std::move(node));
    }
    ready_.notify_one();
    return outcome;
  }

  /// Moves the most urgent item that is expired or whose key is unclaimed
  /// into *out. `now_ns()` is read after every wake-up, so an item that
  /// aged past its deadline while the caller waited counts as expired.
  /// Blocks while every queued item belongs to a claimed key; returns
  /// kClosed only once the queue is closed and empty.
  template <typename NowFn>
  Pop pop(NowFn&& now_ns, T* out) {
    std::unique_lock lock{mutex_};
    for (;;) {
      if (items_.empty() && closed_) return Pop::kClosed;
      const std::uint64_t now = now_ns();
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        const bool dead = it->deadline_ns != 0 && it->deadline_ns <= now;
        if (!dead && claimed(it->key)) continue;
        if (!dead) claimed_.push_back(it->key);
        auto node = items_.extract(it);
        *out = std::move(node.value().value);
        stash(std::move(node));
        return dead ? Pop::kExpired : Pop::kClaimed;
      }
      ready_.wait(lock);
    }
  }

  /// Ends the claim pop() took on `key`. Wakes one waiter when items are
  /// queued (the key's next item may now be the one it waits for); once
  /// closed it wakes all of them, so none sleeps through the final drain.
  void release(const Key& key) {
    std::unique_lock lock{mutex_};
    std::erase(claimed_, key);
    const bool wake_all = closed_;
    const bool wake_one = !items_.empty();
    lock.unlock();
    if (wake_all) {
      ready_.notify_all();
    } else if (wake_one) {
      ready_.notify_one();
    }
  }

  /// Closes the queue: pushes fail, pop() drains then returns kClosed.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Item {
    int priority;
    std::uint64_t seq;
    std::uint64_t deadline_ns;  ///< 0 = never expires
    Key key;
    /// mutable: std::set elements are const, but the value is moved out
    /// via node extraction only, never mutated in place.
    mutable T value;
  };
  /// Urgency order: higher priority first, then FIFO by arrival. seq is
  /// unique, so this is a strict weak order and std::set suffices.
  struct ByUrgency {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };

  using NodeHandle = typename std::set<Item, ByUrgency>::node_type;

  /// Keeps an extracted node for reuse by the next push. Bounded by
  /// capacity_: the pool can never hold more nodes than the queue could,
  /// so a burst's nodes are retained but memory stays bounded.
  void stash(NodeHandle&& node) {
    if (free_nodes_.size() < capacity_) free_nodes_.push_back(std::move(node));
  }

  /// Linear scan: at most one claim per consumer.
  bool claimed(const Key& key) const {
    return std::find(claimed_.begin(), claimed_.end(), key) != claimed_.end();
  }

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::set<Item, ByUrgency> items_;
  std::vector<NodeHandle> free_nodes_;
  std::vector<Key> claimed_;  ///< keys held by a consumer, pop to release
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace arachnet::reader::service
