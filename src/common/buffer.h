// Packet-path memory subsystem: pooled, reference-counted byte buffers.
//
// Every simulated packet used to be a `std::vector<u8>` that was allocated,
// copied and freed at each layer boundary (serialize -> fragment -> deliver
// -> reassemble -> parse). The off-path attacks this simulator reproduces
// (fragment sprays, NTP mode-3 floods, rate-limit probes) push millions of
// packets per campaign through exactly that path, so buffer ownership is a
// first-class subsystem here:
//
//  * BufferPool  — a per-thread free-list allocator with power-of-two size
//    classes. Trials are single-threaded by design (the campaign runner
//    gives every worker its own event loop), so the pool takes no locks.
//  * PacketBuf   — a reference-counted window onto a pooled block. Copying
//    a PacketBuf bumps a (non-atomic) refcount; fragment slicing and header
//    strip/prepend are offset arithmetic on the shared block. Mutating
//    accessors copy-on-write, so aliased slices can never observe writes
//    through another handle.
//  * BufView     — a non-owning read-only view, the type UDP payload
//    handlers receive. A BufView is only valid for the duration of the call
//    that handed it out (see src/net/README.md for the aliasing rules).
//
// Thread contract: a PacketBuf must be dropped on the thread that acquired
// its block — each pool (free lists AND stats) is touched only by its
// owning thread, so a cross-thread release would park the block on the
// wrong pool and skew both pools' outstanding counters. Nothing in the
// simulator sends packets across threads (trials own their event loop and
// results carry no buffers).
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/origin.h"
#include "common/types.h"

namespace dnstime {

using Bytes = std::vector<u8>;

/// Headroom reserved in front of freshly built payloads so lower layers can
/// prepend their headers in place (8 UDP + 20 IPv4, rounded up).
inline constexpr std::size_t kPacketHeadroom = 32;

/// Per-thread free-list allocator with power-of-two size classes.
class BufferPool {
 public:
  /// Size classes 2^6 .. 2^17 (64 B .. 128 KiB). Larger requests are served
  /// directly from the heap and never cached.
  static constexpr std::size_t kMinClassShift = 6;
  static constexpr std::size_t kMaxClassShift = 17;
  static constexpr std::size_t kNumClasses = kMaxClassShift - kMinClassShift + 1;
  static constexpr u16 kOversizeClass = 0xFFFF;

  struct Stats {
    /// Per-size-class slice of the counters below (class i holds blocks of
    /// 2^(kMinClassShift + i) bytes). Oversize requests bypass the classes
    /// and appear only in the totals.
    struct PerClass {
      u64 pool_hits = 0;
      u64 fresh_allocs = 0;
      u64 outstanding = 0;
      u64 cached_blocks = 0;
      u64 cached_bytes = 0;
    };

    u64 pool_hits = 0;       ///< acquires served from a free list
    u64 fresh_allocs = 0;    ///< acquires that went to operator new
    u64 oversize_allocs = 0; ///< requests beyond the largest class (unpooled)
    u64 outstanding = 0;     ///< live blocks not yet released
    u64 cached_blocks = 0;   ///< blocks parked on free lists
    u64 cached_bytes = 0;    ///< capacity parked on free lists
    std::array<PerClass, kNumClasses> classes{};

    /// Element-wise accumulate (used by aggregate_stats()).
    void merge(const Stats& o);
  };
  /// Cap on bytes parked across all free lists; releases beyond it free.
  static constexpr std::size_t kMaxCachedBytes = std::size_t{4} << 20;

  /// Block header preceding every allocation. `next_free` is only valid
  /// while the block is parked on a free list.
  struct alignas(16) Block {
    Block* next_free;
    u32 refcount;
    u32 capacity;
    u16 class_idx;
    [[nodiscard]] u8* data() {
      return reinterpret_cast<u8*>(this) + sizeof(Block);
    }
  };

  BufferPool();
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The calling thread's pool. Campaign workers each get their own
  /// instance, so no acquire/release ever synchronises.
  static BufferPool& local();

  /// Stats merged across every pool in the process: all live pools plus
  /// the folded counters of pools whose threads have exited. Takes the
  /// process-wide pool-registry lock; exact when other threads are not
  /// mid-acquire (e.g. after campaign workers joined). This — not
  /// local().stats() — is what campaign-level reporting must use: the
  /// calling thread's pool sees none of the worker traffic.
  [[nodiscard]] static Stats aggregate_stats();

  /// Allocate a block with at least `capacity` data bytes.
  [[nodiscard]] Block* acquire(std::size_t capacity);

  /// Return a block whose refcount reached zero.
  void release(Block* b);

  /// Drop all cached free blocks (the pool's memory floor returns to zero).
  void trim();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Live blocks not yet released — the pool-leak instrumentation: at trial
  /// teardown every PacketBuf must have returned to its pool, so this must
  /// match its pre-trial value.
  [[nodiscard]] u64 outstanding() const { return stats_.outstanding; }

 private:
  static std::size_t class_for(std::size_t capacity);

  Block* free_[kNumClasses] = {};
  Stats stats_;
};

/// Reference-counted window onto a pooled block. Copies alias (refcount++),
/// slices are offset arithmetic, mutation copies-on-write.
class PacketBuf {
 public:
  PacketBuf() = default;

  /// Pooled copy of existing bytes. Implicit on purpose: it is the edge
  /// conversion that lets `Bytes` built by tests and wire-crafting code
  /// feed the packet path (at the cost of one copy — encoders build pooled
  /// buffers directly via ByteWriter::take_buf()).
  PacketBuf(const Bytes& bytes)
      : PacketBuf(copy_of(std::span<const u8>(bytes))) {}
  PacketBuf(std::initializer_list<u8> init)
      : PacketBuf(copy_of(std::span<const u8>(init.begin(), init.size()))) {}

  [[nodiscard]] static PacketBuf copy_of(std::span<const u8> data,
                                         std::size_t headroom = 0);
  /// Uninitialised buffer of `n` bytes (callers must write every byte —
  /// reassembly proves contiguous coverage before using this).
  [[nodiscard]] static PacketBuf uninitialized(std::size_t n,
                                               std::size_t headroom = 0);

  ~PacketBuf() { reset(); }

  PacketBuf(const PacketBuf& o)
      : block_(o.block_), data_(o.data_), len_(o.len_), origin_(o.origin_) {
    if (block_) block_->refcount++;
  }
  PacketBuf& operator=(const PacketBuf& o) {
    if (this != &o) {
      if (o.block_) o.block_->refcount++;
      reset();
      block_ = o.block_;
      data_ = o.data_;
      len_ = o.len_;
      origin_ = o.origin_;
    }
    return *this;
  }
  PacketBuf(PacketBuf&& o) noexcept
      : block_(o.block_), data_(o.data_), len_(o.len_), origin_(o.origin_) {
    o.block_ = nullptr;
    o.data_ = nullptr;
    o.len_ = 0;
    o.origin_ = Origin{};
  }
  PacketBuf& operator=(PacketBuf&& o) noexcept {
    if (this != &o) {
      reset();
      block_ = o.block_;
      data_ = o.data_;
      len_ = o.len_;
      origin_ = o.origin_;
      o.block_ = nullptr;
      o.data_ = nullptr;
      o.len_ = 0;
      o.origin_ = Origin{};
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const u8* data() const { return data_; }
  [[nodiscard]] const u8* begin() const { return data_; }
  [[nodiscard]] const u8* end() const { return data_ + len_; }
  [[nodiscard]] const u8& operator[](std::size_t i) const { return data_[i]; }

  /// Mutating accessors copy-on-write: if the block is shared with another
  /// PacketBuf (an aliased fragment slice, a cached reassembly part), the
  /// window is first copied into a fresh block.
  [[nodiscard]] u8* data() {
    ensure_unique();
    return data_;
  }
  [[nodiscard]] u8* begin() {
    ensure_unique();
    return data_;
  }
  [[nodiscard]] u8* end() {
    ensure_unique();
    return data_ + len_;
  }
  [[nodiscard]] u8& operator[](std::size_t i) {
    ensure_unique();
    return data_[i];
  }

  [[nodiscard]] std::span<const u8> span() const { return {data_, len_}; }
  operator std::span<const u8>() const { return span(); }
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Aliasing sub-window [offset, offset+len) — zero copy, refcount++.
  [[nodiscard]] PacketBuf slice(std::size_t offset, std::size_t len) const;

  /// Strip `n` leading bytes (header strip) — offset arithmetic.
  void remove_prefix(std::size_t n) {
    if (n > len_) throw std::out_of_range("PacketBuf::remove_prefix");
    data_ += n;
    len_ -= n;
  }

  /// Grow the window `n` bytes to the left and return a pointer to the new
  /// region (header prepend). In place when this handle is unique and the
  /// block has headroom; otherwise the window is copied into a fresh block.
  u8* prepend(std::size_t n);

  /// Vector-compatible resize: shrinking narrows the window; growth
  /// zero-fills the new bytes (copy-on-write / reallocating as needed).
  void resize(std::size_t n);
  /// Vector-compatible fill-assign.
  void assign(std::size_t n, u8 value);

  /// Writer support: set the window length to `n` bytes from the window
  /// start, which may extend into tailroom (the caller vouches the bytes
  /// were written). Requires a unique handle.
  void set_size(std::size_t n) {
    if (n > len_ && (!unique() || n - len_ > tailroom())) {
      throw std::out_of_range("PacketBuf::set_size");
    }
    len_ = n;
  }

  /// Provenance stamp (common/origin.h). Carried alongside the window
  /// through copies, slices, copy-on-write and the writer's regrow path,
  /// so a reassembled or re-encoded payload still names its emitter.
  [[nodiscard]] const Origin& origin() const { return origin_; }
  void set_origin(const Origin& o) { origin_ = o; }

  [[nodiscard]] bool unique() const {
    return block_ == nullptr || block_->refcount == 1;
  }
  [[nodiscard]] std::size_t headroom() const {
    return block_ ? static_cast<std::size_t>(data_ - block_->data()) : 0;
  }
  [[nodiscard]] std::size_t tailroom() const {
    return block_ ? block_->capacity - headroom() - len_ : 0;
  }

  friend bool operator==(const PacketBuf& a, const PacketBuf& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data_, a.len_) == 0);
  }
  friend bool operator==(const PacketBuf& a, const Bytes& b) {
    return a.len_ == b.size() &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data(), a.len_) == 0);
  }
  friend bool operator==(const Bytes& a, const PacketBuf& b) { return b == a; }

 private:
  friend class BufferPool;
  PacketBuf(BufferPool::Block* block, u8* data, std::size_t len)
      : block_(block), data_(data), len_(len) {}

  void reset() {
    if (block_ && --block_->refcount == 0) BufferPool::local().release(block_);
    block_ = nullptr;
    data_ = nullptr;
    len_ = 0;
    origin_ = Origin{};
  }
  void ensure_unique();

  BufferPool::Block* block_ = nullptr;
  u8* data_ = nullptr;
  std::size_t len_ = 0;
  Origin origin_{};
};

/// Non-owning read-only view over packet bytes — what UDP payload handlers
/// receive. Valid only for the duration of the call that provided it;
/// handlers that keep bytes must `to_bytes()` (see src/net/README.md).
class BufView {
 public:
  constexpr BufView() = default;
  constexpr BufView(const u8* data, std::size_t size)
      : data_(data), size_(size) {}
  constexpr BufView(std::span<const u8> s) : data_(s.data()), size_(s.size()) {}
  BufView(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  BufView(const PacketBuf& b)
      : data_(b.data()), size_(b.size()), origin_(b.origin()) {}

  [[nodiscard]] constexpr const u8* data() const { return data_; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] constexpr const u8& operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] constexpr const u8* begin() const { return data_; }
  [[nodiscard]] constexpr const u8* end() const { return data_ + size_; }

  [[nodiscard]] constexpr std::span<const u8> span() const {
    return {data_, size_};
  }
  constexpr operator std::span<const u8>() const { return span(); }
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Provenance stamp of the buffer this view was taken from (default
  /// for views over plain byte ranges).
  [[nodiscard]] constexpr const Origin& origin() const { return origin_; }

  [[nodiscard]] BufView subview(std::size_t offset, std::size_t n) const {
    if (offset > size_ || n > size_ - offset) {
      throw std::out_of_range("BufView::subview");
    }
    BufView v{data_ + offset, n};
    v.origin_ = origin_;
    return v;
  }

  friend bool operator==(BufView a, BufView b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  const u8* data_ = nullptr;
  std::size_t size_ = 0;
  Origin origin_{};
};

}  // namespace dnstime
