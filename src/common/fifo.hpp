// Fifo: a ring-buffer queue for small per-node state.
//
// Every simulated node owns a handful of bounded queues: the WCL's
// mix-state and RTT eviction orders and its connection backlog, the replay
// windows and peer guards, the PSS healing reserve and suspicion order, and
// the key cache's eviction order. libstdc++'s std::deque allocates a
// 64-byte chunk map and a first 512-byte chunk in its default constructor,
// ~600 B of heap for a queue that never holds anything; at 20k nodes a
// node's nine deques held 4.8 KB. Fifo allocates nothing until its first
// insert and keeps its elements in one power-of-two block that doubles
// when full.
//
// Unlike std::deque, growth moves the elements: any insert may invalidate
// every pointer and reference into the queue, not only its iterators. The
// block never shrinks.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace whisper {

template <typename T>
class Fifo {
  template <bool Const>
  class Iter {
    using Owner = std::conditional_t<Const, const Fifo, Fifo>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(Owner* f, std::size_t i) : f_(f), i_(i) {}
    reference operator*() const { return (*f_)[i_]; }
    pointer operator->() const { return &(*f_)[i_]; }
    Iter& operator++() { ++i_; return *this; }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    Owner* f_ = nullptr;
    std::size_t i_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  Fifo() = default;
  Fifo(Fifo&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    std::swap(buf_, o.buf_);
    std::swap(cap_, o.cap_);
    std::swap(head_, o.head_);
    std::swap(size_, o.size_);
    return *this;
  }
  ~Fifo() {
    while (size_ > 0) pop_back();
    release();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the current block (0 until the first insert).
  std::size_t capacity() const { return cap_; }

  /// i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  // By value: the argument may alias an element that growth moves.
  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1)))) T(std::move(v));
    ++size_;
  }
  void push_front(T v) {
    if (size_ == cap_) grow();
    head_ = (head_ + cap_ - 1) & (cap_ - 1);
    ::new (static_cast<void*>(buf_ + head_)) T(std::move(v));
    ++size_;
  }
  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  void pop_back() {
    assert(size_ > 0);
    std::destroy_at(&back());
    --size_;
  }

  /// Remove every element matching `pred`, keeping the others in order.
  /// Returns the number removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred(std::as_const((*this)[i]))) continue;
      if (kept != i) (*this)[kept] = std::move((*this)[i]);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    while (size_ > kept) pop_back();
    return removed;
  }

 private:
  static constexpr std::size_t kFirstBlock = 4;

  void grow() {
    const std::size_t cap = cap_ == 0 ? kFirstBlock : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& v = (*this)[i];
      ::new (static_cast<void*>(buf + i)) T(std::move(v));
      std::destroy_at(&v);
    }
    release();
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  void release() {
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace whisper
