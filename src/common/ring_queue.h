// FIFO on a power-of-two ring buffer.
//
// The per-packet queues of the fabric (a link's data, control and
// in-flight FIFOs) push and pop once per packet per hop. std::deque frees
// and re-allocates a block every few elements as such a queue cycles;
// this ring allocates only when it outgrows its capacity (doubling) and
// keeps that capacity, so a queue in steady state never touches the heap.
//
// Popped slots are not destroyed, only overwritten by later pushes, so T
// is held to trivially copyable: there is nothing a popped element could
// still own.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace stellar {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "popped slots are overwritten, never destroyed");

 public:
  using value_type = T;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  /// The i-th element from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  /// `v` must not refer into this queue: a push may reallocate it.
  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  /// Insert so that `v` becomes the i-th element (i <= size()); the
  /// elements from i on shift one place back. O(size() - i).
  void insert(std::size_t i, const T& v) {
    push_back(v);
    for (std::size_t j = size_ - 1; j > i; --j) {
      std::swap((*this)[j], (*this)[j - 1]);
    }
  }
  /// Drop every element; the capacity stays.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : 2 * buf_.size();
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace stellar
