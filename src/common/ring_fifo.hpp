// FIFO queue over one ring buffer that keeps its storage.
//
// A std::deque allocates a block each time its tail crosses a block
// boundary and frees the block once its head has drained it, so a queue
// that cycles a few entries per operation allocates every few operations.
// RingFifo doubles its ring when full and never shrinks, so once a queue
// has reached its peak depth it allocates nothing more.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rfs {

template <typename T>
class RingFifo {
 public:
  void push_back(T value) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return ring_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  // The ring size stays a power of two so wrapping is a mask.
  void grow() {
    std::vector<T> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rfs
