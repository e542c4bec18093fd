// A FIFO over a vector and a head index.  Pops move the head; the popped
// prefix goes once the FIFO empties, or once it is 64 entries or more and
// half the vector (a FIFO that never empties).
#pragma once

#include <cstddef>
#include <vector>

namespace dmp {

template <class T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  T& operator[](std::size_t i) { return items_[head_ + i]; }
  const T& operator[](std::size_t i) const { return items_[head_ + i]; }
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }
  void push(const T& x) { items_.push_back(x); }
  void pop() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace dmp
