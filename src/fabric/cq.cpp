#include "fabric/cq.hpp"

namespace rfs::fabric {

std::size_t CompletionQueue::poll(std::span<Wc> out) {
  std::size_t n = 0;
  while (n < out.size() && !ready_.empty()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

sim::Task<Wc> CompletionQueue::wait_polling() {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::size_t> CompletionQueue::wait_polling_many(std::span<Wc> out) {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  co_return poll(out);
}

sim::Task<Wc> CompletionQueue::wait_blocking() {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  // The completion channel raised an event; the sleeping thread pays the
  // interrupt + wake-up cost before it can drain the CQ.
  co_await sim::delay(model_.blocking_wake_latency);
  // More completions may have arrived during the wake-up; FIFO order is
  // preserved because we pop from the front.
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::optional<Wc>> CompletionQueue::wait_polling_until(Time deadline) {
  while (ready_.empty()) {
    if (deadline_timer_.passed(deadline)) co_return std::nullopt;
    co_await arrival_.wait();
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::optional<Wc>> CompletionQueue::wait_blocking_until(Time deadline) {
  // Same deadline handling as wait_polling_until; the only difference is
  // the completion-channel wake-up cost paid on a real arrival (a timeout
  // returns at the deadline itself — nothing woke the thread).
  while (ready_.empty()) {
    if (deadline_timer_.passed(deadline)) co_return std::nullopt;
    co_await arrival_.wait();
  }
  co_await sim::delay(model_.blocking_wake_latency);
  if (ready_.empty()) co_return std::nullopt;  // raced away during wake-up
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

void CompletionQueue::push(const Wc& wc) {
  ready_.push_back(wc);
  ++delivered_;
  arrival_.pulse();
}

}  // namespace rfs::fabric
