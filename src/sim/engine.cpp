#include "sim/engine.hpp"

namespace rfs::sim {

namespace {
thread_local Engine* t_current = nullptr;
}  // namespace

Engine::Engine() {
  detached_.prev = detached_.next = &detached_;
  if (t_current == nullptr) t_current = this;
}

Engine::~Engine() {
  // Backstop for owners that did not drain explicitly. Harnesses drain
  // first thing in their own destructors, while the simulated objects the
  // actors reference are still alive — prefer that.
  drain_detached();
  if (t_current == this) t_current = nullptr;
}

void Engine::register_detached(DetachedLink& link, std::coroutine_handle<> h) {
  link.handle = h;
  link.prev = detached_.prev;
  link.next = &detached_;
  detached_.prev->next = &link;
  detached_.prev = &link;
}

void Engine::deregister_detached(DetachedLink& link) {
  link.prev->next = link.next;
  link.next->prev = link.prev;
  link.prev = link.next = nullptr;
}

std::size_t Engine::detached_count() const {
  std::size_t n = 0;
  for (const DetachedLink* l = detached_.next; l != &detached_; l = l->next) ++n;
  return n;
}

void Engine::drain_detached() {
  // Unlink before destroying: the frame (and the link inside its promise)
  // dies with destroy(). Destroying a frame destroys the child tasks it
  // owns, but children are never registered (only spawn() registers), so
  // the list head is the only cursor that matters.
  while (detached_.next != &detached_) {
    DetachedLink& link = *detached_.next;
    deregister_detached(link);
    link.handle.destroy();
  }
  // Queued resumptions may now dangle (their frames died above); nothing
  // may run after a drain, so drop them wholesale.
  queue_ = {};
}

void Engine::schedule_at(Time t, std::coroutine_handle<> h) {
  if (t < now_) t = now_;
  queue_.push(Item{t, seq_++, h});
}

Time Engine::run() {
  CurrentEngineScope scope(*this);
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  CurrentEngineScope scope(*this);
  while (!queue_.empty() && queue_.top().t <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  Item item = queue_.top();
  queue_.pop();
  now_ = item.t;
  CurrentEngineScope scope(*this);
  item.h.resume();
  return true;
}

Engine* Engine::current() { return t_current; }

void Engine::make_current() { t_current = this; }

CurrentEngineScope::CurrentEngineScope(Engine& e) : prev_(t_current) { t_current = &e; }

CurrentEngineScope::~CurrentEngineScope() { t_current = prev_; }

}  // namespace rfs::sim
