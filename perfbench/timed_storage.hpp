// TimedStorage — a timing decorator that models TaskStorage, so the
// benchmark can time every layer from outside, through the storage's
// public calls only (no library code is instrumented).
//
// Each place's timeline, from its first pop() call to its last pop()
// return, is cut into five contiguous kinds of interval:
//
//   pop_hit   a pop() call that returned a task              (core)
//   pop_miss  a pop() call that returned nullopt              (core)
//   push      a try_push() call made between two pops         (core)
//   body      from a hit's return to the next pop() call,
//             minus the pushes made in that gap               (workload
//                                                              expand +
//                                                              runner)
//   idle      from a miss's return to the next pop() call,
//             minus pushes (backoff + termination check)      (runner)
//
// Adjacent intervals share their boundary timestamp, so per place the
// five sums add up exactly to (last pop return - first pop call).  The
// only time of a run they miss is thread start before the first pop and
// the exit after the last one, which is what trace.layer_sum_frac
// checks.  Pushes before a place's first pop (the runner seeding from
// the main thread) are recorded in the push histogram but not in the
// push time, which lies outside the timed run.
//
// Cost: two steady_clock reads per push and per pop, plus one histogram
// record each.  That cost is the trace overhead the benchmark reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_traits.hpp"
#include "support/histogram.hpp"
#include "support/stats.hpp"

namespace kps::perfbench {

/// Time sums of one place (or all places, summed), in nanoseconds.
struct LayerTimes {
  std::uint64_t push_ns = 0;
  std::uint64_t pop_hit_ns = 0;
  std::uint64_t pop_miss_ns = 0;
  std::uint64_t body_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t pushes = 0;  // every try_push call, seeding included
  std::uint64_t pop_hits = 0;
  std::uint64_t pop_misses = 0;

  std::uint64_t sum_ns() const {
    return push_ns + pop_hit_ns + pop_miss_ns + body_ns + idle_ns;
  }

  LayerTimes& operator+=(const LayerTimes& o) {
    push_ns += o.push_ns;
    pop_hit_ns += o.pop_hit_ns;
    pop_miss_ns += o.pop_miss_ns;
    body_ns += o.body_ns;
    idle_ns += o.idle_ns;
    pushes += o.pushes;
    pop_hits += o.pop_hits;
    pop_misses += o.pop_misses;
    return *this;
  }
};

template <TaskStorage S>
class TimedStorage {
  using clock = std::chrono::steady_clock;

 public:
  using task_type = typename S::task_type;
  using priority_type = typename task_type::priority_type;

  struct alignas(kCacheLine) Place {
    std::size_t index = 0;
    typename S::Place* inner = nullptr;
    enum class Last : std::uint8_t { none, hit, miss } last = Last::none;
    clock::time_point mark{};        // when the last pop() returned
    std::uint64_t gap_push_ns = 0;   // push time since `mark`
    LayerTimes times;
  };

  /// `inner` must outlive the decorator.
  explicit TimedStorage(S& inner)
      : inner_(&inner),
        places_(inner.places()),
        push_hist_(inner.places()),
        pop_hit_hist_(inner.places()),
        pop_miss_hist_(inner.places()) {
    for (std::size_t i = 0; i < places_.size(); ++i) {
      places_[i].index = i;
      places_[i].inner = &inner.place(i);
    }
  }

  TimedStorage(const TimedStorage&) = delete;
  TimedStorage& operator=(const TimedStorage&) = delete;

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  PushOutcome<task_type> try_push(Place& p, int k, task_type task) {
    const auto t0 = clock::now();
    auto out = inner_->try_push(*p.inner, k, std::move(task));
    const std::uint64_t ns = since(t0, clock::now());
    push_hist_.record(p.index, ns);
    ++p.times.pushes;
    p.gap_push_ns += ns;
    return out;
  }

  std::optional<task_type> pop(Place& p) {
    const auto t0 = clock::now();
    close_gap(p, t0);
    auto task = inner_->pop(*p.inner);
    const auto t1 = clock::now();
    const std::uint64_t ns = since(t0, t1);
    if (task) {
      pop_hit_hist_.record(p.index, ns);
      p.times.pop_hit_ns += ns;
      ++p.times.pop_hits;
      p.last = Place::Last::hit;
    } else {
      pop_miss_hist_.record(p.index, ns);
      p.times.pop_miss_ns += ns;
      ++p.times.pop_misses;
      p.last = Place::Last::miss;
    }
    p.mark = t1;
    return task;
  }

  bool cancel(Place& p, TaskHandle h) { return inner_->cancel(*p.inner, h); }

  ReprioritizeOutcome<task_type> reprioritize(Place& p, TaskHandle h,
                                              priority_type priority) {
    return inner_->reprioritize(*p.inner, h, priority);
  }

  StorageCaps caps() const { return inner_->caps(); }
  bool lifecycle_enabled() const { return inner_->lifecycle_enabled(); }

  /// Read only after the run has joined its workers.
  LayerTimes times() const {
    LayerTimes out;
    for (const Place& p : places_) out += p.times;
    return out;
  }
  HistogramSnapshot push_ns() const { return push_hist_.snapshot(); }
  HistogramSnapshot pop_hit_ns() const { return pop_hit_hist_.snapshot(); }
  HistogramSnapshot pop_miss_ns() const { return pop_miss_hist_.snapshot(); }

 private:
  static std::uint64_t since(clock::time_point a, clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  /// Attribute the interval since the previous pop's return: to body
  /// after a hit, to idle after a miss, minus the pushes made inside it.
  void close_gap(Place& p, clock::time_point now) {
    if (p.last != Place::Last::none) {
      const std::uint64_t gap = since(p.mark, now);
      const std::uint64_t own = gap > p.gap_push_ns ? gap - p.gap_push_ns : 0;
      (p.last == Place::Last::hit ? p.times.body_ns : p.times.idle_ns) += own;
      p.times.push_ns += p.gap_push_ns;
    }
    p.gap_push_ns = 0;
  }

  S* inner_;
  std::vector<Place> places_;
  Histogram push_hist_;
  Histogram pop_hit_hist_;
  Histogram pop_miss_hist_;
};

}  // namespace kps::perfbench
