// One daemon pass's gathered stack traces, flat.
//
// A tool daemon walks every local task's threads once per sample and hands
// the whole pass to its fold at once. The batch stores, per trace, the
// task, its daemon-local index, the sample and where its frames end; the
// frames of every trace lie back to back in one vector. A 208K BG/L pass
// (128 tasks x 10 samples of ~8 frames) is about 60 KB in two allocations,
// where a CallPath per trace would cost one allocation each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "app/appmodel.hpp"
#include "app/callpath.hpp"
#include "common/types.hpp"

namespace petastat::app {

class TraceBatch {
 public:
  struct Trace {
    TaskId task;
    std::uint32_t local_index = 0;
    std::uint32_t sample = 0;
    std::uint32_t end = 0;  // one past the trace's last frame
  };

  /// Appends samples [first_sample, first_sample + num_samples) of local
  /// tasks [0, locals): sample-major, then local index, then thread, the
  /// order a daemon walks them in. `task_of(local)` resolves a local index
  /// to its global rank.
  template <typename TaskOf>
  void synthesize(const AppModel& app, std::uint32_t locals,
                  std::uint32_t first_sample, std::uint32_t num_samples,
                  TaskOf&& task_of) {
    const std::uint32_t threads = app.threads_per_task();
    traces_.reserve(traces_.size() +
                    std::size_t{locals} * threads * num_samples);
    for (std::uint32_t s = first_sample; s < first_sample + num_samples; ++s) {
      for (std::uint32_t t = 0; t < locals; ++t) {
        const TaskId task = task_of(t);
        for (std::uint32_t th = 0; th < threads; ++th) {
          app.stack_into(task, th, s, scratch_);
          append(task, t, s, scratch_);
        }
      }
    }
  }

  void append(TaskId task, std::uint32_t local_index, std::uint32_t sample,
              std::span<const FrameId> path) {
    frames_.insert(frames_.end(), path.begin(), path.end());
    const auto end = static_cast<std::uint32_t>(frames_.size());
    traces_.push_back({task, local_index, sample, end});
    locals_ = std::max(locals_, local_index + 1);
  }

  void clear() {
    traces_.clear();
    frames_.clear();
    locals_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return traces_.size(); }
  /// One past the highest local index of any trace.
  [[nodiscard]] std::uint32_t locals() const { return locals_; }
  [[nodiscard]] const Trace& trace(std::size_t i) const { return traces_[i]; }
  [[nodiscard]] std::span<const FrameId> path(std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : traces_[i - 1].end;
    return {frames_.data() + begin, traces_[i].end - begin};
  }

 private:
  std::vector<Trace> traces_;
  CallPath frames_;
  CallPath scratch_;  // reused stack_into buffer
  std::uint32_t locals_ = 0;
};

}  // namespace petastat::app
