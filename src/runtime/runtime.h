// Sonata's single-switch runtime (paper Figure 6): one PISA switch and the
// shared stream processor, driven through the window loop inline in the
// caller's thread, with dynamic refinement between windows.
//
// Per window:
//   1. every packet runs through the installed switch pipelines; mirrored
//      records and the shared raw mirror collect on their way to the
//      per-(query, level) stream executors;
//   2. at window end the runtime polls and resets the switch registers
//      (control channel), closes each level's stream executor
//      coarse-to-fine, and installs each level's winner keys into the next
//      level's dynamic filter tables — on the switch and on the stream
//      processor side;
//   3. the finest level's outputs are the window's detections.
//
// It is a Fleet of one shard with no worker threads: the data path, the
// close, the plan swap and the window-end policies (closed-loop
// mitigation, re-planning; TelemetryEngine) are the ones every in-process
// driver runs.
//
// Tuple accounting matches the paper's evaluation: N counts packets the
// switch sends toward the stream processor (streamed tuples, per-key
// reports, collision overflows, and the shared raw mirror), not the
// register polls on the control channel.
#pragma once

#include <cstddef>
#include <utility>

#include "fault/fault.h"
#include "planner/planner.h"
#include "runtime/fleet.h"

namespace sonata::runtime {

class Runtime final : public Fleet {
 public:
  // Takes ownership of a copy of the plan; the *base queries* the plan
  // references must outlive the Runtime. `batch_size` is the data-path
  // handoff granularity (DESIGN.md "Data-path memory model"); every value
  // produces bit-identical windows. `faults` configures deterministic
  // fault injection (DESIGN.md "Fault model & degradation"); worker stalls
  // and slowdowns need worker threads and are inert here.
  explicit Runtime(planner::Plan plan, std::size_t batch_size = 1, fault::FaultSpec faults = {})
      : Fleet(std::move(plan), 1, 0, batch_size, faults) {}
};

}  // namespace sonata::runtime
