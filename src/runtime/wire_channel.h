// The faulty wire between a switch's monitoring port and the stream
// processor (DESIGN.md "Fault model & degradation").
//
// When wire faults are configured, every mirrored EmitRecord is
// round-tripped through the report codec — encode_report, fault mutation,
// decode_report — before delivery, so corruption and truncation exercise
// the decoder's bounds checks end-to-end on real traffic, not just in the
// report_test fuzzers. A record can be dropped, duplicated, corrupted
// (bit flip), truncated, or held past its successor (reorder); mutated
// bytes rejected by the decoder OR by the stream processor's routing
// boundary (decoded fine, routes nowhere — `deliver` returned false) are
// counted as decode_failures, mutated bytes that decode and route are
// counted as corrupted_delivered (bad data reached the stream processor —
// the nastiest case).
//
// The `deliver` callback must return bool: whether the stream processor
// accepted the record.
//
// Drivers own one channel and use it only on the merge thread, so the
// injector's wire decisions stay deterministic in delivery order. The held
// (reordered) record is released after the next transmit, or by flush() at
// the window close — reordering never crosses a window boundary.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "pisa/switch.h"
#include "runtime/report.h"

namespace sonata::runtime {

class WireChannel {
 public:
  explicit WireChannel(fault::Injector& injector) : injector_(&injector) {}

  // Push one record through the wire; `deliver` is invoked with every
  // record that survives (0, 1, or 2 times), including a previously held
  // record once its successor has gone through.
  template <typename Deliver>
  void transmit(const pisa::EmitRecord& rec, Deliver&& deliver) {
    const bool had_held = held_.has_value();
    send(rec, deliver);  // holds `rec` only when nothing was held
    if (had_held) flush(deliver);
  }

  // Release a still-held record at the end of the window's merge.
  template <typename Deliver>
  void flush(Deliver&& deliver) {
    if (held_) {
      pisa::EmitRecord delayed = std::move(*held_);
      held_.reset();
      deliver(std::move(delayed));
    }
  }

 private:
  template <typename Deliver>
  void send(const pisa::EmitRecord& rec, Deliver&& deliver) {
    bytes_.clear();
    encode_report_into(rec, bytes_);
    const fault::WireOutcome out = injector_->apply_wire(bytes_, !held_.has_value());
    switch (out.kind) {
      case fault::WireOutcome::Kind::kDrop:
        return;
      case fault::WireOutcome::Kind::kHold:
        // The reordered record skips the codec mutation path: it is a pure
        // ordering fault, delivered verbatim one record late.
        held_ = rec;
        return;
      case fault::WireOutcome::Kind::kDuplicate: {
        auto first = decode_report(bytes_);
        auto second = decode_report(bytes_);
        if (!first || !second) {  // unmutated bytes always decode
          injector_->note_decode_failure();
          return;
        }
        deliver(std::move(*first));
        deliver(std::move(*second));
        return;
      }
      case fault::WireOutcome::Kind::kDeliver: {
        auto decoded = decode_report(bytes_);
        if (!decoded) {
          injector_->note_decode_failure();
          return;
        }
        // A corrupted header can decode into a record that routes nowhere
        // (unknown query/level, out-of-range source); the stream processor
        // rejects those at its delivery boundary and they count as decode
        // failures too — the report was unusable, just at a later stage.
        if (!deliver(std::move(*decoded))) {
          injector_->note_decode_failure();
          return;
        }
        if (out.mutated) injector_->note_corrupted_delivered();
        return;
      }
    }
  }

  fault::Injector* injector_;
  std::optional<pisa::EmitRecord> held_;
  std::vector<std::byte> bytes_;  // reused encode buffer
};

}  // namespace sonata::runtime
