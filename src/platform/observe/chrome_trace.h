// Copyright 2026 The TrustLite Reproduction Authors.
//
// ChromeTraceWriter: exports the structured event stream as Chrome
// trace-event JSON (the "JSON Array with metadata" flavour), viewable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Mapping:
//  * One "thread" per observability lane (tid = 1 + lane index; tid 0 is a
//    synthetic "hw" lane for device-originated events). Thread names come
//    from the LaneMap ("os", "trustlet-3", "untrusted").
//  * Contiguous instruction runs within one lane become complete ("X")
//    spans; a lane switch closes the old span and opens a new one, so the
//    timeline shows who owns the CPU, cycle by cycle.
//  * Exception/interrupt entries become an "X" span of `entry_cycles`
//    duration on the *interrupted* lane (the Sec. 5.4 21/23/42-cycle costs
//    are directly measurable with the viewer's ruler) plus a flow arrow
//    ("s"→"f") from the interrupted subject to the handler's lane. Timer
//    IRQ raise→recognition latency gets its own arrow from the hw lane.
//  * UART bytes, MPU faults, bus errors, DMA transfers, halts and resets
//    are instant ("i") events on the attributed lane.
//
// Timebase: 1 simulated cycle = 1 microsecond of trace time (`ts`/`dur`),
// so viewer durations read directly as cycle counts.
//
// Records are serialized eagerly with a fixed field order
// (name, ph, ts, dur?, pid, tid, id?, args?) so golden-file tests are
// byte-stable. A hard event cap bounds memory; overflow is counted and
// reported in otherData.dropped.

#ifndef TRUSTLITE_SRC_PLATFORM_OBSERVE_CHROME_TRACE_H_
#define TRUSTLITE_SRC_PLATFORM_OBSERVE_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/platform/observe/events.h"
#include "src/platform/observe/lanes.h"

namespace trustlite {

class ChromeTraceWriter : public EventSink {
 public:
  // `pid` selects the trace process the records land in (default 0). A
  // multi-device fleet gives every node its own pid so the merged view in
  // Perfetto shows one process group per node (see FleetTraceAggregator).
  explicit ChromeTraceWriter(size_t max_events = 1u << 20, int pid = 0)
      : max_events_(max_events), pid_(pid) {}

  // Process name shown in the viewer ("trustlite-sim" by default;
  // aggregated fleet traces use "node-<id>").
  void set_process_name(std::string name) { process_name_ = std::move(name); }

  // Lane configuration (before attaching). See LaneMap.
  int AddLane(const std::string& name, uint32_t code_base, uint32_t code_end,
              bool is_os = false);
  void ConfigureFromReport(const EaMpu& mpu, const LoadReport& report);

  // --- EventSink ---
  bool WantsInstructionEvents() const override { return true; }
  void OnInstruction(const InsnEvent& event) override;
  void OnTrap(const TrapEvent& event) override;
  void OnHalt(const HaltEvent& event) override;
  void OnUartTx(const UartTxEvent& event) override;
  void OnMpuFault(const MpuFaultEvent& event) override;
  void OnIrqRaise(const IrqRaiseEvent& event) override;
  void OnBusError(const BusErrorEvent& event) override;
  void OnDmaTransfer(const DmaTransferEvent& event) override;
  void OnReset(const ResetEvent& event) override;

  // Closes the open execution span. Idempotent; called by Json() as well.
  void Finish();

  // Complete JSON document (traceEvents + metadata records + otherData).
  std::string Json();

  // Appends this writer's metadata + event records to `out` as ",\n"-joined
  // array elements (no surrounding envelope). `*first` tracks whether a
  // separator is needed and is cleared after the first element; the fleet
  // aggregator uses this to splice several writers into one traceEvents
  // array. Calls Finish().
  void AppendEvents(std::string* out, bool* first);

  size_t event_count() const { return records_.size(); }
  size_t dropped() const { return dropped_; }

 private:
  void Emit(std::string record);
  void CloseSpan(uint64_t end_cycle);
  static std::string EscapeJson(const std::string& raw);

  LaneMap map_;
  size_t max_events_;
  int pid_ = 0;
  std::string process_name_ = "trustlite-sim";
  std::vector<std::string> records_;
  size_t dropped_ = 0;
  bool finished_ = false;

  int span_lane_ = -1;        // Lane of the open execution span, -1 = none.
  uint64_t span_start_ = 0;   // First cycle of the open span.
  uint64_t span_end_ = 0;     // Cycle after the last retire in the span.
  uint64_t span_insns_ = 0;   // Instructions inside the open span.
  uint64_t next_flow_id_ = 1;
  uint64_t irq_flow_id_ = 0;  // Pending raise→recognition arrow, 0 = none.
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_OBSERVE_CHROME_TRACE_H_
