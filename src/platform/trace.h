// Copyright 2026 The TrustLite Reproduction Authors.
//
// Execution tracer: records notable platform events (optionally every
// retired instruction) into a bounded ring. Built on the structured event
// hooks (src/platform/observe/): the tracer is an EventSink that attaches
// to the platform's EventHub on first Run and *stays attached*, so events
// produced by direct cpu.Step()/cpu.Run() calls between Runs are captured
// too — with exact emission-time attribution (a UART byte is stamped with
// the IP of the instruction that stored to TXDATA, not with whatever a
// polling loop happened to see).
//
//   ExecutionTracer tracer(/*capacity=*/512, /*record_instructions=*/false);
//   tracer.Run(&platform, 100000);
//   std::puts(tracer.Dump().c_str());
//
// One tracer observes one platform; Detach() (or destruction) unregisters.
// SetEcho() streams each event line as it is recorded (`tlsim run --trace`
// echoes to stderr); the ring and Dump() are unaffected.

#ifndef TRUSTLITE_SRC_PLATFORM_TRACE_H_
#define TRUSTLITE_SRC_PLATFORM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>

#include "src/platform/observe/events.h"
#include "src/platform/platform.h"

namespace trustlite {

enum class TraceEventType : uint8_t {
  kInstruction,  // detail = encoded instruction word
  kException,    // detail = handler address
  kInterrupt,    // detail = handler address
  kHalt,         // detail = trap class (0xFFFFFFFF when a clean HALT)
  kUartTx,       // detail = transmitted byte
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  uint64_t cycle = 0;
  TraceEventType type = TraceEventType::kInstruction;
  uint32_t ip = 0;
  uint32_t detail = 0;
};

// One newline-terminated text line per event (instructions disassembled);
// shared by Dump() and the echo stream.
std::string FormatTraceEvent(const TraceEvent& event);

// Tracer-side event totals. Cumulative across Run calls and across
// Platform::HardReset (Clear() zeroes them); `instructions` counts
// productive retires only — the retiring half of a SWI counts, a clean
// HALT does not.
struct TraceCounts {
  uint64_t instructions = 0;
  uint64_t exceptions = 0;
  uint64_t interrupts = 0;
  uint64_t uart_bytes = 0;
};

class ExecutionTracer : public EventSink {
 public:
  explicit ExecutionTracer(size_t capacity = 4096,
                           bool record_instructions = false)
      : capacity_(capacity), record_instructions_(record_instructions) {}
  ~ExecutionTracer() override { Detach(); }

  ExecutionTracer(const ExecutionTracer&) = delete;
  ExecutionTracer& operator=(const ExecutionTracer&) = delete;

  // Registers with the platform's event hub (idempotent). Run() attaches
  // automatically; call this directly to observe a platform driven by
  // something else entirely.
  void Attach(Platform* platform);
  void Detach();

  // Writes every recorded event's line to `out` as it is recorded (null =
  // off). Ring capacity does not limit the stream.
  void SetEcho(std::FILE* out) { echo_ = out; }

  // Steps the platform until halt or `max_instructions` step iterations.
  // May be called repeatedly; events accumulate (oldest dropped beyond
  // capacity), counts are cumulative. The tracer stays attached afterwards,
  // so platform activity between Runs is recorded as well.
  StepEvent Run(Platform* platform, uint64_t max_instructions);

  const std::deque<TraceEvent>& events() const { return events_; }
  const TraceCounts& counts() const { return counts_; }
  void Clear() {
    events_.clear();
    counts_ = TraceCounts{};
  }

  // Text rendering (instructions are disassembled). `last` limits output to
  // the most recent N events (0 = all retained).
  std::string Dump(size_t last = 0) const;

  // --- EventSink ---
  // Instruction events feed counts_.instructions even when individual
  // instructions are not recorded.
  bool WantsInstructionEvents() const override { return true; }
  void OnInstruction(const InsnEvent& event) override;
  void OnTrap(const TrapEvent& event) override;
  void OnHalt(const HaltEvent& event) override;
  void OnUartTx(const UartTxEvent& event) override;

 private:
  void Record(const TraceEvent& event);

  size_t capacity_;
  bool record_instructions_;
  Platform* platform_ = nullptr;
  std::FILE* echo_ = nullptr;
  std::deque<TraceEvent> events_;
  TraceCounts counts_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_TRACE_H_
