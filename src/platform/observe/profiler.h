// Copyright 2026 The TrustLite Reproduction Authors.
//
// TrustletProfiler: per-trustlet cycle accounting over the structured event
// stream (DESIGN.md §12). Answers the paper-evaluation question "where do
// the cycles go" — per-lane instructions, execution cycles, exception-entry
// overhead (the Sec. 5.4 21/23/42-cycle costs, attributed to the
// *interrupted* subject), secure full-save entries, MPU faults and UART
// bytes, plus the OS-vs-trustlet-vs-untrusted split.
//
//   TrustletProfiler profiler;
//   profiler.ConfigureFromReport(*platform.mpu(), report);
//   platform.AddEventSink(&profiler);
//   platform.Run(budget);
//   std::puts(profiler.ToString().c_str());
//
// Accounting invariant: every cycle the CPU charges while the profiler is
// attached lands in exactly one lane — instruction costs (incl. wait
// states) via InsnEvent/HaltEvent, exception-entry costs via TrapEvent — so
// the lane totals sum to the CPU cycle delta over the attachment window.

#ifndef TRUSTLITE_SRC_PLATFORM_OBSERVE_PROFILER_H_
#define TRUSTLITE_SRC_PLATFORM_OBSERVE_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/platform/observe/events.h"
#include "src/platform/observe/lanes.h"

namespace trustlite {

struct LaneProfile {
  std::string name;
  bool is_os = false;
  uint32_t code_base = 0;
  uint32_t code_end = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;         // Execution cycles + entry_cycles.
  uint64_t entry_cycles = 0;   // Exception/interrupt entry overhead charged
                               // to this lane (subject-attributed).
  uint64_t exceptions = 0;     // Faults/SWIs that displaced this lane.
  uint64_t interrupts = 0;     // Hardware IRQs that displaced this lane.
  uint64_t secure_entries = 0; // Secure-engine full-save entries.
  uint64_t entries = 0;        // Control transfers into this lane.
  uint64_t mpu_faults = 0;
  uint64_t uart_bytes = 0;
};

class TrustletProfiler : public EventSink {
 public:
  TrustletProfiler() = default;

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
  void OnReset(const ResetEvent& event) override;

  // --- Results ---
  // Lane 0 is the untrusted catch-all; configured lanes follow in insertion
  // order.
  std::vector<LaneProfile> Snapshot() const;
  const LaneProfile& lane(int index) const { return lanes_[index]; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  uint64_t total_cycles() const;      // Sum over lanes.
  uint64_t os_cycles() const;         // Lanes with is_os.
  uint64_t trustlet_cycles() const;   // Non-OS configured lanes.
  uint64_t untrusted_cycles() const;  // Lane 0.
  uint64_t resets() const { return resets_; }

  void Clear();  // Zeroes counters, keeps the lane configuration.

  // Human-readable table (tlsim --profile).
  std::string ToString() const;

 private:
  int Ensure(uint32_t ip);  // LaneFor + lazy lane-0 bookkeeping.

  LaneMap map_;
  std::vector<LaneProfile> lanes_ = {LaneProfile{"untrusted"}};
  int current_ = -1;  // Lane of the last retired instruction.
  uint64_t resets_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_OBSERVE_PROFILER_H_
