// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/observe/profiler.h"

#include <cinttypes>
#include <cstdio>

namespace trustlite {

int TrustletProfiler::AddLane(const std::string& name, uint32_t code_base,
                              uint32_t code_end, bool is_os) {
  const int index = map_.AddLane(name, code_base, code_end, is_os);
  LaneProfile profile;
  profile.name = name;
  profile.is_os = is_os;
  profile.code_base = code_base;
  profile.code_end = code_end;
  lanes_.push_back(profile);
  return index;
}

void TrustletProfiler::ConfigureFromReport(const EaMpu& mpu,
                                           const LoadReport& report) {
  map_.ConfigureFromReport(mpu, report);
  for (int i = static_cast<int>(lanes_.size()); i < map_.num_lanes(); ++i) {
    const Lane& lane = map_.lane(i);
    LaneProfile profile;
    profile.name = lane.name;
    profile.is_os = lane.is_os;
    profile.code_base = lane.code_base;
    profile.code_end = lane.code_end;
    lanes_.push_back(profile);
  }
}

int TrustletProfiler::Ensure(uint32_t ip) { return map_.LaneFor(ip); }

void TrustletProfiler::OnInstruction(const InsnEvent& event) {
  const int lane = Ensure(event.ip);
  LaneProfile& profile = lanes_[lane];
  if (lane != current_) {
    ++profile.entries;
    current_ = lane;
  }
  ++profile.instructions;
  profile.cycles += event.cost;
}

void TrustletProfiler::OnTrap(const TrapEvent& event) {
  // Entry overhead is charged to the *interrupted subject* — this is what
  // makes the Sec. 5.4 42-cycle secure-trustlet entry show up as trustlet
  // overhead rather than OS overhead.
  const int lane = Ensure(event.subject_ip);
  LaneProfile& profile = lanes_[lane];
  profile.entry_cycles += event.entry_cycles;
  profile.cycles += event.entry_cycles;
  if (event.interrupt) {
    ++profile.interrupts;
  } else {
    ++profile.exceptions;
  }
  if (event.trustlet_path) {
    ++profile.secure_entries;
  }
}

void TrustletProfiler::OnHalt(const HaltEvent& event) {
  // Clean HALT retires carry an instruction cost but no InsnEvent (the
  // tracer's instruction count excludes it); the cycles still belong to the
  // halting lane. Trap halts carry cost == 0.
  const int lane = Ensure(event.ip);
  LaneProfile& profile = lanes_[lane];
  if (lane != current_) {
    ++profile.entries;
    current_ = lane;
  }
  profile.cycles += event.cost;
}

void TrustletProfiler::OnUartTx(const UartTxEvent& event) {
  ++lanes_[Ensure(event.ip)].uart_bytes;
}

void TrustletProfiler::OnMpuFault(const MpuFaultEvent& event) {
  ++lanes_[Ensure(event.ip)].mpu_faults;
}

void TrustletProfiler::OnReset(const ResetEvent&) {
  ++resets_;
  current_ = -1;
}

std::vector<LaneProfile> TrustletProfiler::Snapshot() const { return lanes_; }

uint64_t TrustletProfiler::total_cycles() const {
  uint64_t total = 0;
  for (const LaneProfile& profile : lanes_) {
    total += profile.cycles;
  }
  return total;
}

uint64_t TrustletProfiler::os_cycles() const {
  uint64_t total = 0;
  for (const LaneProfile& profile : lanes_) {
    if (profile.is_os) {
      total += profile.cycles;
    }
  }
  return total;
}

uint64_t TrustletProfiler::trustlet_cycles() const {
  uint64_t total = 0;
  for (size_t i = 1; i < lanes_.size(); ++i) {
    if (!lanes_[i].is_os) {
      total += lanes_[i].cycles;
    }
  }
  return total;
}

uint64_t TrustletProfiler::untrusted_cycles() const {
  return lanes_.empty() ? 0 : lanes_[0].cycles;
}

void TrustletProfiler::Clear() {
  for (LaneProfile& profile : lanes_) {
    profile.instructions = 0;
    profile.cycles = 0;
    profile.entry_cycles = 0;
    profile.exceptions = 0;
    profile.interrupts = 0;
    profile.secure_entries = 0;
    profile.entries = 0;
    profile.mpu_faults = 0;
    profile.uart_bytes = 0;
  }
  current_ = -1;
  resets_ = 0;
}

std::string TrustletProfiler::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %12s %12s %10s %6s %6s %7s %6s %5s\n",
                "lane", "instructions", "cycles", "entry-cyc", "exc", "irq",
                "sec-ent", "fault", "uart");
  out += line;
  const uint64_t total = total_cycles();
  for (const LaneProfile& profile : lanes_) {
    std::snprintf(line, sizeof(line),
                  "%-14s %12" PRIu64 " %12" PRIu64 " %10" PRIu64 " %6" PRIu64
                  " %6" PRIu64 " %7" PRIu64 " %6" PRIu64 " %5" PRIu64 "\n",
                  profile.name.c_str(), profile.instructions, profile.cycles,
                  profile.entry_cycles, profile.exceptions, profile.interrupts,
                  profile.secure_entries, profile.mpu_faults,
                  profile.uart_bytes);
    out += line;
  }
  const uint64_t os = os_cycles();
  const uint64_t tl = trustlet_cycles();
  const uint64_t un = untrusted_cycles();
  auto pct = [total](uint64_t part) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(total);
  };
  std::snprintf(line, sizeof(line),
                "split: os %" PRIu64 " (%.1f%%)  trustlets %" PRIu64
                " (%.1f%%)  untrusted %" PRIu64 " (%.1f%%)  total %" PRIu64
                "\n",
                os, pct(os), tl, pct(tl), un, pct(un), total);
  out += line;
  return out;
}

}  // namespace trustlite
