// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/trace.h"

#include <cstdio>
#include <sstream>

#include "src/isa/disassembler.h"

namespace trustlite {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kInstruction:
      return "insn";
    case TraceEventType::kException:
      return "exc ";
    case TraceEventType::kInterrupt:
      return "irq ";
    case TraceEventType::kHalt:
      return "halt";
    case TraceEventType::kUartTx:
      return "uart";
  }
  return "?";
}

void ExecutionTracer::Record(const TraceEvent& event) {
  if (echo_ != nullptr) {
    std::fputs(FormatTraceEvent(event).c_str(), echo_);
  }
  events_.push_back(event);
  while (events_.size() > capacity_) {
    events_.pop_front();
  }
}

void ExecutionTracer::Attach(Platform* platform) {
  if (platform_ == platform) {
    return;
  }
  Detach();
  platform_ = platform;
  if (platform_ != nullptr) {
    platform_->AddEventSink(this);
  }
}

void ExecutionTracer::Detach() {
  if (platform_ != nullptr) {
    platform_->RemoveEventSink(this);
    platform_ = nullptr;
  }
}

void ExecutionTracer::OnInstruction(const InsnEvent& event) {
  ++counts_.instructions;
  if (record_instructions_) {
    Record({event.cycle, TraceEventType::kInstruction, event.ip, event.word});
  }
}

void ExecutionTracer::OnTrap(const TrapEvent& event) {
  if (event.halted) {
    return;  // The failed entry is reported through OnHalt.
  }
  if (event.interrupt) {
    ++counts_.interrupts;
    Record({event.cycle, TraceEventType::kInterrupt, event.subject_ip,
            event.handler});
  } else {
    ++counts_.exceptions;
    Record({event.cycle, TraceEventType::kException, event.subject_ip,
            event.handler});
  }
}

void ExecutionTracer::OnHalt(const HaltEvent& event) {
  Record({event.cycle, TraceEventType::kHalt, event.ip,
          event.trap ? event.trap_class : 0xFFFFFFFFu});
}

void ExecutionTracer::OnUartTx(const UartTxEvent& event) {
  ++counts_.uart_bytes;
  Record({event.cycle, TraceEventType::kUartTx, event.ip, event.byte});
}

StepEvent ExecutionTracer::Run(Platform* platform, uint64_t max_instructions) {
  Attach(platform);
  Cpu& cpu = platform->cpu();
  StepEvent last = StepEvent::kExecuted;
  for (uint64_t i = 0; i < max_instructions; ++i) {
    last = cpu.Step();
    if (last == StepEvent::kHalted) {
      break;
    }
  }
  return last;
}

std::string FormatTraceEvent(const TraceEvent& event) {
  const unsigned long long cycle = event.cycle;
  char line[160] = "";
  switch (event.type) {
    case TraceEventType::kInstruction:
      std::snprintf(line, sizeof(line), "%10llu  insn  %08x  %s\n", cycle,
                    event.ip, DisassembleWord(event.detail, event.ip).c_str());
      break;
    case TraceEventType::kException:
    case TraceEventType::kInterrupt:
      std::snprintf(line, sizeof(line), "%10llu  %s  %08x  -> handler %08x\n",
                    cycle, TraceEventTypeName(event.type), event.ip,
                    event.detail);
      break;
    case TraceEventType::kHalt:
      std::snprintf(line, sizeof(line), "%10llu  halt  %08x  %s\n", cycle,
                    event.ip,
                    event.detail == 0xFFFFFFFFu ? "(clean)" : "(trap)");
      break;
    case TraceEventType::kUartTx: {
      const char c = static_cast<char>(event.detail);
      std::snprintf(line, sizeof(line), "%10llu  uart  %08x  0x%02x '%c'\n",
                    cycle, event.ip, event.detail,
                    (c >= 0x20 && c < 0x7F) ? c : '.');
      break;
    }
  }
  return line;
}

std::string ExecutionTracer::Dump(size_t last) const {
  std::ostringstream out;
  size_t start = 0;
  if (last != 0 && events_.size() > last) {
    start = events_.size() - last;
  }
  for (size_t i = start; i < events_.size(); ++i) {
    out << FormatTraceEvent(events_[i]);
  }
  return out.str();
}

}  // namespace trustlite
