// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/mem/bus.h"

#include <algorithm>
#include <cassert>

namespace trustlite {

void Bus::Attach(Device* device) {
  assert(device != nullptr);
  for (const Device* existing : devices_) {
    const bool overlaps = device->base() < existing->end() &&
                          existing->base() < device->end();
    assert(!overlaps && "overlapping device ranges");
    (void)overlaps;
  }
  devices_.insert(std::upper_bound(devices_.begin(), devices_.end(), device,
                                   [](const Device* a, const Device* b) {
                                     return a->base() < b->base();
                                   }),
                  device);
  if (device->WantsTick()) {
    tick_devices_.push_back(device);
  }
  ++topology_generation_;
}

Device* Bus::FindDevice(uint32_t addr) const {
  // Hot path: the previously resolved device. Bus traffic is dominated by
  // runs against a single device (straight-line fetch, one RAM for data).
  if (route_memo_ && last_device_ != nullptr && last_device_->Contains(addr)) {
    ++stats_.route_hits;
    return last_device_;
  }
  ++stats_.route_misses;
  // Binary search over the sorted, non-overlapping table: the candidate is
  // the last device with base <= addr.
  auto it = std::upper_bound(devices_.begin(), devices_.end(), addr,
                             [](uint32_t a, const Device* d) {
                               return a < d->base();
                             });
  if (it == devices_.begin()) {
    return nullptr;
  }
  Device* device = *(it - 1);
  if (!device->Contains(addr)) {
    return nullptr;
  }
  if (route_memo_) {
    last_device_ = device;
  }
  return device;
}

void Bus::EmitBusError(const AccessContext& ctx, uint32_t addr) {
  if (sink_ == nullptr) {
    return;
  }
  BusErrorEvent event;  // Cycle stamped by the hub.
  event.ip = ctx.curr_ip;
  event.addr = addr;
  event.kind = ctx.kind;
  sink_->OnBusError(event);
}

AccessResult Bus::Read(const AccessContext& ctx, uint32_t addr, uint32_t width,
                       uint32_t* value, uint32_t* wait_states) {
  if (wait_states != nullptr) {
    *wait_states = 0;
  }
  if (width == 4 && (addr & 3) != 0) {
    EmitBusError(ctx, addr);
    return AccessResult::kAlignFault;
  }
  if (protection_ != nullptr && !ctx.engine) {
    const AccessResult check = protection_->Check(ctx, addr, width);
    if (check != AccessResult::kOk) {
      return check;
    }
  }
  Device* device = FindDevice(addr);
  if (device == nullptr) {
    EmitBusError(ctx, addr);
    return AccessResult::kBusError;
  }
  if (wait_states != nullptr) {
    *wait_states = device->WaitStates(addr - device->base(), width, ctx.kind);
  }
  const AccessResult result = device->Read(addr - device->base(), width, value);
  if (result != AccessResult::kOk) {
    EmitBusError(ctx, addr);
  }
  return result;
}

AccessResult Bus::Write(const AccessContext& ctx, uint32_t addr, uint32_t width,
                        uint32_t value, uint32_t* wait_states) {
  if (wait_states != nullptr) {
    *wait_states = 0;
  }
  if (width == 4 && (addr & 3) != 0) {
    EmitBusError(ctx, addr);
    return AccessResult::kAlignFault;
  }
  if (protection_ != nullptr && !ctx.engine) {
    const AccessResult check = protection_->Check(ctx, addr, width);
    if (check != AccessResult::kOk) {
      return check;
    }
  }
  Device* device = FindDevice(addr);
  if (device == nullptr) {
    EmitBusError(ctx, addr);
    return AccessResult::kBusError;
  }
  if (wait_states != nullptr) {
    *wait_states = device->WaitStates(addr - device->base(), width, ctx.kind);
  }
  if (device->IsMemory()) {
    ++memory_generation_;
  }
  const AccessResult result = device->Write(addr - device->base(), width, value);
  if (result != AccessResult::kOk) {
    EmitBusError(ctx, addr);
  }
  return result;
}

bool Bus::HostReadWord(uint32_t addr, uint32_t* value) {
  Device* device = FindDevice(addr);
  if (device == nullptr || (addr & 3) != 0) {
    return false;
  }
  return device->Read(addr - device->base(), 4, value) == AccessResult::kOk;
}

bool Bus::HostWriteWord(uint32_t addr, uint32_t value) {
  Device* device = FindDevice(addr);
  if (device == nullptr || (addr & 3) != 0) {
    return false;
  }
  if (device->IsMemory()) {
    ++memory_generation_;
  }
  return device->Write(addr - device->base(), 4, value) == AccessResult::kOk;
}

bool Bus::HostReadBytes(uint32_t addr, uint32_t count,
                        std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(count);
  // All run arithmetic in 64 bits: `addr + i` must not wrap past the top of
  // the address space (a run ending beyond 0xFFFFFFFF fails instead of
  // silently continuing at address 0).
  const uint64_t end = uint64_t{addr} + count;
  if (end > (uint64_t{1} << 32)) {
    return false;
  }
  uint64_t pos = addr;
  while (pos < end) {
    Device* device = FindDevice(static_cast<uint32_t>(pos));
    if (device == nullptr) {
      return false;
    }
    // Read the whole run that falls inside this device without re-routing:
    // one copy from the host backing for memory, byte reads for MMIO.
    const uint64_t run_end = std::min<uint64_t>(end, device->end());
    const uint32_t offset = static_cast<uint32_t>(pos) - device->base();
    const uint32_t len = static_cast<uint32_t>(run_end - pos);
    if (const uint8_t* span = device->HostSpan(offset, len)) {
      out->insert(out->end(), span, span + len);
      pos = run_end;
      continue;
    }
    for (; pos < run_end; ++pos) {
      uint32_t value = 0;
      if (device->Read(static_cast<uint32_t>(pos) - device->base(), 1,
                       &value) != AccessResult::kOk) {
        return false;
      }
      out->push_back(static_cast<uint8_t>(value));
    }
  }
  return true;
}

bool Bus::HostWriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes) {
  const uint64_t end = uint64_t{addr} + bytes.size();
  if (end > (uint64_t{1} << 32)) {
    return false;
  }
  uint64_t pos = addr;
  while (pos < end) {
    Device* device = FindDevice(static_cast<uint32_t>(pos));
    if (device == nullptr) {
      return false;
    }
    if (device->IsMemory()) {
      ++memory_generation_;
    }
    const uint64_t run_end = std::min<uint64_t>(end, device->end());
    for (; pos < run_end; ++pos) {
      if (device->Write(static_cast<uint32_t>(pos) - device->base(), 1,
                        bytes[pos - addr]) != AccessResult::kOk) {
        return false;
      }
    }
  }
  return true;
}

const uint8_t* Bus::HostMemSpan(uint32_t addr, uint32_t len) const {
  // Deliberately bypasses FindDevice: that helper updates the routing memo
  // and counters, and this query must stay free of side effects so the CPU
  // can call it on the superinstruction validate path.
  auto it = std::upper_bound(devices_.begin(), devices_.end(), addr,
                             [](uint32_t a, const Device* d) {
                               return a < d->base();
                             });
  if (it == devices_.begin()) {
    return nullptr;
  }
  const Device* device = *(it - 1);
  if (!device->IsMemory() || !device->Contains(addr) ||
      uint64_t{addr} + len > device->end()) {
    return nullptr;
  }
  return device->HostSpan(addr - device->base(), len);
}

bool Bus::MemWindowFor(uint32_t addr, MemWindow* out) const {
  // Same side-effect-free routing rationale as HostMemSpan (the CPU calls
  // this while building access caches; the memo and counters must not move).
  auto it = std::upper_bound(devices_.begin(), devices_.end(), addr,
                             [](uint32_t a, const Device* d) {
                               return a < d->base();
                             });
  if (it == devices_.begin()) {
    return false;
  }
  Device* device = *(it - 1);
  if (!device->IsMemory() || !device->Contains(addr)) {
    return false;
  }
  const uint8_t* ro = device->HostSpan(0, device->size());
  if (ro == nullptr) {
    return false;
  }
  out->lo = device->base();
  out->len = device->size();
  out->ro = ro;
  out->rw = device->HostMutableSpan(0, device->size());
  out->wait_states =
      device->WaitStates(addr - device->base(), 4, AccessKind::kRead);
  return true;
}

void Bus::ResetDevices() {
  for (Device* device : devices_) {
    device->Reset();
    // Power-on state includes the snapshot epoch: a reset device no longer
    // carries restored-snapshot state, so the stamp must not survive (same
    // stale-telemetry bug class as last_exception_entry_cycles in the CPU).
    device->ClearSnapshotGeneration();
  }
  if (protection_ != nullptr) {
    protection_->Reset();
  }
}

}  // namespace trustlite
