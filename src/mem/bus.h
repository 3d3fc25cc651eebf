// Copyright 2026 The TrustLite Reproduction Authors.
//
// System bus: routes CPU accesses to devices, with an optional protection
// unit checked *before* the access proceeds (the MPU sits on the path of
// every memory and MMIO access, paper Fig. 1/2).
//
// Routing is O(log n) worst case and O(1) on the hot path: the device table
// is kept sorted by base address (ranges never overlap, asserted at Attach)
// and the most recently hit device is memoized — consecutive accesses to
// the same device (the overwhelmingly common case: straight-line fetches
// plus data in one RAM) resolve with two comparisons.

#ifndef TRUSTLITE_SRC_MEM_BUS_H_
#define TRUSTLITE_SRC_MEM_BUS_H_

#include <cstdint>
#include <vector>

#include "src/mem/access.h"
#include "src/mem/device.h"
#include "src/platform/observe/events.h"

namespace trustlite {

// Access-control hook. Implemented by the EA-MPU and by the SMART/Sancus
// baseline overlays. Called for every guest access; may latch fault state.
class ProtectionUnit {
 public:
  virtual ~ProtectionUnit() = default;
  virtual AccessResult Check(const AccessContext& ctx, uint32_t addr,
                             uint32_t width) = 0;
  virtual void Reset() {}
};

// Host-side routing counters (not guest-visible).
struct BusStats {
  uint64_t route_hits = 0;    // FindDevice answered by the memoized device.
  uint64_t route_misses = 0;  // FindDevice fell back to binary search.
};

class Bus {
 public:
  Bus() = default;
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  // Devices are owned by the Platform; the bus only routes. Overlapping
  // ranges are a configuration bug (asserted). The table is kept sorted by
  // base address regardless of attach order.
  void Attach(Device* device);

  void SetProtectionUnit(ProtectionUnit* unit) {
    protection_ = unit;
    ++topology_generation_;
  }
  ProtectionUnit* protection_unit() const { return protection_; }

  // Bumped whenever the access-path topology changes (device attached,
  // protection unit swapped). CPU-side access caches (data windows, fused
  // groups) key on it so a SMART/Sancus overlay installed mid-run instantly
  // invalidates every precomputed access decision.
  uint64_t topology_generation() const { return topology_generation_; }

  // Observability: bus-error telemetry on the guest/engine access paths
  // (alignment, unmapped address, device-rejected access). Null = off.
  // Protection denials are reported by the protection unit itself.
  void SetEventSink(EventSink* sink) { sink_ = sink; }

  // Guest accesses (protection-checked). `width` is 1 or 4. When
  // `wait_states` is non-null it receives the device-inserted wait states
  // for a successful access (0 on fault).
  AccessResult Read(const AccessContext& ctx, uint32_t addr, uint32_t width,
                    uint32_t* value, uint32_t* wait_states = nullptr);
  AccessResult Write(const AccessContext& ctx, uint32_t addr, uint32_t width,
                     uint32_t value, uint32_t* wait_states = nullptr);

  // Host/debug accesses: no protection check, no side effects on fault
  // registers. Used by loaders operating before the MPU is armed, tests and
  // trace tooling. The byte-run helpers resolve the target device once per
  // contiguous device range, not once per byte; HostReadBytes copies a
  // memory device's range straight from its host backing and reads MMIO
  // byte by byte through Device::Read.
  bool HostReadWord(uint32_t addr, uint32_t* value);
  bool HostWriteWord(uint32_t addr, uint32_t value);
  bool HostReadBytes(uint32_t addr, uint32_t count, std::vector<uint8_t>* out);
  bool HostWriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes);

  // Stable host pointer to [addr, addr+len) when the range lies entirely
  // inside one memory-backed device, else null. No protection check and no
  // side effects (in particular the routing memo is untouched); the CPU's
  // superinstruction cache uses the pointer to revalidate fused instruction
  // words against self-modifying stores.
  const uint8_t* HostMemSpan(uint32_t addr, uint32_t len) const;

  // Resolved description of the memory-backed device containing `addr`, for
  // the CPU's data-access windows: guest address range, host backing
  // pointers (rw null when the device rejects guest stores, e.g. PROM), and
  // the device's wait states. Assumes memory devices insert offset- and
  // width-independent wait states (true for Ram/Prom; a future memory device
  // violating this must not be window-eligible). Side-effect-free routing,
  // like HostMemSpan. Returns false for unmapped or non-memory addresses.
  struct MemWindow {
    uint32_t lo = 0;
    uint32_t len = 0;
    const uint8_t* ro = nullptr;
    uint8_t* rw = nullptr;
    uint32_t wait_states = 0;
  };
  bool MemWindowFor(uint32_t addr, MemWindow* out) const;

  Device* FindDevice(uint32_t addr) const;
  // Devices in base-address order.
  const std::vector<Device*>& devices() const { return devices_; }

  // Monotonic counter bumped on every store into a memory-backed device
  // (guest, engine, or host path). Consumers (the CPU decode cache) treat a
  // change as "any instruction word may have changed".
  uint64_t memory_generation() const { return memory_generation_; }

  // Records an out-of-band mutation of memory contents performed directly
  // on a device's backing store, bypassing the bus write path (snapshot
  // restore uses Ram::LoadBytes for speed, and PROM rejects bus writes
  // entirely). Callers must invoke this after such mutations so decode
  // caches revalidate.
  void NoteHostMutation() { ++memory_generation_; }

  // Host-side switch for the last-device routing memo (differential
  // harness). Routing results are identical either way.
  void SetRouteMemo(bool enabled) {
    route_memo_ = enabled;
    last_device_ = nullptr;
  }

  const BusStats& stats() const { return stats_; }

  // Ticks every time-keeping device (Device::WantsTick) and resets them all
  // (platform reset).
  void TickDevices(uint64_t cycles) {
    for (Device* device : tick_devices_) {
      device->Tick(cycles);
    }
  }
  void ResetDevices();

 private:
  void EmitBusError(const AccessContext& ctx, uint32_t addr);

  std::vector<Device*> devices_;       // Sorted by base address.
  std::vector<Device*> tick_devices_;  // Subset with WantsTick().
  ProtectionUnit* protection_ = nullptr;
  EventSink* sink_ = nullptr;
  uint64_t memory_generation_ = 1;
  uint64_t topology_generation_ = 1;
  bool route_memo_ = true;
  mutable Device* last_device_ = nullptr;
  mutable BusStats stats_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_MEM_BUS_H_
