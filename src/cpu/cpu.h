// Copyright 2026 The TrustLite Reproduction Authors.
//
// TL32 CPU core: interpreter, interrupt handling, and the two exception
// engines.
//
// The *regular* engine models a conventional low-cost core: on an exception
// it pushes FLAGS, the resume IP and an error code onto the current stack
// and jumps to the handler; the ISR is responsible for saving any registers
// it uses — which is precisely the information-leak the paper attacks
// (Sec. 3.4.1: registers of an interrupted task are exposed to the ISR/OS).
//
// The *secure* engine (TrustLite's modified exception engine, Fig. 4) adds,
// when the interrupted instruction lies inside an EA-MPU code region that is
// not the OS region:
//   (1) the full CPU state (FLAGS, IP, r0-r12, lr) is pushed onto the
//       *interrupted trustlet's* stack, attributed to the trustlet subject —
//       so a corrupted stack pointer simply faults, terminating the trustlet
//       (paper footnote 1);
//   (2) the resulting stack pointer is stored into the trustlet's Trustlet
//       Table row through a dedicated engine port (the per-region SP_SLOT
//       register of the EA-MPU);
//   (3) all general-purpose registers are cleared;
//   (4) the OS stack pointer is loaded from the OS region's SP_SLOT and the
//       (optionally sanitized) faulting IP plus an error code are pushed
//       onto the OS stack; the ISR starts with a clean register file.
//
// Stack frame written by the secure engine on the trustlet stack (offsets
// from the final saved SP):
//   +0 .. +48   r0 .. r12
//   +52         lr (r14)
//   +56         r15
//   +60         resume IP
//   +64         FLAGS
// A trustlet's continue() entry restores r0..r12/lr/r15 from this frame,
// adds 60 to SP and executes IRET (pops IP then FLAGS).
//
// Frame on the OS/current stack:
//   regular path: [FLAGS][resume IP][error]   (error on top; ISR pops error
//                                              and IRETs)
//   trustlet path: [faulting IP][error]       (ISR must not IRET; it defers
//                                              to the scheduler / continue())
// Error code: low 8 bits = exception class / vector; bit 31 set when a
// trustlet was interrupted (the ISR could equally look the faulting IP up in
// the Trustlet Table, Sec. 3.4.2 — the bit is a convenience).

#ifndef TRUSTLITE_SRC_CPU_CPU_H_
#define TRUSTLITE_SRC_CPU_CPU_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/cpu/cycle_model.h"
#include "src/dev/sysctl.h"
#include "src/isa/isa.h"
#include "src/mem/bus.h"
#include "src/mpu/ea_mpu.h"
#include "src/platform/observe/events.h"

namespace trustlite {

// FLAGS register bits.
inline constexpr uint32_t kFlagIf = 1u << 0;    // Interrupts enabled.
inline constexpr uint32_t kFlagUser = 1u << 1;  // User mode (compat MPU).

// Error-code fields pushed by the exception engine.
inline constexpr uint32_t kErrorFromTrustlet = 1u << 31;
inline constexpr uint32_t kErrorClassMask = 0xFF;

// Exception classes as they appear in error codes.
inline constexpr uint32_t kExcMpuFault = 0;
inline constexpr uint32_t kExcIllegal = 1;
inline constexpr uint32_t kExcBusError = 2;
inline constexpr uint32_t kExcAlign = 3;
// A protection unit demanded a platform reset (SMART/Sancus semantics).
// Never dispatched to software: the CPU halts with this trap class and the
// platform model performs the reset + memory sanitization.
inline constexpr uint32_t kExcReset = 4;
inline constexpr uint32_t kExcIrqBase = 8;   // + IRQ line
inline constexpr uint32_t kExcSwiBase = 16;  // + SWI vector

enum class StepEvent : uint8_t {
  kExecuted,    // One instruction retired.
  kException,   // Exception entry performed (fault or SWI).
  kInterrupt,   // Hardware IRQ entry performed.
  kHalted,      // CPU is halted (HALT executed or unrecoverable trap).
};

// Details of the trap that halted the CPU (unhandled exception / double
// fault); for post-mortem inspection by tests and examples.
struct TrapInfo {
  bool valid = false;
  uint32_t exception_class = 0;
  uint32_t ip = 0;
  uint32_t addr = 0;
  const char* reason = "";
};

struct CpuConfig {
  // Enables the TrustLite secure exception engine. Requires an EA-MPU to be
  // attached; without one every exception takes the regular path.
  bool secure_exceptions = false;
  // Report the interrupted trustlet's entry address instead of the precise
  // faulting IP to the ISR (Sec. 3.4.2: "the reported faulting IP of
  // trustlets can be sanitized to always point to the trustlet's entry
  // vector").
  bool sanitize_faulting_ip = false;
  // Host-side switch for the decoded-instruction cache and the data-access
  // windows (differential harness). Guest-visible behavior must be
  // identical either way.
  bool decode_cache = true;
  // Host-side switch for superinstruction fusion over the decode cache
  // (pairs-and-quads of straight-line instructions retired from one fused
  // entry). Only effective inside Run()/RunUntilCycle() with the decode
  // cache on; Step() always dispatches one instruction. Platform overwrites
  // decode_cache and fusion from PlatformConfig::fast_path / fusion, so a
  // fusion-off trial on a Platform flips PlatformConfig::fusion.
  bool fusion = true;
  CycleModel cycles;
};

// Host-side execution counters. Semantics across Cpu::Reset / Platform::
// HardReset: *cumulative* — a reset clears architectural state (registers,
// IP, FLAGS, halt latch, trap record, last_exception_entry_cycles) but
// neither the cycle counter nor these stats, so boot-cost benches and
// mid-run reset campaigns (fault injector) keep a monotonic view. Consumers
// that want per-window numbers snapshot and subtract.
struct CpuStats {
  uint64_t instructions = 0;
  uint64_t exceptions = 0;
  uint64_t interrupts = 0;
  uint64_t trustlet_interrupts = 0;  // Secure-engine full-save entries.
  // Decoded-instruction cache counters (host-side simulation detail).
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  // Superinstruction fusion counters (host-side simulation detail, like the
  // decode counters: not architectural, not compared by the differential
  // harness, not part of ArchState).
  uint64_t fusion_groups = 0;         // Fused groups dispatched.
  uint64_t fusion_retired = 0;        // Instructions retired inside groups.
  uint64_t fusion_builds = 0;         // Build attempts (incl. tombstones).
  uint64_t fusion_invalidations = 0;  // Entries dropped by revalidation.
  // Data-access window counters (host-side simulation detail): loads/stores
  // served from a resolved window vs through the full bus path.
  uint64_t data_window_hits = 0;
  uint64_t data_window_misses = 0;
};

class Cpu {
 public:
  Cpu(Bus* bus, SysCtl* sysctl, const CpuConfig& config);

  // Wires the EA-MPU used by the secure exception engine (may be null).
  void AttachMpu(EaMpu* mpu) { mpu_ = mpu; }

  // Registers an IRQ source (typically every bus device with irq_line >= 0).
  void AddIrqSource(Device* device);

  // Handler invoked for Sancus pseudo-instructions (protect/unprotect/
  // attest); returns true if handled, false -> illegal instruction.
  using SancusHook = std::function<bool(const Instruction&, Cpu*)>;
  void SetSancusHook(SancusHook hook) { sancus_hook_ = std::move(hook); }

  // Optional interrupt admission hook: returning false for the interrupted
  // IP models architectures that cannot take interrupts in protected code
  // (Sancus resets the platform instead, paper Sec. 1/7).
  using InterruptGuard = std::function<bool(uint32_t ip)>;
  void SetInterruptGuard(InterruptGuard guard) {
    interrupt_guard_ = std::move(guard);
  }

  // Charges extra cycles (used by instruction hooks modelling hardware
  // engines, e.g. the Sancus MAC unit).
  void AddCycles(uint64_t cycles) { cycles_ += cycles; }

  // Structured-event sink for the observability layer (normally the
  // Platform's EventHub; null = tracing off). `want_insn` gates the
  // per-retire InsnEvent separately so rare-event consumers keep the retire
  // loop untouched; it is sampled here, not per instruction.
  void SetEventSink(EventSink* sink, bool want_insn) {
    sink_ = sink;
    insn_sink_ = want_insn ? sink : nullptr;
  }

  // Disables superinstruction fusion and the data-access windows while a
  // consumer wants per-access MpuCheckEvents: both precompute protection
  // decisions (fused tail fetches at build time, window loads/stores at
  // window-build time), so the per-check event stream would under-report.
  // Wired by Platform::RewireEventSinks.
  void SetFusionSuppressed(bool suppressed) {
    fusion_suppressed_ = suppressed;
    data_window_enabled_ = config_.decode_cache && !suppressed;
    if (suppressed) {
      read_window_ = DataWindow{};
      write_window_ = DataWindow{};
    }
  }

  // Power-on / platform reset: registers cleared, IP at the PROM reset
  // vector, interrupts disabled. Memory is untouched.
  void Reset(uint32_t reset_vector);

  // Executes one instruction or exception transition.
  StepEvent Step();

  // Runs until HALT, trap, or `max_instructions` retired. Returns the final
  // event.
  StepEvent Run(uint64_t max_instructions);

  // Runs until the cycle counter reaches `target_cycle` (or HALT/trap).
  // The last instruction may overshoot the target by its own cost; the
  // fleet executor's quantum barrier relies only on "no instruction
  // *starts* at or after the target". Returns immediately when already
  // halted or past the target.
  StepEvent RunUntilCycle(uint64_t target_cycle);

  // --- State access ---
  uint32_t reg(int index) const { return regs_[index]; }
  void set_reg(int index, uint32_t value) { regs_[index] = value; }
  uint32_t ip() const { return ip_; }
  void set_ip(uint32_t value) { ip_ = value; }
  uint32_t flags() const { return flags_; }
  void set_flags(uint32_t value) { flags_ = value; }
  bool halted() const { return halted_; }
  uint64_t cycles() const { return cycles_; }
  const CpuStats& stats() const { return stats_; }
  const TrapInfo& trap() const { return trap_; }
  const CpuConfig& config() const { return config_; }
  Bus* bus() const { return bus_; }

  // Last exception-entry cost in cycles (from recognition to the first ISR
  // instruction) — the quantity measured in Sec. 5.4.
  uint32_t last_exception_entry_cycles() const {
    return last_exception_entry_cycles_;
  }

  // --- Snapshot support (DESIGN.md §14) ---
  // Everything guest-visible plus the architectural execution counters.
  // Decode-cache counters stay host telemetry (cumulative across restores,
  // like across HardReset); TrapInfo::reason is a static string and travels
  // only within the process — a restore from disk repoints it at a generic
  // placeholder (no comparison or digest consumes it).
  struct ArchState {
    uint32_t regs[kNumRegisters] = {};
    uint32_t ip = 0;
    uint32_t prev_ip = 0;
    uint32_t flags = 0;
    bool halted = false;
    uint64_t cycles = 0;
    uint32_t last_exception_entry_cycles = 0;
    TrapInfo trap;
    uint64_t instructions = 0;
    uint64_t exceptions = 0;
    uint64_t interrupts = 0;
    uint64_t trustlet_interrupts = 0;
  };
  ArchState SaveArchState() const;
  // Installs `state` and invalidates the decode cache (the snapshot restore
  // path rewrites memory behind the bus).
  void RestoreArchState(const ArchState& state);

 private:
  struct ExecOutcome {
    bool control_transfer = false;
    bool halted = false;
    uint32_t cycles = 0;
    // Fault raised by the instruction (memory/illegal); nullopt otherwise.
    std::optional<uint32_t> fault_class;
    uint32_t fault_addr = 0;
  };

  AccessContext DataContext(AccessKind kind) const;

  ExecOutcome Execute(const Instruction& insn);

  // --- Shared step machinery (used by Step() and RunLoop()) ---
  // Interrupt recognition, alignment check, fetch and decode-cache lookup.
  // Returns the instruction at ip_ (its raw word in *word), or nullptr when
  // the step was consumed by an interrupt or exception entry, with *event
  // set.
  const Instruction* FetchDecode(uint64_t cycles_before, uint32_t* word,
                                 StepEvent* event);
  // Interrupt recognition after the kFlagIf gate: returns true when the
  // step was consumed (guard reset or exception entry), with *event set;
  // false for no-pending and for the spurious ack-and-drop case.
  bool RecognizeIrq(StepEvent* event, uint64_t cycles_before);
  // Fetch-side fault entry (misaligned IP, fetch MPU/bus fault). The
  // interrupted subject is prev_ip_ (the jumper), per the entry-vector rule.
  StepEvent TakeFetchFault(uint32_t exception_class, uint64_t cycles_before);
  // Executes the instruction at ip_, then does the cycle/prev_ip
  // bookkeeping, fault dispatch, retire accounting, events, IP advance and
  // device ticks.
  StepEvent ExecuteOne(const Instruction& insn, uint32_t word,
                       uint64_t cycles_before);

  // Interpreter loop behind Run()/RunUntilCycle(): FetchDecode, then a
  // fused group or ExecuteOne. `cycle_bound` selects the RunUntilCycle
  // contract (no instruction starts at or after target_cycle) over the
  // retired-instruction budget. Guest-visible behavior is identical to the
  // equivalent Step() loop; verified by the differential harness.
  StepEvent RunLoop(uint64_t max_instructions, uint64_t target_cycle,
                    bool cycle_bound);

  uint64_t CurrentMpuGeneration() const {
    return mpu_ != nullptr ? mpu_->config_generation() : 0;
  }

  // Takes an exception or interrupt. `resume_ip` is where execution should
  // continue (the faulting instruction for faults, the next instruction for
  // IRQs/SWIs); `subject_ip` identifies the interrupted code (for fetch
  // faults this is the jumper, not the never-executed target). Returns
  // false if the CPU halted (unhandled trap).
  bool EnterException(uint32_t exception_class, uint32_t handler,
                      uint32_t fault_addr, uint32_t resume_ip,
                      uint32_t subject_ip);

  // Secure-engine helper: full state save to the trustlet stack. Returns
  // false if a save access faulted (trustlet is terminated per footnote 1).
  bool SaveTrustletState(int region_index, uint32_t resume_ip,
                         uint32_t subject_ip);

  void HaltWithTrap(uint32_t exception_class, uint32_t addr, const char* why);

  bool PendingIrq(Device** source) const;

  // Slot of the instruction at `ip` in a direct-mapped instruction cache of
  // `size` entries (a power of two, at least 8); the one index shared by the
  // decode and fusion caches. The plain word index `ip >> 2` maps every
  // 4 KiB page onto the same slots, and TrustLite starts each trustlet's
  // code at the bottom of its own region (the fleet image puts the FW
  // trustlet at 0x11000, the attestation trustlet at 0x15000 and nanOS at
  // 0x20000), so every context switch would evict the code it returns to.
  // The 20-bit page number is XOR-folded to 3 bits and XORed into the
  // index's top three bits, which hot code at low page offsets leaves clear:
  // pages that fold to different values share no slot until one of them
  // runs hot code past word `size / 8` of its page (128 words for decode,
  // 64 for fusion). Folding into the low bits instead would not help, since
  // that is where the hot code of every page already collides.
  static constexpr uint32_t CacheIndex(uint32_t ip, uint32_t size) {
    uint32_t page = ip >> 12;
    page ^= page >> 12;
    page ^= page >> 6;
    page ^= page >> 3;
    const int shift = std::countr_zero(size) - 3;
    return ((ip >> 2) ^ ((page & 7u) << shift)) & (size - 1);
  }

  // Direct-mapped decoded-instruction cache, indexed by CacheIndex. Every
  // fetch still goes through the bus (so MPU checks and device semantics are
  // untouched); the cache only skips re-running Decode() on the fetched
  // word. An entry is used when its address AND raw word match the fetched
  // word, which makes it exact even for self-modifying code (the slot choice
  // is a pure placement decision); the bus memory generation marks entries
  // written since they were filled, so a stale-generation entry is
  // revalidated against the fresh word before reuse.
  struct DecodeEntry {
    uint32_t addr = 0;
    uint32_t word = 0;
    uint64_t generation = 0;  // Bus memory generation at fill/revalidate.
    bool valid = false;
    Instruction insn;
  };
  static constexpr uint32_t kDecodeCacheSize = 1024;  // Power of two.

  // Superinstruction cache (DESIGN.md §15), direct-mapped by the head's
  // CacheIndex. A fused entry covers 2..4 consecutive straight-line
  // instructions starting at head_addr; only the head pays the real bus
  // fetch (and its MPU fetch check) — the tail constituents' fetch
  // permissions are precomputed with the EA-MPU's advisory query and pinned
  // to mpu_generation, and their instruction words are revalidated through
  // stable host backing pointers whenever the bus memory generation moved
  // (self-modifying code, loaders, snapshot restore). count == 1 marks a
  // tombstone: the head is not fusable, don't retry until its word or the
  // MPU configuration changes.
  static constexpr int kMaxFusedOps = 4;
  struct FusedOp {
    Instruction insn;
    uint32_t addr = 0;
    uint32_t word = 0;
    const uint8_t* backing = nullptr;  // Host pointer to the word's bytes.
  };
  struct FusionEntry {
    uint32_t head_addr = 0;
    uint64_t mem_generation = 0;  // Bus memory generation at build/revalidate.
    uint64_t mpu_generation = 0;  // EA-MPU config generation at build.
    uint64_t topology_generation = 0;  // Bus topology generation at build.
    bool valid = false;
    bool user_mode = false;  // FLAGS.User at build (fetch privilege).
    uint8_t count = 0;       // 1 = tombstone; 2..4 = fused group.
    FusedOp ops[kMaxFusedOps];
  };
  static constexpr uint32_t kFusionCacheSize = 512;  // Power of two.

  // The validated fused group headed by the instruction at ip_ (fetched
  // as `word`, decoded as `head`), building or revalidating its entry; null
  // when fusion is off, the head is tombstoned or a tail word changed.
  FusionEntry* FusionGroupFor(const Instruction& head, uint32_t word);
  // Builds (or tombstones) the fusion entry for the instruction at
  // `head_ip`, already fetched as `head_word` and decoded as `head`.
  void BuildFusionGroup(FusionEntry& entry, uint32_t head_ip,
                        uint32_t head_word, const Instruction& head,
                        uint64_t mem_gen);
  // Executes a validated group; retires constituents until the group ends
  // or an architectural event (fault, IRQ window, budget/cycle bound,
  // invalidation) stops it. Returns the last per-instruction event and
  // bumps *safety once per constituent, as RunLoop does per instruction.
  StepEvent ExecuteFusedGroup(FusionEntry& entry, uint64_t max_instructions,
                              uint64_t target_cycle, bool cycle_bound,
                              uint64_t start_instructions, uint64_t* safety);

  // Data-access window (DESIGN.md §15): a resolved guest address range,
  // inside one memory device, over which a load (read window) or store
  // (write window) by the current subject is uniformly allowed — the
  // intersection of the device's span and the EA-MPU's homogeneous-decision
  // interval (EaMpu::DataWindowFor). A covered access bypasses the bus
  // entirely: no protection Check, no routing, no virtual dispatch. Validity
  // is re-established per access: the accessing IP must sit in the subject
  // interval, FLAGS.User, the EA-MPU config generation and the bus topology
  // generation must match the build. Window stores go straight to host
  // memory, so they bump the bus memory generation themselves (the decode
  // and fusion caches revalidate through it). len == 0 means invalid.
  struct DataWindow {
    uint32_t lo = 0;
    uint32_t len = 0;
    uint32_t subj_lo = 0;
    uint64_t subj_hi = 0;          // Exclusive; 2^32 expressible.
    const uint8_t* ro = nullptr;   // Host pointer at lo.
    uint8_t* rw = nullptr;         // Non-null only for the write window.
    uint32_t wait_states = 0;
    uint64_t mpu_generation = 0;
    uint64_t topology_generation = 0;
    bool user_mode = false;
  };
  bool WindowCovers(const DataWindow& w, uint32_t addr, uint32_t width) const {
    return width <= w.len && addr - w.lo <= w.len - width &&
           ip_ >= w.subj_lo && ip_ < w.subj_hi &&
           w.user_mode == ((flags_ & kFlagUser) != 0) &&
           w.mpu_generation == CurrentMpuGeneration() &&
           w.topology_generation == bus_->topology_generation();
  }
  // Rebuilds the read or write window around `addr` after a successful
  // full-path access (no-op when ineligible: window disabled, foreign
  // protection unit, non-memory target, denied or untangled coverage).
  void TryBuildDataWindow(bool is_write, uint32_t addr);

  Bus* bus_;
  SysCtl* sysctl_;
  EaMpu* mpu_ = nullptr;
  EventSink* sink_ = nullptr;       // All event classes except InsnEvent.
  EventSink* insn_sink_ = nullptr;  // Per-retire events; null unless wanted.
  CpuConfig config_;
  SancusHook sancus_hook_;
  InterruptGuard interrupt_guard_;
  std::vector<Device*> irq_sources_;

  uint32_t regs_[kNumRegisters] = {};
  uint32_t ip_ = 0;
  // Address of the most recently executed instruction: the *subject* of the
  // next fetch (paper Fig. 2 checks next_IP against rules with curr_IP as
  // the subject — this is what confines foreign execution to entry vectors).
  // Exception entry re-bases it to the handler (hardware vectoring).
  uint32_t prev_ip_ = 0;
  uint32_t flags_ = 0;
  bool halted_ = false;
  uint64_t cycles_ = 0;
  uint32_t last_exception_entry_cycles_ = 0;
  CpuStats stats_;
  TrapInfo trap_;
  std::vector<DecodeEntry> decode_cache_;
  std::vector<FusionEntry> fusion_cache_;
  bool fusion_suppressed_ = false;
  bool data_window_enabled_ = false;
  DataWindow read_window_;
  DataWindow write_window_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_CPU_CPU_H_
