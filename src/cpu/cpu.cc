// Copyright 2026 The TrustLite Reproduction Authors.
//
// Interpreter core: one fetch-decode-execute path. FetchDecode() (interrupt
// recognition, alignment check, fetch, decode cache) and ExecuteOne()
// (Execute()'s switch plus retire bookkeeping) serve both the public
// single-step entry Step() and the RunLoop() behind Run()/RunUntilCycle();
// the run loop adds only the superinstruction-fusion hook between the two.

#include "src/cpu/cpu.h"

#include <algorithm>
#include <cassert>

namespace trustlite {

namespace {

// Maps a bus access result onto the exception class ladder used everywhere
// an access can fault (loads, stores, IRET pops, fetches).
constexpr uint32_t ExcClassOf(AccessResult r) {
  return r == AccessResult::kProtFault    ? kExcMpuFault
         : r == AccessResult::kAlignFault ? kExcAlign
         : r == AccessResult::kReset      ? kExcReset
                                          : kExcBusError;
}

// Guest memory is little-endian; fused-entry revalidation reassembles the
// instruction word from the device's host backing bytes, and the data-access
// windows read/write guest memory through the same stable pointers.
inline uint32_t LoadWordLe(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreWordLe(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

constexpr int32_t Signed(uint32_t v) { return static_cast<int32_t>(v); }

constexpr uint32_t ShiftRightArith(uint32_t v, uint32_t shift) {
  return static_cast<uint32_t>(Signed(v) >> (shift & 31));
}

// Opcodes allowed in the interior of a fused group: straight-line, cannot
// redirect control, and any fault they raise is delivered precisely by
// ExecuteOne. SWI is excluded (it is an exception by construction), as
// are IRET (restores FLAGS, may change privilege mid-group) and the Sancus
// pseudo-instructions (their hook may reconfigure protection or memory).
constexpr bool FusableInterior(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSra:
    case Opcode::kMul:
    case Opcode::kSltu:
    case Opcode::kSlt:
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri:
    case Opcode::kSrai:
    case Opcode::kMovi:
    case Opcode::kLui:
    case Opcode::kLdw:
    case Opcode::kLdb:
    case Opcode::kStw:
    case Opcode::kStb:
    case Opcode::kCli:
    case Opcode::kSti:
      return true;
    default:
      return false;
  }
}

// Opcodes that may terminate a fused group: they end the straight-line run
// (control transfer or halt), so nothing is prefetched past them.
inline bool FusableTail(Opcode op) {
  return IsBranch(op) || IsJump(op) || op == Opcode::kHalt;
}

}  // namespace

Cpu::Cpu(Bus* bus, SysCtl* sysctl, const CpuConfig& config)
    : bus_(bus), sysctl_(sysctl), config_(config) {
  assert(bus_ != nullptr);
  assert(sysctl_ != nullptr);
  decode_cache_.resize(kDecodeCacheSize);
  fusion_cache_.resize(kFusionCacheSize);
  data_window_enabled_ = config_.decode_cache;
}

void Cpu::AddIrqSource(Device* device) {
  assert(device->irq_line() >= 0);
  // Keep the list ordered by IRQ line (priority) with a sorted insert
  // instead of re-sorting the whole vector on every registration.
  irq_sources_.insert(
      std::upper_bound(irq_sources_.begin(), irq_sources_.end(), device,
                       [](const Device* a, const Device* b) {
                         return a->irq_line() < b->irq_line();
                       }),
      device);
}

void Cpu::Reset(uint32_t reset_vector) {
  for (uint32_t& reg : regs_) {
    reg = 0;
  }
  ip_ = reset_vector;
  prev_ip_ = reset_vector;
  flags_ = 0;
  halted_ = false;
  trap_ = TrapInfo{};
  // Architectural per-run state is cleared; without this a post-reset read
  // of last_exception_entry_cycles() would report the entry cost of an
  // exception taken in the *previous* run (stale-counter bug hit by the
  // fault injector's mid-run reset campaigns).
  last_exception_entry_cycles_ = 0;
  // Cycle counter and stats persist across reset so boot-cost benches can
  // measure the re-initialization itself (see CpuStats in cpu.h).
  // Decode and fusion caches survive too: both revalidate against the
  // fetched word / memory generation / MPU generation, and the EA-MPU's
  // Reset() bumps its config generation, which alone invalidates every
  // fused group built under the pre-reset protection layout.
}

AccessContext Cpu::DataContext(AccessKind kind) const {
  AccessContext ctx;
  ctx.curr_ip = ip_;
  ctx.kind = kind;
  ctx.privileged = (flags_ & kFlagUser) == 0;
  return ctx;
}

void Cpu::HaltWithTrap(uint32_t exception_class, uint32_t addr,
                       const char* why) {
  halted_ = true;
  trap_.valid = true;
  trap_.exception_class = exception_class;
  trap_.ip = ip_;
  trap_.addr = addr;
  trap_.reason = why;
  if (sink_ != nullptr) {
    HaltEvent event;
    event.cycle = cycles_;
    event.ip = ip_;
    event.trap = true;
    event.trap_class = exception_class;
    sink_->OnHalt(event);
  }
}

bool Cpu::PendingIrq(Device** source) const {
  for (Device* device : irq_sources_) {
    if (device->IrqPending()) {
      *source = device;
      return true;
    }
  }
  return false;
}

bool Cpu::SaveTrustletState(int region_index, uint32_t resume_ip,
                            uint32_t subject_ip) {
  // All writes are attributed to the interrupted trustlet: the engine reuses
  // the trustlet's own store path, so a bogus stack pointer faults exactly
  // like a trustlet store would (paper footnote 1).
  AccessContext ctx = DataContext(AccessKind::kWrite);
  ctx.curr_ip = subject_ip;
  uint32_t sp = regs_[kRegSp];
  auto push = [&](uint32_t value) {
    sp -= 4;
    return bus_->Write(ctx, sp, 4, value) == AccessResult::kOk;
  };
  if (!push(flags_) || !push(resume_ip) || !push(regs_[15]) ||
      !push(regs_[kRegLr])) {
    return false;
  }
  for (int i = 12; i >= 0; --i) {
    if (!push(regs_[i])) {
      return false;
    }
  }
  // Store the saved SP into the Trustlet Table row via the engine port.
  const MpuRegion& region = mpu_->region(region_index);
  AccessContext engine_ctx;
  engine_ctx.engine = true;
  engine_ctx.kind = AccessKind::kWrite;
  if (bus_->Write(engine_ctx, region.sp_slot, 4, sp) != AccessResult::kOk) {
    return false;
  }
  return true;
}

bool Cpu::EnterException(uint32_t exception_class, uint32_t handler,
                         uint32_t fault_addr, uint32_t resume_ip,
                         uint32_t subject_ip) {
  ++stats_.exceptions;
  uint32_t entry_cycles = config_.cycles.exception_base;

  // Determine whether the secure engine must perform a full state save.
  bool trustlet_path = false;
  int region_index = -1;
  uint32_t trustlet_entry_addr = 0;

  // Every terminal of this function reports the completed (or failed)
  // transition; by-reference capture picks up the final entry_cycles /
  // trustlet_path values.
  const auto emit_trap = [&](uint32_t effective_handler, bool halt) {
    if (sink_ == nullptr) {
      return;
    }
    TrapEvent event;
    event.cycle = cycles_;
    event.exception_class = exception_class;
    event.handler = effective_handler;
    event.fault_addr = fault_addr;
    event.resume_ip = resume_ip;
    event.subject_ip = subject_ip;
    event.entry_cycles = entry_cycles;
    event.trustlet_entry = trustlet_entry_addr;
    event.interrupt =
        exception_class >= kExcIrqBase && exception_class < kExcSwiBase;
    event.trustlet_path = trustlet_path;
    event.halted = halt;
    sink_->OnTrap(event);
  };
  if (config_.secure_exceptions && mpu_ != nullptr && mpu_->enabled()) {
    entry_cycles += config_.cycles.secure_detect;
    const std::optional<int> region = mpu_->FindCodeRegion(subject_ip);
    if (region.has_value()) {
      const MpuRegion& r = mpu_->region(*region);
      if ((r.attr & kMpuAttrOs) == 0 && r.sp_slot != 0) {
        trustlet_path = true;
        region_index = *region;
      }
    }
  }

  if (handler == 0) {
    // Unhandled trap. If a trustlet was interrupted, its GPRs must still be
    // cleared before the CPU parks: the halt is followed by a reset and the
    // Secure Loader, and nothing on that path may observe trustlet state
    // (the register-clear step of Fig. 4 is unconditional).
    if (trustlet_path) {
      for (uint32_t& reg : regs_) {
        reg = 0;
      }
    }
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(0, true);
    HaltWithTrap(exception_class, fault_addr, "unhandled exception");
    return false;
  }

  if (!trustlet_path) {
    // Regular path: [FLAGS][resume IP][error] on the current stack. The ISR
    // saves any registers it clobbers — nothing is cleared.
    AccessContext ctx = DataContext(AccessKind::kWrite);
    ctx.curr_ip = subject_ip;
    uint32_t sp = regs_[kRegSp];
    auto push = [&](uint32_t value) {
      sp -= 4;
      return bus_->Write(ctx, sp, 4, value) == AccessResult::kOk;
    };
    if (!push(flags_) || !push(resume_ip) || !push(exception_class)) {
      cycles_ += entry_cycles;
      last_exception_entry_cycles_ = entry_cycles;
      emit_trap(handler, true);
      HaltWithTrap(exception_class, sp, "double fault (exception frame)");
      return false;
    }
    regs_[kRegSp] = sp;
    flags_ &= ~(kFlagIf | kFlagUser);
    ip_ = handler;
    prev_ip_ = handler;  // Hardware vectoring: the handler fetch is trusted.
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(handler, false);
    return true;
  }

  // Secure path.
  entry_cycles += config_.cycles.secure_state_save;
  entry_cycles += config_.cycles.secure_clear_and_sp;
  ++stats_.trustlet_interrupts;

  const bool saved = SaveTrustletState(region_index, resume_ip, subject_ip);
  const uint32_t trustlet_entry = mpu_->region(region_index).base;
  trustlet_entry_addr = trustlet_entry;
  // Registers are cleared unconditionally: even when the save failed (the
  // trustlet is terminated, footnote 1), nothing may leak into the ISR.
  for (uint32_t& reg : regs_) {
    reg = 0;
  }

  // Locate the OS region and restore its stack pointer from the Trustlet
  // Table (step 3 of Fig. 4).
  uint32_t os_sp = 0;
  bool have_os = false;
  for (int i = 0; i < mpu_->num_regions(); ++i) {
    const MpuRegion& r = mpu_->region(i);
    if (r.enabled() && (r.attr & kMpuAttrOs) != 0 && r.sp_slot != 0) {
      AccessContext engine_ctx;
      engine_ctx.engine = true;
      engine_ctx.kind = AccessKind::kRead;
      if (bus_->Read(engine_ctx, r.sp_slot, 4, &os_sp) == AccessResult::kOk) {
        have_os = true;
      }
      break;
    }
  }
  if (!have_os) {
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(handler, true);
    HaltWithTrap(exception_class, fault_addr, "no OS stack configured");
    return false;
  }

  // A failed save means the trustlet's stack was unusable; the event is
  // reported as a memory protection fault (paper footnote 1) through the
  // MPU-fault handler.
  uint32_t effective_handler = handler;
  if (!saved) {
    effective_handler = sysctl_->HandlerFor(ExceptionClass::kMpuFault);
    if (effective_handler == 0) {
      cycles_ += entry_cycles;
      last_exception_entry_cycles_ = entry_cycles;
      emit_trap(0, true);
      HaltWithTrap(kExcMpuFault, fault_addr,
                   "trustlet terminated, no MPU fault handler");
      return false;
    }
  }

  // Push [faulting IP][error] onto the OS stack. These stores execute with
  // the handler's authority (the engine is completing the switch into the
  // ISR context).
  const uint32_t reported_ip =
      (config_.sanitize_faulting_ip || !saved) ? trustlet_entry : subject_ip;
  AccessContext os_ctx;
  os_ctx.curr_ip = effective_handler;
  os_ctx.kind = AccessKind::kWrite;
  os_ctx.privileged = true;
  uint32_t sp = os_sp;
  auto push_os = [&](uint32_t value) {
    sp -= 4;
    return bus_->Write(os_ctx, sp, 4, value) == AccessResult::kOk;
  };
  uint32_t error = exception_class | kErrorFromTrustlet;
  if (!saved) {
    error = kExcMpuFault | kErrorFromTrustlet;
  }
  if (!push_os(reported_ip) || !push_os(error)) {
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(effective_handler, true);
    HaltWithTrap(exception_class, sp, "double fault (OS stack)");
    return false;
  }
  regs_[kRegSp] = sp;
  flags_ &= ~(kFlagIf | kFlagUser);
  ip_ = effective_handler;
  prev_ip_ = effective_handler;
  cycles_ += entry_cycles;
  last_exception_entry_cycles_ = entry_cycles;
  emit_trap(effective_handler, false);
  return true;
}

Cpu::ExecOutcome Cpu::Execute(const Instruction& insn) {
  const CycleModel& c = config_.cycles;
  ExecOutcome out;
  out.cycles = c.alu;
  uint32_t& rd = regs_[insn.rd];
  const uint32_t rs1 = regs_[insn.rs1];
  const uint32_t rs2 = regs_[insn.rs2];
  const uint32_t imm = static_cast<uint32_t>(insn.imm);

  const auto branch = [&](bool taken) {
    if (taken) {
      ip_ += imm;
      out.control_transfer = true;
      out.cycles = c.control_taken;
    } else {
      out.cycles = c.control_not_taken;
    }
  };
  const auto jump = [&](uint32_t target) {
    ip_ = target;
    out.control_transfer = true;
    out.cycles = c.control_taken;
  };
  const auto fault = [&](uint32_t exception_class, uint32_t addr) {
    out.fault_class = exception_class;
    out.fault_addr = addr;
  };
  // Loads and stores go through the resolved data window when it covers
  // the access, and through the bus (then try to build a window) otherwise.
  const auto load = [&](uint32_t width) {
    const uint32_t addr = rs1 + imm;
    if ((width == 1 || (addr & 3) == 0) &&
        WindowCovers(read_window_, addr, width)) {
      ++stats_.data_window_hits;
      const uint8_t* p = read_window_.ro + (addr - read_window_.lo);
      rd = width == 4 ? LoadWordLe(p) : p[0];
      out.cycles = c.memory + read_window_.wait_states;
      return;
    }
    uint32_t value = 0;
    uint32_t wait = 0;
    const AccessResult r =
        bus_->Read(DataContext(AccessKind::kRead), addr, width, &value, &wait);
    if (r != AccessResult::kOk) {
      fault(ExcClassOf(r), addr);
      return;
    }
    rd = value;
    out.cycles = c.memory + wait;
    if (data_window_enabled_) {
      TryBuildDataWindow(/*is_write=*/false, addr);
    }
  };
  const auto store = [&](uint32_t width) {
    const uint32_t addr = rs1 + imm;
    if ((width == 1 || (addr & 3) == 0) &&
        WindowCovers(write_window_, addr, width)) {
      ++stats_.data_window_hits;
      uint8_t* p = write_window_.rw + (addr - write_window_.lo);
      if (width == 4) {
        StoreWordLe(p, rd);
      } else {
        p[0] = static_cast<uint8_t>(rd);
      }
      // The store bypassed Bus::Write: bump the memory generation so the
      // decode and fusion caches revalidate, exactly as a bus store would.
      bus_->NoteHostMutation();
      out.cycles = c.memory + write_window_.wait_states;
      return;
    }
    uint32_t wait = 0;
    const AccessResult r = bus_->Write(DataContext(AccessKind::kWrite), addr,
                                       width, rd, &wait);
    if (r != AccessResult::kOk) {
      fault(ExcClassOf(r), addr);
      return;
    }
    out.cycles = c.memory + wait;
    if (data_window_enabled_) {
      TryBuildDataWindow(/*is_write=*/true, addr);
    }
  };

  switch (insn.opcode) {
    case Opcode::kNop: break;
    case Opcode::kHalt: out.halted = true; break;
    case Opcode::kAdd: rd = rs1 + rs2; break;
    case Opcode::kSub: rd = rs1 - rs2; break;
    case Opcode::kAnd: rd = rs1 & rs2; break;
    case Opcode::kOr: rd = rs1 | rs2; break;
    case Opcode::kXor: rd = rs1 ^ rs2; break;
    case Opcode::kShl: rd = rs1 << (rs2 & 31); break;
    case Opcode::kShr: rd = rs1 >> (rs2 & 31); break;
    case Opcode::kSra: rd = ShiftRightArith(rs1, rs2); break;
    case Opcode::kMul: rd = rs1 * rs2; out.cycles = c.mul; break;
    case Opcode::kSltu: rd = rs1 < rs2 ? 1 : 0; break;
    case Opcode::kSlt: rd = Signed(rs1) < Signed(rs2) ? 1 : 0; break;
    case Opcode::kAddi: rd = rs1 + imm; break;
    case Opcode::kAndi: rd = rs1 & imm; break;
    case Opcode::kOri: rd = rs1 | imm; break;
    case Opcode::kXori: rd = rs1 ^ imm; break;
    case Opcode::kShli: rd = rs1 << (imm & 31); break;
    case Opcode::kShri: rd = rs1 >> (imm & 31); break;
    case Opcode::kSrai: rd = ShiftRightArith(rs1, imm); break;
    case Opcode::kMovi: rd = imm; break;
    case Opcode::kLui: rd = imm << 10; break;
    case Opcode::kLdw: load(4); break;
    case Opcode::kLdb: load(1); break;
    case Opcode::kStw: store(4); break;
    case Opcode::kStb: store(1); break;
    // B-type compares rd against rs1.
    case Opcode::kBeq: branch(rd == rs1); break;
    case Opcode::kBne: branch(rd != rs1); break;
    case Opcode::kBlt: branch(Signed(rd) < Signed(rs1)); break;
    case Opcode::kBge: branch(Signed(rd) >= Signed(rs1)); break;
    case Opcode::kBltu: branch(rd < rs1); break;
    case Opcode::kBgeu: branch(rd >= rs1); break;
    case Opcode::kJmp: jump(ip_ + imm); break;
    case Opcode::kJal: regs_[kRegLr] = ip_ + 4; jump(ip_ + imm); break;
    case Opcode::kJr: jump(rs1); break;
    case Opcode::kJalr: regs_[kRegLr] = ip_ + 4; jump(rs1); break;
    case Opcode::kSwi: out.fault_class = kExcSwiBase + (imm & 7); break;
    case Opcode::kIret: {
      uint32_t new_ip = 0;
      uint32_t new_flags = 0;
      const uint32_t sp = regs_[kRegSp];
      const AccessContext ctx = DataContext(AccessKind::kRead);
      AccessResult r = bus_->Read(ctx, sp, 4, &new_ip);
      if (r == AccessResult::kOk) {
        r = bus_->Read(ctx, sp + 4, 4, &new_flags);
      }
      if (r != AccessResult::kOk) {
        fault(ExcClassOf(r), sp);
        break;
      }
      regs_[kRegSp] = sp + 8;
      flags_ = new_flags;
      jump(new_ip);
      out.cycles = c.iret;
      break;
    }
    case Opcode::kCli: flags_ &= ~kFlagIf; break;
    case Opcode::kSti: flags_ |= kFlagIf; break;
    case Opcode::kProtect:
    case Opcode::kUnprotect:
    case Opcode::kAttest:
      if (!(sancus_hook_ && sancus_hook_(insn, this))) {
        fault(kExcIllegal, ip_);
      }
      break;
  }
  return out;
}

bool Cpu::RecognizeIrq(StepEvent* event, uint64_t cycles_before) {
  Device* source = nullptr;
  if (!PendingIrq(&source)) {
    return false;
  }
  if (interrupt_guard_ && !interrupt_guard_(ip_)) {
    // The architecture cannot interrupt protected code: force a reset.
    source->IrqAck();
    HaltWithTrap(kExcReset, ip_, "interrupt in protected module");
    bus_->TickDevices(cycles_ - cycles_before);
    *event = StepEvent::kHalted;
    return true;
  }
  const uint32_t handler = source->IrqHandler();
  source->IrqAck();
  if (handler != 0) {
    ++stats_.interrupts;
    const uint32_t cls =
        kExcIrqBase + static_cast<uint32_t>(source->irq_line());
    EnterException(cls, handler, 0, ip_, ip_);
    bus_->TickDevices(cycles_ - cycles_before);
    *event = halted_ ? StepEvent::kHalted : StepEvent::kInterrupt;
    return true;
  }
  // Spurious interrupt (no handler programmed): acknowledged and dropped;
  // the step proceeds to fetch as if nothing were pending.
  return false;
}

StepEvent Cpu::TakeFetchFault(uint32_t exception_class,
                              uint64_t cycles_before) {
  if (exception_class == kExcReset) {
    HaltWithTrap(kExcReset, ip_, "protection unit reset");
    bus_->TickDevices(cycles_ - cycles_before);
    return StepEvent::kHalted;
  }
  const uint32_t handler = sysctl_->HandlerFor(
      exception_class == kExcMpuFault ? ExceptionClass::kMpuFault
      : exception_class == kExcAlign  ? ExceptionClass::kAlignmentFault
                                      : ExceptionClass::kBusError);
  // A fetch fault: the target never began executing, so the interrupted
  // subject is the instruction that attempted the transfer (prev_ip_).
  EnterException(exception_class, handler, ip_, ip_, prev_ip_);
  bus_->TickDevices(cycles_ - cycles_before);
  return halted_ ? StepEvent::kHalted : StepEvent::kException;
}

const Instruction* Cpu::FetchDecode(uint64_t cycles_before, uint32_t* word,
                                    StepEvent* event) {
  // Interrupt recognition happens between instructions.
  if ((flags_ & kFlagIf) != 0 && RecognizeIrq(event, cycles_before)) {
    return nullptr;
  }

  // A misaligned IP faults before anything else — in particular before the
  // decode-cache lookup, whose index drops the low two bits: without this
  // latch a 4-unaligned IP would alias the entry of a different aligned
  // address. (The bus rejects misaligned word reads too; this makes the
  // ordering explicit and independent of the bus.)
  if ((ip_ & 3u) != 0) {
    *event = TakeFetchFault(kExcAlign, cycles_before);
    return nullptr;
  }

  // Fetch. The access subject is the instruction that transferred control
  // here (prev_ip_), not the target itself — this is the execution-aware
  // check that confines cross-region entry to entry vectors.
  AccessContext fetch_ctx;
  fetch_ctx.curr_ip = prev_ip_;
  fetch_ctx.kind = AccessKind::kFetch;
  fetch_ctx.privileged = (flags_ & kFlagUser) == 0;
  const AccessResult fetch = bus_->Read(fetch_ctx, ip_, 4, word);
  if (fetch != AccessResult::kOk) {
    *event = TakeFetchFault(ExcClassOf(fetch), cycles_before);
    return nullptr;
  }

  // Decode, via the direct-mapped decode cache. The fetched word is always
  // compared against the cached one, so a store that rewrote this address
  // (self-modifying code, loader) can never replay a stale decode; the
  // generation check additionally re-stamps entries after memory writes.
  const uint64_t mem_gen = bus_->memory_generation();
  DecodeEntry& cached = decode_cache_[CacheIndex(ip_, kDecodeCacheSize)];
  if (config_.decode_cache && cached.valid && cached.addr == ip_ &&
      cached.word == *word) {
    cached.generation = mem_gen;  // Revalidated against the fresh word.
    ++stats_.decode_hits;
    return &cached.insn;
  }
  ++stats_.decode_misses;
  const std::optional<Instruction> decoded = Decode(*word);
  if (!decoded.has_value()) {
    // Undecodable word: the subject is the instruction itself.
    const uint32_t handler =
        sysctl_->HandlerFor(ExceptionClass::kIllegalInstruction);
    EnterException(kExcIllegal, handler, ip_, ip_, ip_);
    bus_->TickDevices(cycles_ - cycles_before);
    *event = halted_ ? StepEvent::kHalted : StepEvent::kException;
    return nullptr;
  }
  cached = DecodeEntry{ip_, *word, mem_gen, true, *decoded};
  return &cached.insn;
}

StepEvent Cpu::ExecuteOne(const Instruction& insn, uint32_t word,
                          uint64_t cycles_before) {
  const uint32_t insn_addr = ip_;
  const ExecOutcome out = Execute(insn);
  cycles_ += out.cycles;
  prev_ip_ = insn_addr;

  if (out.fault_class.has_value()) {
    const uint32_t cls = *out.fault_class;
    uint32_t handler = 0;
    uint32_t resume = ip_;
    if (cls == kExcReset) {
      HaltWithTrap(kExcReset, out.fault_addr, "protection unit reset");
      bus_->TickDevices(cycles_ - cycles_before);
      return StepEvent::kHalted;
    } else if (cls >= kExcSwiBase) {
      handler = sysctl_->HandlerFor(ExceptionClass::kSwiBase, cls - kExcSwiBase);
      resume = ip_ + 4;  // SWIs resume after the trapping instruction.
      ++stats_.instructions;
      if (insn_sink_ != nullptr) {
        // The SWI instruction itself retires; the exception entry that
        // follows is reported separately as a TrapEvent.
        insn_sink_->OnInstruction(
            InsnEvent{cycles_, insn_addr, word, out.cycles});
      }
    } else if (cls == kExcMpuFault) {
      handler = sysctl_->HandlerFor(ExceptionClass::kMpuFault);
    } else if (cls == kExcIllegal) {
      handler = sysctl_->HandlerFor(ExceptionClass::kIllegalInstruction);
    } else if (cls == kExcAlign) {
      handler = sysctl_->HandlerFor(ExceptionClass::kAlignmentFault);
    } else {
      handler = sysctl_->HandlerFor(ExceptionClass::kBusError);
    }
    EnterException(cls, handler, out.fault_addr, resume, insn_addr);
    bus_->TickDevices(cycles_ - cycles_before);
    return halted_ ? StepEvent::kHalted : StepEvent::kException;
  }

  ++stats_.instructions;
  if (out.halted) {
    halted_ = true;
    if (sink_ != nullptr) {
      // Clean HALT: reported as a HaltEvent (not an InsnEvent) so
      // instruction-stream consumers see exactly the productive retires.
      sink_->OnHalt(HaltEvent{cycles_, insn_addr, out.cycles, false, 0});
    }
    bus_->TickDevices(cycles_ - cycles_before);
    return StepEvent::kHalted;
  }
  if (insn_sink_ != nullptr) {
    insn_sink_->OnInstruction(InsnEvent{cycles_, insn_addr, word, out.cycles});
  }
  if (!out.control_transfer) {
    ip_ += 4;
  }
  bus_->TickDevices(cycles_ - cycles_before);
  return StepEvent::kExecuted;
}

StepEvent Cpu::Step() {
  StepEvent event = StepEvent::kHalted;
  if (!halted_) {
    const uint64_t cycles_before = cycles_;
    uint32_t word = 0;
    if (const Instruction* insn = FetchDecode(cycles_before, &word, &event)) {
      event = ExecuteOne(*insn, word, cycles_before);
    }
  }
  return event;
}

Cpu::FusionEntry* Cpu::FusionGroupFor(const Instruction& head, uint32_t word) {
  // Suppressed while a consumer wants per-fetch MpuCheckEvents (tail fetch
  // checks are precomputed, so the per-check event stream would
  // under-report).
  if (!config_.fusion || !config_.decode_cache || fusion_suppressed_) {
    return nullptr;
  }
  const uint64_t mem_gen = bus_->memory_generation();
  FusionEntry& fe = fusion_cache_[CacheIndex(ip_, kFusionCacheSize)];
  if (!(fe.valid && fe.head_addr == ip_ && fe.ops[0].word == word &&
        fe.user_mode == ((flags_ & kFlagUser) != 0) &&
        fe.mpu_generation == CurrentMpuGeneration() &&
        fe.topology_generation == bus_->topology_generation())) {
    if (fe.valid) {
      ++stats_.fusion_invalidations;
    }
    BuildFusionGroup(fe, ip_, word, head, mem_gen);
    return fe.count >= 2 ? &fe : nullptr;
  }
  // count == 1 is a tombstone: the head is not fusable under the current
  // word/MPU configuration — single dispatch.
  if (fe.count < 2) {
    return nullptr;
  }
  // Re-compare the tail words through their stable host backing on every
  // dispatch (the head's word is the fresh fetch). Like the decode cache's
  // always-compare rule, this stays exact even for out-of-band host
  // mutations that never bumped the bus memory generation (Ram::LoadBytes
  // program reloads in tests/tools).
  for (int i = 1; i < fe.count; ++i) {
    if (LoadWordLe(fe.ops[i].backing) != fe.ops[i].word) {
      ++stats_.fusion_invalidations;
      fe.valid = false;
      return nullptr;
    }
  }
  fe.mem_generation = mem_gen;
  return &fe;
}

StepEvent Cpu::RunLoop(uint64_t max_instructions, uint64_t target_cycle,
                       bool cycle_bound) {
  const uint64_t start = stats_.instructions;
  // Exception storms do not retire instructions (and zero-cost storms do not
  // advance the clock); bound them separately.
  const uint64_t budget =
      cycle_bound ? (target_cycle > cycles_ ? target_cycle - cycles_ : 0)
                  : max_instructions;
  const uint64_t safety_limit = budget * 8 + 1024;
  uint64_t safety = 0;
  StepEvent event = StepEvent::kExecuted;

  while (!halted_ &&
         (cycle_bound ? cycles_ < target_cycle
                      : stats_.instructions - start < max_instructions)) {
    const uint64_t cycles_before = cycles_;
    uint32_t word = 0;
    const Instruction* insn = FetchDecode(cycles_before, &word, &event);
    if (insn == nullptr) {
      ++safety;
    } else if (FusionEntry* group = FusionGroupFor(*insn, word)) {
      event = ExecuteFusedGroup(*group, max_instructions, target_cycle,
                                cycle_bound, start, &safety);
    } else {
      event = ExecuteOne(*insn, word, cycles_before);
      ++safety;
    }
    if (event == StepEvent::kHalted) {
      break;
    }
    if (safety > safety_limit) {
      HaltWithTrap(0, ip_, "run watchdog expired (exception storm?)");
      return StepEvent::kHalted;
    }
  }
  return event;
}

void Cpu::BuildFusionGroup(FusionEntry& entry, uint32_t head_ip,
                           uint32_t head_word, const Instruction& head,
                           uint64_t mem_gen) {
  ++stats_.fusion_builds;
  entry = FusionEntry{};
  entry.head_addr = head_ip;
  entry.mem_generation = mem_gen;
  entry.mpu_generation = CurrentMpuGeneration();
  entry.topology_generation = bus_->topology_generation();
  entry.user_mode = (flags_ & kFlagUser) != 0;
  entry.valid = true;
  entry.count = 1;  // Tombstone unless a group forms below.
  entry.ops[0].insn = head;
  entry.ops[0].addr = head_ip;
  entry.ops[0].word = head_word;
  entry.ops[0].backing = nullptr;  // Head word is validated by the real fetch.

  if (!FusableInterior(head.opcode)) {
    return;
  }
  // Tail fetch permissions are precomputed with the EA-MPU's advisory query
  // and pinned to its config generation. A foreign protection unit (the
  // SMART/Sancus overlays) has no such query — fusion stays off under them
  // so every fetch keeps its real Check().
  ProtectionUnit* prot = bus_->protection_unit();
  const bool check_mpu = prot != nullptr;
  if (check_mpu && prot != static_cast<ProtectionUnit*>(mpu_)) {
    return;
  }
  const bool privileged = (flags_ & kFlagUser) == 0;
  uint32_t prev_addr = head_ip;
  for (int i = 1; i < kMaxFusedOps; ++i) {
    const uint32_t addr = prev_addr + 4;
    if (addr < prev_addr) {  // Wrapped past the top of the address space.
      break;
    }
    const uint8_t* backing = bus_->HostMemSpan(addr, 4);
    if (backing == nullptr) {  // MMIO, unmapped, or straddling a device.
      break;
    }
    // Sequential fetch: the subject of constituent i's fetch is constituent
    // i-1, exactly as prev_ip_ would be in the Step path.
    if (check_mpu && !mpu_->FetchWouldPass(prev_addr, addr, privileged)) {
      break;
    }
    const uint32_t w = LoadWordLe(backing);
    const std::optional<Instruction> decoded = Decode(w);
    if (!decoded.has_value()) {
      break;
    }
    const bool interior = FusableInterior(decoded->opcode);
    const bool tail = FusableTail(decoded->opcode);
    if (!interior && !tail) {
      break;
    }
    FusedOp& op = entry.ops[entry.count];
    op.insn = *decoded;
    op.addr = addr;
    op.word = w;
    op.backing = backing;
    ++entry.count;
    if (tail) {
      break;
    }
    prev_addr = addr;
  }
}

void Cpu::TryBuildDataWindow(bool is_write, uint32_t addr) {
  ++stats_.data_window_misses;
  DataWindow& dw = is_write ? write_window_ : read_window_;
  dw = DataWindow{};
  // Windows precompute EA-MPU data decisions; a foreign protection unit
  // (SMART/Sancus overlay) has no advisory query, so every access keeps its
  // real Check() — same rule as the fusion builder.
  ProtectionUnit* prot = bus_->protection_unit();
  if (prot != nullptr && prot != static_cast<ProtectionUnit*>(mpu_)) {
    return;
  }
  Bus::MemWindow mem;
  if (!bus_->MemWindowFor(addr, &mem)) {
    return;  // MMIO or unmapped: never windowed.
  }
  if (is_write && mem.rw == nullptr) {
    return;  // Guest-read-only memory (PROM): stores must keep faulting.
  }
  uint32_t lo = mem.lo;
  uint64_t hi = uint64_t{mem.lo} + mem.len;
  uint32_t subj_lo = 0;
  uint64_t subj_hi = uint64_t{1} << 32;
  if (prot != nullptr) {
    uint32_t mpu_lo = 0;
    uint64_t mpu_hi = 0;
    if (!mpu_->DataWindowFor(ip_, (flags_ & kFlagUser) == 0, is_write, addr,
                             &mpu_lo, &mpu_hi, &subj_lo, &subj_hi)) {
      return;  // Denied or too tangled: the full path decides every access.
    }
    lo = std::max(lo, mpu_lo);
    hi = std::min(hi, mpu_hi);
  }
  if (addr < lo || addr >= hi) {
    return;
  }
  dw.lo = lo;
  dw.len = static_cast<uint32_t>(hi - lo);  // <= device size, fits.
  dw.subj_lo = subj_lo;
  dw.subj_hi = subj_hi;
  dw.ro = mem.ro + (lo - mem.lo);
  dw.rw = is_write ? mem.rw + (lo - mem.lo) : nullptr;
  dw.wait_states = mem.wait_states;
  dw.mpu_generation = CurrentMpuGeneration();
  dw.topology_generation = bus_->topology_generation();
  dw.user_mode = (flags_ & kFlagUser) != 0;
}

StepEvent Cpu::ExecuteFusedGroup(FusionEntry& entry, uint64_t max_instructions,
                                 uint64_t target_cycle, bool cycle_bound,
                                 uint64_t start_instructions,
                                 uint64_t* safety) {
  ++stats_.fusion_groups;
  StepEvent event = StepEvent::kExecuted;
  for (int i = 0; i < entry.count; ++i) {
    if (i > 0) {
      // Between constituents the architecture is at an instruction boundary:
      // honor every event the Step loop would honor there, in the same
      // order, by handing control back to the outer loop.
      if (halted_) {
        break;
      }
      if (cycle_bound
              ? cycles_ >= target_cycle
              : stats_.instructions - start_instructions >= max_instructions) {
        break;
      }
      if ((flags_ & kFlagIf) != 0) {
        Device* source = nullptr;
        if (PendingIrq(&source)) {
          break;  // Outer loop runs full interrupt recognition.
        }
      }
      if (ip_ != entry.ops[i].addr) {
        break;  // A hook or fault redirected control mid-group.
      }
      if (entry.mpu_generation != CurrentMpuGeneration()) {
        // A constituent reconfigured protection (engine-port store): the
        // precomputed tail fetch permissions are void.
        ++stats_.fusion_invalidations;
        entry.valid = false;
        break;
      }
      const uint64_t mem_gen = bus_->memory_generation();
      if (entry.mem_generation != mem_gen) {
        // A constituent stored to memory: re-compare the remaining words so
        // self-modifying code inside the group is executed from the fresh
        // bytes, never the fused decode.
        bool intact = true;
        for (int j = i; j < entry.count; ++j) {
          if (LoadWordLe(entry.ops[j].backing) != entry.ops[j].word) {
            intact = false;
            break;
          }
        }
        if (!intact) {
          ++stats_.fusion_invalidations;
          entry.valid = false;
          break;
        }
        entry.mem_generation = mem_gen;
      }
    }
    const FusedOp& op = entry.ops[i];
    if (i > 0) {
      // A validated tail constituent executes from its cached decode — the
      // same reuse the decode cache counts as a hit in the Step path.
      ++stats_.decode_hits;
    }
    // ip_ == op.addr here: the head was matched against ip_ and every tail
    // constituent was checked above.
    event = ExecuteOne(op.insn, op.word, cycles_);
    ++*safety;
    if (event != StepEvent::kExecuted) {
      break;
    }
    ++stats_.fusion_retired;
  }
  return event;
}

StepEvent Cpu::Run(uint64_t max_instructions) {
  return RunLoop(max_instructions, 0, false);
}

StepEvent Cpu::RunUntilCycle(uint64_t target_cycle) {
  return RunLoop(0, target_cycle, true);
}

Cpu::ArchState Cpu::SaveArchState() const {
  ArchState state;
  for (int i = 0; i < kNumRegisters; ++i) {
    state.regs[i] = regs_[i];
  }
  state.ip = ip_;
  state.prev_ip = prev_ip_;
  state.flags = flags_;
  state.halted = halted_;
  state.cycles = cycles_;
  state.last_exception_entry_cycles = last_exception_entry_cycles_;
  state.trap = trap_;
  state.instructions = stats_.instructions;
  state.exceptions = stats_.exceptions;
  state.interrupts = stats_.interrupts;
  state.trustlet_interrupts = stats_.trustlet_interrupts;
  return state;
}

void Cpu::RestoreArchState(const ArchState& state) {
  for (int i = 0; i < kNumRegisters; ++i) {
    regs_[i] = state.regs[i];
  }
  ip_ = state.ip;
  prev_ip_ = state.prev_ip;
  flags_ = state.flags;
  halted_ = state.halted;
  cycles_ = state.cycles;
  last_exception_entry_cycles_ = state.last_exception_entry_cycles;
  trap_ = state.trap;
  stats_.instructions = state.instructions;
  stats_.exceptions = state.exceptions;
  stats_.interrupts = state.interrupts;
  stats_.trustlet_interrupts = state.trustlet_interrupts;
  // Memory was (or may have been) rewritten out-of-band around this call;
  // drop every decoded word rather than rely on generation revalidation.
  for (DecodeEntry& entry : decode_cache_) {
    entry.valid = false;
  }
  // Fused groups likewise: their word-compare revalidation only runs when
  // the memory generation moved, and out-of-band rewrites may not have
  // bumped it at the moment entries were last stamped.
  for (FusionEntry& entry : fusion_cache_) {
    entry.valid = false;
  }
  // Data windows map addresses, not contents, so a rewrite alone cannot
  // stale them — but a restore may also land in a different subject/mode
  // context; dropping them is free and removes the reasoning burden.
  read_window_ = DataWindow{};
  write_window_ = DataWindow{};
}

}  // namespace trustlite
