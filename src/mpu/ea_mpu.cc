// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/mpu/ea_mpu.h"

#include <algorithm>
#include <cassert>

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

EaMpu::EaMpu(uint32_t mmio_base, int num_regions, int num_rules)
    : Device("ea-mpu", mmio_base, kMmioBlockSize) {
  assert(num_regions > 0 && num_regions < 0xFF);
  assert(num_rules > 0);
  assert(kMpuRegionBank + static_cast<uint32_t>(num_regions) * kMpuRegionStride
             <= kMpuRuleBank);
  regions_.resize(static_cast<size_t>(num_regions));
  rules_.resize(static_cast<size_t>(num_rules), 0);
  region_hardwired_.resize(static_cast<size_t>(num_regions), false);
  rule_hardwired_.resize(static_cast<size_t>(num_rules), false);
  decision_cache_.resize(kDecisionCacheSize);
  fetch_cache_.resize(kFetchCacheSize);
}

void EaMpu::HardwireRegion(int index, const MpuRegion& region) {
  regions_[static_cast<size_t>(index)] = region;
  region_hardwired_[static_cast<size_t>(index)] = true;
  BumpConfigGen();
}

void EaMpu::HardwireRule(int index, uint32_t rule) {
  rules_[static_cast<size_t>(index)] = rule;
  rule_hardwired_[static_cast<size_t>(index)] = true;
  BumpConfigGen();
}

void EaMpu::HardwireEnable() {
  hardwired_enable_ = true;
  ctrl_ |= kMpuCtrlEnable;
  BumpConfigGen();
}

bool EaMpu::IsHardwiredRegion(int index) const {
  return region_hardwired_[static_cast<size_t>(index)];
}

bool EaMpu::IsHardwiredRule(int index) const {
  return rule_hardwired_[static_cast<size_t>(index)];
}

void EaMpu::Reset() {
  // Platform reset clears the *programmable* protection configuration;
  // hardwired entries (Sec. 3.6 hardware trustlets) persist by definition.
  // Memory contents are preserved and the Secure Loader re-establishes the
  // programmable rules (Sec. 3.5).
  ctrl_ = hardwired_enable_ ? kMpuCtrlEnable : 0;
  fault_ip_ = 0;
  fault_addr_ = 0;
  fault_info_ = 0;
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (!region_hardwired_[i]) {
      regions_[i] = MpuRegion{};
    }
  }
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (!rule_hardwired_[i]) {
      rules_[i] = 0;
    }
  }
  BumpConfigGen();
}

AccessResult EaMpu::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;  // Register file is word-addressed.
  }
  switch (offset) {
    case kMpuRegCtrl:
      *value = ctrl_;
      return AccessResult::kOk;
    case kMpuRegFaultIp:
      *value = fault_ip_;
      return AccessResult::kOk;
    case kMpuRegFaultAddr:
      *value = fault_addr_;
      return AccessResult::kOk;
    case kMpuRegFaultInfo:
      *value = fault_info_;
      return AccessResult::kOk;
    case kMpuRegRegionCount:
      *value = static_cast<uint32_t>(regions_.size());
      return AccessResult::kOk;
    case kMpuRegRuleCount:
      *value = static_cast<uint32_t>(rules_.size());
      return AccessResult::kOk;
    default:
      break;
  }
  if (offset >= kMpuRegionBank &&
      offset < kMpuRegionBank + regions_.size() * kMpuRegionStride) {
    const uint32_t index = (offset - kMpuRegionBank) / kMpuRegionStride;
    const MpuRegion& region = regions_[index];
    switch ((offset - kMpuRegionBank) % kMpuRegionStride) {
      case 0:
        *value = region.base;
        return AccessResult::kOk;
      case 4:
        *value = region.end;
        return AccessResult::kOk;
      case 8:
        *value = region.attr;
        return AccessResult::kOk;
      case 12:
        *value = region.sp_slot;
        return AccessResult::kOk;
    }
    return AccessResult::kBusError;
  }
  if (offset >= kMpuRuleBank &&
      offset < kMpuRuleBank + rules_.size() * 4) {
    *value = rules_[(offset - kMpuRuleBank) / 4];
    return AccessResult::kOk;
  }
  return AccessResult::kBusError;
}

bool EaMpu::RegisterWriteAllowed(uint32_t offset) const {
  // FAULT_INFO may be cleared even when the unit is locked (ISRs must be
  // able to acknowledge faults); everything else is frozen by CTRL.lock.
  if (offset == kMpuRegFaultInfo) {
    return true;
  }
  if (locked()) {
    return false;
  }
  // Per-region lock freezes that region's four registers; hardwired
  // entries are immutable by construction.
  if (offset >= kMpuRegionBank &&
      offset < kMpuRegionBank + regions_.size() * kMpuRegionStride) {
    const uint32_t index = (offset - kMpuRegionBank) / kMpuRegionStride;
    if ((regions_[index].attr & kMpuAttrLock) != 0 ||
        region_hardwired_[index]) {
      return false;
    }
  }
  if (offset >= kMpuRuleBank && offset < kMpuRuleBank + rules_.size() * 4 &&
      rule_hardwired_[(offset - kMpuRuleBank) / 4]) {
    return false;
  }
  return true;
}

AccessResult EaMpu::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  if (!RegisterWriteAllowed(offset)) {
    // Locked registers ignore writes silently, like write-protected hardware
    // config registers; the write is *not* a bus error so that probing
    // software cannot use faults to distinguish lock state changes.
    return AccessResult::kOk;
  }
  ++stats_.mmio_writes;
  switch (offset) {
    case kMpuRegCtrl:
      ctrl_ = value & (kMpuCtrlEnable | kMpuCtrlLock | kMpuCtrlCompatMode);
      if (hardwired_enable_) {
        ctrl_ |= kMpuCtrlEnable;
      }
      BumpConfigGen();  // Enable/compat-mode flips change every decision.
      return AccessResult::kOk;
    case kMpuRegFaultInfo:
      fault_info_ = 0;  // Any write acknowledges/clears the latched fault.
      return AccessResult::kOk;
    case kMpuRegFaultIp:
    case kMpuRegFaultAddr:
    case kMpuRegRegionCount:
    case kMpuRegRuleCount:
      return AccessResult::kOk;  // Read-only; writes ignored.
    default:
      break;
  }
  if (offset >= kMpuRegionBank &&
      offset < kMpuRegionBank + regions_.size() * kMpuRegionStride) {
    const uint32_t index = (offset - kMpuRegionBank) / kMpuRegionStride;
    MpuRegion& region = regions_[index];
    BumpConfigGen();
    switch ((offset - kMpuRegionBank) % kMpuRegionStride) {
      case 0:
        region.base = value;
        return AccessResult::kOk;
      case 4:
        region.end = value;
        return AccessResult::kOk;
      case 8:
        region.attr = value;
        return AccessResult::kOk;
      case 12:
        region.sp_slot = value;
        return AccessResult::kOk;
    }
    return AccessResult::kBusError;
  }
  if (offset >= kMpuRuleBank && offset < kMpuRuleBank + rules_.size() * 4) {
    rules_[(offset - kMpuRuleBank) / 4] = value;
    BumpConfigGen();
    return AccessResult::kOk;
  }
  return AccessResult::kBusError;
}

std::optional<int> EaMpu::FindCodeRegion(uint32_t ip) const {
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].Contains(ip) && (regions_[i].attr & kMpuAttrCode) != 0) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

bool EaMpu::RuleAllows(const AccessContext& ctx, std::optional<int> subject,
                       int object, uint32_t addr) const {
  const bool compat = (ctrl_ & kMpuCtrlCompatMode) != 0;
  for (const uint32_t rule : rules_) {
    if ((rule & kMpuRuleEnable) == 0) {
      continue;
    }
    const uint32_t rule_object = (rule >> kMpuRuleObjectShift) & 0xFF;
    if (rule_object != static_cast<uint32_t>(object)) {
      continue;
    }
    const uint32_t rule_subject = (rule >> kMpuRuleSubjectShift) & 0xFF;
    bool subject_match;
    if (rule_subject == kMpuSubjectAny) {
      // Wildcard subject; in compat mode additionally apply the privilege
      // filter (this is what a conventional MPU can express).
      const uint32_t priv = (rule >> kMpuRulePrivShift) & 0x3;
      subject_match = true;
      if (compat && priv == kMpuPrivUserOnly && ctx.privileged) {
        subject_match = false;
      }
      if (compat && priv == kMpuPrivSupervisorOnly && !ctx.privileged) {
        subject_match = false;
      }
    } else {
      subject_match = subject.has_value() &&
                      rule_subject == static_cast<uint32_t>(*subject);
    }
    if (!subject_match) {
      continue;
    }
    switch (ctx.kind) {
      case AccessKind::kRead:
        if ((rule & kMpuRuleRead) != 0) {
          return true;
        }
        break;
      case AccessKind::kWrite:
        if ((rule & kMpuRuleWrite) != 0) {
          return true;
        }
        break;
      case AccessKind::kFetch: {
        if ((rule & kMpuRuleExec) == 0) {
          break;
        }
        // Entry-vector convention: executing *into* a foreign region is only
        // permitted at its first word; execution within the subject's own
        // region (self-rule) covers the full region. (Sec. 5.1: "the first
        // four bytes of each code region as its respective entry vector".)
        const bool self_rule =
            subject.has_value() &&
            rule_subject == static_cast<uint32_t>(*subject) &&
            static_cast<uint32_t>(object) == rule_subject;
        if (self_rule || compat) {
          return true;
        }
        if (addr == regions_[static_cast<size_t>(object)].base) {
          return true;
        }
        break;
      }
    }
  }
  return false;
}

EaMpu::SubjectCache EaMpu::ScanSubject(uint32_t ip) const {
  // FindCodeRegion(ip) and, alongside, the widest interval around `ip` in
  // which the answer cannot change: shrink by the boundaries of every
  // enabled code region scanned before the first match (first-match
  // precedence) — or of all of them when there is no match.
  SubjectCache c;
  c.gen = config_gen_;
  c.hi = uint64_t{1} << 32;
  for (size_t i = 0; i < regions_.size(); ++i) {
    const MpuRegion& r = regions_[i];
    if (!r.enabled() || (r.attr & kMpuAttrCode) == 0) {
      continue;
    }
    if (r.Contains(ip)) {
      c.subject = static_cast<int>(i);
      c.lo = std::max(c.lo, r.base);
      c.hi = std::min<uint64_t>(c.hi, r.end);
      break;
    }
    if (r.base > ip) {
      c.hi = std::min<uint64_t>(c.hi, r.base);
    } else {
      c.lo = std::max(c.lo, r.end);
    }
  }
  return c;
}

EaMpu::CoverageCache EaMpu::ScanCoverage(uint32_t addr) const {
  CoverageCache c;
  c.gen = config_gen_;
  c.hi = uint64_t{1} << 32;
  for (size_t i = 0; i < regions_.size(); ++i) {
    const MpuRegion& r = regions_[i];
    if (!r.enabled()) {
      continue;
    }
    if (r.Contains(addr)) {
      if (c.count < kMaxCoverage) {
        c.regions[c.count++] = static_cast<uint8_t>(i);
      } else {
        c.overflow = true;
      }
      c.lo = std::max(c.lo, r.base);
      c.hi = std::min<uint64_t>(c.hi, r.end);
    } else if (r.base > addr) {
      c.hi = std::min<uint64_t>(c.hi, r.base);
    } else {
      c.lo = std::max(c.lo, r.end);
    }
  }
  return c;
}

int EaMpu::SubjectFor(uint32_t ip) {
  if (subject_cache_.gen == config_gen_ && ip >= subject_cache_.lo &&
      ip < subject_cache_.hi) {
    ++stats_.subject_hits;
    return subject_cache_.subject;
  }
  ++stats_.subject_misses;
  subject_cache_ = ScanSubject(ip);
  return subject_cache_.subject;
}

const EaMpu::CoverageCache& EaMpu::CoverageFor(uint32_t addr) {
  if (coverage_cache_.gen != config_gen_ || addr < coverage_cache_.lo ||
      addr >= coverage_cache_.hi) {
    coverage_cache_ = ScanCoverage(addr);
  }
  return coverage_cache_;
}

bool EaMpu::DataRuleAllows(const AccessContext& ctx, int subject, int object) {
  // Data (read/write) rule evaluation never consults the address, so the
  // decision is a pure function of (subject, object, kind, privileged) and
  // the configuration generation.
  const uint32_t key = static_cast<uint32_t>(subject + 1) |
                       static_cast<uint32_t>(object) << 8 |
                       static_cast<uint32_t>(ctx.kind) << 16 |
                       (ctx.privileged ? 1u << 18 : 0u);
  DecisionEntry& entry =
      decision_cache_[(key * 0x9E3779B1u) >> 23];  // 512 slots.
  if (entry.gen == config_gen_ && entry.key == key) {
    ++stats_.decision_hits;
    return entry.allow;
  }
  ++stats_.decision_misses;
  const std::optional<int> subj =
      subject >= 0 ? std::optional<int>(subject) : std::nullopt;
  const bool allow =
      RuleAllows(ctx, subj, object, regions_[static_cast<size_t>(object)].base);
  entry = DecisionEntry{config_gen_, key, allow};
  return allow;
}

bool EaMpu::FetchAllowed(const AccessContext& ctx, std::optional<int> subject,
                         uint32_t addr) const {
  // Reference fetch decision: covered-implies-allowed at exactly `addr`.
  bool covered = false;
  for (size_t r = 0; r < regions_.size(); ++r) {
    if (!regions_[r].Contains(addr)) {
      continue;
    }
    covered = true;
    if (RuleAllows(ctx, subject, static_cast<int>(r), addr)) {
      return true;
    }
  }
  return !covered;
}

bool EaMpu::DataAllowedByteWise(const AccessContext& ctx,
                                std::optional<int> subject, uint32_t addr,
                                uint32_t width) const {
  // Reference byte-wise scan. Byte addresses are computed in 64 bits: an
  // access straddling the top of the 32-bit address space must not wrap
  // around to address 0 — bytes past 0xFFFFFFFF do not exist and are
  // covered by no region.
  for (uint32_t i = 0; i < width; ++i) {
    const uint64_t byte_addr = uint64_t{addr} + i;
    if (byte_addr > 0xFFFFFFFFull) {
      break;
    }
    const uint32_t a = static_cast<uint32_t>(byte_addr);
    bool covered = false;
    bool allowed = false;
    for (size_t r = 0; r < regions_.size(); ++r) {
      if (!regions_[r].Contains(a)) {
        continue;
      }
      covered = true;
      if (RuleAllows(ctx, subject, static_cast<int>(r), a)) {
        allowed = true;
        break;
      }
    }
    if (covered && !allowed) {
      return false;
    }
  }
  return true;
}

bool EaMpu::FetchCheckPasses(const AccessContext& ctx, int subject,
                             uint32_t addr) {
  // Fetch decisions are keyed on the *exact* address: the entry-vector rule
  // admits foreign execution only at an object region's first word, so two
  // addresses in the same region can legitimately differ.
  const uint64_t key = static_cast<uint64_t>(addr) |
                       static_cast<uint64_t>(subject + 1) << 32 |
                       (ctx.privileged ? uint64_t{1} << 41 : 0u);
  const uint32_t index =
      ((addr >> 2) ^ static_cast<uint32_t>(subject + 1) * 0x9E3779B1u) &
      (kFetchCacheSize - 1);
  FetchEntry& entry = fetch_cache_[index];
  if (entry.gen == config_gen_ && entry.key == key) {
    ++stats_.fetch_hits;
    return entry.allow;
  }
  ++stats_.fetch_misses;
  const std::optional<int> subj =
      subject >= 0 ? std::optional<int>(subject) : std::nullopt;
  const bool pass = FetchAllowed(ctx, subj, addr);
  entry = FetchEntry{config_gen_, key, pass};
  return pass;
}

bool EaMpu::FetchWouldPass(uint32_t subject_ip, uint32_t addr,
                           bool privileged) const {
  if (!enabled()) {
    return true;
  }
  AccessContext ctx;
  ctx.curr_ip = subject_ip;
  ctx.kind = AccessKind::kFetch;
  ctx.privileged = privileged;
  return FetchAllowed(ctx, FindCodeRegion(subject_ip), addr);
}

bool EaMpu::DataWindowFor(uint32_t subject_ip, bool privileged, bool is_write,
                          uint32_t addr, uint32_t* lo, uint64_t* hi,
                          uint32_t* subj_lo, uint64_t* subj_hi) const {
  *lo = 0;
  *hi = uint64_t{1} << 32;
  *subj_lo = 0;
  *subj_hi = uint64_t{1} << 32;
  if (!enabled()) {
    // Everything passes; any later CTRL.enable write bumps the config
    // generation, so the full-address window cannot outlive the disable.
    return true;
  }
  // The cache fill scans, run without touching the caches or stats. Within
  // [lo, hi) the covering-region set is constant and data rules never
  // consult the address, so one decision settles the whole interval.
  const SubjectCache subject = ScanSubject(subject_ip);
  *subj_lo = subject.lo;
  *subj_hi = subject.hi;
  const CoverageCache coverage = ScanCoverage(addr);
  if (coverage.overflow) {
    return false;  // Too tangled to summarize; callers use the full path.
  }
  *lo = coverage.lo;
  *hi = coverage.hi;
  if (coverage.count == 0) {
    return true;  // Uncovered background memory is open.
  }
  AccessContext ctx;
  ctx.curr_ip = subject_ip;
  ctx.kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  ctx.privileged = privileged;
  const std::optional<int> subj = subject.subject >= 0
                                      ? std::optional<int>(subject.subject)
                                      : std::nullopt;
  for (int i = 0; i < coverage.count; ++i) {
    const int object = coverage.regions[i];
    if (RuleAllows(ctx, subj, object,
                   regions_[static_cast<size_t>(object)].base)) {
      return true;
    }
  }
  return false;
}

AccessResult EaMpu::Check(const AccessContext& ctx, uint32_t addr,
                          uint32_t width) {
  if (!enabled()) {
    return AccessResult::kOk;
  }
  ++stats_.checks;
  const int subject = fast_path_ ? SubjectFor(ctx.curr_ip)
                                 : FindCodeRegion(ctx.curr_ip).value_or(-1);
  const std::optional<int> subj =
      subject >= 0 ? std::optional<int>(subject) : std::nullopt;

  // Evaluate all bytes of the access (a word straddling a region boundary
  // must be allowed on both sides). Fetches are always word-aligned and are
  // judged at the fetch address itself so the entry-vector comparison sees
  // the instruction address, not its tail bytes.
  bool deny = false;
  if (ctx.kind == AccessKind::kFetch) {
    deny = fast_path_ ? !FetchCheckPasses(ctx, subject, addr)
                      : !FetchAllowed(ctx, subj, addr);
  } else if (fast_path_) {
    const CoverageCache& cov = CoverageFor(addr);
    // The end-of-access comparison runs in 64 bits: `addr + width` computed
    // in uint32_t wraps past 0xFFFFFFFF, which used to mis-classify an
    // access straddling the top of the address space as lying inside the
    // homogeneous interval (found by the differential harness).
    if (!cov.overflow && addr >= cov.lo && uint64_t{addr} + width <= cov.hi) {
      // Fast path: every byte of the access lies in one homogeneous
      // interval — all bytes share the same covering-region set, so one
      // memoized decision per covering region settles the whole access.
      if (cov.count != 0) {
        bool allowed = false;
        for (int i = 0; i < cov.count && !allowed; ++i) {
          allowed = DataRuleAllows(ctx, subject, cov.regions[i]);
        }
        deny = !allowed;
      }
    } else {
      // Slow path (access straddles a coverage boundary, or more regions
      // overlap here than the cache tracks): the byte-wise scan.
      deny = !DataAllowedByteWise(ctx, subj, addr, width);
    }
  } else {
    deny = !DataAllowedByteWise(ctx, subj, addr, width);
  }
  if (check_sink_ != nullptr) {
    MpuCheckEvent event;  // Cycle stamped by the hub.
    event.ip = ctx.curr_ip;
    event.addr = addr;
    event.kind = ctx.kind;
    event.subject = subject;
    event.allowed = !deny;
    check_sink_->OnMpuCheck(event);
  }
  if (!deny) {
    return AccessResult::kOk;
  }

  // Latch the first fault only (matching typical fault-status registers).
  ++stats_.faults;
  if ((fault_info_ & kMpuFaultValid) == 0) {
    fault_ip_ = ctx.curr_ip;
    fault_addr_ = addr;
    fault_info_ = kMpuFaultValid | static_cast<uint32_t>(ctx.kind);
  }
  if (sink_ != nullptr) {
    MpuFaultEvent event;  // Cycle stamped by the hub.
    event.ip = ctx.curr_ip;
    event.addr = addr;
    event.kind = ctx.kind;
    sink_->OnMpuFault(event);
  }
  return AccessResult::kProtFault;
}

int EaMpu::FaultTreeDepth(int num_regions) {
  int depth = 0;
  int n = 1;
  while (n < num_regions) {
    n *= 2;
    ++depth;
  }
  return depth;
}

uint32_t EncodeMpuRule(uint32_t subject, uint32_t object, bool r, bool w,
                       bool x, uint32_t priv_filter) {
  uint32_t rule = kMpuRuleEnable;
  rule |= (subject & 0xFF) << kMpuRuleSubjectShift;
  rule |= (object & 0xFF) << kMpuRuleObjectShift;
  if (r) {
    rule |= kMpuRuleRead;
  }
  if (w) {
    rule |= kMpuRuleWrite;
  }
  if (x) {
    rule |= kMpuRuleExec;
  }
  rule |= (priv_filter & 0x3) << kMpuRulePrivShift;
  return rule;
}

void EaMpu::SerializeState(std::vector<uint8_t>* out) const {
  AppendLe32(*out, ctrl_);
  AppendLe32(*out, fault_ip_);
  AppendLe32(*out, fault_addr_);
  AppendLe32(*out, fault_info_);
  out->push_back(hardwired_enable_ ? 1 : 0);
  AppendLe32(*out, static_cast<uint32_t>(regions_.size()));
  for (size_t i = 0; i < regions_.size(); ++i) {
    AppendLe32(*out, regions_[i].base);
    AppendLe32(*out, regions_[i].end);
    AppendLe32(*out, regions_[i].attr);
    AppendLe32(*out, regions_[i].sp_slot);
    out->push_back(region_hardwired_[i] ? 1 : 0);
  }
  AppendLe32(*out, static_cast<uint32_t>(rules_.size()));
  for (size_t i = 0; i < rules_.size(); ++i) {
    AppendLe32(*out, rules_[i]);
    out->push_back(rule_hardwired_[i] ? 1 : 0);
  }
}

Status EaMpu::RestoreState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint32_t ctrl = 0;
  uint32_t fault_ip = 0;
  uint32_t fault_addr = 0;
  uint32_t fault_info = 0;
  uint8_t hardwired_enable = 0;
  uint32_t num_regions = 0;
  reader.ReadU32(&ctrl);
  reader.ReadU32(&fault_ip);
  reader.ReadU32(&fault_addr);
  reader.ReadU32(&fault_info);
  reader.ReadU8(&hardwired_enable);
  reader.ReadU32(&num_regions);
  if (!reader.ok() || num_regions != regions_.size()) {
    return InvalidArgument("mpu snapshot region bank size mismatch");
  }
  std::vector<MpuRegion> regions(regions_.size());
  std::vector<bool> region_hardwired(regions_.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    uint8_t hardwired = 0;
    reader.ReadU32(&regions[i].base);
    reader.ReadU32(&regions[i].end);
    reader.ReadU32(&regions[i].attr);
    reader.ReadU32(&regions[i].sp_slot);
    reader.ReadU8(&hardwired);
    region_hardwired[i] = hardwired != 0;
  }
  uint32_t num_rules = 0;
  reader.ReadU32(&num_rules);
  if (!reader.ok() || num_rules != rules_.size()) {
    return InvalidArgument("mpu snapshot rule bank size mismatch");
  }
  std::vector<uint32_t> rules(rules_.size());
  std::vector<bool> rule_hardwired(rules_.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    uint8_t hardwired = 0;
    reader.ReadU32(&rules[i]);
    reader.ReadU8(&hardwired);
    rule_hardwired[i] = hardwired != 0;
  }
  if (!reader.Done()) {
    return InvalidArgument("mpu snapshot payload malformed");
  }
  ctrl_ = ctrl;
  fault_ip_ = fault_ip;
  fault_addr_ = fault_addr;
  fault_info_ = fault_info;
  hardwired_enable_ = hardwired_enable != 0;
  regions_ = std::move(regions);
  rules_ = std::move(rules);
  region_hardwired_ = std::move(region_hardwired);
  rule_hardwired_ = std::move(rule_hardwired);
  // Everything memoized from the old configuration is now wrong.
  BumpConfigGen();
  return OkStatus();
}

}  // namespace trustlite
