// Copyright 2026 The TrustLite Reproduction Authors.
//
// Repository benchmark driver (perfbench/README.md). One process runs one
// workload as a closed loop of units: each unit sets a system up from
// scratch, runs the workload's operations on it, and is checked before the
// next unit starts. Layers are measured from outside, by spans around
// calls into their public functions and by diffs of their public counters
// taken at the same boundaries. Spans inside src/ are not used.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer ones with
// --trace 1).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_engine.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"
#include "src/trustlet/builder.h"
#include "src/update/fw_container.h"

namespace trustlite {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Quantile `q` of `v`, interpolating linearly between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string Hex(const Sha256Digest& digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : digest) {
    out += kHex[b >> 4];
    out += kHex[b & 15];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans. Each records name, start, end, parent and the guest instructions
// and link frames counted between its boundaries. A null Tracer records
// nothing; the untraced run passes null everywhere.

struct Counts {
  uint64_t insns = 0;
  uint64_t frames = 0;
};

struct Span {
  const char* name = "";
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Counts begin;
  Counts end;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Counts sampled at every span boundary (set per unit: the system under
  // test changes between units).
  void set_sampler(std::function<Counts()> sampler) {
    sampler_ = std::move(sampler);
  }

  int Open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.begin = sampler_ ? sampler_() : Counts{};
    span.start_ns = Now();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void Close(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    span.end = sampler_ ? sampler_() : Counts{};
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: calls, total and self seconds (duration minus the time
  // child spans cover), and the instructions and frames counted inside.
  void PrintSummary() const {
    struct Row {
      int calls = 0;
      double total = 0, self = 0;
      uint64_t insns = 0, frames = 0;
    };
    std::map<std::string, Row> rows;
    for (const Span& s : spans_) {
      Row& row = rows[s.name];
      const double d = (s.end_ns - s.start_ns) / 1e9;
      ++row.calls;
      row.total += d;
      row.self += d;
      row.insns += s.end.insns - s.begin.insns;
      row.frames += s.end.frames - s.begin.frames;
      if (s.parent >= 0) rows[spans_[static_cast<size_t>(s.parent)].name].self -= d;
    }
    for (const auto& [name, row] : rows) {
      std::printf("span %-20s calls %7d total_s %10.6f self_s %10.6f "
                  "insns %12llu frames %9llu\n",
                  name.c_str(), row.calls, row.total, row.self,
                  static_cast<unsigned long long>(row.insns),
                  static_cast<unsigned long long>(row.frames));
    }
  }

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"insns\":%llu,\"frames\":%llu}}%s\n",
                    s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                    i, s.parent,
                    static_cast<unsigned long long>(s.end.insns - s.begin.insns),
                    static_cast<unsigned long long>(s.end.frames -
                                                    s.begin.frames),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::function<Counts()> sampler_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one call into a layer: always on the steady clock (the end-to-end
// numbers need it), and as a span when a tracer is attached.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, Fn&& fn) {
  const int id = tracer ? tracer->Open(name) : -1;
  const Clock::time_point start = Clock::now();
  fn();
  const double seconds = SecondsSince(start);
  if (tracer) tracer->Close(id);
  return seconds;
}

// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Restricts the calling thread, and the threads it creates from now on, to
// `count` consecutive entries of `cpus` starting at index `first` (modulo
// its size). No-op on failure.
void PinThread(const std::vector<int>& cpus, size_t first, int count) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < count; ++i) {
    CPU_SET(cpus[(first + static_cast<size_t>(i)) % cpus.size()], &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Per-unit results.

// The operation tally of one unit, plus its other checks.
struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  // `total` operations of one kind, `ok` of which succeeded.
  void Ops(int total, int ok, const std::string& what) {
    attempted += total;
    failed += total - ok;
    if (ok != total) {
      errors.push_back(what + " (" + std::to_string(total - ok) + " of " +
                       std::to_string(total) + ")");
    }
  }
  // One check that is not an operation of the workload counts as one.
  void Check(bool ok, const std::string& what) { Ops(1, ok, what); }
};

// One timed operation of a workload: the host time of each of its steps,
// the guest instructions retired meanwhile, and the nodes it served.
struct Op {
  std::vector<double> steps;
  uint64_t insns = 0;
  int nodes = 1;

  double host_s() const {
    double total = 0;
    for (double s : steps) total += s;
    return total;
  }
};

struct UnitResult {
  Outcome outcome;
  double setup_s = 0;
  std::vector<Op> ops;
  double sim_mcycles_per_op = 0;  // Simulated, per node; deterministic.
  // Per-layer values: deterministic counts and this unit's host times.
  std::map<std::string, double> counts;
  std::map<std::string, double> times;
  std::string digest;  // State digest the unit ends in.
};

double OpsSeconds(const UnitResult& r) {
  double total = 0;
  for (const Op& op : r.ops) total += op.host_s();
  return total;
}

// The counters the cpu.*, mpu.* and platform.* metrics are made of, for
// one core. The first four are architectural: a snapshot clone inherits
// them from its source. The rest are host-side cache counters, which start
// at zero on a new platform.
enum CoreField {
  kInsns, kCycles, kExceptions, kTrustletIrqs,
  kDecodeMisses, kFusionRetired, kFusionBuilds, kFusionInvalidations,
  kWindowHits, kWindowMisses, kSubjectHits, kSubjectMisses,
  kDecisionHits, kDecisionMisses, kFetchHits, kFetchMisses, kMpuFaults,
  kNumCoreFields
};
constexpr int kNumArchFields = 4;
using Core = std::array<uint64_t, kNumCoreFields>;

Core ReadCore(Platform& p) {
  const CpuStats& c = p.cpu().stats();
  const MpuStats m = p.mpu() ? p.mpu()->stats() : MpuStats{};
  return {c.instructions,  p.cpu().cycles(),      c.exceptions,
          c.trustlet_interrupts, c.decode_misses, c.fusion_retired,
          c.fusion_builds, c.fusion_invalidations, c.data_window_hits,
          c.data_window_misses, m.subject_hits,   m.subject_misses,
          m.decision_hits, m.decision_misses,     m.fetch_hits,
          m.fetch_misses,  m.faults};
}

Core Minus(const Core& b, const Core& a) {
  Core d{};
  for (int i = 0; i < kNumCoreFields; ++i) d[i] = b[i] - a[i];
  return d;
}

std::vector<Core> ReadFleet(Fleet& fleet) {
  std::vector<Core> out;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    out.push_back(ReadCore(fleet.node(i).platform()));
  }
  return out;
}

// Work of every node since `before` (one entry per node then), summed. A
// node added since is a scale-up clone and counts from its source's
// architectural counters at that time.
Core FleetWorkSince(const std::vector<Core>& before,
                    FleetController& controller) {
  Core total{};
  for (int i = 0; i < controller.num_nodes(); ++i) {
    Core base{};
    if (i < static_cast<int>(before.size())) {
      base = before[static_cast<size_t>(i)];
    } else {
      const Core& src =
          before[static_cast<size_t>(controller.health(i).cloned_from)];
      std::copy_n(src.begin(), kNumArchFields, base.begin());
    }
    const Core d = Minus(ReadCore(controller.fleet().node(i).platform()), base);
    for (int f = 0; f < kNumCoreFields; ++f) total[f] += d[f];
  }
  return total;
}

// Writes the cpu.*, mpu.* and platform.* counts of `d`, a difference of
// core counters.
void CoreCounts(const Core& d, std::map<std::string, double>* counts) {
  auto v = [&](CoreField f) { return static_cast<double>(d[f]); };
  auto share = [&](CoreField hit, CoreField miss) {
    return Ratio(v(hit), v(hit) + v(miss));
  };
  const double insns = v(kInsns);
  (*counts)["cpu.insns"] = insns;
  (*counts)["cpu.decode_miss_per_kinsn"] = Ratio(1000.0 * v(kDecodeMisses), insns);
  (*counts)["cpu.fusion_retired_share"] = Ratio(v(kFusionRetired), insns);
  (*counts)["cpu.fusion_builds_per_kinsn"] = Ratio(1000.0 * v(kFusionBuilds), insns);
  (*counts)["cpu.fusion_invalidations"] = v(kFusionInvalidations);
  (*counts)["cpu.data_window_hit_share"] = share(kWindowHits, kWindowMisses);
  (*counts)["mpu.subject_hit_share"] = share(kSubjectHits, kSubjectMisses);
  (*counts)["mpu.decision_hit_share"] = share(kDecisionHits, kDecisionMisses);
  (*counts)["mpu.fetch_hit_share"] = share(kFetchHits, kFetchMisses);
  (*counts)["platform.exceptions"] = v(kExceptions);
  (*counts)["platform.trustlet_interrupts"] = v(kTrustletIrqs);
  (*counts)["platform.cycles"] = v(kCycles);
  (*counts)["platform.cpi"] = Ratio(v(kCycles), insns);
}

// Seeded bytes (firmware payloads).
std::vector<uint8_t> SeededBytes(uint64_t seed, size_t n) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next32());
  return out;
}

// ---------------------------------------------------------------------------
// node-preemptive: one Platform, nanOS with a fast preemption timer and
// three trustlets whose loop bodies are generated from the seed. The mix of
// instruction classes is fixed (only registers, operands, offsets and
// order are seeded), so every seed costs about the same per instruction.

constexpr int kNodeTrustlets = 3;
constexpr uint32_t kNodeTimerPeriod = 400;        // Cycles between ticks.
constexpr uint64_t kNodeSliceInsns = 1'000'000;   // One operation.
constexpr int kNodeStepsPerSlice = 10;            // Platform::Run calls.
constexpr int kNodeSlicesPerUnit = 4;

std::string TrustletBody(Xoshiro256& rng) {
  // r3 holds TL_DATA; data[0] counts loop iterations; scratch words live at
  // data[4..0x100); r15 is scratch for the counter. r13 and r14 are sp and
  // lr.
  static const int kRegs[] = {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  auto reg = [&] {
    return "r" + std::to_string(kRegs[rng.NextBelow(std::size(kRegs))]);
  };
  static const char* kR[] = {"add", "sub", "xor", "and", "or", "mul", "sltu"};
  static const char* kI[] = {"addi", "xori", "andi", "ori", "shli", "shri"};
  std::vector<std::string> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(std::string(kR[rng.NextBelow(std::size(kR))]) + " " + reg() +
                  ", " + reg() + ", " + reg());
  }
  for (int i = 0; i < 4; ++i) {
    const std::string op = kI[rng.NextBelow(std::size(kI))];
    const uint64_t imm = op[0] == 's' ? rng.NextInRange(1, 7)
                                      : rng.NextInRange(1, 255);
    ops.push_back(op + " " + reg() + ", " + reg() + ", " + std::to_string(imm));
  }
  for (int i = 0; i < 8; ++i) {
    const uint64_t off = 4 * rng.NextInRange(1, 63);
    ops.push_back(std::string(i < 4 ? "ldw " : "stw ") + reg() + ", [r3 + " +
                  std::to_string(off) + "]");
  }
  for (size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.NextBelow(i + 1)]);
  }
  std::string body = "tl_main:\n    li   r3, TL_DATA\n";
  for (int r : kRegs) {
    body += "    li   r" + std::to_string(r) + ", " +
            std::to_string(rng.Next32() & 0xFFFF) + "\n";
  }
  body += "loop:\n";
  // Two data-dependent forward branches, each skipping one operation.
  const size_t b0 = 2 + rng.NextBelow(6);
  const size_t b1 = 11 + rng.NextBelow(6);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == b0 || i == b1) {
      body += "    bltu " + reg() + ", " + reg() + ", skip" + std::to_string(i) +
              "\n    " + ops[i] + "\nskip" + std::to_string(i) + ":\n";
    } else {
      body += "    " + ops[i] + "\n";
    }
  }
  body +=
      "    ldw  r15, [r3 + 0]\n"
      "    addi r15, r15, 1\n"
      "    stw  r15, [r3 + 0]\n"
      "    jmp  loop\n";
  return body;
}

struct NodeImage {
  SystemImage image;
  std::vector<uint32_t> data_addrs;
};

Result<NodeImage> BuildNodeImage(uint64_t seed) {
  Xoshiro256 rng(SplitMix64Once(seed ^ 0x6e6f6465));
  NodeImage out;
  for (int i = 0; i < kNodeTrustlets; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = 0x11000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_addr = 0x12000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = TrustletBody(rng);
    Result<TrustletMeta> meta = BuildTrustlet(spec);
    if (!meta.ok()) return meta.status();
    out.image.Add(std::move(*meta));
    out.data_addrs.push_back(spec.data_addr);
  }
  NanosConfig os;
  os.timer_period = kNodeTimerPeriod;
  Result<TrustletMeta> nanos = BuildNanos(os);
  if (!nanos.ok()) return nanos.status();
  out.image.Add(std::move(*nanos));
  return out;
}

// A unit: assemble the seeded image, install and boot it (the set-up a
// `tlsim` user pays), then run kNodeSlicesPerUnit slices.
UnitResult RunNodeUnit(uint64_t seed, Tracer* tracer,
                       const std::string& reference_digest) {
  UnitResult r;
  Result<NodeImage> image = Status::Ok();
  bool booted = false;
  const double assemble_s = Timed(tracer, "platform.assemble",
                                  [&] { image = BuildNodeImage(seed); });
  auto platform = std::make_unique<Platform>();
  if (tracer) {
    Platform* p = platform.get();
    tracer->set_sampler([p] { return Counts{p->cpu().stats().instructions, 0}; });
  }
  r.outcome.Ops(1, image.ok(), "node image failed to assemble");
  if (!image.ok()) return r;
  const double boot_s = Timed(tracer, "platform.boot", [&] {
    booted = platform->InstallImage(image->image).ok() &&
             platform->BootAndLaunch().ok();
  });
  r.setup_s = assemble_s + boot_s;
  r.times["platform.boot_s"] = boot_s;
  r.outcome.Ops(1, booted, "node image failed to install or boot");
  if (!booted) return r;

  const Core before = ReadCore(*platform);
  for (int s = 0; s < kNodeSlicesPerUnit; ++s) {
    Op slice;
    const uint64_t insns0 = platform->cpu().stats().instructions;
    for (int k = 0; k < kNodeStepsPerSlice; ++k) {
      slice.steps.push_back(Timed(tracer, "platform.run", [&] {
        platform->Run(kNodeSliceInsns / kNodeStepsPerSlice);
      }));
    }
    slice.insns = platform->cpu().stats().instructions - insns0;
    r.outcome.Ops(1,
                  slice.insns == kNodeSliceInsns && !platform->cpu().halted(),
                  "slice stopped early (halt or trap)");
    r.ops.push_back(std::move(slice));
  }
  const Core work = Minus(ReadCore(*platform), before);
  CoreCounts(work, &r.counts);
  r.sim_mcycles_per_op = work[kCycles] / 1e6 / kNodeSlicesPerUnit;
  r.times["cpu.run_s"] = OpsSeconds(r);

  // Every trustlet was scheduled and made progress; nothing faulted.
  for (uint32_t addr : image->data_addrs) {
    uint32_t iterations = 0;
    r.outcome.Check(platform->bus().HostReadWord(addr, &iterations) &&
                        iterations > 0,
                    "a trustlet never ran");
  }
  r.outcome.Check(work[kMpuFaults] == 0, "unexpected EA-MPU fault");
  r.digest = Hex(PlatformStateDigest(*platform));
  r.outcome.Check(r.digest == reference_digest,
                  "state differs from the fast-path-off reference run");
  return r;
}

// Reference state: the same image and instruction count with the host fast
// paths (decode/fusion caches, MPU caches, data windows) switched off.
std::string NodeReferenceDigest(uint64_t seed) {
  Result<NodeImage> image = BuildNodeImage(seed);
  if (!image.ok()) return "assembly-failed";
  PlatformConfig config;
  config.fast_path = false;
  config.fusion = false;
  Platform platform(config);
  if (!platform.InstallImage(image->image).ok() ||
      !platform.BootAndLaunch().ok()) {
    return "boot-failed";
  }
  for (int s = 0; s < kNodeSlicesPerUnit; ++s) platform.Run(kNodeSliceInsns);
  return Hex(PlatformStateDigest(platform));
}

// ---------------------------------------------------------------------------
// Fleet workload.

constexpr int kGrowBaseNodes = 48;
constexpr int kGrowClones = 16;
constexpr uint32_t kOtaWindowBytes = 1536;

FleetConfig BaseFleetConfig(uint64_t seed, int nodes, int threads) {
  FleetConfig config;
  config.nodes = nodes;
  config.topology = Topology::kStar;
  config.seed = SplitMix64Once(seed);
  config.threads = threads;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  return config;
}

Counts FleetCounts(Fleet* fleet) {
  return Counts{fleet->TotalInstructions(), fleet->fabric().stats().sent};
}

// Warm provisioning and admission of a fleet. The FW trustlet carries
// seeded bytes, so every seed attests to different golden measurements.
struct AdmittedFleet {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FleetController> controller;
};

AdmittedFleet SetUpFleet(const FleetConfig& config, size_t payload_bytes,
                         uint32_t payload_capacity, Tracer* tracer,
                         UnitResult* r) {
  AdmittedFleet f;
  f.fleet = std::make_unique<Fleet>(config);
  Fleet* fleet = f.fleet.get();
  if (tracer) tracer->set_sampler([fleet] { return FleetCounts(fleet); });
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  prov.payload = SeededBytes(config.seed ^ 0x7061796c, payload_bytes);
  prov.payload_capacity = payload_capacity;
  Result<std::vector<NodeProvision>> provisions = Status::Ok();
  r->times["snapshot.provision_s"] = Timed(tracer, "snapshot.provision", [&] {
    provisions = ProvisionAttestationFleet(fleet, prov);
  });
  if (!provisions.ok()) {
    r->outcome.Ops(config.nodes, 0,
                   "provisioning: " + provisions.status().ToString());
    return f;
  }
  // The shipped policy, as tlfleetd runs it.
  f.controller = std::make_unique<FleetController>(
      fleet, std::move(*provisions), FleetdPolicy{});
  Status admitted = Status::Ok();
  r->times["control.admission_s"] = Timed(
      tracer, "control.admission", [&] { admitted = f.controller->RunAdmission(); });
  const int ok_nodes = static_cast<int>(f.controller->Admitted().size());
  r->outcome.Ops(1, admitted.ok(), "admission: " + admitted.ToString());
  r->outcome.Ops(config.nodes, ok_nodes, "node not admitted");
  return f;
}

// attest.* counts of the whole unit, read from the attestor.
void AttestCounts(FleetAttestor& attestor, int nodes, double rounds_base,
                  std::map<std::string, double>* counts) {
  double attempts = 0, mismatches = 0, stale = 0;
  for (int i = 0; i < nodes; ++i) {
    attempts += attestor.attempts(i);
    mismatches += static_cast<double>(attestor.mismatches(i));
    stale += static_cast<double>(attestor.stale_hits(i));
  }
  (*counts)["attest.rounds"] = attestor.rounds() - rounds_base;
  // Challenges per node in its latest round: 1 when every node answered its
  // first challenge, 1 + retries otherwise.
  (*counts)["attest.attempts_per_node"] = Ratio(attempts, nodes);
  (*counts)["attest.mismatches"] = mismatches;
  (*counts)["attest.stale_hits"] = stale;
}

void LinkCounts(const LinkFabric::Stats& a, const LinkFabric::Stats& b,
                std::map<std::string, double>* counts) {
  (*counts)["link.delivered"] = static_cast<double>(b.delivered - a.delivered);
  (*counts)["link.dropped"] = static_cast<double>(b.dropped - a.dropped);
}

// fleet-grow-update: clone-scale a smaller admitted fleet, then roll a
// seeded firmware image out to every node, canary wave first. Links are
// clean: with seeded loss, one lost attestation frame costs a 1M-cycle
// timeout, so the work of a run (and its time) jumped by up to 4x from one
// seed to the next (README.md).
UnitResult RunGrowUpdateUnit(uint64_t seed, int threads, Tracer* tracer) {
  UnitResult r;
  const FleetConfig config = BaseFleetConfig(seed, kGrowBaseNodes, threads);
  const Clock::time_point setup_start = Clock::now();
  AdmittedFleet f = SetUpFleet(config, 256, kOtaWindowBytes, tracer, &r);
  std::vector<uint8_t> container;
  double pack_s = Timed(tracer, "update.pack", [&] {
    FirmwareContainerSpec spec;
    spec.fw_version = 2;
    spec.name = "perfbench";
    // 1028..1280 bytes: the signed container always takes three 512-byte
    // chunks, so the seed changes bytes on the wire but not frame timing.
    spec.payload = SeededBytes(config.seed ^ 0x6f7461,
                               1028 + 4 * (config.seed % 64));
    Result<std::vector<uint8_t>> packed = PackFirmware(spec);
    if (packed.ok()) container = std::move(*packed);
  });
  r.setup_s = SecondsSince(setup_start);
  r.outcome.Ops(1, !container.empty(), "PackFirmware failed");
  if (!f.controller || container.empty()) return r;
  Fleet& fleet = *f.fleet;
  FleetController& controller = *f.controller;

  const std::vector<Core> core0 = ReadFleet(fleet);
  const LinkFabric::Stats link0 = fleet.fabric().stats();
  const double rounds0 = controller.attestor().rounds();

  Status grown = Status::Ok();
  const double scaleup_s = Timed(tracer, "control.scaleup",
                                 [&] { grown = controller.ScaleUp(kGrowClones); });
  const int nodes = fleet.num_nodes();
  const int admitted = static_cast<int>(controller.Admitted().size());
  r.outcome.Ops(1, grown.ok(), "scale-up: " + grown.ToString());
  r.outcome.Ops(kGrowClones, admitted - kGrowBaseNodes,
                "clone not admitted after scale-up");

  const LinkFabric::Stats link_ota0 = fleet.fabric().stats();
  const uint64_t ota_cycle0 = fleet.now();
  UpdateCampaignConfig ucfg;
  ucfg.canary_pct = 10;
  UpdateCampaign campaign(&fleet, &controller.attestor(), container, ucfg);
  Status started = Status::Ok();
  double boundary_s = 0, run_quantum_s = 0;
  uint64_t quanta = 0;
  // Steps of the rollout: scale-up, Start, then one per quantum.
  Op rollout;
  rollout.steps.push_back(scaleup_s);
  const Clock::time_point ota_start = Clock::now();
  const double start_s = Timed(tracer, "update.start",
                               [&] { started = campaign.Start(); });
  rollout.steps.push_back(start_s);
  r.outcome.Ops(1, started.ok(), "campaign start: " + started.ToString());
  // A clean-link campaign takes 18 quanta; the cap keeps a stuck one from
  // outliving the run.
  const uint64_t kMaxQuanta = 1'000;
  while (started.ok() && !campaign.Done() && quanta < kMaxQuanta) {
    const double run_s =
        Timed(tracer, "fleet.run_quantum", [&] { fleet.RunQuantum(); });
    const double pump_s = Timed(tracer, "update.boundary",
                                [&] { campaign.OnQuantumBoundary(); });
    run_quantum_s += run_s;
    boundary_s += pump_s;
    rollout.steps.push_back(run_s + pump_s);
    ++quanta;
  }
  const double ota_s = SecondsSince(ota_start);
  const uint64_t ota_cycles = fleet.now() - ota_cycle0;
  const LinkFabric::Stats link1 = fleet.fabric().stats();
  const Core work = FleetWorkSince(core0, controller);

  // Gate: the campaign succeeded and every node runs the new version.
  const int committed = campaign.CountInState(UpdateNodeState::kCommitted);
  int at_version = 0;
  for (int i = 0; i < nodes; ++i) {
    at_version += fleet.node(i).platform().sysctl().fw_version() ==
                  campaign.fw_version();
  }
  r.outcome.Ops(1, campaign.Succeeded(), "campaign did not succeed");
  r.outcome.Ops(nodes, committed, "node not committed");
  r.outcome.Check(at_version == nodes, "node not at the new FW version");

  rollout.insns = work[kInsns];
  rollout.nodes = nodes;
  r.ops.push_back(std::move(rollout));
  r.sim_mcycles_per_op = work[kCycles] / 1e6 / nodes;
  CoreCounts(work, &r.counts);
  LinkCounts(link0, link1, &r.counts);
  r.counts["fleet.quanta"] = static_cast<double>(quanta);
  r.counts["link.frames_per_ota_node"] =
      static_cast<double>(link1.sent - link_ota0.sent) / nodes;
  r.counts["link.bytes_per_ota_node"] =
      static_cast<double>(link1.payload_bytes - link_ota0.payload_bytes) / nodes;
  AttestCounts(controller.attestor(), nodes, rounds0, &r.counts);
  r.counts["update.quanta"] = static_cast<double>(quanta);
  r.counts["update.nodes_committed"] = committed;
  r.counts["update.ota_sim_mcycles"] = ota_cycles / 1e6;
  r.times["snapshot.scaleup_s"] = scaleup_s;
  r.times["snapshot.clone_ms_per_node"] = 1000.0 * scaleup_s / kGrowClones;
  r.times["update.ota_s"] = ota_s;
  r.times["update.pack_sign_s"] = pack_s + start_s;
  r.times["update.campaign_boundary_s"] = boundary_s;
  r.times["fleet.run_quantum_s"] = run_quantum_s;
  r.digest = Hex(fleet.FleetDigest());
  return r;
}

// ---------------------------------------------------------------------------
// Metric tables. The names and units here are the ones BENCHMARK.json lists.

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"sim_minsn_per_s", "Minsn/s"}, {"op_ms_per_node", "ms"},
    {"sim_mcycles_per_op", "Mcycles"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},          {"success_share", "share"},
};

const MetricDef kPerLayer[] = {
    {"cpu.insns", "insn"},
    {"cpu.decode_miss_per_kinsn", "1/kinsn"},
    {"cpu.fusion_retired_share", "share"},
    {"cpu.fusion_builds_per_kinsn", "1/kinsn"},
    {"cpu.fusion_invalidations", "count"},
    {"cpu.data_window_hit_share", "share"},
    {"cpu.run_s", "s"},
    {"mpu.subject_hit_share", "share"},
    {"mpu.decision_hit_share", "share"},
    {"mpu.fetch_hit_share", "share"},
    {"platform.exceptions", "count"},
    {"platform.trustlet_interrupts", "count"},
    {"platform.cycles", "cycles"},
    {"platform.cpi", "cycles/insn"},
    {"platform.boot_s", "s"},
    {"fleet.quanta", "count"},
    {"fleet.run_quantum_s", "s"},
    {"fleet.threads", "count"},
    {"link.delivered", "frames"},
    {"link.dropped", "frames"},
    {"link.frames_per_ota_node", "frames"},
    {"link.bytes_per_ota_node", "bytes"},
    {"attest.rounds", "count"},
    {"attest.attempts_per_node", "count"},
    {"attest.mismatches", "count"},
    {"attest.stale_hits", "count"},
    {"control.admission_s", "s"},
    {"update.campaign_boundary_s", "s"},
    {"update.quanta", "count"},
    {"update.nodes_committed", "count"},
    {"update.pack_sign_s", "s"},
    {"update.ota_s", "s"},
    {"update.ota_sim_mcycles", "Mcycles"},
    {"snapshot.provision_s", "s"},
    {"snapshot.scaleup_s", "s"},
    {"snapshot.clone_ms_per_node", "ms"},
    {"trace.overhead_share", "share"},
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0   ? 1
                    : std::strcmp(value, "0") == 0 ? 0
                                                   : -1;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0 && args->trace >= 0 &&
         (args->workload == "node-preemptive" ||
          args->workload == "fleet-grow-update");
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "node-preemptive|fleet-grow-update --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool traced_run = args.trace == 1;
  // Workloads are timed on one host thread: on a pool, the fleet's small
  // per-quantum work left it dominated by thread wake-ups, and its run
  // times spread 3x wider (README.md). The traced run checks the fleet
  // against a pool of up to four threads.
  const bool fleet = args.workload != "node-preemptive";
  const int threads = 1;
  const int check_threads = fleet ? static_cast<int>(std::min(4u, hw)) : 1;

  // Host fingerprint: results from different hosts are not comparable.
#if defined(TRUSTLITE_PORTABLE_DISPATCH) || \
    !(defined(__GNUC__) || defined(__clang__))
  const char* dispatch = "portable";
#else
  const char* dispatch = "threaded";
#endif
  std::printf(
      "host {\"nproc\": %u, \"cpu_model\": \"%s\", \"sha256_engine\": \"%s\", "
      "\"build_type\": \"%s\", \"dispatch\": \"%s\", \"threads\": %d}\n",
      hw, JsonEscape(CpuModel()).c_str(), Sha256EngineName(),
      PERFBENCH_BUILD_TYPE, dispatch, threads);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  // Per-workload unit runner on `t` host threads (fleets only). Successive
  // units run on successive windows of the allowed CPUs: on a shared host a
  // busy neighbour slows one core for seconds to minutes, and rotating keeps
  // one such core from holding a whole run.
  std::string node_reference;
  std::function<UnitResult(int t, Tracer*)> run_workload;
  if (args.workload == "node-preemptive") {
    node_reference = NodeReferenceDigest(args.seed);
    run_workload = [&](int, Tracer* tracer) {
      return RunNodeUnit(args.seed, tracer, node_reference);
    };
  } else {
    run_workload = [&](int t, Tracer* tracer) {
      return RunGrowUpdateUnit(args.seed, t, tracer);
    };
  }
  const std::vector<int> cpus = AllowedCpus();
  size_t next_cpu = 0;
  auto run_unit = [&](int t, Tracer* tracer) {
    PinThread(cpus, next_cpu++, t);
    return run_workload(t, tracer);
  };

  // Closed loop. The untraced run repeats untraced units. The traced run
  // alternates traced and untraced units, so tracing overhead is measured
  // inside one process; on the fleets it first runs one unit on
  // check_threads. Every unit must end in the first unit's state digest
  // with the first unit's counts.
  Tracer tracer;
  std::vector<UnitResult> plain, traced;
  std::vector<std::string> errors;
  int attempted = 0, failed = 0;
  std::optional<UnitResult> first;
  auto check = [&](const UnitResult& r, const std::string& label) {
    attempted += r.outcome.attempted;
    failed += r.outcome.failed;
    for (const std::string& e : r.outcome.errors) {
      errors.push_back(label + ": " + e);
    }
    if (!first) {
      first = r;
      return;
    }
    // Each comparison with the first unit is one operation.
    auto compare = [&](bool same, const std::string& what) {
      ++attempted;
      if (same) return;
      ++failed;
      errors.push_back(label + ": " + what);
    };
    compare(r.digest == first->digest, "state digest " + r.digest +
                                           " differs from the first unit's " +
                                           first->digest);
    compare(r.counts == first->counts &&
                r.sim_mcycles_per_op == first->sim_mcycles_per_op,
            "counts differ from the first unit's");
  };

  const Clock::time_point loop_start = Clock::now();
  if (traced_run && check_threads != threads) {
    check(run_unit(check_threads, nullptr),
          std::to_string(check_threads) + "-thread");
  }
  while (errors.empty() &&
         (SecondsSince(loop_start) < args.seconds || plain.empty() ||
          (traced_run && traced.empty()))) {
    const bool trace_this = traced_run && traced.size() <= plain.size();
    UnitResult r = run_unit(threads, trace_this ? &tracer : nullptr);
    check(r, trace_this ? "traced" : "untraced");
    (trace_this ? traced : plain).push_back(std::move(r));
  }
  for (const std::string& e : errors) std::printf("error %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0 && attempted > 0;

  std::vector<std::pair<const MetricDef*, double>> out;
  if (!traced_run) {
    // Host times are best of n: on a shared host the median follows the
    // neighbours' load for seconds at a time (README.md), so it is only
    // printed, with the 90th percentile. Units repeat identical work, so
    // step k of operation j costs the same in every unit, and its fastest
    // time in the run is its uncontended cost. An operation's estimate is
    // the sum over its steps; the run reports its cheapest operation per
    // node. set-up is best of n as a whole.
    std::vector<double> rates, op_ms, best_op_ms, setup;
    for (const UnitResult& r : plain) {
      for (const Op& op : r.ops) op_ms.push_back(1000.0 * op.host_s() / op.nodes);
      setup.push_back(r.setup_s);
    }
    for (size_t j = 0; j < first->ops.size(); ++j) {
      const Op& shape = first->ops[j];
      double best_s = 0;
      for (size_t k = 0; k < shape.steps.size(); ++k) {
        double step = shape.steps[k];
        for (const UnitResult& r : plain) {
          if (j < r.ops.size() && k < r.ops[j].steps.size()) {
            step = std::min(step, r.ops[j].steps[k]);
          }
        }
        best_s += step;
      }
      rates.push_back(Ratio(static_cast<double>(shape.insns), best_s) / 1e6);
      best_op_ms.push_back(1000.0 * best_s / shape.nodes);
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    const double values[] = {
        Quantile(rates, 1.0),
        Quantile(best_op_ms, 0.0),
        first->sim_mcycles_per_op,
        Quantile(setup, 0.0),
        static_cast<double>(usage.ru_maxrss) / 1024.0,
        attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0.0,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
    std::printf("units %zu\n", plain.size());
    for (const auto& [name, v] : {std::pair{"op_ms_per_node", &op_ms},
                                  std::pair{"setup_s", &setup}}) {
      std::printf("%s n=%zu min %.6g p50 %.6g p90 %.6g\n", name, v->size(),
                  Quantile(*v, 0.0), Median(*v), Quantile(*v, 0.9));
    }
  } else {
    // Counts from the first unit (all units agree); host times as the
    // fastest traced unit's.
    std::map<std::string, double> v = first->counts;
    if (fleet) v["fleet.threads"] = threads;
    std::map<std::string, std::vector<double>> times;
    for (const UnitResult& r : traced) {
      for (const auto& [name, t] : r.times) times[name].push_back(t);
    }
    for (const auto& [name, t] : times) v[name] = Quantile(t, 0.0);
    std::vector<double> traced_ops, plain_ops;
    for (const UnitResult& r : traced) traced_ops.push_back(OpsSeconds(r));
    for (const UnitResult& r : plain) plain_ops.push_back(OpsSeconds(r));
    v["trace.overhead_share"] =
        Ratio(Quantile(traced_ops, 0.0), Quantile(plain_ops, 0.0)) - 1.0;
    for (const MetricDef& m : kPerLayer) {
      out.emplace_back(&m, v.count(m.name) ? v[m.name] : 0.0);
    }
    std::printf("units %zu untraced, %zu traced, %zu spans\n", plain.size(),
                traced.size(), tracer.spans().size());
    tracer.PrintSummary();
    if (!args.trace_out.empty()) {
      if (tracer.WriteChromeJson(args.trace_out)) {
        std::printf("trace written to %s\n", args.trace_out.c_str());
      } else {
        std::printf("error could not write %s\n", args.trace_out.c_str());
      }
    }
  }
  for (const auto& [def, value] : out) {
    std::printf("metric %-32s %s %s\n", def->name, Num(value).c_str(),
                def->unit);
  }
  std::printf("digest %s\n", first->digest.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + std::string(out[i].first->name) +
            "\": {\"value\": " + Num(out[i].second) + ", \"unit\": \"" +
            out[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
