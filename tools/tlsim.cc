// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlsim — command-line driver for the TL32 toolchain and simulator.
//
//   tlsim asm   <file.s> [-o out.bin] [--origin ADDR] [--symbols]
//   tlsim disas <file.bin> [--base ADDR]
//   tlsim run   <file.s> [--entry ADDR|symbol] [--sp ADDR] [--max N]
//               [--trace] [--uart-in TEXT] [--no-mpu] [--stats]
//               [--profile] [--trace-json FILE]
//               [--snapshot-every N] [--snapshot-out PREFIX]
//   tlsim run   --resume-from FILE [file.s] [--max N] ...
//   tlsim debug <file.s> [--entry ADDR|symbol] [--sp ADDR]
//
// `run` assembles the program, loads every chunk into the reference
// platform, executes it, and reports UART output, halt state, registers and
// simulated cycles. --snapshot-every N writes a platform snapshot
// (docs/SNAPSHOT_FORMAT.md) every N retired instructions to
// PREFIX-NNNN.tlsnap; --resume-from restores one and continues executing,
// bit-identically to the uninterrupted run (no file.s needed — the program
// travels inside the snapshot). --trace streams an ExecutionTracer to stderr:
// every retired instruction disassembled, plus exception/IRQ entries, UART
// bytes and the halt. --stats prints the CPU, EA-MPU and bus fast-path
// counters. --profile prints a per-lane cycle-accounting table (one lane
// per assembled chunk) and --trace-json exports a Chrome trace-event file
// viewable at https://ui.perfetto.dev (DESIGN.md §12).
//
// `debug` drops into a small REPL:
//   s [n]        step n instructions (default 1), printing each
//   c [n]        continue until halt/breakpoint (or n instructions)
//   b ADDR|sym   set a breakpoint        del ADDR|sym   remove it
//   r            registers               m ADDR [n]     dump n words
//   d [ADDR] [n] disassemble             sym            list symbols
//   u            uart output so far      q              quit

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/file_io.h"
#include "src/isa/assembler.h"
#include "src/isa/disassembler.h"
#include "src/platform/observe/chrome_trace.h"
#include "src/platform/observe/json.h"
#include "src/platform/observe/profiler.h"
#include "src/platform/platform.h"
#include "src/platform/trace.h"
#include "src/snapshot/snapshot.h"
#include "tools/parse_number.h"

namespace trustlite {
namespace {

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlsim asm   <file.s> [-o out.bin] [--origin ADDR] [--symbols]\n"
      "  tlsim disas <file.bin> [--base ADDR]\n"
      "  tlsim run   <file.s> [--entry ADDR|symbol] [--sp ADDR] [--max N]\n"
      "              [--trace] [--uart-in TEXT] [--no-mpu] [--stats]\n"
      "              [--profile] [--trace-json FILE]\n"
      "              [--snapshot-every N] [--snapshot-out PREFIX]\n"
      "  tlsim run   --resume-from FILE [file.s] [--max N] ...\n"
      "  tlsim debug <file.s> [--entry ADDR|symbol] [--sp ADDR]\n"
      "\n"
      "  --snapshot-every N   write a snapshot every N retired instructions\n"
      "  --snapshot-out P     snapshot filename prefix (default tlsim-snap)\n"
      "  --resume-from FILE   restore FILE and continue the run\n");
  return help ? 0 : 2;
}

Result<AsmOutput> AssembleFile(const std::string& path, uint32_t origin) {
  Result<std::vector<uint8_t>> source = ReadFileBytes(path);
  if (!source.ok()) {
    return source.status();
  }
  return Assemble(std::string(source->begin(), source->end()), origin);
}

// Numeric flag values go through the tools' shared parser: a typo or an
// out-of-range value is a usage error (exit 2), never a silent zero.
bool ParseAddr(const std::string& flag, const std::string& text,
               uint32_t* out) {
  return ParseFlagNumber("tlsim", flag, text, 0, UINT32_MAX, out);
}

int CmdAsm(const std::vector<std::string>& args) {
  std::string input;
  std::string output;
  uint32_t origin = 0;
  bool symbols = false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      output = args[++i];
    } else if (args[i] == "--origin" && i + 1 < args.size()) {
      if (!ParseAddr(args[i], args[i + 1], &origin)) {
        return 2;
      }
      ++i;
    } else if (args[i] == "--symbols") {
      symbols = true;
    } else if (input.empty()) {
      input = args[i];
    } else {
      return Usage();
    }
  }
  if (input.empty()) {
    return Usage();
  }
  Result<AsmOutput> out = AssembleFile(input, origin);
  if (!out.ok()) {
    std::fprintf(stderr, "tlsim: %s\n", out.status().ToString().c_str());
    return 1;
  }
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  std::printf("assembled %zu bytes at %s (%zu chunks)\n", image.size(),
              Hex32(base).c_str(), out->chunks.size());
  if (symbols) {
    for (const auto& [name, value] : out->symbols) {
      std::printf("  %-24s %s\n", name.c_str(), Hex32(value).c_str());
    }
  }
  if (!output.empty()) {
    const Status written = WriteFileBytes(output, image.data(), image.size());
    if (!written.ok()) {
      std::fprintf(stderr, "tlsim: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", output.c_str());
  }
  return 0;
}

int CmdDisas(const std::vector<std::string>& args) {
  std::string input;
  uint32_t base = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--base" && i + 1 < args.size()) {
      if (!ParseAddr(args[i], args[i + 1], &base)) {
        return 2;
      }
      ++i;
    } else if (input.empty()) {
      input = args[i];
    } else {
      return Usage();
    }
  }
  if (input.empty()) {
    return Usage();
  }
  Result<std::vector<uint8_t>> blob = ReadFileBytes(input);
  if (!blob.ok()) {
    std::fprintf(stderr, "tlsim: %s\n", blob.status().ToString().c_str());
    return 1;
  }
  for (size_t offset = 0; offset + 4 <= blob->size(); offset += 4) {
    const uint32_t word = LoadLe32(blob->data() + offset);
    const uint32_t addr = base + static_cast<uint32_t>(offset);
    std::printf("%08x:  %08x  %s\n", addr, word,
                DisassembleWord(word, addr).c_str());
  }
  return 0;
}

int CmdRun(const std::vector<std::string>& args) {
  std::string input;
  std::string entry_text;
  uint32_t sp = 0x0004'0000;
  uint64_t max_instructions = 1'000'000;
  bool trace = false;
  bool no_mpu = false;
  bool stats = false;
  bool profile = false;
  std::string trace_json;
  std::string uart_in;
  uint64_t snapshot_every = 0;
  std::string snapshot_out = "tlsim-snap";
  std::string resume_from;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--entry" && i + 1 < args.size()) {
      entry_text = args[++i];
    } else if (args[i] == "--sp" && i + 1 < args.size()) {
      if (!ParseAddr(args[i], args[i + 1], &sp)) {
        return 2;
      }
      ++i;
    } else if (args[i] == "--max" && i + 1 < args.size()) {
      if (!ParseFlagNumber("tlsim", args[i], args[i + 1], 0, UINT64_MAX,
                           &max_instructions)) {
        return 2;
      }
      ++i;
    } else if (args[i] == "--trace") {
      trace = true;
    } else if (args[i] == "--no-mpu") {
      no_mpu = true;
    } else if (args[i] == "--stats") {
      stats = true;
    } else if (args[i] == "--profile") {
      profile = true;
    } else if (args[i] == "--trace-json" && i + 1 < args.size()) {
      trace_json = args[++i];
    } else if (args[i] == "--uart-in" && i + 1 < args.size()) {
      uart_in = args[++i];
    } else if (args[i] == "--snapshot-every" && i + 1 < args.size()) {
      if (!ParseFlagNumber("tlsim", args[i], args[i + 1], 0, UINT64_MAX,
                           &snapshot_every)) {
        return 2;
      }
      ++i;
    } else if (args[i] == "--snapshot-out" && i + 1 < args.size()) {
      snapshot_out = args[++i];
    } else if (args[i] == "--resume-from" && i + 1 < args.size()) {
      resume_from = args[++i];
    } else if (input.empty()) {
      input = args[i];
    } else {
      return Usage();
    }
  }
  if (input.empty() && resume_from.empty()) {
    return Usage();
  }

  // The program either comes from file.s (cold run) or travels inside the
  // snapshot (--resume-from; a file.s argument is then ignored).
  Result<AsmOutput> out(Status::Ok());
  if (resume_from.empty()) {
    out = AssembleFile(input, 0x0003'0000);
    if (!out.ok()) {
      std::fprintf(stderr, "tlsim: %s\n", out.status().ToString().c_str());
      return 1;
    }
  }

  PlatformConfig config;
  config.with_mpu = !no_mpu;
  std::vector<uint8_t> resume_bytes;
  if (!resume_from.empty()) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(resume_from);
    if (!bytes.ok()) {
      std::fprintf(stderr, "tlsim: %s\n", bytes.status().ToString().c_str());
      return 1;
    }
    resume_bytes = std::move(*bytes);
    // The snapshot records the platform shape it was taken on; the platform
    // must be rebuilt to match or the restore fails closed.
    Result<PlatformConfig> snap_config = SnapshotPlatformConfig(resume_bytes);
    if (!snap_config.ok()) {
      std::fprintf(stderr, "tlsim: %s\n",
                   snap_config.status().ToString().c_str());
      return 1;
    }
    config = *snap_config;
  }
  Platform platform(config);
  if (resume_from.empty()) {
    for (const AsmChunk& chunk : out->chunks) {
      if (!platform.bus().HostWriteBytes(chunk.base, chunk.bytes)) {
        std::fprintf(stderr, "tlsim: chunk at %s does not map to any device\n",
                     Hex32(chunk.base).c_str());
        return 1;
      }
    }
  } else {
    Status restored = RestorePlatform(&platform, resume_bytes);
    if (!restored.ok()) {
      std::fprintf(stderr, "tlsim: %s\n", restored.ToString().c_str());
      return 1;
    }
    std::printf("resumed from %s at %llu instructions\n", resume_from.c_str(),
                static_cast<unsigned long long>(
                    platform.cpu().stats().instructions));
  }

  uint32_t entry = 0;
  if (resume_from.empty()) {
    entry = out->chunks.empty() ? 0 : out->chunks.front().base;
    if (!entry_text.empty()) {
      auto it = out->symbols.find(entry_text);
      if (it != out->symbols.end()) {
        entry = it->second;
      } else if (!ParseAddr("--entry", entry_text, &entry)) {
        return 2;
      }
    } else {
      auto it = out->symbols.find("start");
      if (it != out->symbols.end()) {
        entry = it->second;
      }
    }
  }
  if (!uart_in.empty()) {
    platform.uart().PushInput(uart_in);
  }

  // --trace streams every event line to stderr; nothing is retained.
  ExecutionTracer tracer(/*capacity=*/0, /*record_instructions=*/true);
  if (trace) {
    tracer.SetEcho(stderr);
    tracer.Attach(&platform);
  }

  // Observability sinks (DESIGN.md §12): one lane per assembled chunk so a
  // program with a separate .org'd ISR or data island profiles per region.
  TrustletProfiler profiler;
  ChromeTraceWriter trace_writer;
  if ((profile || !trace_json.empty()) && resume_from.empty()) {
    for (const AsmChunk& chunk : out->chunks) {
      char lane_name[32];
      std::snprintf(lane_name, sizeof(lane_name), "code@%08x", chunk.base);
      const uint32_t end =
          chunk.base + static_cast<uint32_t>(chunk.bytes.size());
      profiler.AddLane(lane_name, chunk.base, end);
      trace_writer.AddLane(lane_name, chunk.base, end);
    }
    if (profile) {
      platform.AddEventSink(&profiler);
    }
    if (!trace_json.empty()) {
      platform.AddEventSink(&trace_writer);
    }
  }

  if (resume_from.empty()) {
    platform.cpu().Reset(entry);
    platform.cpu().set_reg(kRegSp, sp);
  }
  if (snapshot_every > 0) {
    // Periodic checkpointing: run in slices, snapshotting at each boundary.
    uint64_t executed = 0;
    int sequence = 0;
    while (!platform.cpu().halted() && executed < max_instructions) {
      const uint64_t before = platform.cpu().stats().instructions;
      platform.Run(std::min(snapshot_every, max_instructions - executed));
      const uint64_t retired = platform.cpu().stats().instructions - before;
      if (retired == 0) {
        break;  // No forward progress (immediate halt): stop checkpointing.
      }
      executed += retired;
      char path[512];
      std::snprintf(path, sizeof(path), "%s-%04d.tlsnap",
                    snapshot_out.c_str(), ++sequence);
      Result<std::vector<uint8_t>> snapshot = SavePlatform(platform);
      Status written =
          snapshot.ok()
              ? WriteFileBytes(path, snapshot->data(), snapshot->size())
              : snapshot.status();
      if (!written.ok()) {
        std::fprintf(stderr, "tlsim: %s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("snapshot: wrote %s at %llu instructions\n", path,
                  static_cast<unsigned long long>(
                      platform.cpu().stats().instructions));
    }
  } else {
    platform.Run(max_instructions);
  }

  const Cpu& cpu = platform.cpu();
  if (!platform.uart().output().empty()) {
    std::printf("--- uart ---\n%s\n------------\n",
                platform.uart().output().c_str());
  }
  std::printf("state: %s", cpu.halted() ? "halted" : "running (budget spent)");
  if (cpu.trap().valid) {
    std::printf("  [trap: %s, class %u, ip %s, addr %s]", cpu.trap().reason,
                cpu.trap().exception_class, Hex32(cpu.trap().ip).c_str(),
                Hex32(cpu.trap().addr).c_str());
  }
  std::printf("\ninstructions: %llu   cycles: %llu   exceptions: %llu\n",
              static_cast<unsigned long long>(cpu.stats().instructions),
              static_cast<unsigned long long>(cpu.cycles()),
              static_cast<unsigned long long>(cpu.stats().exceptions));
  for (int i = 0; i < kNumRegisters; ++i) {
    std::printf("%4s=%08x%s", RegisterName(i).c_str(), cpu.reg(i),
                (i % 4 == 3) ? "\n" : "  ");
  }
  std::printf("  ip=%08x flags=%08x\n", cpu.ip(), cpu.flags());
  if (stats) {
    const CpuStats& cs = cpu.stats();
    const BusStats& bs = platform.bus().stats();
    auto print_cache = [](const char* name, uint64_t hits, uint64_t misses) {
      const uint64_t total = hits + misses;
      std::printf("  %-12s hits %-12llu misses %-12llu hit-rate %5.1f%%\n",
                  name, static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses),
                  total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                         static_cast<double>(total));
    };
    std::printf("--- fast-path stats ---\n");
    print_cache("bus-route", bs.route_hits, bs.route_misses);
    print_cache("decode", cs.decode_hits, cs.decode_misses);
    print_cache("data-window", cs.data_window_hits, cs.data_window_misses);
    // Fusion "hit rate" = share of all retired instructions that retired
    // from inside a fused group (DESIGN.md §15).
    std::printf(
        "  %-12s groups %-11llu retired %-11llu fused-rate %5.1f%%\n",
        "fusion", static_cast<unsigned long long>(cs.fusion_groups),
        static_cast<unsigned long long>(cs.fusion_retired),
        cs.instructions == 0
            ? 0.0
            : 100.0 * static_cast<double>(cs.fusion_retired) /
                  static_cast<double>(cs.instructions));
    std::printf("  %-12s builds %-11llu invalidations %llu\n", "fusion-cache",
                static_cast<unsigned long long>(cs.fusion_builds),
                static_cast<unsigned long long>(cs.fusion_invalidations));
    if (const EaMpu* mpu = platform.mpu()) {
      const MpuStats& ms = mpu->stats();
      print_cache("mpu-subject", ms.subject_hits, ms.subject_misses);
      print_cache("mpu-decision", ms.decision_hits, ms.decision_misses);
      print_cache("mpu-fetch", ms.fetch_hits, ms.fetch_misses);
      std::printf("  mpu checks %llu   faults %llu   mmio writes %llu\n",
                  static_cast<unsigned long long>(ms.checks),
                  static_cast<unsigned long long>(ms.faults),
                  static_cast<unsigned long long>(ms.mmio_writes));
    }
  }
  if (profile) {
    std::printf("--- profile ---\n%s", profiler.ToString().c_str());
    platform.RemoveEventSink(&profiler);
  }
  if (!trace_json.empty()) {
    const std::string json = trace_writer.Json();
    const Status written = WriteFileBytes(trace_json, json.data(), json.size());
    if (!written.ok()) {
      std::fprintf(stderr, "tlsim: %s\n", written.ToString().c_str());
      return 1;
    }
    std::string json_error;
    const bool valid = JsonParses(json, &json_error);
    std::printf("trace-json: wrote %s (%zu events%s, %s)\n", trace_json.c_str(),
                trace_writer.event_count(),
                trace_writer.dropped() == 0
                    ? ""
                    : ", overflow: oldest spans kept, tail dropped",
                valid ? "valid JSON" : json_error.c_str());
    platform.RemoveEventSink(&trace_writer);
  }
  return cpu.trap().valid ? 1 : 0;
}

struct LoadedProgram {
  Platform* platform;
  std::map<std::string, uint32_t> symbols;
  uint32_t entry = 0;
};

// A symbol name or a numeric address; false (diagnostic printed) when
// `text` is neither.
bool ResolveAddr(const LoadedProgram& prog, const std::string& text,
                 uint32_t* out) {
  auto it = prog.symbols.find(text);
  if (it != prog.symbols.end()) {
    *out = it->second;
    return true;
  }
  return ParseAddr("address", text, out);
}

void PrintRegs(const Cpu& cpu) {
  for (int i = 0; i < kNumRegisters; ++i) {
    std::printf("%4s=%08x%s", RegisterName(i).c_str(), cpu.reg(i),
                (i % 4 == 3) ? "\n" : "  ");
  }
  std::printf("  ip=%08x flags=%08x cycles=%llu\n", cpu.ip(), cpu.flags(),
              static_cast<unsigned long long>(cpu.cycles()));
}

void PrintDisas(Platform& platform, uint32_t addr, int count) {
  for (int i = 0; i < count; ++i) {
    const uint32_t a = addr + static_cast<uint32_t>(i) * 4;
    uint32_t word = 0;
    if (!platform.bus().HostReadWord(a, &word)) {
      std::printf("%08x:  <unmapped>\n", a);
      return;
    }
    std::printf("%08x:%s %08x  %s\n", a,
                a == platform.cpu().ip() ? ">" : " ", word,
                DisassembleWord(word, a).c_str());
  }
}

int CmdDebug(const std::vector<std::string>& args) {
  std::string input;
  std::string entry_text;
  uint32_t sp = 0x0004'0000;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--entry" && i + 1 < args.size()) {
      entry_text = args[++i];
    } else if (args[i] == "--sp" && i + 1 < args.size()) {
      if (!ParseAddr(args[i], args[i + 1], &sp)) {
        return 2;
      }
      ++i;
    } else if (input.empty()) {
      input = args[i];
    } else {
      return Usage();
    }
  }
  if (input.empty()) {
    return Usage();
  }
  Result<AsmOutput> out = AssembleFile(input, 0x0003'0000);
  if (!out.ok()) {
    std::fprintf(stderr, "tlsim: %s\n", out.status().ToString().c_str());
    return 1;
  }
  PlatformConfig config;
  Platform platform(config);
  for (const AsmChunk& chunk : out->chunks) {
    platform.bus().HostWriteBytes(chunk.base, chunk.bytes);
  }
  LoadedProgram prog{&platform, out->symbols, 0};
  prog.entry = out->chunks.empty() ? 0 : out->chunks.front().base;
  if (!entry_text.empty()) {
    if (!ResolveAddr(prog, entry_text, &prog.entry)) {
      return 2;
    }
  } else if (out->symbols.count("start") != 0) {
    prog.entry = out->symbols.at("start");
  }
  platform.cpu().Reset(prog.entry);
  platform.cpu().set_reg(kRegSp, sp);

  std::printf("tlsim debugger — entry %s, 'q' to quit\n",
              Hex32(prog.entry).c_str());
  std::set<uint32_t> breakpoints;
  std::string line;
  size_t uart_seen = 0;
  auto step_one = [&](bool print) {
    uint32_t word = 0;
    const uint32_t ip = platform.cpu().ip();
    if (print && platform.bus().HostReadWord(ip, &word)) {
      std::printf("%08x:  %s\n", ip, DisassembleWord(word, ip).c_str());
    }
    return platform.cpu().Step();
  };
  for (;;) {
    // Surface freshly produced UART output.
    const std::string& uart = platform.uart().output();
    if (uart.size() > uart_seen) {
      std::printf("[uart] %s\n", uart.substr(uart_seen).c_str());
      uart_seen = uart.size();
    }
    std::printf("(tlsim) ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "q" || cmd == "quit") {
      break;
    }
    if (cmd == "s" || cmd == "step") {
      uint64_t n = 1;
      iss >> n;
      for (uint64_t i = 0; i < std::max<uint64_t>(n, 1); ++i) {
        if (step_one(true) == StepEvent::kHalted) {
          std::printf("halted%s\n",
                      platform.cpu().trap().valid ? " (trap)" : "");
          break;
        }
      }
    } else if (cmd == "c" || cmd == "continue") {
      uint64_t budget = 10'000'000;
      iss >> budget;
      uint64_t executed = 0;
      while (executed++ < budget) {
        if (step_one(false) == StepEvent::kHalted) {
          std::printf("halted at %s%s\n", Hex32(platform.cpu().ip()).c_str(),
                      platform.cpu().trap().valid ? " (trap)" : "");
          break;
        }
        if (breakpoints.count(platform.cpu().ip()) != 0) {
          std::printf("breakpoint at %s\n",
                      Hex32(platform.cpu().ip()).c_str());
          break;
        }
      }
    } else if (cmd == "b" || cmd == "break") {
      std::string where;
      iss >> where;
      uint32_t addr = 0;
      if (ResolveAddr(prog, where, &addr)) {
        breakpoints.insert(addr);
        std::printf("breakpoint set at %s\n", Hex32(addr).c_str());
      }
    } else if (cmd == "del") {
      std::string where;
      iss >> where;
      uint32_t addr = 0;
      if (ResolveAddr(prog, where, &addr)) {
        breakpoints.erase(addr);
      }
    } else if (cmd == "r" || cmd == "regs") {
      PrintRegs(platform.cpu());
    } else if (cmd == "m" || cmd == "mem") {
      std::string where;
      int count = 8;
      iss >> where >> count;
      uint32_t addr = 0;
      if (!ResolveAddr(prog, where, &addr)) {
        continue;
      }
      addr &= ~3u;
      for (int i = 0; i < count; ++i) {
        uint32_t word = 0;
        if (!platform.bus().HostReadWord(addr, &word)) {
          std::printf("%08x: <unmapped>\n", addr);
          break;
        }
        std::printf("%08x: %08x\n", addr, word);
        addr += 4;
      }
    } else if (cmd == "d" || cmd == "disas") {
      std::string where;
      int count = 8;
      iss >> where >> count;
      uint32_t addr = platform.cpu().ip();
      if (!where.empty() && !ResolveAddr(prog, where, &addr)) {
        continue;
      }
      PrintDisas(platform, addr, count);
    } else if (cmd == "sym") {
      for (const auto& [name, value] : prog.symbols) {
        std::printf("  %-24s %s\n", name.c_str(), Hex32(value).c_str());
      }
    } else if (cmd == "u" || cmd == "uart") {
      std::printf("%s\n", platform.uart().output().c_str());
    } else {
      std::printf("commands: s [n], c [n], b A, del A, r, m A [n], d [A] [n], "
                  "sym, u, q\n");
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    return Usage(/*help=*/true);
  }
  if (argc < 3 && !(command == "run")) {
    return Usage();
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "asm") {
    return CmdAsm(args);
  }
  if (command == "disas") {
    return CmdDisas(args);
  }
  if (command == "run") {
    return CmdRun(args);
  }
  if (command == "debug") {
    return CmdDebug(args);
  }
  return Usage();
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
