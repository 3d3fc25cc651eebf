// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlsnap — snapshot file utility (docs/SNAPSHOT_FORMAT.md).
//
//   tlsnap info    <file.tlsnap>              inventory + self-digest
//   tlsnap verify  <file.tlsnap>              parse + CRC + digest check
//   tlsnap diff    <a.tlsnap> <b.tlsnap>      structured state diff
//   tlsnap resave  <in.tlsnap> <out.tlsnap>   restore + re-save (round-trip)
//
// `verify` restores the snapshot into a scratch platform built from the
// snapshot's own PCFG chunk and recomputes the state digest, so it checks
// the full restore path, not just the container framing. `resave` is the
// byte-stability check: the output must be bit-identical to the input for
// a digest-carrying snapshot.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {
namespace {

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlsnap info    <file.tlsnap>\n"
      "  tlsnap verify  <file.tlsnap>\n"
      "  tlsnap diff    <a.tlsnap> <b.tlsnap>\n"
      "  tlsnap resave  <in.tlsnap> <out.tlsnap>\n");
  return help ? 0 : 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "tlsnap: %s\n", status.ToString().c_str());
  return 1;
}

int CmdInfo(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<SnapshotInfo> info = InspectSnapshot(*bytes);
  if (!info.ok()) {
    return Fail(info.status());
  }
  std::printf("%s: version %u, %zu chunks, %zu bytes\n", path.c_str(),
              info->version, info->chunks.size(), bytes->size());
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    std::printf("  %-8u %s\n", chunk.payload_size, chunk.label.c_str());
  }
  std::printf("memory: %.1f KiB present of %.0f KiB mapped\n",
              static_cast<double>(info->memory_bytes_present) / 1024.0,
              static_cast<double>(info->memory_bytes_total) / 1024.0);
  return 0;
}

int CmdVerify(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<PlatformConfig> config = SnapshotPlatformConfig(*bytes);
  if (!config.ok()) {
    return Fail(config.status());
  }
  Platform platform(*config);
  Status restored = RestorePlatform(&platform, *bytes);
  if (!restored.ok()) {
    return Fail(restored);
  }
  Result<SnapshotInfo> info = InspectSnapshot(*bytes);
  if (!info.ok()) {
    return Fail(info.status());
  }
  std::printf("%s: ok (restore verified%s)\n", path.c_str(),
              info->digest_present ? ", digest matched" : ", no digest");
  return 0;
}

int CmdDiff(const std::string& path_a, const std::string& path_b) {
  Result<std::vector<uint8_t>> a = ReadFileBytes(path_a);
  if (!a.ok()) {
    return Fail(a.status());
  }
  Result<std::vector<uint8_t>> b = ReadFileBytes(path_b);
  if (!b.ok()) {
    return Fail(b.status());
  }
  Result<std::vector<std::string>> diffs = DiffSnapshots(*a, *b);
  if (!diffs.ok()) {
    return Fail(diffs.status());
  }
  if (diffs->empty()) {
    std::printf("identical state\n");
    return 0;
  }
  for (const std::string& line : *diffs) {
    std::printf("%s\n", line.c_str());
  }
  return 1;
}

int CmdResave(const std::string& in_path, const std::string& out_path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(in_path);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<PlatformConfig> config = SnapshotPlatformConfig(*bytes);
  if (!config.ok()) {
    return Fail(config.status());
  }
  Platform platform(*config);
  Status restored = RestorePlatform(&platform, *bytes);
  if (!restored.ok()) {
    return Fail(restored);
  }
  Result<std::vector<uint8_t>> saved = SavePlatform(platform);
  if (!saved.ok()) {
    return Fail(saved.status());
  }
  Status written = WriteFileBytes(out_path, saved->data(), saved->size());
  if (!written.ok()) {
    return Fail(written);
  }
  const bool identical = *saved == *bytes;
  std::printf("wrote %s (%zu bytes, %s)\n", out_path.c_str(), saved->size(),
              identical ? "bit-identical round-trip"
                        : "differs from input (input saved without digest?)");
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
  if (command == "info" && argc == 3) {
    return CmdInfo(argv[2]);
  }
  if (command == "verify" && argc == 3) {
    return CmdVerify(argv[2]);
  }
  if (command == "diff" && argc == 4) {
    return CmdDiff(argv[2], argv[3]);
  }
  if (command == "resave" && argc == 4) {
    return CmdResave(argv[2], argv[3]);
  }
  return Usage();
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
