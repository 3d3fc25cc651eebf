// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/common/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace trustlite {
namespace {

std::string Describe(const char* what, const std::string& path, int error) {
  return std::string(what) + " '" + path + "': " + std::strerror(error);
}

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound(Describe("cannot open", path, errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[64 * 1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  const int error = errno;
  std::fclose(f);
  if (failed) {
    return Internal(Describe("cannot read", path, error));
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, const void* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Internal(Describe("cannot open for writing", path, errno));
  }
  const bool written = std::fwrite(data, 1, size, f) == size;
  int error = errno;
  const bool closed = std::fclose(f) == 0;
  if (written && !closed) {
    error = errno;
  }
  if (!written || !closed) {
    return Internal(Describe("cannot write", path, error));
  }
  return OkStatus();
}

}  // namespace trustlite
