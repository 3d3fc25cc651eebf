// Copyright 2026 The TrustLite Reproduction Authors.
// Whole-file reads and writes for every host-side artifact (snapshots,
// firmware containers, trace JSON, transcripts, guest sources). A write
// fails unless every byte was written and the close succeeded, so a full
// disk (`/dev/full`) is an error rather than a silently truncated file.

#ifndef TRUSTLITE_SRC_COMMON_FILE_IO_H_
#define TRUSTLITE_SRC_COMMON_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace trustlite {

// The whole file at `path`: NotFound when it cannot be opened, Internal on a
// read error.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Creates or truncates `path` and writes `size` bytes from `data`: Internal
// when the open, the write or the close fails.
Status WriteFileBytes(const std::string& path, const void* data, size_t size);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_COMMON_FILE_IO_H_
