#ifndef RELMAX_COMMON_MEMORY_H_
#define RELMAX_COMMON_MEMORY_H_

#include <cstddef>

namespace relmax {

/// Current resident set size of this process in bytes (Linux /proc based;
/// returns 0 where unavailable).
size_t CurrentRssBytes();

/// Peak resident set size of this process in bytes (Linux /proc based;
/// returns 0 where unavailable). Reported in the paper's memory columns.
size_t PeakRssBytes();

/// Convenience: bytes -> fractional GiB for table output.
inline double BytesToGiB(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
}

/// Words in a world-indexed bitset: ceil(num_samples / 64).
inline size_t WorldWords(int num_samples) {
  return (static_cast<size_t>(num_samples) + 63) / 64;
}

/// Logical bytes of a `rows` × `num_samples` world bit-bank (lane padding
/// excluded) — the quantity the shared-world footprint budgets meter.
inline size_t BankBytes(size_t rows, int num_samples) {
  return rows * WorldWords(num_samples) * 8;
}

}  // namespace relmax

#endif  // RELMAX_COMMON_MEMORY_H_
