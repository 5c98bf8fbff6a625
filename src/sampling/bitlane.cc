#include "sampling/bitlane.h"

#include <sys/mman.h>

#include <atomic>

namespace relmax {
namespace bitlane {
namespace {

std::atomic<LaneMode> g_mode{LaneMode::kAuto};

}  // namespace

LaneMode Mode() {
  const LaneMode mode = g_mode.load(std::memory_order_relaxed);
  return mode == LaneMode::kAuto ? LaneMode::kBranchFree : mode;
}

void SetMode(LaneMode mode) { g_mode.store(mode, std::memory_order_relaxed); }

const char* ModeName(LaneMode mode) {
  switch (mode) {
    case LaneMode::kAuto:
      return "auto";
    case LaneMode::kScalar:
      return "scalar";
    case LaneMode::kBranchFree:
      return "branch-free";
  }
  internal::CheckFailed("unhandled LaneMode", __FILE__, __LINE__);
}

BitMatrix::DataPtr BitMatrix::Allocate(size_t bytes, bool mapped) {
  if (mapped && bytes > 0) {
    void* const p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return DataPtr(static_cast<uint64_t*>(p),
                   Deleter{Storage::kMapped, bytes});
  }
  auto* const p = static_cast<uint64_t*>(
      ::operator new[](bytes, std::align_val_t{kLaneBytes}));
  std::memset(p, 0, bytes);
  return DataPtr(p, Deleter{Storage::kHeap, bytes});
}

void BitMatrix::Deleter::operator()(uint64_t* p) const {
  switch (storage) {
    case Storage::kHeap:
      ::operator delete[](p, std::align_val_t{kLaneBytes});
      break;
    case Storage::kMapped:
      ::munmap(p, bytes);
      break;
    case Storage::kExternal:
      break;
  }
}

}  // namespace bitlane
}  // namespace relmax
